"""Exact samplers for the three ensemble regimes.

Every draw is a pure function of (params, stream): streams are derived from
(master_seed, sample_index) through SeedSequence spawn keys, so a batch is
bit-for-bit reproducible no matter how it is split or in which order its
draws are made.  Scalar primitives come from numpy's Generator (normal:
ziggurat; gamma: Marsaglia-Tsang with the shape < 1 boost); Beta is built
explicitly as a Gamma ratio.

Every regime is a scalar law times one Gaussian core of f = n(n+1)/2
standard normals.  The q > 1 sampler realizes the ensemble as a
Gamma-weighted superposition of Gaussian ensembles: draw xi ~ Gamma(lambda, 1),
then a GOE matrix at the rescaled confinement alpha * xi / lambda.  The q < 1
sampler is an exact radial decomposition on the trace ball: in the weighted
coordinates x_ii = H_ii, x_ij = sqrt(2) H_ij (i < j) the density depends on
|x| alone, so a uniform direction times a Beta-distributed squared radius is
an exact draw; rejection would be exponentially wasteful in f.

A batch is columnar: the per-stream loop only draws the scalar and the core,
and the scaling onto matrix entries is vectorised over the whole batch.  A
`SampleBatch` stores the f free entries of each draw packed in one row;
dense matrices are formed on demand, in chunks.
"""
from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

from .params import EnsembleParams, ParameterError, Regime

__all__ = [
    "RngStream",
    "MatrixSample",
    "SampleBatch",
    "sample_goe",
    "sample_levy_stable",
    "sample_ensemble",
    "sample_batch",
]

# dense matrices are built in blocks of about this many floats (256 KiB)
_CHUNK_FLOATS = 1 << 15


@dataclass(frozen=True)
class RngStream:
    """One deterministic random stream per sample index.

    Identical (master_seed, stream_id) reproduces an identical draw regardless
    of batch split or scheduling.
    """

    master_seed: int
    stream_id: int

    def generator(self) -> Generator:
        return Generator(PCG64(SeedSequence(self.master_seed, spawn_key=(self.stream_id,))))


@dataclass(frozen=True)
class MatrixSample:
    """A single real symmetric draw with its generation metadata."""

    h: np.ndarray
    params: EnsembleParams
    # Gamma mixing variable; None outside the heavy-tailed branch
    xi: float | None
    sample_index: int
    # (master_seed, stream_id) when drawn from an RngStream, else None
    seed_path: tuple[int, int] | None

    def trace_sq(self) -> float:
        return float(np.sum(self.h * self.h))


def _resolve_rng(rng) -> tuple[Generator, tuple[int, int] | None]:
    if isinstance(rng, RngStream):
        return rng.generator(), (rng.master_seed, rng.stream_id)
    if isinstance(rng, Generator):
        return rng, None
    raise TypeError(f"rng must be an RngStream or numpy Generator, got {type(rng)!r}")


def _beta(a: float, b: float, g: Generator) -> float:
    """One Beta(a, b) variate built as the Gamma ratio g1 / (g1 + g2)."""
    while True:
        g1 = g.gamma(a)
        g2 = g.gamma(b)
        s = g1 + g2
        if s > 0.0:  # guard against simultaneous underflow at tiny shapes
            return float(g1 / s)


# ---------------------------------------------------------------------------
# the Gaussian core: one routine for single draws and batches


def _draw(params: EnsembleParams, g: Generator, core: np.ndarray) -> tuple[float, float]:
    """One draw's variates, in the regime's stream order (part of the determinism contract).

    Fills `core` (length f) with standard normals and returns the scalar
    law's variates: (0, 0) at the Gaussian point, (xi, 0) on the heavy branch
    (Gamma first, then the core), and (|v|^2, u) on the restricted branch
    (the core, redrawn while it is all zero, then the Beta radius u).
    """
    regime = params.regime
    if regime is Regime.GAUSSIAN:
        g.standard_normal(out=core)
        return 0.0, 0.0
    if regime is Regime.LEVY_BRANCH:
        xi = g.gamma(params.lam)
        while xi == 0.0:  # underflow guard for very small shapes
            xi = g.gamma(params.lam)
        g.standard_normal(out=core)
        return xi, 0.0
    g.standard_normal(out=core)
    sq = core.dot(core)
    while sq == 0.0:
        g.standard_normal(out=core)
        sq = core.dot(core)
    # second Beta parameter is 1/(1-q) + 1 = -(lambda + f/2) + 1, written in
    # lambda form so the q = -inf (bounded trace) limit lands on exactly 1
    return sq, _beta(params.f / 2.0, 1.0 - (params.lam + params.f / 2.0), g)


def _scale(params: EnsembleParams, core: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Turn the cores (count, f) into packed matrix entries, in place, for all draws at once.

    Gaussian and heavy rows hold the upper off-diagonal block, then the
    diagonal: density exp(-alpha tr H^2) fixes the element variances at
    1/(4 alpha) and 1/(2 alpha), with alpha * xi / lambda on the heavy branch.
    Restricted rows hold the diagonal, then the upper off-diagonals: the
    weighted vector x = v |x| / |v| with |x|^2 = u |lambda| / alpha, whose
    off-diagonal coordinates are sqrt(2) H_ij.  Each `+ 0.0` reproduces the
    signed-zero handling of the scalar formulas (normal's loc, h + h.T), so
    the entries are byte-identical to per-draw assembly.
    """
    n, m = params.n, params.f - params.n
    # extreme mixing variables at tiny lambda overflow to inf here; the
    # spectral layer reports such draws as a typed error
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if params.regime is Regime.RESTRICTED_TRACE:
            radius = np.sqrt(b * (-params.lam) / params.alpha)
            core += 0.0
            core *= (radius / np.sqrt(a))[:, None]
            core[:, n:] /= math.sqrt(2.0)
            core[:, n:] += 0.0
            return
        if params.regime is Regime.GAUSSIAN:
            alpha = np.full(len(core), params.alpha)
        else:
            alpha = params.alpha * a / params.lam
        core[:, :m] *= np.sqrt(0.25 / alpha)[:, None]
        core[:, m:] *= np.sqrt(0.5 / alpha)[:, None]
        core += 0.0


@functools.lru_cache(maxsize=64)
def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major upper off-diagonal indices of an n x n matrix (read-only)."""
    iu = np.triu_indices(n, 1)
    for a in iu:
        a.setflags(write=False)
    return iu


def _dense(params: EnsembleParams, packed: np.ndarray) -> np.ndarray:
    """Symmetric (k, n, n) matrices from packed rows (k, f); both triangles share each value."""
    n = params.n
    if params.regime is Regime.RESTRICTED_TRACE:
        diag, off = packed[:, :n], packed[:, n:]
    else:
        off, diag = packed[:, : params.f - n], packed[:, params.f - n :]
    h = np.zeros((len(packed), n, n))
    iu, ju = _triu(n)
    h[:, iu, ju] = off
    h[:, ju, iu] = off
    d = np.arange(n)
    h[:, d, d] = diag
    return h


def _draw_packed(params: EnsembleParams, gens, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Packed entries (count, f) and first scalar variates (count,), one generator per draw."""
    core = np.empty((count, params.f))
    a = np.zeros(count)
    b = np.zeros(count)
    for i, g in enumerate(gens):
        a[i], b[i] = _draw(params, g, core[i])
    _scale(params, core, a, b)
    return core, a


@dataclass(frozen=True, eq=False)
class SampleBatch(Sequence):
    """Columnar batch of draws on per-index streams (master_seed, i).

    `packed[i]` holds the f free entries of draw i in its regime's draw
    order; `xi` the Gamma mixing variables on the heavy branch.  As a
    Sequence, indexing and iteration give `MatrixSample`s; a slice gives a
    list of them.  `h` is the dense (count, n, n) stack and `chunks()`
    yields it in blocks of about 32k floats.
    """

    params: EnsembleParams
    packed: np.ndarray
    xi: np.ndarray | None
    master_seed: int

    def __len__(self) -> int:
        return len(self.packed)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"sample index {index} out of range for a batch of {len(self)}")
        return self._sample(i, _dense(self.params, self.packed[i : i + 1])[0])

    def __iter__(self) -> Iterator[MatrixSample]:
        start = 0
        for block in self.chunks():
            for j, h in enumerate(block):
                yield self._sample(start + j, h)
            start += len(block)

    @property
    def h(self) -> np.ndarray:
        return _dense(self.params, self.packed)

    @staticmethod
    def chunk_rows(n: int) -> int:
        """Matrices per dense block at size n."""
        return max(1, _CHUNK_FLOATS // (n * n))

    def chunks(self) -> Iterator[np.ndarray]:
        step = self.chunk_rows(self.params.n)
        for lo in range(0, len(self), step):
            yield _dense(self.params, self.packed[lo : lo + step])

    def _sample(self, i: int, h: np.ndarray) -> MatrixSample:
        xi = None if self.xi is None else float(self.xi[i])
        return MatrixSample(h=h, params=self.params, xi=xi, sample_index=i,
                            seed_path=(self.master_seed, i))


def sample_goe(n: int, alpha: float, rng, sample_index: int = 0) -> MatrixSample:
    """Gaussian-regime draw: density proportional to exp(-alpha tr H^2)."""
    return sample_ensemble(EnsembleParams.gaussian(n, alpha), rng, sample_index)


def sample_levy_stable(sigma: float, scale: float, rng, size: int | None = None):
    """Symmetric stable variate(s) with characteristic function exp(-|scale k|^sigma).

    Chambers-Mallows-Stuck transform of a uniform angle and a unit exponential.
    Boundary cases under this scale convention: sigma = 2 is Normal(0, 2 scale^2)
    and sigma = 1 is Cauchy with half-width `scale`.
    """
    if not 0.0 < sigma <= 2.0:
        raise ParameterError(f"stable exponent must lie in (0, 2], got {sigma}")
    if not scale > 0:
        raise ParameterError(f"scale must be positive, got {scale}")
    g, _ = _resolve_rng(rng)
    phi = g.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
    if sigma == 1.0:
        x = np.tan(phi)
    else:
        w = g.exponential(1.0, size=size)
        x = (
            np.sin(sigma * phi)
            / np.cos(phi) ** (1.0 / sigma)
            * (np.cos((1.0 - sigma) * phi) / w) ** ((1.0 - sigma) / sigma)
        )
    out = scale * x
    return float(out) if size is None else out


def sample_ensemble(params: EnsembleParams, rng, sample_index: int = 0) -> MatrixSample:
    """One draw from whatever member `params` describes, by the batch routine on one row."""
    g, path = _resolve_rng(rng)
    packed, a = _draw_packed(params, [g], 1)
    xi = float(a[0]) if params.regime is Regime.LEVY_BRANCH else None
    return MatrixSample(h=_dense(params, packed)[0], params=params, xi=xi,
                        sample_index=sample_index, seed_path=path)


def sample_batch(
    params: EnsembleParams,
    count: int,
    master_seed: int,
    threads: int = 1,
) -> SampleBatch:
    """Draw `count` samples on per-index streams, ordered by sample_index.

    Draw i depends only on (master_seed, i).  `threads` is accepted for
    compatibility and ignored: the draws run on one thread, because the
    per-stream loop holds the interpreter lock and a thread pool only slowed
    it down.
    """
    if count < 0:
        raise ParameterError(f"count must be nonnegative, got {count}")
    gens = (RngStream(master_seed, i).generator() for i in range(count))
    packed, a = _draw_packed(params, gens, count)
    xi = a if params.regime is Regime.LEVY_BRANCH else None
    return SampleBatch(params=params, packed=packed, xi=xi, master_seed=master_seed)
