"""Exact samplers for the three ensemble regimes.

Every draw is a pure function of (params, stream): draw i of a batch runs on
PCG64(SeedSequence(master_seed, spawn_key=(i,))), so a batch is bit-for-bit
reproducible no matter how it is split or in which order its draws are made.
`sample_batch` does not build the SeedSequences: it computes their
generate_state words for all ids at once (`_stream_words`) and lets each
draw's PCG64 seed itself from them.  Scalar primitives come from numpy's
Generator (normal: ziggurat; gamma: Marsaglia-Tsang with the shape < 1
boost); Beta is built explicitly as a Gamma ratio.

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
`SampleBatch` stores the f free entries of each draw packed in one row, in
one column order for every regime; dense matrices are formed on demand, in
chunks.  A `SampleBlocks` run draws the same rows lazily, one block of
consecutive stream ids (about 1 MiB of packed floats) at a time.
"""
from __future__ import annotations

import functools
import math
import numbers
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence
from numpy.random.bit_generator import ISeedSequence

from .params import EnsembleParams, ParameterError, Regime

__all__ = [
    "RngStream",
    "MatrixSample",
    "SampleBatch",
    "sample_goe",
    "sample_levy_stable",
    "sample_ensemble",
    "sample_batch",
    "SampleBlocks",
    "sample_blocks",
]

# dense matrices are built in blocks of about this many floats (256 KiB)
_CHUNK_FLOATS = 1 << 15
# streamed draws come in batches of about this many packed floats (1 MiB):
# larger blocks raise peak memory, smaller ones pay each batch's fixed cost
# (stream-word setup) more often
_BLOCK_FLOATS = 1 << 17
# stream seed words are derived in blocks of this many ids, so that a large
# batch never holds the words of all its draws at once
_STATE_BLOCK = 1 << 10

# numpy's SeedSequence constants (stable under NEP 19)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _nonnegative_int(value, what: str) -> int:
    """`value` as an int; ParameterError unless it is a nonnegative integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ParameterError(f"{what} must be a nonnegative integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class RngStream:
    """One deterministic random stream per sample index.

    The stream is PCG64(SeedSequence(master_seed, spawn_key=(stream_id,))):
    identical (master_seed, stream_id) reproduces an identical draw regardless
    of batch split or scheduling.  Both must be nonnegative integers.
    """

    master_seed: int
    stream_id: int

    def __post_init__(self) -> None:
        _nonnegative_int(self.master_seed, "master seed")
        _nonnegative_int(self.stream_id, "stream id")

    def generator(self) -> Generator:
        return Generator(PCG64(SeedSequence(self.master_seed, spawn_key=(self.stream_id,))))


def _hashmix(value, hc: int, mult: int):
    """SeedSequence's hash of a uint32 int or array under hash constant hc; also the next hc."""
    hc_next = hc * mult & _MASK32
    value = (value ^ hc) * hc_next & _MASK32
    return value ^ (value >> 16), hc_next


def _mix(x, y):
    """SeedSequence's mix of two pool words (uint32 ints or arrays)."""
    r = ((x * _MIX_L & _MASK32) - (y * _MIX_R & _MASK32)) & _MASK32
    return r ^ (r >> 16)


def _mix_in(pool: list, word, hc: int) -> tuple[list, int]:
    """Mix one more entropy word into each pool word, as SeedSequence does past the fourth."""
    out = []
    for p in pool:
        v, hc = _hashmix(word, hc, _MULT_A)
        out.append(_mix(p, v))
    return out, hc


def _stream_words(master_seed: int, count: int, start: int = 0) -> Iterator[np.ndarray]:
    """SeedSequence(master_seed, spawn_key=(i,)).generate_state(4, uint64) for i in order.

    i runs over [start, start + count).  The derivation follows numpy's
    SeedSequence: the seed is split into little-endian uint32 words and
    padded to the 4-word pool, the stream id is one more word, the pool is
    mixed, and generate_state hashes the pool into 8 uint32 words, read as
    4 little-endian uint64.  Every word before the id is shared by all
    streams, so that part of the mixing runs once on Python ints; the id's
    part runs on uint32 arrays of a block of ids at a time.  Each row is a
    C-contiguous (4,) uint64 array, the words PCG64 seeds itself from.
    """
    words = [master_seed >> k & _MASK32 for k in range(0, max(master_seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    hc = _INIT_A
    pool = []
    for w in words[:4]:
        v, hc = _hashmix(w, hc, _MULT_A)
        pool.append(v)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v, hc = _hashmix(pool[src], hc, _MULT_A)
                pool[dst] = _mix(pool[dst], v)
    for w in words[4:]:
        pool, hc = _mix_in(pool, w, hc)
    stop = start + count
    for lo in range(start, stop, _STATE_BLOCK):
        mixed, _ = _mix_in(pool, np.arange(lo, min(lo + _STATE_BLOCK, stop), dtype=np.uint32), hc)
        state = np.empty((len(mixed[0]), 8), dtype=np.uint32)
        h = _INIT_B
        for k in range(8):
            state[:, k], h = _hashmix(mixed[k % 4], h, _MULT_B)
        # as numpy reads the uint32 words: little-endian pairs, then native uint64
        yield from state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _SeedWords(ISeedSequence):
    """One stream's `_stream_words` row, handed to PCG64 in place of its SeedSequence.

    PCG64 asks its seed sequence for generate_state(4, uint64) once, at
    construction, and runs its own setseq seeding on the answer, so
    `PCG64(_SeedWords(row))` is in the same state as PCG64 built on the
    SeedSequence the row came from.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


@dataclass(frozen=True)
class MatrixSample:
    """A single real symmetric draw with its generation metadata."""

    h: np.ndarray
    params: EnsembleParams
    # Gamma mixing variable; None outside the heavy-tailed branch
    xi: float | None
    # (master_seed, stream_id) when drawn from an RngStream, else None
    seed_path: tuple[int, int] | None

    @property
    def sample_index(self) -> int:
        """The stream id; 0 when drawn from a bare Generator."""
        return 0 if self.seed_path is None else self.seed_path[1]

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


def _draw_packed(params: EnsembleParams, gens, count: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Packed entries (count, f) of `count` draws, one generator of `gens` per draw, and their xi.

    The order of variates within a draw is part of the determinism contract.
    Each draw fills its row with f standard normals; on the heavy branch the
    Gamma variate xi comes first (redrawn while it underflows to 0), and on
    the restricted branch the row v is redrawn while it is all zero and the
    Beta radius u follows it.  xi is None outside the heavy branch.

    Each branch then scales the rows it drew, for all draws at once.  Every
    regime's rows hold the upper off-diagonals (row-major), then the
    diagonal.  Density exp(-alpha tr H^2) fixes the element variances at
    1/(4 alpha) and 1/(2 alpha), with alpha * xi / lambda on the heavy branch.
    A restricted v, drawn diagonal first, is rotated to that order and scaled
    to the weighted vector x = v |x| / |v| with |x|^2 = u |lambda| / alpha,
    whose off-diagonal coordinates are sqrt(2) H_ij.  Each `+ 0.0` reproduces
    the signed-zero handling of the scalar formulas (normal's loc, h + h.T),
    so the entries are byte-identical to per-draw assembly.
    """
    n, m = params.n, params.f - params.n
    core = np.empty((count, params.f))
    xi = None
    # extreme mixing variables at tiny lambda overflow to inf while scaling;
    # the spectral layer reports such draws as a typed error
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if params.regime is Regime.GAUSSIAN:
            for row, g in zip(core, gens):
                g.standard_normal(out=row)
            alpha = np.full(count, params.alpha)
        elif params.regime is Regime.LEVY_BRANCH:
            lam = params.lam
            xis = []
            for row, g in zip(core, gens):
                xi = g.gamma(lam)
                while xi == 0.0:  # underflow guard for very small shapes
                    xi = g.gamma(lam)
                g.standard_normal(out=row)
                xis.append(xi)
            xi = np.array(xis, dtype=float)
            alpha = params.alpha * xi / lam
        else:
            # second Beta parameter is 1/(1-q) + 1 = -(lambda + f/2) + 1, written
            # in lambda form so the q = -inf (bounded trace) limit lands on exactly 1
            shape_a, shape_b = params.f / 2.0, 1.0 - (params.lam + params.f / 2.0)
            sqs, us = [], []
            for row, g in zip(core, gens):
                g.standard_normal(out=row)
                sq = row.dot(row)
                while sq == 0.0:
                    g.standard_normal(out=row)
                    sq = row.dot(row)
                sqs.append(sq)
                us.append(_beta(shape_a, shape_b, g))
            radius = np.sqrt(np.array(us, dtype=float) * (-params.lam) / params.alpha)
            core = np.roll(core, -n, axis=1)  # the diagonal moves to the end, as on the other branches
            core += 0.0
            core *= (radius / np.sqrt(np.array(sqs, dtype=float)))[:, None]
            core[:, :m] /= math.sqrt(2.0)
            core[:, :m] += 0.0
            return core, None
        core[:, :m] *= np.sqrt(0.25 / alpha)[:, None]
        core[:, m:] *= np.sqrt(0.5 / alpha)[:, None]
        core += 0.0
    return core, xi


@functools.lru_cache(maxsize=64)
def _entry_columns(n: int) -> np.ndarray:
    """Packed column of each entry of an n x n matrix, row-major (read-only).

    Every regime's rows hold the upper off-diagonals (row-major), then the
    diagonal.  Both triangles of H read the same column.
    """
    m = n * (n - 1) // 2
    where = np.zeros((n, n), dtype=np.intp)
    where[np.triu_indices(n, 1)] = np.arange(m)
    where = (where + where.T + np.diag(m + np.arange(n))).ravel()
    where.setflags(write=False)
    return where


def _dense(params: EnsembleParams, packed: np.ndarray) -> np.ndarray:
    """Symmetric (k, n, n) matrices, C-ordered, from packed rows (k, f)."""
    n = params.n
    # np.take keeps the result C-ordered; packed[:, where] would not
    return np.take(packed, _entry_columns(n), axis=1).reshape(len(packed), n, n)


@dataclass(frozen=True, eq=False)
class SampleBatch(Sequence):
    """Columnar batch of draws on per-index streams (master_seed, start + i).

    `packed[i]` holds the f free entries of draw i in the one column order of
    `_draw_packed`; `xi` the Gamma mixing variables on the heavy branch.  Row
    i is stream start + i, so a batch may be one block of a longer run.  As a
    Sequence, indexing and iteration give `MatrixSample`s; a slice gives a
    list of them.  `h` is the dense (count, n, n) stack and `chunks()`
    yields it in blocks of about 32k floats.
    """

    params: EnsembleParams
    packed: np.ndarray
    xi: np.ndarray | None
    master_seed: int
    start: int = 0

    def __len__(self) -> int:
        return len(self.packed)

    def __getitem__(self, index):
        if isinstance(index, slice):
            ids = range(*index.indices(len(self)))
            return list(map(self._sample, ids, _dense(self.params, self.packed[index])))
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"sample index {index} out of range for a batch of {len(self)}")
        return self._sample(i, _dense(self.params, self.packed[i : i + 1])[0])

    def _sample(self, i: int, h: np.ndarray) -> MatrixSample:
        xi = None if self.xi is None else float(self.xi[i])
        return MatrixSample(h=h, params=self.params, xi=xi,
                            seed_path=(self.master_seed, self.start + i))

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


def sample_goe(n: int, alpha: float, rng) -> MatrixSample:
    """Gaussian-regime draw: density proportional to exp(-alpha tr H^2)."""
    return sample_ensemble(EnsembleParams.gaussian(n, alpha), rng)


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


def sample_ensemble(params: EnsembleParams, rng) -> MatrixSample:
    """One draw from whatever member `params` describes, by the batch routine on one row."""
    g, path = _resolve_rng(rng)
    packed, xi = _draw_packed(params, [g], 1)
    return MatrixSample(h=_dense(params, packed)[0], params=params,
                        xi=None if xi is None else float(xi[0]), seed_path=path)


def _stream_range(master_seed, count, start) -> tuple[int, int, int]:
    """(master_seed, count, start) as ints; ParameterError unless every id is one SeedSequence word."""
    master_seed = _nonnegative_int(master_seed, "master seed")
    count = _nonnegative_int(count, "count")
    start = _nonnegative_int(start, "start")
    if count >= 1 << 32:
        raise ParameterError(f"count must be below 2**32, got {count}")
    if start + count > 1 << 32:
        raise ParameterError(f"stream ids must be below 2**32, got start {start} + count {count}")
    return master_seed, count, start


def sample_batch(
    params: EnsembleParams,
    count: int,
    master_seed: int,
    threads: int = 1,
    *,
    start: int = 0,
) -> SampleBatch:
    """Draw `count` samples on the per-index streams start, ..., start + count - 1.

    Draw i runs on PCG64(SeedSequence(master_seed, spawn_key=(i,))), the
    stream of `RngStream(master_seed, i)`, so it depends only on
    (master_seed, i), and the batches of consecutive ranges [start, start +
    count) concatenate to the batch of their union, byte for byte.  Each
    stream's SeedSequence words are computed in bulk and PCG64 seeds itself
    from them.  The seed and start must be nonnegative integers, count below
    2**32 and start + count at most 2**32, so that every id is one
    SeedSequence word.  `threads` is accepted for compatibility and ignored:
    the draws run on one thread, because the per-stream loop holds the
    interpreter lock and a thread pool only slowed it down.
    """
    master_seed, count, start = _stream_range(master_seed, count, start)
    gens = map(Generator, map(PCG64, map(_SeedWords, _stream_words(master_seed, count, start))))
    packed, xi = _draw_packed(params, gens, count)
    return SampleBatch(params=params, packed=packed, xi=xi, master_seed=master_seed, start=start)


@dataclass(frozen=True)
class SampleBlocks:
    """`count` draws on streams (master_seed, i), drawn lazily as consecutive SampleBatch blocks.

    Iteration calls `sample_batch(..., start=lo)` for one block of `rows`
    draws (about 1 MiB of packed floats) at a time, so a consumer that
    reduces each block and drops it before asking for the next holds one
    block, not the whole run.
    The blocks concatenate to `sample_batch(params, count, master_seed)`
    byte for byte.
    """

    params: EnsembleParams
    count: int
    master_seed: int

    def __post_init__(self) -> None:
        master_seed, count, _ = _stream_range(self.master_seed, self.count, 0)
        object.__setattr__(self, "master_seed", master_seed)
        object.__setattr__(self, "count", count)

    def __len__(self) -> int:
        return self.count

    @property
    def rows(self) -> int:
        """Draws per block."""
        return max(1, _BLOCK_FLOATS // self.params.f)

    def __iter__(self) -> Iterator[SampleBatch]:
        step = self.rows
        for lo in range(0, self.count, step):
            # looked up at call time, so a wrapper installed on this module sees every block
            yield sample_batch(self.params, min(step, self.count - lo), self.master_seed, start=lo)


def sample_blocks(params: EnsembleParams, count: int, master_seed: int) -> SampleBlocks:
    """The draws of `sample_batch(params, count, master_seed)`, to be drawn block by block."""
    return SampleBlocks(params=params, count=count, master_seed=master_seed)
