"""Empirical spectral statistics: eigenvalues, histograms, gaps, spacings, tails.

Everything here is measurement; the matching closed-form laws live in
`analytic`.  Draws come in as one `SampleBatch`, or as `SampleBlocks` drawn
block by block with one block held at a time, and leave as one
`SpectrumBatch` of sorted rows.  Batch statistics are computed from pooled
data, never from streaming order, so results are independent of how the
batch was assembled.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .analytic import _grid, mean_count
from .params import EnsembleParams, ParameterError, Regime
from .sampler import SampleBatch, SampleBlocks

__all__ = [
    "SpectrumBatch",
    "Histogram",
    "GapEstimate",
    "TailIndexEstimate",
    "eigenvalues",
    "spectra_from_samples",
    "empirical_density",
    "empirical_gap",
    "nn_spacings",
    "nn_spacing",
    "tail_index",
    "ks_distance",
    "ks_distance_two",
]

# ks_distance evaluates the CDF on slices of this many sorted values (128 KiB)
_KS_SLICE = 1 << 14


@dataclass(frozen=True)
class SpectrumBatch:
    """Sorted eigenvalue vectors from many draws; the unit of empirical statistics."""

    spectra: np.ndarray  # shape (count, n), each row ascending
    params: EnsembleParams

    def __post_init__(self) -> None:
        s = np.asarray(self.spectra)
        if s.ndim != 2 or s.shape[1] != self.params.n or len(s) < 1:
            raise ParameterError(f"spectra must have shape (count >= 1, n), got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ParameterError("spectra must be finite")
        # adjacent columns compared in place: no float temporary as large as the spectra
        if np.any(s[:, 1:] < s[:, :-1]):
            raise ParameterError("each spectrum must be sorted ascending")

    @property
    def count(self) -> int:
        return len(self.spectra)

    def pooled(self) -> np.ndarray:
        return self.spectra.ravel()


@dataclass(frozen=True)
class Histogram:
    """Binned data with an explicit normalization mode.

    mode "probability-density": heights integrate to 1.
    mode "level-density": heights integrate to n (eigenvalues per matrix).
    """

    edges: np.ndarray
    counts: np.ndarray  # raw occupation numbers
    heights: np.ndarray  # normalized per mode
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in ("probability-density", "level-density"):
            raise ParameterError(f"unknown normalization mode {self.mode!r}")
        if len(self.edges) != len(self.counts) + 1:
            raise ParameterError("need len(edges) == len(counts) + 1")
        if np.any(np.asarray(self.counts) < 0):
            raise ParameterError("counts must be nonnegative")

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def integral(self) -> float:
        return float(np.sum(self.heights * self.widths))


@dataclass(frozen=True)
class GapEstimate:
    """Empirical gap curve: for each theta, the no-eigenvalue fraction and its pairing."""

    theta: np.ndarray
    e_hat: np.ndarray  # fraction of spectra with no eigenvalue in (-theta, theta)
    stderr: np.ndarray  # binomial standard error of e_hat
    s_hat: np.ndarray  # mean count pairing: analytic by default, see empirical_gap
    count: int
    params: EnsembleParams
    s_source: str = field(default="analytic")


@dataclass(frozen=True)
class TailIndexEstimate:
    index: float
    stderr: float
    k: int  # top order statistics used


def eigenvalues(h: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending.

    LAPACK symmetric solver (Householder tridiagonalization followed by a
    divide-and-conquer/QL sweep); backward stable, residual per pair at the
    1e-12 * ||H|| level.  The matrix must be square, finite and symmetric to
    1e-10 of its largest entry.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ParameterError(f"need a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ParameterError("matrix has non-finite entries")
    if np.abs(h - h.T).max() > 1e-10 * max(1.0, np.abs(h).max()):
        raise ParameterError("matrix is not symmetric")
    return np.linalg.eigvalsh(h)


def spectra_from_samples(samples: SampleBatch | SampleBlocks) -> SpectrumBatch:
    """Diagonalize a SampleBatch, or SampleBlocks block by block, into a SpectrumBatch.

    Every regime packs its rows in one column order, and dense matrices are
    formed only for LAPACK: one batched call per chunk, whose spectra fill one
    preallocated (count, n) array.  SampleBlocks are drawn as consumed, and
    each block and its last chunk are dropped before the next is drawn.  Each
    packed value fills both triangles, so finite chunks are symmetric by
    construction.  Draws with non-finite entries (the mixing variable
    overflows at tiny lambda) are counted on the packed rows, once per block,
    and raise one ParameterError that counts them over the whole batch.
    """
    if isinstance(samples, SampleBatch):
        blocks = (samples,)
    elif isinstance(samples, SampleBlocks):
        blocks = samples
    else:
        raise TypeError(f"samples must be a SampleBatch or SampleBlocks, got {type(samples)!r}")
    if not len(samples):
        raise ParameterError("empty sample list")
    spectra = np.empty((len(samples), samples.params.n))
    nonfinite = 0
    lo = 0
    for block in blocks:
        nonfinite += int(np.count_nonzero(~np.isfinite(block.packed).all(axis=1)))
        if not nonfinite:
            for h in block.chunks():
                spectra[lo : lo + len(h)] = np.linalg.eigvalsh(h)
                lo += len(h)
            del h
        # the loop variables would keep this block alive while the next one is drawn
        del block
    if nonfinite:
        raise ParameterError(
            f"{nonfinite} of {len(samples)} draws have non-finite entries; "
            "lambda or alpha is too small for float64"
        )
    return SpectrumBatch(spectra=spectra, params=samples.params)


def empirical_density(batch: SpectrumBatch, bins) -> Histogram:
    """Level-density histogram of the pooled spectra (integrates to n)."""
    pooled = batch.pooled()
    counts, edges = np.histogram(pooled, bins=bins)
    widths = np.diff(edges)
    # heights: counts per matrix per unit energy, so the integral over the
    # binned range approaches n as the range covers the spectrum
    heights = counts / (batch.count * widths)
    return Histogram(edges=edges, counts=counts, heights=heights, mode="level-density")


def empirical_gap(batch: SpectrumBatch, theta_grid, s_source: str = "analytic") -> GapEstimate:
    """Fraction of spectra with no eigenvalue in (-theta, theta), per theta.

    The s pairing is the analytic mean count by default (the standard way the
    simulated gap law is overlaid on theory); s_source="empirical" instead
    counts eigenvalues inside the window, making the curve self-contained.
    """
    thetas = _grid(theta_grid, "theta grid")
    if not np.all(thetas >= 0):
        raise ParameterError("theta grid must be nonnegative")
    if s_source not in ("analytic", "empirical"):
        raise ParameterError(f"s_source must be 'analytic' or 'empirical', got {s_source!r}")
    if s_source == "analytic" and batch.params.regime is not Regime.LEVY_BRANCH:
        raise ParameterError("analytic s pairing needs the heavy-tailed branch; use s_source='empirical'")
    m = batch.count
    # a spectrum has a gap iff its closest |E|, next to its sorted row's sign change, is >= theta
    k = np.count_nonzero(batch.spectra < 0.0, axis=1)[:, None]
    around = np.take_along_axis(batch.spectra, np.clip(np.hstack([k - 1, k]), 0, batch.params.n - 1), axis=1)
    e_hat = (m - np.searchsorted(np.sort(np.abs(around).min(axis=1)), thetas, side="left")) / m
    if s_source == "empirical":
        pooled = np.abs(batch.spectra).ravel()
        pooled.sort()
        s_hat = np.searchsorted(pooled, thetas, side="left") / m
    else:
        s_hat = mean_count(thetas, batch.params)
    stderr = np.sqrt(np.maximum(e_hat * (1.0 - e_hat), 0.0) / m)
    return GapEstimate(
        theta=thetas, e_hat=e_hat, stderr=stderr, s_hat=s_hat,
        count=m, params=batch.params, s_source=s_source,
    )


def nn_spacings(batch: SpectrumBatch, window: float = 0.6) -> np.ndarray:
    """Pooled nearest-neighbor spacings from the central window, unit mean.

    window is the central fraction of each spectrum kept (0.6 keeps the middle
    60% of levels, dropping edge effects); spacings are normalized by their
    pooled mean, not per spectrum.
    """
    if not 0.0 < window <= 1.0:
        raise ParameterError(f"window must lie in (0, 1], got {window}")
    n = batch.params.n
    if n < 2:
        raise ParameterError(f"nearest-neighbor spacings need n >= 2, got n = {n}")
    keep = max(2, int(round(window * n)))
    lo = (n - keep) // 2
    block = batch.spectra[:, lo : lo + keep]
    gaps = np.diff(block, axis=1).ravel()
    mean = gaps.mean()
    if mean <= 0.0:
        raise ParameterError("degenerate spectra: zero mean spacing")
    return gaps / mean


def nn_spacing(batch: SpectrumBatch, window: float = 0.6, bins=40) -> Histogram:
    """Probability-density histogram of the normalized central spacings."""
    s = nn_spacings(batch, window)
    counts, edges = np.histogram(s, bins=bins)
    heights = counts / (len(s) * np.diff(edges))
    return Histogram(edges=edges, counts=counts, heights=heights, mode="probability-density")


def default_hill_k(n: int) -> int:
    """sqrt(n) top order statistics, clamped to [50, n//10] when that range exists."""
    k = int(math.isqrt(n))
    k = max(50, k)
    k = min(k, n // 10)
    return max(1, min(k, n - 1))


def tail_index(values, k: int | None = None) -> TailIndexEstimate:
    """Hill estimator of the survival exponent of |values|.

    For a density decaying like |x|^-(gamma+1) (survival exponent gamma) the
    estimate converges to gamma; stderr is the asymptotic gamma/sqrt(k).
    Zeros and NaN are dropped; an infinite value is a ParameterError, since
    its log would swamp the Hill mean.
    """
    # a fresh array, partitioned in place; zeros and NaN cost one more copy
    x = np.abs(np.asarray(values, dtype=float).ravel())
    if not (x > 0.0).all():
        x = x[x > 0.0]
    n = len(x)
    if n < 2:
        raise ParameterError("need at least two nonzero values")
    if k is None:
        k = default_hill_k(n)
    if isinstance(k, bool) or not (isinstance(k, numbers.Integral) and 0 < k < n):
        raise ParameterError(f"need an integer k with 0 < k < {n}, got k={k!r}")
    k = int(k)
    # k largest plus the threshold order statistic, ascending, as in a full sort
    x.partition(n - k - 1)
    top = np.sort(x[n - k - 1 :])
    if top[-1] == math.inf:  # the largest value, so always in the top k + 1
        raise ParameterError("tail index needs finite values, got an infinite one")
    logs = np.log(top)
    hill = float(np.mean(logs[1:] - logs[0]))
    if hill <= 0.0:
        raise ParameterError("degenerate upper tail (all top values equal)")
    index = 1.0 / hill
    return TailIndexEstimate(index=index, stderr=index / math.sqrt(k), k=k)


def ks_distance(sample, cdf) -> float:
    """Kolmogorov-Smirnov sup |F_hat - F| against a callable CDF.

    The CDF and both one-sided gaps are evaluated on fixed slices of the
    sorted sample, so no temporary is as large as the sample; np.maximum
    keeps a NaN from any slice, as one whole-sample max would.
    """
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    n = len(x)
    if n == 0:
        raise ParameterError("empty sample")
    above = below = -math.inf
    for lo in range(0, n, _KS_SLICE):
        hi = min(lo + _KS_SLICE, n)
        f = np.asarray(cdf(x[lo:hi]), dtype=float)
        grid = np.arange(lo + 1, hi + 1) / n
        above = np.maximum(above, np.max(grid - f))
        below = np.maximum(below, np.max(f - (grid - 1.0 / n)))
    return float(max(above, below))


def ks_distance_two(a, b) -> float:
    """Two-sample KS statistic; NaN if either sample holds a NaN, as in ks_distance."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if len(a) == 0 or len(b) == 0:
        raise ParameterError("empty sample")
    if math.isnan(a[-1]) or math.isnan(b[-1]):  # np.sort puts NaN last
        return math.nan
    allv = np.concatenate([a, b])
    fa = np.searchsorted(a, allv, side="right") / len(a)
    fb = np.searchsorted(b, allv, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))
