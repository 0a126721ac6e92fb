"""Spectral estimators against an independent eigensolver and known laws.

The eigenvalue routine is cross-checked with the Sturm-bisection solver in
oracles.py (own Householder reduction plus sign-count bisection, no LAPACK).
Monte Carlo checks run on pinned seeds with tolerances at least twice the
deviation observed there.
"""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from oracles import sturm_eigenvalues

import qrmt.analytic as an
import qrmt.spectral
from qrmt.params import EnsembleParams, ParameterError
from qrmt.sampler import RngStream, _dense, _draw_packed, sample_batch, sample_blocks, sample_goe
from qrmt.spectral import (
    _KS_SLICE,
    GapEstimate,
    Histogram,
    SpectrumBatch,
    default_hill_k,
    eigenvalues,
    empirical_density,
    empirical_gap,
    ks_distance,
    ks_distance_two,
    nn_spacing,
    nn_spacings,
    spectra_from_samples,
    tail_index,
)


def _batch(params, count, seed) -> SpectrumBatch:
    return spectra_from_samples(sample_batch(params, count, master_seed=seed))


# ------------------------------------------------------------- eigenvalues

def test_eigenvalues_pauli_like():
    ev = eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(ev, [-1.0, 1.0], atol=1e-14)
    ev2 = eigenvalues(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(ev2, [-1.0, 2.0, 3.0], atol=0)


def test_eigenvalues_match_sturm_oracle():
    g = RngStream(31, 0).generator()
    for n in (2, 5, 8):
        h = g.normal(size=(n, n))
        h = h + h.T
        assert np.allclose(eigenvalues(h), sturm_eigenvalues(h), atol=1e-10)


def test_eigenvalues_trace_identities():
    g = RngStream(32, 0).generator()
    h = g.normal(size=(7, 7))
    h = h + h.T
    ev = eigenvalues(h)
    assert np.sum(ev) == pytest.approx(np.trace(h), rel=1e-12)
    assert np.sum(ev**2) == pytest.approx(np.sum(h * h), rel=1e-12)


def test_eigenvalues_rotation_invariance():
    g = RngStream(33, 0).generator()
    h = g.normal(size=(6, 6))
    h = h + h.T
    o, _ = np.linalg.qr(g.normal(size=(6, 6)))
    assert np.allclose(eigenvalues(o.T @ h @ o), eigenvalues(h), atol=1e-10)


def test_eigenvalues_validation():
    with pytest.raises(ParameterError):
        eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ParameterError):
        eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ------------------------------------------------------------------ batches

def test_spectrum_batch_validation():
    p = EnsembleParams.gaussian(3, alpha=1.0)
    with pytest.raises(ParameterError):
        SpectrumBatch(spectra=np.array([[2.0, 1.0, 3.0]]), params=p)
    with pytest.raises(ParameterError):
        SpectrumBatch(spectra=np.empty((0, 3)), params=p)
    with pytest.raises(ParameterError):
        SpectrumBatch(spectra=np.zeros((2, 4)), params=p)
    b = SpectrumBatch(spectra=np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 4.0]]), params=p)
    assert b.pooled().shape == (6,)
    # ties, signed zeros included, are sorted; one inversion anywhere is not
    SpectrumBatch(spectra=np.array([[1.0, 1.0, 3.0], [-1.0, 0.0, -0.0]]), params=p)
    with pytest.raises(ParameterError, match="sorted"):
        SpectrumBatch(spectra=np.array([[1.0, 2.0, 3.0], [0.0, 4.0, 3.9]]), params=p)


def test_spectrum_batch_rejects_non_finite_spectra():
    # a NaN row fails no sortedness comparison, so it must be caught first
    p = EnsembleParams.from_lambda(2, 1.5, alpha=1.0)
    for bad in ([[np.nan, 1.0], [-0.5, 0.2]], [[-np.inf, 1.0], [-0.5, 0.2]]):
        with pytest.raises(ParameterError, match="^spectra must be finite$"):
            SpectrumBatch(spectra=np.array(bad), params=p)
    with pytest.raises(ParameterError, match="^spectra must be finite$"):
        SpectrumBatch(spectra=np.array([[np.nan]]), params=EnsembleParams.gaussian(1, alpha=1.0))


def test_spectrum_batch_count_is_the_row_count():
    p = EnsembleParams.gaussian(3, alpha=1.0)
    spectra = np.tile([-1.0, 0.0, 1.0], (5, 1))
    assert SpectrumBatch(spectra, p).count == len(spectra) == 5


def test_spectra_from_samples_round_trip():
    p = EnsembleParams.from_lambda(5, 1.0, alpha=2.0)
    samples = sample_batch(p, 7, master_seed=5)
    b = spectra_from_samples(samples)
    assert b.count == 7 and b.spectra.shape == (7, 5)
    # row 3 must be the eigenvalues of matrix 3
    assert np.allclose(b.spectra[3], eigenvalues(samples[3].h), atol=0)
    with pytest.raises(TypeError, match="SampleBatch"):
        spectra_from_samples([])
    with pytest.raises(TypeError, match="SampleBatch"):
        spectra_from_samples(list(samples))


def test_spectra_from_samples_rejects_an_empty_batch():
    p = EnsembleParams.from_lambda(5, 1.0, alpha=2.0)
    with pytest.raises(ParameterError, match="^empty sample list$"):
        spectra_from_samples(sample_batch(p, 0, master_seed=5))


def test_spectra_from_samples_batched_equals_per_matrix():
    # one batched eigensolve per chunk gives the per-matrix spectra bit for
    # bit, also when the batch spans several chunks (n=40)
    for p, count in ((EnsembleParams.gaussian(40, alpha=1.0), 45),
                     (EnsembleParams.from_q(3, 0.5, alpha=1.0), 30)):
        samples = sample_batch(p, count, master_seed=8)
        per_matrix = np.stack([eigenvalues(s.h) for s in samples])
        assert spectra_from_samples(samples).spectra.tobytes() == per_matrix.tobytes()


def test_spectra_from_samples_counts_nonfinite_draws():
    # at lambda = 0.001 the Gamma mixing variable underflows far enough that
    # some draws overflow to inf; that is a typed error naming their count
    p = EnsembleParams.from_lambda(10, 0.001, alpha=1.0)
    samples = sample_batch(p, 3000, master_seed=0)
    bad = int(np.count_nonzero(~np.isfinite(samples.packed).all(axis=1)))
    assert bad == 72  # measured at this seed
    with pytest.raises(ParameterError, match=f"^{bad} of 3000 draws have non-finite entries"):
        spectra_from_samples(samples)
    with pytest.raises(ParameterError, match="non-finite"):
        eigenvalues(np.array([[np.inf, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("p", [
    *(pytest.param(EnsembleParams.from_lambda(n, 1.5, alpha="auto"), id=str(n)) for n in (2, 10, 50)),
    pytest.param(EnsembleParams.from_q(6, 0.5), id="restricted-n6"),
    pytest.param(EnsembleParams.from_q(5, -math.inf), id="bounded-n5"),
])
def test_streamed_spectra_equal_the_whole_batch(p):
    # block boundaries fall before, at and after one block, and inside a fourth;
    # row i of the whole batch depends only on draw i, so one batch serves all counts
    rows = sample_blocks(p, 1, master_seed=12).rows
    counts = (rows - 1, rows, rows + 1, 3 * rows + 2)
    whole = spectra_from_samples(sample_batch(p, counts[-1], master_seed=12)).spectra
    for count in counts:
        streamed = spectra_from_samples(sample_blocks(p, count, master_seed=12))
        assert streamed.count == count and streamed.params == p
        assert streamed.spectra.tobytes() == whole[:count].tobytes()


def test_streamed_nonfinite_draws_are_counted_over_all_blocks():
    p = EnsembleParams.from_lambda(10, 0.001, alpha=1.0)
    samples = sample_batch(p, 10000, master_seed=0)
    bad = np.flatnonzero(~np.isfinite(samples.packed).all(axis=1))
    rows = sample_blocks(p, 1, master_seed=0).rows
    assert len(set(bad // rows)) >= 2  # the bad draws span several blocks
    message = f"^{len(bad)} of 10000 draws have non-finite entries"
    with pytest.raises(ParameterError, match=message):
        spectra_from_samples(sample_blocks(p, 10000, master_seed=0))
    with pytest.raises(ParameterError, match=message):
        spectra_from_samples(samples)
    with pytest.raises(ParameterError, match="^empty sample list$"):
        spectra_from_samples(sample_blocks(p, 0, master_seed=0))


def _peak_bytes(make) -> int:
    tracemalloc.start()
    try:
        spectra_from_samples(make())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_spectra_hold_one_block_of_draws():
    # 2000 draws at n = 50 are 20.4 MB of packed floats; the streamed route
    # holds the 0.8 MB of spectra plus one block and its temporaries
    p = EnsembleParams.from_lambda(50, 1.0, alpha="auto")
    bound = 8 * 2**20
    streamed = _peak_bytes(lambda: sample_blocks(p, 2000, master_seed=7))
    assert streamed < bound
    assert _peak_bytes(lambda: sample_batch(p, 2000, master_seed=7)) > bound
    # one 1 MiB block and a 256 KiB dense chunk beside the spectra peak at 2.3 MiB;
    # a previous block kept alive while the next is drawn, or 2 MiB blocks, pass 3 MiB
    assert streamed < 3 * 2**20


# --------------------------------------------------------------- histograms

def test_histogram_modes_and_integral():
    edges = np.array([0.0, 1.0, 3.0])
    counts = np.array([2, 6])
    hp = Histogram(edges=edges, counts=counts, heights=np.array([0.25, 0.375]),
                   mode="probability-density")
    assert hp.integral() == pytest.approx(1.0)
    assert np.allclose(hp.centers, [0.5, 2.0])
    assert np.allclose(hp.widths, [1.0, 2.0])
    with pytest.raises(ParameterError):
        Histogram(edges=edges, counts=counts, heights=counts / 8.0, mode="nonsense")
    with pytest.raises(ParameterError):
        Histogram(edges=edges[:2], counts=counts, heights=counts / 8.0,
                  mode="probability-density")
    with pytest.raises(ParameterError) as exc:
        Histogram(edges=edges, counts=np.array([2, -1]), heights=np.array([0.25, 0.0]),
                  mode="probability-density")
    assert str(exc.value) == "counts must be nonnegative"


def test_empirical_density_level_normalization():
    # level-density mode integrates to n, not 1
    p = EnsembleParams.gaussian(6, alpha=0.5)
    b = _batch(p, 400, seed=41)
    h = empirical_density(b, bins=np.linspace(-6, 6, 25))
    assert h.mode == "level-density"
    inside = np.count_nonzero(np.abs(b.pooled()) < 6.0) / b.count
    assert h.integral() == pytest.approx(inside, rel=1e-12)
    assert h.integral() == pytest.approx(6.0, rel=0.02)  # little mass beyond |E| = 6


def test_empirical_density_tracks_semicircle():
    p = EnsembleParams.gaussian(20, alpha=0.5)
    b = _batch(p, 500, seed=42)
    edges = np.linspace(-5, 5, 21)
    h = empirical_density(b, bins=edges)
    mid = an.semicircle_density(h.centers, 20, 0.5)
    # bin-averaged comparison, coarse MC tolerance
    assert np.max(np.abs(h.heights - mid)) < 0.12 * np.max(mid)


# ----------------------------------------------------- density convergence

def test_empirical_density_converges_to_level_density():
    p = EnsembleParams.from_lambda(10, 1.0, alpha="auto")
    grid = np.linspace(0, 30, 1200)
    rho = an.level_density(grid, p) / p.n
    half = integrate.cumulative_trapezoid(rho, grid, initial=0.0)

    def cdf(x):
        c = np.interp(np.abs(x), grid, half, right=half[-1])
        return np.where(np.asarray(x) >= 0, 0.5 + c, 0.5 - c)

    ks = []
    for count in (100, 1000, 10000):
        b = _batch(p, count, seed=2024)
        ks.append(ks_distance(b.pooled(), cdf))
    assert ks[0] > ks[1] > ks[2]
    assert ks[2] < 0.015


# ------------------------------------------------------------ gap estimates

def test_empirical_gap_matches_analytic_curve():
    p = EnsembleParams.from_lambda(10, 1.5, alpha="auto")
    b = _batch(p, 3000, seed=2027)
    thetas = np.array([0.0, 0.02, 0.05, 0.1])
    ge = empirical_gap(b, thetas)
    assert ge.e_hat[0] == 1.0 and ge.stderr[0] == 0.0
    for th, e, se in zip(ge.theta[1:], ge.e_hat[1:], ge.stderr[1:]):
        assert abs(e - an.gap_probability(float(th), p)) < 4.0 * se
    # analytic pairing reproduces mean_count
    assert ge.s_hat[2] == pytest.approx(an.mean_count(0.05, p), rel=1e-12)
    assert ge.s_source == "analytic"


def test_empirical_gap_pairs_its_analytic_s_in_one_grid_call(monkeypatch):
    p = EnsembleParams.from_lambda(20, 1.0, alpha=10.0)
    thetas = np.linspace(0.0, 0.6, 40)
    calls = []

    def counting(theta, params):
        calls.append(np.size(theta))
        return an.mean_count(theta, params)

    monkeypatch.setattr(qrmt.spectral, "mean_count", counting)
    ge = empirical_gap(_batch(p, 50, seed=47), thetas)
    assert calls == [40]
    assert [v.hex() for v in ge.s_hat.tolist()] == [an.mean_count(float(t), p).hex() for t in thetas]


def test_empirical_gap_monotone_and_bounded():
    p = EnsembleParams.from_lambda(6, 1.0, alpha=2.0)
    ge = empirical_gap(_batch(p, 500, seed=44), np.linspace(0, 1.5, 12))
    assert np.all(np.diff(ge.e_hat) <= 0)
    assert np.all((ge.e_hat >= 0) & (ge.e_hat <= 1))
    # binomial stderr formula
    i = 5
    assert ge.stderr[i] == pytest.approx(
        math.sqrt(ge.e_hat[i] * (1 - ge.e_hat[i]) / 500)
    )


def test_empirical_gap_s_source_empirical():
    p = EnsembleParams.from_lambda(6, 1.0, alpha=2.0)
    b = _batch(p, 400, seed=45)
    ge = empirical_gap(b, np.array([0.0, 0.3]), s_source="empirical")
    counted = np.count_nonzero(np.abs(b.spectra) < 0.3) / 400
    assert ge.s_hat[1] == pytest.approx(counted, rel=1e-12)


def test_empirical_gap_analytic_pairing_needs_heavy_branch():
    p = EnsembleParams.gaussian(4, alpha=1.0)
    b = _batch(p, 50, seed=46)
    with pytest.raises(ParameterError, match="empirical"):
        empirical_gap(b, np.array([0.1]))
    ge = empirical_gap(b, np.array([0.1]), s_source="empirical")
    assert ge.s_source == "empirical"
    with pytest.raises(ParameterError):
        empirical_gap(b, np.array([0.1]), s_source="bogus")
    with pytest.raises(ParameterError):
        empirical_gap(b, np.array([-0.1]))


@pytest.mark.parametrize("thetas, s_source", [(0.1, "analytic"), ([[0.1, 0.2]], "empirical")])
def test_empirical_gap_takes_a_one_dimensional_grid(thetas, s_source):
    b = _batch(EnsembleParams.from_lambda(4, 1.5, alpha=1.0), 20, seed=47)
    with pytest.raises(ParameterError, match=r"theta grid must be one-dimensional, got shape \("):
        empirical_gap(b, thetas, s_source=s_source)


def _gap_counts_by_loop(batch, thetas):
    """e and s counts of empirical_gap, one count_nonzero per theta."""
    absvals = np.abs(batch.spectra)
    smallest = absvals.min(axis=1)
    m = batch.count
    e = np.array([np.count_nonzero(smallest >= th) / m for th in thetas])
    s = np.array([np.count_nonzero(absvals < th) / m for th in thetas])
    return e, s


@pytest.mark.parametrize("n", [2, 10, 40])
def test_empirical_gap_counts_equal_per_theta_loop(n):
    p = EnsembleParams.from_lambda(n, 1.5, alpha="auto")
    b = _batch(p, 300, seed=47)
    mags = np.sort(np.abs(b.spectra), axis=None)
    # at magnitudes (ties with the window edge), between them, and beyond both ends
    thetas = np.concatenate([[0.0], mags[::97], 0.5 * (mags[:-1:89] + mags[1::89]), [2.0 * mags[-1], np.inf]])
    e_ref, s_ref = _gap_counts_by_loop(b, thetas)
    ge = empirical_gap(b, thetas, s_source="empirical")
    assert ge.e_hat.tobytes() == e_ref.tobytes()
    assert ge.s_hat.tobytes() == s_ref.tobytes()
    few = thetas[[0, 3, -3]]
    ga = empirical_gap(b, few)
    assert ga.e_hat.tobytes() == _gap_counts_by_loop(b, few)[0].tobytes()
    assert ga.s_hat.tobytes() == np.array([an.mean_count(float(th), p) for th in few]).tobytes()


def _signed_spectra(g, m, n):
    """Sorted rows with exact zeros of both signs, all-negative and all-positive rows."""
    s = np.round(g.normal(size=(m, n)), 1)  # round to make exact zeros and ties common
    s[g.uniform(size=(m, n)) < 0.1] = -0.0
    s[: m // 8] = -np.abs(s[: m // 8]) - 0.5
    s[m // 8 : m // 4] = np.abs(s[m // 8 : m // 4])
    s.sort(axis=1)  # -0.0 and 0.0 compare equal, so both signs stay mixed in a sorted row
    return s


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_empirical_gap_equals_the_whole_array_formula(n):
    # e_hat from each row's sign change, s_hat from one in-place sort, against |spectra| in full
    p = EnsembleParams.from_lambda(n, 1.5, alpha=1.0)
    g = RngStream(2030, n).generator()
    for _ in range(75):
        m = int(g.integers(1, 60))
        spectra = _signed_spectra(g, m, n)
        b = SpectrumBatch(spectra=spectra, params=p)
        absvals = np.abs(spectra)
        thetas = np.concatenate([[0.0], np.unique(absvals)[:8], g.uniform(0.0, 3.0, size=8)])
        e_ref = (m - np.searchsorted(np.sort(absvals.min(axis=1)), thetas, side="left")) / m
        s_ref = np.searchsorted(np.sort(absvals, axis=None), thetas, side="left") / m
        ge = empirical_gap(b, thetas, s_source="empirical")
        assert ge.e_hat.tobytes() == e_ref.tobytes()
        assert ge.s_hat.tobytes() == s_ref.tobytes()
    ga = empirical_gap(b, thetas[:3])
    assert ga.e_hat.tobytes() == e_ref[:3].tobytes()


def test_empirical_gap_analytic_path_copies_no_spectra():
    # 40 000 spectra at n = 20 are 6.4 MB; the analytic path holds a bool per
    # eigenvalue (0.8 MB) and a few per-row arrays, not a float copy of them
    p = EnsembleParams.from_lambda(20, 1.5, alpha="auto")
    b = SpectrumBatch(spectra=_signed_spectra(RngStream(2031, 0).generator(), 40000, 20), params=p)
    thetas = np.array([0.0, 0.1, 0.3])
    empirical_gap(b, thetas)  # quadrature set-up outside the traced call
    tracemalloc.start()
    try:
        empirical_gap(b, thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < b.spectra.nbytes // 2


@pytest.mark.parametrize("s_source", ["analytic", "empirical"])
def test_empirical_gap_rejects_nan_theta(s_source):
    b = _batch(EnsembleParams.from_lambda(4, 1.5, alpha=1.0), 20, seed=48)
    with pytest.raises(ParameterError, match="nonnegative"):
        empirical_gap(b, np.array([0.1, np.nan]), s_source=s_source)


# ---------------------------------------------------------------- spacings

def test_nn_spacings_unit_mean_and_window():
    p = EnsembleParams.gaussian(20, alpha=0.5)
    b = _batch(p, 200, seed=47)
    s = nn_spacings(b, window=0.6)
    keep = round(0.6 * 20)
    assert len(s) == (keep - 1) * 200
    assert float(np.mean(s)) == pytest.approx(1.0, rel=1e-12)
    assert np.all(s >= 0)
    with pytest.raises(ParameterError):
        nn_spacings(b, window=0.0)
    with pytest.raises(ParameterError):
        nn_spacings(b, window=1.2)


def test_nn_spacings_need_two_levels():
    # n = 1 has no spacing: a typed error, not a NaN histogram
    b = _batch(EnsembleParams.gaussian(1, alpha=1.0), 10, seed=46)
    with pytest.raises(ParameterError, match="n >= 2"):
        nn_spacings(b)
    with pytest.raises(ParameterError, match="n >= 2"):
        nn_spacing(b)


def test_nn_spacings_constant_grid():
    # equally spaced levels: every normalized spacing is exactly 1
    p = EnsembleParams.gaussian(6, alpha=1.0)
    grid = np.tile(np.arange(6.0), (3, 1))
    b = SpectrumBatch(spectra=grid, params=p)
    s = nn_spacings(b, window=1.0)
    assert np.allclose(s, 1.0, atol=0)


def test_nn_spacings_on_identical_levels():
    # every level at one point: no spacing to normalize by, a typed error, not a NaN
    b = SpectrumBatch(spectra=np.ones((3, 6)), params=EnsembleParams.gaussian(6, alpha=1.0))
    with pytest.raises(ParameterError) as exc:
        nn_spacings(b)
    assert str(exc.value) == "degenerate spectra: zero mean spacing"


def test_goe_spacings_follow_wigner_surmise():
    g = RngStream(2025, 0).generator()
    spectra = np.sort(
        np.stack([eigenvalues(sample_goe(40, 0.5, g).h) for _ in range(300)]), axis=1
    )
    b = SpectrumBatch(spectra=spectra, params=EnsembleParams.gaussian(40, alpha=0.5))
    d = ks_distance(nn_spacings(b), an.wigner_surmise_cdf)
    assert d < 0.025  # 0.009 at this seed


def test_nn_spacing_histogram():
    p = EnsembleParams.gaussian(12, alpha=0.5)
    h = nn_spacing(_batch(p, 150, seed=48), bins=24)
    assert h.mode == "probability-density"
    assert h.integral() == pytest.approx(1.0, abs=1e-9)  # all spacings inside range


# --------------------------------------------------------------- tail index

def test_default_hill_k_clamping():
    assert default_hill_k(10000) == 100
    assert default_hill_k(1200) == 50       # floor
    assert default_hill_k(4_000_000) == 2000  # sqrt beats n/10 only below 100
    assert default_hill_k(600) == 50


def test_tail_index_pareto():
    # Pareto with unit index: 1/U
    g = RngStream(2026, 0).generator()
    x = 1.0 / g.uniform(size=20000)
    est = tail_index(x, k=1000)
    assert est.index == pytest.approx(1.0, abs=0.1)  # 0.975 at this seed
    assert est.stderr == pytest.approx(est.index / math.sqrt(1000), rel=1e-12)
    assert est.k == 1000


@pytest.mark.parametrize("k", [1, 7, 1000, 19998])
def test_tail_index_top_values_match_full_sort(k):
    # partition-then-sort takes the same top k + 1 values, in the same order
    g = RngStream(2027, 0).generator()
    x = np.round(1.0 / g.uniform(size=20000), 2)  # rounded, so values repeat
    top = np.sort(x)[len(x) - k - 1 :]
    logs = np.log(top)
    hill = float(np.mean(logs[1:] - logs[0]))
    assert tail_index(x, k=k).index == 1.0 / hill


def test_tail_index_uses_default_k():
    g = RngStream(2026, 1).generator()
    est = tail_index(1.0 / g.uniform(size=20000))
    assert est.k == default_hill_k(20000)


def test_tail_index_element_tail_matches_two_lambda():
    # one off-diagonal reading per matrix: iid entries with tail index 2 lam
    p = EnsembleParams.from_lambda(2, 0.75, alpha=1.0)
    g = RngStream(2028, 0).generator()
    # 30000 single draws in a row on g, made in one call
    x = np.abs(_dense(p, _draw_packed(p, itertools.repeat(g, 30000), 30000)[0])[:, 0, 1])
    est = tail_index(x, k=1000)
    assert est.index == pytest.approx(1.5, abs=0.15)  # 1.535 at this seed


def test_tail_index_largest_eigenvalue_matches_two_lambda():
    p = EnsembleParams.from_lambda(6, 0.75, alpha=1.0)
    b = _batch(p, 8000, seed=2029)
    top = np.max(np.abs(b.spectra), axis=1)
    est = tail_index(top, k=400)
    assert est.index == pytest.approx(1.5, abs=0.2)  # 1.412 at this seed


def test_tail_index_drops_zeros_and_nan_and_leaves_its_input_alone():
    g = RngStream(2027, 1).generator()
    x = 1.0 / g.uniform(size=5000)
    x[::3] *= -1.0
    dirty = x.copy()
    dirty[::7] = 0.0
    dirty[5], dirty[11] = -0.0, math.nan
    before = dirty.copy()
    est = tail_index(dirty, k=200)
    assert est.index == tail_index(dirty[np.abs(dirty) > 0.0], k=200).index
    assert np.array_equal(dirty, before, equal_nan=True)
    assert tail_index(x, k=200).index == tail_index(list(x), k=200).index


@pytest.mark.parametrize("inf", [math.inf, -math.inf])
def test_tail_index_rejects_an_infinite_value(inf):
    # log(inf) swamps the Hill mean: the index used to read 0.0 with stderr 0.0
    with pytest.raises(ParameterError, match="infinite"):
        tail_index([1.0, 2.0, inf, 3.0, 5.0, 7.0], k=2)
    with pytest.raises(ParameterError, match="infinite"):
        tail_index(np.concatenate([1.0 / np.arange(1.0, 500.0), [inf, 0.0, math.nan]]), k=10)


def test_tail_index_validation():
    with pytest.raises(ParameterError):
        tail_index(np.array([1.0]))
    with pytest.raises(ParameterError):
        tail_index(np.arange(1.0, 100.0), k=99)
    with pytest.raises(ParameterError):
        tail_index(np.ones(100), k=10)  # degenerate upper tail
    for k in (5.5, 5.0):  # not an integer
        with pytest.raises(ParameterError):
            tail_index(np.arange(1.0, 100.0), k=k)


@pytest.mark.parametrize("k", [True, False, np.bool_(True)])
def test_tail_index_rejects_a_bool_k(k):
    with pytest.raises(ParameterError, match="integer k"):
        tail_index(np.arange(1.0, 100.0), k=k)


def test_tail_index_stores_k_as_an_int():
    x = 1.0 / RngStream(2026, 0).generator().uniform(size=2000)
    est = tail_index(x, k=np.int64(50))
    assert type(est.k) is int and est.k == 50
    assert est == tail_index(x, k=50)


# ----------------------------------------------------------------- KS tools

def test_ks_distance_against_own_law():
    g = RngStream(2030, 0).generator()
    u = g.uniform(size=100000)
    assert ks_distance(u, lambda x: np.clip(x, 0, 1)) < 1.95 / math.sqrt(100000)


def test_ks_distance_detects_shift():
    g = RngStream(2031, 0).generator()
    x = g.normal(size=5000)
    from scipy import stats

    assert ks_distance(x, lambda v: stats.norm.cdf(v - 0.3)) > 0.1
    assert ks_distance(np.zeros(100), lambda v: stats.norm.cdf(v)) >= 0.5


def _ks_whole_sample(sample, cdf) -> float:
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    n = len(x)
    f = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))


@pytest.mark.parametrize("n", [1, 2, _KS_SLICE - 1, _KS_SLICE, _KS_SLICE + 1, 3 * _KS_SLICE + 5])
def test_ks_distance_slices_match_the_whole_sample_formula(n):
    g = RngStream(2033, n).generator()
    x = g.normal(size=n)
    for sample, cdf in (
        (x, special.ndtr),
        (np.abs(x), an.wigner_surmise_cdf),
        (g.uniform(size=n), lambda u: np.clip(u, 0.0, 1.0) ** 3.0),
    ):
        assert ks_distance(sample, cdf) == _ks_whole_sample(sample, cdf)
    if n > 2:
        # a NaN in any slice makes the statistic NaN, as in one whole-sample max
        x[n // 3] = math.nan
        assert math.isnan(ks_distance(x, special.ndtr))
        assert ks_distance(x, lambda v: np.nan_to_num(special.ndtr(v))) == _ks_whole_sample(
            x, lambda v: np.nan_to_num(special.ndtr(v)))


def test_ks_distance_two_sample():
    g = RngStream(2032, 0).generator()
    a = g.normal(size=4000)
    b = g.normal(size=4000)
    assert ks_distance_two(a, b) < 0.04
    assert ks_distance_two(a, a + 10.0) == 1.0
    with pytest.raises(ParameterError):
        ks_distance(np.array([]), lambda v: v)
    with pytest.raises(ParameterError):
        ks_distance_two(np.array([]), a)


def test_ks_distance_two_is_nan_when_either_sample_holds_a_nan():
    # the rule ks_distance keeps: [0, nan] against [0, 1] used to read 0.5
    assert math.isnan(ks_distance_two([0.0, math.nan], [0.0, 1.0]))
    assert math.isnan(ks_distance_two([0.0, 1.0], [math.nan, 0.5, -1.0]))
    assert math.isnan(ks_distance(np.array([0.0, math.nan]), lambda v: np.clip(v, 0.0, 1.0)))
    assert ks_distance_two([0.0, 1.0], [0.5, 2.0]) == 0.5
