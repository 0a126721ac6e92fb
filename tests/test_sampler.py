"""Sampler layer: determinism, exact-law checks, and oracle cross-validation.

Monte Carlo assertions run on pinned seeds, so they are deterministic; the
tolerances were chosen with at least a 2x margin over the observed deviation
at these seeds.
"""
import ctypes
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats
from scipy.special import stdtr

from numpy.random import PCG64, Generator, SeedSequence

from qrmt import sampler
from qrmt.params import EnsembleParams, ParameterError
from qrmt.sampler import (
    _STATE_BLOCK,
    MatrixSample,
    RngStream,
    SampleBatch,
    SampleBlocks,
    _SeedWords,
    _beta,
    _check_state_write,
    _draw_packed,
    _reused_streams,
    _seeded_states,
    _state_write_works,
    _stream_rows,
    _stream_words,
    sample_batch,
    sample_blocks,
    sample_ensemble,
    sample_goe,
    sample_levy_stable,
)

from oracles import rejection_sample_restricted


def _ks(sample, cdf) -> float:
    x = np.sort(np.asarray(sample))
    n = len(x)
    c = cdf(x)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - c), np.max(c - (grid - 1 / n))))


def test_rng_stream_determinism():
    a = RngStream(7, 3).generator().normal(size=5)
    b = RngStream(7, 3).generator().normal(size=5)
    assert np.array_equal(a, b)
    c = RngStream(7, 4).generator().normal(size=5)
    assert not np.array_equal(a, c)
    d = RngStream(8, 3).generator().normal(size=5)
    assert not np.array_equal(a, d)


def test_resolve_rng_rejects_garbage():
    with pytest.raises(TypeError):
        sample_goe(2, 1.0, "not an rng")


def test_beta_sampler_law():
    g = RngStream(21, 0).generator()
    draws = np.array([_beta(3.0, 2.0, g) for _ in range(4000)])
    assert _ks(draws, lambda x: stats.beta.cdf(x, 3.0, 2.0)) < 0.03


def _two_gamma_beta(a: float, b: float, g) -> float:
    while True:
        g1, g2 = g.gamma(a), g.gamma(b)
        if g1 + g2 > 0.0:
            return g1 / (g1 + g2)


@pytest.mark.parametrize("a, b", [(n * (n + 1) / 4.0, b) for n in (2, 3, 4, 10, 50)
                                  for b in (1.0, 1.0000001, 1.7, 30.0)] + [(0.5, 1.0)])
def test_beta_equals_the_two_gamma_ratio_bit_for_bit(a, b):
    # the restricted radius's shapes a = f/2 (n >= 2) and b = 1 - (lambda + f/2) >= 1; numpy's
    # Generator.beta draws the two Gammas where a or b exceeds 1, and the n = 1, q = -inf corner
    # (0.5, 1.0) keeps the two-Gamma loop
    mine, ref = RngStream(77, 3).generator(), RngStream(77, 3).generator()
    got = [_beta(a, b, mine) for _ in range(500)]
    want = [_two_gamma_beta(a, b, ref) for _ in range(500)]
    assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
    assert mine.bit_generator.state == ref.bit_generator.state


def test_goe_symmetry_bit_exact():
    s = sample_goe(6, 0.7, RngStream(3, 0))
    assert np.array_equal(s.h, s.h.T)
    assert s.h.shape == (6, 6)
    assert s.xi is None


def test_goe_determinism():
    a = sample_goe(5, 1.0, RngStream(11, 2))
    b = sample_goe(5, 1.0, RngStream(11, 2))
    assert np.array_equal(a.h, b.h)


def test_goe_entry_variances():
    # density exp(-alpha tr H^2): Var diag = 1/(2 alpha), offdiag = 1/(4 alpha)
    alpha, n = 0.7, 8
    g = RngStream(42, 0).generator()
    diag, off = [], []
    for _ in range(3000):
        h = sample_goe(n, alpha, g).h
        diag.append(np.diag(h))
        off.append(h[np.triu_indices(n, 1)])
    vd = float(np.var(np.concatenate(diag)))
    vo = float(np.var(np.concatenate(off)))
    assert vd == pytest.approx(1 / (2 * alpha), rel=0.05)
    assert vo == pytest.approx(1 / (4 * alpha), rel=0.05)


def test_goe_diag_offdiag_ratio_large_alpha():
    # the two variances must track alpha jointly
    g = RngStream(43, 0).generator()
    h = np.stack([sample_goe(4, 25.0, g).h for _ in range(4000)])
    vd = float(np.var(h[:, 0, 0]))
    assert vd == pytest.approx(0.02, rel=0.1)


def test_mixture_marginals_are_student_t():
    # element marginal is Student t with 2*lambda degrees of freedom,
    # scale 1/sqrt(2 alpha) on the diagonal and 1/sqrt(4 alpha) off it
    params = EnsembleParams.from_lambda(3, 1.5, alpha=0.8)
    g = RngStream(105, 0).generator()
    dd, oo = np.empty(4000), np.empty(4000)
    for i in range(4000):
        h = sample_ensemble(params, g).h
        dd[i] = h[0, 0]
        oo[i] = h[0, 1]
    lam, al = params.lam, params.alpha
    assert _ks(dd, lambda x: stdtr(2 * lam, x * np.sqrt(2 * al))) < 0.03
    assert _ks(oo, lambda x: stdtr(2 * lam, x * np.sqrt(4 * al))) < 0.03


def test_mixture_xi_recorded_and_trace_moment():
    # E[tr H^2] = f lam / (2 alpha (lam - 1)) for lam > 1
    params = EnsembleParams.from_lambda(4, 3.0, alpha=1.0)
    g = RngStream(106, 0).generator()
    samples = [sample_ensemble(params, g) for _ in range(5000)]
    assert all(s.xi is not None and s.xi > 0 for s in samples)
    mean_tr = float(np.mean([s.trace_sq() for s in samples]))
    expect = params.f * 3.0 / (2.0 * 1.0 * 2.0)
    assert mean_tr == pytest.approx(expect, rel=0.1)


def test_restricted_trace_support_strict():
    params = EnsembleParams.from_q(3, 0.0, alpha=1.0)
    g = RngStream(107, 0).generator()
    bound = -params.lam / params.alpha
    for _ in range(2000):
        s = sample_ensemble(params, g)
        assert s.trace_sq() < bound
        assert s.xi is None
        assert np.array_equal(s.h, s.h.T)


def test_restricted_trace_radial_law():
    # q = 0, n = 3: u = alpha tr H^2 / |lam| follows Beta(3, 2)
    params = EnsembleParams.from_q(3, 0.0, alpha=1.0)
    g = RngStream(108, 0).generator()
    u = np.array(
        [sample_ensemble(params, g).trace_sq() * params.alpha / -params.lam for _ in range(4000)]
    )
    assert _ks(u, lambda x: stats.beta.cdf(x, 3.0, 2.0)) < 0.03


def test_restricted_trace_matches_rejection_oracle():
    # same law as plain rejection sampling on the matrix density
    params = EnsembleParams.from_q(2, 0.5, alpha=1.3)
    g = RngStream(109, 0).generator()
    mine = np.array([sample_ensemble(params, g).trace_sq() for _ in range(3000)])
    hs = rejection_sample_restricted(params, RngStream(110, 0).generator(), 3000)
    theirs = np.einsum("kij,kij->k", hs, hs)
    d = stats.ks_2samp(mine, theirs).statistic
    assert d < 0.04


def test_bounded_trace_limit():
    # q -> -inf: uniform on the ball, so u^(f/2) is uniform on (0, 1)
    n, alpha = 3, 0.5
    params = EnsembleParams.from_q(n, -math.inf, alpha)
    g = RngStream(111, 0).generator()
    f = 6
    bound = f / (2 * alpha)
    u_pow = np.empty(4000)
    for i in range(4000):
        t = sample_ensemble(params, g).trace_sq()
        assert t < bound
        u_pow[i] = (t / bound) ** (f / 2)
    assert _ks(u_pow, lambda x: np.clip(x, 0.0, 1.0)) < 0.03


def test_stable_sigma2_is_gaussian():
    # CF exp(-(scale k)^2) means Normal(0, 2 scale^2)
    x = sample_levy_stable(2.0, 0.8, RngStream(112, 0), size=20000)
    assert float(np.var(x)) == pytest.approx(2 * 0.64, rel=0.05)
    assert _ks(x, lambda v: stats.norm.cdf(v, scale=math.sqrt(2) * 0.8)) < 0.02


def test_stable_sigma1_is_cauchy():
    x = sample_levy_stable(1.0, 1.5, RngStream(113, 0), size=20000)
    assert _ks(x, lambda v: stats.cauchy.cdf(v, scale=1.5)) < 0.02


def test_stable_cf_midrange_exponent():
    # empirical characteristic function at k = 1 vs exp(-|scale k|^sigma)
    x = sample_levy_stable(1.5, 1.0, RngStream(114, 0), size=40000)
    emp = float(np.mean(np.cos(x)))
    assert emp == pytest.approx(math.exp(-1.0), abs=0.02)


def test_stable_scalar_and_validation():
    v = sample_levy_stable(1.5, 1.0, RngStream(5, 0))
    assert isinstance(v, float)
    with pytest.raises(ParameterError):
        sample_levy_stable(0.0, 1.0, RngStream(5, 0))
    with pytest.raises(ParameterError):
        sample_levy_stable(2.1, 1.0, RngStream(5, 0))
    with pytest.raises(ParameterError):
        sample_levy_stable(1.5, 0.0, RngStream(5, 0))


def _cms(sigma, scale, g, size):
    """The Chambers-Mallows-Stuck transform written out, with the sampler's variate order."""
    phi = g.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
    w = g.exponential(1.0, size=size)
    return scale * (np.sin(sigma * phi) / np.cos(phi) ** (1.0 / sigma)
                    * (np.cos((1.0 - sigma) * phi) / w) ** ((1.0 - sigma) / sigma))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.2, 1.5])
def test_stable_small_sigma_keeps_its_bits(sigma):
    x = sample_levy_stable(sigma, 1.0, RngStream(115, 0), size=20000)
    assert np.all(np.isfinite(x))
    assert x.tobytes() == _cms(sigma, 1.0, RngStream(115, 0).generator(), 20000).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stable_nonfinite_variates_are_one_typed_error():
    # at sigma = 1e-3 the transform over- and underflows: 19991 NaN and 38693 inf of these variates
    too_small = r"^58684 of 100000 stable variates are non-finite; sigma = 0.001 is too small"
    with pytest.raises(ParameterError, match=too_small):
        sample_levy_stable(1e-3, 1.0, np.random.default_rng(1), size=100000)
    with pytest.raises(ParameterError, match=r"^1 of 1 stable variates are non-finite"):
        sample_levy_stable(1e-3, 1.0, RngStream(4, 0))
    with pytest.raises(ParameterError, match=r"scale = 1e\+308 too large, for float64"):
        sample_levy_stable(1.0, 1e308, RngStream(4, 0), size=100)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [math.inf, math.nan, -math.inf, -1.0])
def test_stable_rejects_nonfinite_scale(scale):
    with pytest.raises(ParameterError, match="scale must be positive and finite"):
        sample_levy_stable(1.5, scale, RngStream(5, 0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("size", [-1, 2.5, True, (3,), "4"])
def test_stable_rejects_bad_size(size):
    with pytest.raises(ParameterError, match="size must be a nonnegative integer"):
        sample_levy_stable(1.5, 1.0, RngStream(5, 0), size=size)


def test_stable_size_accepts_numpy_integers_and_zero():
    assert sample_levy_stable(1.5, 1.0, RngStream(5, 0), size=0).shape == (0,)
    a = sample_levy_stable(1.5, 1.0, RngStream(5, 0), size=np.int64(7))
    assert a.tobytes() == sample_levy_stable(1.5, 1.0, RngStream(5, 0), size=7).tobytes()


def test_sample_ensemble_dispatch():
    g = EnsembleParams.gaussian(3, alpha=1.0)
    assert sample_ensemble(g, RngStream(6, 0)).xi is None
    lv = EnsembleParams.from_lambda(3, 2.0, alpha=1.0)
    assert sample_ensemble(lv, RngStream(6, 0)).xi is not None
    rt = EnsembleParams.from_q(3, 0.0, alpha=1.0)
    assert sample_ensemble(rt, RngStream(6, 0)).xi is None
    bare = sample_ensemble(rt, np.random.default_rng(6))
    assert bare.sample_index == 0 and bare.seed_path is None


def test_batch_threads_do_not_change_draws():
    params = EnsembleParams.from_lambda(4, 1.0, alpha=2.0)
    one = sample_batch(params, 12, master_seed=99, threads=1)
    two = sample_batch(params, 12, master_seed=99, threads=3)
    for a, b in zip(one, two):
        assert np.array_equal(a.h, b.h)
        assert a.xi == b.xi
    assert [s.sample_index for s in one] == list(range(12))
    assert one[5].seed_path == (99, 5)


def test_batch_master_seed_controls_everything():
    params = EnsembleParams.gaussian(3, alpha=1.0)
    a = sample_batch(params, 4, master_seed=1)
    b = sample_batch(params, 4, master_seed=1)
    c = sample_batch(params, 4, master_seed=2)
    assert all(np.array_equal(x.h, y.h) for x, y in zip(a, b))
    assert not np.array_equal(a[0].h, c[0].h)


def test_batch_count_validation():
    params = EnsembleParams.gaussian(2, alpha=1.0)
    with pytest.raises(ParameterError):
        sample_batch(params, -1, master_seed=0)
    empty = sample_batch(params, 0, master_seed=0)
    assert len(empty) == 0 and list(empty) == []
    # ids stay one SeedSequence word; rejected before anything is allocated
    with pytest.raises(ParameterError, match="below 2\\*\\*32"):
        sample_batch(params, 2**32, master_seed=0)
    with pytest.raises(ParameterError, match="count must be a nonnegative integer"):
        sample_batch(params, 3.0, master_seed=0)
    # a range [start, start + count) must stay below 2**32 as well
    last = sample_batch(params, 1, master_seed=0, start=2**32 - 1)
    assert last[0].seed_path == (0, 2**32 - 1)
    assert last[0].h.tobytes() == sample_ensemble(params, RngStream(0, 2**32 - 1)).h.tobytes()
    with pytest.raises(ParameterError, match="below 2\\*\\*32"):
        sample_batch(params, 2, master_seed=0, start=2**32 - 1)
    with pytest.raises(ParameterError, match="start must be a nonnegative integer"):
        sample_batch(params, 1, master_seed=0, start=-1)
    with pytest.raises(ParameterError, match="below 2\\*\\*32"):
        sample_blocks(params, 2**32, master_seed=0)
    with pytest.raises(ParameterError, match="master seed must be a nonnegative integer"):
        sample_blocks(params, 1, master_seed=-1)


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.0, 2.5, "7", None, True])
def test_seeds_must_be_nonnegative_integers(seed):
    params = EnsembleParams.gaussian(2, alpha=1.0)
    with pytest.raises(ParameterError, match="master seed must be a nonnegative integer"):
        sample_batch(params, 3, master_seed=seed)
    with pytest.raises(ParameterError, match="master seed must be a nonnegative integer"):
        RngStream(seed, 0)
    with pytest.raises(ParameterError, match="stream id must be a nonnegative integer"):
        RngStream(0, seed)


def test_numpy_integer_seeds_are_accepted():
    params = EnsembleParams.from_lambda(3, 1.5, alpha=1.0)
    a = sample_batch(params, 5, master_seed=np.uint64(2**63 + 9))
    b = sample_batch(params, 5, master_seed=2**63 + 9)
    assert a.packed.tobytes() == b.packed.tobytes()
    assert RngStream(np.int64(4), np.uint32(2)).generator().random() == RngStream(4, 2).generator().random()


def _numpy_words(seed: int, ids) -> list[list[int]]:
    return [SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64).tolist() for i in ids]


def _words(seed: int, count: int) -> list[list[int]]:
    blocks = list(_stream_words(seed, count))
    assert [len(b) for b in blocks] == [min(_STATE_BLOCK, count - lo) for lo in range(0, count, _STATE_BLOCK)]
    assert all(b.dtype == np.uint64 and b.shape[1:] == (4,) and b.flags.c_contiguous for b in blocks)
    rows = list(_stream_rows(seed, count))
    assert all(r.dtype == np.uint64 and r.shape == (4,) and r.flags.c_contiguous for r in rows)
    assert [r.tolist() for r in rows] == [r for b in blocks for r in b.tolist()]
    return [r.tolist() for r in rows]


# word boundaries of the seed: 1, 2, 4 (the pool size), 5 and 7 uint32 words
_ORACLE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1, 2**128, 2**128 + 5, 2**200 + 1]


@pytest.mark.parametrize("seed", _ORACLE_SEEDS)
def test_stream_words_match_numpy_seed_sequence(seed):
    # the bulk derivation restates numpy's SeedSequence; a numpy release that
    # changes it fails here
    assert _words(seed, 40) == _numpy_words(seed, range(40))
    for i, row in enumerate(_stream_rows(seed, 3)):
        assert PCG64(_SeedWords(row)).state == PCG64(SeedSequence(seed, spawn_key=(i,))).state


def test_stream_words_across_blocks():
    count = 2 * _STATE_BLOCK + 3
    words = _words(12345, count)
    assert len(words) == count
    ids = [0, _STATE_BLOCK - 1, _STATE_BLOCK, _STATE_BLOCK + 1, 2 * _STATE_BLOCK, count - 1]
    assert [words[i] for i in ids] == _numpy_words(12345, ids)
    assert list(_stream_words(12345, 0)) == []


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**300), count=st.integers(min_value=1, max_value=12))
def test_stream_words_match_numpy_property(seed, count):
    assert _words(seed, count) == _numpy_words(seed, range(count))


_REGIMES = [
    EnsembleParams.gaussian(4, alpha=1.5),
    EnsembleParams.from_lambda(3, 0.7, alpha=1.0),
    EnsembleParams.from_lambda(10, 0.001, alpha=1.0),  # inf entries at this lambda
    EnsembleParams.from_q(4, 0.5, alpha=1.0),
    EnsembleParams.from_q(3, -math.inf, alpha=0.5),
    EnsembleParams.from_q(1, 0.0, alpha=1.0),
]


@pytest.mark.parametrize("params", _REGIMES, ids=lambda p: f"{p.regime.value}-n{p.n}-lam{p.lam:g}")
def test_batch_rows_equal_single_draws(params):
    # batch and single draws share one code path: row i is the draw on stream (seed, i)
    _assert_rows_equal_single_draws(params, 17)


@pytest.mark.parametrize("seed", [2**64 + 17, 2**200 + 17], ids=["2-words", "7-words"])
@pytest.mark.parametrize("params", _REGIMES, ids=lambda p: f"{p.regime.value}-n{p.n}-lam{p.lam:g}")
def test_batch_rows_equal_single_draws_at_multiword_seeds(params, seed):
    # the bulk stream states of sample_batch against numpy's own SeedSequence
    _assert_rows_equal_single_draws(params, seed)


def _assert_rows_equal_single_draws(params, seed):
    count = 300 if params.lam == 0.001 else 40
    batch = sample_batch(params, count, master_seed=seed)
    dense = batch.h
    assert dense.shape == (count, params.n, params.n)
    for i in range(count):
        one = sample_ensemble(params, RngStream(seed, i))
        assert one.sample_index == i and one.seed_path == (seed, i)
        assert one.h.tobytes() == dense[i].tobytes()
        assert one.xi == batch[i].xi
    if params.lam == 0.001:
        assert not np.all(np.isfinite(dense))  # the overflow pattern is covered too


_needs_state_write = pytest.mark.skipif(
    not _state_write_works(), reason="this numpy build keeps PCG64's state in another layout")


def _per_stream_packed(params, seed, count, start):
    """The batch drawn on one Generator(PCG64(...)) per stream, the fallback path."""
    gens = map(Generator, map(PCG64, map(_SeedWords, _stream_rows(seed, count, start))))
    return _draw_packed(params, gens, count)


def test_seeded_states_match_pcg64():
    rng = np.random.default_rng(2024)
    words = np.concatenate([
        rng.integers(0, 2**64, size=(2000, 4), dtype=np.uint64),
        rng.integers(0, 2, size=(64, 4), dtype=np.uint64) * np.uint64(2**64 - 1),
    ])
    states = _seeded_states(words)
    assert states.shape == (len(words), 4) and states.dtype == np.uint64
    for row, got in zip(words, states.tolist()):
        pair = PCG64(_SeedWords(row)).state["state"]
        assert got == [pair["state"] % 2**64, pair["state"] >> 64, pair["inc"] % 2**64, pair["inc"] >> 64]


@pytest.mark.parametrize("params", _REGIMES, ids=lambda p: f"{p.regime.value}-n{p.n}-lam{p.lam:g}")
def test_forced_fallback_gives_the_same_rows(params, monkeypatch):
    fast = sample_batch(params, 1100, master_seed=2**70 + 3, start=2**32 - 1100)

    def refuse(blocks):
        raise AssertionError("the state-write path ran")

    monkeypatch.setattr(sampler, "_state_write_works", lambda: False)
    monkeypatch.setattr(sampler, "_reused_streams", refuse)
    slow = sample_batch(params, 1100, master_seed=2**70 + 3, start=2**32 - 1100)
    assert slow.packed.tobytes() == fast.packed.tobytes()
    assert (slow.xi is None) == (fast.xi is None)
    if fast.xi is not None:
        assert slow.xi.tobytes() == fast.xi.tobytes()


class _Misreports(PCG64):
    """Reports a state other than the one in its memory."""

    @property
    def state(self):
        st = super().state
        st["state"]["inc"] ^= 2
        return st


_ELSEWHERE = (ctypes.c_ubyte * 64)()


class _Elsewhere(PCG64):
    """Points its state address at memory outside the object."""

    @property
    def ctypes(self):
        return types.SimpleNamespace(state_address=ctypes.addressof(_ELSEWHERE))


@_needs_state_write
def test_state_write_check_refuses_a_mismatch(monkeypatch):
    assert _check_state_write(PCG64(11))
    assert not _check_state_write(_Misreports(11))
    assert not _check_state_write(_Elsewhere(11))
    with monkeypatch.context() as m:
        m.setattr(sampler, "ctypes", None)
        assert not _check_state_write(PCG64(11))
    # 128-bit halves in the other order, as numpy keeps them under MSVC
    swapped = lambda w: np.ascontiguousarray(_seeded_states(w)[:, [1, 0, 3, 2]])  # noqa: E731
    monkeypatch.setattr(sampler, "_seeded_states", swapped)
    assert not _check_state_write(PCG64(11))


@_needs_state_write
@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    regime=st.sampled_from(range(len(_REGIMES))),
    seed=st.integers(min_value=2**32, max_value=2**300),
    count=st.integers(min_value=1, max_value=2 * _STATE_BLOCK + 5),
    below=st.integers(min_value=0, max_value=3 * _STATE_BLOCK),
)
# the 1024-id block edge, crossed once and twice, ending at the last stream id; lambda = 0.001 and q = 0.5
@example(regime=2, seed=2**200 + 1, count=_STATE_BLOCK + 3, below=0)
@example(regime=3, seed=2**64, count=2 * _STATE_BLOCK + 5, below=7)
def test_state_write_rows_equal_per_stream_rows(regime, seed, count, below):
    params = _REGIMES[regime]
    start = max(0, 2**32 - count - below)
    batch = sample_batch(params, count, master_seed=seed, start=start)
    packed, xi = _per_stream_packed(params, seed, count, start)
    assert batch.packed.tobytes() == packed.tobytes()
    if xi is not None:
        assert batch.xi.tobytes() == xi.tobytes()


@_needs_state_write
@pytest.mark.parametrize("params", _REGIMES, ids=lambda p: f"{p.regime.value}-n{p.n}-lam{p.lam:g}")
def test_state_write_leaves_each_stream_where_pcg64_would(params):
    # the whole state, has_uint32 and uinteger included, after each stream's draws
    seed, count = 2**64 + 5, 60
    rows = list(_stream_rows(seed, count))
    if params.lam == 0.001:
        assert any(Generator(PCG64(_SeedWords(r))).gamma(params.lam) == 0.0 for r in rows)
    shared = _reused_streams(_stream_words(seed, count))
    for row in rows:
        g = next(shared)
        own = Generator(PCG64(_SeedWords(row)))
        assert g.bit_generator.state == own.bit_generator.state
        a, _ = _draw_packed(params, [g], 1)
        b, _ = _draw_packed(params, [own], 1)
        assert a.tobytes() == b.tobytes()
        assert g.bit_generator.state == own.bit_generator.state
    assert next(shared, None) is None


def test_sample_batch_sequence_behaviour():
    params = EnsembleParams.from_lambda(3, 1.5, alpha=1.0)
    batch = sample_batch(params, 9, master_seed=23)
    assert isinstance(batch, SampleBatch) and len(batch) == 9
    assert batch.packed.shape == (9, params.f)
    last = batch[-1]
    assert isinstance(last, MatrixSample)
    assert last.sample_index == 8 and last.seed_path == (23, 8)
    assert last.h.tobytes() == batch.h[8].tobytes()
    assert last.xi == float(batch.xi[8]) and last.xi > 0
    part = batch[2:7:2]
    assert [s.sample_index for s in part] == [2, 4, 6]
    assert all(s.h.tobytes() == batch.h[s.sample_index].tobytes() for s in part)
    items = list(batch)
    assert [s.sample_index for s in items] == list(range(9))
    assert [s.seed_path for s in items] == [(23, i) for i in range(9)]
    assert np.stack([s.h for s in items]).tobytes() == batch.h.tobytes()
    with pytest.raises(IndexError):
        batch[9]
    with pytest.raises(IndexError):
        batch[-10]
    assert sample_batch(EnsembleParams.from_q(3, 0.0, alpha=1.0), 2, master_seed=1).xi is None


def _scatter_dense(params, packed):
    """Dense stack by zeros and three scatters, an independent construction to check the gather."""
    n = params.n
    off, diag = packed[:, : params.f - n], packed[:, params.f - n :]
    h = np.zeros((len(packed), n, n))
    iu, ju = np.triu_indices(n, 1)
    h[:, iu, ju] = off
    h[:, ju, iu] = off
    h[:, np.arange(n), np.arange(n)] = diag
    return h


@pytest.mark.parametrize("params", _REGIMES + [EnsembleParams.gaussian(1, 1.0), EnsembleParams.from_q(1, 0.5, 1.0)],
                         ids=lambda p: f"{p.regime.value}-n{p.n}-lam{p.lam:g}")
def test_dense_stack_is_c_ordered_scatter(params):
    batch = sample_batch(params, 37, master_seed=77)
    h = batch.h
    assert h.flags.c_contiguous and h.shape == (37, params.n, params.n)
    assert h.tobytes() == _scatter_dense(params, batch.packed).tobytes()


@pytest.mark.parametrize("a,b", [(0, 9), (2, 7), (5, 5), (-4, None), (None, 3)])
def test_slice_equals_single_items(a, b):
    batch = sample_batch(EnsembleParams.from_q(4, 0.5, alpha=1.0), 9, master_seed=31)
    part = batch[a:b]
    single = [batch[i] for i in range(*slice(a, b).indices(len(batch)))]
    assert [s.sample_index for s in part] == [s.sample_index for s in single]
    assert [s.seed_path for s in part] == [s.seed_path for s in single]
    assert [s.h.tobytes() for s in part] == [s.h.tobytes() for s in single]


_SPLIT_REGIMES = [
    EnsembleParams.gaussian(3, alpha=1.5),
    EnsembleParams.from_lambda(3, 0.7, alpha=1.0),
    EnsembleParams.from_q(3, 0.5, alpha=1.0),
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), regime=st.sampled_from(range(3)), total=st.integers(min_value=0, max_value=40),
       seed=st.integers(min_value=0, max_value=2**70))
def test_consecutive_ranges_concatenate_to_the_batch(data, regime, total, seed):
    params = _SPLIT_REGIMES[regime]
    cuts = data.draw(st.lists(st.integers(min_value=0, max_value=total), max_size=5))
    bounds = [0, *sorted(cuts), total]
    whole = sample_batch(params, total, master_seed=seed)
    parts = [sample_batch(params, hi - lo, master_seed=seed, start=lo)
             for lo, hi in zip(bounds, bounds[1:])]
    assert [p.start for p in parts] == bounds[:-1]
    assert np.concatenate([p.packed for p in parts]).tobytes() == whole.packed.tobytes()
    if whole.xi is None:
        assert all(p.xi is None for p in parts)
    else:
        assert np.concatenate([p.xi for p in parts]).tobytes() == whole.xi.tobytes()
    assert [s.seed_path for p in parts for s in p] == [s.seed_path for s in whole]


def test_sample_blocks_cover_the_batch():
    params = EnsembleParams.from_lambda(50, 1.0, alpha="auto")
    blocks = sample_blocks(params, 700, master_seed=np.int64(3))
    assert isinstance(blocks, SampleBlocks) and len(blocks) == 700 and blocks.master_seed == 3
    # 1 MiB of packed floats: 2**17 // 1275 draws per block at n = 50
    assert blocks.rows == 102
    parts = list(blocks)
    assert [(p.start, len(p)) for p in parts] == [(lo, 102) for lo in range(0, 612, 102)] + [(612, 88)]
    whole = sample_batch(params, 700, master_seed=3)
    assert np.concatenate([p.packed for p in parts]).tobytes() == whole.packed.tobytes()
    assert np.concatenate([p.xi for p in parts]).tobytes() == whole.xi.tobytes()
    assert list(sample_blocks(params, 0, master_seed=3)) == []
    assert sample_blocks(EnsembleParams.gaussian(2000, 1.0), 3, master_seed=0).rows == 1


def test_sample_batch_chunks_cover_the_batch():
    params = EnsembleParams.gaussian(40, alpha=1.0)
    batch = sample_batch(params, 45, master_seed=4)
    blocks = list(batch.chunks())
    rows = SampleBatch.chunk_rows(40)
    assert rows == 20 and [len(b) for b in blocks] == [20, 20, 5]
    assert np.concatenate(blocks).tobytes() == batch.h.tobytes()


@pytest.mark.parametrize("params,count,seed", [
    (EnsembleParams.from_lambda(5, 3.0, alpha=0.5), 4000, 8),
    (EnsembleParams.from_q(3, 0.0, alpha=1.0), 3000, 9),
    (EnsembleParams.from_q(3, -math.inf, alpha=1.0), 3000, 10),
], ids=["heavy", "restricted", "bounded"])
def test_stacked_trace_sq_equals_per_sample(params, count, seed):
    # the whole stack summed at once, over the draws of the verify suite's default seed;
    # verify itself sums one dense chunk at a time (`cli._trace_sq`)
    batch = sample_batch(params, count, master_seed=seed)
    h = batch.h
    per_sample = np.array([s.trace_sq() for s in batch])
    assert np.sum(h * h, axis=(1, 2)).tobytes() == per_sample.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    q=st.floats(min_value=-20.0, max_value=0.95),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_restricted_trace_support_property(n, q, seed):
    params = EnsembleParams.from_q(n, q, alpha=1.0)
    s = sample_ensemble(params, RngStream(seed, 0))
    assert s.trace_sq() < -params.lam / params.alpha
    assert np.array_equal(s.h, s.h.T)
