"""Closed-form layer: partition functions, marginals, level density, gaps.

Oracles used here:
  * mpmath 30-digit quadrature for f = 1 partition anchors (frozen constants);
  * a cosine-transform quadrature (QAWF) of the element pdf for the
    characteristic function;
  * an independent change-of-variable quadrature for the gap probability,
    integrating in the GOE argument rather than the mixture weight;
  * the bulk gap law's regularized incomplete beta closed form;
  * scipy ordered-region quadrature for the joint eigenvalue masses.
"""
import gc
import hashlib
import math
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
from scipy.integrate import IntegrationWarning
from scipy.special import betainc, erfc, gammaln, stdtr

from oracles import MEHTA_INTEGRALS, fourier_char_fn

import qrmt.analytic
from qrmt.analytic import (
    AnalyticCurve,
    _goe_integrands,
    _joint_log_const,
    _level_density_consts,
    _mehta_integral,
    _NodeTable,
    _xi_max,
    density_curve,
    element_char_fn,
    element_cdf,
    element_correlation,
    element_curve,
    element_pdf,
    gap_curve,
    gap_probability,
    gap_probability_bulk,
    goe_counting,
    goe_gap,
    joint_eigen_density,
    level_density,
    level_density_mixture,
    log_partition,
    matrix_pdf,
    mean_count,
    semicircle_density,
    wigner_surmise,
    wigner_surmise_cdf,
)
from qrmt.cli import _gap_theta_grid
from qrmt.params import EnsembleParams, NumericalError, ParameterError, Regime, RegimeError
from qrmt.sampler import RngStream


def rt_params(n: int, al: float, alpha: float) -> EnsembleParams:
    """Restricted-trace member with lam = -al, built through q."""
    f = n * (n + 1) // 2
    q = 1.0 + 1.0 / (-al + f / 2.0) if -al + f / 2.0 != 0 else -math.inf
    return EnsembleParams.from_q(n, q, alpha=alpha)


# ---------------------------------------------------------------- partition

def test_log_partition_levy_anchor():
    # mpmath quad of (1 + x^2/2)^(-2.5) over R, 30 digits
    p = EnsembleParams.from_lambda(1, 2.0, alpha=1.0)
    assert math.exp(log_partition(p)) == pytest.approx(1.8856180831641267, rel=1e-13)
    p2 = EnsembleParams.from_lambda(1, 0.7, alpha=0.4)
    assert math.exp(log_partition(p2)) == pytest.approx(3.314855965681601, rel=1e-13)


def test_log_partition_restricted_anchor():
    # mpmath quad of (1 - x^2/2)^1.5 on |x| < sqrt(2)
    p = rt_params(1, 2.0, 1.0)
    assert math.exp(log_partition(p)) == pytest.approx(1.6660811018093873, rel=1e-13)
    p2 = rt_params(1, 3.5, 0.5)
    assert math.exp(log_partition(p2)) == pytest.approx(2.418972627259054, rel=1e-13)


def test_log_partition_gaussian():
    p = EnsembleParams.gaussian(1, alpha=1.0)
    assert math.exp(log_partition(p)) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    # f = 3: (pi/alpha)^(3/2)
    p3 = EnsembleParams.gaussian(2, alpha=0.5)
    assert math.exp(log_partition(p3)) == pytest.approx((2 * math.pi) ** 1.5, rel=1e-14)


def test_matrix_pdf_normalized_n1():
    p = EnsembleParams.from_lambda(1, 1.5, alpha=0.7)
    val, _ = integrate.quad(lambda x: matrix_pdf(np.array([[x]]), p), -np.inf, np.inf)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_matrix_pdf_orthogonal_invariance():
    # depends on tr H^2 only, so any conjugation by orthogonal O is exact
    p = EnsembleParams.from_lambda(3, 2.0, alpha=1.0)
    g = RngStream(17, 0).generator()
    h = g.normal(size=(3, 3))
    h = h + h.T
    o, _ = np.linalg.qr(g.normal(size=(3, 3)))
    assert matrix_pdf(o.T @ h @ o, p) == pytest.approx(matrix_pdf(h, p), rel=1e-12)


def test_matrix_pdf_outside_support_is_zero():
    p = rt_params(2, 4.0, 1.0)
    big = np.eye(2) * 10.0
    assert matrix_pdf(big, p) == 0.0


def test_matrix_pdf_gaussian_closed_form():
    # (a/pi)^(f/2) exp(-a tr H^2)
    g = RngStream(18, 0).generator()
    for n, a in ((1, 1.0), (3, 0.7)):
        p = EnsembleParams.gaussian(n, alpha=a)
        h = g.normal(size=(n, n))
        h = h + h.T
        ref = (a / math.pi) ** (p.f / 2.0) * math.exp(-a * float(np.sum(h * h)))
        assert matrix_pdf(h, p) == pytest.approx(ref, rel=1e-13)


# ----------------------------------------------------------------- elements

def test_element_pdf_mass_all_regimes():
    cases = [
        EnsembleParams.from_lambda(3, 1.5, alpha=0.8),
        EnsembleParams.from_lambda(2, 0.6, alpha=1.2),
        EnsembleParams.gaussian(3, alpha=0.5),
        rt_params(3, 8.0, 1.0),
    ]
    for p in cases:
        for entry in ("diag", "offdiag"):
            val, _ = integrate.quad(
                lambda x: element_pdf(x, p, entry), -np.inf, np.inf, limit=200
            )
            assert val == pytest.approx(1.0, abs=1e-8), (p.regime, entry)


def test_element_pdf_even_and_vectorized():
    p = EnsembleParams.from_lambda(3, 1.5, alpha=0.8)
    x = np.linspace(-4, 4, 17)
    y = element_pdf(x, p)
    assert y.shape == x.shape
    assert np.allclose(y, y[::-1], rtol=0, atol=0)
    assert isinstance(element_pdf(1.0, p), float)


def test_element_law_is_student_t_on_heavy_branch():
    # diag entry: t with 2 lam dof scaled by 1/sqrt(2 alpha); cdf via stdtr
    p = EnsembleParams.from_lambda(4, 2.5, alpha=0.9)
    for x in (-2.0, -0.3, 0.0, 0.7, 3.1):
        ref = stdtr(5.0, x * math.sqrt(1.8))
        assert element_cdf(x, p, "diag") == pytest.approx(ref, abs=1e-12)
    ref_off = stdtr(5.0, 1.2 * math.sqrt(3.6))
    assert element_cdf(1.2, p, "offdiag") == pytest.approx(ref_off, abs=1e-12)


def test_element_cauchy_special_case():
    # lam = 1/2, alpha = 1/2: diagonal marginal is standard Cauchy
    p = EnsembleParams.from_lambda(2, 0.5, alpha=0.5)
    for x in (0.0, 0.5, 2.0, 10.0):
        assert element_pdf(x, p, "diag") == pytest.approx(
            1.0 / (math.pi * (1 + x * x)), rel=1e-12
        )


def test_element_cdf_matches_pdf_derivative():
    p = rt_params(3, 8.0, 1.0)
    for x in (-0.8, 0.1, 0.9):
        h = 1e-6
        deriv = (element_cdf(x + h, p) - element_cdf(x - h, p)) / (2 * h)
        assert deriv == pytest.approx(element_pdf(x, p), rel=1e-6)


def test_element_cdf_and_char_fn_gaussian_closed_forms():
    # a = alpha on the diagonal, 2 alpha off it: 1/2 (1 + erf(sqrt(a) x)) and exp(-k^2/(4 a))
    p = EnsembleParams.gaussian(3, alpha=0.8)
    for entry, a in (("diag", 0.8), ("offdiag", 1.6)):
        for x in (-2.0, -0.3, 0.0, 0.7, 3.1):
            assert element_cdf(x, p, entry) == pytest.approx(0.5 * (1.0 + math.erf(math.sqrt(a) * x)),
                                                             abs=1e-15)
        for k in (0.0, 0.4, 1.0, 6.0):
            assert element_char_fn(k, p, entry) == pytest.approx(math.exp(-k * k / (4.0 * a)), rel=1e-14)


def test_element_laws_typed_errors():
    with pytest.raises(RegimeError):
        element_char_fn(1.0, rt_params(3, 8.0, 1.0))
    with pytest.raises(ParameterError, match="entry"):
        element_pdf(0.5, EnsembleParams.from_lambda(3, 1.5, alpha=0.8), entry="bogus")


def test_element_char_fn_cauchy_exponential():
    p = EnsembleParams.from_lambda(2, 0.5, alpha=0.5)
    for k in (0.05, 0.4, 1.0, 6.0):
        assert element_char_fn(k, p, "diag") == pytest.approx(math.exp(-k), rel=1e-12)


def test_element_char_fn_matches_fourier_oracle():
    p = EnsembleParams.from_lambda(3, 1.5, alpha=0.8)
    for k in (0.1, 1.0, 5.0):
        ref = fourier_char_fn(lambda x: element_pdf(x, p, "diag"), k, scale=2.0)
        assert element_char_fn(k, p, "diag") == pytest.approx(ref, abs=1e-9)
    po = EnsembleParams.from_lambda(2, 0.6, alpha=1.2)
    for k in (0.1, 1.0, 5.0):
        ref = fourier_char_fn(lambda x: element_pdf(x, po, "offdiag"), k, scale=1.0)
        assert element_char_fn(k, po, "offdiag") == pytest.approx(ref, abs=1e-9)


def test_element_char_fn_small_k_tail_law():
    # 1 - F(k) ~ Lambda |k c / 2|^sigma with (sigma, Lambda) from tail_params
    p = EnsembleParams.from_lambda(2, 0.5, alpha=0.5)
    c = math.sqrt(0.5 / 0.5)
    k = 1e-4
    lead = p.big_lambda * (k * c / 2) ** p.sigma
    assert (1 - element_char_fn(k, p, "diag")) / lead == pytest.approx(1.0, abs=1e-3)

    p8 = EnsembleParams.from_lambda(2, 0.8, alpha=0.5)
    c8 = math.sqrt(0.8 / 0.5)
    r5 = (1 - element_char_fn(1e-5, p8, "diag")) / (p8.big_lambda * (1e-5 * c8 / 2) ** p8.sigma)
    r4 = (1 - element_char_fn(1e-4, p8, "diag")) / (p8.big_lambda * (1e-4 * c8 / 2) ** p8.sigma)
    assert abs(r5 - 1) < 0.03
    assert abs(r5 - 1) < abs(r4 - 1)  # converging as k -> 0


def test_element_char_fn_at_zero_and_large_k():
    p = EnsembleParams.from_lambda(3, 1.5, alpha=0.8)
    assert element_char_fn(0.0, p) == 1.0
    assert element_char_fn(80.0, p) < 1e-10


def test_element_correlation_anchor():
    # lam = 3, alpha = 1/2, diagonal pair: 9/((2-3)(1-3)^2) = -2.25
    p = EnsembleParams.from_lambda(2, 3.0, alpha=0.5)
    assert element_correlation(p, "diag") == pytest.approx(-2.25, rel=1e-13)
    # offdiagonal variant carries an extra 1/4
    assert element_correlation(p, "offdiag") == pytest.approx(-2.25 / 4.0, rel=1e-13)


def test_element_correlation_domain():
    with pytest.raises(RegimeError):
        element_correlation(EnsembleParams.from_lambda(2, 1.5, alpha=0.5))
    with pytest.raises(RegimeError):
        element_correlation(EnsembleParams.gaussian(2, alpha=0.5))


_ONE_PER_REGIME = {
    "gaussian": EnsembleParams.gaussian(5, alpha=1.0),
    "heavy": EnsembleParams.from_lambda(5, 1.5, alpha=1.0),
    "restricted": EnsembleParams.from_q(5, 0.5, alpha=1.0),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 1e308, 0.3], ids=["nan", "inf", "-inf", "1e308", "0.3"])
@pytest.mark.parametrize("regime", list(_ONE_PER_REGIME))
def test_closed_form_laws_at_nonfinite_points(regime, x):
    # NaN in is NaN out, and +-inf (or a point so far out that its square overflows) gives the
    # law's limit, with no RuntimeWarning on the way; entries: (law, limit at -inf, limit at +inf)
    p = _ONE_PER_REGIME[regime]
    laws = [
        (lambda v: element_pdf(v, p), 0.0, 0.0),
        (lambda v: element_pdf(v, p, "offdiag"), 0.0, 0.0),
        (lambda v: element_cdf(v, p), 0.0, 1.0),
        (lambda v: semicircle_density(v, p.n, p.alpha), 0.0, 0.0),
        (wigner_surmise, 0.0, 0.0),
        (wigner_surmise_cdf, 0.0, 1.0),
    ]
    if p.regime is not Regime.RESTRICTED_TRACE:
        laws += [(lambda v: element_char_fn(v, p), 0.0, 0.0), (lambda v: level_density(v, p), 0.0, 0.0)]
    for law, at_minus, at_plus in laws:
        scalar, array = law(x), law(np.array([x, x]))
        assert type(scalar) is float and array.shape == (2,)
        if math.isnan(x):
            assert math.isnan(scalar) and np.all(np.isnan(array))
        elif abs(x) > 1e154:
            limit = at_plus if x > 0 else at_minus
            assert scalar == limit and array.tolist() == [limit, limit]
        else:
            assert math.isfinite(scalar) and _bits(array).tolist() == [int(_bits(scalar))] * 2
    if p.regime is not Regime.RESTRICTED_TRACE and math.isnan(x):
        with pytest.raises(NumericalError, match="finite value"):  # the curve's check, or the mixture's
            density_curve(p, np.array([x, 0.0]))


# ------------------------------------------------------------ level density

def test_semicircle_density():
    # radius sqrt(n/alpha); integrates to n
    val, _ = integrate.quad(lambda e: semicircle_density(e, 4, 0.5), -np.sqrt(8), np.sqrt(8))
    assert val == pytest.approx(4.0, rel=1e-10)
    assert semicircle_density(10.0, 4, 0.5) == 0.0


def test_semicircle_density_rejects_empty_dimension():
    with pytest.raises(ParameterError):
        semicircle_density(0.0, 0, 1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: semicircle_density(0.0, 3, 0.0), "alpha must be positive, got 0.0"),
    (lambda: semicircle_density(0.0, 3, -1.0), "alpha must be positive, got -1.0"),
    (lambda: semicircle_density(0.0, 3, math.nan), "alpha must be positive, got nan"),
    (lambda: goe_counting(1.0, 0), "matrix dimension must be >= 1, got 0"),
], ids=["semicircle-alpha-0", "semicircle-alpha-negative", "semicircle-alpha-nan", "goe-counting-n-0"])
def test_goe_closed_forms_reject_bad_alpha_or_dimension(call, message):
    with pytest.raises(ParameterError) as exc:
        call()
    assert str(exc.value) == message


def test_mixture_and_gap_laws_reject_gaussian_params():
    pg = EnsembleParams.gaussian(4, alpha=1.0)
    with pytest.raises(RegimeError):
        level_density_mixture(0.5, pg)
    with pytest.raises(RegimeError):
        gap_probability(0.5, pg)


def test_level_density_peak_value():
    # rho(0) = (2/pi) sqrt(n alpha / lam) Gamma(lam+1/2)/Gamma(lam)
    p = EnsembleParams.from_lambda(6, 1.5, alpha=0.9)
    ref = (2 / math.pi) * math.sqrt(6 * 0.9 / 1.5) * math.exp(gammaln(2.0) - gammaln(1.5))
    assert level_density(0.0, p) == pytest.approx(ref, rel=1e-12)


def test_level_density_mass_is_n():
    for p in (
        EnsembleParams.from_lambda(6, 1.5, alpha=0.9),
        EnsembleParams.from_lambda(4, 0.75, alpha=2.0),
    ):
        half, _ = integrate.quad(
            lambda e: level_density(e, p), 0, np.inf, limit=300
        )
        assert 2 * half == pytest.approx(p.n, abs=1e-6)


def test_level_density_even_and_continuous_at_zero():
    p = EnsembleParams.from_lambda(5, 2.0, alpha=1.0)
    e = np.array([-1.3, -0.2, 0.2, 1.3])
    rho = level_density(e, p)
    assert rho[0] == rho[3] and rho[1] == rho[2]
    assert level_density(1e-9, p) == pytest.approx(level_density(0.0, p), rel=1e-8)


def test_level_density_mixture_agrees_with_closed_form():
    p = EnsembleParams.from_lambda(6, 1.25, alpha=0.8)
    for e in (0.05, 0.7, 2.0, 6.0, 20.0):
        mix = level_density_mixture(e, p)
        closed = level_density(e, p)
        assert mix.value == pytest.approx(closed, rel=1e-9)
        assert mix.abs_error_estimate < 1e-8 * max(closed, 1e-300)


def test_level_density_gaussian_routes_to_semicircle():
    p = EnsembleParams.gaussian(5, alpha=1.0)
    e = np.linspace(-2, 2, 9)
    assert np.allclose(level_density(e, p), semicircle_density(e, 5, 1.0), rtol=0, atol=0)


def test_level_density_restricted_regime_rejected():
    p = rt_params(3, 8.0, 1.0)
    with pytest.raises(RegimeError):
        level_density(1.0, p)


def test_level_density_heavy_tail_exponent():
    # log-log slope -> -(2 lam + 1) far outside the characteristic energy
    p = EnsembleParams.from_lambda(4, 0.75, alpha=2.0)
    e1, e2 = 50.0, 500.0
    slope = (math.log(level_density(e2, p)) - math.log(level_density(e1, p))) / (
        math.log(e2) - math.log(e1)
    )
    assert slope == pytest.approx(-(2 * 0.75 + 1), abs=0.01)


def test_mean_count_matches_density_integral():
    p = EnsembleParams.from_lambda(6, 1.5, alpha=0.9)
    for theta in (0.3, 1.0):
        count, _ = integrate.quad(lambda e: level_density(e, p), 0, theta, limit=200)
        assert mean_count(theta, p) == pytest.approx(2 * count, rel=1e-7)


# -------------------------------------------------------------------- gaps

def test_goe_counting_shape():
    assert goe_counting(0.0, 10) == 0.0
    x = np.linspace(0, 50, 101)
    y = goe_counting(x, 10)
    assert np.all(np.diff(y) >= 0)
    assert y[-1] == pytest.approx(10.0, rel=1e-9)  # saturates at n
    with pytest.raises(ParameterError):
        goe_counting(-1.0, 10)


def test_goe_gap_and_surmise():
    assert goe_gap(0.0) == 1.0
    # surmise density integrates to 1 with unit mean spacing
    mass, _ = integrate.quad(wigner_surmise, 0, np.inf)
    mean, _ = integrate.quad(lambda s: s * wigner_surmise(s), 0, np.inf)
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert mean == pytest.approx(1.0, abs=1e-10)
    assert wigner_surmise_cdf(1.0) == pytest.approx(1 - math.exp(-math.pi / 4), rel=1e-12)


def test_surmise_laws_below_zero():
    # the density and the CDF are 0 outside the support, goe_gap rejects a negative count as
    # goe_counting does; NaN stays NaN, and every value at s >= 0 keeps the formula's bits
    neg = [-1.0, -1e-300, -3.0, -1e200, -math.inf]
    assert wigner_surmise(np.array(neg)).tolist() == [0.0] * 5 == [wigner_surmise(v) for v in neg]
    assert wigner_surmise_cdf(np.array(neg)).tolist() == [0.0] * 5 == [wigner_surmise_cdf(v) for v in neg]
    for law in (wigner_surmise, wigner_surmise_cdf, goe_gap):
        assert math.isnan(law(math.nan)) and np.isnan(law(np.array([math.nan, 1.0])))[0]
    for y in (-1.0, -1e-300, -math.inf, np.array([0.5, -2.0])):
        with pytest.raises(ParameterError, match="goe_gap is defined for y >= 0"):
            goe_gap(y)
    s = np.concatenate([[0.0, -0.0, 1e-300], np.geomspace(1e-6, 30.0, 200)])
    assert np.array_equal(_bits(wigner_surmise(s)), _bits((math.pi * s / 2.0) * np.exp(-math.pi * s * s / 4.0)))
    assert np.array_equal(_bits(wigner_surmise_cdf(s)), _bits(-np.expm1(-math.pi * s * s / 4.0)))
    assert np.array_equal(_bits(goe_gap(s)), _bits(erfc(s * (math.sqrt(math.pi) / 2.0))))


def _gap_route_b(theta: float, params) -> float:
    # substitute x = sqrt(2 alpha xi / lam) * theta in the mixture integral;
    # independent of the QAWS route used by the implementation
    lam, a, n = params.lam, params.alpha, params.n
    pref = 2.0 / math.exp(gammaln(lam)) * (lam / (2 * a)) ** lam * theta ** (-2 * lam)

    def g(x):
        y = goe_counting(x, n)
        return (
            math.exp(-lam * x * x / (2 * a * theta * theta))
            * x ** (2 * lam - 1)
            * erfc(math.sqrt(math.pi) * y / 2.0)
        )

    val, _ = integrate.quad(g, 0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=300)
    return pref * val


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("lam,alpha,n", [(1.5, 0.9, 6), (0.5, 2.0, 4), (4.0, 1.0, 10)])
def test_gap_probability_against_substitution_oracle(lam, alpha, n):
    p = EnsembleParams.from_lambda(n, lam, alpha=alpha)
    for theta in (0.05, 0.3, 1.0, 2.5):
        assert gap_probability(theta, p) == pytest.approx(
            _gap_route_b(theta, p), abs=1e-9
        )


def test_gap_probability_endpoints_and_monotonicity():
    p = EnsembleParams.from_lambda(6, 1.5, alpha=0.9)
    assert gap_probability(0.0, p) == 1.0
    thetas = np.linspace(0.0, 3.0, 31)
    vals = [gap_probability(float(t), p) for t in thetas]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_gap_curve_alpha_invariance():
    # (mean count, gap) pairs do not depend on the confinement scale
    n, lam = 8, 1.0
    grid_a = np.linspace(0.0, 0.5, 12)
    pa = EnsembleParams.from_lambda(n, lam, alpha=1.0)
    pb = EnsembleParams.from_lambda(n, lam, alpha=25.0)
    ca = gap_curve(pa, grid_a)
    cb = gap_curve(pb, grid_a / 5.0)  # theta scales as 1/sqrt(alpha)
    sa = np.array([mean_count(t, pa) for t in grid_a])
    sb = np.array([mean_count(t, pb) for t in grid_a / 5.0])
    assert np.allclose(sa, sb, rtol=1e-12, atol=1e-12)
    assert np.allclose(ca.values, cb.values, rtol=1e-10, atol=1e-12)


def _bulk_oracle(s: float, lam: float) -> float:
    slope = math.exp(gammaln(lam) - gammaln(lam + 0.5))

    def g(xi):
        y = s * math.sqrt(xi) * slope
        return xi ** (lam - 1) * math.exp(-xi) * erfc(math.sqrt(math.pi) * y / 2.0)

    val, _ = integrate.quad(g, 0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=300)
    return val / math.exp(gammaln(lam))


def test_gap_probability_bulk_closed_form_lam1():
    for s in (0.0, 0.3, 1.0, 4.0, 9.0):
        assert gap_probability_bulk(s, 1.0) == pytest.approx(
            1.0 - s / math.sqrt(1 + s * s), rel=1e-14
        )


def _bulk_beta(s, lam: float):
    """The bulk law in closed form: E(s) = I_{1/(1+b^2)}(lam, 1/2).

    With b = s (sqrt(pi)/2) Gamma(lam)/Gamma(lam + 1/2), polar coordinates in
    (sqrt(xi), u) turn the Gamma average of erfc(b sqrt(xi)) into the
    regularized incomplete beta function; at lam = 1, b = s and
    I_x(1, 1/2) = 1 - s/sqrt(1 + s^2).
    """
    b = np.asarray(s) * math.sqrt(math.pi) / 2.0 * math.exp(gammaln(lam) - gammaln(lam + 0.5))
    return betainc(lam, 0.5, 1.0 / (1.0 + b * b))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("lam", [0.5, 1.5, 2.0, 3.0, 10.0])
def test_gap_probability_bulk_against_oracle(lam):
    for s in (0.1, 1.0, 3.0, 8.0):
        assert gap_probability_bulk(s, lam) == pytest.approx(_bulk_oracle(s, lam), abs=1e-9)
        assert gap_probability_bulk(s, lam) == pytest.approx(_bulk_beta(s, lam), abs=1e-9)


# E(s) at lambda above 10: I_x(lambda, 1/2) in 40-digit mpmath (betainc, with Gamma(lambda) /
# Gamma(lambda + 1/2) as a rising factorial), which agrees with mpmath's quadrature of the
# Gamma average of erfc to 1e-14 at lambda = 20, 50 and 300
BULK_S = (0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 10.0)
BULK_MPMATH = {
    20.0: (0.90027102396091633, 0.53189803363718296, 0.21455333595935854, 0.015739184484663669,
           0.00050727798753906789, 1.7561797960603899e-7, 1.4932956678889844e-12,
           1.607206151120122e-15),
    50.0: (0.90026509587559441, 0.53128831142756219, 0.21187960855268073, 0.013572345578900981,
           0.00027703414029712558, 8.7345515298700034e-9, 7.6307303753573497e-17,
           2.7224640825931628e-22),
    300.0: (0.90026183350929956, 0.53095130328240135, 0.21038975365909381, 0.012415881615522728,
            0.00018544731181831174, 6.9399874564349631e-10, 5.388637329730159e-22,
            3.4018226950843317e-32),
    1e4: (0.90026120317101519, 0.53088606790892874, 0.21010035771184976, 0.012195670872315541,
          0.00017040426041537131, 3.7643648272657053e-10, 1.3236344048314098e-23,
          6.6964012662879738e-36),
    1e6: (0.90026118388408556, 0.53088407123810769, 0.21009149496717369, 0.01218895006513308,
          0.00016995698906384643, 3.6915876682724108e-10, 1.1670916269198799e-23,
          4.9328394248786157e-36),
}


@pytest.mark.parametrize("lam", sorted(BULK_MPMATH))
def test_gap_probability_bulk_above_lambda_10_against_mpmath(lam):
    # worst relative error 3e-10, at lambda = 1e4 and s = 10
    values = gap_probability_bulk(np.array(BULK_S), lam)
    assert values == pytest.approx(BULK_MPMATH[lam], rel=1e-9, abs=0.0)
    assert [gap_probability_bulk(s, lam) for s in BULK_S] == values.tolist()


# E(s) past s = 10, where every lambda takes the incomplete beta identity: I_x(lambda, 1/2) in
# 40-digit mpmath (betainc, with Gamma(lambda)/Gamma(lambda + 1/2) from mpmath's gamma)
BULK_FAR_S = (10.5, 50.0, 1000.0, 1e5)
BULK_FAR_MPMATH = {
    0.5: (3.8551353441084449e-2, 8.1052567187442363e-3, 4.0528467981745904e-4, 4.052847345638759e-6),
    1.0: (4.5045274060478281e-3, 1.9994001999300252e-4, 4.999996250003125e-7, 4.999999999625e-11),
    1.5: (7.43602421116253e-4, 7.0027942304417843e-6, 8.760287815354655e-10, 8.7603048556264321e-16),
    2.0: (1.510114022218005e-4, 3.0329491262636648e-7, 1.8984303808803987e-12, 1.8984374992880859e-20),
    3.0: (9.3308794202823093e-6, 8.6583585968092255e-10, 1.3578557827597152e-17, 1.3578683125362568e-29),
    10.0: (2.0904076433753404e-11, 1.5368448244727216e-24, 1.5364549409122129e-50, 1.5366370591035528e-90),
}


@pytest.mark.parametrize("lam", sorted(BULK_FAR_MPMATH))
def test_gap_probability_bulk_past_s_10_against_mpmath(lam):
    # QAWS on [0, xi_max] misses the mass within xi ~ 1/s^2 of 0 there: it returned -4.09e-16 at
    # lambda = 2, s = 50
    values = gap_probability_bulk(np.array(BULK_FAR_S), lam)
    assert values == pytest.approx(BULK_FAR_MPMATH[lam], rel=1e-9, abs=0.0)
    assert [gap_probability_bulk(s, lam) for s in BULK_FAR_S] == values.tolist()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("lam", sorted(BULK_MPMATH) + sorted(BULK_FAR_MPMATH))
def test_gap_probability_bulk_above_lambda_10_is_monotone(lam):
    # and below it, past s = 10: at lambda = 1, s^2 overflows from s ~ 1.3e154
    s = np.concatenate([np.linspace(0.0, 10.0, 201), np.geomspace(10.0, 1e300, 50)])
    e = gap_probability_bulk(s, lam)
    assert e[0] == 1.0 and e[-1] == 0.0
    assert np.all((e >= 0.0) & (e <= 1.0)) and np.all(np.diff(e) <= 0.0)


def test_gap_probability_bulk_lam1_branch_is_the_beta_identity():
    s = np.linspace(0.0, 10.0, 201)
    assert np.max(np.abs(gap_probability_bulk(s, 1.0) - _bulk_beta(s, 1.0))) < 1e-15


def test_gap_probability_bulk_tail_power_law():
    # lam = 1: s^2 E -> 1/2
    for s in (50.0, 500.0):
        assert s * s * gap_probability_bulk(s, 1.0) == pytest.approx(0.5, rel=2e-4 * s)


# ------------------------------------------------------------------- curves

def test_gap_curve_validates_grid():
    p = EnsembleParams.from_lambda(4, 1.0, alpha=2.0)
    with pytest.raises(ParameterError):
        gap_curve(p, np.array([0.0, 0.5, 0.4]))
    with pytest.raises(ParameterError):
        gap_curve(p, np.array([-0.1, 0.5]))
    c = gap_curve(p, np.array([0.0, 0.2, 0.5]))
    assert c.kind == "gap_probability"
    assert c.values[0] == 1.0


@pytest.mark.parametrize("curve, name", [(gap_curve, "theta"), (density_curve, "E"), (element_curve, "x")])
@pytest.mark.parametrize("grid", [0.5, [[0.0, 1.0]]])
def test_curves_take_a_one_dimensional_grid(curve, name, grid):
    p = EnsembleParams.from_lambda(4, 1.5, alpha=1.0)
    with pytest.raises(ParameterError, match=rf"{name} grid must be one-dimensional, got shape \("):
        curve(p, grid)


@pytest.mark.parametrize("q", [1.0, 0.5])
def test_gap_curve_needs_heavy_branch(q):
    p = EnsembleParams.gaussian(5, 1.0) if q == 1.0 else EnsembleParams.from_q(5, q, alpha=1.0)
    with pytest.raises(RegimeError):
        gap_curve(p, np.array([0.0, 0.2, 0.5]))


def test_density_curve_reports_quadrature_error():
    p = EnsembleParams.from_lambda(5, 1.5, alpha=1.0)
    c = density_curve(p, np.linspace(-3, 3, 25))
    assert c.kind == "level_density"
    assert c.quadrature_error is not None and c.quadrature_error < 1e-8
    assert np.all(c.values >= 0)


def test_element_curve_kind():
    p = EnsembleParams.from_lambda(3, 1.0, alpha=1.0)
    c = element_curve(p, np.linspace(-5, 5, 11), entry="offdiag")
    assert c.kind == "element_pdf"
    assert c.params is p
    assert c.quadrature_error == 0.0


def test_analytic_curve_invariants_enforced():
    x = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        AnalyticCurve(x, np.array([1.0, np.nan]), "level_density", None, 0.0)
    with pytest.raises(ValueError):
        AnalyticCurve(x, np.array([-0.5, 1.0]), "element_pdf", None, 0.0)
    with pytest.raises(ValueError):
        # gap probabilities cannot increase
        AnalyticCurve(x, np.array([0.4, 0.6]), "gap_probability", None, 0.0)
    with pytest.raises(ValueError):
        AnalyticCurve(x, np.array([1.5, 0.2]), "gap_probability", None, 0.0)
    with pytest.raises(ValueError):
        AnalyticCurve(x, np.array([1.0, 0.5, 0.2]), "gap_probability", None, 0.0)


def test_analytic_curve_value_checks_raise_numerical_error():
    x = np.array([0.0, 1.0])
    for vals, kind in (([1.0, np.inf], "level_density"), ([-0.5, 1.0], "element_pdf"),
                       ([0.4, 0.6], "gap_probability"), ([1.5, 0.2], "gap_probability")):
        with pytest.raises(NumericalError):
            AnalyticCurve(x, np.array(vals), kind, None, 0.0)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_gap_curve_at_large_lambda_raises_numerical_error():
    p = EnsembleParams.from_lambda(20, 20.0, alpha="auto")
    with pytest.raises(NumericalError, match="nonincreasing at n=20, lambda=20"):
        gap_curve(p, _gap_theta_grid(3.0, 40))


def test_level_density_overflow_raises_numerical_error():
    # exp(log amplitude) overflows while the Kummer factor is tiny; scalar
    # and array routes fail the same typed way
    p = EnsembleParams.from_lambda(10, 300.0, alpha=1.0)
    for e in (1.0, np.array([3.0, 1.0])):
        with pytest.raises(NumericalError, match=r"\|E\| = 1, n = 10, lambda = 300"):
            level_density(e, p)
    assert level_density(3.0, p) > 0.0  # the amplitude still fits here


@pytest.mark.filterwarnings("error")
def test_huge_grid_points_are_zero_without_overflow_warnings():
    # x^2 overflows to inf at 5e307 and 1e308, far out in every tail
    grid = np.array([0.0, 5e307, 1e308])
    members = (EnsembleParams.gaussian(5, 1.0), EnsembleParams.from_lambda(5, 2.0, alpha=1.0),
               EnsembleParams.from_q(5, 0.5, alpha=1.0))
    for p in members:
        for entry in ("diag", "offdiag"):
            pdf = element_pdf(grid, p, entry)
            assert pdf[0] > 0.0 and pdf[1:].tolist() == [0.0, 0.0]
            cdf = element_cdf(grid, p, entry)
            assert cdf.tolist() == [0.5, 1.0, 1.0]
    for p in members[:2]:
        rho = level_density(grid, p)
        assert rho[0] > 0.0 and rho[1:].tolist() == [0.0, 0.0]
    sc = semicircle_density(grid, 5, 1.0)
    assert sc[0] > 0.0 and sc[1:].tolist() == [0.0, 0.0]


def test_level_density_underflowing_energy_is_the_plateau():
    # E^2 underflows to 0 below ~1e-162: the E = 0 value, not a division by zero
    p = EnsembleParams.from_lambda(5, 1.5, alpha=1.0)
    rho0 = level_density(0.0, p)
    assert level_density(1e-300, p) == rho0 == level_density(-5e-324, p)
    assert np.all(level_density(np.array([1e-300, -1e-200, 0.0]), p) == rho0)
    assert level_density_mixture(1e-300, p) == level_density_mixture(0.0, p)


def test_level_density_mixture_negative_error_estimate_raises_numerical_error():
    # QUADPACK returns 1.90 with error estimate -1.08e15 and no message here
    p = EnsembleParams.from_lambda(10, 50.0, alpha=1.0)
    with pytest.raises(NumericalError, match=r"E=1\.0, n=10, lambda=50: .* error estimate -"):
        level_density_mixture(1.0, p)


def test_level_density_mixture_below_its_t_floor_raises_numerical_error():
    # at t = n lam/(alpha E^2) = 5e-300 QAWS's value is 18% low with an error estimate of 1e-14 of it
    p = EnsembleParams.from_lambda(5, 1e-300, alpha=1.0)
    with pytest.raises(NumericalError, match=r"E=1\.0, n=5, lambda=1e-300: t = n lambda/\(alpha E\^2\) = 5e-300 "
                                             r"is below 1e-200"):
        level_density_mixture(-1.0, p)
    with pytest.raises(NumericalError, match="below 1e-200"):
        density_curve(p, np.linspace(-1.0, 1.0, 3))
    # just above the floor the routes agree; below it, where the density rounds to 0, so does the mixture
    q = EnsembleParams.from_lambda(3, 0.5, alpha=1.0)
    e = math.sqrt(3 * 0.5 / 2e-200)
    assert level_density_mixture(e, q).value == pytest.approx(level_density(e, q), rel=1e-10, abs=0.0)
    r = EnsembleParams.from_lambda(5, 2.0, alpha=1.0)
    for e in (1e150, 5e307):  # t = 1e-299, and 0 where E^2 overflows
        assert level_density_mixture(e, r).value == 0.0 == level_density(e, r)


def test_density_curve_cross_check_above_bound_raises_numerical_error():
    # the mixture route is off by about 1e23 times the curve's peak here
    p = EnsembleParams.from_lambda(10, 100.0, alpha="auto")
    with pytest.raises(NumericalError, match=r"mixture cross-check is off by .* at n=10, lambda=100"):
        density_curve(p, np.linspace(-3.0, 3.0, 17))


def test_level_density_constants_are_cached_per_params():
    p = EnsembleParams.from_lambda(7, 2.5, alpha=0.3)
    _level_density_consts.cache_clear()
    level_density(0.7, p)
    level_density(np.linspace(-3.0, 3.0, 7), p)
    info = _level_density_consts.cache_info()
    assert info.misses == 1 and info.hits >= 2


@pytest.mark.parametrize("call,match", [
    (lambda: gap_probability_bulk(3.7, 10.0), r"gap_probability_bulk: QUADPACK ier=2 at s=3\.7, lambda=10\.0"),
    (lambda: gap_probability_bulk(np.array([3.7]), 10.0)[0],
     r"gap_probability_bulk: QUADPACK ier=2 at s=3\.7, lambda=10\.0: The occurrence of roundoff"),
    (lambda: gap_probability(0.2717207669088468, EnsembleParams.from_lambda(20, 10.0, alpha="auto")),
     r"gap_probability: QUADPACK ier=2 at theta=0\.2717207669088468, n=20, lambda=10\.0"),
])
def test_quadpack_failure_warns_with_site_point_and_ier(call, match):
    # these calls end with QUADPACK's roundoff flag; the value is kept and
    # one warning names where it happened
    with pytest.warns(IntegrationWarning, match=match) as record:
        val = call()
    assert len(record) == 1
    assert record[0].filename == __file__  # the caller of the public function
    assert 0.0 <= val <= 1.0


def test_gap_curve_quadpack_warnings_point_at_the_caller():
    p = EnsembleParams.from_lambda(20, 10.0, alpha="auto")
    with pytest.warns(IntegrationWarning) as record:
        gap_curve(p, _gap_theta_grid(3.0, 40))
    assert {w.filename for w in record} == {__file__}


class _FailingQuadpack:
    """A stand-in for qrmt.analytic.integrate: QUADPACK's value, with its roundoff message."""

    @staticmethod
    def quad(*args, **kwargs):
        return (*integrate.quad(*args, **kwargs)[:3],
                "The occurrence of roundoff error is detected, which prevents\n  the requested tolerance.")

    def __getattr__(self, attr):
        return getattr(integrate, attr)


_P_WARN = EnsembleParams.from_lambda(5, 1.5, alpha=1.0)


@pytest.mark.parametrize("call", [
    lambda: density_curve(_P_WARN, np.linspace(-3.0, 3.0, 9)),
    lambda: gap_curve(_P_WARN, np.array([0.0, 0.5, 1.0])),
    lambda: gap_probability(0.5, _P_WARN),
    lambda: mean_count(0.5, _P_WARN),
    lambda: level_density_mixture(0.7, _P_WARN),
    lambda: gap_probability_bulk(1.5, 2.0),
    lambda: gap_probability_bulk(np.array([[0.5, 1.0], [1.5, 2.0]]), 2.0),
], ids=["density_curve", "gap_curve", "gap_probability", "mean_count", "level_density_mixture",
        "bulk-scalar", "bulk-array"])
def test_every_quadpack_warning_points_at_the_caller(monkeypatch, call):
    # however deep in the module the Gamma average runs, its warning names this file
    monkeypatch.setattr(qrmt.analytic, "integrate", _FailingQuadpack())
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        call()
    assert record and all(issubclass(w.category, IntegrationWarning) for w in record)
    assert {w.filename for w in record} == {__file__}


# ------------------------------------------------- gap law edges and inputs

def test_gap_laws_at_theta_whose_square_underflows():
    # theta^2 underflows to 0, so the saturation point xi_sat is infinite
    p = EnsembleParams.from_lambda(5, 1.5, alpha=1.0)
    assert gap_probability(1e-200, p) == 1.0
    assert 0.0 < mean_count(1e-200, p) < 1e-190
    c = gap_curve(p, np.array([0.0, 5e-201, 1e-200]))
    assert np.all(c.values == 1.0) and np.all(c.abscissae < 1e-190)


@pytest.mark.parametrize("call", [
    lambda p: gap_probability(math.nan, p),
    lambda p: mean_count(math.nan, p),
    lambda p: gap_curve(p, np.array([0.0, math.nan])),
], ids=["gap_probability", "mean_count", "gap_curve"])
def test_gap_laws_reject_nan_theta(call):
    with pytest.raises(ParameterError, match="nonnegative"):
        call(EnsembleParams.from_lambda(5, 1.5, alpha=1.0))


def test_gap_laws_at_infinite_theta_are_saturated():
    p = EnsembleParams.from_lambda(5, 1.5, alpha=1.0)
    assert gap_probability(math.inf, p) == goe_gap(5.0)
    assert mean_count(math.inf, p) == 5.0
    c = gap_curve(p, np.array([0.0, 1.0, math.inf]))
    assert c.abscissae[-1] == 5.0 and c.values[-1] == goe_gap(5.0)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 10.0, 20.0])
def test_gap_probability_bulk_keeps_the_shape_of_s(lam):
    # each route, closed form, quadrature and incomplete beta, returns s's shape,
    # with the bits of one scalar call per entry
    s = np.array([[0.0, 0.5], [1.5, 3.7]])
    out = gap_probability_bulk(s, lam)
    assert out.shape == (2, 2)
    assert np.array_equal(_bits(out), _bits([[gap_probability_bulk(v, lam) for v in row] for row in s.tolist()]))
    assert gap_probability_bulk(np.empty((0, 3)), lam).shape == (0, 3)


def test_goe_counting_saturates_at_exactly_n():
    # edge^2 rounds below 2 n for some n, where the closed form overshoots n by ~3e-8
    for n in range(1, 201):
        edge = math.sqrt(2.0 * n)
        xs = [edge, 2.0 * edge, math.inf]
        assert [goe_counting(x, n) for x in xs] == [n, n, n]
        assert goe_counting(np.array(xs), n).tolist() == [n, n, n]
        assert type(goe_counting(edge, n)) is float


@pytest.mark.parametrize("s", [math.nan, math.inf, [1.0, math.nan]])
def test_gap_probability_bulk_rejects_nonfinite_s(s):
    for lam in (1.0, 2.0):
        with pytest.raises(ParameterError, match="finite"):
            gap_probability_bulk(s, lam)


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_gap_probability_bulk_rejects_nonfinite_lambda(lam):
    with pytest.raises(RegimeError, match="finite lambda"):
        gap_probability_bulk(1.0, lam)


def test_gap_probability_bulk_nonfinite_result_raises_numerical_error(monkeypatch):
    # a stand-in QUADPACK that returns NaN; lambda <= 10 is the quadrature route
    class NanQuadpack:
        @staticmethod
        def quad(*args, **kwargs):
            return math.nan, math.nan, {"neval": 21}

    monkeypatch.setattr(qrmt.analytic, "integrate", NanQuadpack)
    with pytest.raises(NumericalError, match=r"s=1\.0, lambda=3\.0: nan"):
        gap_probability_bulk(1.0, 3.0)


@pytest.mark.parametrize("lam", [1e-16, 5e-17, 1e-300])
@pytest.mark.parametrize("call", [
    lambda lam: gap_probability(0.5, EnsembleParams.from_lambda(5, lam, alpha=1.0)),
    lambda lam: mean_count(0.5, EnsembleParams.from_lambda(5, lam, alpha=1.0)),
    lambda lam: gap_probability_bulk(0.5, lam),
], ids=["gap_probability", "mean_count", "gap_probability_bulk"])
def test_gap_laws_at_lambda_that_lambda_minus_one_drops_raise_numerical_error(call, lam):
    # (lam - 1.0) + 1.0 is not lam here, so the QAWS weight xi^(lam - 1) has the wrong mass
    with pytest.raises(NumericalError, match=f"lambda={lam!r} is too small for float64"):
        call(lam)


def test_mixture_weight_at_lambda_that_lambda_minus_one_drops_is_not_rejected():
    # the mixture's weight xi^(lam - 1/2) keeps lam's digits down to lam = 1e-300,
    # so the exponent gate that stops the gap laws there lets it through
    p = EnsembleParams.from_lambda(5, 1e-300, alpha=1.0)
    assert level_density_mixture(0.0, p).value == pytest.approx(level_density(0.0, p), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("theta", [0.5, 1e-300])
@pytest.mark.parametrize("law", [gap_probability, mean_count], ids=["gap_probability", "mean_count"])
def test_gap_point_laws_nonfinite_average_raises_numerical_error(law, theta):
    # QAWS returns NaN for the weight xi^(1000 - 1); the point laws used to hand it back
    p = EnsembleParams.from_lambda(5, 1000.0, alpha=1.0)
    with pytest.raises(NumericalError, match=rf"theta={theta!r}, n=5, lambda=1000\.0: nan"):
        law(theta, p)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("n", [1, 5, 50])
def test_goe_integrands_match_public_composition_bit_for_bit(n):
    # the inlined goe_counting / goe_gap arithmetic against the public
    # functions, at xi on both sides of saturation, xi_sat = n lam/(alpha theta^2);
    # the pair is called E then s (s reads the nodes E recorded), s then E
    # (nothing recorded yet), and E, s, E, s at each xi in turn
    for lam, alpha, theta in ((0.5, 1.0, 0.3), (1.5, 0.9, 1.1), (10.0, 3.0, 2.5)):
        p = EnsembleParams.from_lambda(n, lam, alpha=alpha)
        xi_sat = n * lam / (alpha * theta * theta)
        xis = np.concatenate([np.geomspace(1e-9, xi_sat, 150), np.linspace(0.5, 2.0, 150) * xi_sat]).tolist()
        scale = math.exp(-gammaln(lam))
        ys = [goe_counting(math.sqrt(2.0 * alpha * xi / lam) * theta, n) for xi in xis]
        ref_s = _bits([scale * math.exp(-xi) * y for xi, y in zip(xis, ys)])
        ref_e = _bits([scale * math.exp(-xi) * goe_gap(y) for xi, y in zip(xis, ys)])
        gap, count = _goe_integrands(theta, p)
        assert np.array_equal(_bits([gap(xi) for xi in xis]), ref_e)
        assert np.array_equal(_bits([count(xi) for xi in xis]), ref_s)
        gap, count = _goe_integrands(theta, p)
        assert np.array_equal(_bits([count(xi) for xi in xis]), ref_s)
        assert np.array_equal(_bits([gap(xi) for xi in xis]), ref_e)
        gap, count = _goe_integrands(theta, p)
        twice = np.array([[gap(xi), count(xi), gap(xi), count(xi)] for xi in xis])
        for col, ref in enumerate((ref_e, ref_s, ref_e, ref_s)):
            assert np.array_equal(_bits(twice[:, col]), ref)
        assert ys[-1] == n  # the grid reaches saturation


def _kernels(monkeypatch, call) -> list:
    """The kernel of each Gamma average that call() hands the engine."""
    kernels, engine = [], qrmt.analytic._gamma_average

    def spy(kernel, *args, **kwargs):
        kernels.append(kernel)
        return engine(kernel, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(qrmt.analytic, "_gamma_average", spy)
        call()
    return kernels


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("n", [1, 5, 50])
def test_each_law_hands_the_engine_its_weighted_kernel(monkeypatch, n):
    # each kernel QUADPACK calls is w * exp(-xi) * g(xi) left to right, w = c/Gamma(lam) and g the
    # public composition, bit for bit: the mixture on both sides of its kink, the GOE E and s
    # kernels and the bulk kernel, at xi on both sides of saturation (for the bulk: where erfc is 0)
    for lam, alpha, theta in ((0.5, 1.0, 0.3), (1.5, 0.9, 1.1), (10.0, 3.0, 2.5)):
        p = EnsembleParams.from_lambda(n, lam, alpha=alpha)
        inv_gamma = math.exp(-gammaln(lam))
        cases = []
        xi_sat = n * lam / (alpha * theta * theta)
        xis = np.concatenate([np.geomspace(1e-9, xi_sat, 60), np.linspace(0.5, 2.0, 60) * xi_sat]).tolist()
        ys = [goe_counting(math.sqrt(2.0 * alpha * xi / lam) * theta, n) for xi in xis]
        kernels = _kernels(monkeypatch, lambda: gap_curve(p, [0.0, theta]))
        cases.append((kernels, inv_gamma, xis, [[goe_gap(y) for y in ys], ys]))
        assert ys[-1] == n
        for e in (-1.5 * math.sqrt(n / alpha), 0.05):
            t = n * lam / (alpha * e * e)
            xis = np.linspace(1e-9, 2.0 * t, 120).tolist()
            g = [abs(e)] * len(xis) if t <= _xi_max(lam) else [
                math.sqrt(max(n * lam / alpha - xi * e * e, 0.0)) for xi in xis]
            kernels = _kernels(monkeypatch, lambda: level_density_mixture(e, p))
            cases.append((kernels, (2.0 * alpha / (math.pi * lam)) * inv_gamma, xis, [g]))
            assert (t <= _xi_max(lam)) is (e < 0.0) and g[-1] == (abs(e) if e < 0.0 else 0.0)
        sv, slope = 2.5 * theta, math.exp(gammaln(lam) - gammaln(lam + 0.5))
        xis = np.geomspace(1e-9, 1e4, 120).tolist()
        kernels = _kernels(monkeypatch, lambda: gap_probability_bulk(sv, lam))
        cases.append((kernels, inv_gamma, xis, [[goe_gap(sv * math.sqrt(xi) * slope) for xi in xis]]))
        assert cases[-1][3][0][-1] == 0.0
        for kernels, w, xis, gs in cases:
            assert [_bits([f(xi) for xi in xis]).tolist() for f in kernels] == [
                _bits([w * math.exp(-xi) * v for xi, v in zip(xis, g)]).tolist() for g in gs]


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("n", [5, 50])
@pytest.mark.parametrize("lam", [0.5, 10.0])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(below=st.lists(st.floats(0.05, 0.999), min_size=1, max_size=3),
       above=st.lists(st.floats(1.001, 4.0), min_size=1, max_size=3), zero=st.booleans())
@example(below=[], above=[], zero=True)  # the CLI's default grid
def test_gap_curve_equals_the_single_integral_laws_bit_for_bit(n, lam, below, above, zero):
    # gap_curve shares one pair of node tables between its E and s quadratures at each theta, and
    # prefills them with the nodes of the earlier thetas whose averages also run on [0, xi_max];
    # mean_count and gap_probability each run one point on its own.  A drawn grid puts thetas on
    # both sides of theta_max, where xi_sat = n lam/(alpha theta^2) reaches xi_max
    p = EnsembleParams.from_lambda(n, lam, alpha="auto")
    if below or above:
        theta_max = math.sqrt(n * lam / (p.alpha * _xi_max(lam)))
        thetas = np.unique(theta_max * np.array(below + above))
        thetas = np.concatenate([[0.0], thetas]) if zero else thetas
    else:
        thetas = _gap_theta_grid(3.0, 40)
    c = gap_curve(p, thetas)
    assert np.array_equal(_bits(c.abscissae), _bits([mean_count(float(t), p) for t in thetas]))
    assert np.array_equal(_bits(c.values), _bits([gap_probability(float(t), p) for t in thetas]))
    # xi_sat on both sides of the truncation xi_max
    xi_sat = n * lam / (p.alpha * thetas[thetas > 0.0] ** 2)
    assert np.any(xi_sat < _xi_max(lam)) and np.any(xi_sat > _xi_max(lam))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(max_examples=30, deadline=None, derandomize=True)
@given(lam=st.floats(1e-3, 10.0) | st.sampled_from([1.0 + 1e-13, 0.5, 10.0]),
       s=st.lists(st.floats(0.0, 12.0) | st.just(0.0), min_size=2, max_size=6), data=st.data())
def test_gap_probability_bulk_grid_equals_single_points_bit_for_bit(lam, s, data):
    # a grid prefills each point's node table with the nodes its earlier points recorded; a single
    # point has nothing to share.  Unsorted grids with repeats and zeros
    grid = data.draw(st.permutations(s + s[:2]))
    assert np.array_equal(_bits(gap_probability_bulk(np.array(grid), lam)),
                          _bits([gap_probability_bulk(v, lam) for v in grid]))


class _CountingQuadpack:
    """A stand-in for qrmt.analytic.integrate that adds up QUADPACK's neval."""

    def __init__(self):
        self.neval = 0

    def quad(self, *args, **kwargs):
        res = integrate.quad(*args, **kwargs)
        self.neval += res[2]["neval"]
        return res

    def __getattr__(self, attr):
        return getattr(integrate, attr)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0, 10.0])
def test_grid_neval_equals_the_sum_over_single_points(monkeypatch, lam):
    # the node tables hand QUADPACK the numbers it would have computed, so it visits the same nodes
    s = np.linspace(0.0, 10.0, 41)
    p = EnsembleParams.from_lambda(20, lam, alpha="auto")
    thetas = _gap_theta_grid(3.0, 40)
    counts = []
    for call in (lambda: gap_probability_bulk(s, lam),
                 lambda: [gap_probability_bulk(v, lam) for v in s.tolist()],
                 lambda: gap_curve(p, thetas),
                 lambda: [(gap_probability(t, p), mean_count(t, p)) for t in thetas.tolist()]):
        counting = _CountingQuadpack()
        monkeypatch.setattr(qrmt.analytic, "integrate", counting)
        call()
        counts.append(counting.neval)
    # at lambda = 1 the bulk law is its closed form, and gap_curve's own intervals take no
    # Clenshaw-Curtis rule
    assert counts[0] == counts[1] and (counts[0] > 0) is (lam != 1.0) and counts[2] == counts[3] > 0


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("call", [
    lambda: gap_probability_bulk(np.linspace(0.0, 10.0, 21), 10.0),
    lambda: gap_curve(EnsembleParams.from_lambda(20, 3.0, alpha="auto"), _gap_theta_grid(3.0, 12)),
    lambda: gap_curve(EnsembleParams.from_lambda(20, 0.5, alpha="auto"), _gap_theta_grid(3.0, 40)),
], ids=["bulk", "gap_curve", "gap_curve_placed"])
def test_node_tables_are_freed_without_the_cyclic_collector(call):
    # a table's kernel never refers back to it, so a spent table goes with its last reference and
    # leaves no reference cycle to wait for the collector.  At lambda = 0.5, 31 of the default
    # grid's thetas average over their own interval, and 30 of them start from placed nodes
    gc.collect()
    gc.disable()
    try:
        call()
        left = [obj for obj in gc.get_objects() if isinstance(obj, _NodeTable)]
    finally:
        gc.enable()
    assert left == []


@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
def test_replayed_subdivision_places_every_node_quadpack_visited(lam):
    # at lambda = 1 the weight's exponent alfa = lambda - 1 is 0, and the interval from 0 takes the
    # Kronrod rule in place of the Clenshaw-Curtis one.  The default grid's thetas on their own interval
    p = EnsembleParams.from_lambda(20, lam, alpha="auto")
    thetas = [float(t) for t in _gap_theta_grid(3.0, 40)[1:] if 20 * lam / (p.alpha * t * t) < _xi_max(lam)]
    assert len(thetas) >= 3
    for theta in thetas[:: max(1, len(thetas) // 4)]:
        xi_sat = 20 * lam / (p.alpha * theta * theta)
        for count in (False, True):
            lookup, visited, trees = _goe_integrands(theta, p)[count], [], []

            def kernel(xi):
                visited.append(xi)
                return lookup(xi)

            qrmt.analytic._gamma_average(kernel, lam, -1.0, "test", "test", kink=xi_sat, trees=trees)
            assert len(trees) == 1 and trees[0][0] == xi_sat and trees[0][1] is (lam != 1.0)
            assert set(qrmt.analytic._qaws_nodes(trees, xi_sat).tolist()) == set(visited)


def test_placer_skips_a_leaf_without_width():
    # bisection at the scale of an ulp can leave a subinterval [l, l]; it has no depth to replay
    lo, up = np.array([0.0, 5.0, 7.5, 7.5]), np.array([5.0, 7.5, 7.5, 10.0])
    placed = qrmt.analytic._qaws_nodes([(10.0, True, lo, up)], 20.0)
    # [0, 10] by Clenshaw-Curtis; [10, 20], its parent of the two right leaves, and those two by Kronrod
    assert placed.size == 25 + 3 * 15 and np.all(np.isfinite(placed))
    assert placed.min() == 0.0 and placed.max() < 20.0


@pytest.mark.parametrize("cc_left", [True, False])
def test_placer_replays_a_left_chain_past_62_bisections(cc_left):
    # heap keys past 2^63 stay exact as Python ints: the chain [0, hi/2^k] bisected 70 times places
    # each interval's rule once, and each node once (the Clenshaw-Curtis chain shares 0, r/2 and r
    # with its parent, and its Kronrod siblings' centres are the parent's nodes)
    hi, depth = 7.3, 70
    ends = [hi * 0.5 ** k for k in range(depth + 1)]
    lo, up = np.array([0.0] + ends[1:]), np.array([ends[-1]] + ends[:-1])
    placed = qrmt.analytic._qaws_nodes([(hi, cc_left, lo, up)], 3.0 * hi)
    assert np.unique(placed).size == placed.size
    assert placed.size == (25 + 22 * (depth - 1) + 15 + 14 * (depth - 1) if cc_left else 2 * depth * 15)
    centres = 0.5 * (np.array(ends[1:]) * 3.0)  # [0, 3 hi/2^k] for k = 1..70 on the new interval
    assert set(centres.tolist()) <= set(placed.tolist())


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
def test_misplaced_nodes_change_no_bit_and_no_neval(monkeypatch, lam):
    # every placed node one ulp up: no lookup hits, each visit runs the scalar kernel
    p = EnsembleParams.from_lambda(20, lam, alpha="auto")
    thetas = _gap_theta_grid(3.0, 40)
    runs, placer = [], qrmt.analytic._qaws_nodes
    for shift in (False, True):
        calls, counting = [], _CountingQuadpack()

        def placed(trees, hi):
            x = placer(trees, hi)
            calls.append(x.size)
            return np.nextafter(x, math.inf) if shift else x

        monkeypatch.setattr(qrmt.analytic, "_qaws_nodes", placed)
        monkeypatch.setattr(qrmt.analytic, "integrate", counting)
        c = gap_curve(p, thetas)
        assert len(calls) >= 2 and min(calls) > 0
        runs.append((_bits(c.abscissae).tolist(), _bits(c.values).tolist(), c.quadrature_error, counting.neval))
    assert runs[0] == runs[1]


def _analytic_curves_gap_ops():
    for n in (20, 50):
        for lam in (0.5, 1.0, 1.5, 3.0, 10.0):
            gap_curve(EnsembleParams.from_lambda(n, lam, alpha="auto"), _gap_theta_grid(3.0, 40))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_gap_curves_run_few_scalar_e_kernels(monkeypatch):
    # the ten gap curves of the analytic_curves benchmark: each table's misses run the scalar
    # kernel.  The node cache reaches 9,522: 9,456 at thetas on [0, xi_max], where each curve's
    # first theta has nothing to replay, and 66 at thetas on their own interval, the first of
    # which replays the last theta on [0, xi_max]
    misses, engine = [0], qrmt.analytic._gamma_average

    def spy(kernel, *args, **kwargs):
        table = kernel.__self__
        if table.__missing__.__name__ == "e_kernel":
            scalar = table.__missing__

            def miss(xi):
                misses[0] += 1
                return scalar(xi)

            table.__missing__ = miss
        return engine(kernel, *args, **kwargs)

    monkeypatch.setattr(qrmt.analytic, "_gamma_average", spy)
    _analytic_curves_gap_ops()
    assert 0 < misses[0] <= 9522


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_node_caches_hold_each_node_once(monkeypatch):
    # the Clenshaw-Curtis ends and centres that recur down the left chain, and the centres of the
    # chain's Kronrod intervals, are placed once; w and r line up with the nodes
    sizes, tables = [], _NodeTable.tables.__func__

    def spy(cls, cache, law, count):
        assert len(set(cache.xis)) == len(cache.xis) == cache.w.size == cache.r.size
        sizes.append(len(cache.xis))
        return tables(cls, cache, law, count)

    monkeypatch.setattr(_NodeTable, "tables", classmethod(spy))
    _analytic_curves_gap_ops()
    for lam in (0.5, 1.5, 3.0, 10.0):
        gap_probability_bulk(np.linspace(0.0, 10.0, 201), lam)
    assert len(sizes) == 390 + 800 and sum(sizes) > 600000


def test_bulk_grid_at_lambda_10_warns_as_its_single_points_do():
    # QUADPACK's roundoff flag at the same 24 of 201 points, with the same text, at the caller's line
    s = np.linspace(0.0, 10.0, 201)
    with warnings.catch_warnings(record=True) as together:
        warnings.simplefilter("always")
        line = sys._getframe().f_lineno + 1
        gap_probability_bulk(s, 10.0)
    with warnings.catch_warnings(record=True) as apart:
        warnings.simplefilter("always")
        for v in s.tolist():
            gap_probability_bulk(v, 10.0)
    assert len(together) == 24
    assert [str(w.message) for w in together] == [str(w.message) for w in apart]
    assert {(w.category, w.filename, w.lineno) for w in together} == {(IntegrationWarning, __file__, line)}


def test_goe_counting_and_goe_gap_same_bits_for_scalar_and_array():
    for n in (1, 5, 50):
        x = np.concatenate([[0.0], np.geomspace(1e-12, 3.0 * math.sqrt(2.0 * n), 400), [math.sqrt(2.0 * n)]])
        y = goe_counting(x, n)
        assert np.array_equal(_bits([goe_counting(v, n) for v in x.tolist()]), _bits(y))
        assert np.array_equal(_bits([goe_gap(v) for v in y.tolist()]), _bits(goe_gap(y)))


# -------------------------------------------------------------------- joint

def test_mehta_frozen_constants_match_closed_form():
    # independent of any quadrature: (2 pi)^(n/2) prod_j Gamma(1+j/2)/Gamma(3/2)
    for n, ref in MEHTA_INTEGRALS.items():
        closed = (2 * math.pi) ** (n / 2)
        for j in range(1, n + 1):
            closed *= math.gamma(1 + j / 2) / math.gamma(1.5)
        assert ref == pytest.approx(closed, rel=1e-12)


def test_mehta_integral_quadrature_route():
    # n = 4 is exercised only when the frozen constant was made (it takes
    # half a minute of nested quadrature); n <= 3 re-runs here
    for n in (1, 2, 3):
        assert _mehta_integral(n) == pytest.approx(MEHTA_INTEGRALS[n], rel=1e-8)


def test_joint_density_n4_norm_is_fast_and_exact():
    # Mehta's closed form: the first n = 4 call costs no nested quadrature
    p = EnsembleParams.from_lambda(4, 1.5, alpha=1.0)
    _joint_log_const.cache_clear()
    t0 = time.process_time()
    val = joint_eigen_density([-1.0, 0.2, 0.5, 1.7], p)
    assert time.process_time() - t0 < 0.1
    assert isinstance(val, float) and val > 0.0
    assert 1.0 / _mehta_integral(4) * MEHTA_INTEGRALS[4] == pytest.approx(1.0, rel=1e-12)


def test_joint_density_matches_numpy_reference_bit_for_bit():
    # the numpy formulation it replaced: np.sort, then np.sum of the squares
    def reference(evals, p):
        e = np.sort(np.asarray(evals, dtype=float))
        vander = 1.0
        for i in range(p.n):
            for j in range(i + 1, p.n):
                vander *= abs(e[j] - e[i])
        ssq = float(np.sum(e * e))
        log_k = _joint_log_const(p)
        if p.regime is Regime.GAUSSIAN:
            return math.exp(log_k - p.alpha * ssq) * vander
        u = (p.alpha / p.lam) * ssq
        if 1.0 + u <= 0.0:
            return 0.0
        return math.exp(log_k - (p.lam + p.f / 2.0) * math.log1p(u)) * vander

    rng = np.random.default_rng(2024)
    for n in (1, 2, 3, 4):
        f = n * (n + 1) // 2
        for p in (EnsembleParams.gaussian(n, alpha=0.7), EnsembleParams.from_lambda(n, 0.3, alpha=1.3),
                  EnsembleParams.from_lambda(n, 40.0, alpha=0.5), rt_params(n, f / 2.0 + 0.5, 1.0)):
            for scale in (0.1, 1.0, 30.0):
                for _ in range(100):
                    evals = rng.standard_normal(n) * scale
                    assert joint_eigen_density(evals, p) == reference(evals, p)


# n = 4, lambda = 0.1, alpha = 1 at E = (-1e60, -1e59, 1e59, 1e60), 40-digit mpmath: the
# constant (Mehta's integral and the Student-t normalisation), the weight and |Vandermonde(E)|
_JOINT_FAR_OUT = 5.37718272889253573e-255


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make", [
    lambda n: EnsembleParams.gaussian(n, alpha=1.0),
    lambda n: EnsembleParams.from_lambda(n, 0.1, alpha=1.0),
    lambda n: EnsembleParams.from_q(n, 0.5, alpha=1.0),
], ids=["gaussian", "heavy", "restricted"])
def test_joint_and_matrix_density_far_out(make):
    # |Vandermonde(E)| overflows where the weight underflows: the product is taken in log space,
    # and an infinite eigenvalue, or one whose square overflows, gives the limit 0
    p3, p4 = make(3), make(4)
    for e in ([1e160, 0.0, 1.0], [math.inf, 0.0, 1.0], [-math.inf, 0.0, 1.0], [math.inf, math.inf, 0.0]):
        assert joint_eigen_density(e, p3) == 0.0
        assert matrix_pdf(np.diag(e), p3) == 0.0
    assert matrix_pdf(1e200 * np.eye(3), p3) == 0.0
    far = joint_eigen_density([-1e60, -1e59, 1e59, 1e60], p4)
    if p4.regime is Regime.LEVY_BRANCH:
        assert far == pytest.approx(_JOINT_FAR_OUT, rel=1e-12)
    else:
        assert far == 0.0
    # a tie after the product has overflowed: inf * 0
    assert joint_eigen_density([-1e100, -1e99, 1e100, 1e100], p4) == 0.0


# n = 1, alpha = 1: the Student-t density (1 + E^2/lam)^-(lam + 1/2) / (sqrt(pi lam) Gamma(lam)/Gamma(lam + 1/2))
# at the float lam and E, 40-digit mpmath.  At E = 1e154, lam <= 0.3, E^2 is finite but E^2/lam overflows;
# from E = 1e155 on, E^2 overflows too.  (0.3, 1e200) is subnormal.
_HEAVY_PAST_TRACE_OVERFLOW = {
    (0.05, 1e154): 1.6050200476433114e-171,
    (0.05, 1e155): 1.2749127411415937e-172,
    (0.05, 1e160): 4.0316280799760934e-178,
    (0.05, 1e200): 4.031628079976091e-222,
    (0.1, 1e154): 1.1118217271930601e-186,
    (0.1, 1e155): 7.015120845251151e-188,
    (0.1, 1e160): 7.01512084525115e-194,
    (0.1, 1e200): 7.0151208452511434e-242,
    (0.3, 1e154): 6.091175278937297e-248,
    (0.3, 1e155): 1.5300340535109178e-249,
    (0.3, 1e160): 1.5300340535109183e-257,
    (0.3, 1e200): 1.53e-321,
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam, e", sorted(_HEAVY_PAST_TRACE_OVERFLOW))
def test_heavy_density_past_trace_overflow_matches_mpmath(lam, e):
    # the weight is taken in log space past the overflow; one subnormal step of slack below
    # the smallest normal float, where 1e-12 relative is finer than the float grid
    p = EnsembleParams.from_lambda(1, lam, alpha=1.0)
    ref = _HEAVY_PAST_TRACE_OVERFLOW[(lam, e)]
    for x in (e, -e):
        for got in (matrix_pdf(np.array([[x]]), p), joint_eigen_density([x], p)):
            assert abs(got - ref) <= 1e-12 * ref + 5e-324


def test_joint_log_const_equals_per_regime_closed_forms():
    # each regime's constant on its own: the Gaussian (2 a)^(f/2) / I_n and
    # the Student-t and Beta normalisations of the two branches
    def closed_form(p):
        n, f, a = p.n, p.f, p.alpha
        log_goe = -math.log(MEHTA_INTEGRALS[n])
        if p.regime is Regime.GAUSSIAN:
            return log_goe + 0.5 * f * math.log(2.0 * a)
        if p.regime is Regime.LEVY_BRANCH:
            lam = p.lam
            return 0.5 * f * math.log(2.0 * a / lam) + gammaln(lam + f / 2.0) - gammaln(lam) + log_goe
        al = -p.lam
        return 0.5 * f * math.log(2.0 * a / al) + gammaln(1.0 + al) - gammaln(1.0 + al - f / 2.0) + log_goe

    for n in (1, 2, 3, 4):
        for p in (EnsembleParams.gaussian(n, alpha=0.7), EnsembleParams.from_lambda(n, 0.3, alpha=1.3),
                  EnsembleParams.from_lambda(n, 40.0, alpha=0.5), EnsembleParams.from_q(n, 0.5, alpha=1.1),
                  EnsembleParams.from_q(n, -math.inf, alpha=0.9)):
            assert abs(_joint_log_const(p) - closed_form(p)) <= 5e-14, (n, p.regime, p.lam)


def test_goe_joint_norm_n2_closed_form():
    assert 1.0 / _mehta_integral(2) == pytest.approx(1.0 / (4 * math.sqrt(math.pi)), rel=1e-10)


def test_joint_density_n1_reduces_to_element_law():
    for p in (
        EnsembleParams.from_lambda(1, 1.5, alpha=0.8),
        rt_params(1, 2.0, 1.0),
        EnsembleParams.gaussian(1, alpha=1.0),
    ):
        for e in (-1.2, 0.0, 0.8):
            assert joint_eigen_density([e], p) == pytest.approx(
                element_pdf(e, p, "diag"), rel=1e-9
            )


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_joint_density_n2_mass_levy():
    # heavy tails: integrate over the whole plane, not a finite box.  On the
    # rotated half-plane x = (u - v)/sqrt 2, y = (u + v)/sqrt 2, v >= 0 the
    # |x - y| kink is an edge, not a diagonal QUADPACK must bisect along, and
    # symmetry doubles the half.  Measured error 2.6e-8.
    p = EnsembleParams.from_lambda(2, 1.5, alpha=1.0)
    r2 = math.sqrt(2.0)
    half, _ = integrate.dblquad(
        lambda u, v: joint_eigen_density([(u - v) / r2, (u + v) / r2], p),
        0.0, np.inf, -np.inf, np.inf, epsabs=1e-8,
    )
    assert 2 * half == pytest.approx(1.0, abs=1e-5)


def test_joint_density_n2_mass_light_tails():
    for p, lim in (
        (EnsembleParams.gaussian(2, alpha=1.0), 12.0),
        (rt_params(2, 5.0, 1.0), math.sqrt(5.0) + 0.05),
    ):
        val, _ = integrate.dblquad(
            lambda y, x: joint_eigen_density([x, y], p),
            -lim, lim, lambda x: x, lambda x: lim, epsabs=1e-9,
        )
        assert 2 * val == pytest.approx(1.0, abs=1e-6), p.regime


def test_joint_density_symmetric_and_vanishing_at_coincidence():
    p = EnsembleParams.from_lambda(3, 1.5, alpha=1.0)
    assert joint_eigen_density([0.3, -1.0, 0.9], p) == pytest.approx(
        joint_eigen_density([0.9, 0.3, -1.0], p), rel=1e-14
    )
    assert joint_eigen_density([0.5, 0.5, 1.0], p) == 0.0


def test_joint_density_validation():
    p = EnsembleParams.from_lambda(3, 1.5, alpha=1.0)
    with pytest.raises(ParameterError):
        joint_eigen_density([0.1, 0.2], p)
    p5 = EnsembleParams.from_lambda(5, 1.5, alpha=1.0)
    with pytest.raises(ParameterError):
        joint_eigen_density([0.0] * 5, p5)


def test_joint_density_gaussian_limit():
    # lam -> inf at fixed eigenvalues: ratio to the GOE joint law -> 1
    evals = [0.4, -0.9]
    pg = EnsembleParams.gaussian(2, alpha=1.0)
    ref = joint_eigen_density(evals, pg)
    for lam, tol in ((1e4, 2e-3), (1e6, 2e-5)):
        p = EnsembleParams.from_lambda(2, lam, alpha=1.0)
        assert joint_eigen_density(evals, p) / ref == pytest.approx(1.0, abs=tol)


def test_joint_density_n2_mixture_form_identity():
    # the closed form must equal the Gamma-weighted GOE joint law; the GOE
    # constant at confinement a is (2a)^(f/2) / I_n
    p = EnsembleParams.from_lambda(2, 1.75, alpha=0.9)
    lam, a, f = p.lam, p.alpha, p.f
    i2 = _mehta_integral(2)

    def mixture(e1, e2):
        ssq = e1 * e1 + e2 * e2
        vander = abs(e2 - e1)

        def g(xi):
            conf = a * xi / lam
            return (
                xi ** (lam - 1.0)
                * math.exp(-xi)
                * (2 * conf) ** (f / 2.0)
                / i2
                * math.exp(-conf * ssq)
            )

        val, _ = integrate.quad(g, 0, np.inf, epsabs=1e-13, limit=200)
        return val * vander / math.gamma(lam)

    for pair in ((0.3, -0.6), (1.4, 1.6), (-2.5, 0.1)):
        assert joint_eigen_density(pair, p) == pytest.approx(mixture(*pair), rel=1e-8)


def test_tail_exponents_agree_between_element_and_level_laws():
    # both marginals decay as |x|^-(2 lam + 1); compare fitted slopes
    p = EnsembleParams.from_lambda(4, 0.75, alpha=2.0)
    x = np.geomspace(80, 800, 9)
    el = np.log(element_pdf(x, p, "diag"))
    lv = np.log(level_density(x, p))
    s_el = np.polyfit(np.log(x), el, 1)[0]
    s_lv = np.polyfit(np.log(x), lv, 1)[0]
    assert s_el == pytest.approx(s_lv, abs=0.02)
    assert s_el == pytest.approx(-(2 * 0.75 + 1), abs=0.02)


# ------------------------------------------------------------- frozen bits
# sha256 of the little-endian float64 bytes of each output, frozen from the
# per-point QUADPACK code before the Gamma-average routes were rewritten for
# call overhead; any change to a single output bit fails here.

def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
    return h.hexdigest()


GAP_CURVE_CASES = [(n, lam) for n in (5, 20, 50) for lam in (0.5, 1.0, 1.5, 3.0, 10.0)]
GOLDEN_GAP_CURVE = {
    (5, 0.5): "41f2d26dfe3db53e943062084fc4580bfdbc93b5059c9607097b4b644def2985",
    (5, 1.0): "f05b1cc92f0f4b1b6de55c061bfed1e86ce5474fe8316fef45efbec95b9d8611",
    (5, 1.5): "850a54df573d7b560c1daf942d1605906cc56210e2e4b4b1dfe9688bd5ba48cb",
    (5, 3.0): "ace42240854f65af5e4fda0dcdb687e67bc09408256829c2b5709d0560b540a6",
    (5, 10.0): "452535c73207cb86843612b1b8c985bec47eaf6f46ef78a7b4f7900b8d9deb24",
    (20, 0.5): "d74c2d6d5869eed5e7bde8e0d395e37bf698ec13bab5fa26a0337630958a40ce",
    (20, 1.0): "296d33f2cbf7d58dc1ec69565c288293f1f4aa5ad7a39d9f2efd0fbd08fad442",
    (20, 1.5): "812947f2ab27d2cbed250cd1a0ca3014fd24ff7a1c22adcc79e5670ec499065e",
    (20, 3.0): "eefb9f3c17eae694a50cbb1956784365c4a00bea77e1bbb63d20f07e763ee79d",
    (20, 10.0): "f4c31d09855d35fb8fa7ce58071a6fdff37d24365b6bd4a7dc2869dacfec4acc",
    (50, 0.5): "6f8699acf2ca0d0af0cb8bddbdd0b5311e2d8767a023aeca3c1b54cbe8c6ba48",
    (50, 1.0): "8754a0652dd25d1ea72be03cbc95bec650e4a2d1330233c24b6b6e26a4623ff8",
    (50, 1.5): "58f5961e01371227faeab311621e40ff86a2ea7289bffdb856e802be27075bdf",
    (50, 3.0): "82a8c3340aa3b22a19cd30c15e0d48da6014141f490a37d3bfbf1c0ee71bb4fe",
    (50, 10.0): "cfa6467b7532bc760c0cb14bac99d875c550f49de6f2d7609b3036645bc18fd5",
}
GOLDEN_GAP_POINTS = "064c2ec0821f957629cb1fa89d32702369b8789c47b72ad26dedb707c48620fe"
BULK_LAMBDAS = (0.5, 1.5, 3.0, 10.0, 1.0 + 1e-13)
GOLDEN_BULK = {
    0.5: "090ecb58b51765d68926941bf1b3147832d188ff5269c2bf14e9780cd77dd6a0",
    1.5: "484ee7d85635f0af8efb656454e314b52bb1a8c8cba65e9ba976dc1f4a2754d3",
    3.0: "81564645be6fb2aed3e038112bdcf62bafdb314257dcd16e6ae4d345fb72d76d",
    10.0: "b3986adc05f832311f60e838bb3686e4b93db522e2559152266499ce530f1454",
    1.0000000000001: "77c09ac284637bd835976ce924cb925459fe89c83d8c9c53a487b5e601385a7a",
}
MIXTURE_CASES = [(n, lam) for n in (3, 20, 50) for lam in (0.5, 1.5, 10.0)]
# level_density_mixture, the oracle of density_curve's cross-check: value, error estimate and neval
GOLDEN_MIXTURE = {
    (3, 0.5): "cabec60599a2b4008d2c19eb1375fc0ff26352b9d572f5a0276eeb512b4db0f4",
    (3, 1.5): "4316bf40bcd70b4f8624458c2b2821d86fb053a36961b43a321bb5199fdfeae3",
    (3, 10.0): "4bdfb324500a009a3597dc80105e4c4aaef42159699197b9e56a90b32384c111",
    (20, 0.5): "67ad5e3f4eafed019d445a5d52cbeace9bbe20f8c9b90ae9605d4c8d4417caf2",
    (20, 1.5): "f0f45f926c14cf0609bb43c34d6e79f1a035f979a026ddebbf112320c3a348ac",
    (20, 10.0): "59c14286f2bf37cc9b3cbc90a52f49d3ce9b24ef8a9c213114f7327793b775cd",
    (50, 0.5): "6b61c50ce58f068536925589a7a51fa507fee09fc4f39884985e67d7968b295c",
    (50, 1.5): "9a7e9d8b8322ae0c834193d1c9ab9f794838ab9c8ce87d46477fc6ca5e70c087",
    (50, 10.0): "7f20d415d1d0f7754e2afe3d8f423a8b89da60516857176f0a589709c232f9b7",
}
LEVEL_DENSITY_PARAMS = [(5, 1.5, 1.0), (20, 0.5, "auto"), (50, 10.0, "auto"), (3, 3.0, 2.5)]
GOLDEN_LEVEL_DENSITY = {
    (5, 1.5): "a0812e3a0b44e40dd22af0c5f2be2a8c5aa9c94350e5687196cc952ccbd79162",
    (20, 0.5): "66c33246e0817f4fbd5cf6151c92be73656adee3d6150a61d9dd0dff5d3604b6",
    (50, 10.0): "3bdb43e48f002e18b0a67788ba30d9e28192dfc6de6f0bb0e380e9f500515c0d",
    (3, 3.0): "731b50cf17f4de20ee47cd82c5ee0e0b76cb8f708654c0512860b17c1bc40cf4",
}


def _level_density_grid() -> np.ndarray:
    # 0, -0, points on both sides of the t > 1e12 plateau cut, the bulk and the tail
    tiny = np.concatenate([np.geomspace(1e-150, 1e-3, 40), np.geomspace(1e-8, 1e-4, 33)])
    body = np.linspace(-30.0, 30.0, 121)
    tail = np.geomspace(30.0, 1e4, 25)
    return np.concatenate([[0.0, -0.0], tiny, -tiny, body, tail, -tail])


def _mixture_grid(n: int, lam: float) -> np.ndarray:
    # at alpha = 1, t = n lam/E^2: 0 and E^2 underflowing, t across 1e12 (level_density's
    # plateau cut) and across _xi_max (where the mixture's kink enters QAWS), the bulk and the tail
    scale = math.sqrt(n * lam)
    return np.concatenate([
        [0.0, 1e-200], scale * np.array([1e-6, 1e-4]),
        scale / math.sqrt(1e12) * np.array([0.5, 1.0, 2.0]),
        scale / math.sqrt(_xi_max(lam)) * np.array([0.5, 0.999, 1.0, 1.001, 2.0]),
        scale * np.array([0.1, 0.3, 1.0, 3.0]), scale * np.geomspace(10.0, 1e3, 5),
    ])


def _mixture_digest(n: int, lam: float) -> str:
    p = EnsembleParams.from_lambda(n, lam, alpha=1.0)
    h = hashlib.sha256()
    for e in _mixture_grid(n, lam):
        r = level_density_mixture(float(e), p)
        h.update(np.array([r.value, r.abs_error_estimate], dtype="<f8").tobytes())
        h.update(np.array([r.evaluations], dtype="<i8").tobytes())
    return h.hexdigest()


def _gap_curve_digest(n: int, lam: float) -> str:
    c = gap_curve(EnsembleParams.from_lambda(n, lam, alpha="auto"), _gap_theta_grid(3.0, 40))
    return _sha(c.abscissae, c.values, [c.quadrature_error])


def _gap_points_digest() -> str:
    vals = []
    for n, lam, alpha in ((6, 1.5, 0.9), (20, 3.0, "auto"), (4, 0.5, 2.0)):
        p = EnsembleParams.from_lambda(n, lam, alpha=alpha)
        for theta in (0.05, 0.7, 2.5):
            vals += [mean_count(theta, p), gap_probability(theta, p)]
    return _sha(vals)


def _bulk_digest(lam: float) -> str:
    return _sha(gap_probability_bulk(np.linspace(0.0, 10.0, 201), lam))


def _level_density_digest(n: int, lam: float, alpha) -> str:
    p = EnsembleParams.from_lambda(n, lam, alpha=alpha)
    grid = _level_density_grid()
    return _sha(level_density(grid, p), [level_density(float(v), p) for v in grid])


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("n,lam", GAP_CURVE_CASES)
def test_gap_curve_bits_frozen(n, lam):
    assert _gap_curve_digest(n, lam) == GOLDEN_GAP_CURVE[(n, lam)]


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_mean_count_and_gap_probability_bits_frozen():
    assert _gap_points_digest() == GOLDEN_GAP_POINTS


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("lam", BULK_LAMBDAS)
def test_gap_probability_bulk_bits_frozen(lam):
    assert _bulk_digest(lam) == GOLDEN_BULK[lam]


@pytest.mark.parametrize("n,lam,alpha", LEVEL_DENSITY_PARAMS)
def test_level_density_bits_frozen(n, lam, alpha):
    assert _level_density_digest(n, lam, alpha) == GOLDEN_LEVEL_DENSITY[(n, lam)]


@pytest.mark.parametrize("n,lam", MIXTURE_CASES)
def test_level_density_mixture_bits_frozen(n, lam):
    assert _mixture_digest(n, lam) == GOLDEN_MIXTURE[(n, lam)]
