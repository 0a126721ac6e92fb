"""Special-function layer: frozen arbitrary-precision anchors plus domain guards.

Anchor values were computed with mpmath at 40 significant digits (besselk,
hyp1f1, loggamma, erf).  The stable-density anchors come from two independent
routes that agree to 1e-14: a cosine-zero segment sum in mpmath, and for
sigma < 1 the convergent series (1/pi x) sum_k (-1)^(k+1) Gamma(k sigma + 1)
/ k! sin(k pi sigma / 2) (Lambda x^-sigma)^k.
"""
import math

import numpy as np
import pytest
from scipy import integrate

from qrmt.specfun import (
    QuadratureResult,
    bessel_k,
    erf,
    kummer_m,
    kummer_m_transformed,
    levy_density,
    ln_gamma,
)

# (nu, z, besselk reference)
BESSEL_K_ANCHORS = [
    (0.5, 1.0, 0.46106850444789454),
    (1.0, 1.0, 0.6019072301972346),
    (0.25, 0.1, 2.685156871876059),
    (2.5, 5.0, 0.006495775004385758),
    (10.0, 3.0, 2459.6204220569466),
    (25.0, 60.0, 2.312680313561325e-25),
    (50.0, 100.0, 9.274522653613326e-40),
]

# (a, b, z, hyp1f1 reference); z large and negative is the regime that matters
KUMMER_ANCHORS = [
    (1.5, 3.0, -30.0, 0.013383223339355554),
    (25.5, 27.0, -200.0, 8.956661279147022e-33),
    (50.5, 52.0, -1e6, 1.7502058925169416e-237),
    (0.75, 2.25, -50.0, 0.06747759912750667),
]

# (x, sigma, Lambda, density reference)
LEVY_ANCHORS = [
    (0.5, 1.5, 1.0, 0.26229684035409004),
    (3.0, 1.5, 1.0, 0.03150942361632494),
    (1.0, 0.5, 1.0, 0.08610714691260411),
    (30.0, 0.5, 0.5, 0.0005640249006032778),
    (2.0, 1.7, 2.0, 0.11237409414750231),
    (5.0, 0.8, 1.2, 0.01529230799238872),
    (0.3, 1.2, 0.7, 0.3671058102758464),
    (0.05, 0.6, 1.0, 0.46420950971915925),
]


def test_ln_gamma_anchor():
    assert ln_gamma(7.25) == pytest.approx(7.0521854507385395, rel=1e-14)
    assert ln_gamma(1.0) == 0.0
    assert ln_gamma(0.5) == pytest.approx(math.log(math.pi) / 2, rel=1e-14)


def test_ln_gamma_domain():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(ValueError):
            ln_gamma(bad)


def test_erf_anchor():
    assert erf(1.0) == pytest.approx(0.8427007929497149, rel=1e-14)
    assert erf(0.0) == 0.0
    assert erf(-1.0) == -erf(1.0)


@pytest.mark.parametrize("nu,z,ref", BESSEL_K_ANCHORS)
def test_bessel_k_anchors(nu, z, ref):
    assert bessel_k(nu, z) == pytest.approx(ref, rel=1e-12)


def test_bessel_k_half_integer_closed_form():
    # K_{1/2}(z) = sqrt(pi/(2z)) e^{-z}
    for z in (0.2, 1.0, 7.0):
        ref = math.sqrt(math.pi / (2 * z)) * math.exp(-z)
        assert bessel_k(0.5, z) == pytest.approx(ref, rel=1e-14)


def test_bessel_k_domain():
    with pytest.raises(ValueError):
        bessel_k(-1.0, 1.0)
    with pytest.raises(ValueError):
        bessel_k(1.0, 0.0)
    with pytest.raises(ValueError):
        bessel_k(1.0, -2.0)


@pytest.mark.parametrize("a,b,z,ref", KUMMER_ANCHORS)
def test_kummer_anchors(a, b, z, ref):
    assert kummer_m(a, b, z) == pytest.approx(ref, rel=1e-12)


def test_kummer_trivial_points():
    assert kummer_m(1.0, 2.0, -1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    assert kummer_m(2.0, 2.0, -3.0) == pytest.approx(math.exp(-3.0), rel=1e-13)
    assert kummer_m(1.5, 3.0, 0.0) == 1.0


def test_kummer_transform_consistency():
    # M(a,b,z) = e^z M(b-a, b, -z); the transformed route must agree
    for a, b, z in [(0.75, 2.25, -12.0), (1.5, 3.0, -80.0), (5.5, 7.0, -400.0)]:
        assert kummer_m_transformed(a, b, z) == pytest.approx(kummer_m(a, b, z), rel=1e-10)


def test_kummer_domain():
    with pytest.raises(ValueError):
        kummer_m(1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        kummer_m(1.0, -2.0, -1.0)
    with pytest.raises(ValueError):
        kummer_m(1.0, 2.0, 1.0)  # positive z not supported


@pytest.mark.parametrize("x,sigma,lam,ref", LEVY_ANCHORS)
def test_levy_density_anchors(x, sigma, lam, ref):
    assert levy_density(x, sigma, lam) == pytest.approx(ref, abs=1e-10, rel=1e-10)


def test_levy_density_gaussian_case():
    # sigma = 2 closes to a Gaussian with variance 2*Lambda
    assert levy_density(0.0, 2.0, 1.0) == pytest.approx(1.0 / (2 * math.sqrt(math.pi)), rel=1e-15)
    assert levy_density(1.3, 2.0, 0.7) == pytest.approx(
        math.exp(-1.3**2 / 2.8) / (2 * math.sqrt(math.pi * 0.7)), rel=1e-14
    )


def test_levy_density_cauchy_case():
    for x in (0.0, 0.5, 4.0):
        assert levy_density(x, 1.0, 1.0) == pytest.approx(1.0 / (math.pi * (1 + x * x)), rel=1e-14)
    assert levy_density(2.0, 1.0, 3.0) == pytest.approx(3.0 / (math.pi * (9.0 + 4.0)), rel=1e-14)


def test_levy_density_origin_moment_integral():
    # L(0) = Gamma(1 + 1/sigma) / (pi Lambda^(1/sigma))
    assert levy_density(0.0, 1.5, 1.0) == pytest.approx(
        math.gamma(1 + 2 / 3) / math.pi, rel=1e-14
    )


def test_levy_density_even():
    for x, sigma, lam, _ in LEVY_ANCHORS:
        assert levy_density(-x, sigma, lam) == levy_density(x, sigma, lam)


def test_levy_density_positive_on_grid():
    for sigma in (0.4, 0.8, 1.2, 1.6, 1.95):
        for x in np.linspace(0.0, 20.0, 41):
            assert levy_density(float(x), sigma, 1.0) >= 0.0


def test_levy_density_integrates_to_one():
    # heavy tail ~ x^(-1-sigma); the [0, 400] head plus the power-law tail
    # estimate must account for all the mass
    sigma, lam = 1.3, 0.9
    head = integrate.quad(lambda x: levy_density(x, sigma, lam), 0.0, 400.0,
                          epsabs=1e-10, epsrel=1e-10)[0]
    tail = math.gamma(1 + sigma) * math.sin(math.pi * sigma / 2) * lam / (
        math.pi * sigma * 400.0**sigma
    )
    assert 2 * (head + tail) == pytest.approx(1.0, abs=2e-6)


def test_levy_density_domain():
    with pytest.raises(ValueError):
        levy_density(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        levy_density(1.0, 2.5, 1.0)
    with pytest.raises(ValueError):
        levy_density(1.0, 1.5, 0.0)


def test_quadrature_result_validation():
    with pytest.raises(ValueError):
        QuadratureResult(value=1.0, abs_error_estimate=-1.0, evaluations=10)
