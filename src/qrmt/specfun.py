"""Special functions and quadrature plumbing used by the closed-form evaluators.

scipy is imported on first use, through `_FirstUse` stand-ins: sampling needs
only numpy, so `import qrmt` and `qrmt sample` never load scipy, and the first
analytic call pays its import.  QUADPACK comes through `_integrate`, the one
`_Integrate`, which loads scipy's `_quadpack` extension on its own: the
Gamma-average engine's QAWS calls and the verify suites' QAGS and QAGI calls,
two of them nested for a double integral, so no command imports the
scipy.integrate package for them.  log-gamma, erf, the modified Bessel function
K_nu and the confluent hypergeometric M(a, b, z) are thin validated wrappers
over scipy.special:
each converts its argument to a float array once and hands that array on,
and a 0-d argument gives a float.  The scipy implementations were probed
against 40-digit arbitrary-precision references over the parameter boxes
needed here (worst relative error observed ~1e-13, two orders below the
1e-10 contract).  The Gamma-average kernels call erfc at every QUADPACK node
through `_erfc_double`, scipy's compiled double routine without the ufunc
dispatch, which gives the ufunc's bits.  The symmetric stable
density integral is evaluated by a hand-rolled oscillatory scheme because no
stock routine exposes the (sigma, Lambda) parametrization required.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _FirstUse
from .params import ParameterError

__all__ = [
    "QuadratureResult",
    "ln_gamma",
    "erf",
    "bessel_k",
    "kummer_m",
    "kummer_m_transformed",
    "levy_density",
]


_sp = _FirstUse("_sp", "scipy.special")
_cs = _FirstUse("_cs", "scipy.special.cython_special")


def _erfc_double():
    """scipy's erfc for one Python float, returning one: the `double` specialization in cython_special.

    It is the compiled routine the ufunc `_sp.erfc` loops over, so it returns the same bits, in about
    half the time a call: a Python float skips the ufunc's dispatch.  A QUADPACK kernel binds it
    once, when it is built, and calls it at every node.
    """
    return _cs.erfc["double"]


_QUADPACK = "scipy.integrate._quadpack"


@functools.cache
def _quadpack():
    """scipy's QUADPACK extension module, loaded without scipy.integrate's package init; None if not found.

    `import scipy.integrate._quadpack` first runs scipy/integrate/__init__.py, which imports
    scipy.special, scipy.linalg and some 350 modules more; the extension itself needs only numpy.
    It is loaded from its file and entered in sys.modules under its own name, so a later
    `import scipy.integrate` uses this module object, and one that ran earlier is used here.
    """
    if _QUADPACK in sys.modules:
        return sys.modules[_QUADPACK]
    for base in importlib.util.find_spec("scipy").submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(base, "integrate", "_quadpack" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_QUADPACK, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[_QUADPACK] = module
                spec.loader.exec_module(module)
                return module
    return None


# scipy.integrate.quad's message for each QUADPACK code it returns instead of raising (scipy 1.17.1)
_QUADPACK_MESSAGES = {
    1: "The maximum number of subdivisions ({limit}) has been achieved.\n  "
       "If increasing the limit yields no improvement it is advised to analyze \n  "
       "the integrand in order to determine the difficulties.  If the position of a \n  "
       "local difficulty can be determined (singularity, discontinuity) one will \n  "
       "probably gain from splitting up the interval and calling the integrator \n  "
       "on the subranges.  Perhaps a special-purpose integrator should be used.",
    2: "The occurrence of roundoff error is detected, which prevents \n  "
       "the requested tolerance from being achieved.  The error may be \n  underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the\n  integration interval.",
    4: "The algorithm does not converge.  Roundoff error is detected\n  "
       "in the extrapolation table.  It is assumed that the requested tolerance\n  "
       "cannot be achieved, and that the returned result (if full_output = 1) is \n  "
       "the best which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
    7: "Abnormal termination of the routine.  The estimates for result\n  "
       "and error are less reliable.  It is assumed that the requested accuracy\n  "
       "has not been achieved.",
}

_scipy_integrate = _FirstUse("_scipy_integrate", "scipy.integrate")


class _Integrate:
    """`scipy.integrate.quad` as qrmt calls it, without the package's import.

    `quad(f, a, b, ...)` on a < b runs one QUADPACK routine straight from `_quadpack()`: QAWS for
    weight="alg" on a finite interval, QAGS with no weight on a finite one and QAGI with no
    weight on an infinite one.  It returns what `scipy.integrate.quad` returns: the same value,
    error estimate and info dict, and scipy's message for a nonzero ier, as a warning at the
    caller's line or, with full_output, a fourth item.  Any other call, a code that scipy raises
    for (invalid input), a missing extension file and every other attribute, such as
    `IntegrationWarning`, go to scipy.integrate itself, imported on that first use.
    """

    @staticmethod
    def quad(func, a, b, *, args=(), weight=None, wvar=None, epsabs=1.49e-8, epsrel=1.49e-8, limit=50,
             full_output=0, **other):
        module, ier = _quadpack(), None
        if module is not None and not other and a < b:
            finite = -math.inf < a and b < math.inf
            if weight == "alg" and finite:
                *res, ier = module._qawse(func, a, b, wvar, 1, args, full_output, epsabs, epsrel, limit)
            elif weight is None and finite:
                *res, ier = module._qagse(func, a, b, args, full_output, epsabs, epsrel, limit)
            elif weight is None:  # as scipy's _quad: the finite end, 0 on (-inf, inf), and which ends are infinite
                bound, inf = (a, 1) if -math.inf < a else (b, -1) if b < math.inf else (0, 2)
                *res, ier = module._qagie(func, bound, inf, args, full_output, epsabs, epsrel, limit)
        if ier == 0:
            return tuple(res)
        if ier in _QUADPACK_MESSAGES:
            msg = _QUADPACK_MESSAGES[ier].format(limit=limit)
            if full_output:
                return (*res, msg)
            warnings.warn(msg, _scipy_integrate.IntegrationWarning, stacklevel=2)
            return tuple(res)
        # no route here, or invalid input: scipy's quad reruns QUADPACK and raises its ValueError for it
        return _scipy_integrate.quad(func, a, b, args=args, weight=weight, wvar=wvar, epsabs=epsabs,
                                     epsrel=epsrel, limit=limit, full_output=full_output, **other)

    def __getattr__(self, attr: str):
        return getattr(_scipy_integrate, attr)


# the engine's and verify's QUADPACK, bound as qrmt.analytic.integrate and qrmt.cli.integrate:
# a stand-in replaces one of those names, so it sees only that module's calls
_integrate = _Integrate()


def _quadpack_ier(msg: str, limit: int):
    """The QUADPACK code whose message `quad` gives at `limit` is `msg`; "?" for any other text."""
    return next((ier for ier, text in _QUADPACK_MESSAGES.items() if text.format(limit=limit) == msg), "?")


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a numerical integral with its error estimate and cost."""

    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if self.abs_error_estimate < 0:
            raise ValueError("error estimate must be nonnegative")


def ln_gamma(x):
    """Natural log of Gamma(x) for x > 0."""
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0.0):
        raise ParameterError("ln_gamma requires x > 0")
    out = _sp.gammaln(xa)
    return float(out) if xa.ndim == 0 else out


def erf(x):
    """Error function, any real argument; vectorized."""
    out = _sp.erf(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def bessel_k(nu: float, z):
    """Modified Bessel function of the second kind K_nu(z), nu > 0, z > 0.

    Relative error below 1e-10 over nu in (0, 50], z in (0, 100] (probed
    against an arbitrary-precision oracle; see the test suite anchors).
    """
    if nu <= 0:
        raise ParameterError(f"bessel_k requires nu > 0, got {nu}")
    za = np.asarray(z, dtype=float)
    if np.any(za <= 0.0):
        raise ParameterError("bessel_k requires z > 0")
    out = _sp.kv(nu, za)
    return float(out) if za.ndim == 0 else out


def _check_kummer_args(b: float, z) -> np.ndarray:
    """z as a float array, once b and z are checked for the z <= 0 domain."""
    if b <= 0 and float(b).is_integer():
        raise ParameterError(f"kummer_m is undefined for nonpositive integer b, got b = {b}")
    za = np.asarray(z, dtype=float)
    if (za > 0.0).any():
        raise ParameterError("kummer_m is restricted to z <= 0")
    return za


def kummer_m(a: float, b: float, z):
    """Confluent hypergeometric M(a, b, z) for z <= 0.

    Only the nonpositive real axis is exposed: every use downstream has
    z = -T with T >= 0, and restricting the domain avoids the cancellation
    regime of z > 0 entirely.  M(a, b, 0) = 1 exactly.
    """
    za = _check_kummer_args(b, z)
    out = _sp.hyp1f1(a, b, za)
    return float(out) if za.ndim == 0 else out


def kummer_m_transformed(a: float, b: float, z: float) -> float:
    """M(a, b, z) through the reflection M(a, b, z) = e^z M(b-a, b, -z).

    Independent evaluation route (the argument handed to the library is
    positive rather than negative); used by the verification suites as a
    self-consistency check.  Usable for moderate |z| (below ~700, where e^z
    underflows).
    """
    _check_kummer_args(b, z)
    return math.exp(z) * float(_sp.hyp1f1(b - a, b, -z))


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 32-point Gauss-Legendre rule, plenty for one half-period of the
    cosine factor; built on the first call, so numpy.polynomial loads only for `levy_density`."""
    return np.polynomial.legendre.leggauss(32)


# integrand mass beyond Lambda * t^sigma = 45 is below e^-45 ~ 3e-20
_DECAY_CUTOFF = 45.0


def _gl_segment(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    nodes, weights = _gauss_legendre()
    half = 0.5 * (b - a)
    return half * float(np.dot(weights, f(0.5 * (a + b) + half * nodes)))


def _gl_cusp_segment(f: Callable[[np.ndarray], np.ndarray], h: float) -> float:
    """Integrate f over [0, h] with dyadic refinement toward the origin.

    exp(-Lambda t^sigma) has unbounded derivatives at t = 0 whenever sigma < 2;
    halving toward zero restores spectral accuracy of the fixed rule on every
    subinterval.  The leftover [0, h * 2^-48] is flat to ~1e-14 relative.
    """
    total = 0.0
    hi = h
    for _ in range(48):
        lo = 0.5 * hi
        total += _gl_segment(f, lo, hi)
        hi = lo
    return total + hi * float(f(np.array([0.5 * hi]))[0])


def _euler_accelerated_sum(terms: np.ndarray) -> float:
    """Estimate the full sum of an alternating series from a finite prefix.

    Classic Euler transformation: average adjacent partial sums repeatedly;
    the depth-k average is a binomially weighted combination whose error decays
    geometrically for smooth alternating envelopes.
    """
    s = np.cumsum(terms)
    while len(s) > 1:
        s = 0.5 * (s[1:] + s[:-1])
    return float(s[0])


def levy_density(x: float, sigma: float, big_lambda: float) -> float:
    """Symmetric stable density (1/pi) * Integral_0^inf exp(-Lambda t^sigma) cos(x t) dt.

    Closed forms are returned for sigma = 2 (Gaussian), sigma = 1 (Cauchy) and
    x = 0 (moment integral).  Otherwise the integral is split at the zeros of
    the cosine, each half-period is integrated by a fixed Gauss-Legendre rule,
    and the alternating tail is summed with Euler acceleration; absolute error
    below 1e-9 over the exercised grid (stress-tested against an oscillatory
    arbitrary-precision oracle).
    """
    if not 0.0 < sigma <= 2.0:
        raise ParameterError(f"levy_density requires sigma in (0, 2], got {sigma}")
    if not 0.0 < big_lambda < math.inf:
        raise ParameterError(f"levy_density requires a finite Lambda > 0, got {big_lambda}")
    x = abs(float(x))
    if x == math.inf:  # the density's limit; the generic branch's half-period would be 0
        return 0.0
    if sigma == 2.0:
        return math.exp(-x * x / (4.0 * big_lambda)) / (2.0 * math.sqrt(math.pi * big_lambda))
    if sigma == 1.0:
        return big_lambda / (math.pi * (big_lambda * big_lambda + x * x))
    if x == 0.0:
        return math.gamma(1.0 + 1.0 / sigma) / (math.pi * big_lambda ** (1.0 / sigma))

    def f(t: np.ndarray) -> np.ndarray:
        return np.exp(-big_lambda * t**sigma) * np.cos(x * t)

    t_cut = (_DECAY_CUTOFF / big_lambda) ** (1.0 / sigma)
    half_period = math.pi / x
    first_zero = 0.5 * half_period

    if first_zero >= t_cut:
        # exponential factor kills the integrand before the cosine ever flips:
        # plain cusp-aware quadrature, no oscillation handling needed
        return _gl_cusp_segment(f, min(first_zero, t_cut)) / math.pi

    # segment k spans [zeros[k-1], zeros[k]]; signs alternate
    direct_budget = 40
    tail_budget = 64
    total = _gl_cusp_segment(f, first_zero)
    lo = first_zero
    k = 0
    while lo < t_cut and k < direct_budget:
        total += _gl_segment(f, lo, lo + half_period)
        lo += half_period
        k += 1
    if lo < t_cut:
        # slow decay: Euler-accelerate the remaining alternating series
        tail_terms = np.empty(tail_budget)
        for i in range(tail_budget):
            tail_terms[i] = _gl_segment(f, lo, lo + half_period)
            lo += half_period
        total += _euler_accelerated_sum(tail_terms)
    return total / math.pi
