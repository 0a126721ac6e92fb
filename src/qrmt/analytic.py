"""Closed-form laws of the ensemble family.

Partition functions, matrix and element densities, the element characteristic
function and correlation, the level density in both its confluent
hypergeometric form and its Gamma-mixture quadrature form, the GOE counting
function, the gap probability with its parametric (s, E) pairing, and the
small-N joint eigenvalue density.

Conventions fixed throughout: the Gaussian member has density proportional to
exp(-alpha tr H^2) (diagonal variance 1/(2 alpha), off-diagonal 1/(4 alpha));
"diag" element laws refer to a diagonal entry and "offdiag" variants replace
alpha by 2 alpha; the GOE counting function is taken in the alpha = 1/2 units
where the semicircle has radius sqrt(2 N).
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import EnsembleParams, NumericalError, ParameterError, Regime, RegimeError
from .specfun import QuadratureResult, _erfc_double, _sp, bessel_k, kummer_m, ln_gamma
from .specfun import _integrate as integrate

__all__ = [
    "AnalyticCurve",
    "log_partition",
    "matrix_pdf",
    "element_pdf",
    "element_cdf",
    "element_char_fn",
    "element_correlation",
    "semicircle_density",
    "level_density",
    "level_density_mixture",
    "goe_counting",
    "goe_gap",
    "wigner_surmise",
    "wigner_surmise_cdf",
    "gap_probability",
    "gap_probability_bulk",
    "mean_count",
    "gap_curve",
    "density_curve",
    "element_curve",
    "joint_eigen_density",
]


@dataclass(frozen=True)
class AnalyticCurve:
    """Grid evaluation of a closed-form law with quadrature-error metadata."""

    abscissae: np.ndarray
    values: np.ndarray
    kind: str  # element_pdf | level_density | gap_probability
    params: EnsembleParams | None
    quadrature_error: float

    def __post_init__(self) -> None:
        if len(self.abscissae) != len(self.values):
            raise ValueError("abscissae and values must have equal length")
        where = "" if self.params is None else f" at n={self.params.n}, lambda={self.params.lam:g}"
        if not np.all(np.isfinite(self.values)):
            raise NumericalError(f"non-finite values in {self.kind} curve{where}")
        if self.kind in ("element_pdf", "level_density"):
            if np.any(np.asarray(self.values) < -1e-12):
                raise NumericalError(f"densities must be nonnegative{where}")
        if self.kind == "gap_probability":
            v = np.asarray(self.values)
            if np.any(v < -1e-9) or np.any(v > 1.0 + 1e-9):
                raise NumericalError(f"gap probabilities must lie in [0, 1]{where}")
            if np.any(np.diff(v) > 1e-9):
                raise NumericalError(f"gap probabilities must be nonincreasing{where}")


def _xi_max(lam: float) -> float:
    # truncation of the Gamma weight exp(-xi) xi^(lam-1); tail mass < 1e-12
    # of the integrand for every lambda exercised here
    return max(50.0, lam + 20.0 * math.sqrt(lam))


def _grid(values, name: str) -> np.ndarray:
    """`values` as a float array, which must be 1-D: a ParameterError naming the grid otherwise."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1:
        raise ParameterError(f"{name} must be one-dimensional, got shape {grid.shape}")
    return grid


def _entry_alpha(params: EnsembleParams, entry: str) -> float:
    if entry == "diag":
        return params.alpha
    if entry == "offdiag":
        return 2.0 * params.alpha
    raise ParameterError(f"entry must be 'diag' or 'offdiag', got {entry!r}")


# ---------------------------------------------------------------------------
# partition function and matrix density


def log_partition(params: EnsembleParams) -> float:
    """log of the matrix-density normalization over the flat element measure.

    Both non-Gaussian branches converge to the Gaussian value
    (f/2) log(pi/alpha) as |lambda| -> inf.
    """
    f, a = params.f, params.alpha
    if params.regime is Regime.GAUSSIAN:
        return 0.5 * f * math.log(math.pi / a)
    lam = params.lam
    if params.regime is Regime.LEVY_BRANCH:
        out = 0.5 * f * math.log(math.pi * lam / a) + ln_gamma(lam) - ln_gamma(lam + f / 2.0)
        if not math.isfinite(out):  # ln Gamma(lam) is inf above lam ~ 2.5e305
            raise NumericalError(f"log partition function has no finite value at lambda = {lam!r}")
        return out
    al = -lam  # restricted trace: lam < -f/2 so al - f/2 > 0 strictly (= 0 at q -> -inf)
    return 0.5 * f * math.log(math.pi * al / a) + ln_gamma(1.0 + al - f / 2.0) - ln_gamma(1.0 + al)


def _log_weight(params: EnsembleParams, t: float, entries) -> float:
    """log of the unnormalised matrix density at tr H^2 = t; -inf outside the restricted-trace ball.

    `entries` are the floats whose squares sum to t.  On the heavy branch the weight can be a normal
    float where t or u = (alpha/lambda) t overflows: there log t comes from their scaled sum of
    squares, and log1p(u) = log(alpha/lambda) + log t + log1p(1/u), whose last term, below 2^-1024,
    is under half an ulp of the rest.
    """
    if params.regime is Regime.GAUSSIAN:
        return -params.alpha * t
    u = (params.alpha / params.lam) * t
    if 1.0 + u <= 0.0:
        return -math.inf
    # exponent 1/(1-q) equals -(lambda + f/2) on both branches
    power = -(params.lam + params.f / 2.0)
    if u != math.inf:
        return power * math.log1p(u)
    x = np.abs(np.asarray(entries, dtype=float))
    big = float(x.max())
    if big == math.inf:  # an infinite entry: the density's limit 0
        return -math.inf
    log_t = 2.0 * math.log(big) + math.log(float(np.sum((x / big) ** 2)))
    return power * (math.log(params.alpha) - math.log(params.lam) + log_t)


def matrix_pdf(h: np.ndarray, params: EnsembleParams) -> float:
    """Matrix density at h; depends on h only through tr h^2 (rotation invariant)."""
    h = np.asarray(h, dtype=float)
    with np.errstate(over="ignore"):  # tr h^2 = inf: _log_weight takes log tr h^2 from h itself
        tr_sq = float(np.sum(h * h))
    return math.exp(_log_weight(params, tr_sq, h) - log_partition(params))


# ---------------------------------------------------------------------------
# element laws


def _scaled_square(a: float, x: np.ndarray) -> np.ndarray:
    """a * x * x, evaluated left to right; inf without a warning where it overflows.

    Every law that calls it is 0 (or its limit) there, so the overflow is the
    right value: a huge grid point is far out in the tail.
    """
    with np.errstate(over="ignore"):
        return a * x * x


def element_pdf(x, params: EnsembleParams, entry: str = "diag"):
    """Marginal density of a single matrix element.

    Heavy-tailed branch: Student-t with 2 lambda degrees of freedom and scale
    1/sqrt(2 a) where a is the entry's effective confinement.  Restricted
    trace: compact-support Beta kernel (1 - a x^2/|lambda|)^(|lambda| - 1/2).
    Gaussian: plain normal.
    """
    a = _entry_alpha(params, entry)
    xa = np.asarray(x, dtype=float)
    ax2 = _scaled_square(a, xa)
    if params.regime is Regime.GAUSSIAN:
        out = np.sqrt(a / math.pi) * np.exp(-ax2)
    elif params.regime is Regime.LEVY_BRANCH:
        lam = params.lam
        logc = 0.5 * math.log(a / (math.pi * lam)) + ln_gamma(lam + 0.5) - ln_gamma(lam)
        out = np.exp(logc - (lam + 0.5) * np.log1p(ax2 / lam))
    else:
        al = -params.lam
        logc = 0.5 * math.log(a / (math.pi * al)) + ln_gamma(al + 1.0) - ln_gamma(al + 0.5)
        u = ax2 / al
        with np.errstate(divide="ignore", invalid="ignore"):  # u >= 1, not u < 1: NaN stays NaN
            out = np.where(u >= 1.0, 0.0, np.exp(logc + (al - 0.5) * np.log1p(-np.minimum(u, 1.0))))
    return float(out) if xa.ndim == 0 else out


def element_cdf(x, params: EnsembleParams, entry: str = "diag"):
    """Distribution function matching element_pdf."""
    a = _entry_alpha(params, entry)
    xa = np.asarray(x, dtype=float)
    if params.regime is Regime.GAUSSIAN:
        out = 0.5 * (1.0 + _sp.erf(np.sqrt(a) * xa))
    elif params.regime is Regime.LEVY_BRANCH:
        # exact Student-t reduction: t = x sqrt(2 a), 2 lambda degrees of freedom;
        # t = +-inf where it overflows is the right limit
        with np.errstate(over="ignore"):
            t = xa * math.sqrt(2.0 * a)
        out = _sp.stdtr(2.0 * params.lam, t)
    else:
        al = -params.lam
        u = np.minimum(_scaled_square(a, xa) / al, 1.0)
        out = 0.5 + 0.5 * np.sign(xa) * _sp.betainc(0.5, al + 0.5, u)
    return float(out) if xa.ndim == 0 else out


def element_char_fn(k, params: EnsembleParams, entry: str = "diag"):
    """Characteristic function of a matrix element.

    Heavy-tailed branch: 2^(1-lambda)/Gamma(lambda) (|k| c)^lambda
    K_lambda(|k| c) with c = sqrt(lambda/a); equals 1 at k = 0 by the small
    argument limit of K.  Gaussian regime: exp(-k^2/(4 a)).
    """
    a = _entry_alpha(params, entry)
    ka = np.abs(np.asarray(k, dtype=float))
    if params.regime is Regime.GAUSSIAN:
        with np.errstate(over="ignore"):  # k^2 = inf: the limit 0
            out = np.exp(-ka * ka / (4.0 * a))
    elif params.regime is not Regime.LEVY_BRANCH:
        raise RegimeError("characteristic function in closed form needs lambda > 0")
    else:
        lam = params.lam
        with np.errstate(over="ignore"):
            z = ka * math.sqrt(lam / a)
        out = np.where(z == math.inf, 0.0, 1.0)  # 1 at k = 0, the limit 0 at |k| = inf
        pos = ~((z <= 0.0) | (z == math.inf))  # NaN goes through kv and stays NaN
        zp = z[pos]
        with np.errstate(over="ignore", divide="ignore"):
            kvz = _sp.kv(lam, zp)
            logf = (
                (1.0 - lam) * math.log(2.0)
                - ln_gamma(lam)
                + lam * np.log(zp)
                + np.log(kvz)
            )
        out[pos] = np.where(np.isposinf(kvz), 1.0, np.exp(logf))  # kv overflow: z so tiny F = 1
    return float(out) if ka.ndim == 0 else out


def element_correlation(params: EnsembleParams, entry: str = "diag") -> float:
    """Covariance-style coupling <h1^2><h2^2> - <h1^2 h2^2> of two elements.

    Exists for lambda > 2 only (the fourth mixed moment needs two inverse
    moments of the Gamma weight).  Negative values mean the squared magnitudes
    are positively correlated; the coupling vanishes as lambda -> inf where
    elements decouple.
    """
    if params.regime is not Regime.LEVY_BRANCH:
        raise RegimeError("element correlation is defined on the heavy-tailed branch")
    lam = params.lam
    if lam <= 2.0:
        raise RegimeError(
            f"element moments diverge for lambda <= 2 (strongly correlated regime), got {lam}"
        )
    a = _entry_alpha(params, entry)
    return (1.0 / (4.0 * a * a)) * lam * lam / ((2.0 - lam) * (1.0 - lam) ** 2)


# ---------------------------------------------------------------------------
# level densities


def semicircle_density(e, n: int, alpha: float):
    """Wigner semicircle (2 alpha/pi) sqrt(n/alpha - E^2), radius sqrt(n/alpha)."""
    if n < 1:
        raise ParameterError(f"matrix dimension must be >= 1, got {n}")
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    ea = np.asarray(e, dtype=float)
    r2 = n / alpha - _scaled_square(1.0, ea)
    # r2 <= 0, not r2 > 0: NaN stays NaN
    out = np.where(r2 <= 0.0, 0.0, (2.0 * alpha / math.pi) * np.sqrt(np.maximum(r2, 0.0)))
    return float(out) if ea.ndim == 0 else out


@lru_cache(maxsize=128)
def _level_density_consts(params: EnsembleParams) -> tuple:
    """(rho(0), log-amplitude prefix, lnG(lam+1/2), lnG(lam), lnG(lam+2)) of level_density."""
    n, lam, a = params.n, params.lam, params.alpha
    g_half, g_lam, g_two = ln_gamma(lam + 0.5), ln_gamma(lam), ln_gamma(lam + 2.0)
    # E = 0 value: the Gamma mixture of semicircle peaks integrates in closed
    # form to (2/pi) sqrt(n alpha/lambda) G(lam+1/2)/G(lam)
    rho0 = (2.0 / math.pi) * math.sqrt(n * a / lam) * math.exp(g_half - g_lam)
    prefix = math.log(n) - 0.5 * math.log(math.pi) + lam * math.log(n * lam / a)
    return rho0, prefix, g_half, g_lam, g_two


def _level_density_amplitudes(e_abs, params: EnsembleParams) -> list:
    """exp(log amplitude) of the Kummer form at each |E| > 0, terms added in one fixed order."""
    _, prefix, g_half, g_lam, g_two = _level_density_consts(params)
    lam = params.lam
    logs = [prefix - (2.0 * lam + 1.0) * math.log(v) + g_half - g_lam - g_two for v in e_abs]
    try:
        return [math.exp(x) for x in logs]
    except OverflowError:
        e = e_abs[logs.index(max(logs))]
        raise NumericalError(
            f"level density amplitude overflows float64 at |E| = {e:g}, n = {params.n}, "
            f"lambda = {lam:g}"
        ) from None


def level_density(e, params: EnsembleParams):
    """Mean eigenvalue density, normalized to n; even in E.

    Heavy-tailed branch only: confluent-hypergeometric closed form with the
    exact plateau value at E = 0.  The Gaussian regime routes to the
    semicircle.  Tail decays as |E|^-(2 lambda + 1).
    """
    if params.regime is Regime.GAUSSIAN:
        return semicircle_density(e, params.n, params.alpha)
    if params.regime is not Regime.LEVY_BRANCH:
        raise RegimeError("level density in closed form needs the heavy-tailed branch")
    n, lam, a = params.n, params.lam, params.alpha
    rho0 = _level_density_consts(params)[0]
    # past t = 1e12 the relative error of the plateau value is
    # (lambda + 1/2)/(2 t) < 3e-11; E = 0 (and E^2 underflowing to 0) is the plateau
    ea = np.asarray(e, dtype=float)
    with np.errstate(divide="ignore"):
        t = n * lam / _scaled_square(a, ea)
    out = np.full(ea.shape, rho0)
    idx = np.flatnonzero(~(t > 1e12))
    if idx.size:
        amp = _level_density_amplitudes(np.abs(ea.ravel()[idx]).tolist(), params)
        out.flat[idx] = np.array(amp) * kummer_m(lam + 0.5, lam + 2.0, -t.ravel()[idx])
    return float(out) if ea.ndim == 0 else out


# t = n lam/(alpha E^2) below which level_density_mixture has no checked value: QAWS's value on
# [0, t] drifts from the closed form by more than 1e-10 of it from t = 5.6e-210 down, for every
# lambda in {1e-300, 1e-6, 0.01, 0.5} and n in {2, 3, 20, 50} (at lambda 3 and 10 the density is
# 0 or subnormal there), and is 18% low at t = 5e-300
_MIXTURE_T_FLOOR = 1e-200


def level_density_mixture(e: float, params: EnsembleParams) -> QuadratureResult:
    """Level density by direct quadrature of the Gamma mixture of semicircles.

    Independent route used as the module's master consistency check against
    :func:`level_density`; also supplies error estimates for curve metadata.
    The integrand carries xi^(lambda - 1/2) at the origin and a square-root
    zero where the semicircle support closes, so the algebraic-weight
    quadrature (QAWS) handles both endpoints exactly.

    NumericalError below t = n lambda/(alpha E^2) = 1e-200, where the
    quadrature drifts from the true value, unless the density rounds to 0
    there: it is at most pref |E| t^(lambda + 1)/(lambda + 1/2), pref the
    weight's constant, since e^-xi <= 1 and sqrt(t - xi) <= sqrt(t).
    """
    if params.regime is not Regime.LEVY_BRANCH:
        raise RegimeError("mixture form needs the heavy-tailed branch")
    n, lam, a = params.n, params.lam, params.alpha
    e = abs(float(e))
    pref = (2.0 * a / (math.pi * lam)) * _inv_gamma(lam)
    d = a * e * e
    t = n * lam / d if d > 0.0 else math.inf  # E = 0, or E^2 underflowing to 0
    point = f"E={e!r}, n={n}"
    if t < _MIXTURE_T_FLOOR:  # t is 0 where E^2 overflows: its log comes from log |E|
        log_t = math.log(n) + math.log(lam) - math.log(a) - 2.0 * math.log(e)
        log_bound = (math.log(2.0 * a / math.pi) - math.log(lam) - ln_gamma(lam) + math.log(e)
                     + (lam + 1.0) * log_t - math.log(lam + 0.5))
        if math.exp(log_bound) > 0.0:
            raise NumericalError(
                f"level_density_mixture has no checked value at {point}, lambda={lam:g}: "
                f"t = n lambda/(alpha E^2) = {n * lam / a / e / e!r} is below {_MIXTURE_T_FLOOR:g}, "
                f"where the quadrature drifts from the density"
            )
    if t <= _xi_max(lam):
        # integrand = pref e^-xi xi^(lam-1/2) |E| sqrt(t - xi) on [0, t]
        f = lambda xi: pref * math.exp(-xi) * e
    else:
        f = lambda xi: pref * math.exp(-xi) * math.sqrt(max(n * lam / a - xi * e * e, 0.0))
    val, err, neval = _gamma_average(f, lam, -0.5, "level_density_mixture", point, kink=t, power=0.5,
                                     tol=(1e-12, 1e-10))
    # QUADPACK can hand back a negative error estimate with no message
    if err < 0.0:
        raise NumericalError(
            f"level_density_mixture has no finite, checked value at {point}, lambda={lam:g}: "
            f"QUADPACK returned {val!r} with error estimate {err!r}"
        )
    return QuadratureResult(val, err, neval)


# ---------------------------------------------------------------------------
# GOE reference laws and gap probability


def goe_counting(x, n: int):
    """Integrated GOE level count y(x) = 2 Int_0^x rho_GOE(t) dt, alpha = 1/2 units.

    Closed-form semicircle antiderivative; saturates at n once x reaches the
    band edge sqrt(2 n).
    """
    if n < 1:
        raise ParameterError(f"matrix dimension must be >= 1, got {n}")
    edge = math.sqrt(2.0 * n)
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise ParameterError("goe_counting is defined for x >= 0")
    xc = np.minimum(xa, edge)
    out = (xc * np.sqrt(np.maximum(2.0 * n - xc * xc, 0.0)) + 2.0 * n * np.arcsin(xc / edge)) / math.pi
    # exactly n past the edge: edge^2 can round below 2 n, and the formula then exceeds n by ~3e-8
    out = np.where(edge <= xa, float(n), out)
    return float(out) if xa.ndim == 0 else out


_HALF_SQRT_PI = math.sqrt(math.pi) / 2.0


def goe_gap(y):
    """Surmise-level GOE gap probability E_GOE(y) = erfc(y sqrt(pi)/2) at a level count y >= 0."""
    ya = np.asarray(y, dtype=float)
    if (ya < 0.0).any():  # the method costs less than np.any, and goe_gap(n) runs once a Gamma average
        raise ParameterError("goe_gap is defined for y >= 0")
    out = _sp.erfc(ya * _HALF_SQRT_PI)
    return out if isinstance(out, np.ndarray) else float(out)


def wigner_surmise(s):
    """Nearest-neighbor spacing density (pi s/2) exp(-pi s^2/4), unit mean; 0 below s = 0."""
    sa = np.asarray(s, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = (math.pi * sa / 2.0) * np.exp(-math.pi * sa * sa / 4.0)
    # past s ~ 1e154 the exponential is 0, so the density is its limit 0, but pi s/2 can be inf there
    out = np.where((np.isnan(out) & ~np.isnan(sa)) | (sa < 0.0), 0.0, out)
    return float(out) if sa.ndim == 0 else out


def wigner_surmise_cdf(s):
    """CDF of the surmise: 1 - exp(-pi s^2/4), and 0 below s = 0."""
    sa = np.asarray(s, dtype=float)
    with np.errstate(over="ignore"):  # s^2 = inf: the limit 1
        out = np.where(sa < 0.0, 0.0, -np.expm1(-math.pi * sa * sa / 4.0))
    return float(out) if sa.ndim == 0 else out


# scipy's quad hands back QUADPACK's message in place of ier when a call
# fails; the message's opening words identify ier
_QUADPACK_IER = (
    ("maximum number of subdivisions", 1),
    ("roundoff error is detected, which", 2),
    ("Extremely bad integrand behavior", 3),
    ("does not converge", 4),
    ("probably divergent", 5),
    ("Abnormal termination", 7),
)


# (epsabs, epsrel) of the Gamma averages of GOE laws
_GOE_TOL = (1e-11, 1e-9)


def _inv_gamma(lam: float) -> float:
    """1/Gamma(lam), the constant of every Gamma average's weight: each kernel takes it from here."""
    return math.exp(-ln_gamma(lam))


def _gamma_average(kernel, lam: float, shift: float, site: str, point: str, *, kink: float = math.inf,
                   power: float = 0.0, beyond: float = 0.0, tol: tuple = _GOE_TOL, trees: list | None = None):
    """(value, err, neval) of the Gamma average Int_0^inf xi^(lam + shift) kernel(xi) dxi, by QAWS.

    The one QUADPACK call in this module.  `kernel` carries e^-xi and the law's constants.  The law
    is kernel(xi) (kink - xi)^power below `kink` (inf: no kink) and the constant `beyond` past it,
    so QAWS covers [0, min(kink, _xi_max(lam))], without the power when the truncation comes
    first, and the tail adds beyond Q(lam, kink), Q the regularized upper incomplete gamma; a
    dropped strip [_xi_max, kink) adds its bound beyond Q(lam, _xi_max) ~ 1e-20 to err.

    NumericalError when the float lam + shift drops lam's digits (the weight's mass near 0 is
    xi^(lam + shift + 1)/(lam + shift + 1); at shift -1, below lam ~ 1e-7, that moves the average
    past the tolerance) and when the value or error estimate is not finite.  A call that does not
    converge keeps its value and emits one IntegrationWarning naming `site`, `point`, lambda and
    QUADPACK's ier, at the first frame outside this module: the caller of the public function.
    A call given `trees` that converges appends its final subdivision there, as (hi, alfa != 0,
    alist, blist): the interval, whether QAWS's left-end rule applies (see _qaws_nodes), and the
    ends of its `last` subintervals, where scipy documents them for weight="alg".  Roundoff's
    subdivisions seldom recur: on the bulk grid linspace(0, 10, 201) at lambda = 10, the 24 that
    do not converge would place 918 of 1330 nodes, each visited about 10 times, against 146.
    """
    exponent = lam + shift
    if abs(exponent - shift - lam) > 1e-9 * (lam + (shift + 1.0)):
        raise NumericalError(f"{site}: lambda={lam!r} is too small for float64: the Gamma weight's "
                             f"exponent lambda - {-shift:g} rounds to {exponent!r}")
    xi_max = _xi_max(lam)
    hi = min(kink, xi_max)
    res = integrate.quad(
        kernel,
        0.0,
        hi,
        weight="alg",
        wvar=(exponent, power if kink <= xi_max else 0.0),
        epsabs=tol[0],
        epsrel=tol[1],
        full_output=True,
        limit=200,
    )
    if not (math.isfinite(res[0]) and math.isfinite(res[1])):
        raise NumericalError(f"{site} has no finite value at {point}, lambda={lam!r}: {res[0]!r} "
                             f"with error estimate {res[1]!r}")
    if len(res) > 3:
        msg = str(res[3])
        ier = next((code for words, code in _QUADPACK_IER if words in msg), "?")
        frame, stacklevel = sys._getframe(1), 2  # 2: this function's caller
        while frame.f_globals is globals():
            frame, stacklevel = frame.f_back, stacklevel + 1
        warnings.warn(
            f"{site}: QUADPACK ier={ier} at {point}, lambda={lam!r}: {msg.splitlines()[0].strip()}",
            integrate.IntegrationWarning,
            stacklevel=stacklevel,
        )
    elif trees is not None:
        last = res[2]["last"]
        trees.append((hi, exponent != 0.0, res[2]["alist"][:last], res[2]["blist"][:last]))
    val, err = res[0], res[1]
    if beyond:
        val += beyond * float(_sp.gammaincc(lam, kink))
        if kink > hi:
            err += beyond * float(_sp.gammaincc(lam, hi))
    return val, err, int(res[2]["neval"])


class _NodeTable(dict):
    """A Gamma average's kernel as a table of its values at QUADPACK's nodes.

    QUADPACK calls the bound __getitem__, so a node in the table costs one C-level lookup.  The
    `__missing__` slot holds the law's scalar kernel, which dict calls at any other node.
    `tables(cache, law, count)` makes a point's `count` tables, each holding its kernel at every
    node of a _NodeCache, from law(cache.w, cache.r): the kernel vectorised in the scalar kernel's
    operation order, so with its bits: the cache decides only which values are computed ahead.
    The kernel never refers to its own table, so a spent table is freed with its last reference,
    not left to the cyclic collector; it stores no value there, so a node visited twice in one
    average is evaluated twice.
    """

    __slots__ = ("__missing__",)

    @classmethod
    def tables(cls, cache: "_NodeCache | None", law, count: int) -> list:
        if cache is None or not cache.xis:
            return [cls() for _ in range(count)]
        tables = []
        for v in law(cache.w, cache.r):  # from a copy of cache.keys, presized: update only sets values
            tables.append(cls(cache.keys or ()))
            tables[-1].update(zip(cache.xis, v.tolist()))
            cache.keys = cache.keys or dict(tables[-1])
        return tables


class _NodeCache:
    """A grid's QUADPACK nodes on [0, hi], with the numbers its tables start from.

    `extend(trees)` places the nodes QAWS visits on [0, hi] if it bisects as in `trees` (see
    _placed), subdivisions in _gamma_average's form, or costs a set test for one seen before (most
    of a bulk grid's points repeat the last one's).  `add(x)` takes nodes placed elsewhere.  Each
    node keeps w = scale e^-xi, by math.exp since np.exp rounds differently, and r = root(xi).
    """

    __slots__ = ("hi", "scale", "root", "ends", "seen", "xis", "w", "r", "keys")

    def __init__(self, hi: float, scale: float, root, x: np.ndarray | None = None) -> None:
        self.hi, self.scale, self.root = hi, scale, root
        self.ends, self.seen, self.xis, self.w, self.r = {1: (0.0, hi)}, set(), [], np.empty(0), np.empty(0)
        self.add(np.empty(0) if x is None else x)

    def extend(self, trees: list) -> None:
        for tree in trees:
            if (ends := tree[2].tobytes() + tree[3].tobytes()) not in self.seen:
                self.seen.add(ends)
                self.add(_placed([tree], self.ends))

    def add(self, x: np.ndarray) -> None:
        w, r = self.scale * np.fromiter(map(math.exp, (-x).tolist()), float, x.size), self.root(x)
        self.xis += x.tolist()
        self.keys = None  # tables copy their keys from here: rebuilt at the next table
        self.w, self.r = np.concatenate([self.w, w]), np.concatenate([self.r, r])


# QAWS's two rules as node offsets from an interval's centre, in units of its half-length: the
# 15-point Kronrod rule of dqk15w (its xgk) and the 25-point Clenshaw-Curtis rule of dqc25s, cos(k
# pi/24) for k = 0..24.  The cosines are correctly rounded, as scipy's QUADPACK holds them: the
# Fortran DATA literals differ in the last bit at k = 3, 6, 7 and 10.  centr + hlgth (-x) is
# centr - hlgth x bit for bit, so one product and one sum place a node as QUADPACK does
_XGK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993944,
        0.5860872354676911, 0.4058451513773972, 0.2077849550078985)
_COS24 = (0.9914448613738104, 0.9659258262890683, 0.9238795325112867, 0.8660254037844386,
          0.7933533402912352, 0.7071067811865476, 0.6087614290087207, 0.5,
          0.3826834323650898, 0.25881904510252074, 0.1305261922200516)
_K15 = np.array([-x for x in _XGK] + [0.0] + [x for x in reversed(_XGK)])
_CC25 = np.array([1.0, *_COS24, 0.0] + [-x for x in reversed(_COS24)] + [-1.0])
# _placed's rows, NaN-padded: the two rules, and each without the nodes a chain interval shares
# with its parent: Kronrod without its centre, Clenshaw-Curtis without its ends and centre
_RULES = np.array([np.pad(rule, (0, 25 - rule.size), constant_values=np.nan) for rule in (
    _K15, np.delete(_K15, 7), _CC25, np.delete(_CC25, [0, 12, 24]))])


def _placed(trees, ends: dict) -> np.ndarray:
    """The nodes QAWS visits if it bisects as in `trees`, on the intervals `ends` lacks, each node once.

    Each tree is a subdivision that _gamma_average kept, (hi, alfa != 0, alist, blist).  Its
    subintervals [l, r] are the leaves of QUADPACK's bisection tree, labelled by heap key
    2^depth + index (Python ints), depth = round(log2(hi/(r - l))), index = round(l/hi 2^depth).
    `ends` maps the keys placed so far to their ends on one [0, hi'], from {1: (0.0, hi')}, and
    takes the leaves and ancestors it lacks, rebuilt by QUADPACK's bisection m = 0.5 (l + r).  Each
    gets its rule's nodes centr + hlgth x, hlgth = 0.5 (r - l), centr = 0.5 (r + l): the 25-point
    Clenshaw-Curtis rule on an interval from 0 when alfa != 0, the 15-point Kronrod rule on every
    other one (power 0 at hi' keeps the right end on Kronrod).  A Clenshaw-Curtis [0, r] shares
    its nodes 0, r/2 and r with its parent [0, 2 r], and the centre of their Kronrod [r, 2 r] is
    one of the parent's: those are left out.  Replayed on its own interval, an average's
    subdivision places exactly the nodes it visited; a wrong prediction costs only time, a scalar
    kernel call.  A leaf narrower than 1000 bisections, such as one that roundoff left without
    width, has no depth to replay.
    """
    lo, up = (np.concatenate([tree[k] for tree in trees]) for k in (2, 3))
    old = np.concatenate([np.full(tree[2].size, tree[0]) for tree in trees])
    width = up - lo
    wide = width > old * 2.0 ** -1000
    if not wide.all():
        lo, old, width = lo[wide], old[wide], width[wide]
    depth = np.rint(np.log2(old / width)).astype(int)
    keys = set()
    for d, i in zip(depth.tolist(), np.rint(np.ldexp(lo / old, depth)).tolist()):
        key = (1 << d) + int(i)
        while key not in ends and key not in keys:  # up to the first ancestor placed
            keys.add(key)
            key >>= 1
    cc_left, flat, rules = trees[0][1], [], []
    for key in sorted(keys):  # a parent's key is below its children's
        l, r = ends[key >> 1]
        m = 0.5 * (l + r)
        ends[key] = lr = (m, r) if key & 1 else (l, m)
        flat += lr
        half = key >> 1  # a power of 2 on the chain: [0, r] (key 2^d, even) or [r, 2 r] (2^d + 1)
        chain = cc_left and half & (half - 1) == 0
        rules.append(2 * (chain and not key & 1) + (chain and key > 3))
    l, r = np.array(flat, dtype=float).reshape(-1, 2).T
    x = (0.5 * (r + l))[:, None] + (0.5 * (r - l))[:, None] * _RULES[rules]
    return x[~np.isnan(x)]


def _qaws_nodes(trees, hi: float) -> np.ndarray:
    """The nodes QAWS visits on [0, hi], power 0 at hi, if it bisects as it did in any of `trees` (see _placed)."""
    return _placed(trees, {1: (0.0, hi)})


def _goe_integrands(theta: float, params: EnsembleParams, cache: _NodeCache | None = None) -> tuple:
    """(E, s) integrands: xi -> e^-xi/Gamma(lam) * goe_gap(y), and * y, y = goe_counting(sqrt(2 alpha xi/lam) theta, n).

    Each is the bound lookup of a _NodeTable, valid at any xi.  Both tables start out holding the
    law at the nodes of `cache`, if any, from one law call.  The E kernel also stores w y in the s
    table, so gap_curve's s quadrature, run after its E quadrature, reads the nodes they share.
    goe_counting's and goe_gap's float arithmetic inline, in the same order and so with the same
    bits, whichever integrand computes y: y is n from the band edge on, max is written as the
    comparison the builtin makes, which costs less than the call, and numpy's arcsin stays, since
    math.asin rounds differently.  erfc is scipy's compiled double routine (`_erfc_double`): the
    one the ufunc goes through, so the same bits, where math.erfc rounds differently.
    """
    n, lam, two_a, hsp = float(params.n), params.lam, 2.0 * params.alpha, _HALF_SQRT_PI
    scale, two_n, edge = _inv_gamma(lam) if cache is None else cache.scale, 2.0 * n, math.sqrt(2.0 * n)
    sqrt, exp, asin, erfc, pi = math.sqrt, math.exp, np.arcsin, _erfc_double(), math.pi

    def law(w, r):
        xc = r * theta
        v = two_n - xc * xc
        with np.errstate(invalid="ignore"):  # arcsin past the band edge, where y is n
            y = np.where(edge <= xc, n, (xc * np.sqrt(np.where(0.0 > v, 0.0, v)) + two_n * asin(xc / edge)) / pi)
        return w * _sp.erfc(y * hsp), w * y

    e_table, s_table = _NodeTable.tables(cache, law, 2)

    def e_kernel(xi: float) -> float:
        xc = sqrt(two_a * xi / lam) * theta
        if edge <= xc:
            y = n
        else:
            v = two_n - xc * xc
            y = (xc * sqrt(0.0 if 0.0 > v else v) + two_n * float(asin(xc / edge))) / pi
        w = scale * exp(-xi)
        s_table[xi] = w * y
        return w * erfc(y * hsp)

    def s_kernel(xi: float) -> float:
        xc = sqrt(two_a * xi / lam) * theta
        if edge <= xc:
            y = n
        else:
            v = two_n - xc * xc
            y = (xc * sqrt(0.0 if 0.0 > v else v) + two_n * float(asin(xc / edge))) / pi
        return scale * exp(-xi) * y

    e_table.__missing__, s_table.__missing__ = e_kernel, s_kernel
    return e_table.__getitem__, s_table.__getitem__


def _gamma_weighted_goe(thetas, params: EnsembleParams, site: str, counts: tuple) -> list:
    """Per theta >= 0 of `thetas`, [(value, err)] of the Gamma average of the count y (count True) or of goe_gap(y).

    One (value, err) per entry of `counts`, in that order, from one pair of integrands, so
    gap_curve's s quadrature reads the nodes its E quadrature evaluated.  The evaluator of
    gap_probability, mean_count and gap_curve.  Past xi_sat = n lam/(alpha theta^2), infinite
    when theta^2 underflows, y = n: the law is the constant n or goe_gap(n) there.  1/Gamma(lam),
    goe_gap(n) and xi_max are computed once.  The thetas with xi_sat >= xi_max average over
    [0, xi_max], from one _NodeCache that their converged averages extend.  Each other theta
    averages over its own [0, xi_sat], from the nodes QAWS visits there if it bisects as in the
    previous theta's converged averages (_qaws_nodes); a single theta keeps no subdivision.
    """
    if params.regime is not Regime.LEVY_BRANCH:
        raise RegimeError(f"{site.replace('_', ' ')} needs the heavy-tailed branch")
    n, lam, a = params.n, params.lam, params.alpha
    # r = sqrt(2 alpha xi/lambda) as the kernels compute it
    cache, last, out = _NodeCache(_xi_max(lam), _inv_gamma(lam), lambda x: np.sqrt(2.0 * a * x / lam)), [], []
    tails = [float(n) if count else goe_gap(float(n)) for count in counts]
    for theta in thetas:
        if not theta >= 0:
            raise ParameterError(f"theta must be nonnegative, got {theta}")
        if theta == 0.0:
            out.append([((0.0 if count else 1.0), 0.0) for count in counts])
            continue
        theta = float(theta)
        d = a * theta * theta
        xi_sat = n * lam / d if d > 0.0 else math.inf
        shared, trees = xi_sat >= cache.hi, ([] if len(thetas) > 1 else None)
        # QAWS visits no node of [0, 0], where theta^2 overflows
        x = _qaws_nodes(last, xi_sat) if last and not shared and xi_sat > 0.0 else np.empty(0)
        integrands = _goe_integrands(theta, params, cache if shared else _NodeCache(xi_sat, cache.scale, cache.root, x))
        point = f"theta={theta!r}, n={n}"
        out.append([_gamma_average(integrands[count], lam, -1.0, site, point, kink=xi_sat, beyond=tail,
                                   trees=trees)[:2] for count, tail in zip(counts, tails)])
        if trees:
            last = trees
            if shared:
                cache.extend(trees)
    return out


def _goe_law(theta, params: EnsembleParams, site: str, count: bool):
    """The Gamma average of the count y (count True) or of goe_gap(y), capped at 1, at a scalar theta, as a float.

    At a 1-D grid of thetas, an array: one _gamma_weighted_goe grid, whose node tables give
    each value the bits of its own scalar call.
    """
    scalar = np.ndim(theta) == 0
    rows = _gamma_weighted_goe((theta,) if scalar else _grid(theta, "theta grid"), params, site, (count,))
    values = [value if count else min(value, 1.0) for ((value, _),) in rows]
    return values[0] if scalar else np.array(values)


def gap_probability(theta, params: EnsembleParams):
    """Probability that (-theta, theta) holds no eigenvalue; an array at a 1-D grid of thetas.

    Gamma-weighted average of the surmise-level GOE gap law evaluated at the
    rescaled counting function; equals 1 at theta = 0 and decays like
    1/(2 s^2) in scaled units when lambda = 1.
    """
    return _goe_law(theta, params, "gap_probability", False)


def mean_count(theta, params: EnsembleParams):
    """Expected number of eigenvalues in (-theta, theta): s(theta) = 2 Int_0^theta rho; an array at a 1-D grid.

    Evaluated as a single Gamma-weighted quadrature of the counting function
    (the integral of the mixture commutes with the energy integral); this is
    the scaled abscissa of the parametric gap curve.
    """
    return _goe_law(theta, params, "mean_count", True)


def gap_probability_bulk(s, lam: float = 1.0):
    """Scaling-limit gap probability at mean count s (n -> inf, s fixed).

    The counting function enters only through its linear bulk slope, so the
    Gamma average collapses to a one-dimensional integral in s alone; at
    lambda = 1 it evaluates in closed form to 1 - s/sqrt(1 + s^2), which
    carries the 1/(2 s^2) tail.  The finite-n curve follows this law until
    the gap window swallows an O(1) fraction of the spectrum.

    The average equals I_x(lambda, 1/2), the regularized incomplete beta
    function at x = 1/(1 + b^2), b = s (sqrt(pi)/2)/poch(lambda, 1/2).
    That identity is the value above lambda = 10, where QAWS loses the
    weight xi^(lambda - 1) to roundoff, and past s = 10 at every lambda,
    where the average's mass lies within xi ~ 1/s^2 of 0 and QAWS's
    estimate on [0, xi_max] misses it: at lambda = 2 it returned a
    negative value at s = 50.  poch keeps the Gamma ratio to float64
    precision where a difference of ln Gamma values would not.
    Up to lambda = 10 and s = 10 every s averages over [0, xi_max(lambda)],
    so an array's points share one _NodeCache, which each converged average
    extends: each s's table starts out holding the kernel at every node
    placed so far, with the bits of a call at that s alone.
    """
    if not 0 < lam < math.inf:
        raise RegimeError(f"bulk gap law needs finite lambda > 0, got {lam}")
    sa = np.asarray(s, dtype=float)
    if not np.all((sa >= 0) & (sa < math.inf)):
        raise ParameterError("mean count s must be finite and nonnegative")
    out = np.empty(sa.shape)
    far = (sa > 10.0) | (lam > 10.0)
    b = sa[far] * (_HALF_SQRT_PI / float(_sp.poch(lam, 0.5)))
    with np.errstate(over="ignore"):  # b^2 = inf is x = 0, E = 0
        out[far] = _sp.betainc(lam, 0.5, 1.0 / (1.0 + b * b))
    near = sa[~far]
    if lam == 1.0:
        out[~far] = 1.0 - near / np.sqrt(1.0 + near * near)
    elif near.size:
        # y averages to s, so y_xi = s sqrt(xi) Gamma(lam)/Gamma(lam + 1/2)
        slope = math.exp(ln_gamma(lam) - ln_gamma(lam + 0.5))
        cache, trees = _NodeCache(_xi_max(lam), _inv_gamma(lam), np.sqrt), ([] if near.size > 1 else None)
        scale, hsp, sqrt, exp, erfc = cache.scale, _HALF_SQRT_PI, math.sqrt, math.exp, _erfc_double()

        def one(sv: float) -> float:
            if sv == 0.0:
                return 1.0

            # goe_gap(sv sqrt(xi) slope) inline, in goe_gap's operation order, through the
            # compiled erfc that goe_gap's ufunc calls
            def kernel(xi: float) -> float:
                return scale * exp(-xi) * erfc(sv * sqrt(xi) * slope * hsp)

            (table,) = _NodeTable.tables(cache, lambda w, r: (w * _sp.erfc(sv * r * slope * hsp),), 1)
            table.__missing__ = kernel
            value = _gamma_average(table.__getitem__, lam, -1.0, "gap_probability_bulk", f"s={sv!r}",
                                   trees=trees)[0]
            if trees:
                cache.extend(trees)
                trees.clear()
            return min(value, 1.0)

        out[~far] = [one(sv) for sv in near.tolist()]
    return float(out) if sa.ndim == 0 else out


def gap_curve(params: EnsembleParams, theta_grid) -> AnalyticCurve:
    """Parametric (s, E) gap curve over a theta grid.

    Each theta runs its E average, then its s average, on one pair of
    _NodeTable tables, filled ahead from the subdivisions of the earlier
    thetas' converged averages (see _gamma_weighted_goe).  The values have
    the bits of mean_count and gap_probability at each theta.
    """
    if params.regime is not Regime.LEVY_BRANCH:
        raise RegimeError("gap curve needs the heavy-tailed branch")
    thetas = _grid(theta_grid, "theta grid")
    if not (np.all(thetas >= 0) and np.all(np.diff(thetas) > 0)):
        raise ParameterError("theta grid must be nonnegative and strictly increasing")
    rows = _gamma_weighted_goe(thetas, params, "gap_curve", (False, True))
    s, e = np.array([sv for _, (sv, _) in rows]), np.array([min(ev, 1.0) for (ev, _), _ in rows])
    worst = max([0.0] + [err for row in rows for _, err in row])
    return AnalyticCurve(abscissae=s, values=e, kind="gap_probability", params=params, quadrature_error=worst)


# largest mixture-vs-closed-form distance density_curve accepts, relative to the curve's peak
_DENSITY_CROSS_CHECK_RTOL = 1e-8


def density_curve(params: EnsembleParams, e_grid) -> AnalyticCurve:
    """Level-density curve; error metadata from the mixture-route cross-check.

    A cross-check distance above 1e-8 of the curve's largest value is a
    NumericalError: the two routes disagree, so neither value is checked.
    """
    grid = _grid(e_grid, "E grid")
    vals = np.asarray(level_density(grid, params), dtype=float)
    worst = 0.0
    if params.regime is Regime.LEVY_BRANCH:
        step = max(1, len(grid) // 8)
        # level_density is even in E, bit for bit, so vals holds the |E| values too
        for e, v in zip(grid[::step], vals[::step]):
            q = level_density_mixture(float(e), params)
            worst = max(worst, abs(q.value - float(v)))
        peak = float(np.max(vals, initial=0.0))
        if worst > _DENSITY_CROSS_CHECK_RTOL * peak:
            raise NumericalError(
                f"density_curve: the mixture cross-check is off by {worst!r}, above "
                f"{_DENSITY_CROSS_CHECK_RTOL:g} of the peak {peak!r}, at n={params.n}, lambda={params.lam:g}"
            )
    return AnalyticCurve(abscissae=grid, values=vals, kind="level_density", params=params, quadrature_error=worst)


def element_curve(params: EnsembleParams, x_grid, entry: str = "diag") -> AnalyticCurve:
    """Element-density curve (closed form, no quadrature error)."""
    grid = _grid(x_grid, "x grid")
    vals = np.asarray(element_pdf(grid, params, entry), dtype=float)
    return AnalyticCurve(abscissae=grid, values=vals, kind="element_pdf", params=params, quadrature_error=0.0)


# ---------------------------------------------------------------------------
# joint eigenvalue density (small N)


def _mehta_integral(n: int) -> float:
    """Int over R^n of exp(-|x|^2/2) prod_{i<j} |x_i - x_j| dx, in closed form.

    Mehta's integral (a limit of Selberg's): (2 pi)^(n/2) prod_{j=1..n}
    Gamma(1 + j/2) / Gamma(3/2).
    """
    out = (2.0 * math.pi) ** (n / 2.0)
    for j in range(1, n + 1):
        out *= math.gamma(1.0 + j / 2.0) / math.gamma(1.5)
    return out


@lru_cache(maxsize=128)
def _joint_log_const(params: EnsembleParams) -> float:
    """log of the joint density's constant factor; a function of params alone.

    The joint density is the matrix density at diag(E) times |Vandermonde(E)|
    times the eigenvector volume, which does not depend on the regime.  The
    GOE at alpha = 1/2 fixes that volume: its matrix density normalises with
    (2 pi)^(f/2), and its eigenvalue density with Mehta's integral.
    """
    log_goe = 0.5 * params.f * math.log(2.0 * math.pi) - math.log(_mehta_integral(params.n))
    return log_goe - log_partition(params)


def joint_eigen_density(evals, params: EnsembleParams) -> float:
    """Joint density of the n eigenvalues (n <= 4), symmetric in its arguments.

    The matrix density at diag(E) times |Vandermonde(E)| times the volume
    factor fixed in _joint_log_const; the n = 2 two-dimensional integral of
    this density is one of the acceptance checks.
    """
    e = sorted(map(float, evals))
    n = params.n
    if len(e) != n:
        raise ParameterError(f"expected {n} eigenvalues, got {len(e)}")
    if n > 4:
        raise ParameterError("joint eigenvalue density is implemented for n <= 4")
    vander = 1.0
    ssq = 0.0
    for i in range(n):
        # left to right from 0.0: the order in which np.sum adds n <= 4 terms
        ssq += e[i] * e[i]
        for j in range(i + 1, n):
            vander *= abs(e[j] - e[i])
    log_w = _joint_log_const(params) + _log_weight(params, ssq, e)
    if math.isfinite(vander):
        return math.exp(log_w) * vander
    # |Vandermonde(E)| overflowed, where the weight may have underflowed: take
    # the product in log space.  The weight is 0 at an infinite eigenvalue, and
    # at a tie the product is 0
    gaps = [abs(e[j] - e[i]) for i in range(n) for j in range(i + 1, n)]
    if log_w == -math.inf or 0.0 in gaps:
        return 0.0
    return math.exp(log_w + math.fsum(map(math.log, gaps)))
