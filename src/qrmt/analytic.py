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
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import EnsembleParams, NumericalError, ParameterError, Regime, RegimeError
from .specfun import QuadratureResult, _Deferred, _sp, bessel_k, kummer_m, ln_gamma

integrate = _Deferred("scipy.integrate")

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


def _log_weight(params: EnsembleParams, t: float) -> float:
    """log of the unnormalised matrix density at tr H^2 = t; -inf outside the restricted-trace ball."""
    if params.regime is Regime.GAUSSIAN:
        return -params.alpha * t
    u = (params.alpha / params.lam) * t
    if 1.0 + u <= 0.0:
        return -math.inf
    # exponent 1/(1-q) equals -(lambda + f/2) on both branches
    return -(params.lam + params.f / 2.0) * math.log1p(u)


def matrix_pdf(h: np.ndarray, params: EnsembleParams) -> float:
    """Matrix density at h; depends on h only through tr h^2 (rotation invariant)."""
    h = np.asarray(h, dtype=float)
    return math.exp(_log_weight(params, float(np.sum(h * h))) - log_partition(params))


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
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(u < 1.0, np.exp(logc + (al - 0.5) * np.log1p(-np.minimum(u, 1.0))), 0.0)
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
        out = np.exp(-ka * ka / (4.0 * a))
    elif params.regime is not Regime.LEVY_BRANCH:
        raise RegimeError("characteristic function in closed form needs lambda > 0")
    else:
        lam = params.lam
        z = ka * math.sqrt(lam / a)
        out = np.ones_like(z)
        pos = z > 0.0
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
    out = np.where(r2 > 0.0, (2.0 * alpha / math.pi) * np.sqrt(np.maximum(r2, 0.0)), 0.0)
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


def level_density_mixture(e: float, params: EnsembleParams) -> QuadratureResult:
    """Level density by direct quadrature of the Gamma mixture of semicircles.

    Independent route used as the module's master consistency check against
    :func:`level_density`; also supplies error estimates for curve metadata.
    The integrand carries xi^(lambda - 1/2) at the origin and a square-root
    zero where the semicircle support closes, so the algebraic-weight
    quadrature (QAWS) handles both endpoints exactly.
    """
    if params.regime is not Regime.LEVY_BRANCH:
        raise RegimeError("mixture form needs the heavy-tailed branch")
    n, lam, a = params.n, params.lam, params.alpha
    e = abs(float(e))
    pref = (2.0 * a / (math.pi * lam)) * math.exp(-ln_gamma(lam))
    d = a * e * e
    t = n * lam / d if d > 0.0 else math.inf  # E = 0, or E^2 underflowing to 0
    if t <= _xi_max(lam):
        # integrand = pref e^-xi xi^(lam-1/2) |E| sqrt(t - xi) on [0, t]
        f = lambda xi: pref * math.exp(-xi) * e
    else:
        f = lambda xi: pref * math.exp(-xi) * math.sqrt(max(n * lam / a - xi * e * e, 0.0))
    point = f"E={e!r}, n={n}"
    val, err, neval = _gamma_average(f, lam, -0.5, "level_density_mixture", point, stacklevel=3,
                                     kink=t, power=0.5, tol=(1e-12, 1e-10))
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
    return out if isinstance(out, np.ndarray) else float(out)


_HALF_SQRT_PI = math.sqrt(math.pi) / 2.0


def goe_gap(y):
    """Surmise-level GOE gap probability E_GOE(y) = erfc(y sqrt(pi)/2)."""
    out = _sp.erfc(np.asarray(y, dtype=float) * _HALF_SQRT_PI)
    return out if isinstance(out, np.ndarray) else float(out)


def wigner_surmise(s):
    """Nearest-neighbor spacing density (pi s/2) exp(-pi s^2/4), unit mean."""
    sa = np.asarray(s, dtype=float)
    out = (math.pi * sa / 2.0) * np.exp(-math.pi * sa * sa / 4.0)
    return float(out) if sa.ndim == 0 else out


def wigner_surmise_cdf(s):
    """CDF of the surmise: 1 - exp(-pi s^2/4)."""
    sa = np.asarray(s, dtype=float)
    out = -np.expm1(-math.pi * sa * sa / 4.0)
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


def _gamma_average(kernel, lam: float, shift: float, site: str, point: str, stacklevel: int, *,
                   kink: float = math.inf, power: float = 0.0, beyond: float = 0.0, tol: tuple = _GOE_TOL):
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
    QUADPACK's ier, at `stacklevel`: the caller of the public function.
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
        warnings.warn(
            f"{site}: QUADPACK ier={ier} at {point}, lambda={lam!r}: {msg.splitlines()[0].strip()}",
            integrate.IntegrationWarning,
            stacklevel=stacklevel,
        )
    val, err = res[0], res[1]
    if beyond:
        val += beyond * float(_sp.gammaincc(lam, kink))
        if kink > hi:
            err += beyond * float(_sp.gammaincc(lam, hi))
    return val, err, int(res[2]["neval"])


def _goe_integrands(theta: float, params: EnsembleParams) -> tuple:
    """(E, s) integrands: xi -> e^-xi/Gamma(lam) * goe_gap(y), and * y, y = goe_counting(sqrt(2 alpha xi/lam) theta, n).

    The E integrand records (scale e^-xi, y) at each node it evaluates, and the s integrand reads
    a recorded node instead of evaluating y again: at one theta, QAWS visits mostly the same nodes
    for both laws, so gap_curve runs E first.  goe_counting's and goe_gap's float arithmetic
    inline, in the same order and so with the same bits, whichever integrand computes y; min and
    max are written as the comparisons the builtins make, which cost less than the calls, and
    numpy's arcsin and scipy's erfc stay, since math.asin and math.erfc round differently.
    """
    n, lam, two_a, hsp = params.n, params.lam, 2.0 * params.alpha, _HALF_SQRT_PI
    scale, two_n, edge = math.exp(-ln_gamma(lam)), 2.0 * n, math.sqrt(2.0 * n)
    sqrt, exp, asin, erfc, pi = math.sqrt, math.exp, np.arcsin, _sp.erfc, math.pi
    record = {}
    recorded = record.get

    def e_integrand(xi: float) -> float:
        xc = sqrt(two_a * xi / lam) * theta
        xc = edge if edge < xc else xc
        v = two_n - xc * xc
        y = (xc * sqrt(0.0 if 0.0 > v else v) + two_n * float(asin(xc / edge))) / pi
        w = scale * exp(-xi)
        record[xi] = (w, y)
        return w * float(erfc(y * hsp))

    def s_integrand(xi: float) -> float:
        wy = recorded(xi)
        if wy is not None:
            return wy[0] * wy[1]
        xc = sqrt(two_a * xi / lam) * theta
        xc = edge if edge < xc else xc
        v = two_n - xc * xc
        y = (xc * sqrt(0.0 if 0.0 > v else v) + two_n * float(asin(xc / edge))) / pi
        return scale * exp(-xi) * y

    return e_integrand, s_integrand


def _gamma_weighted_goe(theta: float, params: EnsembleParams, site: str, counts: tuple) -> list:
    """[(value, err)] of the Gamma average of the count y (count True) or of goe_gap(y), at theta >= 0.

    One (value, err) per entry of `counts`, in that order, from one pair of integrands, so
    gap_curve's s quadrature reads the nodes its E quadrature evaluated.  The point evaluator of
    gap_probability, mean_count and gap_curve.  Past xi_sat = n lam/(alpha theta^2), infinite
    when theta^2 underflows, y = n: the law is the constant n or goe_gap(n) there.
    """
    if params.regime is not Regime.LEVY_BRANCH:
        raise RegimeError(f"{site.replace('_', ' ')} needs the heavy-tailed branch")
    if not theta >= 0:
        raise ParameterError(f"theta must be nonnegative, got {theta}")
    if theta == 0.0:
        return [((0.0 if count else 1.0), 0.0) for count in counts]
    n, lam, a = params.n, params.lam, params.alpha
    theta = float(theta)
    d = a * theta * theta
    xi_sat = n * lam / d if d > 0.0 else math.inf
    integrands = _goe_integrands(theta, params)
    point = f"theta={theta!r}, n={n}"
    out = []  # a loop, not a comprehension: stacklevel counts a comprehension's frame on Python 3.11
    for count in counts:
        out.append(_gamma_average(integrands[count], lam, -1.0, site, point, stacklevel=4, kink=xi_sat,
                                  beyond=float(n) if count else goe_gap(float(n)))[:2])
    return out


def gap_probability(theta: float, params: EnsembleParams) -> float:
    """Probability that (-theta, theta) holds no eigenvalue.

    Gamma-weighted average of the surmise-level GOE gap law evaluated at the
    rescaled counting function; equals 1 at theta = 0 and decays like
    1/(2 s^2) in scaled units when lambda = 1.
    """
    return min(_gamma_weighted_goe(theta, params, "gap_probability", (False,))[0][0], 1.0)


def mean_count(theta: float, params: EnsembleParams) -> float:
    """Expected number of eigenvalues in (-theta, theta): s(theta) = 2 Int_0^theta rho.

    Evaluated as a single Gamma-weighted quadrature of the counting function
    (the integral of the mixture commutes with the energy integral); this is
    the scaled abscissa of the parametric gap curve.
    """
    return _gamma_weighted_goe(theta, params, "mean_count", (True,))[0][0]


def gap_probability_bulk(s, lam: float = 1.0):
    """Scaling-limit gap probability at mean count s (n -> inf, s fixed).

    The counting function enters only through its linear bulk slope, so the
    Gamma average collapses to a one-dimensional integral in s alone; at
    lambda = 1 it evaluates in closed form to 1 - s/sqrt(1 + s^2), which
    carries the 1/(2 s^2) tail.  The finite-n curve follows this law until
    the gap window swallows an O(1) fraction of the spectrum.

    The average equals I_x(lambda, 1/2), the regularized incomplete beta
    function at x = 1/(1 + b^2), b = s (sqrt(pi)/2)/poch(lambda, 1/2).
    Above lambda = 10, where QAWS loses the weight xi^(lambda - 1) to
    roundoff, that identity is the value; poch keeps the Gamma ratio to
    float64 precision where a difference of ln Gamma values would not.
    """
    if not 0 < lam < math.inf:
        raise RegimeError(f"bulk gap law needs finite lambda > 0, got {lam}")
    sa = np.asarray(s, dtype=float)
    if not np.all((sa >= 0) & (sa < math.inf)):
        raise ParameterError("mean count s must be finite and nonnegative")
    if lam == 1.0:
        out = 1.0 - sa / np.sqrt(1.0 + sa * sa)
        return float(out) if sa.ndim == 0 else out
    if lam > 10.0:
        b = sa * (_HALF_SQRT_PI / float(_sp.poch(lam, 0.5)))
        with np.errstate(over="ignore"):  # b^2 = inf is x = 0, E = 0
            out = _sp.betainc(lam, 0.5, 1.0 / (1.0 + b * b))
        return float(out) if sa.ndim == 0 else out
    # y averages to s, so y_xi = s sqrt(xi) Gamma(lam)/Gamma(lam + 1/2)
    slope = math.exp(ln_gamma(lam) - ln_gamma(lam + 0.5))
    scale, hsp = math.exp(-ln_gamma(lam)), _HALF_SQRT_PI
    sqrt, exp, erfc = math.sqrt, math.exp, _sp.erfc

    def one(sv: float) -> float:
        if sv == 0.0:
            return 1.0
        # goe_gap(sv sqrt(xi) slope) inline, in goe_gap's operation order
        f = lambda xi: scale * exp(-xi) * float(erfc(sv * sqrt(xi) * slope * hsp))
        return min(_gamma_average(f, lam, -1.0, "gap_probability_bulk", f"s={sv!r}", stacklevel=4)[0], 1.0)

    if sa.ndim == 0:
        return one(float(sa))
    return np.array([*map(one, map(float, sa))])  # no comprehension frame for stacklevel to count


def gap_curve(params: EnsembleParams, theta_grid) -> AnalyticCurve:
    """Parametric (s, E) gap curve over a theta grid."""
    if params.regime is not Regime.LEVY_BRANCH:
        raise RegimeError("gap curve needs the heavy-tailed branch")
    thetas = np.asarray(theta_grid, dtype=float)
    if not (np.all(thetas >= 0) and np.all(np.diff(thetas) > 0)):
        raise ParameterError("theta grid must be nonnegative and strictly increasing")
    s = np.empty_like(thetas)
    e = np.empty_like(thetas)
    worst = 0.0
    for i, th in enumerate(thetas):
        (ev, eerr), (sv, serr) = _gamma_weighted_goe(th, params, "gap_curve", (False, True))
        s[i], e[i] = sv, min(ev, 1.0)
        worst = max(worst, eerr, serr)
    return AnalyticCurve(abscissae=s, values=e, kind="gap_probability", params=params, quadrature_error=worst)


# largest mixture-vs-closed-form distance density_curve accepts, relative to the curve's peak
_DENSITY_CROSS_CHECK_RTOL = 1e-8


def density_curve(params: EnsembleParams, e_grid) -> AnalyticCurve:
    """Level-density curve; error metadata from the mixture-route cross-check.

    A cross-check distance above 1e-8 of the curve's largest value is a
    NumericalError: the two routes disagree, so neither value is checked.
    """
    grid = np.asarray(e_grid, dtype=float)
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
    grid = np.asarray(x_grid, dtype=float)
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
    return math.exp(_joint_log_const(params) + _log_weight(params, ssq)) * vander
