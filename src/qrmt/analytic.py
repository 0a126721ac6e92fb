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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy import special as _sp

from .params import EnsembleParams, ParameterError, Regime, RegimeError
from .specfun import QuadratureResult, bessel_k, kummer_m, ln_gamma

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
    kind: str  # element_pdf | level_density | gap_probability | char_fn | semicircle
    params: EnsembleParams | None
    quadrature_error: float

    def __post_init__(self) -> None:
        if len(self.abscissae) != len(self.values):
            raise ValueError("abscissae and values must have equal length")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"non-finite values in {self.kind} curve")
        if self.kind in ("element_pdf", "level_density", "semicircle"):
            if np.any(np.asarray(self.values) < -1e-12):
                raise ValueError("densities must be nonnegative")
        if self.kind == "gap_probability":
            v = np.asarray(self.values)
            if np.any(v < -1e-9) or np.any(v > 1.0 + 1e-9):
                raise ValueError("gap probabilities must lie in [0, 1]")
            if np.any(np.diff(v) > 1e-9):
                raise ValueError("gap probabilities must be nonincreasing")


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
        return 0.5 * f * math.log(math.pi * lam / a) + ln_gamma(lam) - ln_gamma(lam + f / 2.0)
    al = -lam  # restricted trace: lam < -f/2 so al - f/2 > 0 strictly (= 0 at q -> -inf)
    return 0.5 * f * math.log(math.pi * al / a) + ln_gamma(1.0 + al - f / 2.0) - ln_gamma(1.0 + al)


def matrix_pdf(h: np.ndarray, params: EnsembleParams) -> float:
    """Matrix density at h; depends on h only through tr h^2 (rotation invariant)."""
    h = np.asarray(h, dtype=float)
    t = float(np.sum(h * h))
    log_z = log_partition(params)
    if params.regime is Regime.GAUSSIAN:
        return math.exp(-params.alpha * t - log_z)
    lam, f = params.lam, params.f
    u = (params.alpha / lam) * t
    if 1.0 + u <= 0.0:  # outside the restricted-trace ball
        return 0.0
    # exponent 1/(1-q) equals -(lambda + f/2) on both branches
    return math.exp(-(lam + f / 2.0) * math.log1p(u) - log_z)


# ---------------------------------------------------------------------------
# element laws


def element_pdf(x, params: EnsembleParams, entry: str = "diag"):
    """Marginal density of a single matrix element.

    Heavy-tailed branch: Student-t with 2 lambda degrees of freedom and scale
    1/sqrt(2 a) where a is the entry's effective confinement.  Restricted
    trace: compact-support Beta kernel (1 - a x^2/|lambda|)^(|lambda| - 1/2).
    Gaussian: plain normal.
    """
    a = _entry_alpha(params, entry)
    xa = np.asarray(x, dtype=float)
    if params.regime is Regime.GAUSSIAN:
        out = np.sqrt(a / math.pi) * np.exp(-a * xa * xa)
    elif params.regime is Regime.LEVY_BRANCH:
        lam = params.lam
        logc = 0.5 * math.log(a / (math.pi * lam)) + ln_gamma(lam + 0.5) - ln_gamma(lam)
        out = np.exp(logc - (lam + 0.5) * np.log1p(a * xa * xa / lam))
    else:
        al = -params.lam
        logc = 0.5 * math.log(a / (math.pi * al)) + ln_gamma(al + 1.0) - ln_gamma(al + 0.5)
        u = a * xa * xa / al
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(u < 1.0, np.exp(logc + (al - 0.5) * np.log1p(-np.minimum(u, 1.0))), 0.0)
    return float(out) if np.isscalar(x) or xa.ndim == 0 else out


def element_cdf(x, params: EnsembleParams, entry: str = "diag"):
    """Distribution function matching element_pdf."""
    a = _entry_alpha(params, entry)
    xa = np.asarray(x, dtype=float)
    if params.regime is Regime.GAUSSIAN:
        out = 0.5 * (1.0 + _sp.erf(np.sqrt(a) * xa))
    elif params.regime is Regime.LEVY_BRANCH:
        # exact Student-t reduction: t = x sqrt(2 a), 2 lambda degrees of freedom
        out = _sp.stdtr(2.0 * params.lam, xa * math.sqrt(2.0 * a))
    else:
        al = -params.lam
        u = np.minimum(a * xa * xa / al, 1.0)
        out = 0.5 + 0.5 * np.sign(xa) * _sp.betainc(0.5, al + 0.5, u)
    return float(out) if np.isscalar(x) or xa.ndim == 0 else out


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
        return float(out) if np.isscalar(k) or ka.ndim == 0 else out
    if params.regime is not Regime.LEVY_BRANCH:
        raise RegimeError("characteristic function in closed form needs lambda > 0")
    lam = params.lam
    c = math.sqrt(lam / a)
    z = ka * c
    out = np.ones_like(z)
    pos = z > 0.0
    if np.any(pos):
        zp = z[pos] if z.ndim else np.array([float(z)])
        with np.errstate(over="ignore", divide="ignore"):
            kvz = _sp.kv(lam, zp)
            logf = (
                (1.0 - lam) * math.log(2.0)
                - ln_gamma(lam)
                + lam * np.log(zp)
                + np.log(kvz)
            )
        vals = np.where(np.isposinf(kvz), 1.0, np.exp(logf))  # kv overflow: z so tiny F = 1
        if z.ndim:
            out[pos] = vals
        else:
            out = vals[0]
    return float(out) if np.isscalar(k) or ka.ndim == 0 else out


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
    r2 = n / alpha - ea * ea
    out = np.where(r2 > 0.0, (2.0 * alpha / math.pi) * np.sqrt(np.maximum(r2, 0.0)), 0.0)
    return float(out) if np.isscalar(e) or ea.ndim == 0 else out


def _rho0(params: EnsembleParams) -> float:
    # E = 0 value of the level density: the Gamma mixture of semicircle peaks
    # integrates in closed form to (2/pi) sqrt(n alpha/lambda) G(lam+1/2)/G(lam)
    n, lam, a = params.n, params.lam, params.alpha
    return (2.0 / math.pi) * math.sqrt(n * a / lam) * math.exp(ln_gamma(lam + 0.5) - ln_gamma(lam))


def _level_density_scalar(e: float, params: EnsembleParams) -> float:
    n, lam, a = params.n, params.lam, params.alpha
    if e == 0.0:
        return _rho0(params)
    t = n * lam / (a * e * e)
    if t > 1e12:
        # relative error of the plateau value is (lambda + 1/2)/(2 t) < 3e-11 here
        return _rho0(params)
    log_amp = (
        math.log(n)
        - 0.5 * math.log(math.pi)
        + lam * math.log(n * lam / a)
        - (2.0 * lam + 1.0) * math.log(abs(e))
        + ln_gamma(lam + 0.5)
        - ln_gamma(lam)
        - ln_gamma(lam + 2.0)
    )
    return math.exp(log_amp) * kummer_m(lam + 0.5, lam + 2.0, -t)


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
    ea = np.asarray(e, dtype=float)
    if ea.ndim == 0:
        return _level_density_scalar(float(ea), params)
    return np.array([_level_density_scalar(float(v), params) for v in ea])


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
    hi = _xi_max(lam)
    if e > 0.0:
        t = n * lam / (a * e * e)
        if t <= hi:
            # integrand = pref e^-xi xi^(lam-1/2) |E| sqrt(t - xi) on [0, t]
            val, err, info = integrate.quad(
                lambda xi: pref * math.exp(-xi) * e,
                0.0,
                t,
                weight="alg",
                wvar=(lam - 0.5, 0.5),
                epsabs=1e-12,
                epsrel=1e-10,
                full_output=True,
                limit=200,
            )[:3]
            return QuadratureResult(val, err, int(info["neval"]))
    val, err, info = integrate.quad(
        lambda xi: pref * math.exp(-xi) * math.sqrt(max(n * lam / a - xi * e * e, 0.0)),
        0.0,
        hi,
        weight="alg",
        wvar=(lam - 0.5, 0.0),
        epsabs=1e-12,
        epsrel=1e-10,
        full_output=True,
        limit=200,
    )[:3]
    return QuadratureResult(val, err, int(info["neval"]))


# ---------------------------------------------------------------------------
# GOE reference laws and gap probability


def goe_counting(x, n: int):
    """Integrated GOE level count y(x) = 2 Int_0^x rho_GOE(t) dt, alpha = 1/2 units.

    Closed-form semicircle antiderivative; saturates at n once x reaches the
    band edge sqrt(2 n).
    """
    if n < 1:
        raise ParameterError(f"matrix dimension must be >= 1, got {n}")
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise ParameterError("goe_counting is defined for x >= 0")
    edge = math.sqrt(2.0 * n)
    xc = np.minimum(xa, edge)
    out = (xc * np.sqrt(np.maximum(2.0 * n - xc * xc, 0.0)) + 2.0 * n * np.arcsin(xc / edge)) / math.pi
    return float(out) if np.isscalar(x) or xa.ndim == 0 else out


def goe_gap(y):
    """Surmise-level GOE gap probability E_GOE(y) = erfc(y sqrt(pi)/2)."""
    out = _sp.erfc(np.asarray(y, dtype=float) * (math.sqrt(math.pi) / 2.0))
    return float(out) if np.isscalar(y) or out.ndim == 0 else out


def wigner_surmise(s):
    """Nearest-neighbor spacing density (pi s/2) exp(-pi s^2/4), unit mean."""
    sa = np.asarray(s, dtype=float)
    out = (math.pi * sa / 2.0) * np.exp(-math.pi * sa * sa / 4.0)
    return float(out) if np.isscalar(s) or sa.ndim == 0 else out


def wigner_surmise_cdf(s):
    """CDF of the surmise: 1 - exp(-pi s^2/4)."""
    sa = np.asarray(s, dtype=float)
    out = -np.expm1(-math.pi * sa * sa / 4.0)
    return float(out) if np.isscalar(s) or sa.ndim == 0 else out


def _gamma_weighted_goe(theta: float, params: EnsembleParams, kernel, saturated: float):
    """(value, err, neval) of (1/Gamma(lam)) Int e^-xi xi^(lam-1) kernel(y(...)) dxi.

    `kernel` maps the counting value y to the integrand factor; `saturated` is
    kernel(n), the exact constant once xi passes n lam/(alpha theta^2) and the
    counting function has absorbed all n levels; that tail is added in closed
    form through the regularized upper incomplete gamma.
    """
    n, lam, a = params.n, params.lam, params.alpha
    xi_sat = n * lam / (a * theta * theta)
    hi = min(xi_sat, _xi_max(lam))
    scale = math.exp(-ln_gamma(lam))

    def f(xi: float) -> float:
        y = goe_counting(math.sqrt(2.0 * a * xi / lam) * theta, n)
        return scale * math.exp(-xi) * kernel(y)

    val, err, info = integrate.quad(
        f,
        0.0,
        hi,
        weight="alg",
        wvar=(lam - 1.0, 0.0),
        epsabs=1e-11,
        epsrel=1e-9,
        full_output=True,
        limit=200,
    )[:3]
    tail = saturated * float(_sp.gammaincc(lam, xi_sat))
    # the strip [xi_max, xi_sat) is dropped when xi_sat exceeds the truncation;
    # its mass is below kernel_max * Q(lam, xi_max) ~ 1e-20
    dropped = abs(saturated) * float(_sp.gammaincc(lam, hi)) if xi_sat > hi else 0.0
    return val + tail, err + dropped, int(info["neval"])


def gap_probability(theta: float, params: EnsembleParams) -> float:
    """Probability that (-theta, theta) holds no eigenvalue.

    Gamma-weighted average of the surmise-level GOE gap law evaluated at the
    rescaled counting function; equals 1 at theta = 0 and decays like
    1/(2 s^2) in scaled units when lambda = 1.
    """
    if params.regime is not Regime.LEVY_BRANCH:
        raise RegimeError("gap probability needs the heavy-tailed branch")
    if theta < 0:
        raise ParameterError(f"theta must be nonnegative, got {theta}")
    if theta == 0.0:
        return 1.0
    val, _, _ = _gamma_weighted_goe(
        theta, params, lambda y: goe_gap(y), goe_gap(float(params.n))
    )
    return min(val, 1.0)


def mean_count(theta: float, params: EnsembleParams) -> float:
    """Expected number of eigenvalues in (-theta, theta): s(theta) = 2 Int_0^theta rho.

    Evaluated as a single Gamma-weighted quadrature of the counting function
    (the integral of the mixture commutes with the energy integral); this is
    the scaled abscissa of the parametric gap curve.
    """
    if params.regime is not Regime.LEVY_BRANCH:
        raise RegimeError("mean count needs the heavy-tailed branch")
    if theta < 0:
        raise ParameterError(f"theta must be nonnegative, got {theta}")
    if theta == 0.0:
        return 0.0
    val, _, _ = _gamma_weighted_goe(theta, params, lambda y: y, float(params.n))
    return val


def gap_probability_bulk(s, lam: float = 1.0):
    """Scaling-limit gap probability at mean count s (n -> inf, s fixed).

    The counting function enters only through its linear bulk slope, so the
    Gamma average collapses to a one-dimensional integral in s alone; at
    lambda = 1 it evaluates in closed form to 1 - s/sqrt(1 + s^2), which
    carries the 1/(2 s^2) tail.  The finite-n curve follows this law until
    the gap window swallows an O(1) fraction of the spectrum.
    """
    if not lam > 0:
        raise RegimeError(f"bulk gap law needs lambda > 0, got {lam}")
    sa = np.asarray(s, dtype=float)
    if np.any(sa < 0):
        raise ParameterError("mean count s must be nonnegative")
    if lam == 1.0:
        out = 1.0 - sa / np.sqrt(1.0 + sa * sa)
        return float(out) if np.isscalar(s) or sa.ndim == 0 else out
    # y averages to s, so y_xi = s sqrt(xi) Gamma(lam)/Gamma(lam + 1/2)
    slope = math.exp(ln_gamma(lam) - ln_gamma(lam + 0.5))
    scale = math.exp(-ln_gamma(lam))

    def one(sv: float) -> float:
        if sv == 0.0:
            return 1.0
        f = lambda xi: scale * math.exp(-xi) * goe_gap(sv * math.sqrt(xi) * slope)
        val = integrate.quad(
            f, 0.0, _xi_max(lam), weight="alg", wvar=(lam - 1.0, 0.0),
            epsabs=1e-11, epsrel=1e-9, limit=200,
        )[0]
        return min(val, 1.0)

    if sa.ndim == 0:
        return one(float(sa))
    return np.array([one(float(v)) for v in sa])


def gap_curve(params: EnsembleParams, theta_grid) -> AnalyticCurve:
    """Parametric (s, E) gap curve over a theta grid."""
    if params.regime is not Regime.LEVY_BRANCH:
        raise RegimeError("gap curve needs the heavy-tailed branch")
    thetas = np.asarray(theta_grid, dtype=float)
    if np.any(thetas < 0) or np.any(np.diff(thetas) <= 0):
        raise ParameterError("theta grid must be nonnegative and strictly increasing")
    s = np.empty_like(thetas)
    e = np.empty_like(thetas)
    worst = 0.0
    for i, th in enumerate(thetas):
        if th == 0.0:
            s[i], e[i] = 0.0, 1.0
            continue
        ev, eerr, _ = _gamma_weighted_goe(th, params, lambda y: goe_gap(y), goe_gap(float(params.n)))
        sv, serr, _ = _gamma_weighted_goe(th, params, lambda y: y, float(params.n))
        s[i], e[i] = sv, min(ev, 1.0)
        worst = max(worst, eerr, serr)
    return AnalyticCurve(abscissae=s, values=e, kind="gap_probability", params=params, quadrature_error=worst)


def density_curve(params: EnsembleParams, e_grid) -> AnalyticCurve:
    """Level-density curve; error metadata from the mixture-route cross-check."""
    grid = np.asarray(e_grid, dtype=float)
    vals = np.asarray(level_density(grid, params), dtype=float)
    worst = 0.0
    if params.regime is Regime.LEVY_BRANCH:
        step = max(1, len(grid) // 8)
        # level_density is even in E, bit for bit, so vals holds the |E| values too
        for e, v in zip(grid[::step], vals[::step]):
            q = level_density_mixture(float(e), params)
            worst = max(worst, abs(q.value - float(v)))
    return AnalyticCurve(abscissae=grid, values=vals, kind="level_density", params=params, quadrature_error=worst)


def element_curve(params: EnsembleParams, x_grid, entry: str = "diag") -> AnalyticCurve:
    """Element-density curve (closed form, no quadrature error)."""
    grid = np.asarray(x_grid, dtype=float)
    vals = np.asarray(element_pdf(grid, params, entry), dtype=float)
    return AnalyticCurve(abscissae=grid, values=vals, kind="element_pdf", params=params, quadrature_error=0.0)


# ---------------------------------------------------------------------------
# joint eigenvalue density (small N)


@lru_cache(maxsize=None)
def _mehta_integral(n: int) -> float:
    """Int over R^n of exp(-|x|^2/2) prod_{i<j} |x_i - x_j| dx by direct quadrature.

    Ordered region times n!, so the integrand is smooth (no absolute-value
    kinks); limits truncated at |x| = 9.5 where the Gaussian mass is ~1e-20.
    """
    lim = 9.5
    tols = {1: 1e-12, 2: 1e-11, 3: 1e-9, 4: 1e-8}
    tol = tols[n]

    def inner(level: int, lower: float, xs: tuple) -> float:
        def f(x: float) -> float:
            here = xs + (x,)
            if level == n - 1:
                val = math.exp(-sum(t * t for t in here) / 2.0)
                for i in range(n):
                    for j in range(i + 1, n):
                        val *= here[j] - here[i]
                return val
            return inner(level + 1, x, here)

        return integrate.quad(f, lower, lim, epsabs=tol, epsrel=tol, limit=60)[0]

    return math.factorial(n) * inner(0, -lim, ())


def _goe_joint_norm(n: int) -> float:
    """Normalization of exp(-sum E^2/2) prod |E_j - E_i| (alpha = 1/2 units)."""
    if n > 4:
        raise ParameterError("joint eigenvalue density is implemented for n <= 4")
    return 1.0 / _mehta_integral(n)


@lru_cache(maxsize=128)
def _joint_log_const(params: EnsembleParams) -> float:
    """log of the joint density's constant factor; a function of params alone."""
    n, f, a = params.n, params.f, params.alpha
    log_goe = math.log(_goe_joint_norm(n))
    if params.regime is Regime.GAUSSIAN:
        return log_goe + 0.5 * f * math.log(2.0 * a)
    lam = params.lam
    if params.regime is Regime.LEVY_BRANCH:
        return 0.5 * f * math.log(2.0 * a / lam) + ln_gamma(lam + f / 2.0) - ln_gamma(lam) + log_goe
    al = -lam
    return 0.5 * f * math.log(2.0 * a / al) + ln_gamma(1.0 + al) - ln_gamma(1.0 + al - f / 2.0) + log_goe


def joint_eigen_density(evals, params: EnsembleParams) -> float:
    """Joint density of the n eigenvalues (n <= 4), symmetric in its arguments.

    The normalization ties the branch constant to the Gaussian one, which is
    obtained by direct quadrature; the n = 2 two-dimensional integral of this
    density is one of the acceptance checks.
    """
    e = np.sort(np.asarray(evals, dtype=float))
    n, f, a = params.n, params.f, params.alpha
    if len(e) != n:
        raise ParameterError(f"expected {n} eigenvalues, got {len(e)}")
    if n > 4:
        raise ParameterError("joint eigenvalue density is implemented for n <= 4")
    vander = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            vander *= abs(e[j] - e[i])
    ssq = float(np.sum(e * e))
    log_k = _joint_log_const(params)
    if params.regime is Regime.GAUSSIAN:
        return math.exp(log_k - a * ssq) * vander
    lam = params.lam
    u = (a / lam) * ssq
    if 1.0 + u <= 0.0:
        return 0.0
    return math.exp(log_k - (lam + f / 2.0) * math.log1p(u)) * vander
