"""Parameter algebra for the q-generalized symmetric matrix ensembles.

The family is controlled by a matrix dimension n, an entropic index q and a
confinement scale alpha > 0.  Everything else is derived: the element count
f = n(n+1)/2, the shape parameter lambda = 1/(q-1) - f/2, the tail exponent
sigma and coefficient Lambda of the heavy-tailed branch, and the
characteristic energy E_c = sqrt(n*lambda/alpha).

Three regimes partition the valid (q, f) plane:

* q < 1            restricted trace; support confined to tr(H^2) < -lambda/alpha
* q = 1            Gaussian (GOE with density exp(-alpha tr H^2))
* 1 < q < q_max    heavy-tailed branch, lambda > 0, q_max = 1 + 2/f
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "ParameterError",
    "RegimeError",
    "MarginalTailError",
    "NumericalError",
    "Regime",
    "EnsembleParams",
    "dof",
    "lambda_from_q",
    "q_from_lambda",
    "q_max",
    "tail_params",
    "alpha_scaling",
    "characteristic_energy",
]


class ParameterError(ValueError):
    """Invalid or out-of-domain ensemble parameters."""


class RegimeError(ParameterError):
    """Operation invoked outside the parameter regime where it is defined."""


class MarginalTailError(ParameterError):
    """lambda = 1: sigma = 2 holds as a scaling convention only, no tail coefficient."""


class NumericalError(ValueError):
    """Valid parameters at which a closed-form law has no finite, checked value."""


class Regime(Enum):
    RESTRICTED_TRACE = "restricted-trace"
    GAUSSIAN = "gaussian"
    LEVY_BRANCH = "levy"


def dof(n: int) -> int:
    """Number of independent elements of a real symmetric n x n matrix."""
    if not isinstance(n, (int,)) or isinstance(n, bool) or n < 1:
        raise ParameterError(f"matrix dimension must be an integer >= 1, got {n!r}")
    return n * (n + 1) // 2


def q_max(f: int) -> float:
    """Upper limit of the entropic index, 1 + 2/f; lambda -> 0+ as q -> q_max."""
    if f < 1:
        raise ParameterError(f"element count must be >= 1, got {f}")
    return 1.0 + 2.0 / f


def lambda_from_q(q: float, f: int) -> float:
    """Map the entropic index to lambda = 1/(q-1) - f/2.

    q = 1 raises RegimeError (lambda diverges; callers route to the Gaussian
    paths), and q = q_max raises ParameterError (lambda = 0 sits on the
    boundary where nothing is normalizable).  q = -inf is accepted and gives
    the bounded-trace limit lambda = -f/2 exactly.
    """
    if f < 1:
        raise ParameterError(f"element count must be >= 1, got {f}")
    if q == 1:
        raise RegimeError("q = 1 is the Gaussian regime; lambda is not defined")
    if math.isinf(q) and q < 0:
        return -f / 2.0
    lam = 1.0 / (q - 1.0) - f / 2.0
    if lam == 0.0:
        raise ParameterError(
            f"q = q_max = {q_max(f)} is a boundary; the ensemble is not normalizable there"
        )
    return lam


def q_from_lambda(lam: float, f: int) -> float:
    """Inverse map q = 1 + 1/(lambda + f/2); exact round trip with lambda_from_q."""
    if f < 1:
        raise ParameterError(f"element count must be >= 1, got {f}")
    denom = lam + f / 2.0
    if denom == 0.0:
        return -math.inf  # bounded-trace limit
    return 1.0 + 1.0 / denom


def tail_params(lam: float) -> tuple[float, float]:
    """Tail exponent and coefficient (sigma, Lambda) of the element law, lambda > 0.

    lambda > 1 keeps the Gaussian exponent sigma = 2 with Lambda = 1/(4(lambda-1));
    0 < lambda < 1 gives the stable exponent sigma = 2*lambda with
    Lambda = Gamma(1-lambda)/Gamma(1+lambda).  lambda = 1 is marginal: sigma = 2
    survives only as a scaling convention, so a distinct error is raised instead
    of inventing a coefficient.
    """
    if lam <= 0:
        raise RegimeError(f"tail parameters require lambda > 0, got {lam}")
    if lam == 1:
        raise MarginalTailError("lambda = 1 is marginal: no tail coefficient exists")
    if lam > 1:
        return 2.0, 1.0 / (4.0 * (lam - 1.0))
    # Gamma(1+lam) = lam*Gamma(lam): lets the shared factor cancel so the
    # half-integer anchor Gamma(1/2)/Gamma(3/2) = 2 comes out exact
    return 2.0 * lam, math.gamma(1.0 - lam) / (lam * math.gamma(lam))


def alpha_scaling(n: int, sigma: float) -> float:
    """Size-dependent confinement scale alpha = n^(2/sigma)/2.

    This is the convention under which the level density has an n-independent
    characteristic energy; all figure reproductions use it.
    """
    if n < 1:
        raise ParameterError(f"matrix dimension must be >= 1, got {n}")
    if not 0.0 < sigma <= 2.0:
        raise ParameterError(f"tail exponent must lie in (0, 2], got {sigma}")
    return n ** (2.0 / sigma) / 2.0


@dataclass(frozen=True)
class EnsembleParams:
    """Validated parameter bundle; immutable and safe to share across threads.

    Build instances through :meth:`from_q`, :meth:`from_lambda` or
    :meth:`gaussian`; the raw constructor performs only consistency checks.
    """

    n: int
    # independent element count, n(n+1)/2
    f: int
    # entropic index; 1 for the Gaussian regime, may be -inf (bounded trace)
    q: float
    # shape parameter 1/(q-1) - f/2; +inf in the Gaussian regime
    lam: float
    # confinement scale, > 0
    alpha: float
    # norm target f/(2 alpha), derived metadata only
    mu: float
    regime: Regime
    # tail exponent; None on the restricted-trace branch where no tail exists
    sigma: float | None
    # tail coefficient; None unless 0 < lambda < 1 or lambda > 1
    big_lambda: float | None
    # characteristic energy sqrt(n lam / alpha); heavy-tailed branch only
    e_char: float | None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError(f"matrix dimension must be >= 1, got {self.n}")
        if self.f != self.n * (self.n + 1) // 2:
            raise ParameterError(f"f = {self.f} does not match n(n+1)/2 for n = {self.n}")
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ParameterError(f"alpha must be positive and finite, got {self.alpha}")

    @classmethod
    def from_q(cls, n: int, q: float, alpha: float | str | None = None) -> "EnsembleParams":
        """Construct from (n, q, alpha); alpha=None or "auto" applies alpha_scaling."""
        f = dof(n)
        if q != 1 and not (math.isinf(q) and q < 0):
            if not math.isfinite(q):
                raise ParameterError(f"q must be finite or -inf, got {q}")
            if q > 1 and q >= q_max(f):
                raise ParameterError(
                    f"q = {q} is not below q_max = {q_max(f)} for n = {n} (f = {f})"
                )
        if q == 1:
            lam = math.inf
            regime = Regime.GAUSSIAN
            sigma: float | None = 2.0
            big_lambda: float | None = None
        elif q < 1:
            lam = lambda_from_q(q, f)
            regime = Regime.RESTRICTED_TRACE
            sigma = None
            big_lambda = None
        else:
            lam = lambda_from_q(q, f)
            regime = Regime.LEVY_BRANCH
            try:
                sigma, big_lambda = tail_params(lam)
            except MarginalTailError:
                sigma, big_lambda = 2.0, None  # lambda = 1: scaling convention only
        alpha_val = cls._resolve_alpha(n, alpha, sigma)
        e_char = math.sqrt(n * lam / alpha_val) if regime is Regime.LEVY_BRANCH else None
        return cls(
            n=n,
            f=f,
            q=q,
            lam=lam,
            alpha=alpha_val,
            mu=f / (2.0 * alpha_val),
            regime=regime,
            sigma=sigma,
            big_lambda=big_lambda,
            e_char=e_char,
        )

    @classmethod
    def from_lambda(cls, n: int, lam: float, alpha: float | str | None = None) -> "EnsembleParams":
        """Construct on the heavy-tailed branch from (n, lambda > 0, alpha).

        lambda is the natural variable there; q is derived.  Negative lambda is
        not accepted directly: the restricted-trace branch is specified by q.
        """
        if not (lam > 0.0 and math.isfinite(lam)):
            raise ParameterError(
                f"from_lambda requires lambda > 0 (heavy-tailed branch), got {lam}"
            )
        f = dof(n)
        # built directly so lam is stored exactly (no q round-trip noise)
        try:
            sigma, big_lambda = tail_params(lam)
        except MarginalTailError:
            sigma, big_lambda = 2.0, None  # lambda = 1: scaling convention only
        alpha_val = cls._resolve_alpha(n, alpha, sigma)
        return cls(
            n=n,
            f=f,
            q=q_from_lambda(lam, f),
            lam=lam,
            alpha=alpha_val,
            mu=f / (2.0 * alpha_val),
            regime=Regime.LEVY_BRANCH,
            sigma=sigma,
            big_lambda=big_lambda,
            e_char=math.sqrt(n * lam / alpha_val),
        )

    @classmethod
    def gaussian(cls, n: int, alpha: float | str | None = None) -> "EnsembleParams":
        """The q = 1 member: GOE with density proportional to exp(-alpha tr H^2)."""
        return cls.from_q(n, 1.0, alpha)

    @staticmethod
    def _resolve_alpha(n: int, alpha: float | str | None, sigma: float | None) -> float:
        if alpha is None or (isinstance(alpha, str) and alpha.lower() == "auto"):
            # restricted-trace has no tail exponent; the Gaussian convention applies
            return alpha_scaling(n, sigma if sigma is not None else 2.0)
        alpha = float(alpha)
        if not (alpha > 0.0 and math.isfinite(alpha)):
            raise ParameterError(f"alpha must be positive and finite, got {alpha}")
        return alpha

    def as_dict(self) -> dict:
        """JSON-safe field dump (non-finite floats become strings)."""

        def safe(v):
            if isinstance(v, float) and not math.isfinite(v):
                return repr(v)  # 'inf' / '-inf' / 'nan'
            return v

        return {
            "n": self.n,
            "f": self.f,
            "q": safe(self.q),
            "lambda": safe(self.lam),
            "alpha": self.alpha,
            "mu": self.mu,
            "regime": self.regime.value,
            "sigma": self.sigma,
            "big_lambda": self.big_lambda,
            "e_char": self.e_char,
        }


def characteristic_energy(params: EnsembleParams) -> float:
    """E_c = sqrt(n lambda / alpha); defined on the heavy-tailed branch only."""
    if params.regime is not Regime.LEVY_BRANCH:
        raise RegimeError("characteristic energy is defined on the heavy-tailed branch only")
    assert params.e_char is not None
    return params.e_char
