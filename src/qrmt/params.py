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
from dataclasses import dataclass, field
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
    try:
        return 2.0 * lam, math.gamma(1.0 - lam) / (lam * math.gamma(lam))
    except OverflowError:  # Gamma(lam) ~ 1/lam leaves float64 below lam ~ 5.6e-309
        raise ParameterError(f"lambda = {lam} is too small for float64: Gamma(lambda) overflows") from None


def alpha_scaling(n: int, sigma: float) -> float:
    """Size-dependent confinement scale alpha = n^(2/sigma)/2.

    This is the convention under which the level density has an n-independent
    characteristic energy; all figure reproductions use it.
    """
    if n < 1:
        raise ParameterError(f"matrix dimension must be >= 1, got {n}")
    if not 0.0 < sigma <= 2.0:
        raise ParameterError(f"tail exponent must lie in (0, 2], got {sigma}")
    try:
        return n ** (2.0 / sigma) / 2.0
    except OverflowError:
        raise ParameterError(
            f"alpha = n^(2/sigma)/2 overflows float64 at n = {n}, sigma = {sigma:g}; "
            "give an explicit alpha (--alpha)"
        ) from None


@dataclass(frozen=True)
class EnsembleParams:
    """Validated parameter bundle; immutable and safe to share across threads.

    A member is fixed by (n, q, lam, alpha): those are the only constructor
    inputs, and equality and hashing use them alone.  The derived fields are
    set from them on construction, so `dataclasses.replace` re-derives them.
    Construction checks that q and lam agree at this n, however it is reached:
    :meth:`from_q`, :meth:`from_lambda`, the raw constructor or `replace`.
    """

    n: int
    # entropic index; 1 for the Gaussian regime, may be -inf (bounded trace)
    q: float
    # shape parameter 1/(q-1) - f/2; +inf in the Gaussian regime
    lam: float
    # confinement scale, > 0; a number, or "auto"/None for alpha_scaling
    alpha: float
    # independent element count, n(n+1)/2
    f: int = field(init=False, compare=False)
    # norm target f/(2 alpha), derived metadata only
    mu: float = field(init=False, compare=False)
    regime: Regime = field(init=False, compare=False)
    # tail exponent; None on the restricted-trace branch where no tail exists
    sigma: float | None = field(init=False, compare=False)
    # tail coefficient; None unless 0 < lambda < 1 or lambda > 1
    big_lambda: float | None = field(init=False, compare=False)
    # characteristic energy sqrt(n lam / alpha); heavy-tailed branch only
    e_char: float | None = field(init=False, compare=False)

    def __post_init__(self) -> None:
        """Check that (n, q, lam, alpha) names one member, then derive the rest.

        lam < 0 exactly when q < 1, and q and lam agree exactly under one map,
        q's first (a tiny lam gives q = q_max, where lambda_from_q raises).
        The regime follows from lam alone: +inf at q = 1, negative below it,
        positive on the heavy-tailed branch (where q itself may round to 1).
        """
        f, q, lam = dof(self.n), self.q, self.lam
        if not (math.isfinite(q) or q == -math.inf):
            raise ParameterError(f"q must be finite or -inf, got {q}")
        if (lam < 0) != (q < 1) or not (
            q == q_from_lambda(lam, f) or lam == (math.inf if q == 1 else lambda_from_q(q, f))
        ):
            raise ParameterError(f"q = {q} and lambda = {lam} do not name one member at "
                                 f"n = {self.n}; build it with from_q or from_lambda")
        sigma = big_lambda = e_char = None
        if lam == math.inf:
            regime, sigma = Regime.GAUSSIAN, 2.0
        elif lam < 0:
            regime = Regime.RESTRICTED_TRACE
        else:
            regime = Regime.LEVY_BRANCH
            try:
                sigma, big_lambda = tail_params(lam)
            except MarginalTailError:
                sigma = 2.0  # lambda = 1: scaling convention only
        alpha = self._resolve_alpha(self.n, self.alpha, sigma)
        if regime is Regime.LEVY_BRANCH:
            e_char = math.sqrt(self.n * lam / alpha)
        for name, value in (("f", f), ("alpha", alpha), ("mu", f / (2.0 * alpha)),
                            ("regime", regime), ("sigma", sigma),
                            ("big_lambda", big_lambda), ("e_char", e_char)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_q(cls, n: int, q: float, alpha: float | str | None = None) -> "EnsembleParams":
        """Construct from (n, q, alpha); alpha=None or "auto" applies alpha_scaling."""
        f = dof(n)
        if q_max(f) <= q < math.inf:
            raise ParameterError(f"q = {q} is not below q_max = {q_max(f)} for n = {n} (f = {f})")
        return cls(n, q, math.inf if q == 1 else lambda_from_q(q, f), alpha)

    @classmethod
    def from_lambda(cls, n: int, lam: float, alpha: float | str | None = None) -> "EnsembleParams":
        """Construct on the heavy-tailed branch from (n, lambda > 0, alpha).

        lambda is the natural variable there; q is derived.  Negative lambda is
        not accepted directly: the restricted-trace branch is specified by q.
        """
        if not (lam > 0.0 and math.isfinite(lam)):
            raise ParameterError(
                f"from_lambda requires lambda > 0 (heavy-tailed branch), got {lam}; "
                "give q below 1 for the restricted branch"
            )
        # lam is stored exactly (no q round-trip noise)
        return cls(n, q_from_lambda(lam, dof(n)), lam, alpha)

    @classmethod
    def gaussian(cls, n: int, alpha: float | str | None = None) -> "EnsembleParams":
        """The q = 1 member: GOE with density proportional to exp(-alpha tr H^2)."""
        return cls.from_q(n, 1.0, alpha)

    @staticmethod
    def _resolve_alpha(n: int, alpha: float | str | None, sigma: float | None) -> float:
        if alpha is None or (isinstance(alpha, str) and alpha.lower() == "auto"):
            # restricted-trace has no tail exponent; the Gaussian convention applies
            return alpha_scaling(n, sigma if sigma is not None else 2.0)
        try:
            alpha = float(alpha)
        except (TypeError, ValueError):
            raise ParameterError(f"alpha must be a number or 'auto', got {alpha!r}") from None
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
    return params.e_char
