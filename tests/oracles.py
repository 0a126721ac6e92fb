"""Independent oracles used to freeze expected values in the tests.

Each routine here deliberately avoids the code path it is meant to check:
the eigenvalue oracle uses its own Householder reduction plus Sturm-sequence
bisection instead of LAPACK, the restricted-trace oracle uses rejection
sampling instead of the exact radial construction, and the characteristic
function oracle integrates the density with an oscillatory-weight quadrature
instead of evaluating the Bessel closed form.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import integrate

# closed-form normalization integrals for the |Vandermonde| x Gaussian weight,
# n = 1..4: (2 pi)^(n/2) prod_{j=1..n} Gamma(1 + j/2) / Gamma(3/2)
MEHTA_INTEGRALS = {
    1: 2.5066282746310005,
    2: 7.0898154036220641,
    3: 26.657297628950197,
    4: 150.79644737231008,
}


def householder_tridiagonal(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a symmetric matrix to tridiagonal form; returns (diag, offdiag)."""
    a = np.array(h, dtype=float)
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1 :, k].copy()
        norm = np.linalg.norm(x)
        if norm == 0.0:
            continue
        v = x.copy()
        v[0] += math.copysign(norm, x[0] if x[0] != 0.0 else 1.0)
        v /= np.linalg.norm(v)
        # apply P = I - 2 v v^T on both sides of the trailing block
        block = a[k + 1 :, k + 1 :]
        w = block @ v
        tau = v @ w
        block -= 2.0 * np.outer(v, w) + 2.0 * np.outer(w, v) - 4.0 * tau * np.outer(v, v)
        a[k + 1 :, k + 1 :] = block
        new_col = np.zeros_like(x)
        new_col[0] = -math.copysign(norm, x[0] if x[0] != 0.0 else 1.0)
        a[k + 1 :, k] = new_col
        a[k, k + 1 :] = new_col
    return np.diag(a).copy(), np.diag(a, 1).copy()


def _sturm_count(d: np.ndarray, e: np.ndarray, x: float) -> int:
    """Number of eigenvalues of the tridiagonal (d, e) strictly below x."""
    count = 0
    q = d[0] - x
    if q < 0.0:
        count += 1
    for i in range(1, len(d)):
        if q == 0.0:
            q = 1e-300
        q = d[i] - x - e[i - 1] * e[i - 1] / q
        if q < 0.0:
            count += 1
    return count


def sturm_eigenvalues(h: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """All eigenvalues by bisection on the Sturm sequence; independent of LAPACK."""
    d, e = householder_tridiagonal(np.asarray(h, dtype=float))
    n = len(d)
    radius = float(np.max(np.abs(d)) + 2.0 * (np.max(np.abs(e)) if n > 1 else 0.0)) + 1.0
    out = np.empty(n)
    for k in range(n):  # k-th smallest: smallest x with count(x) >= k+1
        lo, hi = -radius, radius
        while hi - lo > tol * max(1.0, abs(lo), abs(hi)):
            mid = 0.5 * (lo + hi)
            if _sturm_count(d, e, mid) >= k + 1:
                hi = mid
            else:
                lo = mid
        out[k] = 0.5 * (lo + hi)
    return out


def rejection_sample_restricted(params, rng, count: int) -> np.ndarray:
    """Restricted-trace matrices by rejection from the uniform ball.

    Proposes weighted coordinates uniformly in the support ball and accepts
    with the density ratio (1 - a |x|^2/|lam|)^(|lam| - f/2), which is
    bounded by one.  Slow but correct by construction.
    """
    f, n = params.f, params.n
    al = -params.lam
    expo = al - f / 2.0
    radius = math.sqrt(al / params.alpha)
    out = np.empty((count, n, n))
    got = 0
    while got < count:
        direction = rng.normal(size=f)
        direction /= np.linalg.norm(direction)
        u = rng.uniform() ** (2.0 / f)  # |x|^2 / R^2 of a uniform ball point
        if rng.uniform() >= (1.0 - u) ** expo:
            continue
        x = direction * (math.sqrt(u) * radius)
        h = np.zeros((n, n))
        h[np.diag_indices(n)] = x[:n]
        iu = np.triu_indices(n, 1)
        h[iu] = x[n:] / math.sqrt(2.0)
        h = h + h.T - np.diag(np.diag(h))
        out[got] = h
        got += 1
    return out


def fourier_char_fn(pdf, k: float, scale: float) -> float:
    """F(k) = 2 Int_0^inf pdf(x) cos(k x) dx for an even density.

    Oscillatory-weight quadrature on [0, inf); `scale` sets the split point
    between the head interval and the weighted tail integral.
    """
    if k == 0.0:
        return 2.0 * integrate.quad(pdf, 0.0, np.inf)[0]
    head, _ = integrate.quad(lambda x: pdf(x) * math.cos(k * x), 0.0, scale, limit=200)
    tail, _ = integrate.quad(pdf, scale, np.inf, weight="cos", wvar=k, limit=200)
    return 2.0 * (head + tail)
