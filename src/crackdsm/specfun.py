"""Cylindrical Bessel functions J_s and the series constructs built on them.

Evaluation scheme: ascending power series for |x| <= 12, backward (Miller)
recurrence with sum-rule normalization for larger arguments.  Orders are
capped at MAX_ORDER, so `truncation_order` clips its rule ceil(|z|) + 25 for
|z| > 39 and `jacobi_anger` loses accuracy there; the predictors in
`asymptotic` sum the plane-wave series in closed form instead.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, UnsupportedOrderError

MAX_ORDER = 64

_SERIES_CUTOFF = 12.0


def _series_jn(n, x):
    """Ascending series J_n on a nonnegative array, |x| <= cutoff."""
    half = 0.5 * x
    term = half**n / math.factorial(n)
    total = term.copy()
    hh = half * half
    for j in range(1, 200):
        term = -term * hh / (j * (j + n))
        total += term
        if np.max(np.abs(term)) < 1e-18:
            break
    return total


def _miller_all(smax, x):
    """J_0..J_smax on a positive array via backward recurrence.

    Normalized with J_0 + 2*sum_j J_{2j} = 1.  Start order is high enough
    that the seed has fully decayed for every element of x.
    """
    m0 = int(np.ceil(max(smax, float(np.max(x))))) + 52
    if m0 % 2:
        m0 += 1
    jp = np.zeros_like(x)            # J_{m+1}
    jc = np.full_like(x, 1e-30)      # J_m, starting at m = m0
    out = np.zeros((smax + 1,) + x.shape)
    norm = np.zeros_like(x)
    for m in range(m0, 0, -1):
        jm = (2.0 * m / x) * jc - jp  # J_{m-1}
        jp, jc = jc, jm
        mm = m - 1
        if mm <= smax:
            out[mm] = jc
        if mm % 2 == 0:
            norm += jc if mm == 0 else 2.0 * jc
        big = np.abs(jc) > 1e250
        if big.any():
            scale = np.where(big, 1e-250, 1.0)
            jp = jp * scale
            jc = jc * scale
            norm = norm * scale
            out = out * scale
    return out / norm


def bessel_j_orders(smax, x):
    """Array of J_s(x) for s = 0..smax; x scalar or ndarray.

    Returns shape (smax+1,) + shape(x).
    """
    if not isinstance(smax, (int, np.integer)) or smax < 0:
        raise DomainError(f"order must be a nonnegative integer, got {smax!r}")
    if smax > MAX_ORDER:
        raise UnsupportedOrderError(f"order {smax} exceeds ceiling {MAX_ORDER}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("argument must be finite")
    scalar = x.ndim == 0
    xf = np.atleast_1d(x).ravel()
    ax = np.abs(xf)
    out = np.empty((smax + 1, xf.size))
    small = ax <= _SERIES_CUTOFF
    if small.any():
        xs = ax[small]
        for s in range(smax + 1):
            out[s, small] = _series_jn(s, xs)
    if (~small).any():
        out[:, ~small] = _miller_all(smax, ax[~small])
    neg = xf < 0.0
    if neg.any():
        for s in range(1, smax + 1, 2):
            out[s, neg] *= -1.0
    out = out.reshape((smax + 1,) + np.atleast_1d(x).shape)
    if scalar:
        return out[:, 0]
    return out


def bessel_j(order, x):
    """J_order(x) for a real scalar x, order 0..MAX_ORDER."""
    vals = bessel_j_orders(order, float(x))
    return float(vals[order])


def bessel_j0(x):
    """Vectorized J_0."""
    return bessel_j_orders(0, x)[0]


def bessel_j1(x):
    """Vectorized J_1."""
    return bessel_j_orders(1, x)[1]


def truncation_order(z):
    """Series cutoff ceil(|z|) + 25, capped at MAX_ORDER."""
    return min(int(np.ceil(abs(float(z)))) + 25, MAX_ORDER)


def jacobi_anger(z, phi, terms):
    """Truncated plane-wave expansion J0(z) + 2 sum_{s<=terms} i^s J_s(z) cos(s phi).

    Approximates e^{iz cos(phi)}; with terms >= ceil(|z|) + 25 the truncation
    error is below 1e-10 for |z| <= 20.
    """
    if terms < 1:
        raise DomainError("truncation order must be >= 1")
    terms = min(int(terms), MAX_ORDER)
    js = bessel_j_orders(terms, float(z))
    total = complex(js[0])
    for s in range(1, terms + 1):
        total += 2.0 * (1j**s) * js[s] * math.cos(s * phi)
    return total


def lambda_envelope(x):
    """J0(x)^2 + J1(x)^2 for x >= 0; decays like 2/(pi x) at infinity."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("lambda_envelope requires x >= 0")
    js = bessel_j_orders(1, x)
    return js[0] ** 2 + js[1] ** 2
