"""Cylindrical Bessel functions J_s and the series constructs built on them.

A thin checked layer over `scipy.special`: orders are nonnegative integers
capped at MAX_ORDER, and arguments must be finite.  The cap makes
`truncation_order` clip its rule ceil(|z|) + 25 for |z| > 39, so
`jacobi_anger` loses accuracy there; the predictors in `asymptotic` sum the
plane-wave series in closed form instead.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import j0, j1, jv

from .errors import DomainError, UnsupportedOrderError

MAX_ORDER = 64


def _check_order(order):
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise DomainError(f"order must be a nonnegative integer, got {order!r}")
    if order > MAX_ORDER:
        raise UnsupportedOrderError(f"order {order} exceeds ceiling {MAX_ORDER}")


def _finite(x):
    """x as a float array; raises DomainError unless every element is finite."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("argument must be finite")
    return x


def bessel_j_orders(smax, x):
    """Array of J_s(x) for s = 0..smax; x scalar or ndarray.

    Returns shape (smax+1,) + shape(x).
    """
    _check_order(smax)
    x = _finite(x)
    return jv(np.arange(smax + 1).reshape((-1,) + (1,) * x.ndim), x)


def bessel_j(order, x):
    """J_order(x) for a real scalar x, order 0..MAX_ORDER."""
    _check_order(order)
    return float(jv(order, _finite(float(x))))


def bessel_j0(x):
    """Vectorized J_0."""
    return j0(_finite(x))


def bessel_j1(x):
    """Vectorized J_1."""
    return j1(_finite(x))


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
    x = _finite(x)
    if np.any(x < 0.0):
        raise DomainError("lambda_envelope requires x >= 0")
    return j0(x) ** 2 + j1(x) ** 2
