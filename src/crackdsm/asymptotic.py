"""Closed-form far-field generators and indicator-map predictors.

The generators are the small-crack expansions of the far-field pattern: a
logarithmic leading term, plus a tangential-derivative correction at second
order.  Each predictor is the indicators' steering kernel,
`imaging._steered_sum`, on these closed-form rows at P observation directions,
since a uniform direction sum of plane waves is a Bessel function:
(1/P) sum_p e^{ik theta_p.(x - c)} = J0(k r) and
(1/P) sum_p (theta_p.t) e^{ik theta_p.(x - c)} = i J1(k r) (r_hat.t), up to
aliasing terms J_{jP}(k r) below round-off for P = ceil(z + 12 z^{1/3} + 12),
z = k times the largest crack-to-grid distance.  So `s1` is J0 over order-1
rows, `s2` adds the J1 rotation term of order-2 rows, and `aif` and `mif` are
J0 times the plane waves e^{ik (c_m - x).d} over compensated order-1 rows,
`mif` integrated over the band by Gauss-Legendre in k.  The Bessel closed
forms are test references in ``tests/paper.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InputMismatchError
from .imaging import IndicatorMap, _steered_sum, observation_directions, unit_vectors
from .scene import check_scaled_scene, crack_tangent, require_valid

# Largest k * r_max a predictor accepts: P, and mif's panel count, grow with it.
_MAX_KR = 1e4


def _log_weight(half_length):
    if not 0.0 < half_length < 2.0:
        raise DomainError(f"half-length must lie in (0, 2), got {half_length}")
    return math.log(half_length / 2.0)


def _equal_half_length(scene):
    if len({c.half_length for c in scene.cracks}) != 1:
        raise InputMismatchError("operation requires all cracks to share one half-length")


def _finite(what, values):
    """values as a float array; DomainError naming what unless all are finite."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{what} must be finite, got {values.tolist()}")
    return values


def _order1_rows(scene, k, d, n_obs):
    """Order-1 far field at ``n_obs`` directions, with no scene check."""
    d = _finite("incident direction", d)
    theta = observation_directions(n_obs)
    out = np.zeros(d.shape[:-1] + (n_obs,), dtype=complex)
    for crack in scene.cracks:
        w = 2.0 * math.pi / _log_weight(crack.half_length)
        c = np.asarray(crack.center)
        out += (w * np.exp(1j * k * (d @ c)))[..., None] * np.exp(-1j * k * theta @ c)
    return out


def _order2_rows(scene, k, d, n_obs):
    """Order-2 far field at ``n_obs`` directions, with no scene check."""
    d = np.asarray(d, dtype=float)
    theta = observation_directions(n_obs)
    out = _order1_rows(scene, k, d, n_obs)
    for crack in scene.cracks:
        c = np.asarray(crack.center)
        t = crack_tangent(crack)
        phase = np.exp(1j * k * (d @ c))[..., None] * np.exp(-1j * k * theta @ c)
        out += (-math.pi * crack.half_length**2 * (1j * k * (d @ t)[..., None])
                * (-1j * k * (theta @ t)) * phase)
    return out


def farfield_order1(scene, k, d, config):
    """Leading-order far field: sum_m 2*pi/ln(l_m/2) * phase factors.

    One incident direction ``d`` (2,) gives (N,); L directions (L, 2) give (L, N).
    """
    require_valid(scene, k)
    return _order1_rows(scene, k, d, config.n_obs)


def farfield_order2(scene, k, d, config):
    """Order-1 term plus the tangential-derivative product correction.

    Requires equal half-lengths; ``d`` is shaped as in `farfield_order1`.
    The correction per crack is
    -pi*l^2 * (ik d.t) e^{ik d.c} * (-ik theta.t) e^{-ik theta.c}.
    """
    _equal_half_length(scene)
    require_valid(scene, k)
    return _order2_rows(scene, k, d, config.n_obs)


def _grid_reach(scene, grid):
    """The largest distance from a crack centre to the grid, which a corner attains."""
    corners = np.array([(x, y) for y in (grid.y_min, grid.y_max) for x in (grid.x_min, grid.x_max)])
    with np.errstate(over="ignore"):
        rmax = max((float(np.linalg.norm(corners - c.center, axis=1).max())
                    for c in scene.cracks), default=0.0)
    if not math.isfinite(rmax):
        raise DomainError("grid-to-crack distance overflows")
    return rmax


def _n_directions(k, rmax):
    """Directions P at which the direction sum is J0 to round-off for k*r <= k*rmax."""
    z = k * rmax
    if not z <= _MAX_KR:
        raise DomainError(f"k times the grid-to-crack distance is {z:.6g}, "
                          f"above the predictors' limit {_MAX_KR:g}")
    return math.ceil(z + 12.0 * z ** (1.0 / 3.0) + 12.0)


def predict_structure1(scene, k, grid):
    """Single-direction map shape |sum_m J0(k r_m)/ln(l_m/2)|, max-normalized."""
    check_scaled_scene(scene, k)
    rows = _order1_rows(scene, k, (0.0, 0.0), _n_directions(k, _grid_reach(scene, grid)))
    return IndicatorMap.from_raw(grid, np.abs(_steered_sum(k, [rows], (0.0, 0.0), grid)))


def predict_structure2(scene, k, d, grid):
    """Two-term map |Phi1 + Phi2| normalized; requires equal half-lengths.

    Phi1 = sum_m (2*pi)^2/ln(l/2) e^{ik d.c_m} J0(k r_m) and
    Phi2 = sum_m -2*pi^2 k^2 l^2 i (d.t_m) e^{ik d.c_m} (r_hat_m.t_m) J1(k r_m).
    """
    check_scaled_scene(scene, k)
    _equal_half_length(scene)
    rows = _order2_rows(scene, k, d, _n_directions(k, _grid_reach(scene, grid)))
    return IndicatorMap.from_raw(grid, np.abs(_steered_sum(k, [rows], (0.0, 0.0), grid)))


def predict_aif(scene, k, incident_angles, grid):
    """Few-direction map shape |sum_m w_m J0(k r_m) sum_l e^{ik (c_m - x).d_l}|.

    The steering kernel over the order-1 rows of every incident direction d_l
    at P observation directions; their direction sum gives the J0 factor.
    """
    check_scaled_scene(scene, k)
    incident_angles = _finite("incident angles", incident_angles)
    if incident_angles.size < 1:
        raise DomainError("need at least one incident angle")
    dirs = unit_vectors(incident_angles)
    rows = _order1_rows(scene, k, dirs, _n_directions(k, _grid_reach(scene, grid)))
    return IndicatorMap.from_raw(grid, np.abs(_steered_sum(k, rows, dirs, grid)))


def _gauss_legendre_panels(a, b, n_panels):
    nodes, weights = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(a, b, n_panels + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    return (mid[:, None] + half[:, None] * nodes).ravel(), (half[:, None] * weights).ravel()


def predict_mif(scene, k_list, incident_angle, grid):
    """Multi-frequency map shape |sum_m w_m int_k1^kF J0(k r_m) e^{ik (c_m - x).d} dk|.

    The integrand is `predict_aif`'s raw sum with one direction d: the steering
    kernel over order-1 rows at wavenumber k.  The integral is composite
    Gauss-Legendre in k, one 8-point panel per oscillation period of the
    integrand at the farthest grid point; each node k_q has its own direction
    count P(k_q).
    """
    k_list = np.asarray(k_list, dtype=float)
    if k_list.size < 2:
        raise InputMismatchError("mif (multi-frequency predictor) needs at least 2 wavenumbers")
    if np.any(np.diff(k_list) <= 0.0) or not np.all((k_list > 0.0) & np.isfinite(k_list)):
        raise DomainError("wavenumbers must be finite, positive and strictly increasing")
    k1, kF = float(k_list[0]), float(k_list[-1])
    check_scaled_scene(scene, kF)
    d = unit_vectors(_finite("incident angle", [incident_angle]))
    rmax = _grid_reach(scene, grid)
    _n_directions(kF, rmax)  # refuses a far geometry before the panels are sized
    n_panels = max(1, int(math.ceil((kF - k1) * rmax / (2.0 * math.pi))))
    raw = np.zeros(grid.shape, dtype=complex)
    for kq, wq in zip(*_gauss_legendre_panels(k1, kF, n_panels)):
        n_dirs = _n_directions(kq, rmax)
        raw += (wq / n_dirs) * _steered_sum(kq, _order1_rows(scene, kq, d, n_dirs), d, grid)
    return IndicatorMap.from_raw(grid, np.abs(raw))
