"""Closed-form far-field generators and indicator-map predictors.

The generators are the small-crack expansions of the far-field pattern (a
logarithmic leading term, plus a tangential-derivative correction at second
order).  The predictors are the matching closed-form shapes of the indicator
maps: J0 combinations for a single direction, J0*Js cosine series for a few
directions, and the band integral of that series over the wavenumbers for
one direction.  The cosine series are summed exactly by the Jacobi-Anger
identity J0(z) + 2 sum_{s>=1} i^s J_s(z) cos(s psi) = e^{iz cos psi}, so both
are sums of J0 times plane waves e^{ik (c_m - x).d}.  The identities behind
these forms (the direction sums, the truncated series and the paper's
Lambda = J0^2 + J1^2 envelope) are test references in ``tests/paper.py``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import j0 as sp_j0, j1 as sp_j1

from .errors import DomainError, InputMismatchError
from .imaging import IndicatorMap, observation_directions, unit_vectors
from .scene import check_scaled_scene, crack_tangent, require_valid


def _log_weight(half_length):
    if not 0.0 < half_length < 2.0:
        raise DomainError(f"half-length must lie in (0, 2), got {half_length}")
    return math.log(half_length / 2.0)


def _equal_half_length(scene):
    ls = {c.half_length for c in scene.cracks}
    if len(ls) != 1:
        raise InputMismatchError("operation requires all cracks to share one half-length")
    return ls.pop()


def farfield_order1(scene, k, d, config):
    """Leading-order far field: sum_m 2*pi/ln(l_m/2) * phase factors.

    One incident direction ``d`` (2,) gives (N,); L directions (L, 2) give (L, N).
    """
    require_valid(scene, k)
    d = np.asarray(d, dtype=float)
    theta = observation_directions(config.n_obs)
    out = np.zeros(d.shape[:-1] + (config.n_obs,), dtype=complex)
    for crack in scene.cracks:
        w = 2.0 * math.pi / _log_weight(crack.half_length)
        c = np.asarray(crack.center)
        out += (w * np.exp(1j * k * (d @ c)))[..., None] * np.exp(-1j * k * theta @ c)
    return out


def farfield_order2(scene, k, d, config):
    """Order-1 term plus the tangential-derivative product correction.

    Requires equal half-lengths; ``d`` is shaped as in `farfield_order1`.
    The correction per crack is
    -pi*l^2 * (ik d.t) e^{ik d.c} * (-ik theta.t) e^{-ik theta.c}.
    """
    half = _equal_half_length(scene)
    d = np.asarray(d, dtype=float)
    theta = observation_directions(config.n_obs)
    out = farfield_order1(scene, k, d, config)
    for crack in scene.cracks:
        c = np.asarray(crack.center)
        t = crack_tangent(crack)
        phase = np.exp(1j * k * (d @ c))[..., None] * np.exp(-1j * k * theta @ c)
        out += -math.pi * half**2 * (1j * k * (d @ t)[..., None]) * (-1j * k * (theta @ t)) * phase
    return out


def _grid_radii(scene, grid):
    """Per-crack offsets (x - c_m) and distances r_m over the flattened grid."""
    pts = grid.points()
    offs = [pts - np.asarray(c.center) for c in scene.cracks]
    # an overflowing distance is inf, and IndicatorMap.from_raw refuses its map
    with np.errstate(over="ignore"):
        return offs, [np.linalg.norm(o, axis=1) for o in offs]


def predict_structure1(scene, k, grid):
    """Single-direction map shape |sum_m J0(k r_m)/ln(l_m/2)|, max-normalized."""
    check_scaled_scene(scene, k)
    _, radii = _grid_radii(scene, grid)
    raw = np.zeros(grid.nx * grid.ny)
    for crack, r in zip(scene.cracks, radii):
        raw += sp_j0(k * r) / _log_weight(crack.half_length)
    return IndicatorMap.from_raw(grid, np.abs(raw))


def structure_fields(scene, k, d, grid):
    """Flattened (Phi1, Phi2) arrays of the two-term map decomposition.

    Phi1 carries the J0 terms with weight (2*pi)^2/ln(l/2); Phi2 the
    direction- and rotation-sensitive J1 terms with weight 2*pi^2*k^2*l^2
    (relative weighting from the structure derivation).  Phi2 is defined as 0
    at exact coincidence x = c_m.
    """
    check_scaled_scene(scene, k)
    half = _equal_half_length(scene)
    d = np.asarray(d, dtype=float)
    offs, radii = _grid_radii(scene, grid)
    phi1 = np.zeros(grid.nx * grid.ny, dtype=complex)
    phi2 = np.zeros(grid.nx * grid.ny, dtype=complex)
    for crack, off, r in zip(scene.cracks, offs, radii):
        c = np.asarray(crack.center)
        t = crack_tangent(crack)
        w1 = (2.0 * math.pi) ** 2 / _log_weight(half)
        phase = np.exp(1j * k * (d @ c))
        phi1 += w1 * phase * sp_j0(k * r)
        with np.errstate(invalid="ignore", divide="ignore"):
            radial_dot = np.where(r > 0.0, (off @ t) / np.where(r > 0.0, r, 1.0), 0.0)
        phi2 += (-2.0 * math.pi**2 * k**2 * half**2 * 1j
                 * (d @ t) * phase * radial_dot * sp_j1(k * r))
    return phi1, phi2


def predict_structure2(scene, k, d, grid):
    """Two-term map |Phi1 + Phi2| normalized; requires equal half-lengths."""
    phi1, phi2 = structure_fields(scene, k, d, grid)
    return IndicatorMap.from_raw(grid, np.abs(phi1 + phi2))


def _j0_plane_waves(scene, ks, weights, dirs, grid):
    """Flattened sum_m w_m sum_q weights_q J0(k_q r_m) sum_l e^{ik_q (c_m - x).d_l}.

    w_m = (2*pi)^2/ln(l_m/2), r_m = |x - c_m| and ``dirs`` the (L, 2) directions d_l.
    """
    offs, radii = _grid_radii(scene, grid)
    raw = np.zeros(grid.nx * grid.ny, dtype=complex)
    for crack, off, r in zip(scene.cracks, offs, radii):
        w = (2.0 * math.pi) ** 2 / _log_weight(crack.half_length)
        for k, wq in zip(ks, weights):
            raw += (w * wq) * sp_j0(k * r) * np.exp(-1j * k * (off @ dirs.T)).sum(axis=1)
    return raw


def predict_aif(scene, k, incident_angles, grid):
    """Few-direction map shape |sum_m w_m J0(k r_m) sum_l e^{ik (c_m - x).d_l}|.

    The plane-wave sum is the J0*Js cosine series
    sum_l [J0 + 2 sum_s i^s J_s(k r_m) cos s(varphi_m - alpha_l)] in closed form.
    """
    check_scaled_scene(scene, k)
    incident_angles = np.asarray(incident_angles, dtype=float)
    if incident_angles.size < 1:
        raise DomainError("need at least one incident angle")
    dirs = unit_vectors(incident_angles)
    return IndicatorMap.from_raw(grid, np.abs(_j0_plane_waves(scene, [k], [1.0], dirs, grid)))


def _gauss_legendre_panels(a, b, n_panels):
    nodes, weights = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(a, b, n_panels + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    return (mid[:, None] + half[:, None] * nodes).ravel(), (half[:, None] * weights).ravel()


def predict_mif(scene, k_list, incident_angle, grid):
    """Multi-frequency map shape |sum_m w_m int_k1^kF J0(k r_m) e^{ik (c_m - x).d} dk|.

    The integrand is the band form of `predict_aif`'s J0*Js cosine series with
    one direction d, summed in closed form.  The integral is composite
    Gauss-Legendre in k, one 8-point panel per oscillation period of the
    integrand at the farthest grid point, which a grid corner attains.
    """
    k_list = np.asarray(k_list, dtype=float)
    if k_list.size < 2:
        raise InputMismatchError("mif (multi-frequency predictor) needs at least 2 wavenumbers")
    if np.any(np.diff(k_list) <= 0.0) or not np.all((k_list > 0.0) & np.isfinite(k_list)):
        raise DomainError("wavenumbers must be finite, positive and strictly increasing")
    k1, kF = float(k_list[0]), float(k_list[-1])
    check_scaled_scene(scene, kF)
    d = unit_vectors([incident_angle])
    corners = np.array([(x, y) for y in (grid.y_min, grid.y_max) for x in (grid.x_min, grid.x_max)])
    with np.errstate(over="ignore"):
        rmax = max((float(np.linalg.norm(corners - c.center, axis=1).max())
                    for c in scene.cracks), default=0.0)
    if not math.isfinite(rmax):
        raise DomainError("grid-to-crack distance overflows")
    n_panels = max(1, int(math.ceil((kF - k1) * rmax / (2.0 * math.pi))))
    ks, weights = _gauss_legendre_panels(k1, kF, n_panels)
    return IndicatorMap.from_raw(grid, np.abs(_j0_plane_waves(scene, ks, weights, d, grid)))
