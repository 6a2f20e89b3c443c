"""Closed-form far-field generators and indicator-map predictors.

The generators are the small-crack expansions of the far-field pattern (a
logarithmic leading term, plus a tangential-derivative correction at second
order).  The predictors are the matching closed-form shapes of the indicator
maps: J0 combinations for a single direction, J0*Js cosine series for a few
directions, and the Lambda = J0^2 + J1^2 envelope difference for a band of
wavenumbers.  The cosine series are summed exactly by the Jacobi-Anger identity
J0(z) + 2 sum_{s>=1} i^s J_s(z) cos(s psi) = e^{iz cos psi}, so only J0, J1 and
plane waves e^{ik (c_m - x).d} remain.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import j0 as sp_j0, j1 as sp_j1

from .errors import DomainError, InputMismatchError
from .imaging import ImagingGrid, IndicatorMap, observation_directions
from .scene import check_wavenumber, crack_tangent, require_valid
from .specfun import lambda_envelope


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
    return offs, [np.linalg.norm(o, axis=1) for o in offs]


def predict_structure1(scene, k, grid):
    """Single-direction map shape |sum_m J0(k r_m)/ln(l_m/2)|, max-normalized."""
    check_wavenumber(k)
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
    check_wavenumber(k)
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


def predict_aif(scene, k, incident_angles, grid):
    """Few-direction map shape |sum_m w_m J0(k r_m) sum_l e^{ik (c_m - x).d_l}|.

    w_m = (2*pi)^2/ln(l_m/2), r_m = |x - c_m| and d_l the incident directions;
    the plane-wave sum is the J0*Js cosine series
    sum_l [J0 + 2 sum_s i^s J_s(k r_m) cos s(varphi_m - alpha_l)] in closed form.
    """
    check_wavenumber(k)
    incident_angles = np.asarray(incident_angles, dtype=float)
    if incident_angles.size < 1:
        raise DomainError("need at least one incident angle")
    dirs = np.column_stack([np.cos(incident_angles), np.sin(incident_angles)])
    offs, radii = _grid_radii(scene, grid)
    raw = np.zeros(grid.nx * grid.ny, dtype=complex)
    for crack, off, r in zip(scene.cracks, offs, radii):
        w = (2.0 * math.pi) ** 2 / _log_weight(crack.half_length)
        plane_waves = np.exp(-1j * k * (off @ dirs.T)).sum(axis=1)
        raw += w * sp_j0(k * r) * plane_waves
    return IndicatorMap.from_raw(grid, np.abs(raw))


def mif_radial_envelope(k1, kF, r):
    """|kF*Lambda(kF r) - k1*Lambda(k1 r)| / (kF - k1), the multi-frequency peak shape.

    Since d/dx[x Lambda(x)] = J0(x)^2 - J1(x)^2, this is the band mean
    |1/(kF - k1) * int_k1^kF (J0(kr)^2 - J1(kr)^2) dk|, which is the ``psi3``
    term of `predict_mif` up to the factor kF - k1.  The J1^2 remainder of the
    band mean of J0^2 is not part of it; it sits in the band integral
    ``psi4``.  In the zero-width limit kF -> k1 = k the envelope tends to
    |J0(kr)^2 - J1(kr)^2|, not to J0(kr)^2.
    """
    if not kF > k1 > 0.0:
        raise DomainError("need 0 < k1 < kF")
    r = np.asarray(r, dtype=float)
    return np.abs(kF * lambda_envelope(kF * r) - k1 * lambda_envelope(k1 * r)) / (kF - k1)


def _gauss_legendre_panels(a, b, n_panels, pts_per_panel=8):
    nodes, weights = np.polynomial.legendre.leggauss(pts_per_panel)
    edges = np.linspace(a, b, n_panels + 1)
    ks, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        ks.append(0.5 * (lo + hi) + half * nodes)
        ws.append(half * weights)
    return np.concatenate(ks), np.concatenate(ws)


def predict_mif(scene, k_list, incident_angle, grid):
    """Multi-frequency map shape: Lambda-envelope difference plus band integral.

    The band integrand J1^2 + 2 sum_{s>=1} i^s J0 J_s cos s(varphi_m - alpha)
    is evaluated in closed form as J1^2 + J0 (e^{ik (c_m - x).d} - J0), with
    composite Gauss-Legendre in k, 8 points per oscillation period of the
    integrand at the farthest grid point.
    """
    k_list = np.asarray(k_list, dtype=float)
    if k_list.size < 2:
        raise InputMismatchError("mif (multi-frequency predictor) needs at least 2 wavenumbers")
    if np.any(np.diff(k_list) <= 0.0) or not np.all((k_list > 0.0) & np.isfinite(k_list)):
        raise DomainError("wavenumbers must be finite, positive and strictly increasing")
    k1, kF = float(k_list[0]), float(k_list[-1])
    d = np.array([math.cos(incident_angle), math.sin(incident_angle)])
    offs, radii = _grid_radii(scene, grid)
    rmax = max(float(r.max()) for r in radii)
    n_panels = max(1, int(math.ceil((kF - k1) * rmax / (2.0 * math.pi))))
    knodes, kweights = _gauss_legendre_panels(k1, kF, n_panels)
    raw = np.zeros(grid.nx * grid.ny, dtype=complex)
    for crack, off, r in zip(scene.cracks, offs, radii):
        w = (2.0 * math.pi) ** 2 / _log_weight(crack.half_length)
        proj = -(off @ d)  # (c_m - x).d
        psi3 = kF * lambda_envelope(kF * r) - k1 * lambda_envelope(k1 * r)
        psi4 = np.zeros(r.size, dtype=complex)
        for kq, wq in zip(knodes, kweights):
            j0, j1 = sp_j0(kq * r), sp_j1(kq * r)
            psi4 += wq * (j1**2 + j0 * (np.exp(1j * kq * proj) - j0))
        raw += w * (psi3 + psi4)
    return IndicatorMap.from_raw(grid, np.abs(raw))


def uniform_direction_sum(n_dirs, k, x):
    """(2*pi/N) sum_n e^{ik theta_n . x}; tends to 2*pi*J0(k|x|)."""
    x = np.asarray(x, dtype=float)
    theta = observation_directions(n_dirs)
    return complex((2.0 * math.pi / n_dirs) * np.sum(np.exp(1j * k * theta @ x)))


def weighted_direction_sum(n_dirs, k, x, phi_vec):
    """(2*pi/N) sum_n (phi.theta_n) e^{ik theta_n . x}.

    Tends to 2*pi*i*(x_hat.phi)*J1(k|x|).
    """
    x = np.asarray(x, dtype=float)
    phi_vec = np.asarray(phi_vec, dtype=float)
    theta = observation_directions(n_dirs)
    vals = (theta @ phi_vec) * np.exp(1j * k * theta @ x)
    return complex((2.0 * math.pi / n_dirs) * np.sum(vals))


def aligned_max_gap(reference, approx):
    """Relative max-norm gap after removing one fitted complex constant.

    Fits alpha minimizing ||reference - alpha*approx||_2 and returns
    max|reference - alpha*approx| / max|reference|.  Used for trend checks
    against the full solver, whose global far-field constant differs from the
    expansion's.
    """
    reference = np.asarray(reference, dtype=complex)
    approx = np.asarray(approx, dtype=complex)
    denom = np.vdot(approx, approx)
    alpha = np.vdot(approx, reference) / denom if abs(denom) > 0 else 0.0
    ref_scale = np.max(np.abs(reference))
    if ref_scale == 0.0:
        return 0.0
    return float(np.max(np.abs(reference - alpha * approx)) / ref_scale)
