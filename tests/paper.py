"""Reference quantities from the paper, for the tests to compare against.

No command calls these.  The direction sums, the Jacobi-Anger series and the
Lambda = J0^2 + J1^2 envelope are the identities behind the closed forms of
`crackdsm.asymptotic`; acceptance criteria 01, 02 and 10b check them.  The
J0/J1 closed forms of the predictors, `structure_fields` and
`j0_plane_wave_sum`, evaluate scipy's Bessel functions directly; the
predictors themselves sum plane waves over observation directions.  The
benchmark scene is read from ``scenes/three_cracks.txt``, its one source.
`format_rows` formats each value with "%.17g" on its own; the map and tensor
writers' encoder must give its bytes exactly.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
from scipy.special import j0, j1, jv

from crackdsm.errors import DomainError
from crackdsm.imaging import Peak, PeakReport, observation_directions
from crackdsm.io import read_scene
from crackdsm.scene import Scene, crack_tangent

SCENE_FILE = Path(__file__).resolve().parent.parent / "scenes" / "three_cracks.txt"


def sample_scene(l1=0.05, l2=0.05, l3=0.05):
    """The three-crack benchmark scene with half-lengths l1, l2 and l3."""
    cracks = read_scene(SCENE_FILE).cracks
    return Scene(tuple(dataclasses.replace(c, half_length=h)
                       for c, h in zip(cracks, (l1, l2, l3))))


def grid_points(grid):
    """The grid's points, shape (ny*nx, 2), row-major with x varying fastest."""
    xx, yy = np.meshgrid(grid.x_coords(), grid.y_coords())
    return np.column_stack([xx.ravel(), yy.ravel()])


def argmax_point(imap):
    """Grid point (x, y) of the map's largest value."""
    iy, ix = np.unravel_index(int(np.argmax(imap.values)), imap.values.shape)
    return np.array([imap.grid.x_coords()[ix], imap.grid.y_coords()[iy]])


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


def structure_fields(scene, k, d, grid):
    """Flattened (Phi1, Phi2) arrays of the two-term map decomposition.

    Phi1 carries the J0 terms with weight (2*pi)^2/ln(l/2); Phi2 the
    direction- and rotation-sensitive J1 terms with weight 2*pi^2*k^2*l^2
    (relative weighting from the structure derivation).  Phi2 is defined as 0
    at exact coincidence x = c_m.  ``predict_structure2`` maps |Phi1 + Phi2|.
    """
    d = np.asarray(d, dtype=float)
    phi1 = np.zeros(grid.nx * grid.ny, dtype=complex)
    phi2 = np.zeros(grid.nx * grid.ny, dtype=complex)
    for crack in scene.cracks:
        c, t, half = np.asarray(crack.center), crack_tangent(crack), crack.half_length
        off = grid_points(grid) - c
        r = np.linalg.norm(off, axis=1)
        phase = np.exp(1j * k * (d @ c))
        phi1 += (2.0 * math.pi) ** 2 / math.log(half / 2.0) * phase * j0(k * r)
        radial_dot = np.where(r > 0.0, (off @ t) / np.where(r > 0.0, r, 1.0), 0.0)
        phi2 += (-2.0 * math.pi**2 * k**2 * half**2 * 1j
                 * (d @ t) * phase * radial_dot * j1(k * r))
    return phi1, phi2


def j0_plane_wave_sum(scene, ks, weights, dirs, grid):
    """Flattened sum_m w_m sum_q weights_q J0(k_q r_m) sum_l e^{ik_q (c_m - x).d_l}.

    w_m = (2*pi)^2/ln(l_m/2), r_m = |x - c_m| and ``dirs`` the (L, 2)
    directions d_l.  One k with d = 0 is the ``predict_structure1`` map, one k
    with L directions ``predict_aif``'s and a band of Gauss-Legendre nodes with
    one direction ``predict_mif``'s.
    """
    dirs = np.asarray(dirs, dtype=float)
    raw = np.zeros(grid.nx * grid.ny, dtype=complex)
    for crack in scene.cracks:
        off = grid_points(grid) - np.asarray(crack.center)
        r = np.linalg.norm(off, axis=1)
        w = (2.0 * math.pi) ** 2 / math.log(crack.half_length / 2.0)
        for k, wq in zip(ks, weights):
            raw += (w * wq) * j0(k * r) * np.exp(-1j * k * (off @ dirs.T)).sum(axis=1)
    return raw


def jacobi_anger(z, phi, terms):
    """Truncated plane-wave expansion J0(z) + 2 sum_{s<=terms} i^s J_s(z) cos(s phi).

    Approximates e^{iz cos(phi)}; with terms = ceil(|z|) + 25 the truncation
    error is below 1e-10 for |z| <= 20 and below 1e-7 for |z| <= 64.
    """
    if terms < 1:
        raise DomainError("truncation order must be >= 1")
    if not math.isfinite(z):
        raise DomainError("argument must be finite")
    s = np.arange(1, int(terms) + 1)
    return complex(j0(z) + 2.0 * np.sum(1j**s * jv(s, z) * np.cos(s * phi)))


def lambda_envelope(x):
    """J0(x)^2 + J1(x)^2 for finite x >= 0; decays like 2/(pi x) at infinity."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (x >= 0.0)):
        raise DomainError("lambda_envelope requires finite x >= 0")
    return j0(x) ** 2 + j1(x) ** 2


def mif_radial_envelope(k1, kF, r):
    """|kF*Lambda(kF r) - k1*Lambda(k1 r)| / (kF - k1), the paper's multi-frequency envelope.

    Since d/dx[x Lambda(x)] = J0(x)^2 - J1(x)^2, this is the band mean
    |1/(kF - k1) * int_k1^kF (J0(kr)^2 - J1(kr)^2) dk|.  `predict_mif` needs no
    envelope: its band integral of J0 times the plane wave holds this term.
    In the zero-width limit kF -> k1 = k it tends to |J0(kr)^2 - J1(kr)^2|,
    not to J0(kr)^2.
    """
    if not kF > k1 > 0.0:
        raise DomainError("need 0 < k1 < kF")
    r = np.asarray(r, dtype=float)
    return np.abs(kF * lambda_envelope(kF * r) - k1 * lambda_envelope(k1 * r)) / (kF - k1)


def leading_far_field(crack, k, d, n_obs):
    """The small-crack leading term of the far field at the N observation
    directions theta_n, for a crack of half-length h centred at c:

        (1+i)/(4 sqrt(pi k)) * 2 pi/(ln(kh/4) + gamma - i pi/2) * e^{ik (d - theta_n).c}.

    (1+i)/(4 sqrt(pi k)) = e^{i pi/4}/sqrt(8 pi k) is the solver's far-field
    prefactor, which the optical-theorem test pins.  The weight is -1 over
    the small-argument Green's function (i/4) H0(kr) ~ i/4 - (ln(kr/2) +
    gamma)/(2 pi) at the segment's capacity radius r = h/2; the paper's
    order1 weight 2 pi/ln(h/2) keeps only ln(h/2) of it.
    """
    c = np.asarray(crack.center)
    theta = observation_directions(n_obs)
    weight = 2.0 * math.pi / (math.log(k * crack.half_length / 4.0) + np.euler_gamma
                              - 0.5j * math.pi)
    return (1 + 1j) / (4.0 * math.sqrt(math.pi * k)) * weight * np.exp(1j * k * (d - theta) @ c)


def direct_axis_tables(coords, w):
    """`imaging._axis_tables` as one complex exponential per axis coordinate
    and column, as it was before the coarse/fine tables: the whole (n, W)
    table as the coarse one and a row of ones as the fine one."""
    return np.exp(1j * np.outer(coords, w)), np.ones((1, len(w)), dtype=complex)


def _distance(p, q):
    dx, dy = p[0] - q[0], p[1] - q[1]
    return math.sqrt(dx * dx + dy * dy)


def loop_local_maxima(imap, min_separation, floor=0.0, scene=None):
    """`imaging.find_local_maxima` with its pruning as one scalar distance
    math.sqrt(dx * dx + dy * dy) per (candidate, kept peak) pair."""
    v = imap.values
    ny, nx = v.shape
    padded = np.full((ny + 2, nx + 2), -np.inf)
    padded[1:-1, 1:-1] = v
    strict = np.ones((ny, nx), dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            strict &= v > padded[1 + dy:1 + dy + ny, 1 + dx:1 + dx + nx]
    iy, ix = np.nonzero(strict & (v >= floor))
    xs, ys = imap.grid.x_coords(), imap.grid.y_coords()
    cand = sorted(zip(iy.tolist(), ix.tolist()), key=lambda p: (-v[p[0], p[1]], p[0], p[1]))
    kept = []
    for gy, gx in cand:
        p = (float(xs[gx]), float(ys[gy]))
        if all(_distance(p, q.position) >= min_separation for q in kept):
            kept.append(Peak(p, float(v[gy, gx])))
    report = PeakReport(peaks=kept)
    if scene is not None:
        for crack in scene.cracks:
            if kept:
                dists = [_distance(crack.center, q.position) for q in kept]
                j = int(np.argmin(dists))
                report.crack_matches.append((crack.center, dists[j], kept[j].value))
            else:
                report.crack_matches.append((crack.center, math.inf, 0.0))
    return report


def format_rows(values):
    r"""The bytes of ",".join("%.17g" % v for v in row) + "\n" for each row of a
    2-D float array, one value at a time, as map files were first written."""
    rows = np.asarray(values, dtype=float).tolist()
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows).encode()
