"""Reference quantities from the paper, for the tests to compare against.

No command calls these.  The direction sums, the Jacobi-Anger series and the
Lambda = J0^2 + J1^2 envelope are the identities behind the closed forms of
`crackdsm.asymptotic`; acceptance criteria 01, 02 and 10b check them.  The
benchmark scene is read from ``scenes/three_cracks.txt``, its one source.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
from scipy.special import j0, j1, jv

from crackdsm.errors import DomainError
from crackdsm.imaging import observation_directions
from crackdsm.io import read_scene
from crackdsm.scene import Scene

SCENE_FILE = Path(__file__).resolve().parent.parent / "scenes" / "three_cracks.txt"


def sample_scene(l1=0.05, l2=0.05, l3=0.05):
    """The three-crack benchmark scene with half-lengths l1, l2 and l3."""
    cracks = read_scene(SCENE_FILE).cracks
    return Scene(tuple(dataclasses.replace(c, half_length=h)
                       for c, h in zip(cracks, (l1, l2, l3))))


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
