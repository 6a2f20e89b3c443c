"""Full-wave far-field generation for sound-soft straight cracks.

Each crack is parameterized over [-1, 1]; the single-layer density is written
as psi(sigma)/sqrt(1 - sigma^2) so the endpoint square-root singularity is
explicit, and psi is collocated at Chebyshev points.  The logarithmic part of
the Hankel kernel is integrated exactly against the Chebyshev weight via the
identities

    int ln|s - t| T_0(t)/sqrt(1-t^2) dt = -pi ln 2
    int ln|s - t| T_m(t)/sqrt(1-t^2) dt = -pi T_m(s)/m   (m >= 1),

which makes the scheme spectrally accurate; cross-crack blocks are smooth and
use plain Gauss-Chebyshev quadrature.  On a self block z = kh|sigma_i - sigma_j|
and ln z - ln(kh) = ln|sigma_i - sigma_j|, so the block needs no per-k
logarithm: the quadrature matrix and the table of node log-gaps depend on n
alone and are built once per n (read-only), and a block depends only on k, h
and n, so cracks of equal half-length share one.  Blocks are written straight
into a Fortran-ordered system matrix, which LU with partial pivoting factors in
place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve
from scipy.special import j0 as sp_j0, y0 as sp_y0

from .errors import DomainError, InputMismatchError, SolverError
from .imaging import observation_directions
from .scene import crack_tangent, require_valid

_EULER_GAMMA = 0.5772156649015328606
_RCOND_FLOOR = 1e-13


@dataclass(frozen=True)
class QuadratureSpec:
    """Collocation/quadrature density per crack."""

    nodes_per_crack: int = 64

    def __post_init__(self):
        n = self.nodes_per_crack
        if n < 8 or n % 2 != 0:
            raise DomainError(f"nodes_per_crack must be even and >= 8, got {n}")


@dataclass(frozen=True)
class AcquisitionConfig:
    """Wavenumbers, observation count, and incident-direction angles."""

    wavenumbers: tuple
    n_obs: int
    incident_angles: tuple

    def __post_init__(self):
        ks = tuple(float(k) for k in self.wavenumbers)
        angs = tuple(float(a) for a in self.incident_angles)
        if len(ks) < 1 or not all(0 < k < math.inf for k in ks):
            raise DomainError("wavenumbers must be finite and positive")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise DomainError("wavenumbers must be strictly increasing")
        if self.n_obs < 8:
            raise DomainError("need at least 8 observation directions")
        if len(angs) < 1:
            raise DomainError("need at least one incident direction")
        if not all(math.isfinite(a) for a in angs):
            raise DomainError("incident angles must be finite")
        object.__setattr__(self, "wavenumbers", ks)
        object.__setattr__(self, "incident_angles", angs)

    @property
    def n_freq(self):
        return len(self.wavenumbers)

    @property
    def n_incident(self):
        return len(self.incident_angles)

    def incident_directions(self):
        a = np.asarray(self.incident_angles)
        return np.column_stack([np.cos(a), np.sin(a)])

    def observation_directions(self):
        return observation_directions(self.n_obs)


@dataclass
class FarFieldTensor:
    """Complex far-field values indexed [frequency, incident, observation]."""

    values: np.ndarray
    config: AcquisitionConfig

    def __post_init__(self):
        expected = (self.config.n_freq, self.config.n_incident, self.config.n_obs)
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != expected:
            raise InputMismatchError(
                f"tensor shape {self.values.shape} does not match config {expected}")
        if not np.all(np.isfinite(self.values.view(float))):
            raise InputMismatchError("tensor entries must be finite")


def _chebyshev_nodes(n):
    """Interior Chebyshev points cos((2i-1)pi/2n) with their angles."""
    ang = (2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n)
    return np.cos(ang), ang


@functools.lru_cache(maxsize=None)
def _log_quadrature_matrix(n):
    """W with W[i,j] ~ int ln|sigma_i - t| ell_j(t)/sqrt(1-t^2) dt (read-only).

    Built from the discrete cosine transform of the cardinal functions and
    the exact Chebyshev log integrals.
    """
    _, ang = _chebyshev_nodes(n)
    m = np.arange(1, n)
    cos_i = np.cos(np.outer(ang, m))            # T_m(sigma_i)
    cos_j = np.cos(np.outer(m, ang))            # DCT factors
    w = np.full((n, n), -math.pi * math.log(2.0) / n)
    w -= math.pi * (cos_i / m) @ (2.0 * cos_j / n)
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=None)
def _node_gaps(n):
    """|sigma_i - sigma_j| and ln|sigma_i - sigma_j|, 0 on the diagonal (read-only)."""
    sigma, _ = _chebyshev_nodes(n)
    gaps = np.abs(sigma[:, None] - sigma[None, :])
    log_gaps = np.log(gaps + np.eye(n))
    gaps.flags.writeable = log_gaps.flags.writeable = False
    return gaps, log_gaps


class CrackSystem:
    """Factorized boundary system for one scene at one wavenumber.

    ``points`` holds the (m*n, 2) nodes, crack p owning rows p*n to (p+1)*n;
    ``rcond`` is LAPACK's reciprocal 1-norm condition estimate (1 if empty).
    """

    def __init__(self, scene, k, quad=QuadratureSpec()):
        require_valid(scene, k)
        self.scene = scene
        self.k = float(k)
        self.n = quad.nodes_per_crack
        self.m_cracks = len(scene.cracks)
        sigma, _ = _chebyshev_nodes(self.n)
        self.points = np.array([
            np.asarray(c.center) + c.half_length * np.outer(sigma, crack_tangent(c))
            for c in scene.cracks]).reshape(-1, 2)
        self.rcond = 1.0
        if self.m_cracks == 0:
            return
        self._factor(_log_quadrature_matrix(self.n))

    def _self_block(self, crack, logmat):
        """h [(ln-gap/2n - W/2pi) J0(z) - (pi/4n) Y0(z) + i (pi/4n) J0(z)].

        This is the product quadrature of (i/4) H0(z), z = kh|sigma_i - sigma_j|,
        with its ln z J0(z)/2pi part taken against W.  Y0 is -inf on the
        diagonal, which is overwritten with the z -> 0 limit
        h [-W_ii/2pi - (ln(kh/2) + gamma)/2n + i pi/4n].
        """
        k, n, half = self.k, self.n, crack.half_length
        gaps, log_gaps = _node_gaps(n)
        z = (k * half) * gaps
        j0 = sp_j0(z)
        c = math.pi / (4.0 * n)
        block = np.empty((n, n), dtype=complex)
        block.real = (log_gaps / (2.0 * n) - logmat / (2.0 * math.pi)) * j0 - c * sp_y0(z)
        block.imag = c * j0
        np.fill_diagonal(block, np.diag(logmat) / (-2.0 * math.pi)
                         - (math.log(k * half / 2.0) + _EULER_GAMMA) / (2.0 * n) + 1j * c)
        block *= half
        return block

    def _factor(self, logmat):
        n, mc, cracks = self.n, self.m_cracks, self.scene.cracks
        pts = self.points.reshape(mc, n, 2)
        a = np.empty((mc * n, mc * n), dtype=complex, order="F")
        re, im = a.real, a.imag
        c = math.pi / (4.0 * n)
        blocks = {}
        for p in range(mc):
            rows = slice(p * n, (p + 1) * n)
            half = cracks[p].half_length
            if half not in blocks:
                blocks[half] = self._self_block(cracks[p], logmat)
            a[rows, rows] = blocks[half]
            for q in range(p + 1, mc):
                # H0(k|x_i - y_j|) is symmetric in the two nodes, so block
                # (q, p) is block (p, q) transposed; each block carries the
                # quadrature weight (pi h/n)(i/4) of its column crack, so its
                # real part is -c h Y0 and its imaginary part c h J0.
                cols = slice(q * n, (q + 1) * n)
                (xp, yp), (xq, yq) = pts[p].T, pts[q].T
                kr = self.k * np.hypot(xp[:, None] - xq, yp[:, None] - yq)
                j0, y0 = sp_j0(kr), sp_y0(kr)
                cq, cp = c * cracks[q].half_length, c * half
                np.multiply(y0, -cq, out=re[rows, cols])
                np.multiply(j0, cq, out=im[rows, cols])
                np.multiply(y0.T, -cp, out=re[cols, rows])
                np.multiply(j0.T, cp, out=im[cols, rows])
        anorm = np.linalg.norm(a, 1)
        try:
            self._lu = lu_factor(a, overwrite_a=True)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise SolverError(f"boundary system factorization failed: {exc}") from exc
        gecon = get_lapack_funcs(("gecon",), (a,))[0]
        rcond, info = gecon(self._lu[0], anorm, norm="1")
        if info != 0 or not rcond > _RCOND_FLOOR:
            est = 1.0 / rcond if rcond > 0 else math.inf
            raise SolverError(
                f"boundary system too ill-conditioned (cond ~ {est:.3e})",
                condition_estimate=est)
        self.rcond = float(rcond)

    def far_field(self, d, n_obs):
        """Far-field pattern at the N uniform observation directions.

        ``d`` is one unit incident direction, shape (2,), giving shape (N,),
        or L of them, shape (L, 2), giving (L, N); the L directions share one
        multi-right-hand-side solve and one phase product.
        """
        d = np.asarray(d, dtype=float)
        dirs = d.reshape(-1, 2)
        out = np.zeros((len(dirs), n_obs), dtype=complex)
        if self.m_cracks:
            psi = lu_solve(self._lu, -np.exp(1j * self.k * (self.points @ dirs.T)))
            weights = np.repeat([c.half_length * math.pi / self.n for c in self.scene.cracks],
                                self.n)
            theta = observation_directions(n_obs)
            phases = np.exp(-1j * self.k * (theta @ self.points.T))      # (N, m*n)
            out = (phases @ (weights[:, None] * psi)).T
            out *= (1.0 + 1j) / (4.0 * math.sqrt(math.pi * self.k))
        return out if d.ndim == 2 else out[0]


def far_field_tensor(scene, config, quad=QuadratureSpec()):
    """Full-solver tensor over all (wavenumber, incident direction) pairs.

    One factorization and one multi-direction solve per wavenumber.
    """
    dirs = config.incident_directions()
    values = [CrackSystem(scene, k, quad).far_field(dirs, config.n_obs)
              for k in config.wavenumbers]
    return FarFieldTensor(np.array(values), config)


def reciprocity_residual(scene, k, config, quad=QuadratureSpec()):
    """max |psi_inf(theta_n, d_l) - psi_inf(-d_l, -theta_n)|.

    Requires the incident set to equal the observation set (L = N, d_l =
    theta_l); measures discretization error since reciprocity is exact in the
    continuum.
    """
    if config.n_incident != config.n_obs:
        raise InputMismatchError("reciprocity check needs L = N")
    obs = config.observation_directions()
    inc = config.incident_directions()
    if not np.allclose(obs, inc, atol=1e-12):
        raise InputMismatchError("reciprocity check needs d_l = theta_l")
    if len(scene.cracks) == 0:
        return 0.0
    n = config.n_obs
    if n % 2 != 0:
        raise InputMismatchError("reciprocity check needs an even N")
    system = CrackSystem(scene, k, quad)
    fwd = system.far_field(inc, n)     # fwd[l, m] = psi_inf(theta_m, d_l)
    rev = system.far_field(-obs, n)    # rev[m, l] = psi_inf(theta_l, -theta_m)
    # -d_l = theta_{l + N/2}, so psi_inf(-d_l, -theta_m) = rev[m, l + N/2].
    return float(np.max(np.abs(fwd - np.roll(rev, -(n // 2), axis=1).T)))
