"""Full-wave far-field generation for sound-soft straight cracks.

Each crack is parameterized over [-1, 1]; the single-layer density is written
as psi(sigma)/sqrt(1 - sigma^2) so the endpoint square-root singularity is
explicit, and psi is collocated at Chebyshev points.  The logarithmic part of
the Hankel kernel is integrated exactly against the Chebyshev weight via the
identities

    int ln|s - t| T_0(t)/sqrt(1-t^2) dt = -pi ln 2
    int ln|s - t| T_m(t)/sqrt(1-t^2) dt = -pi T_m(s)/m   (m >= 1),

which makes the scheme spectrally accurate.  On a self block
z = kh|sigma_i - sigma_j| and ln z - ln(kh) = ln|sigma_i - sigma_j|, so the
block needs no per-k logarithm: the quadrature matrix and the table of node
log-gaps depend on n alone and are built once per n (read-only), and a block
depends only on k, h and n, so cracks of equal half-length share one.  The
nodes are symmetric, sigma_{n+1-i} = -sigma_i, and n is even, so a self block
is centrosymmetric: J D J = D, J the reversal.  Its top n/2 rows are built and
the rest reflected, and it is factored as the two n/2 blocks A + CJ and A - CJ
it is orthogonally similar to (A, C its top-left and top-right quarters; the
even/odd reduction of Cantoni and Butler, Linear Algebra Appl. 13, 1976).

Cross-crack blocks use plain Gauss-Chebyshev quadrature.  Their kernel is
smooth on separated cracks, so block (p, q) is U_p M_pq U_q^T to round-off:
M_pq samples it at m_p x m_q coarse Chebyshev nodes, and U_p interpolates
from crack p's m_p coarse nodes to its n nodes.  m_p is chosen from the data
(`CrackSystem._basis_sizes`) and is at most n.  The system A = D + U M U^T,
with D the self blocks, is solved by the Woodbury identity through the
split self-block LUs and one LU of a small capacitance matrix.

A plane wave along a straight crack, e^{i k h sigma t.d}, is an entire function
of sigma with Chebyshev coefficients 2 i^j J_j(k h t.d) (Jacobi-Anger), so m_p
is also at least the size at which every such wave interpolates from the
coarse nodes to within 2^-53 (`_wave_size`).  The incident data and the
observed waves are then U g for their coarse samples g, and the far field is
evaluated in the coarse space: one solve with the capacitance LU per system
and no exponential at the n nodes (`CrackSystem.far_field`).

Every block carries the weight h_q of its column crack and the kernel is
symmetric, so A = S H with S complex-symmetric and H = diag(h), h the half-length
of each node's crack: A^-T = H A^-1 H^-1, and one Woodbury solve serves A and A^T.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.special import j0 as sp_j0, y0 as sp_y0

from .errors import DomainError, InputMismatchError, SolverError
from .imaging import AcquisitionConfig, FarFieldTensor, observation_directions
from .scene import crack_tangent, require_valid

_EULER_GAMMA = 0.5772156649015328606
_RCOND_FLOOR = 1e-13
_FIRST_RANK = 16         # first coarse size tried per crack
_TAIL_TOL = 1e-13        # Chebyshev tail that counts as resolved; round-off stalls near 2e-15
_LOG_WAVE_TOL = -53.0 * math.log(2.0)   # log of the plane-wave interpolation error allowed
_SAFE_MIN = np.finfo(float).tiny


@dataclass(frozen=True)
class QuadratureSpec:
    """Collocation/quadrature density per crack."""

    nodes_per_crack: int = 64

    def __post_init__(self):
        n = self.nodes_per_crack
        if n < 8 or n % 2 != 0:
            raise DomainError(f"nodes_per_crack must be even and >= 8, got {n}")


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


@functools.lru_cache(maxsize=None)
def _dct_matrix(m):
    """T with T @ f the Chebyshev coefficients of the interpolant through f
    at the m Chebyshev points (read-only)."""
    _, ang = _chebyshev_nodes(m)
    t = np.cos(np.outer(np.arange(m), ang)) * (2.0 / m)
    t[0] *= 0.5
    t.flags.writeable = False
    return t


@functools.lru_cache(maxsize=None)
def _interpolation_matrix(n, m):
    """U with U[i, a] = ell_a(sigma_i), ell_a the cardinal functions of the m
    Chebyshev points: U @ f interpolates f onto the n nodes (read-only)."""
    _, ang = _chebyshev_nodes(n)
    u = np.cos(np.outer(ang, np.arange(m))) @ _dct_matrix(m)
    u.flags.writeable = False
    return u


def _wave_size(n, kh):
    """Smallest m = _FIRST_RANK 2^j whose m Chebyshev points interpolate every
    plane wave e^{i a sigma}, |a| <= kh, to within 2^-53; n if that is n or more.

    The Chebyshev coefficients of e^{i a sigma} are 2 i^j J_j(a) (Jacobi-Anger)
    and |J_j(a)| <= (a/2)^j / j!.  Interpolation at m points aliases the
    coefficients of degree j >= m onto lower degrees, so the error is at most
    4 sum_{j>=m} (kh/2)^j / j! <= 4 (kh/2)^m / (m! (1 - r)), r = kh / 2(m + 1),
    evaluated in logs so that no n or kh overflows.
    """
    m = _FIRST_RANK
    while m < n:
        r = kh / (2.0 * (m + 1))
        if r < 1.0 and (math.log(4.0) + m * math.log(kh / 2.0) - math.lgamma(m + 1)
                        - math.log1p(-r)) < _LOG_WAVE_TOL:
            break
        m *= 2
    return min(m, n)


def _crack_nodes(crack, m):
    """The m Chebyshev points on a crack, shape (m, 2)."""
    sigma, _ = _chebyshev_nodes(m)
    return np.asarray(crack.center) + crack.half_length * np.outer(sigma, crack_tangent(crack))


def _i_hankel0(z):
    """i H0(z) = -Y0(z) + i J0(z), the only evaluation of J0 and Y0 in this module."""
    out = np.empty(np.shape(z), dtype=complex)
    out.real = -sp_y0(z)
    out.imag = sp_j0(z)
    return out


def _cross_kernel(k, x, y):
    """i H0(k|x_i - y_j|) = -Y0 + i J0 between two node sets of shape (., 2);
    SolverError where two nodes coincide, as Y0 is infinite there."""
    kr = k * np.hypot(x[:, 0, None] - y[:, 0], x[:, 1, None] - y[:, 1])
    if not kr.all():
        i = np.nonzero(kr == 0.0)[0][0]
        raise SolverError(f"nodes of two cracks coincide at ({x[i, 0]:.6g}, {x[i, 1]:.6g}); "
                          "try another --quad-nodes")
    return _i_hankel0(kr)


def _chebyshev_tail(kern):
    """Largest Chebyshev coefficient of the (m, m) samples in the last quarter
    of rows or columns, over the largest coefficient."""
    t = _dct_matrix(len(kern))
    coef = np.abs(t @ kern @ t.T)
    q = 3 * len(kern) // 4
    return max(coef[q:].max(), coef[:, q:].max()) / coef.max()


def _pairs(m):
    """The crack pairs (p, q), p < q."""
    return [(p, q) for p in range(m) for q in range(p + 1, m)]


def _real_left(u, z):
    """u @ z for real u and complex z as one real product over z's (re, im) pairs."""
    z = np.ascontiguousarray(z)
    return (u @ z.view(float).reshape(len(z), -1)).view(complex)


def _split_factor(block):
    """LUs of A + CJ and A - CJ for a centrosymmetric block [[A, C], [JCJ, JAJ]]
    of even size."""
    h = len(block) // 2
    a, cj = block[:h, :h], block[:h, h:][:, ::-1]
    return lu_factor(a + cj, check_finite=False), lu_factor(a - cj, check_finite=False)


def _split_solve(lus, b):
    """D^-1 b, ``lus`` being `_split_factor(D)`: with y+- the solutions of
    (A +- CJ) y+- = b_top +- J b_bottom, x_top = (y+ + y-)/2 and
    x_bottom = J (y+ - y-)/2."""
    h = len(b) // 2
    top, bottom = b[:h], b[h:][::-1]
    y_plus = lu_solve(lus[0], top + bottom)
    y_minus = lu_solve(lus[1], top - bottom)
    x = np.concatenate([y_plus + y_minus, (y_plus - y_minus)[::-1]])
    x *= 0.5
    return x


class CrackSystem:
    """Factorized boundary system A = D + U M U^T for one scene at one wavenumber.

    ``points`` holds the (m*n, 2) nodes, crack p owning rows p*n to (p+1)*n.
    D holds the self blocks, each centrosymmetric and factored as two n/2
    blocks (`_split_factor`), U = blockdiag(U_p) the per-crack interpolation
    bases and M the cross kernel at the coarse nodes.  Solves go through the
    Woodbury identity, those with A^T too: A = S H gives A^-T = H A^-1 H^-1,
    H = diag(h) the per-node half-lengths.  The far field solves with the
    capacitance LU alone: its data lie in the range of U, so it is evaluated
    at the coarse nodes, held in the order of the capacitance rows (grouped
    by half-length and basis size, not by crack).  ``rcond`` is
    1/(||A||_1 est ||A^-1||_1), with ||A||_1 exact and ||A^-1||_1 a
    Hager-Higham estimate (1 if the scene is empty), whose sign vectors are
    not smooth and so go through the full Woodbury solve.
    """

    def __init__(self, scene, k, quad=QuadratureSpec()):
        require_valid(scene, k)
        self.scene = scene
        self.k = float(k)
        self.n = quad.nodes_per_crack
        self.m_cracks = len(scene.cracks)
        self.points = np.array([_crack_nodes(c, self.n) for c in scene.cracks]).reshape(-1, 2)
        self._h = np.repeat([c.half_length for c in scene.cracks], self.n)
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

        The node gaps and W are unchanged by reversing rows and columns
        together, so the block is centrosymmetric: only its top n/2 rows are
        evaluated, and the bottom ones are their reflection, exactly.
        """
        k, n, half = self.k, self.n, crack.half_length
        h = n // 2
        gaps, log_gaps = (table[:h] for table in _node_gaps(n))
        c = math.pi / (4.0 * n)
        top = _i_hankel0((k * half) * gaps)
        top.real = (log_gaps / (2.0 * n) - logmat[:h] / (2.0 * math.pi)) * top.imag + c * top.real
        top.imag *= c
        np.fill_diagonal(top, np.diag(logmat)[:h] / (-2.0 * math.pi)
                         - (math.log(k * half / 2.0) + _EULER_GAMMA) / (2.0 * n) + 1j * c)
        top *= half
        return np.concatenate([top, top[::-1, ::-1]])

    def _basis_sizes(self):
        """Basis size m_p per crack: the largest its pairs need, and at least
        the size at which its plane waves interpolate exactly.

        Block (p, q) is c h_q K(x_i, y_j), K = i H0(k|x - y|), on a tensor grid
        of a smooth kernel, so it equals U_p M_pq U_q^T with M_pq = c h_q K at
        the coarse nodes once the Chebyshev coefficients of the m x m samples
        of K have a negligible tail.  m doubles from _FIRST_RANK; a pair still
        unresolved below n takes n.  The far field is evaluated in the coarse
        space, so every incident and observed wave e^{ik d.x} must equal its
        interpolant U_p g to within 2^-53: `_wave_size` at k h_p.  A lone
        crack takes that size alone; its rows of M are zero, so its
        capacitance block is I.  A size of n is exact, as U_p = I.
        """
        n, cracks = self.n, self.scene.cracks
        sizes = [_wave_size(n, self.k * crack.half_length) for crack in cracks]
        for p, q in _pairs(self.m_cracks):
            m = _FIRST_RANK
            while m < n:
                kern = _cross_kernel(self.k, _crack_nodes(cracks[p], m), _crack_nodes(cracks[q], m))
                if _chebyshev_tail(kern) < _TAIL_TOL:
                    break
                m *= 2
            sizes[p], sizes[q] = max(sizes[p], min(m, n)), max(sizes[q], min(m, n))
        return sizes

    def _factor(self, logmat):
        n, mc, cracks = self.n, self.m_cracks, self.scene.cracks
        sizes = self._basis_sizes()
        # Cracks of one half-length and basis size share D_p, U_p and their
        # LU; each such group owns one contiguous slice of the coarse unknowns.
        members = {}
        for p, crack in enumerate(cracks):
            members.setdefault((crack.half_length, sizes[p]), []).append(p)
        rows, slices, offset = [None] * mc, [], 0
        for (_, m), group in members.items():
            for i, p in enumerate(group):
                rows[p] = slice(offset + i * m, offset + (i + 1) * m)
            slices.append(slice(offset, rows[group[-1]].stop))
            offset = slices[-1].stop
        bases = [_interpolation_matrix(n, m) for m in sizes]
        nodes = [_crack_nodes(crack, m) for crack, m in zip(cracks, sizes)]
        # The coarse nodes and their far-field weights h pi/n, in the order of
        # the capacitance rows.
        self._coarse, self._weights = np.empty((offset, 2)), np.empty(offset)
        for p, crack in enumerate(cracks):
            self._coarse[rows[p]] = nodes[p]
            self._weights[rows[p]] = crack.half_length * math.pi / n
        cap = np.zeros((offset, offset), dtype=complex, order="F")
        c = math.pi / (4.0 * n)
        colsum = np.zeros((mc, n))
        for p, q in _pairs(mc):
            # H0(k|x_i - y_j|) is symmetric in the two nodes, so M_qp is the
            # transpose of M_pq up to the quadrature weight c h of its column crack;
            # |U_p K U_q^T| sums by columns into crack q's column sums, by rows into p's.
            kern = _cross_kernel(self.k, nodes[p], nodes[q])
            np.multiply(kern, c * cracks[q].half_length, out=cap[rows[p], rows[q]])
            np.multiply(kern.T, c * cracks[p].half_length, out=cap[rows[q], rows[p]])
            block = np.abs(_real_left(bases[p], _real_left(bases[q], kern.T).T))
            colsum[q] += c * cracks[q].half_length * block.sum(axis=0)
            colsum[p] += c * cracks[p].half_length * block.sum(axis=1)
        # Woodbury: A^-1 = D^-1 - D^-1 U M C^-1 U^T D^-1 with the capacitance
        # matrix C = I + U^T D^-1 U M.
        self._groups, blocks, lus = [], {}, {}
        for ((half, m), group), gslice in zip(members.items(), slices):
            if half not in blocks:
                blocks[half] = self._self_block(cracks[group[0]], logmat)
                lus[half] = _split_factor(blocks[half])
            colsum[group] += np.abs(blocks[half]).sum(axis=0)
            basis, lu = bases[group[0]], lus[half]
            v = _split_solve(lu, basis)                                      # D_p^-1 U_p
            b = _real_left(basis.T, v)                                       # B_p = U_p^T D_p^-1 U_p
            m_rows = cap[gslice].copy()
            cap[gslice] = np.matmul(b, m_rows.reshape(len(group), m, -1)).reshape(len(m_rows), -1)
            cap[gslice, gslice] += np.eye(len(m_rows))
            self._groups.append((group, gslice, basis, lu, v, b, m_rows))
        self._cap = lu_factor(cap, overwrite_a=True, check_finite=False)
        rcond = 1.0 / (colsum.max() * self._inverse_norm_estimate())
        if not rcond > _RCOND_FLOOR:
            est = 1.0 / rcond if rcond > 0 else math.inf
            raise SolverError(
                f"boundary system too ill-conditioned (cond ~ {est:.3e})",
                condition_estimate=est)
        self.rcond = float(rcond)

    def _solve(self, f):
        """A^-1 f for f of shape (m*n,), through the Woodbury identity; the
        cracks of a group share each self-block solve, one column each."""
        f = f.reshape(self.m_cracks, self.n)
        b = np.empty(len(self._cap[0]), dtype=complex)
        ys = []
        for group, gslice, basis, lu, *_ in self._groups:
            ys.append(_split_solve(lu, f[group].T))                      # (n, g)
            b[gslice] = _real_left(basis.T, ys[-1]).T.reshape(-1)
        x = lu_solve(self._cap, b)
        psi = np.empty(f.shape, dtype=complex)
        for (group, _, _, _, v, _, m_rows), y in zip(self._groups, ys):
            psi[group] = (y - v @ (m_rows @ x).reshape(len(group), -1).T).T
        return psi.reshape(-1)

    def _inverse_norm_estimate(self):
        """Hager-Higham lower bound on ||A^-1||_1, the iteration of LAPACK xLACN2.

        Up to five solves with A and four with A^H, all through `_solve`.  The
        iteration starts from xLACN2's alternating-sign vector
        (-1)^i (1 + i/(n-1)), scaled to unit 1-norm, not from the uniform
        vector: on unequal half-lengths the uniform start stops at a local
        maximum near 0.65 of ||A^-1||_1.
        """
        size = len(self.points)

        def adjoint_sign(y):
            """|A^-H sign(y)| = |H A^-1 H^-1 conj sign(y)|, with sign(0) = 1 as in xLACN2."""
            a = np.abs(y)
            s = np.divide(y, a, out=np.ones_like(y), where=a > _SAFE_MIN)
            return np.abs(self._h * self._solve(s.conj() / self._h))

        alt = (1.0 + np.arange(size) / (size - 1)) * (-1.0) ** np.arange(size)
        y = self._solve((alt / np.abs(alt).sum()).astype(complex))
        est = np.abs(y).sum()
        j = int(np.argmax(adjoint_sign(y)))
        for _ in range(4):
            y = self._solve(np.eye(1, size, j, dtype=complex)[0])
            new = np.abs(y).sum()
            if new <= est:
                break
            est = new
            z = adjoint_sign(y)
            last, j = j, int(np.argmax(z))
            if z[last] == z[j]:
                break
        return est

    def far_field(self, d, n_obs):
        """Far-field pattern at the N uniform observation directions.

        ``d`` is one unit incident direction, shape (2,), giving shape (N,),
        or L of them, shape (L, 2), giving (L, N); the L directions share one
        multi-right-hand-side solve and one phase product.

        It is evaluated in the coarse space.  The basis sizes make every plane
        wave its interpolant, so the data are f = U g with g = -e^{ik d.y} at
        the coarse nodes y, and the observed waves are U e^{-ik theta.y}.  By
        Woodbury, A^-1 U g = V (g - M z) with V = D^-1 U, B = U^T D^-1 U and
        z = C^-1 B g, and B (g - M z) = z as C = I + B M.  As U^T V = B, the
        quadrature sum of (h pi/n) e^{-ik theta.x_j} psi_j over the n nodes is
        the sum of (h pi/n) e^{-ik theta.y} z over the coarse nodes: one solve
        with the capacitance LU and (sum of m_p)(L + N) exponentials.
        """
        d = np.asarray(d, dtype=float)
        dirs = d.reshape(-1, 2)
        out = np.zeros((len(dirs), n_obs), dtype=complex)
        if self.m_cracks:
            bg = -np.exp(1j * self.k * (self._coarse @ dirs.T))
            for group, gslice, _, _, _, b, _ in self._groups:
                bg[gslice] = np.matmul(b, bg[gslice].reshape(len(group), len(b), -1)).reshape(
                    -1, len(dirs))
            z = lu_solve(self._cap, bg)
            theta = observation_directions(n_obs)
            phases = np.exp(-1j * self.k * (theta @ self._coarse.T))     # (N, sum of m_p)
            out = (phases @ (self._weights[:, None] * z)).T
            out *= (1.0 + 1j) / (4.0 * math.sqrt(math.pi * self.k))
        return out if d.ndim == 2 else out[0]


def far_field_tensor(scene, config: AcquisitionConfig, quad=QuadratureSpec()):
    """Full-solver tensor over all (wavenumber, incident direction) pairs.

    One factorization and one multi-direction solve per wavenumber.
    """
    dirs = config.incident_directions()
    values = [CrackSystem(scene, k, quad).far_field(dirs, config.n_obs)
              for k in config.wavenumbers]
    return FarFieldTensor(np.array(values), config)


def reciprocity_residual(scene, k, config: AcquisitionConfig, quad=QuadratureSpec()):
    """max |psi_inf(theta_n, d_l) - psi_inf(-d_l, -theta_n)|.

    Requires the incident set to equal the observation set (L = N, d_l =
    theta_l); measures discretization error since reciprocity is exact in the
    continuum.
    """
    if config.n_incident != config.n_obs:
        raise InputMismatchError("reciprocity check needs L = N")
    obs = observation_directions(config.n_obs)
    inc = config.incident_directions()
    if not np.allclose(obs, inc, atol=1e-12):
        raise InputMismatchError("reciprocity check needs d_l = theta_l")
    n = config.n_obs
    if n % 2 != 0:
        raise InputMismatchError("reciprocity check needs an even N")
    # One solve for both direction sets: fwd[l, m] = psi_inf(theta_m, d_l)
    # and rev[m, l] = psi_inf(theta_l, -theta_m).
    fwd, rev = np.split(CrackSystem(scene, k, quad).far_field(np.vstack([inc, -obs]), n), 2)
    # -d_l = theta_{l + N/2}, so psi_inf(-d_l, -theta_m) = rev[m, l + N/2].
    return float(np.max(np.abs(fwd - np.roll(rev, -(n // 2), axis=1).T)))
