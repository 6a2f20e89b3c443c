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
gaps and their k-free factors depend on n alone and are built once per n
(read-only), and a block depends only on k, h and n, so cracks of equal
half-length share one.  The nodes are symmetric, sigma_{n+1-i} = -sigma_i,
and n is even, so a self block is centrosymmetric: J D J = D, J the reversal.
It is factored as the two n/2 blocks A + CJ and A - CJ it is orthogonally
similar to (A, C its top-left and top-right quarters; the even/odd reduction
of Cantoni and Butler, Linear Algebra Appl. 13, 1976); only A and CJ are
built, never D.  The kernel and W are symmetric in the two nodes, so A and CJ
are complex-symmetric, with gaps sigma_i - sigma_j and sigma_i + sigma_j over
the top n/2 nodes: the kernel is evaluated once per node pair, n^2/4 values.

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

The condition gate reads one figure built from the factors.  D is
complex-symmetric, so A^-1 = D^-1 - W with W = V M C^-1 V^T, V = D^-1 U, and
||A^-1||_1 <= ||D^-1||_1 + ||W||_1, while ||A||_1 <= ||D||_1 + ||U||_1 ||M||_1
||U||_inf.  A column of D_p^-1 is half the sum and the reflected difference of
columns of (A + CJ)^-1 and (A - CJ)^-1, so ||D_p^-1||_1 <= ||(A + CJ)^-1||_1 +
||(A - CJ)^-1||_1.  Those two norms and ||W||_1 are Hager-Higham estimates
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM 2002,
ch. 15), on the half-block LUs and through V, M and the capacitance LU: the
figure is an estimate, not a guarantee.

Every LU factor and solve calls LAPACK's ZGETRF and ZGETRS (Anderson et al.,
LAPACK Users' Guide, 3rd ed., SIAM 1999) directly, through scipy's builds
looked up once, in this module's own `lu_factor` and `lu_solve`.  They give
scipy.linalg's results, warnings and errors to the bit but take no options:
they never check finiteness, and a factor overwrites an F-ordered matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs
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
# Most nodes per crack.  At 1024 a self block's quarters A and CJ are 8 MiB,
# `_log_quadrature_matrix` caches 8 MiB and `_node_gaps` 8 MiB (4 of index, 4 of
# gaps and factors) for each n used, and the capacitance matrix of m cracks is
# at most (m n)^2 complex values, 16 m^2 MiB.
_MAX_NODES = 1024


@dataclass(frozen=True)
class QuadratureSpec:
    """Collocation/quadrature density per crack."""

    nodes_per_crack: int = 64

    def __post_init__(self):
        n = self.nodes_per_crack
        if n > _MAX_NODES:
            raise DomainError(f"nodes_per_crack must be <= {_MAX_NODES}, got {n}")
        if n < 8 or n % 2 != 0:
            raise DomainError(f"nodes_per_crack must be even and >= 8, got {n}")


# LAPACK's complex LU routines, looked up once.  scipy.linalg's lu_factor and
# lu_solve look them up and wrap them on every call: a solve of 32 unknowns took
# 15.5 us through scipy and 4.0 us here (2-core x86-64 VM).  Both routines take
# and give 0-based pivots.
_GETRF, _GETRS = get_lapack_funcs(("getrf", "getrs"), dtype=complex)


def lu_factor(a):
    """(lu, piv) of the complex square matrix a by ZGETRF, in place if a is
    F-ordered, as scipy.linalg.lu_factor(a, overwrite_a=True, check_finite=False)
    gives them: a factor with an exactly zero pivot warns LinAlgWarning."""
    lu, piv, info = _GETRF(a, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal getrf (lu_factor)")
    if info > 0:
        warnings.warn(f"Diagonal number {info} is exactly zero. Singular matrix.",
                      LinAlgWarning, stacklevel=2)
    return lu, piv


def lu_solve(lu_and_piv, b, trans=0):
    """x with a x = b (trans 0) or a^T x = b (trans 1) by ZGETRS on the
    factors of `lu_factor`, as scipy.linalg.lu_solve(..., check_finite=False)
    gives it."""
    x, info = _GETRS(*lu_and_piv, b, trans=trans)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal getrs (lu_solve)")
    return x


@functools.lru_cache(maxsize=None)
def _chebyshev_nodes(n):
    """(sigma, angles): the interior Chebyshev points cos((2i-1)pi/2n) and
    their angles (read-only)."""
    ang = (2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n)
    sigma = np.cos(ang)
    for table in (sigma, ang):
        table.flags.writeable = False
    return sigma, ang


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
    """(gaps, factor, index), the self-block tables of n nodes (read-only).

    With h = n/2, ``gaps`` holds the n^2/4 distinct node gaps of the quarters
    A and CJ: sigma_i - sigma_j for i < j < h, then sigma_i + sigma_j for
    i <= j < h.  ``factor`` is ln(gap)/2n - W/2pi per gap, W taken from its
    upper triangle.  ``index`` (2, h, h) places them in A and CJ: entry
    (i, j) of a quarter and its transpose read the same slot, and the diagonal
    of A reads slot n^2/4 + i.
    """
    h = n // 2
    sigma = _chebyshev_nodes(n)[0][:h]
    w = _log_quadrature_matrix(n)
    ia, ja = np.triu_indices(h, 1)
    ic, jc = np.triu_indices(h)
    gaps = np.concatenate([sigma[ia] - sigma[ja], sigma[ic] + sigma[jc]])
    factor = (np.log(gaps) / (2.0 * n)
              - np.concatenate([w[ia, ja], w[ic, n - 1 - jc]]) / (2.0 * math.pi))
    index = np.empty((2, h, h), dtype=np.intp)
    a, cj = index
    a[ia, ja] = a[ja, ia] = np.arange(len(ia))
    np.fill_diagonal(a, h * h + np.arange(h))
    cj[ic, jc] = cj[jc, ic] = len(ia) + np.arange(len(ic))
    for table in (gaps, factor, index):
        table.flags.writeable = False
    return gaps, factor, index


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
    """i H0(k|x_i - y_j|) = -Y0 + i J0 between the node sets of shape (., 2)
    of two cracks, which a valid scene keeps apart (`scene.validate_scene`)."""
    return _i_hankel0(k * np.hypot(x[:, 0, None] - y[:, 0], x[:, 1, None] - y[:, 1]))


def _chebyshev_tail(kern):
    """Largest Chebyshev coefficient of the (m, m) samples in the last quarter
    of rows or columns, over the largest coefficient."""
    t = _dct_matrix(len(kern))
    coef = np.abs(t @ kern @ t.T)
    q = 3 * len(kern) // 4
    return max(coef[q:].max(), coef[:, q:].max()) / coef.max()


def _real_left(u, z):
    """u @ z for real u and complex z as one real product over z's (re, im) pairs."""
    z = np.ascontiguousarray(z)
    return (u @ z.view(float).reshape(len(z), -1)).view(complex)


def _split_factor(a, cj):
    """LUs of A + CJ and A - CJ for the centrosymmetric block [[A, C], [JCJ, JAJ]]
    given by its symmetric quarters A and CJ (`_self_block`).

    Each half is its own transpose, which is in LAPACK's column order, so
    lu_factor factors it in place instead of copying it into that order."""
    return lu_factor((a + cj).T), lu_factor((a - cj).T)


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


def _hager_higham(apply, apply_t, size):
    """Hager-Higham lower bound on ||B||_1, the iteration of LAPACK xLACN2,
    with apply(b) = B b and apply_t(b) = B^T b for B of order ``size``; B is
    the inverse of a factored matrix or the Woodbury correction W.

    Up to five products with B and four with B^T.  The iteration starts from
    xLACN2's alternating-sign vector (-1)^i (1 + i/(size-1)), scaled to unit
    1-norm, not from the uniform vector: on A^-1 of unequal half-lengths the
    uniform start stopped at a local maximum near 0.65 of ||A^-1||_1.
    """
    def adjoint_sign(y):
        """|B^H sign(y)| = |B^T conj sign(y)|, with sign(0) = 1 as in xLACN2."""
        a = np.abs(y)
        s = np.divide(y, a, out=np.ones_like(y), where=a > _SAFE_MIN)
        return np.abs(apply_t(s.conj()))

    alt = (1.0 + np.arange(size) / (size - 1)) * (-1.0) ** np.arange(size)
    y = apply((alt / np.abs(alt).sum()).astype(complex))
    est = np.abs(y).sum()
    j = int(np.argmax(adjoint_sign(y)))
    for _ in range(4):
        unit = np.zeros(size, dtype=complex)
        unit[j] = 1.0
        y = apply(unit)
        new = np.abs(y).sum()
        if new <= est:
            break
        est = new
        z = adjoint_sign(y)
        last, j = j, int(np.argmax(z))
        if z[last] == z[j]:
            break
    return est


class CrackSystem:
    """Factorized boundary system A = D + U M U^T for one scene at one wavenumber.

    D holds the self blocks, each centrosymmetric and factored as two n/2
    blocks (`_split_factor`), U = blockdiag(U_p) the per-crack interpolation
    bases and M the cross kernel at the coarse nodes.  The far field solves
    with the capacitance LU alone: its data lie in the range of U, so it is
    evaluated at the coarse nodes, held crack by crack in scene order like the
    capacitance rows.

    ``rcond`` is 1/(||A||_1 ||A^-1||_1) from the bounds and estimates of the
    module docstring, 1 if the scene is empty; a system with ``rcond`` at or
    below 1e-13 is refused, carrying 1/``rcond`` as its condition estimate.
    """

    def __init__(self, scene, k, quad=QuadratureSpec()):
        require_valid(scene, k)
        self.scene = scene
        self.k = float(k)
        self.n = quad.nodes_per_crack
        self.m_cracks = len(scene.cracks)
        self.rcond = 1.0
        if self.m_cracks == 0:
            return
        self._factor()

    def _self_block(self, crack):
        """The quarters (A, CJ) of the self block D, never formed whole,
        h [(ln-gap/2n - W/2pi) J0(z) - (pi/4n) Y0(z) + i (pi/4n) J0(z)].

        This is the product quadrature of (i/4) H0(z), z = kh|sigma_i - sigma_j|,
        with its ln z J0(z)/2pi part taken against W.  On the diagonal, where
        z = 0 and Y0 is -inf, it is the z -> 0 limit
        h [-W_ii/2pi - (ln(kh/2) + gamma)/2n + i pi/4n].

        The kernel is evaluated at the n^2/4 distinct gaps of `_node_gaps`
        alone and placed by its index, so A and CJ are exactly symmetric.
        """
        k, n, half = self.k, self.n, crack.half_length
        h = n // 2
        gaps, factor, index = _node_gaps(n)
        c = math.pi / (4.0 * n)
        values = np.empty(h * h + h, dtype=complex)
        pairs = _i_hankel0((k * half) * gaps)
        values[:h * h].real = factor * pairs.imag + c * pairs.real
        values[:h * h].imag = c * pairs.imag
        values[h * h:] = (np.diag(_log_quadrature_matrix(n))[:h] / (-2.0 * math.pi)
                          - (math.log(k * half / 2.0) + _EULER_GAMMA) / (2.0 * n) + 1j * c)
        values *= half
        return values[index]

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
        for p, q in itertools.combinations(range(self.m_cracks), 2):
            m = _FIRST_RANK
            while m < n:
                kern = _cross_kernel(self.k, _crack_nodes(cracks[p], m), _crack_nodes(cracks[q], m))
                if _chebyshev_tail(kern) < _TAIL_TOL:
                    break
                m *= 2
            sizes[p], sizes[q] = max(sizes[p], min(m, n)), max(sizes[q], min(m, n))
        return sizes

    def _factor(self):
        n, mc, cracks = self.n, self.m_cracks, self.scene.cracks
        sizes = self._basis_sizes()
        # Crack p owns the coarse unknowns rows[p], in scene order.
        ends = np.cumsum([0] + sizes)
        rows = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
        nodes = [_crack_nodes(crack, m) for crack, m in zip(cracks, sizes)]
        # The coarse nodes and their far-field weights h pi/n.
        self._coarse = np.concatenate(nodes)
        self._weights = np.repeat([crack.half_length * math.pi / n for crack in cracks], sizes)
        m_all = np.zeros((ends[-1], ends[-1]), dtype=complex)                # M
        c = math.pi / (4.0 * n)
        for p, q in itertools.combinations(range(mc), 2):
            # H0(k|x_i - y_j|) is symmetric in the two nodes, so M_qp is the
            # transpose of M_pq up to the quadrature weight c h of its column crack.
            kern = _cross_kernel(self.k, nodes[p], nodes[q])
            np.multiply(kern, c * cracks[q].half_length, out=m_all[rows[p], rows[q]])
            np.multiply(kern.T, c * cracks[p].half_length, out=m_all[rows[q], rows[p]])
        # Woodbury: A^-1 = D^-1 - W, W = V M C^-1 V^T with V = D^-1 U and the
        # capacitance matrix C = I + U^T D^-1 U M.  Cracks of one half-length
        # share D_p and its LU, and with one basis size also V_p and B_p.
        # Alongside, the norms of the gate's figure (module docstring); those
        # of D, D^-1 and U are each the largest over the cracks, as the three
        # are block-diagonal.
        cap = np.eye(ends[-1], dtype=complex, order="F")
        lus, shared, self._bases = {}, {}, []
        norm_d = norm_dinv = norm_u1 = norm_uinf = 0.0
        for p, crack in enumerate(cracks):
            half, m = crack.half_length, sizes[p]
            if half not in lus:
                a, cj = self._self_block(crack)
                lus[half] = _split_factor(a, cj)
                # column j of D_p and its reflection n-1-j share |A| + |CJ|'s column sum
                norm_d = max(norm_d, (np.abs(a).sum(axis=0) + np.abs(cj).sum(axis=0)).max())
                norm_dinv = max(norm_dinv, sum(
                    _hager_higham(functools.partial(lu_solve, half_lu),
                                  functools.partial(lu_solve, half_lu, trans=1), n // 2)
                    for half_lu in lus[half]))
            if (half, m) not in shared:
                basis = _interpolation_matrix(n, m)
                v = _split_solve(lus[half], basis)                           # V_p = D_p^-1 U_p
                shared[half, m] = v, _real_left(basis.T, v)                  # B_p = U_p^T V_p
                norm_u1 = max(norm_u1, np.abs(basis).sum(axis=0).max())
                norm_uinf = max(norm_uinf, np.abs(basis).sum(axis=1).max())
            v, b = shared[half, m]
            cap[rows[p]] += b @ m_all[rows[p]]
            self._bases.append((rows[p], v, b))
        self._cap = lu_factor(cap)

        def v_apply(z):                                                      # V z
            return np.concatenate([v @ z[r] for r, v, _ in self._bases])

        def v_transpose(x):                                                  # V^T x
            return np.concatenate([x_p @ v for x_p, (_, v, _) in
                                   zip(x.reshape(mc, n), self._bases)])

        # W x = V M C^-1 V^T x and W^T x = V C^-T M^T V^T x
        norm_w = _hager_higham(
            lambda x: v_apply(m_all @ lu_solve(self._cap, v_transpose(x))),
            lambda x: v_apply(lu_solve(self._cap, m_all.T @ v_transpose(x), trans=1)),
            mc * n)
        norm_a = norm_d + norm_u1 * np.abs(m_all).sum(axis=0).max() * norm_uinf
        self.rcond = float(1.0 / (norm_a * (norm_dinv + norm_w)))
        if not self.rcond > _RCOND_FLOOR:
            est = 1.0 / self.rcond if self.rcond > 0 else math.inf
            raise SolverError(
                f"boundary system too ill-conditioned (cond ~ {est:.3e})",
                condition_estimate=est)

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
            z = lu_solve(self._cap, np.concatenate([b @ bg[r] for r, _, b in self._bases]))
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
    theta_l).  The discrete scheme is reciprocal at every node count, so this
    checks its symmetry to round-off; it does not measure discretization error.
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
