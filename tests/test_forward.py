import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import hankel1, j0 as scipy_j0

from crackdsm import forward
from crackdsm.errors import DomainError, InputMismatchError, SceneError, SolverError
from crackdsm.forward import (CrackSystem, QuadratureSpec, _log_quadrature_matrix,
                              _node_gaps, _split_factor, _split_solve, far_field_tensor,
                              reciprocity_residual)
from crackdsm.asymptotic import farfield_order1
from crackdsm.imaging import AcquisitionConfig, FarFieldTensor, observation_directions
from crackdsm.scene import Crack, Scene, crack_tangent, validate_scene
from paper import aligned_max_gap, sample_scene


def _single(half=0.05, center=(0.1, -0.2), rot=0.7):
    return Scene((Crack(center, half, rot),))


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(6)
    with pytest.raises(DomainError):
        QuadratureSpec(9)


def test_acquisition_config_validation():
    with pytest.raises(DomainError):
        AcquisitionConfig((1.0, 1.0), 30, (0.0,))
    with pytest.raises(DomainError):
        AcquisitionConfig((1.0,), 4, (0.0,))
    with pytest.raises(DomainError):
        AcquisitionConfig((-1.0,), 30, (0.0,))
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            AcquisitionConfig((1.0, bad), 30, (0.0,))
        with pytest.raises(DomainError):
            AcquisitionConfig((1.0,), 30, (0.0, bad))


def test_tensor_shape_checked(config30):
    with pytest.raises(InputMismatchError):
        FarFieldTensor(np.zeros((1, 2, 30)), config30)


def test_empty_scene_gives_zero_field(k, d_up):
    out = CrackSystem(Scene(()), k).far_field(d_up, 30)
    assert np.all(out == 0.0)
    assert out.shape == (30,)


def test_hard_violation_rejected(k):
    sc = Scene((Crack((0, 0), 0.01, 0.0), Crack((0.02, 0), 0.01, 0.0)))
    with pytest.raises(SceneError):
        CrackSystem(sc, k)


def test_output_finite_and_bounded(k, d_up):
    out = CrackSystem(_single(), k).far_field(d_up, 30)
    assert np.all(np.isfinite(out.view(float)))
    assert np.max(np.abs(out)) < 10.0 / math.sqrt(k)


def test_self_convergence_once_converged(k, d_up):
    sc = _single()
    f32 = CrackSystem(sc, k, QuadratureSpec(32)).far_field(d_up, 30)
    f64 = CrackSystem(sc, k, QuadratureSpec(64)).far_field(d_up, 30)
    assert np.max(np.abs(f64 - f32)) < 1e-8


def test_superlinear_convergence_factor(k, d_up):
    # larger crack so the 8-node solve is not yet at round-off
    sc = _single(half=0.14)
    f8, f16, f32 = (CrackSystem(sc, k, QuadratureSpec(n)).far_field(d_up, 30)
                    for n in (8, 16, 32))
    e1 = np.max(np.abs(f16 - f8))
    e2 = np.max(np.abs(f32 - f16))
    assert e1 > 1e-12  # genuinely unconverged at 8 nodes
    assert e1 >= 4.0 * e2


def _mirror_config(k, n):
    return AcquisitionConfig((k,), n, tuple(2 * math.pi * i / n
                                            for i in range(1, n + 1)))


def test_reciprocity_empty_scene(k):
    assert reciprocity_residual(Scene(()), k, _mirror_config(k, 16)) == 0.0


def test_reciprocity_converged(k):
    resid = reciprocity_residual(_single(), k, _mirror_config(k, 16),
                                 QuadratureSpec(64))
    assert resid < 1e-6


def test_reciprocity_at_round_off(k):
    # The discrete scheme is reciprocal up to rounding at every node count
    # (measured <= 1.5e-15), so residuals are bounded, not ordered.
    two = Scene((Crack((0.1, -0.2), 0.14, 0.7), Crack((-0.4, 0.3), 0.1, 2.0)))
    for sc in (_single(half=0.14), two):
        for n in (8, 16, 32):
            assert reciprocity_residual(sc, k, _mirror_config(k, 16),
                                        QuadratureSpec(n)) < 1e-13


K_RECIP = 2 * math.pi / 0.5

def _valid_scenes(min_size, max_size):
    """min_size to max_size cracks of half-length up to 0.075 (k*l < 0.95) in
    [-0.7, 0.7]^2, kept only when valid at K_RECIP."""
    return st.lists(
        st.builds(Crack, st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)),
                  st.floats(0.005, 0.075), st.floats(0.0, 2 * math.pi)),
        min_size=min_size, max_size=max_size, unique_by=lambda c: c.center,
    ).map(lambda cracks: Scene(tuple(cracks))).filter(
        lambda sc: not validate_scene(sc, K_RECIP))


@given(scene=_valid_scenes(1, 3), n=st.sampled_from((16, 24, 32)))
@settings(max_examples=40, deadline=None)
def test_reciprocity_on_random_valid_scenes(scene, n):
    # measured worst case over 600 random scenes: 2.5e-15
    assert reciprocity_residual(scene, K_RECIP, _mirror_config(K_RECIP, 16),
                                QuadratureSpec(n)) < 1e-13


def test_reciprocity_rejects_mismatched_directions(k):
    cfg = AcquisitionConfig((k,), 16, (0.1, 0.2))
    with pytest.raises(InputMismatchError):
        reciprocity_residual(_single(), k, cfg)


def test_agreement_with_leading_order_improves(k, config30, d_up):
    gaps = []
    for half in (0.05, 0.02, 0.01, 0.005):
        sc = _single(half=half)
        full = CrackSystem(sc, k, QuadratureSpec(64)).far_field(d_up, 30)
        lead = farfield_order1(sc, k, d_up, config30)
        gaps.append(aligned_max_gap(full, lead))
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def test_tensor_generation_deterministic(k, three_cracks):
    cfg = AcquisitionConfig((k,), 16, (0.3, 2.1))
    t1 = far_field_tensor(three_cracks, cfg, QuadratureSpec(16))
    t2 = far_field_tensor(three_cracks, cfg, QuadratureSpec(16))
    assert np.array_equal(t1.values, t2.values)
    assert t1.values.shape == (1, 2, 16)


def test_per_direction_solves_share_factorization(k, d_up):
    # a second solve on one factorization matches a freshly factorized system
    sys_ = CrackSystem(_single(), k, QuadratureSpec(32))
    sys_.far_field(np.array([1.0, 0.0]), 30)
    a = sys_.far_field(d_up, 30)
    b = CrackSystem(_single(), k, QuadratureSpec(32)).far_field(d_up, 30)
    assert np.allclose(a, b, atol=1e-14)


def _reference_nodes(scene, n):
    sigma = np.cos((2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n))
    return [np.asarray(c.center) + c.half_length * np.outer(sigma, crack_tangent(c))
            for c in scene.cracks]


def _reference_matrix(scene, k, n):
    """Dense system from scipy's hankel1 cross blocks and the module's self blocks."""
    nodes = _reference_nodes(scene, n)
    m = len(scene.cracks)
    system = CrackSystem(scene, k, QuadratureSpec(n))
    a = np.zeros((m * n, m * n), dtype=complex)
    for p in range(m):
        for q in range(m):
            if p == q:
                blk = system._self_block(scene.cracks[p], _log_quadrature_matrix(n))
            else:
                r = np.linalg.norm(nodes[p][:, None, :] - nodes[q][None, :, :], axis=2)
                blk = (scene.cracks[q].half_length * math.pi / n * 0.25j
                       * hankel1(0, k * r))
            a[p * n:(p + 1) * n, q * n:(q + 1) * n] = blk
    return a


def _reference_tensor(scene, config, n):
    """Tensor from `_reference_matrix`, one dense solve per direction and an
    explicit sum over nodes."""
    nodes = _reference_nodes(scene, n)
    theta = observation_directions(config.n_obs)
    values = np.zeros((config.n_freq, config.n_incident, config.n_obs), dtype=complex)
    for f, k in enumerate(config.wavenumbers):
        a = _reference_matrix(scene, k, n)
        for l, d in enumerate(config.incident_directions()):
            psi = np.linalg.solve(a, -np.exp(1j * k * np.concatenate(nodes) @ d))
            for i, th in enumerate(theta):
                total = 0.0
                for p, crack in enumerate(scene.cracks):
                    for j in range(n):
                        total += (crack.half_length * math.pi / n * psi[p * n + j]
                                  * np.exp(-1j * k * th @ nodes[p][j]))
                values[f, l, i] = (1.0 + 1j) / (4.0 * math.sqrt(math.pi * k)) * total
    return values


def test_tensor_matches_reference_assembly(k):
    # unequal half-lengths: every block carries its own column crack's weight
    sc = sample_scene(0.05, 0.09, 0.03)
    cfg = AcquisitionConfig((k, 1.25 * k), 16, (0.3, 2.1, 4.4))
    got = far_field_tensor(sc, cfg, QuadratureSpec(32)).values
    ref = _reference_tensor(sc, cfg, 32)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


BAND_KS = tuple(2 * math.pi / lam for lam in np.linspace(0.3, 0.7, 5))


@pytest.mark.parametrize("half", (0.03, 0.05, 0.09))
@pytest.mark.parametrize("n", (16, 64))
def test_self_block_matches_direct_formula(half, n):
    # h [-W J0(z)/2pi + (pi/n)((i/4) H0(z) + ln|s_i - s_j| J0(z)/2pi)] with
    # z = kh|s_i - s_j| off the diagonal; on it, the z -> 0 limit of the
    # bracket, where h/2 is the logarithmic capacity of the crack.
    sigma = np.cos((2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n))
    gap = np.abs(sigma[:, None] - sigma[None, :])
    off = ~np.eye(n, dtype=bool)
    w = _log_quadrature_matrix(n)
    crack = Crack((0.1, -0.2), half, 0.7)
    for k in BAND_KS:
        z = k * half * gap[off]
        ref = np.empty((n, n), dtype=complex)
        ref[off] = (-w[off] * scipy_j0(z) / (2 * math.pi) + math.pi / n * (
            0.25j * hankel1(0, z) + np.log(gap[off]) * scipy_j0(z) / (2 * math.pi)))
        np.fill_diagonal(ref, -np.diag(w) / (2 * math.pi) + math.pi / n * (
            0.25j - (math.log(k * half / 2) + np.euler_gamma) / (2 * math.pi)))
        ref *= half
        got = CrackSystem(Scene((crack,)), k, QuadratureSpec(n))._self_block(crack, w)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", (8, 16, 64, 256))
def test_self_block_is_centrosymmetric_bit_for_bit(n):
    # the nodes are symmetric about 0, so reversing rows and columns together
    # leaves the block unchanged; the bottom rows are the top ones reflected
    crack = Crack((0.1, -0.2), 0.05, 0.7)
    for k in BAND_KS:
        block = CrackSystem(Scene((crack,)), k, QuadratureSpec(n))._self_block(
            crack, _log_quadrature_matrix(n))
        assert block.tobytes() == block[::-1, ::-1].tobytes()


@pytest.mark.parametrize("n", (16, 64, 256))
@pytest.mark.parametrize("width", (1, 90))
def test_split_solve_matches_a_dense_solve(n, width):
    crack = Crack((0.1, -0.2), 0.05, 0.7)
    rng = np.random.default_rng(n + width)
    b = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
    for k in BAND_KS:
        block = CrackSystem(Scene((crack,)), k, QuadratureSpec(n))._self_block(
            crack, _log_quadrature_matrix(n))
        got = _split_solve(_split_factor(block), b)
        want = np.linalg.solve(block, b)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", (16, 64))
def test_lone_crack_evaluates_half_its_self_block(monkeypatch, n):
    # a lone crack has no cross blocks, so every J0 value is its self block's
    seen = []

    def counted(z):
        seen.append(np.size(z))
        return scipy_j0(z)

    monkeypatch.setattr(forward, "sp_j0", counted)
    CrackSystem(_single(), 5.0, QuadratureSpec(n))
    assert sum(seen) == n * n // 2


def test_shared_self_blocks_match_reference_assembly(k):
    # two cracks share one self block; the third has its own half-length
    sc = sample_scene(0.05, 0.05, 0.09)
    cfg = AcquisitionConfig((k, 1.25 * k), 16, (0.3, 2.1, 4.4))
    got = far_field_tensor(sc, cfg, QuadratureSpec(32)).values
    ref = _reference_tensor(sc, cfg, 32)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    for table in (_log_quadrature_matrix(32), *_node_gaps(32)):
        assert not table.flags.writeable


def test_reciprocity_residual_matches_pairwise_loop(k):
    sc = sample_scene(0.05, 0.09, 0.03)
    cfg = _mirror_config(k, 16)
    system = CrackSystem(sc, k, QuadratureSpec(32))
    fwd = system.far_field(cfg.incident_directions(), 16)
    rev = system.far_field(-observation_directions(16), 16)
    assert fwd.shape == rev.shape == (16, 16)
    loop = max(abs(fwd[l, m] - rev[m, (l + 8) % 16])
               for l in range(16) for m in range(16))
    # equal up to the last bit of the vectorised |.|; a wrong pairing would
    # give a residual of the size of the field itself
    assert reciprocity_residual(sc, k, cfg, QuadratureSpec(32)) == pytest.approx(loop, rel=1e-12)


def test_system_keeps_reciprocal_condition_number(k, three_cracks):
    rcond = CrackSystem(three_cracks, k, QuadratureSpec(64)).rcond
    assert 1e-13 < rcond <= 1.0


# Collinear cracks at centre distance d = 2.2 h, and two cracks that cross;
# their cross kernel is not resolved at 32 coarse nodes.
CLOSE_PAIR = (Crack((0.0, 0.0), 0.05, 0.0), Crack((0.11, 0.0), 0.05, 0.0))
CROSSING_PAIR = (Crack((0.0, 0.0), 0.3, 0.0), Crack((0.2, 0.0), 0.3, math.pi / 2))


@pytest.mark.parametrize("n, halves, sizes", [
    (64, (0.05, 0.07, 0.03), ([16, 16, 16], [32, 32, 16])),
    (128, (0.05, 0.09, 0.03), ([32, 32, 32], [32, 32, 32])),
])
def test_low_rank_solver_matches_reference_assembly(k, n, halves, sizes):
    sc = sample_scene(*halves)
    cfg = AcquisitionConfig((k, 1.25 * k), 16, (0.3, 2.1, 4.4))
    # coarse node count per crack
    assert [CrackSystem(sc, kk, QuadratureSpec(n))._basis_sizes()
            for kk in cfg.wavenumbers] == list(sizes)
    got = far_field_tensor(sc, cfg, QuadratureSpec(n)).values
    ref = _reference_tensor(sc, cfg, n)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("pair, k, n, sizes", [
    (CLOSE_PAIR, K_RECIP, 64, [64, 64, 16]),
    (CLOSE_PAIR, K_RECIP, 128, [64, 64, 16]),
    (CROSSING_PAIR, 5.0, 64, [64, 64, 32]),
    (CROSSING_PAIR, 5.0, 128, [128, 128, 32]),
])
def test_unresolved_pair_basis_grows_to_n(pair, k, n, sizes):
    # the pair's basis doubles until its kernel is resolved, up to all n nodes,
    # where U_p interpolates from the n nodes to themselves; the third, distant
    # crack keeps the smaller basis its own pairs need
    sc = Scene(pair + (Crack((-0.6, 0.7), 0.05, 1.0),))
    assert CrackSystem(sc, k, QuadratureSpec(n))._basis_sizes() == sizes
    cfg = AcquisitionConfig((k,), 16, (0.3, 2.1, 4.4))
    got = far_field_tensor(sc, cfg, QuadratureSpec(n)).values
    ref = _reference_tensor(sc, cfg, n)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_lone_crack_matches_reference_assembly(k):
    # no pair asks for more, so the basis has _FIRST_RANK nodes and the
    # capacitance matrix is I
    sc = _single(half=0.09)
    assert CrackSystem(sc, k, QuadratureSpec(64))._basis_sizes() == [forward._FIRST_RANK]
    cfg = AcquisitionConfig((k, 1.25 * k), 16, (0.3, 2.1, 4.4))
    got = far_field_tensor(sc, cfg, QuadratureSpec(64)).values
    ref = _reference_tensor(sc, cfg, 64)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@given(scene=_valid_scenes(2, 4), n=st.sampled_from((16, 32)))
@settings(max_examples=15, deadline=None, derandomize=True)
def test_solver_matches_reference_assembly_on_random_scenes(scene, n):
    cfg = AcquisitionConfig((K_RECIP,), 8, (0.3, 2.1))
    got = far_field_tensor(scene, cfg, QuadratureSpec(n)).values
    ref = _reference_tensor(scene, cfg, n)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("sc, ks", [(sample_scene(), BAND_KS), (Scene(CLOSE_PAIR), (K_RECIP,)),
                                    (sample_scene(0.05, 0.09, 0.03), BAND_KS)])
def test_inverse_norm_estimate_within_five_percent(sc, ks):
    # With unequal half-lengths H = diag(h) is no multiple of I, so a wrong
    # h_p/h_q in the cross blocks' share of ||A||_1 shows; there a uniform
    # start vector stops at a local maximum near 0.65 of the exact ||A^-1||_1.
    for k in ks:
        system = CrackSystem(sc, k, QuadratureSpec(64))
        a = _reference_matrix(sc, k, 64)
        exact = np.linalg.norm(np.linalg.inv(a), 1)
        est = system._inverse_norm_estimate()
        # a lower bound, since every vector it tries has unit 1-norm
        assert 0.95 * exact <= est <= (1.0 + 1e-12) * exact
        # ||A||_1 is exact
        assert system.rcond == pytest.approx(1.0 / (np.linalg.norm(a, 1) * est), rel=1e-12)


@pytest.mark.parametrize("sc, sizes", [
    (sample_scene(0.05, 0.09, 0.03), [32, 32, 32]),
    (Scene(CLOSE_PAIR + (Crack((-0.6, 0.7), 0.03, 1.0),)), [64, 64, 16]),
])
def test_transposed_solve_is_the_solve_scaled_by_half_lengths(sc, sizes):
    # A = S H with S complex-symmetric and H = diag(h), so A^-T = H A^-1 H^-1,
    # the identity the condition estimate's adjoint solves rely on; the second
    # scene mixes cracks whose basis takes all n nodes with one whose basis
    # takes fewer
    system = CrackSystem(sc, K_RECIP, QuadratureSpec(64))
    assert system._basis_sizes() == sizes
    h = np.repeat([c.half_length for c in sc.cracks], 64)
    rng = np.random.default_rng(11)
    g = rng.standard_normal(len(h)) + 1j * rng.standard_normal(len(h))
    ref = np.linalg.solve(_reference_matrix(sc, K_RECIP, 64).T, g)
    got = h * system._solve(g / h)
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_ill_conditioning_gate_raises(monkeypatch, k, three_cracks):
    monkeypatch.setattr(forward, "_RCOND_FLOOR", 1.0)
    with pytest.raises(SolverError) as info:
        CrackSystem(three_cracks, k, QuadratureSpec(32))
    assert 1.0 <= info.value.condition_estimate < math.inf


def test_reciprocity_residual_solves_once(monkeypatch, k):
    calls = []
    far_field = CrackSystem.far_field

    def counted(self, d, n_obs):
        calls.append(np.shape(d))
        return far_field(self, d, n_obs)

    monkeypatch.setattr(CrackSystem, "far_field", counted)
    reciprocity_residual(sample_scene(), k, _mirror_config(k, 16), QuadratureSpec(32))
    assert calls == [(32, 2)]


@pytest.mark.parametrize("kh", np.geomspace(0.01, 50.0, 25))
def test_wave_size_interpolates_plane_waves_to_round_off(kh):
    # every e^{i a sigma}, |a| <= kh, on the wave size's Chebyshev points
    # interpolates onto the n nodes to the round-off of U itself
    n = 256
    m = forward._wave_size(n, kh)
    assert m >= forward._FIRST_RANK and m & (m - 1) == 0
    a = np.linspace(-kh, kh, 41)
    coarse, _ = forward._chebyshev_nodes(m)
    fine, _ = forward._chebyshev_nodes(n)
    err = np.abs(forward._interpolation_matrix(n, m) @ np.exp(1j * np.outer(coarse, a))
                 - np.exp(1j * np.outer(fine, a))).max()
    assert err <= 4 * m * np.finfo(float).eps


def test_wave_size_bound_does_not_overflow():
    # (kh/2)^m and m! overflow a float long before m = 1024; the bound is taken in logs
    assert forward._wave_size(4096, 500.0) == 1024
    assert forward._wave_size(4096, 5000.0) == 4096
    assert forward._wave_size(16, 1.9) == 16
    assert forward._wave_size(64, 0.01) == forward._FIRST_RANK


@pytest.mark.parametrize("half, k, n, size", [
    (0.1, 19.5, 64, 32),   # k h = 1.95: the waves need 32 coarse nodes, not 16
    (0.1, 19.0, 16, 16),   # k h = 1.9 at n = 16: the basis takes all n nodes, U = I
])
def test_coarse_far_field_matches_reference_assembly(half, k, n, size):
    sc = _single(half=half)
    assert CrackSystem(sc, k, QuadratureSpec(n))._basis_sizes() == [size]
    cfg = AcquisitionConfig((k,), 16, (0.3, 2.1, 4.4))
    got = far_field_tensor(sc, cfg, QuadratureSpec(n)).values
    ref = _reference_tensor(sc, cfg, n)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_far_field_solves_once_with_the_capacitance_lu(monkeypatch, k, three_cracks):
    system = CrackSystem(three_cracks, k, QuadratureSpec(64))
    calls = []
    lu_solve = forward.lu_solve

    def counted(lu, b):
        calls.append(np.shape(b))
        return lu_solve(lu, b)

    monkeypatch.setattr(forward, "lu_solve", counted)
    dirs = observation_directions(30)
    assert system.far_field(dirs, 30).shape == (30, 30)
    assert len(calls) == 1
    assert calls[0] == (len(system._coarse), 30)
