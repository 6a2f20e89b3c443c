import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import hankel1

from crackdsm.errors import DomainError, InputMismatchError, SceneError
from crackdsm.forward import (AcquisitionConfig, CrackSystem, FarFieldTensor,
                              QuadratureSpec, _log_quadrature_matrix, far_field,
                              far_field_tensor, reciprocity_residual)
from crackdsm.asymptotic import aligned_max_gap, farfield_order1
from crackdsm.imaging import observation_directions
from crackdsm.scene import Crack, Scene, crack_tangent, sample_scene, validate_scene


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


def test_empty_scene_gives_zero_field(k, config30, d_up):
    out = far_field(Scene(()), k, d_up, config30)
    assert np.all(out == 0.0)
    assert out.shape == (30,)


def test_hard_violation_rejected(k, config30, d_up):
    sc = Scene((Crack((0, 0), 0.01, 0.0), Crack((0.02, 0), 0.01, 0.0)))
    with pytest.raises(SceneError):
        far_field(sc, k, d_up, config30)


def test_output_finite_and_bounded(k, config30, d_up):
    out = far_field(_single(), k, d_up, config30)
    assert np.all(np.isfinite(out.view(float)))
    assert np.max(np.abs(out)) < 10.0 / math.sqrt(k)


def test_self_convergence_once_converged(k, config30, d_up):
    sc = _single()
    f32 = far_field(sc, k, d_up, config30, QuadratureSpec(32))
    f64 = far_field(sc, k, d_up, config30, QuadratureSpec(64))
    assert np.max(np.abs(f64 - f32)) < 1e-8


def test_superlinear_convergence_factor(k, config30, d_up):
    # larger crack so the 8-node solve is not yet at round-off
    sc = _single(half=0.14)
    f8 = far_field(sc, k, d_up, config30, QuadratureSpec(8))
    f16 = far_field(sc, k, d_up, config30, QuadratureSpec(16))
    f32 = far_field(sc, k, d_up, config30, QuadratureSpec(32))
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

# 1-3 cracks of half-length up to 0.075 (k*l < 0.95) in [-0.7, 0.7]^2, kept
# only when valid at K_RECIP
_valid_scenes = st.lists(
    st.builds(Crack, st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)),
              st.floats(0.005, 0.075), st.floats(0.0, 2 * math.pi)),
    min_size=1, max_size=3, unique_by=lambda c: c.center,
).map(lambda cracks: Scene(tuple(cracks))).filter(
    lambda sc: not validate_scene(sc, K_RECIP))


@given(scene=_valid_scenes, n=st.sampled_from((16, 24, 32)))
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
        full = far_field(sc, k, d_up, config30, QuadratureSpec(64))
        lead = farfield_order1(sc, k, d_up, config30)
        gaps.append(aligned_max_gap(full, lead))
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def test_tensor_generation_deterministic(k, three_cracks):
    cfg = AcquisitionConfig((k,), 16, (0.3, 2.1))
    t1 = far_field_tensor(three_cracks, cfg, QuadratureSpec(16))
    t2 = far_field_tensor(three_cracks, cfg, QuadratureSpec(16))
    assert np.array_equal(t1.values, t2.values)
    assert t1.values.shape == (1, 2, 16)


def test_per_direction_solves_share_factorization(k, config30):
    sys_ = CrackSystem(_single(), k, QuadratureSpec(32))
    a = sys_.far_field(np.array([0.0, 1.0]), 30)
    b = far_field(_single(), k, np.array([0.0, 1.0]), config30, QuadratureSpec(32))
    assert np.allclose(a, b, atol=1e-14)


def _reference_tensor(scene, config, n):
    """Tensor from scipy's hankel1 cross blocks, the module's self blocks, one
    dense solve per direction and an explicit sum over nodes."""
    sigma = np.cos((2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n))
    nodes = [np.asarray(c.center) + c.half_length * np.outer(sigma, crack_tangent(c))
             for c in scene.cracks]
    m = len(scene.cracks)
    theta = observation_directions(config.n_obs)
    values = np.zeros((config.n_freq, config.n_incident, config.n_obs), dtype=complex)
    for f, k in enumerate(config.wavenumbers):
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


def test_reciprocity_residual_matches_pairwise_loop(k):
    sc = sample_scene(0.05, 0.09, 0.03)
    cfg = _mirror_config(k, 16)
    system = CrackSystem(sc, k, QuadratureSpec(32))
    fwd = system.far_field(cfg.incident_directions(), 16)
    rev = system.far_field(-cfg.observation_directions(), 16)
    assert fwd.shape == rev.shape == (16, 16)
    loop = max(abs(fwd[l, m] - rev[m, (l + 8) % 16])
               for l in range(16) for m in range(16))
    # equal up to the last bit of the vectorised |.|; a wrong pairing would
    # give a residual of the size of the field itself
    assert reciprocity_residual(sc, k, cfg, QuadratureSpec(32)) == pytest.approx(loop, rel=1e-12)


def test_system_keeps_reciprocal_condition_number(k, three_cracks):
    rcond = CrackSystem(three_cracks, k, QuadratureSpec(64)).rcond
    assert 1e-13 < rcond <= 1.0
