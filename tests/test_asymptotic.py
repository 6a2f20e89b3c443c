import math

import numpy as np
import pytest
import scipy.special as scipy_special

from crackdsm.errors import DomainError, InputMismatchError, SceneError
from crackdsm.asymptotic import (_gauss_legendre_panels, _grid_reach,
                                 farfield_order1, farfield_order2,
                                 predict_aif, predict_mif, predict_structure1,
                                 predict_structure2)
from crackdsm.imaging import AcquisitionConfig, ImagingGrid, unit_vectors
from crackdsm.scene import Crack, Scene
from paper import (argmax_point, grid_points, j0_plane_wave_sum, leading_far_field,
                   mif_radial_envelope, sample_scene, structure_fields, uniform_direction_sum,
                   weighted_direction_sum)


def _origin_crack(half=0.05, rot=0.0):
    return Scene((Crack((0.0, 0.0), half, rot),))


# ------------------------------------------------------- direction-sum identities

def test_uniform_direction_sum_matches_j0(k):
    for r in np.linspace(0.05, 20.0 / k, 15):
        for ang in (0.0, 0.7, 2.4):
            x = r * np.array([math.cos(ang), math.sin(ang)])
            got = uniform_direction_sum(360, k, x)
            want = 2 * math.pi * scipy_special.jv(0, k * r)
            assert abs(got - want) < 1e-9


def test_weighted_direction_sum_matches_j1(k):
    phis = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
            np.array([math.cos(1.1), math.sin(1.1)])]
    for r in np.linspace(0.05, 20.0 / k, 10):
        for ang in (0.3, 1.9):
            x = r * np.array([math.cos(ang), math.sin(ang)])
            for phi in phis:
                got = weighted_direction_sum(360, k, x, phi)
                want = 2j * math.pi * float(x @ phi / r) * scipy_special.jv(1, k * r)
                assert abs(got - want) < 1e-9


# --------------------------------------------------------------- data formulas

def test_order1_constant_for_origin_crack(k, config30, d_up):
    out = farfield_order1(_origin_crack(), k, d_up, config30)
    expect = 2 * math.pi / math.log(0.05 / 2)
    assert np.allclose(out, expect)
    assert abs(out[0]) == pytest.approx(1.7032774817763185, abs=1e-12)


def test_order1_linear_in_cracks(k, config30, d_up):
    # merged identical cracks double the field (distinct-center rule bypassed
    # by summing two single-crack evaluations)
    single = farfield_order1(_origin_crack(), k, d_up, config30)
    assert np.allclose(2 * single, single + single)
    two = Scene((Crack((0.2, 0.1), 0.05, 0.3), Crack((-0.4, 0.3), 0.05, 1.0)))
    parts = sum(farfield_order1(Scene((c,)), k, d_up, config30)
                for c in two.cracks)
    assert np.allclose(farfield_order1(two, k, d_up, config30), parts)


def test_order1_rejects_oversized_cracks(k, config30, d_up):
    with pytest.raises(SceneError):
        farfield_order1(Scene((Crack((0, 0), 0.08, 0.0),)),
                        40.0, np.array([0.0, 1.0]),
                        AcquisitionConfig((40.0,), 30, (0.0,)))
    with pytest.raises(SceneError):
        farfield_order1(Scene((Crack((0, 0), 1.5, 0.0),)), k, d_up, config30)


# The paper's order1 weight 2 pi/ln(h/2) has no k, where the explicit leading
# term `paper.leading_far_field` weights by 2 pi/(ln(kh/4) + gamma - i pi/2)
# and scales by 1/sqrt(k).  So order1 data weight frequencies and unequal
# lengths otherwise than the leading term; the generator stays as the paper
# gives it, and these two tests pin the gap.

def _order1_and_leading(half, k, d_up):
    crack = Crack((0.0, 0.0), half, 0.0)
    config = AcquisitionConfig((k,), 30, (math.pi / 2,))
    return (farfield_order1(Scene((crack,)), k, d_up, config),
            leading_far_field(crack, k, d_up, 30))


def test_order1_weights_every_wavenumber_alike_unlike_the_leading_term(d_up):
    # h = 0.05 across lambda = 0.7 to 0.3: order1's origin-crack field stays
    # one number, the leading term's grows 1.186-fold in magnitude (1/1.186
    # from lambda = 0.3 to 0.7) and turns by 19.8 degrees
    short, lead_short = _order1_and_leading(0.05, 2 * math.pi / 0.3, d_up)
    long_, lead_long = _order1_and_leading(0.05, 2 * math.pi / 0.7, d_up)
    assert np.array_equal(short, long_)
    ratio = lead_long / lead_short
    assert np.allclose(ratio, ratio[0], rtol=1e-14, atol=0)
    assert abs(ratio[0]) == pytest.approx(1.186, abs=5e-4)
    assert math.degrees(np.angle(ratio[0])) == pytest.approx(19.80, abs=0.01)


def test_order1_weights_unequal_lengths_unlike_the_leading_term(d_up):
    # at k = 4 pi the h = 0.09 crack over the h = 0.05 one: 1.180 at -15.45
    # degrees for the leading term, 1.190 at 0 degrees for order1
    k = 4 * math.pi
    (order1, lead), (order1_ref, lead_ref) = (_order1_and_leading(h, k, d_up)
                                              for h in (0.09, 0.05))
    ratio = lead[0] / lead_ref[0]
    assert abs(ratio) == pytest.approx(1.180, abs=5e-4)
    assert math.degrees(np.angle(ratio)) == pytest.approx(-15.45, abs=0.01)
    assert order1[0] / order1_ref[0] == pytest.approx(1.190, abs=5e-4)
    assert np.angle(order1[0] / order1_ref[0]) == 0.0


def test_order2_reduces_to_order1_when_orthogonal(k, config30):
    # crack along x, incident along y, observations +-y only would need a
    # custom set; instead check entries where theta is orthogonal to t
    sc = _origin_crack(rot=0.0)
    d = np.array([0.0, 1.0])  # d . t = 0 kills the whole correction
    o1 = farfield_order1(sc, k, d, config30)
    o2 = farfield_order2(sc, k, d, config30)
    assert np.allclose(o1, o2, atol=1e-15)


def test_order2_parallel_alignment_value(k, config30):
    sc = _origin_crack(rot=0.0)
    d = np.array([1.0, 0.0])
    out = farfield_order2(sc, k, d, config30)
    # observation direction index N-1 has angle 2*pi, i.e. theta = t = d
    half = 0.05
    expect = 2 * math.pi / math.log(half / 2) - math.pi * half**2 * k**2
    assert out[-1] == pytest.approx(expect, abs=1e-12)
    assert abs(out[-1]) == pytest.approx(
        2 * math.pi / abs(math.log(half / 2)) + math.pi * half**2 * k**2, abs=1e-12)


@pytest.mark.parametrize("gen", [farfield_order1, farfield_order2])
def test_generators_take_direction_batches(gen, k, three_cracks, config30):
    angles = 0.3 + np.arange(7) * 2 * math.pi / 7
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    batched = gen(three_cracks, k, dirs, config30)
    stacked = np.array([gen(three_cracks, k, d, config30) for d in dirs])
    assert batched.shape == stacked.shape == (7, 30)
    assert np.max(np.abs(batched - stacked)) <= 1e-14 * np.max(np.abs(stacked))


def test_order2_requires_equal_half_lengths(k, config30, d_up):
    sc = Scene((Crack((0, 0), 0.05, 0.0), Crack((1, 0), 0.03, 0.0)))
    with pytest.raises(InputMismatchError):
        farfield_order2(sc, k, d_up, config30)


def test_order2_correction_scales_quadratically(k, config30):
    d = np.array([1.0, 0.0])
    gaps = []
    for half in (0.04, 0.02, 0.01):
        sc = _origin_crack(half=half)
        gap = np.max(np.abs(farfield_order2(sc, k, d, config30)
                            - farfield_order1(sc, k, d, config30)))
        gaps.append(gap)
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=1e-6)
    assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=1e-6)


# ---------------------------------------------------------------- predictors

def test_structure1_peak_at_center(k):
    grid = ImagingGrid(-0.5, 0.5, -0.5, 0.5, 101, 101)
    imap = predict_structure1(Scene((Crack((0.1, -0.2), 0.05, 0.0),)), k, grid)
    assert np.allclose(argmax_point(imap), [0.1, -0.2])
    assert imap.values.max() == 1.0


def test_structure1_zero_ring(k):
    grid = ImagingGrid(-0.5, 0.5, -0.5, 0.5, 201, 201)
    imap = predict_structure1(_origin_crack(), k, grid)
    r0 = 2.404825557695773 / k
    # value near the first J0 zero radius is near zero
    ix = int(round((r0 + 0.5) / (1.0 / 200)))
    # nearest grid point is within half a cell of the ring, slope of |J0|
    # there is k*|J1(j01)| which limits the achievable smallness
    assert imap.values[100, ix] < 0.02


def test_structure1_two_crack_peak_ratio(k):
    sc = Scene((Crack((-0.45, 0.0), 0.05, 0.0), Crack((0.45, 0.0), 0.03, 0.0)))
    grid = ImagingGrid(-1.0, 1.0, -0.25, 0.25, 401, 101)
    imap = predict_structure1(sc, k, grid)
    v1 = imap.values[50, 110]   # at (-0.45, 0)
    v3 = imap.values[50, 290]   # at (0.45, 0)
    assert v3 / v1 == pytest.approx(math.log(0.025) / math.log(0.015), rel=0.05)


def test_structure1_shape_invariant_under_weight_scaling(k):
    # ln(l/2) -> c*ln(l/2) for all cracks rescales the raw map uniformly
    grid = ImagingGrid(-1.0, 1.0, -1.0, 1.0, 41, 41)
    sc_a = Scene((Crack((-0.3, 0.0), 0.05, 0.0), Crack((0.3, 0.1), 0.05, 1.0)))
    scale = 2.0
    half_b = 2.0 * math.exp(scale * math.log(0.05 / 2.0))
    sc_b = Scene((Crack((-0.3, 0.0), half_b, 0.0), Crack((0.3, 0.1), half_b, 1.0)))
    a = predict_structure1(sc_a, k, grid)
    b = predict_structure1(sc_b, k, grid)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_structure2_matches_structure1_when_orthogonal(k):
    grid = ImagingGrid(-0.5, 0.5, -0.5, 0.5, 81, 81)
    sc = _origin_crack(rot=0.0)
    m2 = predict_structure2(sc, k, np.array([0.0, 1.0]), grid)
    m1 = predict_structure1(sc, k, grid)
    assert np.max(np.abs(m2.values - m1.values)) < 1e-12


def test_structure2_zero_phi2_at_center(k):
    grid = ImagingGrid(-0.5, 0.5, -0.5, 0.5, 81, 81)
    _, phi2 = structure_fields(_origin_crack(), k, np.array([1.0, 0.0]), grid)
    assert phi2[81 * 40 + 40] == 0.0  # grid point exactly at the center


def test_structure2_requires_equal_half_lengths(k):
    grid = ImagingGrid(-0.5, 0.5, -0.5, 0.5, 21, 21)
    sc = Scene((Crack((0, 0), 0.05, 0.0), Crack((0.4, 0), 0.03, 0.0)))
    with pytest.raises(InputMismatchError):
        predict_structure2(sc, k, np.array([1.0, 0.0]), grid)


def test_structure2_second_term_bound(k):
    # k*l = 2*pi*0.05/0.5 scale scene; |Phi2|/|Phi1| bounded via |J1| <= 0.6
    half = 0.05
    grid = ImagingGrid(-1.0, 1.0, -1.0, 1.0, 101, 101)
    phi1, phi2 = structure_fields(_origin_crack(half=half), k,
                                  np.array([1.0, 0.0]), grid)
    bound = (k * half) ** 2 * abs(math.log(half / 2)) / 2.0 * 0.6
    assert np.max(np.abs(phi2)) / np.max(np.abs(phi1)) < bound


def test_aif_peak_and_large_l_limit(k):
    grid = ImagingGrid(-0.5, 0.5, -0.5, 0.5, 51, 51)
    sc = Scene((Crack((0.1, 0.1), 0.05, 0.4),))
    for L in (1, 4):
        angles = [2 * math.pi * i / L for i in range(1, L + 1)]
        imap = predict_aif(sc, k, angles, grid)
        assert np.allclose(argmax_point(imap), [0.1, 0.1])
    # many directions: cosine sums cancel, leaving the J0^2 envelope
    angles = [2 * math.pi * i / 64 for i in range(1, 65)]
    imap = predict_aif(sc, k, angles, grid)
    pts = grid_points(grid)
    r = np.linalg.norm(pts - np.array([0.1, 0.1]), axis=1)
    envelope = scipy_special.j0(k * r) ** 2
    envelope /= envelope.max()
    assert np.max(np.abs(imap.values.ravel() - envelope)) < 1e-3


def test_aif_far_value_decays(k):
    sc = _origin_crack()
    r = 30.0 / k
    grid = ImagingGrid(-3.0, 3.0, -3.0, 3.0, 121, 121)
    imap = predict_aif(sc, k, [2 * math.pi * i / 8 for i in range(1, 9)], grid)
    pts = grid_points(grid)
    far = np.linalg.norm(pts, axis=1) >= r
    assert np.max(imap.values.ravel()[far]) < 0.15


def _cosine_series(kr, to_center, angles, orders=120):
    """sum over alpha of J0 + 2 sum_{s<=orders} i^s J_s(kr) cos s(varphi - alpha).

    Summed term by term with scipy's jv, evaluated once per distinct radius.
    """
    varphi = np.arctan2(to_center[:, 1], to_center[:, 0])
    s = np.arange(1, orders + 1)[:, None]
    radii, inverse = np.unique(kr, return_inverse=True)
    coeffs = (2.0 * (1j ** s) * scipy_special.jv(s, radii))[:, inverse]
    cosines = sum(np.cos(s * (varphi - alpha)) for alpha in angles)
    return len(angles) * scipy_special.j0(kr) + np.sum(coeffs * cosines, axis=0)


def test_aif_matches_scipy_series_beyond_order_cap():
    # k r_max = 53.3 on this grid: the series needs orders beyond 64
    k = 4 * math.pi
    angles = [2 * math.pi * i / 8 for i in range(1, 9)]
    grid = ImagingGrid(-3.0, 3.0, -3.0, 3.0, 121, 121)
    to_center = -grid_points(grid)
    kr = k * np.linalg.norm(to_center, axis=1)
    raw = scipy_special.j0(kr) * _cosine_series(kr, to_center, angles)
    want = np.abs(raw) / np.abs(raw).max()
    imap = predict_aif(_origin_crack(), k, angles, grid)
    assert np.max(np.abs(imap.values.ravel() - want)) < 1e-10


def test_mif_matches_scipy_series_beyond_order_cap():
    # kF r_max = 59.2 on this grid, again beyond 64 orders; the k nodes follow
    # predict_mif's quadrature rule
    ks = sorted(2 * math.pi / lam for lam in np.linspace(0.3, 0.7, 5))
    k1, kF = ks[0], ks[-1]
    alpha = math.pi / 2
    grid = ImagingGrid(-2.0, 2.0, -2.0, 2.0, 41, 41)
    to_center = -grid_points(grid)
    r = np.linalg.norm(to_center, axis=1)
    n_panels = math.ceil((kF - k1) * r.max() / (2 * math.pi))
    nodes, weights = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(k1, kF, n_panels + 1)
    raw = np.zeros(r.size, dtype=complex)
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        for node, weight in zip(nodes, weights):
            kr = (0.5 * (lo + hi) + half * node) * r
            raw += half * weight * scipy_special.j0(kr) * _cosine_series(kr, to_center, [alpha])
    want = np.abs(raw) / np.abs(raw).max()
    imap = predict_mif(_origin_crack(), ks, alpha, grid)
    assert np.max(np.abs(imap.values.ravel() - want)) < 1e-10


def test_mif_matches_converged_band_integral(three_cracks):
    # the reference sums the band integral of J0 times the plane wave over
    # 32 panels of 16 points, far finer than predict_mif's rule
    ks = sorted(2 * math.pi / lam for lam in np.linspace(0.3, 0.7, 5))
    alpha = math.pi / 2
    d = np.array([math.cos(alpha), math.sin(alpha)])
    grid = ImagingGrid(-1.0, 1.0, -1.0, 1.0, 41, 41)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(ks[0], ks[-1], 33)
    raw = np.zeros(grid.nx * grid.ny, dtype=complex)
    for crack in three_cracks.cracks:
        to_center = np.asarray(crack.center) - grid_points(grid)
        r = np.linalg.norm(to_center, axis=1)
        w = (2 * math.pi) ** 2 / math.log(crack.half_length / 2)
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            for node, weight in zip(nodes, weights):
                kq = 0.5 * (lo + hi) + half * node
                raw += w * half * weight * scipy_special.j0(kq * r) * np.exp(1j * kq * (to_center @ d))
    want = np.abs(raw) / np.abs(raw).max()
    imap = predict_mif(three_cracks, ks, alpha, grid)
    assert np.max(np.abs(imap.values.ravel() - want)) < 1e-8


@pytest.mark.parametrize("scene", [sample_scene(), sample_scene(0.05, 0.09, 0.03)],
                         ids=["equal", "unequal"])
@pytest.mark.parametrize("side", [1.0, 8.0])
def test_predictors_match_their_bessel_closed_forms(scene, side):
    # the predictors sum plane waves over P observation directions; their J0/J1
    # closed forms, from scipy, hold to round-off once P exceeds z = k r_max by
    # its margin.  z runs from 17 (k1 on [-1, 1]^2) to 250 (kF on [-8, 8]^2)
    grid = ImagingGrid(-side, side, -side, side, 61, 61)
    k = 2 * math.pi / 0.5
    ks = sorted(2 * math.pi / lam for lam in np.linspace(0.3, 0.7, 5))
    angles = [2 * math.pi * i / 8 for i in range(1, 9)]
    d = np.array([[0.0, 1.0]])
    rmax = _grid_reach(scene, grid)
    nodes, weights = _gauss_legendre_panels(
        ks[0], ks[-1], math.ceil((ks[-1] - ks[0]) * rmax / (2 * math.pi)))
    cases = [(predict_structure1(scene, k, grid),
              j0_plane_wave_sum(scene, [k], [1.0], np.zeros((1, 2)), grid)),
             (predict_aif(scene, k, angles, grid),
              j0_plane_wave_sum(scene, [k], [1.0], unit_vectors(angles), grid)),
             (predict_mif(scene, ks, math.pi / 2, grid),
              j0_plane_wave_sum(scene, nodes, weights, d, grid))]
    if len({c.half_length for c in scene.cracks}) == 1:
        cases.append((predict_structure2(scene, k, d[0], grid),
                      sum(structure_fields(scene, k, d[0], grid))))
    for imap, raw in cases:
        want = np.abs(raw) / np.abs(raw).max()
        assert np.max(np.abs(imap.values.ravel() - want)) <= 1e-12


def test_mif_peak_and_raw_center_value(k):
    lams = np.linspace(0.3, 0.7, 5)
    ks = sorted(2 * math.pi / lam for lam in lams)
    grid = ImagingGrid(-0.4, 0.4, -0.4, 0.4, 41, 41)
    sc = _origin_crack()
    imap = predict_mif(sc, ks, math.pi / 2, grid)
    assert np.allclose(argmax_point(imap), [0.0, 0.0])
    assert imap.values[20, 20] == 1.0


def test_mif_envelope_center_and_reference_values():
    k1, kF = 2 * math.pi / 0.7, 2 * math.pi / 0.3
    assert float(mif_radial_envelope(k1, kF, 0.0)) == pytest.approx(1.0)
    # frozen from an mpmath evaluation of kF*Lambda(kF r) - k1*Lambda(k1 r)
    assert float(mif_radial_envelope(k1, kF, 0.143)) == pytest.approx(
        0.17771981401581682, abs=1e-12)


def test_mif_envelope_is_band_mean_of_j0sq_minus_j1sq():
    # d/dx[x(J0^2 + J1^2)] = J0^2 - J1^2 makes the envelope the band mean of
    # J0(kr)^2 - J1(kr)^2; scipy's j0/j1 serve as the independent reference
    k1, kF = 2 * math.pi / 0.7, 2 * math.pi / 0.3
    r = np.linspace(0.0, 0.5, 2001)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    edges = np.linspace(k1, kF, 9)
    total = np.zeros_like(r)
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        for node, weight in zip(nodes, weights):
            kr = (0.5 * (lo + hi) + half * node) * r
            total += half * weight * (scipy_special.j0(kr) ** 2
                                      - scipy_special.j1(kr) ** 2)
    band_mean = np.abs(total) / (kF - k1)
    assert np.max(np.abs(mif_radial_envelope(k1, kF, r) - band_mean)) < 1e-12


def test_mif_envelope_zero_width_limit():
    # as kF -> k1 = K the envelope tends to |J0(Kr)^2 - J1(Kr)^2|, not J0^2
    K = 2 * math.pi / 0.5
    r = np.linspace(0.0, 0.5, 2001)
    limit = np.abs(scipy_special.j0(K * r) ** 2 - scipy_special.j1(K * r) ** 2)
    env = mif_radial_envelope(K, K * (1.0 + 1e-7), r)
    assert np.max(np.abs(env - limit)) < 1e-6


def test_mif_envelope_suppresses_later_lobes():
    # beyond the first side lobe, the multi-frequency envelope sits well below
    # the single-frequency J0^2 profile
    k1, kF = 2 * math.pi / 0.7, 2 * math.pi / 0.3
    r = np.linspace(0.25, 1.0, 1501)
    env = mif_radial_envelope(k1, kF, r)
    j0sq = scipy_special.j0(2 * math.pi / 0.5 * r) ** 2
    assert np.max(env) < 0.5 * np.max(j0sq)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_predictors_reject_bad_wavenumber(k, bad):
    grid = ImagingGrid(-0.4, 0.4, -0.4, 0.4, 11, 11)
    sc = _origin_crack()
    with pytest.raises(DomainError):
        predict_structure1(sc, bad, grid)
    with pytest.raises(DomainError):
        predict_structure2(sc, bad, np.array([0.0, 1.0]), grid)
    with pytest.raises(DomainError):
        predict_aif(sc, bad, [0.0, 1.0], grid)
    with pytest.raises(DomainError):
        predict_mif(sc, [k, k + bad], 0.0, grid)


def test_predictors_give_zero_map_for_empty_scene(k):
    grid = ImagingGrid(-0.4, 0.4, -0.4, 0.4, 11, 11)
    assert predict_structure1(Scene(()), k, grid).zero_map
    assert predict_aif(Scene(()), k, [0.0, 1.0], grid).zero_map
    assert predict_mif(Scene(()), [k, 1.5 * k], 0.0, grid).zero_map


def test_mif_requires_two_increasing_wavenumbers(k):
    grid = ImagingGrid(-0.4, 0.4, -0.4, 0.4, 11, 11)
    with pytest.raises(InputMismatchError):
        predict_mif(_origin_crack(), [k], 0.0, grid)
    with pytest.raises(DomainError):
        predict_mif(_origin_crack(), [k, k], 0.0, grid)
