import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crackdsm.errors import DomainError, InputMismatchError
from crackdsm.asymptotic import farfield_order1, predict_structure1
from crackdsm.forward import AcquisitionConfig, FarFieldTensor
from crackdsm.imaging import (ImagingGrid, IndicatorMap, correlate,
                              find_local_maxima, indicator_aif, indicator_if,
                              indicator_mif, indicator_single, map_distance,
                              observation_angles, observation_directions,
                              steering_vector)
from crackdsm.scene import Crack, Scene
from crackdsm.specfun import bessel_j0


def _tensor_order1(scene, k, angles, n_obs=30):
    cfg = AcquisitionConfig((k,), n_obs, tuple(angles))
    rows = []
    for ang in angles:
        d = np.array([math.cos(ang), math.sin(ang)])
        rows.append(farfield_order1(scene, k, d, cfg))
    return FarFieldTensor(np.asarray(rows)[None, :, :], cfg)


# -------------------------------------------------------------------- basics

def test_grid_layout():
    grid = ImagingGrid(-1.0, 1.0, 0.0, 0.5, 5, 3)
    assert grid.shape == (3, 5)
    assert np.allclose(grid.x_coords(), [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.allclose(grid.y_coords(), [0.0, 0.25, 0.5])
    pts = grid.points()
    assert pts.shape == (15, 2)
    assert np.allclose(pts[0], [-1.0, 0.0])     # x varies fastest
    assert np.allclose(pts[1], [-0.5, 0.0])
    assert np.allclose(pts[5], [-1.0, 0.25])
    assert grid.spacing() == (0.5, 0.25)


def test_grid_validation():
    with pytest.raises(DomainError):
        ImagingGrid(1.0, -1.0, 0.0, 1.0, 5, 5)
    with pytest.raises(DomainError):
        ImagingGrid(0.0, 1.0, 0.0, 1.0, 1, 5)
    for i in range(4):
        for bad in (math.nan, math.inf, -math.inf):
            bounds = [-1.0, 1.0, -1.0, 1.0]
            bounds[i] = bad
            with pytest.raises(DomainError):
                ImagingGrid(*bounds, 5, 5)


def test_observation_angles_and_directions():
    ang = observation_angles(4)
    assert np.allclose(ang, [math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi])
    dirs = observation_directions(4)
    assert np.allclose(dirs, [[0, 1], [-1, 0], [0, -1], [1, 0]], atol=1e-15)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


def test_steering_vector_trivial(k):
    s = steering_vector(k, 8, [0.0, 0.0])
    assert np.allclose(s, 1.0)
    s = steering_vector(k, 4, [1.0, 0.0])
    assert np.allclose(np.abs(s), 1.0)
    assert s[3] == pytest.approx(np.exp(-1j * k), abs=1e-12)


def test_correlate_trivial():
    ones = np.ones(5, dtype=complex)
    assert correlate(ones, ones) == pytest.approx(5.0 + 0.0j)
    with pytest.raises(InputMismatchError):
        correlate(ones, np.ones(4, dtype=complex))


def test_correlate_self_steering_orthogonality(k):
    # <steer(x), steer(x')> ~ N * J0(k|x-x'|); near a J0 zero it nearly cancels
    n = 360
    r0 = 2.404825557695773 / k
    a = steering_vector(k, n, [0.0, 0.0])
    b = steering_vector(k, n, [r0, 0.0])
    assert abs(correlate(a, b)) / n < 0.02
    assert correlate(a, a) == pytest.approx(n + 0j)


def test_indicator_map_normalization():
    grid = ImagingGrid(0, 1, 0, 1, 3, 3)
    imap = IndicatorMap.from_raw(grid, np.arange(9.0))
    assert imap.values.max() == 1.0 and not imap.zero_map
    zero = IndicatorMap.from_raw(grid, np.zeros(9))
    assert zero.zero_map and np.all(zero.values == 0.0)


# ---------------------------------------------------------------- indicators

def test_single_indicator_matches_structure_prediction(k):
    # one small crack: the indicator map equals |J0(k r)| up to normalization
    sc = Scene((Crack((0.15, -0.1), 0.05, 0.2),))
    grid = ImagingGrid(-0.5, 0.5, -0.5, 0.5, 61, 61)
    tensor = _tensor_order1(sc, k, [math.pi / 2], n_obs=64)
    imap = indicator_single(tensor, 0, 0, grid)
    ref = predict_structure1(sc, k, grid)
    linf, _ = map_distance(imap, ref)
    assert linf < 5e-3


def test_single_indicator_values_bounded(k, three_cracks):
    grid = ImagingGrid(-1, 1, -1, 1, 41, 41)
    tensor = _tensor_order1(three_cracks, k, [math.pi / 2])
    imap = indicator_single(tensor, 0, 0, grid)
    assert imap.values.min() >= 0.0 and imap.values.max() == 1.0


def test_indicator_index_checks(k, three_cracks):
    grid = ImagingGrid(-1, 1, -1, 1, 11, 11)
    tensor = _tensor_order1(three_cracks, k, [0.5, 1.5])
    with pytest.raises(InputMismatchError):
        indicator_single(tensor, 1, 0, grid)
    with pytest.raises(InputMismatchError):
        indicator_single(tensor, 0, 2, grid)
    with pytest.raises(InputMismatchError):
        indicator_mif(tensor, grid)  # F = 1


def test_zero_data_flagged(k):
    cfg = AcquisitionConfig((k,), 16, (0.0,))
    tensor = FarFieldTensor(np.zeros((1, 1, 16), dtype=complex), cfg)
    grid = ImagingGrid(-1, 1, -1, 1, 11, 11)
    assert indicator_single(tensor, 0, 0, grid).zero_map
    assert indicator_aif(tensor, 0, grid).zero_map


def test_phase_invariance(k, three_cracks):
    grid = ImagingGrid(-1, 1, -1, 1, 31, 31)
    tensor = _tensor_order1(three_cracks, k, [math.pi / 2])
    base = indicator_single(tensor, 0, 0, grid)
    shifted = FarFieldTensor(tensor.values * np.exp(1.7j), tensor.config)
    rot = indicator_single(shifted, 0, 0, grid)
    linf, _ = map_distance(base, rot)
    assert linf < 1e-12


def test_scale_invariance(k, three_cracks):
    grid = ImagingGrid(-1, 1, -1, 1, 31, 31)
    tensor = _tensor_order1(three_cracks, k, [math.pi / 2])
    base = indicator_single(tensor, 0, 0, grid)
    scaled = FarFieldTensor(tensor.values * 37.5, tensor.config)
    linf, _ = map_distance(base, indicator_single(scaled, 0, 0, grid))
    assert linf < 1e-12


def test_quarter_turn_equivariance(k):
    # rotating scene and incident direction by pi/2 rotates the map, provided
    # the observation set is invariant under that rotation (n_obs % 4 == 0)
    grid = ImagingGrid(-1, 1, -1, 1, 41, 41)
    sc = Scene((Crack((0.3, 0.1), 0.05, 0.4),))
    rot = Scene((Crack((-0.1, 0.3), 0.05, 0.4 + math.pi / 2),))
    base = indicator_single(_tensor_order1(sc, k, [0.0], n_obs=32), 0, 0, grid)
    turned = indicator_single(_tensor_order1(rot, k, [math.pi / 2], n_obs=32),
                              0, 0, grid)
    assert np.max(np.abs(np.rot90(base.values, -1) - turned.values)) < 1e-10


def test_aif_single_direction_matches_single(k, three_cracks):
    grid = ImagingGrid(-1, 1, -1, 1, 31, 31)
    tensor = _tensor_order1(three_cracks, k, [math.pi / 2])
    a = indicator_aif(tensor, 0, grid)
    s = indicator_single(tensor, 0, 0, grid)
    linf, _ = map_distance(a, s)
    assert linf < 1e-12


def test_if_is_pointwise_max(k, three_cracks):
    grid = ImagingGrid(-1, 1, -1, 1, 21, 21)
    angles = [0.7, 1.9, 3.3]
    tensor = _tensor_order1(three_cracks, k, angles)
    stacked = np.stack([indicator_single(tensor, 0, l, grid).values
                        for l in range(3)])
    want = stacked.max(axis=0)
    want /= want.max()
    got = indicator_if(tensor, 0, grid)
    assert np.max(np.abs(got.values - want)) < 1e-12


def test_aif_sharpens_toward_j0_squared(k):
    sc = Scene((Crack((0.0, 0.0), 0.05, 0.9),))
    grid = ImagingGrid(-0.5, 0.5, -0.5, 0.5, 51, 51)
    L = 32
    tensor = _tensor_order1(sc, k, [2 * math.pi * l / L for l in range(1, L + 1)],
                            n_obs=64)
    imap = indicator_aif(tensor, 0, grid)
    r = np.linalg.norm(grid.points(), axis=1).reshape(grid.shape)
    ref = bessel_j0(k * r) ** 2
    assert np.max(np.abs(imap.values - ref / ref.max())) < 5e-3


def test_mif_requires_single_direction(k):
    cfg = AcquisitionConfig((k, 1.5 * k), 16, (0.1, 0.2))
    tensor = FarFieldTensor(np.ones((2, 2, 16), dtype=complex), cfg)
    grid = ImagingGrid(-1, 1, -1, 1, 11, 11)
    with pytest.raises(InputMismatchError):
        indicator_mif(tensor, grid)


def test_mif_peaks_at_crack(k):
    sc = Scene((Crack((0.2, -0.15), 0.05, 0.6),))
    lams = np.linspace(0.4, 0.6, 4)
    ks = tuple(sorted(2 * math.pi / lam for lam in lams))
    cfg = AcquisitionConfig(ks, 48, (math.pi / 2,))
    rows = []
    for kk in ks:
        d = np.array([0.0, 1.0])
        rows.append([farfield_order1(sc, kk, d, cfg)])
    tensor = FarFieldTensor(np.asarray(rows), cfg)
    grid = ImagingGrid(-0.5, 0.5, -0.5, 0.5, 41, 41)
    imap = indicator_mif(tensor, grid)
    assert np.allclose(imap.argmax_point(), [0.2, -0.15], atol=0.026)


# ------------------------------------------------------------------ peaks etc

def _map_from(grid, arr):
    return IndicatorMap(grid, np.asarray(arr, dtype=float))


def test_constant_map_has_no_strict_maxima():
    grid = ImagingGrid(0, 1, 0, 1, 5, 5)
    report = find_local_maxima(_map_from(grid, np.ones((5, 5))), 0.1)
    assert report.peaks == []


def test_single_peak_found():
    grid = ImagingGrid(0, 1, 0, 1, 5, 5)
    v = np.zeros((5, 5))
    v[2, 3] = 1.0
    report = find_local_maxima(_map_from(grid, v), 0.1, floor=0.5)
    assert len(report.peaks) == 1
    assert report.peaks[0].position == (0.75, 0.5)
    assert report.peaks[0].value == 1.0


def test_min_separation_prunes_lower_peak():
    grid = ImagingGrid(0, 1, 0, 1, 11, 11)
    v = np.zeros((11, 11))
    v[5, 3] = 1.0
    v[5, 5] = 0.8   # 0.2 away, below separation 0.3
    v[5, 9] = 0.6
    report = find_local_maxima(_map_from(grid, v), 0.3)
    assert [p.value for p in report.peaks] == [1.0, 0.6]


def test_floor_filters_peaks():
    grid = ImagingGrid(0, 1, 0, 1, 11, 11)
    v = np.zeros((11, 11))
    v[2, 2] = 1.0
    v[8, 8] = 0.3
    report = find_local_maxima(_map_from(grid, v), 0.1, floor=0.5)
    assert len(report.peaks) == 1


def test_peak_report_crack_matches(k, three_cracks):
    grid = ImagingGrid(-1, 1, -1, 1, 201, 201)
    tensor = _tensor_order1(three_cracks, k, [math.pi / 2])
    imap = indicator_single(tensor, 0, 0, grid)
    report = find_local_maxima(imap, 0.2, floor=0.4, scene=three_cracks)
    assert len(report.crack_matches) == 3
    for _, dist, value in report.crack_matches:
        assert dist < 0.06
        assert value > 0.4


def test_find_local_maxima_rejects_bad_separation():
    grid = ImagingGrid(0, 1, 0, 1, 5, 5)
    with pytest.raises(DomainError):
        find_local_maxima(_map_from(grid, np.zeros((5, 5))), 0.0)


def test_map_distance_trivial_and_mismatch():
    g1 = ImagingGrid(0, 1, 0, 1, 5, 5)
    g2 = ImagingGrid(0, 1, 0, 1, 7, 7)
    a = _map_from(g1, np.zeros((5, 5)))
    b = _map_from(g1, np.full((5, 5), 0.5))
    assert map_distance(a, a) == (0.0, 0.0)
    assert map_distance(a, b) == (0.5, 0.5)
    with pytest.raises(InputMismatchError):
        map_distance(a, _map_from(g2, np.zeros((7, 7))))


@given(scale=st.floats(min_value=1e-3, max_value=1e3),
       phase=st.floats(min_value=-math.pi, max_value=math.pi))
@settings(max_examples=30, deadline=None)
def test_indicator_invariance_property(scale, phase):
    k = 2 * math.pi / 0.5
    sc = Scene((Crack((0.2, 0.1), 0.05, 0.3),))
    grid = ImagingGrid(-0.5, 0.5, -0.5, 0.5, 11, 11)
    tensor = _tensor_order1(sc, k, [1.0], n_obs=16)
    base = indicator_single(tensor, 0, 0, grid)
    mod = FarFieldTensor(tensor.values * scale * np.exp(1j * phase),
                         tensor.config)
    linf, _ = map_distance(base, indicator_single(mod, 0, 0, grid))
    assert linf < 1e-10


# ------------------------------------------------- kernel against brute force

def _brute_corr(row, k, grid, d=(0.0, 0.0)):
    """sum_n row_n e^{ik theta_n . x} e^{-ik d . x}, one direction at a time."""
    pts = grid.points()
    theta = observation_directions(row.size)
    out = np.zeros(pts.shape[0], dtype=complex)
    for n in range(row.size):
        out += row[n] * np.exp(1j * k * (pts @ theta[n]))
    return (out * np.exp(-1j * k * (pts @ np.asarray(d)))).reshape(grid.shape)


def _unit_peak(raw):
    return raw / raw.max()


def test_indicators_match_brute_force_sum(k):
    # non-square, off-centre grid; random complex data
    grid = ImagingGrid(-0.3, 1.1, -0.9, 0.4, 37, 23)
    rng = np.random.default_rng(11)
    angles = (0.4, 2.1, 4.0)
    data = rng.standard_normal((1, 3, 30)) + 1j * rng.standard_normal((1, 3, 30))
    multi = FarFieldTensor(data, AcquisitionConfig((k,), 30, angles))
    ks = (k, 1.2 * k, 1.5 * k)
    band = FarFieldTensor(data.transpose(1, 0, 2),
                          AcquisitionConfig(ks, 30, (angles[0],)))
    dirs = multi.config.incident_directions()
    singles = [_unit_peak(np.abs(_brute_corr(data[0, l], k, grid))) for l in range(3)]
    want = {
        "single": singles[1],
        "if": _unit_peak(np.max(singles, axis=0)),
        "aif": _unit_peak(np.abs(sum(_brute_corr(data[0, l], k, grid, dirs[l])
                                     for l in range(3)))),
        "mif": _unit_peak(np.abs(sum(_brute_corr(data[0, f], ks[f], grid, dirs[0])
                                     for f in range(3)))),
    }
    got = {
        "single": indicator_single(multi, 0, 1, grid),
        "if": indicator_if(multi, 0, grid),
        "aif": indicator_aif(multi, 0, grid),
        "mif": indicator_mif(band, grid),
    }
    for name, imap in got.items():
        assert imap.values.shape == (23, 37)
        assert np.max(np.abs(imap.values - want[name])) < 1e-12, name


def _band_order1(scene, ks, angle, n_obs=30):
    cfg = AcquisitionConfig(tuple(ks), n_obs, (angle,))
    d = np.array([math.cos(angle), math.sin(angle)])
    rows = [[farfield_order1(scene, kk, d, cfg)] for kk in ks]
    return FarFieldTensor(np.asarray(rows), cfg)


@given(ax=st.floats(min_value=-2.0, max_value=2.0),
       ay=st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=20, deadline=None)
def test_translation_covariance_property(ax, ay):
    # moving scene and grid together leaves every compensated map unchanged
    k = 2 * math.pi / 0.5
    cracks = ((0.2, -0.1, 0.3), (-0.3, 0.25, 1.2))
    scene = Scene(tuple(Crack((x, y), 0.05, r) for x, y, r in cracks))
    moved = Scene(tuple(Crack((x + ax, y + ay), 0.05, r) for x, y, r in cracks))
    grid = ImagingGrid(-0.6, 0.6, -0.5, 0.5, 25, 21)
    shifted = ImagingGrid(-0.6 + ax, 0.6 + ax, -0.5 + ay, 0.5 + ay, 25, 21)
    angles = [0.7, 1.9, 3.3]
    ks = (k, 1.2 * k, 1.4 * k)

    def maps(sc, g):
        multi = _tensor_order1(sc, k, angles)
        return (indicator_single(multi, 0, 0, g), indicator_aif(multi, 0, g),
                indicator_mif(_band_order1(sc, ks, 1.0), g))

    for base, moved_map in zip(maps(scene, grid), maps(moved, shifted)):
        assert np.max(np.abs(base.values - moved_map.values)) < 1e-10
