import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j0

from crackdsm import imaging
from crackdsm.errors import DomainError, InputMismatchError
from crackdsm.asymptotic import (farfield_order1, predict_aif, predict_mif,
                                 predict_structure1, predict_structure2)
from crackdsm.forward import QuadratureSpec, far_field_tensor
from crackdsm.imaging import (AcquisitionConfig, FarFieldTensor, ImagingGrid,
                              IndicatorMap, find_local_maxima, indicator_aif,
                              indicator_if, indicator_mif, indicator_single,
                              map_distance, observation_directions)
from crackdsm.scene import Crack, Scene
from paper import argmax_point, direct_axis_tables, grid_points, loop_local_maxima


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
    pts = grid_points(grid)
    assert pts.shape == (15, 2)
    assert np.allclose(pts[0], [-1.0, 0.0])     # x varies fastest
    assert np.allclose(pts[1], [-0.5, 0.0])
    assert np.allclose(pts[5], [-1.0, 0.25])


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
    # angles 2*pi*n/N for n = 1..N: pi/2, pi, 3*pi/2, 2*pi
    dirs = observation_directions(4)
    assert np.allclose(dirs, [[0, 1], [-1, 0], [0, -1], [1, 0]], atol=1e-15)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


def test_indicator_map_normalization():
    grid = ImagingGrid(0, 1, 0, 1, 3, 3)
    imap = IndicatorMap.from_raw(grid, np.arange(9.0))
    assert imap.values.max() == 1.0 and not imap.zero_map
    zero = IndicatorMap.from_raw(grid, np.zeros(9))
    assert zero.zero_map and np.all(zero.values == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_indicator_map_refuses_non_finite_values(bad):
    grid = ImagingGrid(0, 1, 0, 1, 3, 3)
    raw = np.arange(9.0)
    raw[4] = bad
    with pytest.raises(DomainError, match="not finite"):
        IndicatorMap.from_raw(grid, raw)


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
    assert indicator_if(tensor, 0, grid).zero_map
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


@pytest.mark.parametrize("case", ["order1", "one zero row", "all zero"])
def test_if_is_bitwise_the_max_of_the_single_maps(k, three_cracks, case):
    # the if map takes its tables once for all rows, yet each row's map is
    # the single-direction map to the bit
    grid = ImagingGrid(-1.0, 1.2, -0.8, 1.0, 41, 33)
    angles = [2 * math.pi * l / 8 for l in range(1, 9)]
    tensor = _tensor_order1(three_cracks, k, angles)
    if case != "order1":
        values = tensor.values.copy()
        values[0, 2 if case == "one zero row" else slice(None)] = 0.0
        tensor = FarFieldTensor(values, tensor.config)
    singles = [indicator_single(tensor, 0, l, grid).values for l in range(len(angles))]
    want = IndicatorMap.from_raw(grid, np.maximum.reduce(singles))
    got = indicator_if(tensor, 0, grid)
    assert np.array_equal(got.values, want.values)
    assert got.zero_map == want.zero_map == (case == "all zero")


def test_if_refuses_a_row_that_overflows(k, three_cracks):
    grid = ImagingGrid(-1, 1, -1, 1, 21, 21)
    tensor = _tensor_order1(three_cracks, k, [0.7, 1.9, 3.3])
    values = tensor.values.copy()
    values[0, 1] = 1e308
    tensor = FarFieldTensor(values, tensor.config)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="not finite"):
            indicator_single(tensor, 0, 1, grid)
        with pytest.raises(DomainError, match="not finite"):
            indicator_if(tensor, 0, grid)


def test_if_takes_its_exponentials_once_per_map(monkeypatch, k):
    # the steering tables depend on k, the observation directions and the
    # grid, not on the incident direction
    grid = ImagingGrid(-1, 1, -1, 1, 31, 31)
    axis_tables = imaging._axis_tables
    taken = []

    def counting(coords, w):
        tables = axis_tables(coords, w)
        taken.append(sum(table.size for table in tables))
        return tables

    monkeypatch.setattr(imaging, "_axis_tables", counting)
    counts = {}
    for n_inc in (1, 8, 30):
        rng = np.random.default_rng(n_inc)
        data = rng.standard_normal((1, n_inc, 30)) + 1j * rng.standard_normal((1, n_inc, 30))
        angles = tuple(2 * math.pi * l / n_inc for l in range(n_inc))
        taken.clear()
        indicator_if(FarFieldTensor(data, AcquisitionConfig((k,), 30, angles)), 0, grid)
        counts[n_inc] = (len(taken), sum(taken))
    assert counts[1] == counts[8] == counts[30], counts
    assert counts[1][0] == 2  # one call per grid axis


def test_aif_sharpens_toward_j0_squared(k):
    sc = Scene((Crack((0.0, 0.0), 0.05, 0.9),))
    grid = ImagingGrid(-0.5, 0.5, -0.5, 0.5, 51, 51)
    L = 32
    tensor = _tensor_order1(sc, k, [2 * math.pi * l / L for l in range(1, L + 1)],
                            n_obs=64)
    imap = indicator_aif(tensor, 0, grid)
    r = np.linalg.norm(grid_points(grid), axis=1).reshape(grid.shape)
    ref = j0(k * r) ** 2
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
    assert np.allclose(argmax_point(imap), [0.2, -0.15], atol=0.026)


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
    with pytest.raises(DomainError):
        find_local_maxima(_map_from(grid, np.zeros((5, 5))), math.nan)
    with pytest.raises(DomainError):
        find_local_maxima(_map_from(grid, np.zeros((5, 5))), 0.2, floor=math.nan)


def _pruning_cases(k, three_cracks):
    """(map, separation, floor) triples: indicator maps, noisy maps and random
    maps, with separations that are exact multiples of the grid step."""
    tensor = _tensor_order1(three_cracks, k, [0.3, math.pi / 2, 2.5])
    rng = np.random.default_rng(5)
    # steps 1/64 and 1/16 make exact distances; 1/50 and 1/20 do not
    for n, noisy in ((129, False), (101, False), (33, True), (41, True)):
        grid = ImagingGrid(-1, 1, -1, 1, n, n)
        h = (grid.x_max - grid.x_min) / (grid.nx - 1)
        maps = [indicator_single(tensor, 0, 1, grid), indicator_if(tensor, 0, grid),
                indicator_aif(tensor, 0, grid), predict_structure1(three_cracks, k, grid)]
        if noisy:
            maps = [IndicatorMap.from_raw(grid, np.clip(
                m.values + 0.05 * rng.standard_normal(grid.shape), 0.0, None)) for m in maps]
        for imap in maps:
            for sep, floor in ((0.2, 0.5), (0.2, 0.0), (2 * h, 0.0), (5 * h, 0.1)):
                yield imap, sep, floor
    for seed, n in ((1, 41), (2, 41), (3, 41)):
        grid = ImagingGrid(-1, 1, -1, 1, n, n)
        h = (grid.x_max - grid.x_min) / (grid.nx - 1)
        imap = IndicatorMap(grid, np.random.default_rng(seed).uniform(size=grid.shape))
        for sep in (2 * h, 3 * h, 5 * h, 0.3):
            yield imap, sep, 0.0


def test_vectorised_pruning_matches_the_scalar_loop(k, three_cracks):
    for imap, sep, floor in _pruning_cases(k, three_cracks):
        want = loop_local_maxima(imap, sep, floor=floor, scene=three_cracks)
        got = find_local_maxima(imap, sep, floor=floor, scene=three_cracks)
        assert got == want, (imap.grid, sep, floor)


def test_pruning_decides_exact_ties_at_the_separation():
    # (3h, 4h) and (2h, 0) lie exactly 5h and 2h away on a dyadic grid
    grid = ImagingGrid(0, 1, 0, 1, 17, 17)
    h = 1 / 16
    v = np.zeros((17, 17))
    v[4, 4], v[8, 7], v[4, 6], v[12, 12] = 1.0, 0.9, 0.8, 0.7
    values = [p.value for p in find_local_maxima(_map_from(grid, v), 5 * h).peaks]
    assert values == [1.0, 0.9, 0.7]
    values = [p.value for p in find_local_maxima(_map_from(grid, v), 2 * h).peaks]
    assert values == [1.0, 0.9, 0.8, 0.7]


def _distance_cases(xs):
    """Pairs (a, b, c, d) of grid indices: (87, 1, 12, 87), whose np.linalg.norm
    distance OpenBLAS's SkylakeX kernel rounds one ulp above
    sqrt(dx*dx + dy*dy) and its Prescott kernel does not, then, one per sign,
    the first random pairs whose norm this host rounds away from it."""
    cases = {None: (87, 1, 12, 87)}
    for a, b, c, d in np.random.default_rng(0).integers(0, len(xs), size=(4000, 4)).tolist():
        if abs(a - c) < 2 or abs(b - d) < 2:
            continue
        diff = np.array([xs[c] - xs[a], xs[d] - xs[b]])
        gap = np.linalg.norm(diff) - np.sqrt(diff[0] * diff[0] + diff[1] * diff[1])
        if gap != 0.0:
            cases.setdefault(gap > 0.0, (a, b, c, d))
    return list(cases.values())


def test_pruning_and_matches_measure_one_distance():
    # the peaks at (a, b) and (c, d) lie dist = sqrt(dx*dx + dy*dy) apart,
    # whatever np.linalg.norm gives: at separation dist both are kept, one ulp
    # above it the lower is pruned, and a crack at (c, d) matches (a, b) at dist
    grid = ImagingGrid(-1, 1, -1, 1, 101, 101)
    xs = grid.x_coords().tolist()  # and the y coordinates
    for a, b, c, d in _distance_cases(xs):
        dx, dy = xs[c] - xs[a], xs[d] - xs[b]
        dist = math.sqrt(dx * dx + dy * dy)
        v = np.zeros(grid.shape)
        v[b, a], v[d, c] = 1.0, 0.9
        imap = _map_from(grid, v)
        assert [p.value for p in find_local_maxima(imap, dist).peaks] == [1.0, 0.9]
        scene = Scene((Crack((xs[c], xs[d]), 0.05, 0.0),))
        report = find_local_maxima(imap, np.nextafter(dist, math.inf), scene=scene)
        assert [p.value for p in report.peaks] == [1.0]
        assert report.crack_matches == [((xs[c], xs[d]), dist, 1.0)], (a, b, c, d)


def test_crack_matches_take_the_first_of_equally_near_peaks():
    # the crack at (4h, 8h) lies 4h from the peaks at (4h, 4h) and (4h, 12h)
    # on a dyadic grid; the higher one, kept first, is its match
    grid = ImagingGrid(0, 1, 0, 1, 17, 17)
    v = np.zeros((17, 17))
    v[12, 4], v[4, 4], v[16, 16] = 1.0, 0.9, 0.8
    scene = Scene((Crack((0.25, 0.5), 0.05, 0.0), Crack((0.9, 0.1), 0.05, 0.0)))
    report = find_local_maxima(_map_from(grid, v), 0.1, scene=scene)
    assert report == loop_local_maxima(_map_from(grid, v), 0.1, scene=scene)
    assert report.crack_matches[0] == ((0.25, 0.5), 0.25, 1.0)


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

def _brute_corr(row, k, grid, d=(0.0, 0.0), turn=0.0):
    """sum_n row_n e^{ik theta_n . x} e^{-ik d . x}, one direction at a time.

    Evaluated at the grid points turned by ``turn`` radians about the origin.
    """
    c, s = math.cos(turn), math.sin(turn)
    pts = grid_points(grid) @ np.array([[c, s], [-s, c]])
    theta = observation_directions(row.size)
    out = np.zeros(pts.shape[0], dtype=complex)
    for n in range(row.size):
        out += row[n] * np.exp(1j * k * (pts @ theta[n]))
    return (out * np.exp(-1j * k * (pts @ np.asarray(d)))).reshape(grid.shape)


def _unit_peak(raw):
    return raw / raw.max()


@pytest.mark.parametrize("n", [2, 3, 4, 61, 101, 201, 1001])
def test_axis_phases_match_the_direct_exponential(n):
    # the coarse/fine tables round to within 1.6 eps * max(1, |w| max|x|) of
    # e^{i w x} on these axes (measured); |w x| reaches 2e3, the [-32, 32]^2
    # predictor grid's scale
    eps = np.finfo(float).eps
    rng = np.random.default_rng(n)
    for lo, hi in ((-1.0, 1.0), (-32.0, 32.0), (0.3, 7.1), (-32.0, 0.5)):
        x = np.linspace(lo, hi, n)
        wmax = 2e3 / max(abs(lo), abs(hi))
        w = np.concatenate([rng.uniform(-wmax, wmax, 200), [wmax, -wmax, 0.0]])
        u = rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size)
        got = imaging._axis_phases(imaging._axis_tables(x, w), n, u)
        assert got.shape == (n, w.size)
        err = np.abs(got - u * np.exp(1j * np.outer(x, w))) / np.abs(u)
        assert np.all(err <= 4.0 * eps * np.maximum(1.0, np.abs(w) * np.abs(x).max()))


@pytest.mark.parametrize("side", [61, 101])
@pytest.mark.parametrize("half_width", [1.0, 4.0])
def test_every_map_matches_the_direct_exponential_kernel(monkeypatch, k, three_cracks,
                                                         side, half_width):
    grid = ImagingGrid(-half_width, half_width, -half_width, half_width, side, side)
    angles = [2 * math.pi * l / 8 for l in range(1, 9)]
    ks = tuple(sorted(2 * math.pi / np.linspace(0.3, 0.7, 5)))
    multi = _tensor_order1(three_cracks, k, angles)
    band = _band_order1(three_cracks, ks, math.pi / 2)
    maps = {
        "single": lambda: indicator_single(multi, 0, 3, grid),
        "if": lambda: indicator_if(multi, 0, grid),
        "aif": lambda: indicator_aif(multi, 0, grid),
        "mif": lambda: indicator_mif(band, grid),
        "s1": lambda: predict_structure1(three_cracks, k, grid),
        "s2": lambda: predict_structure2(three_cracks, k, np.array([0.0, 1.0]), grid),
        "predict aif": lambda: predict_aif(three_cracks, k, angles, grid),
        "predict mif": lambda: predict_mif(three_cracks, ks, math.pi / 2, grid),
    }
    got = {name: make().values for name, make in maps.items()}
    # every map, the predictors' through imaging._steered_sum, takes its
    # exponentials from imaging._axis_tables alone
    monkeypatch.setattr(imaging, "_axis_tables", direct_axis_tables)
    for name, make in maps.items():
        assert np.max(np.abs(got[name] - make().values)) <= 1e-13, name


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


@pytest.mark.parametrize("generator", ["order1", "full"])
@pytest.mark.parametrize("j", [1, 7, 13])
def test_rotation_covariance(k, three_cracks, generator, j):
    # turning scene and incident directions by 2*pi*j/N maps the N observation
    # directions onto themselves, so each map becomes the old map at the grid
    # points turned back; the turned grid is not axis aligned, so the old map
    # there is the brute-force sum
    n_obs, angles = 30, (0.4, 2.1, 4.0)
    beta = 2 * math.pi * j / n_obs
    c, s = math.cos(beta), math.sin(beta)
    turned = Scene(tuple(Crack((c * x - s * y, s * x + c * y), cr.half_length,
                               cr.rotation + beta)
                         for cr in three_cracks.cracks for x, y in [cr.center]))

    def tensor(scene, incident):
        cfg = AcquisitionConfig((k,), n_obs, incident)
        if generator == "full":
            return far_field_tensor(scene, cfg, QuadratureSpec(nodes_per_crack=32))
        return FarFieldTensor([farfield_order1(scene, k, cfg.incident_directions(), cfg)], cfg)

    base = tensor(three_cracks, angles)
    new = tensor(turned, tuple(a + beta for a in angles))
    grid = ImagingGrid(-0.8, 1.1, -0.9, 0.6, 29, 23)
    dirs = base.config.incident_directions()
    want_single = _unit_peak(np.abs(_brute_corr(base.values[0, 0], k, grid, turn=-beta)))
    want_aif = _unit_peak(np.abs(sum(_brute_corr(base.values[0, l], k, grid, dirs[l], -beta)
                                     for l in range(3))))
    assert np.max(np.abs(indicator_single(new, 0, 0, grid).values - want_single)) < 1e-12
    assert np.max(np.abs(indicator_aif(new, 0, grid).values - want_aif)) < 1e-12


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
