import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crackdsm
from crackdsm import io as cio
from crackdsm.errors import DomainError, SceneError
from crackdsm.imaging import AcquisitionConfig, FarFieldTensor, ImagingGrid, IndicatorMap
from crackdsm.scene import KX_HARD, Crack, Scene, crack_tangent, validate_scene
from paper import sample_scene


def test_tangent_axis_aligned():
    assert np.allclose(crack_tangent(Crack((0, 0), 1.0, 0.0)), [1, 0])
    assert np.allclose(crack_tangent(Crack((0, 0), 1.0, math.pi / 2)), [0, 1])
    assert np.allclose(crack_tangent(Crack((0, 0), 1.0, math.pi / 4)),
                       [math.sqrt(2) / 2, math.sqrt(2) / 2])


def _endpoints(crack):
    # the segment center -/+ half_length * tangent that CrackSystem puts its nodes on
    t = crack_tangent(crack)
    c = np.asarray(crack.center, dtype=float)
    return c - crack.half_length * t, c + crack.half_length * t


@given(cx=st.floats(-5, 5), cy=st.floats(-5, 5),
       half=st.floats(1e-3, 1.9), rot=st.floats(-10, 10))
@settings(max_examples=100, deadline=None)
def test_endpoint_properties(cx, cy, half, rot):
    crack = Crack((cx, cy), half, rot)
    a, b = _endpoints(crack)
    assert np.linalg.norm(b - a) == pytest.approx(2 * half, rel=1e-12)
    assert np.allclose(0.5 * (a + b), [cx, cy], atol=1e-12)
    assert np.linalg.norm(crack_tangent(crack)) == pytest.approx(1.0, abs=1e-14)


def test_rotation_by_pi_swaps_endpoints():
    crack = Crack((0.3, -0.1), 0.2, 0.7)
    flipped = Crack((0.3, -0.1), 0.2, 0.7 + math.pi)
    assert np.allclose(crack_tangent(flipped), -crack_tangent(crack))
    a, b = _endpoints(crack)
    fa, fb = _endpoints(flipped)
    assert np.allclose(a, fb) and np.allclose(b, fa)


def test_invalid_cracks_rejected():
    with pytest.raises(SceneError):
        Crack((0, 0), 0.0, 0.0)
    with pytest.raises(SceneError):
        Crack((0, 0), -0.1, 0.0)
    with pytest.raises(SceneError):
        Scene((Crack((0, 0), 0.1, 0.0), Crack((0, 0), 0.2, 1.0)))


def test_validate_scene_clean_pair():
    sc = Scene((Crack((0, 0), 0.01, 0.0), Crack((1, 0), 0.01, 0.3)))
    assert validate_scene(sc, 10.0) == []


def test_validate_scene_separation_violation():
    sc = Scene((Crack((0, 0), 0.01, 0.0), Crack((0.05, 0), 0.01, 0.3)))
    out = validate_scene(sc, 10.0)  # k * dist = 0.5 < 3/4
    assert len(out) == 1
    # the value to 6 significant digits
    assert out[0].startswith("[error] separation for crack(s) 0/1: value 0.5 ")


def test_validate_scene_separation_does_not_overflow_far_apart_centres():
    # |c_i - c_j|^2 overflows at 0.2e300 apart; k (|cx| + |cy| + h) is only
    # 2.5, so the scene is in range and its separation k d is 1.0
    sc = Scene((Crack((0.0, 0.0), 0.3e300, 0.0), Crack((0.0, 0.2e300), 0.3e300, 0.0)))
    assert validate_scene(sc, 5e-300) == []
    assert validate_scene(sc, 3.5e-300)[0].startswith(
        "[error] separation for crack(s) 0/1: value 0.7 ")


def _checks(scene, k):
    """(check, crack indices) of each message of validate_scene."""
    return [tuple(m.partition(": ")[0].split(" for crack(s) ")) for m in validate_scene(scene, k)]


@pytest.mark.parametrize("scene, k", [
    (sample_scene(), 2 * math.pi / 0.3),
    (Scene((Crack((0, 0), 0.01, 0.0), Crack((0.05, 0), 0.01, 0.3))), 10.0),   # separation
    (Scene((Crack((0, 0), 0.25, 0.0), Crack((0.125, 0), 0.25, math.pi / 2))), 4.0),  # crossing
])
@pytest.mark.parametrize("scale", [1e280, 1e-280])
def test_validate_scene_is_unchanged_by_scaling_lengths_against_k(scene, k, scale):
    # the checks read k times lengths only; scaling every length by s and k
    # by 1/s keeps them, far beyond where the lengths squared overflow or
    # underflow
    scaled = Scene(tuple(Crack((c.center[0] * scale, c.center[1] * scale),
                               c.half_length * scale, c.rotation) for c in scene.cracks))
    assert _checks(scaled, k / scale) == _checks(scene, k)


def test_validate_scene_size_error():
    k = 10.0
    assert validate_scene(Scene((Crack((0, 0), 0.07, 0.0),)), k) == []  # k*l = 0.7
    hard = Scene((Crack((0, 0), 0.25, 0.0),))  # k*l = 2.5
    out = validate_scene(hard, k)
    assert out == ["[error] crack-size for crack(s) 0: value 2.5 vs threshold 2"]


@pytest.mark.parametrize("second, meets", [
    (Crack((0.125, 0.0), 0.25, math.pi / 2), True),            # crossing
    (Crack((0.125, 0.25), 0.25, math.pi / 2), True),           # an end on the other's interior
    (Crack((0.25, 0.25), 0.25, math.pi / 2), True),            # end on end, at a right angle
    (Crack((0.5, 0.0), 0.25, 0.0), True),                      # collinear, end on end
    (Crack((0.375, 0.0), 0.25, 0.0), True),                    # collinear, overlapping
    (Crack((0.625, 0.0), 0.25, 0.0), False),                   # collinear, apart
    (Crack((0.0, 0.125), 0.25, 0.0), False),                   # parallel
    (Crack((0.125, 0.25 + 2.0**-10), 0.25, math.pi / 2), False),  # an end just off the other
    (Crack((0.5, 0.0), 0.25, math.pi / 2), False),             # across the other's line, past it
])
def test_validate_scene_refuses_crossing_and_touching_cracks(second, meets):
    first = Crack((0.0, 0.0), 0.25, 0.0)
    for cracks in ((first, second), (second, first)):
        crossing = [m for m in validate_scene(Scene(cracks), 4.0) if "crossing" in m]
        assert crossing == ["[error] crossing for crack(s) 0/1: the segments cross or touch"] * meets


def test_validate_scene_rejects_bad_wavenumber():
    with pytest.raises(DomainError):
        validate_scene(Scene(()), 0.0)


def test_validate_scene_rejects_overflowing_scaled_coordinates():
    # the solver's phases and distances use k times the coordinates; a finite
    # k * 1e308 is refused too, since its phases carry no digits
    far = Scene((Crack((1e308, 0.2), 0.05, 0.0),))
    for k in (4 * math.pi, 0.5):
        with pytest.raises(SceneError, match="overflow"):
            validate_scene(far, k)


def test_scene_check_keeps_phases_to_8_digits():
    # KX_HARD * 2^-53 is the rounding of the largest phase accepted
    assert KX_HARD * 2.0**-53 <= 1e-8
    k = 4 * math.pi
    assert validate_scene(Scene((Crack((KX_HARD / k - 1.0, 0.0), 0.05, 0.0),)), k) == []
    with pytest.raises(SceneError, match="too far out"):
        validate_scene(Scene((Crack((0.0, -1.0 - KX_HARD / k), 0.05, 0.0),)), k)


def test_benchmark_scene_passes_at_half_wavelength():
    k = 2 * math.pi / 0.5
    assert validate_scene(sample_scene(), k) == []


def test_benchmark_scene_geometry():
    sc = sample_scene()
    c1, c2, c3 = (np.asarray(c.center) for c in sc.cracks)
    assert np.allclose(c1, [0.6, 0.2])
    assert np.allclose(c2, [-0.05 / math.sqrt(2), -0.75 / math.sqrt(2)])
    r = 7 * math.pi / 6
    expect3 = [math.cos(r) * -0.25 - math.sin(r) * 0.6,
               math.sin(r) * -0.25 + math.cos(r) * 0.6]
    assert np.allclose(c3, expect3)
    assert sc.cracks[1].rotation == pytest.approx(math.pi / 2)


def test_validation_order_invariant():
    k = 9.0
    cracks = (Crack((0, 0), 0.01, 0.0), Crack((0.04, 0), 0.01, 0.1),
              Crack((2, 2), 0.3, 0.2))
    fwd = validate_scene(Scene(cracks), k)
    rev = validate_scene(Scene(cracks[::-1]), k)

    def renumbered(message):  # crack i of the reversed scene is crack 2 - i
        head, _, tail = message.partition(": ")
        check, _, who = head.rpartition(" ")
        who = "/".join(str(i) for i in sorted(2 - int(i) for i in who.split("/")))
        return f"{check} {who}: {tail}"
    assert len(fwd) == 2
    assert sorted(fwd) == sorted(map(renumbered, rev))


def test_geometry_and_imaging_import_without_scipy(tmp_path, three_cracks):
    # only the solver needs scipy: every command but simulate --generator full
    # runs without loading it.  One process runs them all, printing the scipy
    # modules loaded after the imports and after each command
    scene, tensor, map_a, map_b = (str(tmp_path / name) for name in
                                   ("scene.txt", "data.txt", "a.csv", "b.csv"))
    cio.write_scene(scene, three_cracks)
    cio.write_tensor(tensor, FarFieldTensor(np.ones((1, 1, 8)),
                                            AcquisitionConfig((4 * math.pi,), 8, (0.0,))))
    grid = ImagingGrid(-1, 1, -1, 1, 5, 5)
    for path in (map_a, map_b):
        cio.write_map_csv(path, IndicatorMap.from_raw(grid, np.arange(25.0)))
    out = str(tmp_path / "out")
    predictors = {"s1": ["--lambda", "0.5"], "s2": ["--lambda", "0.5"],
                  "aif": ["--lambda", "0.5", "--n-incident", "4"],
                  "mif": ["--lambda-range", "0.3,0.7", "--n-freq", "3"]}
    commands = [
        ["image", "--tensor", tensor, "--method", "single", "--grid=-1,1,-1,1,5,5",
         "--out", out],
        ["peaks", "--map", map_a, "--scene", scene],
        ["compare", "--a", map_a, "--b", map_b],
        *(["predict", "--scene", scene, "--predictor", name, *flags,
           "--grid=-1,1,-1,1,5,5", "--out", out] for name, flags in predictors.items()),
        *(["simulate", "--scene", scene, "--lambda", "0.5", "--generator", gen,
           "--out", out] for gen in ("order1", "order2")),
    ]
    probe = ("import sys\n"
             "import crackdsm.scene, crackdsm.imaging, crackdsm.errors, crackdsm.io\n"
             "import crackdsm.cli\n"
             "def scipy():\n"
             "    print('loaded', sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
             "scipy()\n"
             f"for argv in {commands!r}:\n"
             "    assert crackdsm.cli.main(argv) == 0, argv\n"
             "    scipy()\n")
    src = str(Path(crackdsm.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    loaded = [line for line in done.stdout.splitlines() if line.startswith("loaded ")]
    assert len(loaded) == len(commands) + 1
    for what, modules in zip([["import"], *commands], loaded):
        assert modules == "loaded []", what[:5]
