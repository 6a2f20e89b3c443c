"""Replaying a command under one and two BLAS threads, and under two OpenBLAS
kernels.

The same argv under the same `OPENBLAS_NUM_THREADS` writes the same bytes.
One thread against two changes how OpenBLAS splits its sums, so tensors and
maps may move at round-off, while the 16-bit PGMs stay identical.  Each run is
one interpreter with at most two BLAS threads; the runs go one after another,
so the test holds on a one-core host too.

`peaks` calls no BLAS, so it prints the same under the kernel OpenBLAS picks
for the CPU and under `OPENBLAS_CORETYPE=Prescott` (SSE3, which every x86-64
has; a newer core could fault on an older CPU).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import crackdsm
from crackdsm import io as cio
from crackdsm.imaging import ImagingGrid, IndicatorMap
from paper import sample_scene

# a three-wavenumber band with 30 directions, then the aif map at its middle
# wavenumber on a 101 x 101 grid
_RUN = """\
import sys
from crackdsm.cli import main
scene, out = sys.argv[1:]
assert main(["simulate", "--scene", scene, "--lambda-range", "0.4,0.6", "--n-freq", "3",
             "--n-incident", "30", "--n-obs", "30", "--generator", "full",
             "--out", out + "/data.txt"]) == 0
assert main(["image", "--tensor", out + "/data.txt", "--method", "aif", "--f-index", "1",
             "--grid=-1,1,-1,1,101,101", "--out", out + "/map"]) == 0
"""
_OUTPUTS = ("data.txt", "map.csv", "map.pgm")


# two peaks 2.28219192882632 apart on a 101 x 101 grid; the separation is one
# ulp above that, where np.linalg.norm under the SkylakeX kernel rounds their
# distance, so a peak finder that asks norm keeps both there and one under Prescott
_TIE_PEAKS = """\
import sys
from crackdsm.cli import main
sys.exit(main(["peaks", "--map", sys.argv[1], "--separation", "2.2821919288263204"]))
"""


def _run(tmp_path, scene, threads, name):
    out = tmp_path / name
    out.mkdir()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
           "PYTHONPATH": str(Path(crackdsm.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", _RUN, scene, str(out)], env=env, check=True,
                   capture_output=True)
    return out


def _assert_close(a, b):
    assert np.abs(a - b).max() <= 1e-14 * np.abs(a).max()


def test_replay_across_blas_thread_counts(tmp_path):
    scene = tmp_path / "scene.txt"
    cio.write_scene(scene, sample_scene())
    once, again = (_run(tmp_path, str(scene), 1, name) for name in ("one", "one-again"))
    two = _run(tmp_path, str(scene), 2, "two")
    for name in _OUTPUTS:
        assert (once / name).read_bytes() == (again / name).read_bytes(), name
    assert (once / "map.pgm").read_bytes() == (two / "map.pgm").read_bytes()
    _assert_close(cio.read_tensor(once / "data.txt").values,
                  cio.read_tensor(two / "data.txt").values)
    _assert_close(cio.read_map_csv(once / "map.csv").values,
                  cio.read_map_csv(two / "map.csv").values)


def test_peaks_print_the_same_under_two_blas_kernels(tmp_path):
    grid = ImagingGrid(-1, 1, -1, 1, 101, 101)
    v = np.zeros(grid.shape)
    v[1, 87], v[87, 12] = 1.0, 0.9
    cio.write_map_csv(tmp_path / "map.csv", IndicatorMap(grid, v))
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(crackdsm.__file__).resolve().parents[1])
    outs = [subprocess.run([sys.executable, "-c", _TIE_PEAKS, str(tmp_path / "map.csv")],
                           env=kernel, check=True, capture_output=True, text=True).stdout
            for kernel in (env, {**env, "OPENBLAS_CORETYPE": "Prescott"})]
    assert outs[0] == outs[1]
    assert outs[0].startswith("peaks 1\n")
