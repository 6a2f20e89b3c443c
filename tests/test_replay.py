"""Replaying a command under one and two BLAS threads.

The same argv under the same `OPENBLAS_NUM_THREADS` writes the same bytes.
One thread against two changes how OpenBLAS splits its sums, so tensors and
maps may move at round-off, while the 16-bit PGMs stay identical.  Each run is
one interpreter with at most two BLAS threads; the runs go one after another,
so the test holds on a one-core host too.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import crackdsm
from crackdsm import io as cio
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
