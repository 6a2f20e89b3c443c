"""The benchmark's workloads: the scene each seed makes and the steps of one iteration.

A step is one operation: a ``crackdsm`` command run in-process through
``crackdsm.cli.main``, or one direct library call.  Each workload is a closed
loop with a single caller: every step starts when the previous one returns.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PAPER_SCENE = ROOT / "scenes" / "three_cracks.txt"

# Every wavelength a workload uses; a generated scene must be valid at all of them.
BAND = ("--lambda-range", "0.3,0.7", "--n-freq", "5")
WAVELENGTHS = (0.3, 0.4, 0.5, 0.6, 0.7)

# Bound on r_max, the largest distance from a crack centre to a corner of the
# [-1, 1]^2 grids.  The mif predictor uses ceil((k_max - k_min) r_max / 2 pi)
# k-panels; below this bound every seed gets the paper scene's 4.  A fifth
# panel would add about 25% to predict_band, more than the run-to-run spread.
R_MAX = 4 * 2 * math.pi / (2 * math.pi / 0.3 - 2 * math.pi / 0.7)

# Grid sides and solver nodes.  The smoke sizes keep every step and every
# output of the full sizes but finish in about a second.
FULL = {"paper_grid": 201, "band_grid": 101, "sweep_grid": 61, "sweep_nodes": 256}
SMOKE = {"paper_grid": 11, "band_grid": 11, "sweep_grid": 11, "sweep_nodes": 16}

NAMES = ("paper_maps", "predict_band", "solver_sweep")


@dataclass(frozen=True)
class Step:
    """One operation.  ``outputs`` are file names in the work directory:
    ``.csv`` files are maps, ``.txt`` files are far-field tensors.  With
    ``stdout`` set, the numbers the command prints are an output too; a
    library ``call`` returns its output."""

    name: str
    argv: tuple = ()
    call: Optional[Callable] = None
    outputs: tuple = ()
    stdout: bool = False


def make_scene(seed, path):
    """Write the workload scene for ``seed`` to ``path``.

    Seed 0 is the checked-in three-crack scene.  Any other seed draws three
    cracks of half-length 0.05 with centres in [-0.7, 0.7]^2 at pairwise
    distance >= 0.3 and uniform rotations, valid at every wavelength used
    and with r_max below R_MAX.
    """
    if seed == 0:
        shutil.copyfile(PAPER_SCENE, path)
        return
    from crackdsm.io import write_scene
    from crackdsm.scene import Crack, Scene, validate_scene

    rng = np.random.default_rng(seed)
    while True:
        centres = []
        while len(centres) < 3:
            c = rng.uniform(-0.7, 0.7, 2)
            if all(np.linalg.norm(c - o) >= 0.3 for o in centres):
                centres.append(c)
        scene = Scene(tuple(Crack(tuple(c), 0.05, float(rng.uniform(0.0, math.pi)))
                            for c in centres))
        corners = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
        r_max = max(np.linalg.norm(corners - c, axis=1).max() for c in centres)
        if r_max < R_MAX and not any(validate_scene(scene, 2.0 * math.pi / lam)
                                     for lam in WAVELENGTHS):
            break
    write_scene(path, scene)


def _grid(side):
    return f"--grid=-1,1,-1,1,{side},{side}"


def _paper_maps(scene, w, size):
    """The command list of scripts/reproduce_maps.py."""
    grid = _grid(size["paper_grid"])
    steps = [
        Step("simulate_full", ("simulate", "--scene", scene, "--lambda", "0.5",
                               "--generator", "full", "--out", w("data_full.txt")),
             outputs=("data_full.txt",)),
        Step("image_single", ("image", "--tensor", w("data_full.txt"), "--method",
                              "single", grid, "--out", w("map_single")),
             outputs=("map_single.csv",)),
        Step("predict_s1", ("predict", "--scene", scene, "--predictor", "s1",
                            "--lambda", "0.5", grid, "--out", w("map_predicted")),
             outputs=("map_predicted.csv",)),
    ]
    for n_inc in (3, 8):
        data = f"data_l{n_inc}.txt"
        steps += [
            Step(f"simulate_l{n_inc}", ("simulate", "--scene", scene, "--lambda", "0.5",
                                        "--n-incident", str(n_inc), "--generator",
                                        "order1", "--out", w(data)),
                 outputs=(data,)),
            Step(f"image_aif{n_inc}", ("image", "--tensor", w(data), "--method", "aif",
                                       grid, "--out", w(f"map_aif{n_inc}")),
                 outputs=(f"map_aif{n_inc}.csv",)),
        ]
    steps += [
        Step("simulate_band", ("simulate", "--scene", scene, *BAND, "--generator",
                               "full", "--out", w("data_band.txt")),
             outputs=("data_band.txt",)),
        Step("image_mif", ("image", "--tensor", w("data_band.txt"), "--method", "mif",
                           grid, "--out", w("map_band")),
             outputs=("map_band.csv",)),
        Step("peaks", ("peaks", "--map", w("map_single.csv"), "--scene", scene),
             stdout=True),
    ]
    return steps


# predictor -> (acquisition flags, imaging method)
_PREDICTORS = {
    "s1": (("--lambda", "0.5"), "single"),
    "s2": (("--lambda", "0.5"), "single"),
    "aif": (("--lambda", "0.5", "--n-incident", "8"), "aif"),
    "mif": (BAND, "mif"),
}


def _predict_band(scene, w, size):
    """Predictor-vs-image check for every predictor, on order-1 data."""
    grid = _grid(size["band_grid"])
    steps = []
    for pred, (acq, method) in _PREDICTORS.items():
        data, image, predicted = f"data_{pred}.txt", f"image_{pred}", f"predict_{pred}"
        steps += [
            Step(f"simulate_{pred}", ("simulate", "--scene", scene, *acq, "--generator",
                                      "order1", "--out", w(data)),
                 outputs=(data,)),
            Step(f"image_{pred}", ("image", "--tensor", w(data), "--method", method,
                                   grid, "--out", w(image)),
                 outputs=(image + ".csv",)),
            Step(f"predict_{pred}", ("predict", "--scene", scene, "--predictor", pred,
                                     *acq, grid, "--out", w(predicted)),
                 outputs=(predicted + ".csv",)),
            Step(f"compare_{pred}", ("compare", "--a", w(image + ".csv"),
                                     "--b", w(predicted + ".csv")),
                 stdout=True),
        ]
    return steps


def _reciprocity(scene_path, nodes):
    """forward.reciprocity_residual at k = 4*pi with L = N = 30."""
    from crackdsm import forward, io

    n = 30
    config = forward.AcquisitionConfig(
        wavenumbers=(4.0 * math.pi,), n_obs=n,
        incident_angles=tuple(2.0 * math.pi * l / n for l in range(1, n + 1)))
    return forward.reciprocity_residual(io.read_scene(scene_path), 4.0 * math.pi,
                                        config, forward.QuadratureSpec(nodes))


def _solver_sweep(scene, w, size):
    """Full solver over a band with 30 directions, then 30-direction imaging."""
    grid = _grid(size["sweep_grid"])
    nodes = size["sweep_nodes"]
    steps = [
        Step("simulate_sweep", ("simulate", "--scene", scene, *BAND, "--n-incident", "30",
                                "--n-obs", "30", "--quad-nodes", str(nodes),
                                "--generator", "full", "--out", w("data_sweep.txt")),
             outputs=("data_sweep.txt",)),
    ]
    for method in ("if", "aif"):
        steps.append(Step(f"image_{method}", ("image", "--tensor", w("data_sweep.txt"),
                                              "--method", method, "--f-index", "2", grid,
                                              "--out", w(f"map_{method}")),
                          outputs=(f"map_{method}.csv",)))
    steps.append(Step("reciprocity", call=lambda: _reciprocity(scene, nodes)))
    return steps


_BUILDERS = {"paper_maps": _paper_maps, "predict_band": _predict_band,
             "solver_sweep": _solver_sweep}


def steps(name, scene_path, workdir, smoke=False):
    """The steps of one iteration of workload ``name``."""
    def w(fname):
        return str(Path(workdir) / fname)
    return _BUILDERS[name](str(scene_path), w, SMOKE if smoke else FULL)
