#!/usr/bin/env python3
"""Regenerate the benchmark indicator maps through the CLI.

Produces, under the chosen output directory:
  - data_full.txt            far-field tensor for the three-crack scene
  - map_single.{csv,pgm}     single-direction indicator (d straight up)
  - map_aif3/map_aif8        phase-compensated sums over 3 and 8 directions
  - map_band.{csv,pgm}       multi-frequency indicator over lambda in [0.3, 0.7]
  - map_predicted.{csv,pgm}  closed-form single-direction map shape
plus one .manifest.json per output.  Replaying any stored argv with the same
BLAS builds, the same OPENBLAS_NUM_THREADS and the same OpenBLAS kernel, which
OpenBLAS picks per CPU (OPENBLAS_CORETYPE sets it), reproduces the file
byte-for-byte; under another thread count maps and tensors move by up to
7.4e-16 of their largest value, and the PGMs stay identical.  Another kernel
also moves maps and tensors at round-off.
"""

import argparse
import sys
from pathlib import Path

from crackdsm.cli import main as cli

SCENE = Path(__file__).resolve().parent.parent / "scenes" / "three_cracks.txt"
GRID = "--grid=-1,1,-1,1,201,201"


def run(argv):
    print("crackdsm " + " ".join(argv))
    rc = cli(argv)
    if rc != 0:
        sys.exit(rc)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="maps")
    parser.add_argument("--scene", default=str(SCENE))
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    data = str(out / "data_full.txt")
    run(["simulate", "--scene", args.scene, "--lambda", "0.5",
         "--generator", "full", "--out", data])
    run(["image", "--tensor", data, "--method", "single", GRID,
         "--out", str(out / "map_single")])
    run(["predict", "--scene", args.scene, "--predictor", "s1",
         "--lambda", "0.5", GRID, "--out", str(out / "map_predicted")])

    for n_inc in (3, 8):
        multi = str(out / f"data_l{n_inc}.txt")
        run(["simulate", "--scene", args.scene, "--lambda", "0.5",
             "--n-incident", str(n_inc), "--generator", "order1",
             "--out", multi])
        run(["image", "--tensor", multi, "--method", "aif", GRID,
             "--out", str(out / f"map_aif{n_inc}")])

    band = str(out / "data_band.txt")
    run(["simulate", "--scene", args.scene, "--lambda-range", "0.3,0.7",
         "--n-freq", "5", "--generator", "full", "--out", band])
    run(["image", "--tensor", band, "--method", "mif", GRID,
         "--out", str(out / "map_band")])

    run(["peaks", "--map", str(out / "map_single.csv"), "--scene", args.scene])


if __name__ == "__main__":
    main()
