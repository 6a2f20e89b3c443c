"""Command-line front end: simulate | image | predict | compare | peaks.

Every command that writes files also writes a <out>.manifest.json recording
the resolved parameters and argv; replaying the stored argv reproduces the
outputs byte-for-byte (all generators are deterministic, noise is seeded).

The commands only parse, call and report.  Bad input, such as a malformed --grid
or a non-finite --incident-angle, exits 1 with "error: ..." and writes nothing.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CrackDsmError
from .forward import AcquisitionConfig, FarFieldTensor, QuadratureSpec, far_field_tensor
from .asymptotic import (farfield_order1, farfield_order2, predict_aif,
                         predict_mif, predict_structure1, predict_structure2)
from .imaging import (ImagingGrid, find_local_maxima, indicator_aif,
                      indicator_if, indicator_mif, indicator_single,
                      map_distance)
from . import io as cio


def _parse_grid(spec):
    try:
        x_min, x_max, y_min, y_max, nx, ny = spec.split(",")
        bounds = (float(x_min), float(x_max), float(y_min), float(y_max))
        counts = (int(nx), int(ny))
    except ValueError:
        raise CrackDsmError(f'--grid must be "xmin,xmax,ymin,ymax,nx,ny", got "{spec}"') from None
    return ImagingGrid(*bounds, *counts)


def _grid_spec(grid):
    """The grid as a --grid value, bounds in %.17g."""
    return "%.17g,%.17g,%.17g,%.17g,%d,%d" % (grid.x_min, grid.x_max, grid.y_min,
                                              grid.y_max, grid.nx, grid.ny)


def _wavenumbers(args):
    """Resolve k list from --lambda or --lambda-range/--n-freq."""
    if args.lambda_range:
        try:
            lo, hi = (float(v) for v in args.lambda_range.split(","))
        except ValueError:
            raise CrackDsmError('--lambda-range must be two numbers "min,max"') from None
        if not (0 < lo < hi < math.inf):
            raise CrackDsmError("lambda range must satisfy 0 < min < max < inf")
        if args.n_freq < 2:
            raise CrackDsmError("--lambda-range needs --n-freq >= 2")
        lams = np.linspace(lo, hi, args.n_freq)
        return tuple(sorted(2.0 * math.pi / lams))
    if args.wavelength is None:
        raise CrackDsmError("give --lambda or --lambda-range")
    if not (0 < args.wavelength < math.inf):
        raise CrackDsmError(f"--lambda must be finite and > 0, got {args.wavelength}")
    return (2.0 * math.pi / args.wavelength,)


def _incident_angle(args):
    if not math.isfinite(args.incident_angle):
        raise CrackDsmError(f"--incident-angle must be finite, got {args.incident_angle}")
    return args.incident_angle


def _incident_angles(args):
    if args.n_incident is not None:
        L = args.n_incident
        return tuple(2.0 * math.pi * l / L for l in range(1, L + 1))
    return (_incident_angle(args),)


def _manifest(args, command, inputs, params, outputs):
    return {
        "command": command,
        "argv": list(args._argv),
        "inputs": inputs,
        "params": params,
        "outputs": outputs,
        "tool_version": __version__,
    }


def _add_noise(tensor, snr_db, seed):
    """Additive complex white noise at the given SNR (dB); exploration utility."""
    rng = np.random.default_rng(seed)
    signal_power = float(np.mean(np.abs(tensor.values) ** 2))
    noise_power = signal_power / (10.0 ** (snr_db / 10.0))
    scale = math.sqrt(noise_power / 2.0)
    noise = scale * (rng.standard_normal(tensor.values.shape)
                     + 1j * rng.standard_normal(tensor.values.shape))
    return FarFieldTensor(tensor.values + noise, tensor.config)


def cmd_simulate(args):
    scene = cio.read_scene(args.scene)
    ks = _wavenumbers(args)
    config = AcquisitionConfig(wavenumbers=ks, n_obs=args.n_obs,
                               incident_angles=_incident_angles(args))
    if args.generator == "full":
        tensor = far_field_tensor(scene, config,
                                  QuadratureSpec(nodes_per_crack=args.quad_nodes))
    else:
        gen = farfield_order1 if args.generator == "order1" else farfield_order2
        dirs = config.incident_directions()
        tensor = FarFieldTensor([gen(scene, k, dirs, config) for k in config.wavenumbers],
                                config)
    if args.noise_snr is not None:
        tensor = _add_noise(tensor, args.noise_snr, args.seed)
    cio.write_tensor(args.out, tensor)
    cio.write_manifest(args.out + ".manifest.json", _manifest(
        args, "simulate",
        inputs={"scene": args.scene},
        params={"wavenumbers": list(ks), "n_obs": args.n_obs,
                "incident_angles": list(config.incident_angles),
                "generator": args.generator, "quad_nodes": args.quad_nodes,
                "noise_snr": args.noise_snr, "seed": args.seed},
        outputs=[args.out]))
    return 0


def _write_map(args, command, imap, inputs, params):
    csv_path = args.out if args.out.endswith(".csv") else args.out + ".csv"
    pgm_path = csv_path[:-4] + ".pgm"
    cio.write_map_csv(csv_path, imap)
    cio.write_map_pgm(pgm_path, imap)
    cio.write_manifest(csv_path + ".manifest.json", _manifest(
        args, command, inputs, params, outputs=[csv_path, pgm_path]))
    if imap.zero_map:
        print("warning: all-zero map", file=sys.stderr)
    return 0


def cmd_image(args):
    grid = _parse_grid(args.grid)
    tensor = cio.read_tensor(args.tensor)
    method = args.method
    if method == "single":
        imap = indicator_single(tensor, args.f_index, args.l_index, grid)
    elif method == "if":
        imap = indicator_if(tensor, args.f_index, grid)
    elif method == "aif":
        imap = indicator_aif(tensor, args.f_index, grid)
    else:
        imap = indicator_mif(tensor, grid)
    return _write_map(args, "image", imap,
                      inputs={"tensor": args.tensor},
                      params={"method": method, "f_index": args.f_index,
                              "l_index": args.l_index,
                              "grid": _grid_spec(grid)})


def cmd_predict(args):
    grid = _parse_grid(args.grid)
    scene = cio.read_scene(args.scene)
    ks = _wavenumbers(args)
    predictor = args.predictor
    if predictor == "s1":
        imap = predict_structure1(scene, ks[0], grid)
    elif predictor == "s2":
        ang = _incident_angle(args)
        d = np.array([math.cos(ang), math.sin(ang)])
        imap = predict_structure2(scene, ks[0], d, grid)
    elif predictor == "aif":
        imap = predict_aif(scene, ks[0], _incident_angles(args), grid)
    else:
        imap = predict_mif(scene, ks, _incident_angle(args), grid)
    return _write_map(args, "predict", imap,
                      inputs={"scene": args.scene},
                      params={"predictor": predictor, "wavenumbers": list(ks),
                              "grid": _grid_spec(grid)})


def cmd_compare(args):
    a = cio.read_map_csv(args.a)
    b = cio.read_map_csv(args.b)
    linf, l2 = map_distance(a, b)
    print(f"linf {linf:.12g}")
    print(f"l2 {l2:.12g}")
    return 0


def cmd_peaks(args):
    imap = cio.read_map_csv(args.map)
    scene = cio.read_scene(args.scene) if args.scene else None
    report = find_local_maxima(imap, min_separation=args.separation,
                               floor=args.floor, scene=scene)
    print(f"peaks {len(report.peaks)}")
    for p in report.peaks:
        print(f"peak {p.position[0]:.12g} {p.position[1]:.12g} {p.value:.12g}")
    for center, dist, value in report.crack_matches:
        print(f"crack {center[0]:.12g} {center[1]:.12g} "
              f"nearest_peak_distance {dist:.12g} value {value:.12g}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crackdsm",
        description="Direct sampling imaging of small straight cracks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_acquisition(p):
        p.add_argument("--lambda", dest="wavelength", type=float,
                       help="single wavelength (k = 2*pi/lambda)")
        p.add_argument("--lambda-range", help="'min,max' wavelengths, uniform spacing")
        p.add_argument("--n-freq", type=int, default=1, help="frequency count F")
        p.add_argument("--n-incident", type=int,
                       help="L uniform incident directions 2*pi*l/L")
        p.add_argument("--incident-angle", type=float, default=math.pi / 2,
                       help="single incident angle in radians (default pi/2)")

    p = sub.add_parser("simulate", help="generate a far-field tensor file")
    p.add_argument("--scene", required=True)
    add_acquisition(p)
    p.add_argument("--n-obs", type=int, default=30, help="observation count N")
    p.add_argument("--generator", choices=["full", "order1", "order2"],
                   default="full")
    p.add_argument("--quad-nodes", type=int, default=64)
    p.add_argument("--noise-snr", type=float,
                   help="add complex white noise at this SNR (dB)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("image", help="apply an indicator to a tensor file")
    p.add_argument("--tensor", required=True)
    p.add_argument("--method", choices=["single", "if", "aif", "mif"],
                   required=True)
    p.add_argument("--f-index", type=int, default=0)
    p.add_argument("--l-index", type=int, default=0)
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_image)

    p = sub.add_parser("predict", help="closed-form map predictor")
    p.add_argument("--scene", required=True)
    p.add_argument("--predictor", choices=["s1", "s2", "aif", "mif"],
                   required=True)
    add_acquisition(p)
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("compare", help="linf/l2 distance between two maps")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("peaks", help="extract local maxima from a map")
    p.add_argument("--map", required=True)
    p.add_argument("--scene")
    p.add_argument("--floor", type=float, default=0.5)
    p.add_argument("--separation", type=float, default=0.2)
    p.set_defaults(func=cmd_peaks)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value such as "-1,1,-1,1,11,11" as an option, so a
    # --grid value given as its own token is bound to the flag first.
    bound = list(argv)
    for i in reversed(range(len(bound) - 1)):
        if bound[i] == "--grid":
            bound[i:i + 2] = ["--grid=" + bound[i + 1]]
    args = build_parser().parse_args(bound)
    args._argv = argv
    try:
        return args.func(args)
    except CrackDsmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
