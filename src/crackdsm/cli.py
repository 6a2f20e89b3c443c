"""Command-line front end: simulate | image | predict | compare | peaks.

Every command that writes files also writes a <out>.manifest.json recording
the resolved parameters and argv.  All generators are deterministic and noise
is seeded, so replaying the stored argv with the same numpy and scipy BLAS
builds and the same OPENBLAS_NUM_THREADS reproduces the outputs byte-for-byte.
Another thread count sums in another order: between 1 and 2 threads, map
values and tensor entries move by up to 7.4e-16 of the largest, while the PGMs
stay identical.

The commands only parse, call and report.  `_READS` alone says which flags each
--generator, --method and --predictor reads, for refusals, nulls and --help.
Numeric flags are read as the files' numbers are (`io._numbers`).  Bad input
(a malformed --grid, a non-finite --incident-angle, an unread flag or a
command line argparse refuses) exits 1 with "error: ..." and writes nothing.

`simulate` and `predict` import the solver (`forward`) and the closed-form
generators and predictors (`asymptotic`) when they run.  Only `forward` loads
scipy, so every command but `simulate --generator full` runs without it.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import __version__
from .errors import CrackDsmError
from .imaging import (AcquisitionConfig, FarFieldTensor, find_local_maxima,
                      indicator_aif, indicator_if, indicator_mif, indicator_single,
                      map_distance, unit_vectors)
from . import io as cio


# option -> mode -> the gated flags the mode reads (image passes them in this order)
_READS = {
    "generator": {"full": ("quad_nodes",), "order1": (), "order2": ()},
    "method": {"single": ("f_index", "l_index"), "if": ("f_index",), "aif": ("f_index",),
               "mif": ()},
    "predictor": {"s1": (), "s2": ("incident_angle",),
                  "aif": ("incident_angle", "n_incident"),
                  "mif": ("incident_angle", "lambda_range", "n_freq")},
}


def _readers(option, flag):
    """The modes of `option` that read `flag`, as "single, if or aif"."""
    *rest, last = [m for m, reads in _READS[option].items() if flag in reads]
    return f"{', '.join(rest)} or {last}" if rest else last


def _refuse_unread(args, option):
    """Refuse a gated flag given to a mode of `option` that does not read it."""
    mode = getattr(args, option)
    for flag in dict.fromkeys(f for reads in _READS[option].values() for f in reads):
        if flag not in _READS[option][mode] and getattr(args, flag) is not None:
            raise CrackDsmError(f"--{flag.replace('_', '-')} goes with --{option} "
                                f"{_readers(option, flag)}, not {mode}")


def _flag_type(read):
    """An argparse type: one number in the grammar of the files (`io._numbers`),
    passed to read (float, or `io._count` for a count)."""
    def parse(text):
        try:
            values = cio._numbers(text, ",")
            if len(values) != 1:
                raise ValueError(f"{text!r} is not one number")
            return read(values[0])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(exc) from None
    return parse


def _wavenumbers(args):
    """Resolve k list from --lambda or --lambda-range/--n-freq."""
    if args.lambda_range and args.wavelength is not None:
        raise CrackDsmError("give --lambda or --lambda-range, not both")
    if args.lambda_range:
        try:
            lo, hi = cio._numbers(args.lambda_range, ",")
        except ValueError:
            raise CrackDsmError('--lambda-range must be two numbers "min,max"') from None
        if not (0 < lo < hi < math.inf):
            raise CrackDsmError("lambda range must satisfy 0 < min < max < inf")
        if args.n_freq is None or args.n_freq < 2:
            raise CrackDsmError("--lambda-range needs --n-freq >= 2")
        lams = np.linspace(lo, hi, args.n_freq)
        return tuple(sorted(2.0 * math.pi / lams))
    if args.wavelength is None:
        raise CrackDsmError("give --lambda or --lambda-range")
    if args.n_freq is not None:
        raise CrackDsmError("--n-freq goes with --lambda-range, not --lambda")
    if not (0 < args.wavelength < math.inf):
        raise CrackDsmError(f"--lambda must be finite and > 0, got {args.wavelength}")
    return (2.0 * math.pi / args.wavelength,)


def _incident_angles(args):
    """--incident-angle (pi/2 when not given), or --n-incident L directions 2*pi*l/L."""
    if args.n_incident is not None:
        if args.incident_angle is not None:
            raise CrackDsmError("give --incident-angle or --n-incident, not both")
        L = args.n_incident
        return tuple(2.0 * math.pi * l / L for l in range(1, L + 1))
    if args.incident_angle is None:
        return (math.pi / 2,)
    if not math.isfinite(args.incident_angle):
        raise CrackDsmError(f"--incident-angle must be finite, got {args.incident_angle}")
    return (args.incident_angle,)


def _write_manifest(args, command, inputs, params, outputs):
    """<outputs[0]>.manifest.json: the command, its argv, inputs, resolved
    parameters and outputs."""
    cio.write_manifest(outputs[0] + ".manifest.json", {
        "command": command, "argv": list(args._argv), "inputs": inputs, "params": params,
        "outputs": outputs, "tool_version": __version__})


def _add_noise(tensor, snr_db, seed):
    """Additive complex white noise at the given SNR (dB); exploration utility."""
    if not math.isfinite(snr_db):
        raise CrackDsmError(f"--noise-snr must be finite, got {snr_db}")
    if seed < 0:
        raise CrackDsmError(f"--seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    signal_power = np.mean(np.abs(tensor.values) ** 2)
    # an extreme SNR gives noise 0 (the tensor as it is) or infinite (refused as such)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        noise_power = signal_power / np.float64(10.0) ** (snr_db / 10.0)
    scale = math.sqrt(noise_power / 2.0)
    noise = scale * (rng.standard_normal(tensor.values.shape)
                     + 1j * rng.standard_normal(tensor.values.shape))
    return FarFieldTensor(tensor.values + noise, tensor.config)


def cmd_simulate(args):
    scene = cio.read_scene(args.scene)
    ks = _wavenumbers(args)
    _refuse_unread(args, "generator")
    if args.noise_snr is None and args.seed is not None:
        raise CrackDsmError("--seed goes with --noise-snr")
    config = AcquisitionConfig(wavenumbers=ks, n_obs=args.n_obs,
                               incident_angles=_incident_angles(args))
    quad_nodes = seed = None
    if args.generator == "full":
        from .forward import QuadratureSpec, far_field_tensor
        quad = QuadratureSpec() if args.quad_nodes is None else QuadratureSpec(args.quad_nodes)
        quad_nodes = quad.nodes_per_crack
        tensor = far_field_tensor(scene, config, quad)
    else:
        from .asymptotic import farfield_order1, farfield_order2
        gen = farfield_order1 if args.generator == "order1" else farfield_order2
        dirs = config.incident_directions()
        tensor = FarFieldTensor([gen(scene, k, dirs, config) for k in config.wavenumbers],
                                config)
    if args.noise_snr is not None:
        seed = 0 if args.seed is None else args.seed
        tensor = _add_noise(tensor, args.noise_snr, seed)
    cio.write_tensor(args.out, tensor)
    _write_manifest(args, "simulate",
                    inputs={"scene": args.scene},
                    params={"wavenumbers": list(ks), "n_obs": args.n_obs,
                            "incident_angles": list(config.incident_angles),
                            "generator": args.generator, "quad_nodes": quad_nodes,
                            "noise_snr": args.noise_snr, "seed": seed},
                    outputs=[args.out])
    return 0


def _write_map(args, command, imap, inputs, params):
    csv_path = args.out if args.out.endswith(".csv") else args.out + ".csv"
    pgm_path = csv_path[:-4] + ".pgm"
    cio.write_map_csv(csv_path, imap)
    cio.write_map_pgm(pgm_path, imap)
    _write_manifest(args, command, inputs, params, outputs=[csv_path, pgm_path])
    if imap.zero_map:
        print("warning: all-zero map", file=sys.stderr)
    return 0


def cmd_image(args):
    _refuse_unread(args, "method")
    grid = cio.parse_grid(args.grid)
    tensor = cio.read_tensor(args.tensor)
    indicator = {"single": indicator_single, "if": indicator_if, "aif": indicator_aif,
                 "mif": indicator_mif}[args.method]
    indices = {flag: getattr(args, flag) or 0 for flag in _READS["method"][args.method]}
    imap = indicator(tensor, *indices.values(), grid)
    return _write_map(args, "image", imap,
                      inputs={"tensor": args.tensor},
                      params={"method": args.method, "f_index": None, "l_index": None,
                              **indices, "grid": cio.format_grid(grid)})


def cmd_predict(args):
    from .asymptotic import (predict_aif, predict_mif, predict_structure1,
                             predict_structure2)
    grid = cio.parse_grid(args.grid)
    scene = cio.read_scene(args.scene)
    ks = _wavenumbers(args)
    _refuse_unread(args, "predictor")
    predictor = args.predictor
    angles = (list(_incident_angles(args))
              if "incident_angle" in _READS["predictor"][predictor] else None)
    if predictor == "s1":
        imap = predict_structure1(scene, ks[0], grid)
    elif predictor == "s2":
        imap = predict_structure2(scene, ks[0], unit_vectors(angles)[0], grid)
    elif predictor == "aif":
        imap = predict_aif(scene, ks[0], angles, grid)
    else:
        imap = predict_mif(scene, ks, angles[0], grid)
    return _write_map(args, "predict", imap,
                      inputs={"scene": args.scene},
                      params={"predictor": predictor, "wavenumbers": list(ks),
                              "incident_angles": angles, "grid": cio.format_grid(grid)})


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


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as CrackDsmError, so it exits 1 like other bad input."""

    def error(self, message):
        raise CrackDsmError(message)


@functools.cache
def build_parser():
    """The command-line parser, built once per process; parse_args keeps no state."""
    parser = _Parser(prog="crackdsm",
                     description="Direct sampling imaging of small straight cracks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    number, count = _flag_type(float), _flag_type(cio._count)

    def add_acquisition(p, option=None):
        """The acquisition flags; with `option`, the help of each flag it gates
        names the modes that read it."""
        def gated(text, flag, default=""):
            return (f"{text}, for --{option} {_readers(option, flag)}" if option else text) + default

        p.add_argument("--lambda", dest="wavelength", type=number,
                       help="single wavelength (k = 2*pi/lambda)")
        p.add_argument("--lambda-range",
                       help=gated("'min,max' wavelengths, uniform spacing", "lambda_range"))
        p.add_argument("--n-freq", type=count,
                       help=gated("frequency count F for --lambda-range", "n_freq"))
        p.add_argument("--n-incident", type=count,
                       help=gated("L uniform incident directions 2*pi*l/L", "n_incident"))
        p.add_argument("--incident-angle", type=number,
                       help=gated("single incident angle in radians", "incident_angle",
                                  " (default pi/2)"))

    p = sub.add_parser("simulate", help="generate a far-field tensor file")
    p.add_argument("--scene", required=True)
    add_acquisition(p)
    p.add_argument("--n-obs", type=count, default=30, help="observation count N")
    p.add_argument("--generator", choices=list(_READS["generator"]), default="full")
    p.add_argument("--quad-nodes", type=count, help="collocation nodes per crack for "
                   f"--generator {_readers('generator', 'quad_nodes')} (default 64)")
    p.add_argument("--noise-snr", type=number,
                   help="add complex white noise at this SNR (dB)")
    p.add_argument("--seed", type=count, help="noise seed for --noise-snr (default 0)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("image", help="apply an indicator to a tensor file")
    p.add_argument("--tensor", required=True)
    p.add_argument("--method", choices=list(_READS["method"]), required=True)
    p.add_argument("--f-index", type=count, help="frequency index for "
                   f"{_readers('method', 'f_index')} (default 0)")
    p.add_argument("--l-index", type=count, help="incident-direction index for "
                   f"{_readers('method', 'l_index')} (default 0)")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_image)

    p = sub.add_parser("predict", help="closed-form map predictor")
    p.add_argument("--scene", required=True)
    p.add_argument("--predictor", choices=list(_READS["predictor"]), required=True)
    add_acquisition(p, "predictor")
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
    p.add_argument("--floor", type=number, default=0.5)
    p.add_argument("--separation", type=number, default=0.2)
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
    try:
        args = build_parser().parse_args(bound)
        args._argv = argv
        return args.func(args)
    except CrackDsmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
