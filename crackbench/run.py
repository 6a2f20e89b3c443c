#!/usr/bin/env python3
"""crackdsm benchmark: run one workload, check its outputs, print its metrics.

Run from the root of a source checkout (crackdsm is imported from ``src/``):

    python3 crackbench/run.py --workload paper_maps --seed 0 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  With ``--trace 0`` the run
prints the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it
alternates plain and traced iterations and prints the per-layer metrics.
Human-readable lines come first and the last line of standard output is one
JSON object.  Spans, environment and metrics also go to
``crackbench/work/<workload>-seed<seed>/result.json``.
"""

from __future__ import annotations

import os

# OpenBLAS at its default thread count on a 2-core machine oversubscribes and
# makes wall times slower and noisier; fix it before numpy loads (README.md).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import check
import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

SETUP_REPEATS = 10

# Fresh interpreter: import the CLI, then generate the workload's inputs.
# Then it probes the host speed on its own core and prints the seconds it
# spent doing so, followed by the probe times (the first one, cold, is not used).
_SETUP_CODE = """\
import sys
sys.path[:0] = [{src!r}, {here!r}]
import crackdsm.cli
import workloads
workloads.make_scene({seed}, {scene!r})
import time
t0 = time.perf_counter()
import hostspeed
probes = [hostspeed.probe() for _ in range(5)]
print(time.perf_counter() - t0, *probes[1:])
"""


def measure_setup(seed, scene):
    """Wall seconds, scaled to the reference host speed, of fresh interpreters
    that import crackdsm.cli and write the scene: the median and the samples.
    One untimed run first compiles the bytecode."""
    code = _SETUP_CODE.format(src=str(SRC), here=str(HERE), seed=seed, scene=str(scene))
    argv = [sys.executable, "-c", code]
    subprocess.run(argv, cwd=ROOT, check=True, capture_output=True)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        probing, *probes = map(float, proc.stdout.split())
        times.append(hostspeed.scale(elapsed - probing, probes))
    return statistics.median(times), times


def _blas_libraries():
    """Config string and thread count of every OpenBLAS loaded in this process."""
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            if "openblas" in line:
                paths.add(line.split()[-1])
    out = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}get_config{suffix}"):
                    get_config = getattr(lib, f"{prefix}get_config{suffix}")
                    get_config.restype = ctypes.c_char_p
                    info["config"] = get_config().decode()
                    info["threads"] = getattr(lib, f"{prefix}get_num_threads{suffix}")()
        out.append(info)
    return out


def environment():
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas_libraries(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu}


class Bench:
    """Runs the steps of one workload and checks every output they produce.

    ``refs`` maps output keys to reference arrays.  Without stored references
    the first iteration's outputs become the references, so later iterations
    are checked for agreement with it.
    """

    def __init__(self, steps, workdir, refs):
        self.cli = importlib.import_module("crackdsm.cli")
        self.steps = steps
        self.workdir = Path(workdir)
        self.learn = refs is None
        self.refs = {} if refs is None else refs
        self.attempted = 0
        self.failed = 0
        self.max_map_err = 0.0

    def iterate(self, tracer=None, clock=None):
        """One iteration; returns its wall seconds, raw and scaled to the
        reference host speed by ``clock`` (a hostspeed.HostClock).  The
        probes and the checks are not timed."""
        for path in self.workdir.iterdir():
            if path.name != "scene.txt":
                path.unlink()
        clock = clock or hostspeed.HostClock()
        results, raw, scaled = clock.measure(
            lambda: [self._execute(step, tracer) for step in self.steps])
        for step, result in zip(self.steps, results):
            self._check(step, *result)
        self.learn = False
        return raw, scaled

    def _execute(self, step, tracer):
        out, err = io.StringIO(), io.StringIO()
        value = error = None
        span = (tracer.span(f"cli.{step.argv[0]}") if tracer and step.argv
                else contextlib.nullcontext())
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                if step.call is not None:
                    value = step.call()
                else:
                    rc = self.cli.main(list(step.argv))
                    if rc != 0:
                        error = f"exit code {rc}"
        except SystemExit as exc:
            error = f"exit {exc.code}"
        except Exception:  # an operation that raises is a failed operation
            error = traceback.format_exc()
        if error is not None and err.getvalue():
            error += "\n" + err.getvalue()
        return error, out.getvalue(), value

    def _check(self, step, error, stdout, value):
        self.attempted += 1
        if error is None:
            try:
                outputs = check.step_outputs(step, self.workdir, stdout, value)
            except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
                error = f"unreadable output: {exc!r}"
        if error is None:
            if self.learn:
                self.refs.update(outputs)
            for key, got in outputs.items():
                ref = self.refs.get(key)
                if ref is None or ref.shape != got.shape:
                    error = f"{key}: no reference of shape {got.shape}"
                    break
                dist = check.distance(ref, got)
                if check.is_field(key):
                    self.max_map_err = max(self.max_map_err, dist)
                if not dist <= check.tolerance(key):
                    error = f"{key}: distance {dist:.3g} to reference > {check.tolerance(key)}"
                    break
        if error is not None:
            self.failed += 1
            print(f"FAILED {step.name}: {error}", file=sys.stderr)


def run(workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns (metrics {name: value}, [Bench], result record)."""
    workdir = WORK / f"{workload}-seed{seed}"
    refdir = WORK / f"{workload}-seed{seed}-ref"
    for path in (workdir, refdir):
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    scene = workdir / "scene.txt"
    setup_s, setup_samples = measure_setup(seed, scene)

    # Warm-up: the reference seed, checked against its stored references on
    # every run, so that a seed without references still tests the outputs.
    workloads.make_scene(check.REF_SEED, refdir / "scene.txt")
    ref_refs = None if smoke else check.load_refs(workload, check.REF_SEED)
    warmup = Bench(workloads.steps(workload, refdir / "scene.txt", refdir, smoke),
                   refdir, ref_refs)
    warmup.iterate()
    refs = None if smoke else check.load_refs(workload, seed)
    bench = Bench(workloads.steps(workload, scene, workdir, smoke), workdir, refs)

    # Every iteration is scaled to the reference host speed (hostspeed.py).
    tracer = tracing.Tracer()
    clock = hostspeed.HostClock()
    raw_walls, walls, traced_walls, layers = [], [], [], []
    start = time.perf_counter()
    while True:
        raw, scaled = bench.iterate(clock=clock)
        raw_walls.append(raw)
        walls.append(scaled)
        if trace:
            tracer.iteration += 1
            with tracer.installed():
                raw, scaled = bench.iterate(tracer, clock)
            traced_walls.append(scaled)
            layers.append(tracing.layer_metrics(
                {i: s for i, s in enumerate(tracer.spans) if s["iteration"] == tracer.iteration},
                scaled / raw))
        elapsed = time.perf_counter() - start
        if elapsed * (len(walls) + 1) / len(walls) > seconds:
            break

    benches = [warmup, bench]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": sum(b.failed for b in benches) / sum(b.attempted for b in benches),
        "max_map_err": max(b.max_map_err for b in benches),
        "host.wall_raw_s": statistics.median(raw_walls),
        "host.probe_s": statistics.median(clock.probes),
    }
    if trace:
        for name in layers[0]:
            metrics[name] = statistics.median([layer[name] for layer in layers])
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - metrics["wall_s"]
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "smoke": smoke, "iterations": len(walls), "wall_s_samples": walls,
               "raw_wall_s_samples": raw_walls, "probe_s_samples": clock.probes,
               "setup_s_samples": setup_samples, "traced_wall_s_samples": traced_walls, "absent": tracer.absent,
               "hook_errors": sorted(tracer.hook_errors), "spans": tracer.spans}
    return metrics, benches, result


def main(argv=None):
    parser = argparse.ArgumentParser(description="crackdsm benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids and solver; outputs checked against "
                             "the first iteration")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "crackdsm" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a crackdsm source checkout "
              "(needs src/crackdsm and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))

    metrics, benches, result = run(args.workload, args.seed, args.seconds, args.trace,
                                   smoke=args.smoke)
    result["environment"] = environment()
    result["metrics"] = metrics
    (WORK / f"{args.workload}-seed{args.seed}" / "result.json").write_text(
        json.dumps(result, indent=1) + "\n")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print("env " + json.dumps(result["environment"]))
    for name in result["absent"]:
        print(f"absent {name}")
    for name in result["hook_errors"]:
        print(f"absent work counts of {name}")
    for name, value in metrics.items():
        label = " (computed)" if name in tracing.COMPUTED else ""
        print(f"{name} {value:.6g} {units[name]}{label}")
    failed = sum(b.failed for b in benches)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(b.attempted for b in benches),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
