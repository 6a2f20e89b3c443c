"""Tests of the benchmark itself:  python3 -m pytest crackbench

They check that the correctness gate catches a perturbed map, image, map
header or manifest, that every run checks the reference seed, that the smoke
mode emits every metric BENCHMARK.json lists, that the traced run
survives a wrapped name that no longer exists, and that measured seconds
are scaled by the host speed probe.
"""

import json
import subprocess
import sys
import time

import run  # first: it sets the BLAS thread count the references were made with

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import check  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

import crackdsm.cli  # noqa: E402
import crackdsm.forward  # noqa: E402
import crackdsm.io  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_path, workload, seed, smoke):
    workdir = tmp_path / "work"
    workdir.mkdir()
    scene = workdir / "scene.txt"
    workloads.make_scene(seed, scene)
    refs = None if smoke else check.load_refs(workload, seed)
    return run.Bench(workloads.steps(workload, scene, workdir, smoke), workdir, refs)


def test_perturbed_map_raises_fail_ratio(tmp_path, monkeypatch):
    bench = _bench(tmp_path, "paper_maps", 0, smoke=False)
    bench.iterate()
    assert (bench.failed, bench.max_map_err) == (0, 0.0)

    write = crackdsm.io.write_map_csv

    def perturbed(path, imap):
        imap.values[imap.values < 0.5] += 1e-4
        write(path, imap)

    monkeypatch.setattr(crackdsm.io, "write_map_csv", perturbed)
    bench.iterate()
    n_maps = sum(1 for s in bench.steps for f in s.outputs if f.endswith(".csv"))
    # the peaks step reads a perturbed map too, but its output is unchanged
    assert bench.failed == n_maps
    assert bench.failed / bench.attempted > 0
    assert bench.max_map_err == pytest.approx(1e-4, rel=1e-6)


def test_unreferenced_seed_is_checked_against_its_first_iteration(tmp_path, monkeypatch):
    bench = _bench(tmp_path, "solver_sweep", 3, smoke=True)
    bench.iterate()
    bench.iterate()
    assert bench.failed == 0
    solve = crackdsm.forward.lu_solve
    monkeypatch.setattr(crackdsm.forward, "lu_solve", lambda lu, b: 1.001 * solve(lu, b))
    bench.iterate()
    # only the tensor: maps are normalised and the residual stays near zero
    assert bench.failed == 1


def _flip_first_grey_level(write):
    def perturbed(path, imap):
        write(path, imap)
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 1
        open(path, "wb").write(bytes(data))
    return perturbed


def _shift_x_max(write):
    def perturbed(path, imap):
        write(path, imap)
        lines = open(path).read().split("\n")
        fields = lines[2].split(",")
        fields[1] = "1.5"
        lines[2] = ",".join(fields)
        open(path, "w").write("\n".join(lines))
    return perturbed


def _drop_manifest_outputs(write):
    def perturbed(path, payload):
        write(path, dict(payload, outputs=payload["outputs"][:1]))
    return perturbed


@pytest.mark.parametrize("name, perturb", [("write_map_pgm", _flip_first_grey_level),
                                           ("write_map_csv", _shift_x_max),
                                           ("write_manifest", _drop_manifest_outputs)])
def test_perturbed_image_header_or_manifest_fails(tmp_path, monkeypatch, name, perturb):
    bench = _bench(tmp_path, "solver_sweep", 0, smoke=True)
    bench.iterate()
    monkeypatch.setattr(crackdsm.io, name, perturb(getattr(crackdsm.io, name)))
    bench.iterate()
    # the two image steps; the tensor's manifest lists one file, so it keeps it
    assert bench.failed == 2


def test_every_run_checks_the_reference_seed(monkeypatch):
    monkeypatch.setattr(crackdsm.io, "write_map_pgm",
                        _flip_first_grey_level(crackdsm.io.write_map_pgm))
    # seed 5 has no stored references, so its own outputs agree with themselves
    metrics, (warmup, bench), _ = run.run("paper_maps", 5, 0.1, 0)
    n_maps = sum(1 for s in bench.steps for f in s.outputs if f.endswith(".csv"))
    assert (warmup.failed, bench.failed) == (n_maps, 0)
    assert metrics["fail_ratio"] > 0
    assert metrics["max_map_err"] == pytest.approx(1 / 65535)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "crackbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and np.isfinite(got["value"])


def test_missing_name_is_reported_absent(tmp_path, monkeypatch):
    # as after a refactor that folds predict_structure2 away; solver_sweep does not need it
    monkeypatch.delattr(crackdsm.cli, "predict_structure2")
    lu_factor = crackdsm.forward.lu_factor
    bench = _bench(tmp_path, "solver_sweep", 0, smoke=True)
    bench.iterate()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert crackdsm.forward.lu_factor is not lu_factor
        bench.iterate(tracer)
    assert crackdsm.forward.lu_factor is lu_factor
    assert tracer.absent == ["crackdsm.cli.predict_structure2"]
    assert bench.failed == 0
    spans = dict(enumerate(tracer.spans))
    assert tracing.layer_metrics(spans)["forward.systems"] > 0


def test_host_clock_scales_to_the_reference_speed(monkeypatch):
    # on a host where the probe takes twice its reference time, work runs at
    # half the reference speed, so a scaled interval is half the raw one
    monkeypatch.setattr(hostspeed, "probe", lambda: 2 * hostspeed.REF_S)
    clock = hostspeed.HostClock()
    _, raw, scaled = clock.measure(lambda: time.sleep(0.3))
    assert raw == pytest.approx(0.3, abs=0.1)
    assert scaled == pytest.approx(raw / 2)
    assert len(clock.probes) >= 4  # sampled inside the interval too
