"""Output checks: parse what a step produced and compare it with a reference.

The files are parsed here, not with ``crackdsm.io``, so that a reader and a
writer that go wrong together still fail the check.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Largest accepted L-infinity distance to the reference, relative to
# max(1, max |reference|).  Maps are normalised to max 1, so for them this is
# absolute and lies well below one grey level of the 16-bit PGM (1/65535).
# PGM images hold whole grey levels and must match exactly.
TOL = 1e-6

REF_DIR = Path(__file__).resolve().parent / "refs"

# Every run checks this seed against its stored references as its warm-up.
REF_SEED = 0


def read_map(path):
    """(header, values): header is x_min, x_max, y_min, y_max, nx, ny."""
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    header = np.array([float(v) for v in lines[0].split(",")])
    nx, ny = (int(v) for v in header[4:6])
    values = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if values.shape != (ny, nx):
        raise ValueError(f"map shape {values.shape} does not match header {(ny, nx)}")
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValueError("map values outside [0, 1]")
    return header, values


def read_pgm(path):
    """A 16-bit binary PGM as grey levels / 65535, rows from y min to y max
    like the CSV maps."""
    data = Path(path).read_bytes()
    fields = data.split(maxsplit=4)
    if len(fields) < 4 or fields[0] != b"P5" or fields[3] != b"65535":
        raise ValueError("not a 16-bit P5 PGM")
    nx, ny = int(fields[1]), int(fields[2])
    body = data[len(data) - 2 * nx * ny:]
    if not data[:len(data) - len(body)].endswith(b"65535\n"):
        raise ValueError(f"PGM body is not {nx}x{ny} 16-bit values")
    grey = np.frombuffer(body, dtype=">u2").reshape(ny, nx)[::-1]
    return grey / 65535.0


def read_tensor(path):
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    start = next(i for i, ln in enumerate(lines) if ln.startswith("data")) + 1
    header = dict(ln.split(" ", 1) for ln in lines[:start - 1])
    shape = tuple(int(header[key]) for key in ("F", "L", "N"))
    rows = np.loadtxt(lines[start:], ndmin=2)
    values = np.full(shape, np.nan, dtype=complex)
    idx = rows[:, :3].astype(int)
    values[idx[:, 0], idx[:, 1], idx[:, 2]] = rows[:, 3] + 1j * rows[:, 4]
    return values


def stdout_numbers(text):
    """Every whitespace-separated token of ``text`` that reads as a number."""
    values = []
    for tok in text.split():
        try:
            values.append(float(tok))
        except ValueError:
            pass
    return np.array(values)


def check_manifest(step, path, written):
    """The manifest next to an output names the command, its arguments and
    the files it wrote."""
    manifest = json.loads(Path(str(path) + ".manifest.json").read_text())
    expected = {"command": step.argv[0], "argv": list(step.argv), "outputs": written}
    for key, want in expected.items():
        if manifest.get(key) != want:
            raise ValueError(f"{path.name}.manifest.json: {key} is "
                             f"{manifest.get(key)!r}, expected {want!r}")


def step_outputs(step, workdir, stdout, value):
    """{key: array} of everything a successful step produced."""
    out = {}
    for fname in step.outputs:
        path = Path(workdir) / fname
        key = f"{step.name}:{fname}"
        if fname.endswith(".csv"):
            out[key + "#header"], out[key] = read_map(path)
            pgm = path.with_suffix(".pgm")
            out[f"{step.name}:{pgm.name}"] = read_pgm(pgm)
            check_manifest(step, path, [str(path), str(pgm)])
        else:
            out[key] = read_tensor(path)
            check_manifest(step, path, [str(path)])
    if step.stdout:
        out[f"{step.name}:stdout"] = stdout_numbers(stdout)
    if step.call is not None:
        out[f"{step.name}:value"] = np.atleast_1d(np.asarray(value))
    for key, arr in out.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{key}: non-finite values")
    return out


def distance(ref, got):
    """L-infinity distance of two same-shape arrays, relative to max(1, max |ref|)."""
    return float(np.max(np.abs(got - ref)) / max(1.0, float(np.max(np.abs(ref)))))


def tolerance(key):
    return 0.0 if key.endswith(".pgm") else TOL


def is_field(key):
    """Maps, images and tensors, the outputs max_map_err covers."""
    return key.endswith((".csv", ".pgm", ".txt"))


def ref_path(workload, seed):
    return REF_DIR / f"{workload}-seed{seed}.npz"


def load_refs(workload, seed):
    """Stored references for a shipped seed, or None."""
    path = ref_path(workload, seed)
    if not path.is_file():
        return None
    with np.load(path) as data:
        return {key: data[key] for key in data.files}

