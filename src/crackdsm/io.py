"""Text file formats (scene, far-field tensor, indicator map) and manifests.

All writers are atomic (temp file + rename) and deterministic: floats use
%.17g so write -> read -> write round-trips byte-identically.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import CrackDsmError, InputMismatchError
from .imaging import AcquisitionConfig, FarFieldTensor, ImagingGrid, IndicatorMap
from .scene import Crack, Scene


def _fmt(x):
    return format(float(x), ".17g")


def _records(path):
    """The file's data lines, stripped, without blank lines and # comments;
    OSError or undecodable bytes -> CrackDsmError."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CrackDsmError(f"cannot read {path}: {exc}") from None
    lines = (raw.strip() for raw in text.splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def atomic_write_bytes(path, data):
    """Write via temp file and rename, mode 0o666 less the umask; OSError -> CrackDsmError."""
    path = Path(path)
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise CrackDsmError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------- scene files

_SCENE_HEADER = """\
# crack scene (dimensionless length units)
# fields per line: center_x center_y half_length rotation_radians
# note: cracks given as rotated diagonal parameterizations are encoded with
#   center = rotation applied to the pre-rotation midpoint,
#   angle  = pi/4 + rotation angle,
#   half_length taken as the parameter half-range (arclength-speed sqrt(2)
#   is not folded in; physical length may differ by that factor).
"""


def write_scene(path, scene):
    lines = [_SCENE_HEADER]
    for c in scene.cracks:
        lines.append(f"{_fmt(c.center[0])} {_fmt(c.center[1])} "
                     f"{_fmt(c.half_length)} {_fmt(c.rotation)}\n")
    atomic_write_text(path, "".join(lines))


def read_scene(path):
    cracks = []
    for line in _records(path):
        try:
            cx, cy, half, rot = (float(p) for p in line.split())
        except ValueError:
            raise InputMismatchError(f"bad scene line: {line!r}") from None
        cracks.append(Crack((cx, cy), half, rot))
    return Scene(tuple(cracks))


# --------------------------------------------------------------- tensor files


def write_tensor(path, tensor):
    cfg = tensor.config
    lines = ["# far-field tensor v1\n"]
    lines.append(f"F {cfg.n_freq}\n")
    lines.append(f"L {cfg.n_incident}\n")
    lines.append(f"N {cfg.n_obs}\n")
    lines.append("wavenumbers " + " ".join(_fmt(k) for k in cfg.wavenumbers) + "\n")
    lines.append("incident_angles " + " ".join(_fmt(a) for a in cfg.incident_angles) + "\n")
    lines.append("data f l n re im\n")
    for f in range(cfg.n_freq):
        for l in range(cfg.n_incident):
            for n in range(cfg.n_obs):
                v = tensor.values[f, l, n]
                lines.append(f"{f} {l} {n} {_fmt(v.real)} {_fmt(v.imag)}\n")
    atomic_write_text(path, "".join(lines))


def read_tensor(path):
    """Parse a tensor file; every (f, l, n) entry must appear exactly once."""
    header = {}
    rows = []
    in_data = False
    for line in _records(path):
        if in_data:
            rows.append(line.split())
            continue
        key, _, rest = line.partition(" ")
        if key == "data":
            in_data = True
        else:
            header[key] = rest.split()
    try:
        F, L, N = (int(header[key][0]) for key in ("F", "L", "N"))
        wavenumbers = tuple(float(k) for k in header["wavenumbers"])
        angles = tuple(float(a) for a in header["incident_angles"])
        entries = [(int(f), int(l), int(n), float(re) + 1j * float(im))
                   for f, l, n, re, im in rows]
    except KeyError as exc:
        raise InputMismatchError(f"tensor header lacks {exc}") from None
    except (ValueError, IndexError) as exc:
        raise InputMismatchError(f"malformed tensor file: {exc}") from None
    cfg = AcquisitionConfig(wavenumbers=wavenumbers, n_obs=N, incident_angles=angles)
    if (F, L) != (cfg.n_freq, cfg.n_incident):
        raise InputMismatchError(f"header F={F}, L={L} disagree with its wavenumbers/angles")
    if len(entries) != F * L * N:
        raise InputMismatchError(
            f"tensor has {len(entries)} data rows, header needs F*L*N = {F * L * N}")
    values = np.zeros((F, L, N), dtype=complex)
    seen = np.zeros((F, L, N), dtype=bool)
    for f, l, n, v in entries:
        if not (0 <= f < F and 0 <= l < L and 0 <= n < N):
            raise InputMismatchError(f"tensor index ({f}, {l}, {n}) out of range")
        if seen[f, l, n]:
            raise InputMismatchError(f"duplicate tensor entry ({f}, {l}, {n})")
        seen[f, l, n] = True
        values[f, l, n] = v
    return FarFieldTensor(values, cfg)


# ------------------------------------------------------------------ map files


def format_grid(grid):
    """The grid as the text "xmin,xmax,ymin,ymax,nx,ny", bounds in %.17g."""
    bounds = (grid.x_min, grid.x_max, grid.y_min, grid.y_max)
    return ",".join([*map(_fmt, bounds), str(grid.nx), str(grid.ny)])


def parse_grid(text):
    """ImagingGrid from the text "xmin,xmax,ymin,ymax,nx,ny"."""
    try:
        x_min, x_max, y_min, y_max, nx, ny = text.split(",")
        bounds = (float(x_min), float(x_max), float(y_min), float(y_max))
        counts = (int(nx), int(ny))
    except ValueError:
        raise InputMismatchError(
            f'grid must be "xmin,xmax,ymin,ymax,nx,ny", got "{text}"') from None
    return ImagingGrid(*bounds, *counts)


def write_map_csv(path, imap):
    g = imap.grid
    lines = ["# indicator-map-csv v1\n",
             "# x_min,x_max,y_min,y_max,nx,ny\n",
             format_grid(g) + "\n"]
    row_fmt = ",".join(["%.17g"] * g.nx) + "\n"  # same text as _fmt, one call per row
    for row in imap.values:  # y ascending, row-major
        lines.append(row_fmt % tuple(row.tolist()))
    atomic_write_text(path, "".join(lines))


def read_map_csv(path):
    lines = _records(path)
    try:
        grid = parse_grid(lines[0])
        values = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    except (ValueError, IndexError) as exc:
        raise InputMismatchError(f"malformed map file: {exc}") from None
    if values.shape != grid.shape:
        raise InputMismatchError(
            f"map data shape {values.shape} does not match header {grid.shape}")
    if not np.all((values >= 0.0) & (values <= 1.0)):  # also false for nan
        raise InputMismatchError("map values must be finite and lie in [0, 1]")
    return IndicatorMap(grid, values)


def write_map_pgm(path, imap):
    """16-bit PGM, values scaled by 65535, rows written top (y max) to bottom."""
    g = imap.grid
    scaled = np.clip(np.round(imap.values * 65535.0), 0, 65535).astype(np.uint16)
    header = f"P5\n{g.nx} {g.ny}\n65535\n".encode("ascii")
    body = scaled[::-1].astype(">u2").tobytes()
    atomic_write_bytes(path, header + body)


# ------------------------------------------------------------------ manifests


def write_manifest(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
