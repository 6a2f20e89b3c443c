"""Text file formats (scene, far-field tensor, indicator map) and manifests.

All writers are atomic (temp file + rename) and deterministic: floats use
%.17g so write -> read -> write round-trips byte-identically.  Map and tensor
rows are encoded without a formatter call per value.  For 1e-4 <= |v| < 1e16,
which %.17g writes in fixed form, the 17 digits are |v| * 10**(16 - e) with e
in [-4, 15], or one off from log10, so the factor <= 1e21 is exact; Dekker's
two-product keeps the product exact until it is rounded half to even, as %.17g
rounds.  Exponent forms, rare in maps, are written by %.17g itself.  A tensor
row's three index columns come from a table of digit words and only its two
values from that encoder, with the bytes "%d %d %d %.17g %.17g" gives.

Scene rows, map and tensor data rows, the numbers of the map and tensor
headers and the CLI's numeric flags are read by np.loadtxt (`_table`), whose
parser rounds as float() does and, unlike float(), takes no underscores and no
non-ASCII digits.  Tensor rows are read in the one order write_tensor writes
them; their index columns are checked against it, not used to place values."""

from __future__ import annotations

import itertools
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from .errors import CrackDsmError, InputMismatchError
from .imaging import AcquisitionConfig, FarFieldTensor, ImagingGrid, IndicatorMap
from .scene import Crack, Scene


def _fmt(x):
    return format(float(x), ".17g")


def _records(path):
    """(lines, file_line): the file's data lines, stripped, without blank lines
    and # comments, and a function giving the 1-based file line of lines[i],
    which splits the text again and so serves error messages only; OSError or
    undecodable bytes -> CrackDsmError.  Lines end at "\n" only: read_text
    turns "\r\n" and "\r" into it, and no other character ends a line."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CrackDsmError(f"cannot read {path}: {exc}") from None
    kept = [line for raw in text.split("\n") if (line := raw.strip()) and line[0] != "#"]

    def file_line(i):
        return [n for n, raw in enumerate(text.split("\n"), 1)
                if (line := raw.strip()) and line[0] != "#"][i]
    return kept, file_line


def _table(lines, delimiter, ncols):
    """The data lines as a float64 array, one row per line, through numpy's C
    parser, which rounds as float() does; no lines -> shape (0, ncols).  A
    field that is not a float literal, or rows of unequal length -> ValueError."""
    if not lines:  # loadtxt warns on no data
        return np.empty((0, ncols))
    return np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)


def _numbers(text, delimiter=None):
    """The fields of one header line as a list of floats, in the grammar of
    the data rows (`_table`); ValueError naming the first field that is not a
    float literal."""
    if not text.strip():
        return []
    try:
        return _table([text], delimiter, 0)[0].tolist()
    except ValueError as exc:
        raise ValueError(str(exc).partition(" at row ")[0]) from None


def _count(value):
    """A parsed float as an int; ValueError unless it is a finite integer."""
    if not value.is_integer():  # also false for inf and nan
        raise ValueError(f"{value:.17g} is not an integer")
    return int(value)


# the end of numpy's two parse errors that name a row: it counts rows from 1
# in the column-count error and from 0 in the conversion error
_NUMPY_ROW = re.compile(r" at row (\d+)(?:(, column \d+\.)|; use `usecols` to select a "
                        r"subset and avoid this error)$")


def _on_line(exc, file_line, first):
    """str(exc), with numpy's ` at row ...` ending replaced by ` on line N`, N
    the file line of that row; the rows given to _table start at lines[first]."""
    text = str(exc)
    match = _NUMPY_ROW.search(text)
    if match is None:
        return text
    row = int(match[1]) - (match[2] is None)
    return f"{text[:match.start()]} on line {file_line(first + row)}"


def atomic_write_chunks(path, chunks):
    """Write the byte strings one after another to a temp file, then rename it
    to path; mode 0o666 less the umask; OSError -> CrackDsmError."""
    path = Path(path)
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise CrackDsmError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def atomic_write_text(path, text):
    atomic_write_chunks(path, [text.encode("utf-8")])


# ------------------------------------------------------------ %.17g encoder
#
# Each value gets a slot of 24 bytes, three little-endian uint64 words, which
# holds its text with NUL bytes where %.17g has no character:
#   byte 0       "-" for a negative value
#   bytes 1-4    the zeros %.17g shows before the first digit (as many as -e
#                for e < 0, where e >= -4 is the decimal exponent)
#   byte 5       the first of the 17 digits; bytes 6-21 the other 16, trailing
#                zeros after the point set to NUL
#   then a point (or NUL) goes in at byte 6 + e and moves the bytes after it
#   on by one; byte 23 is the separator or the newline.
# Zero is laid out as 1, its digit then set to 0.  Any other value outside
# 1e-4 <= |v| < 1e16 holds one 0x01 byte, replaced by its %.17g text: all
# exponent forms, which are rare in maps (42 of the 202,005 values that the
# paper's maps hold at seed 0).  The NUL bytes of a block are removed in one
# pass.

# Values per block.  The fixed cost of each of a block's numpy calls weighs on
# small blocks, and large blocks' temporaries outgrow the core's cache.  Per 201^2 map (medians of 15 interleaved in-process runs, 2-core
# x86-64 VM with 2 MiB of L2 per core): 7.6-8.1 ms at 2048 values, 6.4-6.7 at
# 4096, 5.7-6.1 at 8192, 7.2-7.5 at 16384 and 9.2-9.6 at 32768.
_BLOCK = 8192
_U = np.uint64
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant


def _dekker_split(a):
    """(hi, lo) with a = hi + lo exactly and hi, lo of at most 26 bits."""
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_POW10_HI, _POW10_LO = _dekker_split(_POW10)
# for i < 10**2 and i < 10**4: its two or four ASCII digits, the first in the
# low byte, and how many of them are trailing zeros
_DIGITS2 = np.array([48 + i // 10 | (48 + i % 10) << 8 for i in range(100)], _U)
_ZEROS2 = np.array([2] + [int(i % 10 == 0) for i in range(1, 100)])
_DIGITS4 = (_DIGITS2[:, None] | _DIGITS2 << 16).reshape(-1)
_ZEROS4 = np.where(_ZEROS2 == 2, 2 + _ZEROS2[:, None], _ZEROS2).reshape(-1)
_WORD = np.array([[0], [8], [16]])  # first byte of each slot word
# indexed by byte t + 16 of a word: the bytes below t set, the bytes from t
# on set, a point at byte t (none at index 0)
_BELOW = np.array([(1 << 8 * min(max(t, 0), 8)) - 1 for t in range(-16, 32)], _U)
_FROM = ~_BELOW
_POINT = np.array([46 << 8 * t if 0 <= t < 8 else 0 for t in range(-16, 32)], _U)
_LEAD = np.array([int.from_bytes(b"0" * k, "big") << 8 * (4 - k) for k in range(5)], _U)


def _mantissa17(a, e):
    """round(a * 10**(16 - e)) half to even, exactly, as int64.

    Dekker's two-product gives the product as p + err exactly.  Where the
    result lies in [1e16, 1e17), p > 2**53 is an even integer, so rounding
    p + err is p + rint(err).
    """
    k = 16 - e
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    p = a * _POW10[k]
    ah, al = _dekker_split(a)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _decimal17(a):
    """(e, m) with m in [1e16, 1e17) the 17 digits of a, rounded half to even,
    and e its decimal exponent, for 1e-4 <= a < 1e16."""
    e = np.floor(np.log10(a)).astype(np.int64)
    m = _mantissa17(a, e)
    for _ in range(2):  # log10 may put e one off near a power of ten
        # m outside [1e16, 1e17), as one unsigned comparison
        redo = np.flatnonzero((m - 10**16).view(_U) >= 9 * 10**16)
        if redo.size == 0:
            break
        e[redo] += np.where(m[redo] < 10**16, -1, 1)
        m[redo] = _mantissa17(a[redo], e[redo])
    return e, m


def _digit_words(m):
    """(first, lo, hi, trailing): the first of m's 17 digits, digits 2-9 and
    10-17 as ASCII, the first in the low byte, and how many of the 17 digits
    are trailing zeros.  Remainders are taken as x - (x // c) * c: numpy
    divides by a scalar integer much faster than it takes % or divmod."""
    top = m // 10**8
    first = top // 10**8
    eights = np.empty((2, m.size), np.int64)  # digits 2-9 and 10-17
    eights[0] = top - first * 10**8
    eights[1] = m - top * 10**8
    quads = np.empty((2, 2, m.size), np.int64)  # digits 2-5, 6-9, 10-13, 14-17
    quads[:, 0] = eights // 10**4
    quads[:, 1] = eights - quads[:, 0] * 10**4
    quads = quads.reshape(4, -1)
    tz = _ZEROS4[quads]
    z = tz == 4
    trailing = tz[3] + z[3] * (tz[2] + z[2] * (tz[1] + z[1] * tz[0]))
    d = _DIGITS4[quads]
    return first, d[0] | d[1] << 32, d[2] | d[3] << 32, trailing


def _value_words(v):
    """(y, other): the slots of the values v as (3, v.size) uint64 words, their
    byte 23 NUL, and the indices of the values laid out as one 0x01 byte."""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    zero = a == 0.0
    e, m = _decimal17(np.where(fast, a, 1.0))
    first, lo, hi, trailing = _digit_words(m)
    first[zero] = 0
    before = np.maximum(e + 1, 0)  # digits before the point
    shown = np.maximum(before, 17 - trailing)  # digits printed
    y = np.empty((3, v.size), _U)
    y[0] = (np.where(np.signbit(v), _U(45), _U(0)) | _LEAD[np.maximum(-e, 0)] << 8
            | (48 + first).astype(_U) << 40 | lo << 48)
    y[1] = lo >> 16 | hi << 48
    y[2] = hi >> 16
    y &= _BELOW[5 + shown + 16 - _WORD]
    moved = y << 8
    moved[1:] |= y[:-1] >> 56
    t = 6 + e + 16 - _WORD
    y &= _BELOW[t]
    moved &= _FROM[t + 1]
    y |= moved
    y |= _POINT[np.where(shown > before, t, 0)]
    other = np.flatnonzero(~fast & ~zero)
    y[0, other], y[1, other], y[2, other] = 1 << 8, 0, 0
    return y, other


def _text(laid_out, v, other):
    """The bytes of the laid-out array without its NULs, its 0x01 bytes
    replaced by the %.17g texts of v[other] in turn."""
    body = laid_out.tobytes().translate(None, b"\0")
    if other.size == 0:
        return body
    texts = [_fmt(x).encode() for x in v[other].tolist()] + [b""]
    return b"".join(itertools.chain.from_iterable(zip(body.split(b"\x01"), texts)))


def _encode_rows(values, sep):
    r"""Yield the bytes of sep.join("%.17g" % v for v in row) + "\n" for the
    rows of a 2-D float array, in blocks of at most _BLOCK values."""
    ncols = values.shape[1]
    flat = np.ascontiguousarray(values, dtype=float).reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        block = flat[start:start + _BLOCK]
        y, other = _value_words(block)
        slots = np.ascontiguousarray(y.T).view(np.uint8)
        slots[:, 23] = ord(sep)
        slots[(ncols - 1 - start) % ncols::ncols, 23] = 10  # row ends
        yield _text(slots, block, other)


def _index_words(count):
    """For each i < count <= 10**4, the text of i and a space as uint64, the
    text in the low five bytes with NULs in place of _DIGITS4's leading zeros."""
    i = np.arange(count)
    lead = 3 - (i >= 10) - (i >= 100) - (i >= 1000)  # zeros before i's first digit
    return _DIGITS4[i] & _FROM[16 + lead] | _U(32) << 32


def _encode_tensor(values):
    r"""Yield the bytes of "%d %d %d %.17g %.17g\n" % (f, l, n, v.real, v.imag)
    for the entries v of an (F, L, N) complex array, n fastest, in blocks of
    _BLOCK values.  Each row is eight words: the three index texts in the
    first two, the slots of v.real and v.imag in the other six."""
    words = [_index_words(count) for count in values.shape]
    flat = np.ascontiguousarray(values, dtype=complex).reshape(-1)
    for start in range(0, flat.size, _BLOCK // 2):
        v = flat[start:start + _BLOCK // 2].view(float)  # re, im, re, im, ...
        f, l, n = (w[i] for w, i in zip(words, np.unravel_index(
            np.arange(start, start + v.size // 2), values.shape)))
        y, other = _value_words(v)
        rows = np.empty((v.size // 2, 8), _U)
        rows[:, 0] = f | l << 40
        rows[:, 1] = l >> 24 | n << 16
        rows[:, 2:] = y.T.reshape(-1, 6)
        text = rows.view(np.uint8)
        text[:, 39] = 32  # byte 23 of the v.real slot
        text[:, 63] = 10
        yield _text(text, v, other)


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
    lines, file_line = _records(path)
    try:
        rows = _table(lines, None, 4)
        if rows.shape[1] != 4:
            raise ValueError(f"scene rows have {rows.shape[1]} fields, not 4")
    except ValueError as exc:
        raise InputMismatchError(f"malformed scene file: {_on_line(exc, file_line, 0)}") from None
    return Scene(tuple(Crack((cx, cy), half, rot) for cx, cy, half, rot in rows.tolist()))


# --------------------------------------------------------------- tensor files


def write_tensor(path, tensor):
    cfg = tensor.config
    header = "".join([
        "# far-field tensor v1\n",
        f"F {cfg.n_freq}\nL {cfg.n_incident}\nN {cfg.n_obs}\n",
        "wavenumbers " + " ".join(map(_fmt, cfg.wavenumbers)) + "\n",
        "incident_angles " + " ".join(map(_fmt, cfg.incident_angles)) + "\n",
        "data f l n re im\n"])
    # imaging bounds F, L and N by 1024, so an index has at most four digits
    atomic_write_chunks(path, itertools.chain([header.encode()], _encode_tensor(tensor.values)))


def read_tensor(path):
    """Parse a tensor file whose data rows hold the (f, l, n) entries in the
    order write_tensor writes them, n fastest; the first that does not is refused.

    Each header key appears once, F, L and N with one integer each; header
    numbers are read in the grammar of the data rows."""
    lines, file_line = _records(path)
    header = {}
    first = len(lines)  # the index of the first data row
    for i, line in enumerate(lines):
        key, _, rest = line.partition(" ")
        if key == "data":
            first = i + 1
            break
        if key not in ("F", "L", "N", "wavenumbers", "incident_angles"):
            raise InputMismatchError(f"tensor header line {line!r}: unknown key")
        if key in header:
            raise InputMismatchError(f"tensor header line {line!r}: repeats {key}")
        if len(rest.split()) != 1 and key in ("F", "L", "N"):
            raise InputMismatchError(f"tensor header line {line!r}: {key} takes one value")
        try:
            header[key] = _numbers(rest)
            if key in ("F", "L", "N"):
                header[key] = _count(header[key][0])
        except ValueError as exc:
            raise InputMismatchError(f"tensor header line {line!r}: {exc}") from None
    rows = lines[first:]
    try:
        F, L, N = (header[key] for key in ("F", "L", "N"))
        wavenumbers = tuple(header["wavenumbers"])
        angles = tuple(header["incident_angles"])
        data = _table(rows, None, 5)
        if data.shape[1] != 5:
            raise ValueError(f"data rows have {data.shape[1]} fields, not 5")
    except KeyError as exc:
        raise InputMismatchError(f"tensor header lacks {exc}") from None
    except ValueError as exc:
        raise InputMismatchError(
            f"malformed tensor file: {_on_line(exc, file_line, first)}") from None
    if (F, L) != (len(wavenumbers), len(angles)):
        raise InputMismatchError(f"header F={F}, L={L} disagree with its wavenumbers/angles")
    if len(data) != F * L * N:  # before F*L*N indices are built and N is bounded
        raise InputMismatchError(
            f"tensor has {len(data)} data rows, header needs F*L*N = {F * L * N}")
    cfg = AcquisitionConfig(wavenumbers=wavenumbers, n_obs=N, incident_angles=angles)
    # float64 holds every index below 2**53 exactly, and the row count bounds them
    want = np.indices((F, L, N)).reshape(3, -1).T
    wrong = np.flatnonzero(np.any(data[:, :3] != want, axis=1))
    if wrong.size:
        i = wrong[0]
        raise InputMismatchError("tensor row on line {} has index ({}, {}, {}), not ({}, {}, {})"
                                 .format(file_line(first + i), *rows[i].split()[:3], *want[i]))
    values = np.empty(F * L * N, dtype=complex)
    values.real = data[:, 3]  # part by part, so that -0.0 keeps its sign
    values.imag = data[:, 4]
    return FarFieldTensor(values.reshape(F, L, N), cfg)


# ------------------------------------------------------------------ map files


def format_grid(grid):
    """The grid as the text "xmin,xmax,ymin,ymax,nx,ny", bounds in %.17g."""
    bounds = (grid.x_min, grid.x_max, grid.y_min, grid.y_max)
    return ",".join([*map(_fmt, bounds), str(grid.nx), str(grid.ny)])


def parse_grid(text):
    """ImagingGrid from the text "xmin,xmax,ymin,ymax,nx,ny", its numbers in
    the grammar of the data rows and nx, ny integers."""
    try:
        x_min, x_max, y_min, y_max, nx, ny = _numbers(text, ",")
        counts = (_count(nx), _count(ny))
    except ValueError:
        raise InputMismatchError(
            f'grid must be "xmin,xmax,ymin,ymax,nx,ny", got "{text}"') from None
    return ImagingGrid(x_min, x_max, y_min, y_max, *counts)


def write_map_csv(path, imap):
    header = ("# indicator-map-csv v1\n# x_min,x_max,y_min,y_max,nx,ny\n"
              + format_grid(imap.grid) + "\n")
    # y ascending, row-major
    atomic_write_chunks(path, itertools.chain([header.encode()], _encode_rows(imap.values, ",")))


def read_map_csv(path):
    lines, file_line = _records(path)
    try:
        grid = parse_grid(lines[0])
        values = _table(lines[1:], ",", grid.nx)
    except (ValueError, IndexError) as exc:
        raise InputMismatchError(f"malformed map file: {_on_line(exc, file_line, 1)}") from None
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
    atomic_write_chunks(path, [header, body])


# ------------------------------------------------------------------ manifests


def write_manifest(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
