"""The scene, map and tensor readers on text they did not write.

`io.read_scene`, `io.read_map_csv` and `io.read_tensor` read files from
outside the program.  Whatever the text, each either returns or raises
`CrackDsmError`; a map it returns is finite and lies in [0, 1].  Their data
rows go through numpy's parser (`io._table`), which rounds as float() does;
the inputs on which the two disagree are pinned one by one below.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crackdsm import io as cio
from crackdsm.errors import CrackDsmError, InputMismatchError
from crackdsm.imaging import AcquisitionConfig, FarFieldTensor, ImagingGrid, IndicatorMap
from crackdsm.scene import Crack, Scene


@pytest.fixture(scope="module")
def valid_texts(tmp_path_factory):
    """(reader, text) for a small map, a small tensor and a two-crack scene,
    as the writers give them: zeros, ones, exponent forms, negative zeros and
    subnormals."""
    tmp = tmp_path_factory.mktemp("valid")
    values = np.array([[0.0, 1.0, 0.5, 1e-300], [0.25, 3e-7, 0.125, 0.999]])
    cio.write_map_csv(tmp / "map.csv", IndicatorMap(ImagingGrid(-1, 1, 0, 2.5, 4, 2), values))
    rng = np.random.default_rng(6)
    field = rng.standard_normal((2, 1, 8)) + 1j * rng.standard_normal((2, 1, 8))
    field[0, 0, :3] = [-0.0, 5e-324, complex(1e20, -0.0)]
    cfg = AcquisitionConfig((3.0, 4.5), 8, (0.25,))
    cio.write_tensor(tmp / "tensor.txt", FarFieldTensor(field, cfg))
    cio.write_scene(tmp / "scene.txt", Scene((Crack((-0.0, 0.25), 0.05, 1e-7),
                                              Crack((0.6, -2e-5), 3e-7, -0.3))))
    return [(cio.read_map_csv, (tmp / "map.csv").read_text()),
            (cio.read_tensor, (tmp / "tensor.txt").read_text()),
            (cio.read_scene, (tmp / "scene.txt").read_text())]


# tokens a mutation may put in place of a field or a line
_TOKENS = ["", " ", ",", "#", "x", "nan", "-inf", "1e999", "-1", "-0", "0", "1", "7", "8",
           "1.0", "0.5", "1e-320", "1_0", "١", "0x1p-3", "99999999999999999999",
           "data", "F", "N 8", "# note"]
_SEPARATOR = re.compile(r"([ ,\n])")


def _mutate(text, draw):
    """text with one mutation: a token or a row deleted, duplicated or
    replaced, a blank, indented-comment or inline-comment line added, or the
    file truncated."""
    kind = draw(st.sampled_from(["token", "row", "insert", "inline", "truncate"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text)))]
    rows = text.split("\n")
    if kind == "insert":
        at = draw(st.integers(0, len(rows)))
        return "\n".join(rows[:at] + [draw(st.sampled_from(["", "  ", "  # note", "\t#"]))]
                         + rows[at:])
    if kind == "inline":
        at = draw(st.integers(0, len(rows) - 1))
        rows[at] += draw(st.sampled_from([" # note", "# note", ",#", " #"]))
        return "\n".join(rows)
    op = draw(st.sampled_from(["delete", "duplicate", "replace"]))
    if kind == "row":
        at = draw(st.integers(0, len(rows) - 1))
        new = {"delete": [], "duplicate": [rows[at]] * 2,
               "replace": [draw(st.sampled_from(_TOKENS + rows))]}[op]
        return "\n".join(rows[:at] + new + rows[at + 1:])
    pieces = _SEPARATOR.split(text)  # fields at even positions, separators between
    at = 2 * draw(st.integers(0, len(pieces) // 2))
    new = {"delete": [], "duplicate": [pieces[at], " ", pieces[at]],
           "replace": [draw(st.sampled_from(_TOKENS))]}[op]
    return "".join(pieces[:at] + new + pieces[at + 1:])


@given(data=st.data(), which=st.sampled_from([0, 1, 2]), count=st.integers(1, 3))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_readers_return_or_refuse_mutated_files(tmp_path_factory, valid_texts, data, which,
                                                count):
    read, text = valid_texts[which]
    for _ in range(count):
        text = _mutate(text, data.draw)
    path = tmp_path_factory.getbasetemp() / "mutated.txt"
    path.write_text(text)
    try:
        got = read(path)
    except CrackDsmError:
        return
    if isinstance(got, IndicatorMap):
        assert got.values.shape == got.grid.shape
        assert np.all(np.isfinite(got.values))
        assert np.all((got.values >= 0.0) & (got.values <= 1.0))
    elif isinstance(got, FarFieldTensor):
        cfg = got.config
        assert got.values.shape == (cfg.n_freq, cfg.n_incident, cfg.n_obs)
    else:
        assert isinstance(got, Scene)


def test_tensor_round_trip_keeps_signed_zeros(tmp_path):
    cfg = AcquisitionConfig((2.0,), 8, (0.0,))
    zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    field = np.array(zeros + [complex(0.5, -0.0), complex(-0.0, 0.5), -0.5, 0.5j])
    p1, p2 = tmp_path / "t1.txt", tmp_path / "t2.txt"
    cio.write_tensor(p1, FarFieldTensor(field.reshape(1, 1, 8), cfg))
    assert "0 0 4 0.5 -0\n" in p1.read_text()
    back = cio.read_tensor(p1).values.reshape(-1)
    assert np.array_equal(np.signbit(back.real), np.signbit(field.real))
    assert np.array_equal(np.signbit(back.imag), np.signbit(field.imag))
    cio.write_tensor(p2, cio.read_tensor(p1))
    assert p1.read_bytes() == p2.read_bytes()


# a 2x2 map, a 1x1x8 tensor and a two-crack scene, as text, with their first
# data row given
_MAP = "# indicator-map-csv v1\n0,1,0,1,2,2\n{}\n1,0\n"
_TENSOR = ("F 1\nL 1\nN 8\nwavenumbers 2\nincident_angles 0\ndata f l n re im\n{}\n"
           + "".join(f"0 0 {n} 0.5 -0.25\n" for n in range(1, 8)))
_SCENE = "# crack scene\n{}\n1 1 0.05 0\n"


def _read(path, template, first_row):
    path.write_text(template.format(first_row))
    read = {_MAP: cio.read_map_csv, _TENSOR: cio.read_tensor, _SCENE: cio.read_scene}
    return read[template](path)


# float() reads 0.1_2 as 0.12 and Arabic-Indic or full-width digits as ASCII
# ones; numpy's parser takes neither
@pytest.mark.parametrize("value", ["0.1_2", "\u0660.\u0665", "\uff10.\uff15"],
                         ids=["underscore", "arabic-indic", "full-width"])
@pytest.mark.parametrize("template, row", [(_MAP, "{},0.25"), (_TENSOR, "0 0 0 {} 0"),
                                           (_SCENE, "0 0 {} 0")],
                         ids=["map", "tensor", "scene"])
def test_readers_refuse_values_only_float_accepts(tmp_path, value, template, row):
    assert 0.0 < float(value) < 1.0
    with pytest.raises(InputMismatchError, match="^malformed (map|tensor|scene) file: "):
        _read(tmp_path / "f.txt", template, row.format(value))


@pytest.mark.parametrize("index", ["0.0", "0e0", "-0", "+0", "00"])
def test_read_tensor_takes_an_index_whose_value_is_an_integer(tmp_path, index):
    got = _read(tmp_path / "a.txt", _TENSOR, f"0 0 {index} 0.5 -0.25")
    want = _read(tmp_path / "b.txt", _TENSOR, "0 0 0 0.5 -0.25")
    assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize("index, message", [
    ("0.5", "malformed tensor file: index (0, 0, 0.5) is not an integer"),
    ("inf", "malformed tensor file: index (0, 0, inf) is not an integer"),
    ("nan", "malformed tensor file: index (0, 0, nan) is not an integer"),
    ("1_0", "malformed tensor file: could not convert string '1_0' to float64"),
], ids=["0.5", "inf", "nan", "1_0"])
def test_read_tensor_refuses_an_index_that_is_not_an_integer(tmp_path, index, message):
    with pytest.raises(InputMismatchError) as err:
        _read(tmp_path / "t.txt", _TENSOR, f"0 0 {index} 0.5 -0.25")
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("fields", ["0 0 {}", "0 0 {} 0.5", "0 0 {} 0.5 -0.25 1"],
                         ids=["3", "4", "6"])
def test_read_tensor_refuses_rows_without_five_fields(tmp_path, fields):
    path = tmp_path / "t.txt"
    rows = "".join(fields.format(n) + "\n" for n in range(8))
    path.write_text(_TENSOR.split("{}")[0] + rows)
    with pytest.raises(InputMismatchError, match="^malformed tensor file: "):
        cio.read_tensor(path)


def test_readers_refuse_a_header_without_data_rows_without_a_warning(tmp_path):
    path = tmp_path / "f.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text, read, message in [
                (_MAP.split("\n")[0:2], cio.read_map_csv,
                 r"map data shape \(0, 2\) does not match header \(2, 2\)"),
                (_TENSOR.split("\n")[0:6], cio.read_tensor,
                 r"tensor has 0 data rows, header needs F\*L\*N = 8")]:
            path.write_text("\n".join(text) + "\n")
            with pytest.raises(InputMismatchError, match=message):
                read(path)


@pytest.mark.parametrize("written, given, line, message", [
    ("wavenumbers 2", "wavenumbers 2\nwavenumbers 3", "wavenumbers 3", "repeats wavenumbers"),
    ("N 8", "N 8\nbogus key", "bogus key", "unknown key"),
    ("F 1", "F 1 junk", "F 1 junk", "F takes one value"),
    # header numbers go through the data rows' grammar: float() reads 1_0 as
    # 10 and Arabic-Indic or full-width digits as ASCII ones, numpy takes neither
    ("F 1", "F ١", "F ١", "could not convert string '١' to float64"),
    ("N 8", "N 1_0", "N 1_0", "could not convert string '1_0' to float64"),
    ("wavenumbers 2", "wavenumbers 2_0", "wavenumbers 2_0",
     "could not convert string '2_0' to float64"),
    ("incident_angles 0", "incident_angles 0 １", "incident_angles 0 １",
     "could not convert string '１' to float64"),
    ("L 1", "L 1.5", "L 1.5", "1.5 is not an integer"),
    ("N 8", "N inf", "N inf", "inf is not an integer"),
    ("F 1", "F", "F", "F takes one value"),
], ids=["repeated", "unknown", "extra-token", "F-arabic-indic", "N-underscore",
        "wavenumbers-underscore", "angles-full-width", "L-fraction", "N-inf", "F-empty"])
def test_read_tensor_refuses_a_bad_header_line(tmp_path, written, given, line, message):
    path = tmp_path / "t.txt"
    path.write_text(_TENSOR.replace(written + "\n", given + "\n", 1).format("0 0 0 0.5 -0.25"))
    with pytest.raises(InputMismatchError) as err:
        cio.read_tensor(path)
    assert str(err.value) == f"tensor header line {line!r}: {message}"


@pytest.mark.parametrize("comment", [" # note", "# note", " #"])
@pytest.mark.parametrize("template, row", [(_MAP, "0.5,0.25"), (_TENSOR, "0 0 0 0.5 -0.25"),
                                           (_SCENE, "0 0 0.05 0")],
                         ids=["map", "tensor", "scene"])
def test_readers_refuse_an_inline_comment_after_data(tmp_path, comment, template, row):
    with pytest.raises(InputMismatchError, match="^malformed (map|tensor|scene) file: "):
        _read(tmp_path / "f.txt", template, row + comment)


# a comment line before the bad row, so that its data row and file line differ
_BAD_MAP = "# indicator-map-csv v1\n0,1,0,1,2,2\n0.5,0.25\n# note\n\n{}\n"
_BAD_TENSOR = ("F 1\nL 1\nN 2\nwavenumbers 2\nincident_angles 0\ndata f l n re im\n"
               "0 0 0 0.5 -0.25\n# note\n{}\n")
_BAD_SCENE = "# crack scene\n0 0 0.05 0\n# note\n\n{}\n"


@pytest.mark.parametrize("template, row, message", [
    (_BAD_MAP, "1", "malformed map file: the number of columns changed from 2 to 1 on line 6"),
    (_BAD_MAP, "1,x", "malformed map file: could not convert string 'x' to float64 on line 6"),
    (_BAD_TENSOR, "0 0 1 0.5",
     "malformed tensor file: the number of columns changed from 5 to 4 on line 9"),
    (_BAD_TENSOR, "0 0 1 0.5 x",
     "malformed tensor file: could not convert string 'x' to float64 on line 9"),
    (_BAD_SCENE, "1 0 0.05",
     "malformed scene file: the number of columns changed from 4 to 3 on line 5"),
    # float() reads 1_0 as 10
    (_BAD_SCENE, "1_0 0 0.05 0",
     "malformed scene file: could not convert string '1_0' to float64 on line 5"),
], ids=["map-columns", "map-value", "tensor-columns", "tensor-value", "scene-columns",
        "scene-underscore"])
def test_reader_errors_name_the_file_line(tmp_path, template, row, message):
    path = tmp_path / "f.txt"
    path.write_text(template.format(row))
    read = {_BAD_MAP: cio.read_map_csv, _BAD_TENSOR: cio.read_tensor,
            _BAD_SCENE: cio.read_scene}[template]
    with pytest.raises(InputMismatchError) as err:
        read(path)
    assert str(err.value) == message
    assert "usecols" not in str(err.value)


# str.splitlines would also end a line at a form feed or at \x1c
@pytest.mark.parametrize("text, message", [
    (_BAD_MAP.replace("v1\n", "v1\x0c note\n").format("1,x"),
     "malformed map file: could not convert string 'x' to float64 on line 6"),
    (_BAD_MAP.format("0.5,0.25\x1c0.75"),
     r"malformed map file: could not convert string '0.25\x1c0.75' to float64 on line 6"),
], ids=["form-feed-in-comment", "x1c-in-row"])
def test_reader_lines_end_at_newline_only(tmp_path, text, message):
    path = tmp_path / "f.txt"
    path.write_text(text)
    with pytest.raises(InputMismatchError) as err:
        cio.read_map_csv(path)
    assert str(err.value) == message
    path.write_text(_MAP.replace("v1\n", "v1\x0c note\n").format("0.5,0.25"))
    assert np.array_equal(cio.read_map_csv(path).values, [[0.5, 0.25], [1.0, 0.0]])


@pytest.mark.parametrize("row, fields", [("1 0 0.05", 3), ("1 0 0.05 0 1", 5)])
def test_read_scene_refuses_rows_without_four_fields(tmp_path, row, fields):
    path = tmp_path / "s.txt"
    path.write_text(f"# crack scene\n{row}\n")
    with pytest.raises(InputMismatchError) as err:
        cio.read_scene(path)
    assert str(err.value) == f"malformed scene file: scene rows have {fields} fields, not 4"


def test_read_scene_takes_a_scene_without_cracks_without_a_warning(tmp_path):
    path = tmp_path / "s.txt"
    cio.write_scene(path, Scene(()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cio.read_scene(path) == Scene(())


# decimal literals of up to 30 significant digits, over the whole float range
# and past it, and the shortest and 17-digit texts of any finite float
_literal = st.one_of(
    st.builds("{}{}.{}e{}".format, st.sampled_from(["", "-", "+"]),
              st.text("0123456789", min_size=1, max_size=15),
              st.text("0123456789", max_size=15), st.integers(-360, 330)),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("{:.17g}".format))


@given(st.lists(_literal, min_size=1, max_size=6))
# halfway between two floats (1 + 2**-53, 2**53 + 1) and just above, the
# smallest normal and subnormal, and values that round to 0 or overflow
@example(["1.00000000000000011102230246251565404236316680908203125",
          "1.00000000000000011102230246251565404236316680908203126",
          "9007199254740993", "2.2250738585072011e-308", "4.9406564584124654e-324",
          "2.4703282292062327e-324", "1e-400", "1.7976931348623159e308"])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_table_rounds_as_float_does(texts):
    got = cio._table([",".join(texts)], ",", len(texts))
    want = np.array([[float(t) for t in texts]])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("given", ["F 1.0", "N 8e0", "N +8", "wavenumbers 2.0e0"])
def test_read_tensor_takes_header_numbers_in_any_float_form(tmp_path, given):
    key = given.split()[0]
    written = {"F": "F 1", "N": "N 8", "wavenumbers": "wavenumbers 2"}[key]
    path = tmp_path / "t.txt"
    path.write_text(_TENSOR.replace(written + "\n", given + "\n", 1).format("0 0 0 0.5 -0.25"))
    want = AcquisitionConfig((2.0,), 8, (0.0,))
    assert cio.read_tensor(path).config == want


@pytest.mark.parametrize("grid", ["0,1_0,0,1,٢,2", "0,1_0,0,1,2,2", "0,1,0,1,٢,2",
                                  "0,1,0,1,2.5,2", "0,1,0,1,inf,2", "0,1,0,1,2",
                                  "0,1,0,1,2,2,", "0x0,1,0,1,2,2", ""])
def test_grid_numbers_are_read_as_data_rows(tmp_path, grid):
    with pytest.raises(InputMismatchError) as err:
        cio.parse_grid(grid)
    assert str(err.value) == f'grid must be "xmin,xmax,ymin,ymax,nx,ny", got "{grid}"'
    path = tmp_path / "m.csv"
    path.write_text(_MAP.replace("0,1,0,1,2,2", grid).format("0.5,0.25"))
    with pytest.raises(InputMismatchError, match="^malformed map file: grid must be"):
        cio.read_map_csv(path)


def test_grid_counts_may_be_written_as_floats():
    assert cio.parse_grid(" 0, 1.0 ,-1e0,+1,2.0,3e0") == ImagingGrid(0.0, 1.0, -1.0, 1.0, 2, 3)
