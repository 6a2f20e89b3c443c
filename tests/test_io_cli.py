import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from crackdsm import io as cio
from crackdsm.cli import main
from crackdsm.forward import AcquisitionConfig, FarFieldTensor
from crackdsm.imaging import ImagingGrid, IndicatorMap
from crackdsm.scene import Crack, Scene, sample_scene


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.txt"
    cio.write_scene(path, sample_scene())
    return str(path)


# ----------------------------------------------------------------- round trips

def test_scene_round_trip(tmp_path):
    sc = Scene((Crack((0.123456789012345, -0.4), 0.05, 1.7),
                Crack((0.6, 0.2), 0.03, 0.0)))
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    cio.write_scene(p1, sc)
    back = cio.read_scene(p1)
    assert back == sc
    cio.write_scene(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_tensor_round_trip(tmp_path, k):
    cfg = AcquisitionConfig((k, 1.3 * k), 12, (0.4, 2.0, 5.1))
    rng = np.random.default_rng(7)
    values = rng.standard_normal((2, 3, 12)) + 1j * rng.standard_normal((2, 3, 12))
    tensor = FarFieldTensor(values, cfg)
    p1 = tmp_path / "t1.txt"
    p2 = tmp_path / "t2.txt"
    cio.write_tensor(p1, tensor)
    back = cio.read_tensor(p1)
    assert np.array_equal(back.values, tensor.values)
    assert back.config == cfg
    cio.write_tensor(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_map_round_trip(tmp_path):
    grid = ImagingGrid(-1.0, 1.0, -0.5, 0.5, 7, 5)
    rng = np.random.default_rng(3)
    imap = IndicatorMap(grid, rng.random((5, 7)))
    p1 = tmp_path / "m1.csv"
    p2 = tmp_path / "m2.csv"
    cio.write_map_csv(p1, imap)
    back = cio.read_map_csv(p1)
    assert back.grid == grid
    assert np.array_equal(back.values, imap.values)
    cio.write_map_csv(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_map_csv_rows_match_value_by_value_format(tmp_path):
    grid = ImagingGrid(-1.0, 1.0, -0.5, 0.5, 9, 4)
    values = np.random.default_rng(5).random((4, 9))
    values[0, :3] = [0.0, 1.0, 1e-300]
    path = tmp_path / "m.csv"
    cio.write_map_csv(path, IndicatorMap(grid, values))
    rows = path.read_text().splitlines()[3:]
    assert rows == [",".join(format(float(v), ".17g") for v in row) for row in values]


def test_map_csv_shape_mismatch_detected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1,0,1,3,3\n0,0,0\n0,0,0\n")
    with pytest.raises(Exception):
        cio.read_map_csv(path)


def test_pgm_header_and_size(tmp_path):
    grid = ImagingGrid(0, 1, 0, 1, 4, 3)
    imap = IndicatorMap(grid, np.linspace(0, 1, 12).reshape(3, 4))
    path = tmp_path / "m.pgm"
    cio.write_map_pgm(path, imap)
    data = path.read_bytes()
    assert data.startswith(b"P5\n4 3\n65535\n")
    assert len(data) == len(b"P5\n4 3\n65535\n") + 2 * 12
    # top row of the file is the y-max row, and max value maps to 65535
    top = np.frombuffer(data[-2 * 12:], dtype=">u2").reshape(3, 4)
    assert top[0, 3] == 65535


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "m.json"
    payload = {"b": 1, "a": [1, 2], "c": {"z": None}}
    cio.write_manifest(path, payload)
    assert cio.read_manifest(path) == payload
    # deterministic serialization
    text = path.read_text()
    cio.write_manifest(path, cio.read_manifest(path))
    assert path.read_text() == text


# ----------------------------------------------------------------- CLI basics

def test_cli_simulate_and_image(tmp_path, scene_file, capsys):
    tensor = str(tmp_path / "data.txt")
    assert main(["simulate", "--scene", scene_file, "--lambda", "0.5",
                 "--generator", "order1", "--out", tensor]) == 0
    t = cio.read_tensor(tensor)
    assert t.values.shape == (1, 1, 30)
    out_map = str(tmp_path / "map")
    assert main(["image", "--tensor", tensor, "--method", "single",
                 "--grid=-1,1,-1,1,101,101", "--out", out_map]) == 0
    imap = cio.read_map_csv(out_map + ".csv")
    assert imap.values.shape == (101, 101)
    assert imap.values.max() == 1.0
    assert (tmp_path / "map.pgm").exists()
    manifest = cio.read_manifest(out_map + ".csv.manifest.json")
    assert manifest["command"] == "image"
    assert manifest["params"]["grid"] == "-1,1,-1,1,101,101"


def test_cli_manifest_replay_reproduces_bytes(tmp_path, scene_file):
    tensor = str(tmp_path / "data.txt")
    argv = ["simulate", "--scene", scene_file, "--lambda", "0.5",
            "--generator", "order2", "--out", tensor]
    assert main(argv) == 0
    first = (tmp_path / "data.txt").read_bytes()
    stored = cio.read_manifest(tensor + ".manifest.json")["argv"]
    assert main(stored) == 0
    assert (tmp_path / "data.txt").read_bytes() == first


def test_cli_noise_is_seeded(tmp_path, scene_file):
    out1 = str(tmp_path / "n1.txt")
    out2 = str(tmp_path / "n2.txt")
    out3 = str(tmp_path / "n3.txt")
    base = ["simulate", "--scene", scene_file, "--lambda", "0.5",
            "--generator", "order1", "--noise-snr", "20"]
    assert main(base + ["--seed", "5", "--out", out1]) == 0
    assert main(base + ["--seed", "5", "--out", out2]) == 0
    assert main(base + ["--seed", "6", "--out", out3]) == 0
    b1 = (tmp_path / "n1.txt").read_bytes()
    assert b1 == (tmp_path / "n2.txt").read_bytes()
    assert b1 != (tmp_path / "n3.txt").read_bytes()


def test_cli_full_generator_multi_frequency(tmp_path, scene_file):
    tensor = str(tmp_path / "band.txt")
    assert main(["simulate", "--scene", scene_file, "--lambda-range", "0.4,0.6",
                 "--n-freq", "3", "--generator", "full", "--quad-nodes", "16",
                 "--out", tensor]) == 0
    t = cio.read_tensor(tensor)
    assert t.values.shape == (3, 1, 30)
    assert list(t.config.wavenumbers) == sorted(t.config.wavenumbers)


def test_cli_empty_scene_full_generator_zero(tmp_path):
    scene = tmp_path / "empty.txt"
    cio.write_scene(scene, Scene(()))
    tensor = str(tmp_path / "zero.txt")
    assert main(["simulate", "--scene", str(scene), "--lambda", "0.5",
                 "--out", tensor]) == 0
    assert np.all(cio.read_tensor(tensor).values == 0.0)


def test_cli_scene_violation_exits_nonzero(tmp_path, capsys):
    scene = tmp_path / "close.txt"
    cio.write_scene(scene, Scene((Crack((0, 0), 0.01, 0.0),
                                  Crack((0.02, 0), 0.01, 0.0))))
    assert main(["simulate", "--scene", str(scene), "--lambda", "0.5",
                 "--out", str(tmp_path / "x.txt")]) == 1
    assert "separation" in capsys.readouterr().err


def test_cli_mif_on_single_frequency_fails(tmp_path, scene_file, capsys):
    tensor = str(tmp_path / "one.txt")
    assert main(["simulate", "--scene", scene_file, "--lambda", "0.5",
                 "--generator", "order1", "--out", tensor]) == 0
    rc = main(["image", "--tensor", tensor, "--method", "mif",
               "--grid=-1,1,-1,1,21,21", "--out", str(tmp_path / "m")])
    assert rc == 1
    assert "mif" in capsys.readouterr().err


def test_cli_s2_unequal_half_lengths_fails(tmp_path, capsys):
    scene = tmp_path / "mixed.txt"
    cio.write_scene(scene, Scene((Crack((0, 0), 0.05, 0.0),
                                  Crack((0.6, 0), 0.03, 0.0))))
    rc = main(["predict", "--scene", str(scene), "--predictor", "s2",
               "--lambda", "0.5", "--grid=-1,1,-1,1,21,21",
               "--out", str(tmp_path / "p")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_predict_compare_single_crack(tmp_path, capsys):
    # one crack: the phase-free structure prediction matches the indicator
    # (phase factors only reshuffle multi-crack interference)
    scene = tmp_path / "one.txt"
    cio.write_scene(scene, Scene((Crack((0.2, 0.1), 0.05, 0.4),)))
    pred = str(tmp_path / "pred")
    assert main(["predict", "--scene", str(scene), "--predictor", "s1",
                 "--lambda", "0.5", "--grid=-1,1,-1,1,201,201",
                 "--out", pred]) == 0
    tensor = str(tmp_path / "d.txt")
    assert main(["simulate", "--scene", str(scene), "--lambda", "0.5",
                 "--n-obs", "72", "--generator", "order1", "--out", tensor]) == 0
    img = str(tmp_path / "img")
    assert main(["image", "--tensor", tensor, "--method", "single",
                 "--grid=-1,1,-1,1,201,201", "--out", img]) == 0
    assert main(["compare", "--a", pred + ".csv", "--b", img + ".csv"]) == 0
    out = capsys.readouterr().out
    linf = float(out.splitlines()[0].split()[1])
    # 72 observation directions resolve k*r over the whole grid, so the
    # indicator is close to its continuum structure limit
    assert linf < 0.01


def test_cli_peaks_benchmark_scene(tmp_path, scene_file, capsys):
    tensor = str(tmp_path / "d.txt")
    assert main(["simulate", "--scene", scene_file, "--lambda", "0.5",
                 "--generator", "order1", "--out", tensor]) == 0
    img = str(tmp_path / "img")
    assert main(["image", "--tensor", tensor, "--method", "single",
                 "--grid=-1,1,-1,1,201,201", "--out", img]) == 0
    capsys.readouterr()
    assert main(["peaks", "--map", img + ".csv", "--scene", scene_file,
                 "--floor", "0.4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("peaks ")
    crack_lines = [ln for ln in out.splitlines() if ln.startswith("crack ")]
    assert len(crack_lines) == 3
    for ln in crack_lines:
        assert float(ln.split()[4]) < 0.06


def test_cli_missing_wavelength_errors(tmp_path, scene_file, capsys):
    rc = main(["simulate", "--scene", scene_file, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "lambda" in capsys.readouterr().err


_COMMAND_TAILS = {
    "simulate": ["--generator", "order1"],
    "predict": ["--predictor", "s1", "--grid=-1,1,-1,1,11,11"],
}


@pytest.mark.parametrize("command", sorted(_COMMAND_TAILS))
@pytest.mark.parametrize("wavelength", ["0", "inf", "-0.5", "nan"])
def test_cli_rejects_bad_wavelength(tmp_path, scene_file, capsys, command, wavelength):
    rc = main([command, "--scene", scene_file, "--lambda", wavelength,
               *_COMMAND_TAILS[command], "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --lambda") and "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("spec", ["0.3,inf", "0.3,nan", "nan,0.5"])
def test_cli_lambda_range_must_be_finite(tmp_path, scene_file, capsys, spec):
    rc = main(["simulate", "--scene", scene_file, "--lambda-range", spec,
               "--n-freq", "3", "--out", str(tmp_path / "o.txt")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: lambda range")
    assert not list(tmp_path.glob("o.txt*"))


@pytest.mark.parametrize("spec", ["0.3,0.5,0.7", "a,b", "0.4"])
def test_cli_lambda_range_needs_two_numbers(tmp_path, scene_file, capsys, spec):
    rc = main(["simulate", "--scene", scene_file, "--lambda-range", spec,
               "--n-freq", "3", "--out", str(tmp_path / "o.txt")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --lambda-range")


# each edit of a valid N = 30 tensor file's lines must be rejected
_TENSOR_CORRUPTIONS = {
    "missing_header_key": lambda lines: [ln for ln in lines if not ln.startswith("L ")],
    "truncated": lambda lines: lines[:-3],
    "index_out_of_range": lambda lines: lines[:-1] + ["0 0 30 1 0\n"],
    "duplicate_entry": lambda lines: lines[:-1] + [lines[-2]],
}


@pytest.mark.parametrize("how", sorted(_TENSOR_CORRUPTIONS))
def test_cli_image_rejects_bad_tensor(tmp_path, scene_file, capsys, how):
    tensor = tmp_path / "data.txt"
    assert main(["simulate", "--scene", scene_file, "--lambda", "0.5",
                 "--generator", "order1", "--out", str(tensor)]) == 0
    lines = tensor.read_text().splitlines(keepends=True)
    tensor.write_text("".join(_TENSOR_CORRUPTIONS[how](lines)))
    capsys.readouterr()
    rc = main(["image", "--tensor", str(tensor), "--method", "single",
               "--grid=-1,1,-1,1,11,11", "--out", str(tmp_path / "map")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.glob("map*"))


def test_outputs_honour_umask(tmp_path):
    old = os.umask(0o022)
    try:
        cio.write_manifest(tmp_path / "m.json", {"a": 1})
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "m.json").stat().st_mode) == 0o644


@pytest.mark.parametrize("out", ["missing/data.txt", "occupied"])
def test_cli_unwritable_out_errors(tmp_path, scene_file, capsys, out):
    (tmp_path / "occupied").mkdir()  # a directory cannot be replaced by a file
    rc = main(["simulate", "--scene", scene_file, "--lambda", "0.5",
               "--generator", "order1", "--out", str(tmp_path / out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: cannot write")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["occupied", "scene.txt"]


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_cli_grid_forms_record_same_spec(tmp_path, scene_file):
    specs = []
    for i, grid_args in enumerate([["--grid", "0.0,1.50,-0.25,0.75,11,9"],
                                   ["--grid=0.0,1.50,-0.25,0.75,11,9"]]):
        out = str(tmp_path / f"p{i}")
        assert main(["predict", "--scene", scene_file, "--predictor", "s1",
                     "--lambda", "0.5", *grid_args, "--out", out]) == 0
        specs.append(cio.read_manifest(out + ".csv.manifest.json")["params"]["grid"])
    assert specs == ["0,1.5,-0.25,0.75,11,9"] * 2


def test_cli_grid_value_with_negative_bound_as_own_token(tmp_path, scene_file):
    # argparse alone reads "-1,..." after --grid as an option, not a value
    tensor = str(tmp_path / "data.txt")
    assert main(["simulate", "--scene", scene_file, "--lambda", "0.5",
                 "--generator", "order1", "--out", tensor]) == 0
    commands = {"image": ["image", "--tensor", tensor, "--method", "single"],
                "predict": ["predict", "--scene", scene_file, "--predictor", "s1",
                            "--lambda", "0.5"]}
    for name, argv in commands.items():
        outs = []
        for form, grid_args in (("sep", ["--grid", "-1,1,-0.5,1,11,9"]),
                                ("eq", ["--grid=-1,1,-0.5,1,11,9"])):
            out = str(tmp_path / f"{name}_{form}")
            assert main([*argv, *grid_args, "--out", out]) == 0
            outs.append(out)
        sep, eq = outs
        for ext in (".csv", ".pgm"):
            assert Path(sep + ext).read_bytes() == Path(eq + ext).read_bytes()
        grids = [cio.read_manifest(o + ".csv.manifest.json")["params"]["grid"]
                 for o in outs]
        assert grids == ["-1,1,-0.5,1,11,9"] * 2


# argv of each command that reads a file; {src} is the file it must reject
_READERS = {
    "image": ["image", "--tensor", "{src}", "--method", "single",
              "--grid=-1,1,-1,1,11,11", "--out", "{out}"],
    "predict": ["predict", "--scene", "{src}", "--predictor", "s1", "--lambda", "0.5",
                "--grid=-1,1,-1,1,11,11", "--out", "{out}"],
    "peaks": ["peaks", "--map", "{src}"],
    "compare": ["compare", "--a", "{src}", "--b", "{src}"],
}


@pytest.mark.parametrize("command, src", [(c, "missing") for c in sorted(_READERS)]
                         + [("compare", "bad_cell"), ("peaks", "bad_cell")])
def test_cli_rejects_unreadable_input(tmp_path, capsys, command, src):
    path = tmp_path / "input.txt"
    if src == "bad_cell":
        path.write_text("0,1,0,1,2,2\n0,x\n0,0\n")
    argv = [a.format(src=path, out=tmp_path / "out") for a in _READERS[command]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


# each argv must be refused with exit 1; {tensor} is a valid F = L = 1 tensor
# file, except that the header line a case names first is set to nan
_BAD_INPUTS = {
    "tensor_nan_wavenumber": ("wavenumbers", ["image", "--tensor", "{tensor}",
                                              "--method", "aif", "--grid=-1,1,-1,1,5,5"]),
    "tensor_nan_incident_angle": ("incident_angles", ["image", "--tensor", "{tensor}",
                                                      "--method", "aif",
                                                      "--grid=-1,1,-1,1,5,5"]),
    "grid_inf_bound": (None, ["image", "--tensor", "{tensor}", "--method", "single",
                              "--grid=-1,inf,-1,1,5,5"]),
    "grid_nan_bound": (None, ["predict", "--scene", "{scene}", "--predictor", "s1",
                              "--lambda", "0.5", "--grid=-1,nan,-1,1,5,5"]),
    "grid_bad_count": (None, ["predict", "--scene", "{scene}", "--predictor", "s1",
                              "--lambda", "0.5", "--grid=-1,1,-1,1,5,x"]),
    "s2_nan_incident_angle": (None, ["predict", "--scene", "{scene}", "--predictor", "s2",
                                     "--lambda", "0.5", "--incident-angle", "nan",
                                     "--grid=-1,1,-1,1,5,5"]),
    "mif_inf_incident_angle": (None, ["predict", "--scene", "{scene}", "--predictor", "mif",
                                      "--lambda-range", "0.3,0.7", "--n-freq", "3",
                                      "--incident-angle", "inf", "--grid=-1,1,-1,1,5,5"]),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_cli_rejects_bad_input(tmp_path, scene_file, capsys, case):
    nan_line, argv = _BAD_INPUTS[case]
    tensor = tmp_path / "data.txt"
    cfg = AcquisitionConfig((4 * math.pi,), 8, (math.pi / 2,))
    cio.write_tensor(tensor, FarFieldTensor(np.ones((1, 1, 8)), cfg))
    if nan_line:
        lines = tensor.read_text().splitlines(keepends=True)
        tensor.write_text("".join(f"{nan_line} nan\n" if ln.startswith(nan_line + " ")
                                  else ln for ln in lines))
    argv = [a.format(tensor=tensor, scene=scene_file) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.glob("out*"))
