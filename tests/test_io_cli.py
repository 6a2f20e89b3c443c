import contextlib
import io
import json
import math
import os
import re
import shutil
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crackdsm import io as cio
from crackdsm.cli import build_parser, main
from crackdsm.errors import InputMismatchError
from crackdsm.forward import _MAX_NODES, QuadratureSpec
from crackdsm.imaging import (_MAX_AXIS, _MAX_COUNT, AcquisitionConfig, FarFieldTensor,
                              ImagingGrid, IndicatorMap)
from crackdsm.scene import Crack, Scene
from paper import sample_scene


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


@pytest.mark.parametrize("header", ["0,1,0,1,3", "0,1,0,1,3,x", "0,nan,0,1,3,3",
                                    "1,0,0,1,3,3", "0,1,0,1,1,3"])
def test_map_csv_bad_header_detected(tmp_path, header):
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n0,0,0\n0,0,0\n0,0,0\n")
    with pytest.raises(InputMismatchError):
        cio.read_map_csv(path)


def test_map_csv_shape_mismatch_detected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1,0,1,3,3\n0,0,0\n0,0,0\n")
    with pytest.raises(InputMismatchError):
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


_HUGE = "0 0 99999999999999999999 5 5"  # an index beyond int64


# each case's id names its first fault
@pytest.mark.parametrize("faults, message", [
    ({3: "0 0 1 5 5", 6: "0 2 0 5 5"},
     "tensor row on line 11 has index (0, 0, 1), not (0, 0, 3)"),
    ({3: "0 0 9 5 5", 6: "0 0 1 5 5"},
     "tensor row on line 11 has index (0, 0, 9), not (0, 0, 3)"),
    ({3: "0 0 -1 5 5", 6: _HUGE},
     "tensor row on line 11 has index (0, 0, -1), not (0, 0, 3)"),
    ({3: "0 0 1 5 5", 6: _HUGE},
     "tensor row on line 11 has index (0, 0, 1), not (0, 0, 3)"),
    ({3: _HUGE, 6: "0 0 1 5 5"},
     "tensor row on line 11 has index (0, 0, 99999999999999999999), not (0, 0, 3)"),
], ids=["faults0-duplicate tensor entry (0, 0, 1)", "faults1-tensor index (0, 0, 9) out of range",
        "faults2-tensor index (0, 0, -1) out of range", "faults3-duplicate tensor entry (0, 0, 1)",
        "faults4-tensor index (0, 0, 99999999999999999999) out of range"])
def test_read_tensor_names_the_first_bad_entry(tmp_path, faults, message):
    # entry lines 0-7 hold n = 0-7 on file lines 8-15; each fault replaces
    # one, and the message names the fault that comes first in the file
    path = tmp_path / "t.txt"
    cfg = AcquisitionConfig((1.0,), 8, (0.0,))
    cio.write_tensor(path, FarFieldTensor(np.ones((1, 1, 8)), cfg))
    lines = path.read_text().splitlines()
    data = lines.index("data f l n re im") + 1
    for row, text in faults.items():
        lines[data + row] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputMismatchError) as err:
        cio.read_tensor(path)
    assert str(err.value) == message


def test_readers_skip_indented_comment_lines(tmp_path, k):
    # a line whose first non-blank character is "#" is a comment to every reader
    cfg = AcquisitionConfig((k,), 8, (0.0,))
    files = [(cio.read_scene, cio.write_scene, sample_scene()),
             (cio.read_tensor, cio.write_tensor, FarFieldTensor(np.ones((1, 1, 8)), cfg)),
             (cio.read_map_csv, cio.write_map_csv,
              IndicatorMap(ImagingGrid(0, 1, 0, 1, 2, 2), np.eye(2)))]
    for i, (read, write, obj) in enumerate(files):
        path, back = tmp_path / f"in{i}.txt", tmp_path / f"back{i}.txt"
        write(path, obj)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(["  # note\n", *lines[:-1], "\t# note\n", lines[-1]]))
        write(back, read(path))
        assert back.read_text() == "".join(lines)


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "m.json"
    payload = {"b": 1, "a": [1, 2], "c": {"z": None}}
    cio.write_manifest(path, payload)
    assert json.loads(path.read_text()) == payload
    # deterministic serialization
    text = path.read_text()
    cio.write_manifest(path, json.loads(text))
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
    manifest = json.loads(Path(out_map + ".csv.manifest.json").read_text())
    assert manifest["command"] == "image"
    assert manifest["params"]["grid"] == "-1,1,-1,1,101,101"


def test_cli_manifest_replay_reproduces_bytes(tmp_path, scene_file):
    tensor = str(tmp_path / "data.txt")
    argv = ["simulate", "--scene", scene_file, "--lambda", "0.5",
            "--generator", "order2", "--out", tensor]
    assert main(argv) == 0
    first = (tmp_path / "data.txt").read_bytes()
    stored = json.loads(Path(tensor + ".manifest.json").read_text())["argv"]
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


def test_cli_noise_far_below_the_signal_leaves_the_tensor_as_it_is(tmp_path, scene_file):
    # at 4000 dB the noise power underflows to 0 and no noise is added
    base = ["simulate", "--scene", scene_file, "--lambda", "0.5", "--generator", "order1"]
    clean, noisy = tmp_path / "clean.txt", tmp_path / "noisy.txt"
    assert main([*base, "--out", str(clean)]) == 0
    assert main([*base, "--noise-snr", "4000", "--out", str(noisy)]) == 0
    assert noisy.read_bytes() == clean.read_bytes()


def test_cli_manifest_records_only_what_the_generator_reads(tmp_path, scene_file):
    def params(*flags):
        out = str(tmp_path / "data.txt")
        assert main(["simulate", "--scene", scene_file, "--lambda", "0.5", *flags,
                     "--out", out]) == 0
        stored = json.loads(Path(out + ".manifest.json").read_text())["params"]
        return stored["quad_nodes"], stored["seed"]

    assert params("--generator", "order1") == (None, None)
    assert params("--generator", "order1", "--noise-snr", "20") == (None, 0)
    assert params("--generator", "full", "--quad-nodes", "16") == (16, None)
    assert params("--generator", "full", "--quad-nodes", "16",
                  "--noise-snr", "20", "--seed", "5") == (16, 5)


def test_cli_image_records_only_the_indices_the_method_reads(tmp_path, scene_file, capsys):
    tensor = str(tmp_path / "band.txt")
    assert main(["simulate", "--scene", scene_file, "--lambda-range", "0.4,0.6",
                 "--n-freq", "2", "--generator", "order1", "--out", tensor]) == 0

    def indices(method, *flags):
        out = str(tmp_path / "map")
        assert main(["image", "--tensor", tensor, "--method", method, *flags,
                     "--grid=-1,1,-1,1,5,5", "--out", out]) == 0
        stored = json.loads(Path(out + ".csv.manifest.json").read_text())["params"]
        return stored["f_index"], stored["l_index"]

    assert indices("single") == (0, 0)
    assert indices("single", "--f-index", "1", "--l-index", "0") == (1, 0)
    assert indices("if") == (0, None)
    assert indices("aif", "--f-index", "1") == (1, None)
    assert indices("mif") == (None, None)
    for flag in ("--f-index", "--l-index"):
        out = str(tmp_path / "refused")
        assert main(["image", "--tensor", tensor, "--method", "mif", flag, "0",
                     "--grid=-1,1,-1,1,5,5", "--out", out]) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} goes with")
        assert not list(tmp_path.glob("refused*"))


# command: (its mode option, {mode: the gated flags the mode reads}), written out
# here apart from the table in cli, so that each checks the other
_MODES_READ = {
    "simulate": ("generator", {"full": {"--quad-nodes"}, "order1": set(), "order2": set()}),
    "image": ("method", {"single": {"--f-index", "--l-index"}, "if": {"--f-index"},
                         "aif": {"--f-index"}, "mif": set()}),
    "predict": ("predictor", {"s1": set(), "s2": {"--incident-angle"},
                              "aif": {"--incident-angle", "--n-incident"},
                              "mif": {"--incident-angle", "--lambda-range", "--n-freq"}}),
}
_BAND = ["--lambda-range", "0.3,0.7", "--n-freq", "3"]
_BAND_KS = [2 * math.pi / lam for lam in (0.7, 0.5, 0.3)]
# gated flag: (the modes named in its refusal, the tokens that give it, its
# manifest key, the value recorded when given, and when omitted)
_GATED = {
    "--quad-nodes": ("full", ["--quad-nodes", "16"], "quad_nodes", 16, 64),
    "--f-index": ("single, if or aif", ["--f-index", "1"], "f_index", 1, 0),
    "--l-index": ("single", ["--l-index", "1"], "l_index", 1, 0),
    "--incident-angle": ("s2, aif or mif", ["--incident-angle", "1.0"], "incident_angles",
                         [1.0], [math.pi / 2]),
    "--n-incident": ("aif", ["--n-incident", "4"], "incident_angles",
                     [math.pi / 2, math.pi, 1.5 * math.pi, 2 * math.pi], [math.pi / 2]),
    # the band flags come as a pair, and a refusal names --lambda-range; with
    # neither, mif gets one wavelength, which it refuses
    "--lambda-range": ("mif", _BAND, "wavenumbers", _BAND_KS, None),
    "--n-freq": ("mif", _BAND, "wavenumbers", _BAND_KS, None),
}


def _gated_cases():
    for command, (_, modes) in _MODES_READ.items():
        for flag in sorted(set().union(*modes.values())):
            for mode in modes:
                yield command, mode, flag


@pytest.mark.parametrize("command, mode, flag", list(_gated_cases()))
def test_cli_mode_reads_exactly_its_gated_flags(tmp_path, scene_file, capsys,
                                                command, mode, flag):
    option, modes = _MODES_READ[command]
    _, tokens, key, given, default = _GATED[flag]
    if command == "simulate":
        argv = ["simulate", "--scene", scene_file, "--lambda", "0.5", "--generator", mode]
    elif command == "image":
        # F = 2 wavenumbers and L = 2 directions, or L = 1 for mif, which needs it
        L = 1 if mode == "mif" else 2
        cfg = AcquisitionConfig((2.0, 3.0), 8, (0.5, 2.0)[:L])
        values = np.random.default_rng(1).standard_normal((2, L, 8)) + 1j
        cio.write_tensor(tmp_path / "data.txt", FarFieldTensor(values, cfg))
        argv = ["image", "--tensor", str(tmp_path / "data.txt"), "--method", mode,
                "--grid=-1,1,-1,1,5,5"]
    else:
        argv = ["predict", "--scene", scene_file, "--predictor", mode, "--grid=-1,1,-1,1,5,5"]

    def run(flags):
        if command == "predict" and "--lambda-range" not in flags:
            flags += _BAND if mode == "mif" and key != "wavenumbers" else ["--lambda", "0.5"]
        rc = main([*argv, *flags, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if rc:
            assert not list(tmp_path.glob("out*"))
            return rc, err
        manifest, = tmp_path.glob("out*.manifest.json")
        params = json.loads(manifest.read_text())["params"]
        for path in tmp_path.glob("out*"):
            path.unlink()
        return rc, params[key]

    reads = flag in modes[mode]
    if reads:
        assert run(list(tokens)) == (0, pytest.approx(given))
    else:
        named = "--lambda-range" if flag == "--n-freq" else flag
        assert run(list(tokens)) == (
            1, f"error: {named} goes with --{option} {_GATED[named][0]}, not {mode}\n")
    rc, recorded = run([])
    if key == "wavenumbers":
        # mif needs the band; the other predictors record their --lambda
        assert rc == (1 if reads else 0)
    elif any(_GATED[f][2] == key for f in modes[mode]):
        assert (rc, recorded) == (0, pytest.approx(default))
    else:
        assert (rc, recorded) == (0, None)


@pytest.mark.parametrize("command", ["simulate", "image", "predict"])
def test_cli_help_names_the_modes_that_read_each_gated_flag(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main([command, "--help"])
    # one block per option: its flags, then its help on the same or the next line
    blocks = re.split(r"\n(?=  -)", capsys.readouterr().out)
    _, modes = _MODES_READ[command]
    for flag in set().union(*modes.values()):
        block, = [b for b in blocks if b.lstrip().startswith(flag + " ")]
        named = set(re.findall(r"\w+", block)) & set(modes)
        assert named == {m for m, reads in modes.items() if flag in reads}, flag


def test_cli_full_generator_multi_frequency(tmp_path, scene_file):
    tensor = str(tmp_path / "band.txt")
    assert main(["simulate", "--scene", scene_file, "--lambda-range", "0.4,0.6",
                 "--n-freq", "3", "--generator", "full", "--quad-nodes", "16",
                 "--out", tensor]) == 0
    t = cio.read_tensor(tensor)
    assert t.values.shape == (3, 1, 30)
    assert list(t.config.wavenumbers) == sorted(t.config.wavenumbers)


def test_cli_calls_in_one_process_share_no_state(tmp_path, scene_file, capsys):
    # main reuses one parser; each call must still see only its own argv
    tensor = str(tmp_path / "band.txt")
    assert main(["simulate", "--scene", scene_file, "--lambda-range", "0.4,0.6",
                 "--n-freq", "2", "--generator", "order1", "--out", tensor]) == 0
    grid = "--grid=-1,1,-1,1,7,7"
    calls = {"single": ["image", "--tensor", tensor, "--method", "single",
                        "--f-index", "1", grid],
             "if": ["image", "--tensor", tensor, "--method", "if", grid],
             "refused": ["image", "--tensor", tensor, "--method", "mif", "--f-index", "0",
                         grid],
             "unparsed": ["image", "--tensor", tensor, "--method", "nope", grid],
             "mif": ["image", "--tensor", tensor, "--method", "mif", grid]}

    def run(name, fresh):
        if fresh:
            build_parser.cache_clear()
        out = str(tmp_path / f"{name}-{fresh}")
        rc = main([*calls[name], "--out", out])
        err = capsys.readouterr().err
        if rc:
            return rc, err, sorted(p.name for p in tmp_path.glob(f"{name}-*"))
        manifest = json.loads(Path(out + ".csv.manifest.json").read_text())
        return (rc, manifest["params"], Path(out + ".csv").read_bytes(),
                Path(out + ".pgm").read_bytes())

    parser = build_parser()
    in_turn = [run(name, False) for name in calls]
    assert build_parser() is parser
    assert in_turn == [run(name, True) for name in calls]
    assert [r[1]["f_index"] for r in in_turn[:2]] == [1, 0]
    assert [r[1]["l_index"] for r in in_turn[:2]] == [0, None]
    assert [r[0] for r in in_turn[2:4]] == [1, 1] and in_turn[2][2] == in_turn[3][2] == []
    assert in_turn[4][1]["f_index"] is None


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


@pytest.mark.parametrize("argv", [
    ["simulate", "--generator", "full", "--lambda", "0.5"],
    ["predict", "--predictor", "s1", "--lambda", "0.5", "--grid=-1,1,-1,1,11,11"],
])
def test_cli_rejects_scene_that_overflows_when_scaled_by_k(tmp_path, capsys, argv):
    # k * 1e308 is inf: the solver used to end in a traceback, s1 in a NaN map
    scene = tmp_path / "far.txt"
    scene.write_text("1e308 0.2 0.05 0\n")
    assert main([argv[0], "--scene", str(scene), *argv[1:],
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflow" in err and "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("generator", ["full", "order1", "order2"])
def test_cli_simulate_refuses_far_out_crack(tmp_path, capsys, generator):
    # k * 1e200 is finite, but a phase that large keeps no digit: the solver
    # used to write a finite tensor of noise
    scene = tmp_path / "far.txt"
    scene.write_text("1e200 0.2 0.05 0\n0 0 0.05 0.5\n")
    assert main(["simulate", "--scene", str(scene), "--lambda", "0.5",
                 "--generator", generator, "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: crack 0 lies too far out")
    assert "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


def test_cli_ill_conditioned_system_exits_1(monkeypatch, tmp_path, scene_file, capsys):
    # every system is refused once the floor on rcond is 1
    monkeypatch.setattr("crackdsm.forward._RCOND_FLOOR", 1.0)
    assert main(["simulate", "--scene", scene_file, "--lambda", "0.5", "--generator",
                 "full", "--quad-nodes", "16", "--out", str(tmp_path / "out.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ill-conditioned" in err and "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


def test_cli_crossing_cracks_with_coincident_nodes_exit_1(tmp_path, capsys):
    # crack B crosses crack A exactly at A's 5th and B's 20th of 64 Chebyshev
    # nodes, where the Hankel kernel is infinite; the scene check refuses the
    # crossing whatever the node count
    sigma = np.cos((2.0 * np.arange(1, 65) - 1.0) * math.pi / 128)
    scene = tmp_path / "crossing.txt"
    cio.write_scene(scene, Scene((Crack((0.0, 0.0), 0.3, 0.0),
                                  Crack((0.3 * sigma[4], -0.3 * sigma[19]), 0.3, math.pi / 2))))
    assert main(["simulate", "--scene", str(scene), "--lambda", str(2 * math.pi / 5),
                 "--generator", "full", "--quad-nodes", "64",
                 "--out", str(tmp_path / "out.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "crossing for crack(s) 0/1" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


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


_ACQUISITION_CONFLICTS = {
    "n_freq_with_lambda": (["--lambda", "0.5", "--n-freq", "5"], "error: --n-freq"),
    "lambda_and_range": (["--lambda", "0.5", "--lambda-range", "0.3,0.7", "--n-freq", "5"],
                         "error: give --lambda or --lambda-range, not both"),
}


@pytest.mark.parametrize("command", sorted(_COMMAND_TAILS))
@pytest.mark.parametrize("conflict", sorted(_ACQUISITION_CONFLICTS))
def test_cli_rejects_conflicting_wavelength_flags(tmp_path, scene_file, capsys,
                                                  command, conflict):
    flags, message = _ACQUISITION_CONFLICTS[conflict]
    rc = main([command, "--scene", scene_file, *flags, *_COMMAND_TAILS[command],
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(message)
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("predictor, flags", [
    ("s1", ["--lambda", "0.5"]),
    ("s2", ["--lambda", "0.5"]),
    ("mif", ["--lambda-range", "0.3,0.7", "--n-freq", "5"]),
])
def test_cli_predict_rejects_n_incident(tmp_path, scene_file, capsys, predictor, flags):
    rc = main(["predict", "--scene", scene_file, "--predictor", predictor, *flags,
               "--n-incident", "8", "--grid=-1,1,-1,1,11,11", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"error: --n-incident goes with --predictor aif, not {predictor}")
    assert not list(tmp_path.glob("out*"))


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


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["image", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: crackdsm image")


# argparse's own refusals exit 1 with "error: ..." like any other bad input
@pytest.mark.parametrize("argv", [
    ["frobnicate"],
    ["image", "--tensor", "{scene}", "--method", "foo", "--grid=-1,1,-1,1,5,5",
     "--out", "{out}"],
    ["simulate", "--scene", "{scene}", "--lambda", "0.5", "--n-obs", "abc", "--out", "{out}"],
    ["predict", "--scene", "{scene}", "--predictor", "s1", "--lambda", "0.5",
     "--grid=-1,1,-1,1,5,5"],
    ["simulate", "--scene", "{scene}", "--lambda", "0.5", "--bogus", "--out", "{out}"],
], ids=["unknown_command", "invalid_choice", "not_an_integer", "missing_out", "unknown_flag"])
def test_cli_bad_command_line_exits_1(tmp_path, scene_file, capsys, argv):
    argv = [a.format(scene=scene_file, out=tmp_path / "out") for a in argv]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "usage" not in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.txt"]


def test_cli_grid_forms_record_same_spec(tmp_path, scene_file):
    specs = []
    for i, grid_args in enumerate([["--grid", "0.0,1.50,-0.25,0.75,11,9"],
                                   ["--grid=0.0,1.50,-0.25,0.75,11,9"]]):
        out = str(tmp_path / f"p{i}")
        assert main(["predict", "--scene", scene_file, "--predictor", "s1",
                     "--lambda", "0.5", *grid_args, "--out", out]) == 0
        specs.append(json.loads(Path(out + ".csv.manifest.json").read_text())["params"]["grid"])
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
        grids = [json.loads(Path(o + ".csv.manifest.json").read_text())["params"]["grid"]
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


@pytest.mark.parametrize("command", ["peaks", "compare"])
@pytest.mark.parametrize("value", ["inf", "nan", "-3", "1.5"])
def test_cli_rejects_map_value_outside_unit_interval(tmp_path, capsys, command, value):
    # an indicator map holds finite values in [0, 1]
    good = tmp_path / "good.csv"
    good.write_text("0,1,0,1,2,2\n0,0.5\n1,0\n")
    bad = tmp_path / "bad.csv"
    bad.write_text(f"0,1,0,1,2,2\n0,0.5\n{value},0\n")
    argv = {"peaks": ["peaks", "--map", str(bad)],
            "compare": ["compare", "--a", str(good), "--b", str(bad)]}[command]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv", "good.csv"]


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
    # float() reads 1_0 as 10 and Arabic-Indic digits as ASCII ones; --grid
    # takes the numbers of the data rows only
    "grid_underscore_bound": (None, ["predict", "--scene", "{scene}", "--predictor", "s1",
                                     "--lambda", "0.5", "--grid=0,1_0,0,1,5,5"]),
    "grid_arabic_indic_count": (None, ["image", "--tensor", "{tensor}", "--method", "single",
                                       "--grid=-1,1,-1,1,٥,5"]),
    "grid_fractional_count": (None, ["image", "--tensor", "{tensor}", "--method", "single",
                                     "--grid=-1,1,-1,1,5.5,5"]),
    "s2_nan_incident_angle": (None, ["predict", "--scene", "{scene}", "--predictor", "s2",
                                     "--lambda", "0.5", "--incident-angle", "nan",
                                     "--grid=-1,1,-1,1,5,5"]),
    "mif_inf_incident_angle": (None, ["predict", "--scene", "{scene}", "--predictor", "mif",
                                      "--lambda-range", "0.3,0.7", "--n-freq", "3",
                                      "--incident-angle", "inf", "--grid=-1,1,-1,1,5,5"]),
    "noise_snr_minus_inf": (None, ["simulate", "--scene", "{scene}", "--generator", "order1",
                                   "--lambda", "0.5", "--noise-snr=-inf"]),
    # noise 10**400 times the signal is infinite: "tensor entries must be finite"
    "noise_snr_minus_4000": (None, ["simulate", "--scene", "{scene}", "--generator", "order1",
                                    "--lambda", "0.5", "--noise-snr=-4000"]),
    "seed_negative": (None, ["simulate", "--scene", "{scene}", "--generator", "order1",
                             "--lambda", "0.5", "--noise-snr", "20", "--seed", "-1"]),
    "s1_band": (None, ["predict", "--scene", "{scene}", "--predictor", "s1",
                       "--lambda-range", "0.3,0.7", "--n-freq", "5", "--grid=-1,1,-1,1,5,5"]),
    # --incident-angle is refused where no single incident direction takes it
    "simulate_incident_angle_and_n_incident": (None, [
        "simulate", "--scene", "{scene}", "--generator", "order1", "--lambda", "0.5",
        "--n-incident", "4", "--incident-angle", "1.0"]),
    "aif_incident_angle_and_n_incident": (None, [
        "predict", "--scene", "{scene}", "--predictor", "aif", "--lambda", "0.5",
        "--n-incident", "4", "--incident-angle", "1.0", "--grid=-1,1,-1,1,5,5"]),
    "s1_incident_angle": (None, ["predict", "--scene", "{scene}", "--predictor", "s1",
                                 "--lambda", "0.5", "--incident-angle", "1.0",
                                 "--grid=-1,1,-1,1,5,5"]),
    # --quad-nodes is read only by the full solver, --seed only with --noise-snr
    "order1_quad_nodes": (None, ["simulate", "--scene", "{scene}", "--generator", "order1",
                                 "--lambda", "0.5", "--quad-nodes", "3"]),
    "order2_quad_nodes": (None, ["simulate", "--scene", "{scene}", "--generator", "order2",
                                 "--lambda", "0.5", "--quad-nodes", "64"]),
    "seed_without_noise": (None, ["simulate", "--scene", "{scene}", "--generator", "order1",
                                  "--lambda", "0.5", "--seed", "5"]),
    # --l-index is read only by --method single
    "if_l_index": (None, ["image", "--tensor", "{tensor}", "--method", "if",
                          "--l-index", "0", "--grid=-1,1,-1,1,5,5"]),
    "aif_l_index": (None, ["image", "--tensor", "{tensor}", "--method", "aif",
                           "--l-index", "0", "--grid=-1,1,-1,1,5,5"]),
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


# the crack at 1e200 has distances to the grid that overflow when squared; the
# one at 1e100 has finite distances, but a map would need about k * 1e100
# directions (or, for mif, k-panels).  The scene check refuses both.
@pytest.mark.parametrize("predictor, flags", [
    ("s1", ["--lambda", "0.5"]),
    ("s2", ["--lambda", "0.5"]),
    ("aif", ["--lambda", "0.5", "--n-incident", "4"]),
    ("mif", ["--lambda-range", "0.3,0.7", "--n-freq", "3"]),
])
def test_cli_predict_refuses_overflowing_scene(tmp_path, capsys, predictor, flags):
    scene = tmp_path / "far.txt"
    for far in ("1e200 0.2 0.05 0", "1e100 0 0.05 0"):
        scene.write_text(far + "\n0 0 0.05 0.5\n")
        rc = main(["predict", "--scene", str(scene), "--predictor", predictor, *flags,
                   "--grid=-1,1,-1,1,11,11", "--out", str(tmp_path / "out")])
        assert rc == 1, far
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "Traceback" not in err
        assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("line", ["F ١", "N 1_0", "wavenumbers 2_0", "L 1.5"])
def test_cli_image_refuses_a_tensor_header_number_float_alone_reads(tmp_path, capsys, line):
    tensor = tmp_path / "data.txt"
    cfg = AcquisitionConfig((20.0,), 10, (math.pi / 2,))
    cio.write_tensor(tensor, FarFieldTensor(np.ones((1, 1, 10)), cfg))
    key = line.split()[0]
    tensor.write_text("".join(f"{line}\n" if ln.startswith(key + " ") else ln
                              for ln in tensor.read_text().splitlines(keepends=True)))
    assert main(["image", "--tensor", str(tensor), "--method", "single",
                 "--grid=-1,1,-1,1,5,5", "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: tensor header line {line!r}: ")
    assert not list(tmp_path.glob("out*"))


# numeric flags take the numbers of the files only: float() and int() read 0_5
# as 5 and Arabic-Indic digits as ASCII ones
@pytest.mark.parametrize("argv, message", [
    (["predict", "--scene", "{scene}", "--predictor", "s1", "--lambda", "0_5",
      "--grid=-1,1,-1,1,5,5"], "argument --lambda: could not convert string '0_5' to float64"),
    (["simulate", "--scene", "{scene}", "--generator", "order1", "--lambda", "0.5",
      "--n-obs", "\u0663\u0660"],
     "argument --n-obs: could not convert string '\u0663\u0660' to float64"),
    (["predict", "--scene", "{scene}", "--predictor", "mif", "--lambda-range", "0_3,0.7",
      "--n-freq", "3", "--grid=-1,1,-1,1,5,5"], '--lambda-range must be two numbers "min,max"'),
    (["simulate", "--scene", "{scene}", "--generator", "order1", "--lambda", "0.5",
      "--n-obs", "30.5"], "argument --n-obs: 30.5 is not an integer"),
    (["simulate", "--scene", "{scene}", "--generator", "order1", "--lambda", "0.5,0.7"],
     "argument --lambda: '0.5,0.7' is not one number"),
], ids=["lambda-underscore", "n-obs-arabic-indic", "lambda-range-underscore",
        "n-obs-fraction", "lambda-two-numbers"])
def test_cli_numeric_flags_refuse_what_the_files_refuse(tmp_path, scene_file, capsys, argv,
                                                         message):
    argv = [a.format(scene=scene_file) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert not list(tmp_path.glob("out*"))


def test_cli_count_flags_take_an_integer_written_as_a_float(tmp_path, scene_file):
    outs = []
    for i, count in enumerate(["30", "3e1", "30.0"]):
        outs.append(tmp_path / f"data{i}.txt")
        assert main(["simulate", "--scene", scene_file, "--generator", "order1",
                     "--lambda", "0.5", "--n-obs", count, "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


# the first grid size above the bound is refused before any map is allocated
@pytest.mark.parametrize("counts", ["{0},2", "2,{0}", "1e12,2"], ids=["nx", "ny", "nx-1e12"])
@pytest.mark.parametrize("command", ["image", "predict"])
def test_cli_refuses_a_grid_above_the_size_bound(tmp_path, scene_file, capsys, counts, command):
    tensor = tmp_path / "data.txt"
    cio.write_tensor(tensor, FarFieldTensor(np.ones((1, 1, 8)),
                                            AcquisitionConfig((2.0,), 8, (0.0,))))
    argv = {"image": ["image", "--tensor", str(tensor), "--method", "single"],
            "predict": ["predict", "--scene", scene_file, "--predictor", "s1",
                        "--lambda", "0.5"]}[command]
    grid = "--grid=-1,1,-1,1," + counts.format(_MAX_AXIS + 1)
    assert main([*argv, grid, "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: grid needs 2 <= nx, ny <= {_MAX_AXIS}, got ")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("out*"))
    ImagingGrid(-1.0, 1.0, -1.0, 1.0, _MAX_AXIS, _MAX_AXIS)  # the bound itself is taken


# the size flags: the command line each is given to, and its bound
_SIZES = {
    "quad-nodes": (["simulate", "--lambda", "0.5", "--generator", "full", "--quad-nodes"],
                   _MAX_NODES, "nodes_per_crack must be <="),
    "n-obs": (["simulate", "--lambda", "0.5", "--generator", "order1", "--n-obs"],
              _MAX_COUNT["observation directions"], "at most"),
    "simulate-n-incident": (["simulate", "--lambda", "0.5", "--generator", "order1",
                             "--n-incident"], _MAX_COUNT["incident directions"], "at most"),
    "simulate-n-freq": (["simulate", "--lambda-range", "0.3,0.7", "--generator", "order1",
                         "--n-freq"], _MAX_COUNT["wavenumbers"], "at most"),
    "predict-n-incident": (["predict", "--predictor", "aif", "--lambda", "0.5",
                            "--grid=-1,1,-1,1,5,5", "--n-incident"],
                           _MAX_COUNT["incident directions"], "at most"),
    "predict-n-freq": (["predict", "--predictor", "mif", "--lambda-range", "0.3,0.7",
                        "--grid=-1,1,-1,1,5,5", "--n-freq"], _MAX_COUNT["wavenumbers"], "at most"),
}


# the first size above each bound is refused before anything of that size is made
@pytest.mark.parametrize("value", ["first", "1e12"])
@pytest.mark.parametrize("case", sorted(_SIZES))
def test_cli_refuses_a_size_above_its_bound(tmp_path, scene_file, capsys, case, value):
    argv, bound, message = _SIZES[case]
    token = str(bound + 1) if value == "first" else value
    count = int(float(token))
    argv = [argv[0], "--scene", scene_file, *argv[1:], token]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message} {bound}")
    assert err.endswith(f", got {count}\n") and err.count("\n") == 1
    assert not list(tmp_path.glob("out*"))


def test_size_bounds_themselves_are_taken():
    assert QuadratureSpec(_MAX_NODES).nodes_per_crack == _MAX_NODES
    config = AcquisitionConfig(tuple(1.0 + np.arange(_MAX_COUNT["wavenumbers"])),
                               _MAX_COUNT["observation directions"],
                               (0.0,) * _MAX_COUNT["incident directions"])
    assert (config.n_freq, config.n_incident, config.n_obs) == (
        _MAX_COUNT["wavenumbers"], _MAX_COUNT["incident directions"],
        _MAX_COUNT["observation directions"])


# ------------------------------------------------------------ flag-matrix fuzz

@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A scene, and tensors with F = 2 and L = 2 (L = 1 for mif)."""
    tmp = tmp_path_factory.mktemp("fuzz")
    cio.write_scene(tmp / "scene.txt", sample_scene())
    values = np.random.default_rng(1).standard_normal((2, 2, 8)) + 1j
    for L in (1, 2):
        cfg = AcquisitionConfig((2.0, 3.0), 8, (0.5, 2.0)[:L])
        cio.write_tensor(tmp / f"data{L}.txt", FarFieldTensor(values[:, :L], cfg))
    return tmp


# the first value above each gated size flag's bound
_ABOVE = {"--quad-nodes": _MAX_NODES + 1, "--n-incident": _MAX_COUNT["incident directions"] + 1,
          "--n-freq": _MAX_COUNT["wavenumbers"] + 1}


@st.composite
def _flag_combinations(draw):
    """(command, mode, flags, sizes): a mode of one command of _MODES_READ, any
    subset of that command's gated flags, in any order, and the sizes above
    their bounds that some of the size flags among them carry."""
    command = draw(st.sampled_from(sorted(_MODES_READ)))
    _, modes = _MODES_READ[command]
    mode = draw(st.sampled_from(sorted(modes)))
    gated = sorted(set().union(*modes.values()))
    flags = draw(st.lists(st.sampled_from(gated), unique=True).map(sorted))
    # a size flag may carry the first value above its bound, or 1e12
    sizes = {f: draw(st.sampled_from([None, str(_ABOVE[f]), "1e12"]))
             for f in flags if f in _ABOVE}
    return command, mode, draw(st.permutations(flags)), {f: v for f, v in sizes.items() if v}


@given(case=_flag_combinations())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_cli_flag_combinations_exit_as_the_matrix_says(fuzz_inputs, case):
    command, mode, flags, sizes = case
    option, modes = _MODES_READ[command]
    # the band flags share their tokens, which are given once
    tokens = [t for given in dict.fromkeys(tuple(_GATED[f][1]) for f in flags) for t in given]
    for flag, value in sizes.items():
        tokens[tokens.index(flag) + 1] = value
    if command == "simulate":
        argv = ["simulate", "--scene", str(fuzz_inputs / "scene.txt"), "--lambda", "0.5",
                "--generator", mode]
    elif command == "image":
        argv = ["image", "--tensor", str(fuzz_inputs / f"data{1 if mode == 'mif' else 2}.txt"),
                "--method", mode, "--grid=-1,1,-1,1,5,5"]
    else:
        argv = ["predict", "--scene", str(fuzz_inputs / "scene.txt"), "--predictor", mode,
                "--grid=-1,1,-1,1,5,5"]
        if "--lambda-range" not in tokens:
            tokens += _BAND if mode == "mif" else ["--lambda", "0.5"]
    # a mode refuses every gated flag it does not read; --incident-angle and
    # --n-incident exclude each other even where both are read; a size above
    # its bound is refused
    want = 0 if (set(flags) <= modes[mode] and not sizes
                 and not {"--incident-angle", "--n-incident"} <= set(flags)) else 1
    outdir = Path(tempfile.mkdtemp(dir=fuzz_inputs))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([*argv, *tokens, "--out", str(outdir / "out")])
    assert rc == want, (argv, tokens, err.getvalue())
    assert "Traceback" not in err.getvalue()
    written = sorted(p.name for p in outdir.iterdir())
    if rc:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        assert written == []
    elif command == "simulate":
        assert written == ["out", "out.manifest.json"]
        assert np.isfinite(cio.read_tensor(outdir / "out").values).all()
    else:
        assert written == ["out.csv", "out.csv.manifest.json", "out.pgm"]
        cio.read_map_csv(outdir / "out.csv")  # refuses values outside [0, 1]
    shutil.rmtree(outdir)
