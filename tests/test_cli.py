import json
import math
import os
import re
import shlex
import subprocess
import sys
from unittest import mock
from pathlib import Path

import numpy as np
import pytest

import gausstomo
from gausstomo import (
    DeviceModel,
    SimulatedDevice,
    extract_unitary,
    is_symplectic,
    matrix_from_json,
    matrix_to_json,
    random_symplectic,
)
from gausstomo import experiments
from gausstomo.cli import _build_parser, main
from gausstomo.experiments import records_to_csv, run_mode_scaling, run_phase_error_study


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_symplectic(tmp_path, capsys):
    out = tmp_path / "s.json"
    code, _, _ = run(["generate", "--kind", "symplectic", "--modes", "3",
                      "--seed", "7", "--out", str(out)], capsys)
    assert code == 0
    obj = json.loads(out.read_text())
    s = matrix_from_json(obj, expect_kind="symplectic")
    assert s.shape == (6, 6)
    assert is_symplectic(s)
    np.testing.assert_allclose(s, random_symplectic(3, seed=7))


def test_generate_unitary(tmp_path, capsys):
    out = tmp_path / "u.json"
    code, _, _ = run(["generate", "--kind", "unitary", "--modes", "1",
                      "--seed", "3", "--out", str(out)], capsys)
    assert code == 0
    obj = json.loads(out.read_text())
    re = matrix_from_json(obj["real"], expect_kind="unitary-real")
    im = matrix_from_json(obj["imag"], expect_kind="unitary-imag")
    assert abs(complex(re[0, 0], im[0, 0])) == pytest.approx(1.0, abs=1e-12)


def test_generate_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["generate", "--kind", "symplectic", "--modes", "2", "--seed", "1",
         "--out", str(a)], capsys)
    run(["generate", "--kind", "symplectic", "--modes", "2", "--seed", "1",
         "--out", str(b)], capsys)
    assert a.read_text() == b.read_text()


def write_device(tmp_path, n=2, seed=0, eta=1.0):
    from gausstomo import DeviceModel, device_to_json

    path = tmp_path / "device.json"
    model = DeviceModel(random_symplectic(n, seed=seed), eta=eta)
    path.write_text(json.dumps(device_to_json(model)))
    return path, model


def test_reconstruct_analytic_exact(tmp_path, capsys):
    dev, model = write_device(tmp_path, n=2, seed=4)
    out = tmp_path / "recon.json"
    code, _, err = run(["reconstruct", "--device", str(dev), "--shots", "inf",
                        "--out", str(out)], capsys)
    assert code == 0
    assert "eta_hat=" in err and "F=" in err
    obj = json.loads(out.read_text())
    s_recon = matrix_from_json(obj["s_recon"], expect_kind="symplectic")
    np.testing.assert_allclose(s_recon, model.s, atol=1e-12)
    assert obj["eta_hat"] == pytest.approx(1.0, abs=1e-12)
    assert obj["shots"] is None
    assert obj["frobenius_vs_truth"] <= 1e-12


def test_reconstruct_loss_override(tmp_path, capsys):
    dev, _ = write_device(tmp_path, n=2, seed=5)
    out = tmp_path / "recon.json"
    code, _, _ = run(["reconstruct", "--device", str(dev), "--shots", "inf",
                      "--loss", "0.5", "--out", str(out)], capsys)
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["eta_hat"] == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("scheme", ["homodyne", "heterodyne"])
def test_reconstruct_loss_flag_equals_device_eta_byte_for_byte(tmp_path, monkeypatch, scheme):
    # --loss L replaces a file's eta, if any, before its one decode, so the file's own eta is
    # never read: each file with --loss L is one device, built once, with a file of "eta": 1 - L
    s = matrix_to_json(random_symplectic(2, seed=1), "symplectic")
    built, post_init = [], DeviceModel.__post_init__  # one entry per DeviceModel built
    monkeypatch.setattr(DeviceModel, "__post_init__", lambda self: (built.append(self),
                                                                    post_init(self)))
    loss = ["--loss", "0.5"]
    files = {"lossy": ({"S": s, "eta": 0.5}, []), "bare": (s, loss),
             "eta-missing": ({"S": s}, loss), "eta-out-of-range": ({"S": s, "eta": 2.0}, loss)}
    for name, (obj, flags) in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
        built.clear()
        assert main(["reconstruct", "--device", str(tmp_path / name), *flags, "--scheme", scheme,
                     "--shots", "100", "--out", str(tmp_path / f"{name}.out")]) == 0
        assert len(built) == 1
        assert (tmp_path / f"{name}.out").read_bytes() == (tmp_path / "lossy.out").read_bytes()


def test_reconstruct_accepts_bare_matrix(tmp_path, capsys):
    from gausstomo import matrix_to_json

    path = tmp_path / "s.json"
    s = random_symplectic(1, seed=9)
    path.write_text(json.dumps(matrix_to_json(s, "symplectic")))
    out = tmp_path / "recon.json"
    code, _, _ = run(["reconstruct", "--device", str(path), "--shots", "inf",
                      "--out", str(out)], capsys)
    assert code == 0
    obj = json.loads(out.read_text())
    np.testing.assert_allclose(
        matrix_from_json(obj["s_recon"], expect_kind="symplectic"), s, atol=1e-12
    )
    # no ground-truth loss channel in a bare matrix, so F is still reported
    assert obj["frobenius_vs_truth"] is not None


def test_reconstruct_finite_shots_reports(tmp_path, capsys):
    dev, _ = write_device(tmp_path, n=2, seed=6, eta=0.8)
    out = tmp_path / "recon.json"
    code, _, _ = run(["reconstruct", "--device", str(dev), "--scheme", "homodyne",
                      "--shots", "400", "--amplitude", "1000", "--seed", "2",
                      "--out", str(out)], capsys)
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["scheme"] == "homodyne"
    assert obj["shots"] == 400
    assert abs(obj["eta_hat"] - 0.8) < 0.05


def test_reconstruct_stdout_when_no_out(tmp_path, capsys):
    dev, _ = write_device(tmp_path, n=1, seed=8)
    code, out, err = run(["reconstruct", "--device", str(dev), "--shots", "inf"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["eta_hat"] == pytest.approx(1.0, abs=1e-12)
    assert "eta_hat=" in err


def test_reconstruct_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, _ = run(["reconstruct", "--device", str(path)], capsys)
    assert code == 1


def _with_data(obj: dict, data: list) -> dict:
    """A device dict whose S holds ``data``."""
    return {**obj, "S": {**obj["S"], "data": data}}


_NOT_REAL = "symplectic data must hold real numbers, got an entry of type"


@pytest.mark.parametrize("edit, message", [
    (lambda obj: {**obj, "eta": None}, r"transmissivity must be in \(0, 1\], got None"),
    (lambda obj: {**obj, "eta": True}, r"transmissivity must be in \(0, 1\], got True"),
    (lambda obj: {**obj, "eta": "0.5"}, r"transmissivity must be in \(0, 1\], got '0\.5'"),
    (lambda obj: {"S": obj["S"]}, "device JSON is missing field 'eta'"),
    (lambda obj: {**obj, "cubic_gamma": "0.1"}, r"cubic_gamma must be finite, got '0\.1'"),
    (lambda obj: {**obj, "S": 5}, "matrix JSON must be a JSON object, got int"),
    (lambda obj: {**obj, "S": {**obj["S"], "n_modes": None}},
     "n_modes must be an integer >= 1, got None"),
    (lambda obj: {**obj, "S": {**obj["S"], "n_modes": 1.0}},
     r"n_modes must be an integer >= 1, got 1\.0"),
    (lambda obj: {**obj, "S": {"kind": "symplectic"}}, "matrix JSON is missing field 'n_modes'"),
    (lambda obj: [obj], "device file must be a JSON object, got list"),
    # NumPy reads true and "1" as 1.0, so these identities once reconstructed with exit 0
    (lambda obj: _with_data(obj, [[True, False], [False, True]]), f"{_NOT_REAL} bool"),
    (lambda obj: _with_data(obj, [["1", "0"], ["0", "1"]]), f"{_NOT_REAL} str"),
    (lambda obj: _with_data(obj, [[1.0, 0.0], [0.0, None]]), f"{_NOT_REAL} NoneType"),
    (lambda obj: _with_data(obj, [[1.0, False], [0.0, 1.0]])["S"], f"{_NOT_REAL} bool"),
    # a bare symplectic matrix whose S S^T overflows float64: no RuntimeWarning either
    (lambda obj: matrix_to_json(np.diag([1e160, 1e-160]), "symplectic"),
     r"device covariance S S\^T overflows float64"),
    # a 400-digit int, which NumPy cannot read as a float64
    (lambda obj: _with_data(obj, [[10**399, 0.0], [0.0, 1.0]]),
     "symplectic data must hold real numbers, got an entry beyond float64's range"),
], ids=["eta-null", "eta-bool", "eta-str", "eta-missing", "gamma-str", "S-number",
        "n-modes-null", "n-modes-float", "S-fields-missing", "array", "S-entry-bool",
        "S-entry-str", "S-entry-null", "bare-S-entry-bool", "covariance-overflows",
        "S-entry-huge-int"])
def test_reconstruct_malformed_device_is_usage_error(tmp_path, capsys, edit, message):
    dev, _ = write_device(tmp_path, n=1, seed=0)
    dev.write_text(json.dumps(edit(json.loads(dev.read_text()))))
    out = tmp_path / "recon.json"
    code, stdout, err = run(["reconstruct", "--device", str(dev), "--out", str(out)], capsys)
    assert code == 1 and stdout == "" and "Traceback" not in err
    assert re.fullmatch(f"gausstomo: error: {message}\n", err)
    assert list(tmp_path.iterdir()) == [dev]


def test_reconstruct_from_a_unitary_file_names_both_device_formats(tmp_path, capsys):
    # generate --kind unitary writes a real and an imag part: neither a device nor a matrix JSON
    dev = tmp_path / "u.json"
    assert run(["generate", "--kind", "unitary", "--modes", "2", "--out", str(dev)], capsys)[0] == 0
    out = tmp_path / "recon.json"
    code, stdout, err = run(["reconstruct", "--device", str(dev), "--out", str(out)], capsys)
    assert code == 1 and stdout == ""
    assert err == "gausstomo: error: device file must be a device JSON or a symplectic matrix JSON\n"
    assert list(tmp_path.iterdir()) == [dev]


def test_reconstruct_missing_file(tmp_path, capsys):
    code, _, _ = run(["reconstruct", "--device", str(tmp_path / "nope.json")], capsys)
    assert code == 1


def test_reconstruct_numerical_failure_exit_2(tmp_path, capsys):
    dev, _ = write_device(tmp_path, n=2, seed=10)
    code, _, _ = run(["reconstruct", "--device", str(dev), "--scheme", "homodyne",
                      "--shots", "2", "--amplitude", "0.05", "--seed", "1"], capsys)
    assert code == 2


@pytest.mark.parametrize("seed, message", [("1.5", "argument --seed: invalid int value"),
                                           ("-2", "seed must be an integer >= 0, got -2")],
                         ids=["float", "negative"])
@pytest.mark.parametrize("command", [
    "generate --kind unitary --modes 2 --out OUT",
    "detect --gamma 0 --amplitudes 1,2 --shots 10",
    "experiment mode-scaling --modes 1 --reps 1 --shots 10 --out OUT",
    "experiment phase-error --trials 1 --reps 1 --out OUT",
], ids=["generate", "detect", "mode-scaling", "phase-error"])
def test_bad_seed_is_usage_error_naming_seed(tmp_path, capsys, command, seed, message):
    argv = command.replace("OUT", str(tmp_path / "out")).split() + ["--seed", seed]
    code, stdout, err = run(argv, capsys)
    assert code == 1 and stdout == "" and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, message", [
    ("generate --kind symplectic --modes 0 --out OUT",
     "argument --modes: expected a positive integer, got 0"),
    ("experiment mode-scaling --modes , --out OUT", "argument --modes: empty list"),
    ("reconstruct --device DEVICE --loss abc --out OUT",
     "argument --loss: invalid loss fraction 'abc'"),
    # parsed, then rejected by the sweep under its CSV column's name
    ("experiment mode-scaling --modes 2,0 --reps 1 --out OUT",
     "n_modes must be an integer >= 1, got 0"),
    # parsed, then rejected by the mode-count rule before any array is allocated
    (f"generate --kind symplectic --modes 1{'0' * 400} --out OUT",
     f"number of modes must be an integer >= 1 and < 536870912, got 1{'0' * 400}"),
    # past 6, roundoff can break a draw's symplectic form; past about 709, exp overflows and
    # warns: a warning here is an error, so the message would differ
    ("generate --kind symplectic --modes 2 --r-max 6.000001 --out OUT",
     "r_max must be <= 6.0, got 6.000001"),
    ("generate --kind symplectic --modes 2 --r-max 800 --out OUT",
     "r_max must be <= 6.0, got 800.0"),
    ("experiment mode-scaling --modes 4 --reps 5 --shots inf --r-max 10 --out OUT",
     "r_max must be <= 6.0, got 10.0"),
], ids=["generate-modes-0", "mode-scaling-empty-modes", "reconstruct-loss-not-a-number",
        "mode-scaling-modes-0", "generate-modes-401-digits", "generate-r-max-past-6",
        "generate-r-max-800", "mode-scaling-r-max-10"])
def test_bad_flag_value_is_usage_error_naming_the_flag(tmp_path, capsys, monkeypatch, command,
                                                       message):
    monkeypatch.setattr(SimulatedDevice, "probe_and_measure", mock.Mock(side_effect=AssertionError))
    dev, _ = write_device(tmp_path, n=1)
    argv = command.replace("OUT", str(tmp_path / "out")).replace("DEVICE", str(dev)).split()
    code, stdout, err = run(argv, capsys)
    assert code == 1 and stdout == ""
    assert err.endswith(f": error: {message}\n")
    *usage, last = err.splitlines()
    # argparse prints its usage above its own errors; an error of the command is one line
    assert usage == [] if last.startswith("gausstomo: ") else usage[0].startswith("usage: ")
    assert list(tmp_path.iterdir()) == [dev]


def test_unknown_subcommand(capsys):
    code, _, _ = run(["frobnicate"], capsys)
    assert code == 1


def test_bad_shots_value(tmp_path, capsys):
    dev, _ = write_device(tmp_path, n=1, seed=0)
    code, _, _ = run(["reconstruct", "--device", str(dev), "--shots", "zero"], capsys)
    assert code == 1


@pytest.mark.parametrize("command", [
    "reconstruct --device DEV --scheme homodyne --shots SHOTS --out OUT",
    "experiment mode-scaling --modes 2 --reps 1 --shots SHOTS --out OUT",
], ids=["reconstruct", "mode-scaling"])
def test_shot_budget_above_2_to_the_53_is_usage_error(tmp_path, capsys, monkeypatch, command):
    # a probe would draw for ever: issuing one fails the test
    monkeypatch.setattr(SimulatedDevice, "probe_and_measure", mock.Mock(side_effect=AssertionError))
    dev, _ = write_device(tmp_path, n=1, seed=0)
    shots = "100000000000000000000000"
    argv = [str({"DEV": dev, "OUT": tmp_path / "out.csv", "SHOTS": shots}.get(word, word))
            for word in command.split()]
    code, stdout, err = run(argv, capsys)
    assert code == 1 and stdout == ""
    assert err == f"gausstomo: error: shots must be a positive integer <= 2**53 or math.inf, " \
                  f"got {shots}\n"
    assert list(tmp_path.iterdir()) == [dev]


def test_bad_loss_value(tmp_path, capsys):
    dev, _ = write_device(tmp_path, n=1, seed=0)
    code, _, _ = run(["reconstruct", "--device", str(dev), "--loss", "1.0"], capsys)
    assert code == 1


def test_detect_gaussian_verdict(capsys):
    code, out, _ = run(["detect", "--gamma", "0", "--amplitudes", "1,2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("amplitude=1") for line in lines)
    assert lines[-1] == "gaussian"


def test_detect_non_gaussian_verdict(capsys):
    code, out, _ = run(["detect", "--gamma", "0.1", "--amplitudes", "1,2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "non-gaussian"
    ratios = [float(line.split("ratio=")[1]) for line in lines[:-1]]
    assert ratios[0] == pytest.approx(3 * 0.1 * math.sqrt(2) * 1, abs=1e-5)
    assert ratios[1] == pytest.approx(3 * 0.1 * math.sqrt(2) * 2, abs=1e-5)


def test_detect_single_amplitude_is_usage_error(capsys):
    code, _, _ = run(["detect", "--gamma", "0.1", "--amplitudes", "1"], capsys)
    assert code == 1


def test_experiment_writes_csv_and_meta(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    argv = ["experiment", "mode-scaling", "--modes", "1,2", "--schemes", "heterodyne",
            "--losses", "0", "--shots", "inf", "--reps", "2", "--seed", "3",
            "--out", str(out)]
    code, _, err = run(argv, capsys)
    assert code == 0
    assert "wrote 2 rows" in err
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("experiment_id,")
    meta = json.loads((tmp_path / "scan.meta.json").read_text())
    assert meta["invocation"] == argv
    assert meta["seed"] == 3
    assert "version" in meta


def test_experiment_csv_reproducible(tmp_path, capsys):
    argv = ["experiment", "mode-scaling", "--modes", "2", "--schemes", "homodyne",
            "--losses", "0.5", "--shots", "20", "--amplitude", "100",
            "--reps", "2", "--seed", "4"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(argv + ["--out", str(a)], capsys)
    run(argv + ["--out", str(b)], capsys)
    assert a.read_text() == b.read_text()


def test_experiment_phase_error(tmp_path, capsys):
    out = tmp_path / "phase.csv"
    code, _, _ = run(["experiment", "phase-error", "--phi-max", "0",
                      "--trials", "1,10", "--reps", "2", "--seed", "0",
                      "--out", str(out)], capsys)
    assert code == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 3
    assert all(",0.0," in row for row in rows[1:])


def test_experiment_intensity(tmp_path, capsys):
    out = tmp_path / "intensity.csv"
    code, _, _ = run(["experiment", "intensity", "--amplitudes", "10,100",
                      "--trials", "1", "--shots", "inf", "--reps", "2",
                      "--seed", "1", "--out", str(out)], capsys)
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_experiment_unitary(tmp_path, capsys):
    out = tmp_path / "unitary.csv"
    code, _, _ = run(["experiment", "unitary-scaling", "--modes", "2",
                      "--schemes", "homodyne", "--shots", "inf", "--reps", "2",
                      "--seed", "2", "--out", str(out)], capsys)
    assert code == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 2
    assert "unitary-scaling" in rows[1]


def test_experiment_bad_reps_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code, _, _ = run(["experiment", "mode-scaling", "--modes", "2",
                      "--reps", "0", "--shots", "inf", "--out", str(out)], capsys)
    assert code == 1
    assert not out.exists()
    assert not (tmp_path / "never.meta.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "--gamma", "nan", "--amplitudes", "1,2"],
        ["detect", "--gamma", "0.1", "--amplitudes", "1,2", "--tol", "nan"],
        ["detect", "--gamma", "0.1", "--amplitudes", "0,1", "--shots", "100"],
    ],
)
def test_detect_rejects_bad_input(argv, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 1
    assert "gaussian" not in out


def test_reconstruct_rejects_nan_amplitude(tmp_path, capsys):
    dev, _ = write_device(tmp_path, n=1, seed=0)
    out = tmp_path / "recon.json"
    code, _, _ = run(["reconstruct", "--device", str(dev), "--amplitude", "nan",
                      "--out", str(out)], capsys)
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "extra",
    [
        ["mode-scaling", "--amplitude", "nan", "--modes", "1", "--reps", "1", "--shots", "inf"],
        ["mode-scaling", "--r-max", "nan", "--modes", "1", "--reps", "1", "--shots", "inf"],
        ["phase-error", "--phi-max", "nan", "--trials", "1", "--reps", "1"],
    ],
)
def test_experiment_rejects_non_finite_input(extra, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, err = run(["experiment", *extra, "--out", str(out)], capsys)
    assert code == 1
    # the error names the parameter that was bad, not an inapplicable flag
    assert extra[1][2:].replace("-", "_") in err
    assert not out.exists()


# every flag some experiment takes, with a value valid for the experiments that take it
_FLAG_VALUES = {
    "--modes": "2", "--schemes": "homodyne", "--losses": "0.5", "--scheme": "homodyne",
    "--loss": "0.5", "--amplitude": "10", "--amplitudes": "10", "--trials": "1",
    "--phi-max": "0.1", "--shots": "100", "--r-max": "0.3", "--reps": "1", "--seed": "1",
}
_INAPPLICABLE = {
    "mode-scaling": ["--scheme", "--loss", "--amplitudes", "--trials", "--phi-max"],
    "unitary-scaling": ["--scheme", "--loss", "--amplitudes", "--trials", "--phi-max", "--r-max"],
    "intensity": ["--schemes", "--losses", "--amplitude", "--phi-max"],
    "phase-error": ["--modes", "--schemes", "--losses", "--scheme", "--loss", "--amplitudes",
                    "--shots"],
}


@pytest.mark.parametrize(
    "name, flag", [(name, flag) for name, flags in _INAPPLICABLE.items() for flag in flags]
)
def test_experiment_rejects_inapplicable_flag(name, flag, tmp_path, capsys):
    code, _, err = run(["experiment", name, flag, _FLAG_VALUES[flag], "--reps", "1",
                        "--out", str(tmp_path / "scan.csv")], capsys)
    assert code == 1
    assert f"unrecognized arguments: {flag}" in err
    assert list(tmp_path.iterdir()) == []


def test_experiment_intensity_takes_one_mode_count(tmp_path, capsys):
    code, _, _ = run(["experiment", "intensity", "--modes", "2,3", "--reps", "1",
                      "--out", str(tmp_path / "scan.csv")], capsys)
    assert code == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, records",
    [
        (["mode-scaling", "--modes", "2", "--reps", "1"],
         lambda: run_mode_scaling([2], repetitions=1)),
        (["phase-error", "--trials", "1,2", "--reps", "2"],
         lambda: run_phase_error_study(trials_list=[1, 2], repetitions=2)),
    ],
    ids=["mode-scaling", "phase-error"],
)
def test_experiment_omitted_flags_take_runner_defaults(argv, records, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, _ = run(["experiment", *argv, "--out", str(out)], capsys)
    assert code == 0
    assert out.read_bytes() == records_to_csv(records()).encode()


def test_dump_json_rejects_non_finite(tmp_path):
    from gausstomo.cli import _dump_json

    out = tmp_path / "bad.json"
    with pytest.raises(ValueError):
        _dump_json({"eta_hat": math.nan}, str(out))
    assert not out.exists()


def test_experiment_meta_path_blocked_leaves_no_csv(tmp_path, capsys):
    (tmp_path / "x.meta.json").mkdir()
    out = tmp_path / "x.csv"
    code, _, _ = run(["experiment", "phase-error", "--reps", "2", "--trials", "1,2",
                      "--out", str(out)], capsys)
    assert code == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.meta.json"]


def test_experiment_csv_path_blocked_leaves_no_meta(tmp_path, capsys):
    (tmp_path / "x.csv").mkdir()
    code, _, _ = run(["experiment", "phase-error", "--reps", "2", "--trials", "1,2",
                      "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]
    assert list((tmp_path / "x.csv").iterdir()) == []


def test_experiment_rejects_unknown_scheme_before_sweep(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, err = run(["experiment", "mode-scaling", "--schemes", "homodyne,bogus",
                        "--modes", "1", "--reps", "1", "--out", str(out)], capsys)
    assert code == 1
    assert "unknown scheme 'bogus'" in err
    assert not out.exists()


def test_detect_rejects_non_finite_ratio(capsys):
    code, out, err = run(["detect", "--gamma", "0.1", "--amplitudes", "1e308,1",
                          "--shots", "100"], capsys)
    assert code == 1
    assert out == ""
    assert "1e+308" in err


_OVERFLOW = ["--gamma", "0.1", "--amplitudes", "1e308,1", "--shots", "100"]


@pytest.mark.parametrize("argv, code", [
    (["detect", *_OVERFLOW], 1),
    (["detect", *_OVERFLOW, "--scheme", "homodyne"], 1),
    (["detect", "--gamma", "0.1", "--amplitudes", "1e200,1", "--shots", "inf"], 1),
    (["reconstruct", "--device", "s1.json", "--amplitude", "1e308", "--shots", "100",
      "--out", "r.json"], 2),
    (["reconstruct", "--device", "s1.json", "--amplitude", "1e308", "--shots", "100",
      "--scheme", "homodyne", "--out", "r.json"], 2),
    # a subnormal amplitude, rejected before any probe
    (["detect", "--gamma", "0.1", "--amplitudes", "1e-310,1", "--shots", "100"], 1),
    (["reconstruct", "--device", "s1.json", "--amplitude", "1e-310", "--shots", "100",
      "--out", "r.json"], 1),
    # a malformed device file, and a symplectic S whose S S^T overflows float64
    (["reconstruct", "--device", "bad.json", "--out", "r.json"], 1),
    (["reconstruct", "--device", "big.json", "--shots", "100", "--out", "r.json"], 1),
], ids=["detect-heterodyne", "detect-homodyne", "detect-analytic", "reconstruct-heterodyne",
        "reconstruct-homodyne", "detect-tiny", "reconstruct-tiny", "device-malformed",
        "device-covariance-overflows"])
def test_overflowed_means_fail_in_one_line_without_a_warning(tmp_path, argv, code):
    # -W error: a RuntimeWarning would be a traceback; a cubic gate or an N = 1 sum overflows
    devices = {"s1.json": matrix_to_json(random_symplectic(1, seed=1), "symplectic"),
               "bad.json": {"S": 5, "eta": 1.0},
               "big.json": matrix_to_json(np.diag([1e160, 1e-160]), "symplectic")}
    for name, obj in devices.items():
        (tmp_path / name).write_text(json.dumps(obj))
    src = os.path.dirname(os.path.dirname(gausstomo.__file__))
    done = subprocess.run([sys.executable, "-W", "error", "-m", "gausstomo.cli", *argv],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == code
    assert done.stdout == "" and len(done.stderr.splitlines()) == 1, done.stderr
    assert done.stderr.startswith("gausstomo: error: " if code == 1 else "gausstomo: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(devices)  # nothing written


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    script = "\n".join(re.findall(r"```sh\n(.*?)```", text, flags=re.S))
    lines = script.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("gausstomo ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[1] for argv in commands if argv[0] == "experiment"} == {
        "mode-scaling", "unitary-scaling", "intensity", "phase-error"
    }
    for argv in commands:
        try:
            _build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: gausstomo {shlex.join(argv)}")


def test_readme_flag_table_matches_parser():
    text = README.read_text(encoding="utf-8")
    header = re.search(r"^\| flag \|(.*)\|$", text, flags=re.M).group(1)
    names = [cell.strip(" `") for cell in header.split("|")]
    rows = re.findall(r"^\| `(--[a-z-]+)` \|(.*)\|$", text, flags=re.M)
    assert {flag for flag, _ in rows} == set(_FLAG_VALUES)
    for flag, cells in rows:
        for name, cell in zip(names, cells.split("|"), strict=True):
            argv = ["experiment", name, flag, _FLAG_VALUES[flag], "--out", "x.csv"]
            param = re.match(r"\s*`(\w+)`", cell)
            if param is None:
                with pytest.raises(SystemExit):
                    _build_parser().parse_args(argv)
            else:
                assert param.group(1) in vars(_build_parser().parse_args(argv)), (name, flag)


def test_readme_python_example_recovers_its_device(capsys):
    # the one Python block, run as written: it prints eta_hat (about 0.49999) and F (about 2e-4)
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    eta_hat, f_value = map(float, capsys.readouterr().out.split())
    assert abs(eta_hat - 0.5) < 1e-3 and f_value < 1e-3


def test_cached_parser_does_not_carry_flags_between_calls(tmp_path, monkeypatch, capsys):
    records = run_phase_error_study(trials_list=[1], repetitions=1)
    seen = []
    # the runner is looked up when it is called, so this wrapper is seen
    # although the parser may have been built before it was put in place
    monkeypatch.setattr(experiments, "run_phase_error_study",
                        lambda **kw: seen.append(kw) or records)
    assert _build_parser() is _build_parser()
    for reps in (["--reps", "1"], []):
        code, _, _ = run(["experiment", "phase-error", *reps, "--out", str(tmp_path / "p.csv")],
                         capsys)
        assert code == 0
    assert seen == [{"seed": 0, "repetitions": 1}, {"seed": 0}]
