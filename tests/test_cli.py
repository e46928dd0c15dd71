import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from gausstomo import (
    extract_unitary,
    is_symplectic,
    matrix_from_json,
    random_symplectic,
)
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


def test_reconstruct_missing_file(tmp_path, capsys):
    code, _, _ = run(["reconstruct", "--device", str(tmp_path / "nope.json")], capsys)
    assert code == 1


def test_reconstruct_numerical_failure_exit_2(tmp_path, capsys):
    dev, _ = write_device(tmp_path, n=2, seed=10)
    code, _, _ = run(["reconstruct", "--device", str(dev), "--scheme", "homodyne",
                      "--shots", "2", "--amplitude", "0.05", "--seed", "1"], capsys)
    assert code == 2


def test_unknown_subcommand(capsys):
    code, _, _ = run(["frobnicate"], capsys)
    assert code == 1


def test_bad_shots_value(tmp_path, capsys):
    dev, _ = write_device(tmp_path, n=1, seed=0)
    code, _, _ = run(["reconstruct", "--device", str(dev), "--shots", "zero"], capsys)
    assert code == 1


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_detect_rejects_non_finite_ratio(capsys):
    code, out, err = run(["detect", "--gamma", "0.1", "--amplitudes", "1e308,1",
                          "--shots", "100"], capsys)
    assert code == 1
    assert out == ""
    assert "1e+308" in err


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
