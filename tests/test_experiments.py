import math

import numpy as np
import pytest

from gausstomo import (
    DeviceModel,
    HETERODYNE,
    HOMODYNE,
    MeasurementConfig,
    SimulatedDevice,
    derive_seed,
    random_symplectic,
    reconstruct_symplectic,
)
from gausstomo.experiments import (
    ExperimentRecord,
    records_to_csv,
    run_intensity_scaling,
    run_mode_scaling,
    run_phase_error_study,
    run_unitary_scaling,
    write_csv,
)

CSV_HEADER = (
    "experiment_id,n_modes,scheme,eta,amplitude,shots,trials,"
    "repetitions,f_mean,f_stderr,seed,dropped"
)


def test_mode_scaling_analytic_is_exact():
    records = run_mode_scaling(
        [2], schemes=(HETERODYNE,), eta_list=(1.0, 0.5), shots=math.inf, repetitions=3, seed=1
    )
    assert len(records) == 2
    for rec in records:
        assert rec.experiment_id == "mode-scaling"
        assert rec.f_mean <= 1e-12
        assert rec.f_stderr <= 1e-12
        assert rec.dropped == 0
        assert rec.trials == 1


def test_mode_scaling_grid_cardinality():
    records = run_mode_scaling(
        [1, 2], schemes=(HOMODYNE, HETERODYNE), eta_list=(1.0, 0.5),
        amplitude=200.0, shots=20, repetitions=2, seed=2,
    )
    assert len(records) == 2 * 2 * 2
    combos = {(r.n_modes, r.scheme, r.eta) for r in records}
    assert len(combos) == 8


def test_mode_scaling_reproducible():
    kwargs = dict(schemes=(HETERODYNE,), eta_list=(1.0,), amplitude=100.0,
                  shots=30, repetitions=3, seed=5)
    assert run_mode_scaling([2], **kwargs) == run_mode_scaling([2], **kwargs)


def test_mode_scaling_flat_across_modes():
    records = run_mode_scaling(
        [2, 4], schemes=(HETERODYNE,), eta_list=(1.0,), amplitude=1000.0,
        shots=100, repetitions=15, seed=3,
    )
    f = {r.n_modes: r.f_mean for r in records}
    assert f[2] / f[4] < 1.5
    assert f[4] / f[2] < 1.5


def test_lossy_within_factor_two_of_lossless():
    records = run_mode_scaling(
        [2], schemes=(HETERODYNE,), eta_list=(1.0, 0.5), amplitude=1000.0,
        shots=100, repetitions=15, seed=4,
    )
    f = {r.eta: r.f_mean for r in records}
    assert f[0.5] < 2.0 * f[1.0]


def test_equal_probe_budget_across_schemes():
    s = random_symplectic(2, seed=6)
    budgets = {}
    for scheme in (HOMODYNE, HETERODYNE):
        dev = SimulatedDevice(DeviceModel(s))
        reconstruct_symplectic(dev, 500.0, MeasurementConfig(scheme=scheme, shots=100, seed=0))
        budgets[scheme] = dev.probes_used
        assert dev.settings_used == 4
    assert budgets[HOMODYNE] == budgets[HETERODYNE]


def test_f_mean_monotone_in_shots():
    prev = None
    for shots in (25, 100, 400):
        rec = run_mode_scaling(
            [2], schemes=(HETERODYNE,), eta_list=(1.0,), amplitude=1000.0,
            shots=shots, repetitions=15, seed=7,
        )[0]
        if prev is not None:
            assert rec.f_mean < prev.f_mean + prev.f_stderr
        prev = rec


def test_unitary_scaling_analytic_exact():
    records = run_unitary_scaling(
        [2, 3], schemes=(HOMODYNE,), eta_list=(1.0, 0.5), shots=math.inf, repetitions=2, seed=8
    )
    assert len(records) == 2 * 1 * 2
    for rec in records:
        assert rec.experiment_id == "unitary-scaling"
        assert rec.f_mean <= 1e-12
        assert rec.dropped == 0


def test_unitary_scaling_finite_shots():
    records = run_unitary_scaling(
        [2], schemes=(HOMODYNE, HETERODYNE), eta_list=(1.0,), amplitude=1000.0,
        shots=100, repetitions=10, seed=9,
    )
    for rec in records:
        assert 0 < rec.f_mean < 1e-3
        assert rec.dropped == 0


def test_intensity_analytic_exact():
    records = run_intensity_scaling(
        [10.0, 100.0], [1, 3], shots=math.inf, seed=10, repetitions=2
    )
    assert len(records) == 4
    for rec in records:
        assert rec.f_mean <= 1e-12
        assert rec.n_modes == 5
        assert rec.scheme == HETERODYNE


def test_intensity_amplitude_scaling():
    records = run_intensity_scaling(
        [10.0, 20.0], [1], shots=100, seed=11, repetitions=10
    )
    f = {r.amplitude: r.f_mean for r in records}
    # doubling the amplitude should halve the error
    assert f[10.0] / f[20.0] == pytest.approx(2.0, rel=0.25)


def test_intensity_trial_averaging_matches_amplitude_gain():
    records = run_intensity_scaling(
        [10.0, 100.0], [1, 100], shots=100, seed=12, repetitions=8
    )
    f = {(r.amplitude, r.trials): r.f_mean for r in records}
    ratio = f[(10.0, 100)] / f[(100.0, 1)]
    assert 0.8 < ratio < 1.25


def test_phase_error_zero_width_is_exact():
    records = run_phase_error_study(0.0, [1, 10], seed=13, repetitions=3)
    for rec in records:
        assert rec.f_mean == 0.0
        assert rec.experiment_id == "phase-error"
        assert rec.shots == math.inf


def test_phase_error_averaging_suppresses():
    records = run_phase_error_study(0.05, [1, 100], seed=14, repetitions=30)
    f = {r.trials: r.f_mean for r in records}
    assert f[100] < f[1]


def test_phase_error_single_trial_prediction():
    seed = 14
    records = run_phase_error_study(0.05, [1], seed=seed, repetitions=300)
    s = random_symplectic(1, r_max=0.5, seed=derive_seed(seed, 0))
    a = 0.05
    prediction = abs(s[0, 1]) / math.hypot(s[0, 0], s[0, 1]) * (1 - math.cos(a)) / a
    assert records[0].f_mean == pytest.approx(prediction, rel=0.15)


def test_phase_error_rejects_bad_width():
    with pytest.raises(ValueError):
        run_phase_error_study(-0.1, [1], seed=0)
    with pytest.raises(ValueError):
        run_phase_error_study(1.0, [1], seed=0)


def test_records_csv_format():
    rec = ExperimentRecord(
        experiment_id="mode-scaling", n_modes=2, scheme=HETERODYNE, eta=0.5,
        amplitude=1000.0, shots=100, trials=1, repetitions=50,
        f_mean=0.001, f_stderr=0.0001, seed=3, dropped=0,
    )
    text = records_to_csv([rec])
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("mode-scaling,2,heterodyne,0.5,1000.0,100,1,50,")


def test_records_csv_analytic_shots():
    rec = ExperimentRecord(
        experiment_id="phase-error", n_modes=1, scheme=HOMODYNE, eta=1.0,
        amplitude=1.0, shots=math.inf, trials=10, repetitions=5,
        f_mean=0.0, f_stderr=0.0, seed=0, dropped=0,
    )
    line = records_to_csv([rec]).splitlines()[1]
    assert ",inf," in line


def test_write_csv_round_trip(tmp_path):
    records = run_mode_scaling(
        [1], schemes=(HETERODYNE,), eta_list=(1.0,), shots=math.inf, repetitions=2, seed=15
    )
    path = tmp_path / "out.csv"
    write_csv(records, path)
    text = path.read_text()
    assert text == records_to_csv(records)
    assert text.splitlines()[0] == CSV_HEADER


def test_csv_bytes_reproducible():
    kwargs = dict(schemes=(HOMODYNE,), eta_list=(0.5,), amplitude=100.0,
                  shots=24, repetitions=2, seed=16)
    a = records_to_csv(run_mode_scaling([2], **kwargs))
    b = records_to_csv(run_mode_scaling([2], **kwargs))
    assert a == b


@pytest.mark.parametrize("runner", [run_mode_scaling, run_unitary_scaling])
def test_scaling_rejects_non_finite_amplitude(runner):
    with pytest.raises(ValueError):
        runner([1], amplitude=math.nan, shots=math.inf, repetitions=1)


@pytest.fixture
def probe_count(monkeypatch):
    """Count the probe settings issued to any simulated device."""
    calls = []
    original = SimulatedDevice.probe_and_measure

    def counting(self, probe, config):
        calls.append(probe)
        return original(self, probe, config)

    monkeypatch.setattr(SimulatedDevice, "probe_and_measure", counting)
    return calls


@pytest.mark.parametrize(
    "sweep, match",
    [
        (lambda: run_mode_scaling([1], shots=math.inf, repetitions=0), "repetitions"),
        (lambda: run_unitary_scaling([1], shots=math.inf, repetitions=0), "repetitions"),
        (lambda: run_intensity_scaling([10.0], [1], shots=math.inf, repetitions=0),
         "repetitions"),
        (lambda: run_phase_error_study(0.05, [1], repetitions=0), "repetitions"),
        (lambda: run_mode_scaling([2, -1], shots=math.inf, repetitions=1), "n_list"),
        (lambda: run_unitary_scaling([2, 0], shots=math.inf, repetitions=1), "n_list"),
        (lambda: run_intensity_scaling([10.0], [1], shots=math.inf, n_modes=0), "n_modes"),
        (lambda: run_intensity_scaling([10.0], [2, 0], shots=math.inf, repetitions=1),
         "trials_list"),
        (lambda: run_phase_error_study(0.05, [2, 0], repetitions=1), "trials_list"),
    ],
    ids=["mode-reps", "unitary-reps", "intensity-reps", "phase-reps", "mode-n", "unitary-n",
         "intensity-n", "intensity-trials", "phase-trials"],
)
def test_runners_reject_bad_counts_before_any_probe(sweep, match, probe_count):
    with pytest.raises(ValueError, match=match):
        sweep()
    assert probe_count == []
