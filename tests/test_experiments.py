import dataclasses
import itertools
import math
import re
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from gausstomo import (
    DeviceModel,
    HETERODYNE,
    HOMODYNE,
    LossRecoveryError,
    MeasurementConfig,
    NotPassiveError,
    SimulatedDevice,
    derive_seed,
    experiments,
    measure_attenuated_matrix,
    random_symplectic,
    reconstruct_symplectic,
)
from gausstomo import randgen, tomography
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


def test_intensity_rejects_a_subnormal_amplitude_before_any_probe(probe_count):
    with pytest.raises(ValueError, match=r"^probe amplitude must be finite and > 0, and not "
                                         r"subnormal, got 1e-310$"):
        run_intensity_scaling([1.0, 1e-310], [1, 2], shots=100, seed=11, n_modes=2,
                              repetitions=2)
    assert probe_count == []


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


@pytest.mark.parametrize("amplitude", [2.0, np.float64(2.0), np.float32(2.0)],
                         ids=["float", "float64", "float32"])
def test_records_csv_float_cells_read_back(amplitude):
    text = records_to_csv(run_phase_error_study(0.05, [1], repetitions=1, amplitude=amplitude))
    row = dict(zip(CSV_HEADER.split(","), text.splitlines()[1].split(",")))
    assert row["amplitude"] == "2.0"
    for name in ("eta", "amplitude", "f_mean", "f_stderr"):
        float(row[name])
    if type(amplitude) is not np.float32:  # float32 arithmetic gives another f_mean
        # a Python float row keeps its bytes, and a float64 equal to it writes the same
        row = "phase-error,1,homodyne,1.0,2.0,inf,1,1,0.013034341116389393,nan,0,0"
        assert text == f"{CSV_HEADER}\n{row}\n"


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
        # a count is checked off each CSV row, so the message names the row's column
        (lambda: run_mode_scaling([2, -1], shots=math.inf, repetitions=1),
         "^n_modes must be an integer >= 1, got -1$"),
        (lambda: run_unitary_scaling([2, 0], shots=math.inf, repetitions=1),
         "^n_modes must be an integer >= 1, got 0$"),
        # the intensity runner draws its one device before the sweep builds any row
        (lambda: run_intensity_scaling([10.0], [1], shots=math.inf, n_modes=0),
         "^number of modes must be an integer >= 1, got 0$"),
        (lambda: run_intensity_scaling([10.0], [2, 0], shots=math.inf, repetitions=1),
         "^trials must be an integer >= 1, got 0$"),
        (lambda: run_phase_error_study(0.05, [2, 0], repetitions=1),
         "^trials must be an integer >= 1, got 0$"),
        (lambda: run_mode_scaling([2, 1.5], shots=math.inf, repetitions=1),
         "^n_modes must be an integer >= 1, got 1.5$"),
        (lambda: run_phase_error_study(0.05, [1], repetitions=2.5), "repetitions"),
        # every amplitude and scheme of a grid is checked too, not only the first cell's
        (lambda: run_intensity_scaling(amplitude_list=(10.0, -1.0), trials_list=(1,),
                                       repetitions=1), "amplitude"),
        (lambda: run_intensity_scaling([10.0, math.inf], [1], repetitions=1), "amplitude"),
        (lambda: run_intensity_scaling([10.0], [1], scheme="bogus", repetitions=1), "scheme"),
        (lambda: run_mode_scaling([1], schemes=(HETERODYNE, "bogus"), repetitions=1), "scheme"),
        (lambda: run_unitary_scaling([1], schemes=(HOMODYNE, "bogus"), repetitions=1), "scheme"),
        (lambda: run_mode_scaling([1], amplitude=0.0, repetitions=1), "amplitude"),
        (lambda: run_unitary_scaling([1], amplitude=-2.0, repetitions=1), "amplitude"),
        (lambda: run_phase_error_study(0.05, [1], amplitude=math.nan, repetitions=1),
         "amplitude"),
        # an empty grid would leave a CSV of the header alone
        (lambda: run_mode_scaling(n_list=[], shots=math.inf, repetitions=1),
         "^the n_modes axis of the mode-scaling grid is empty$"),
        (lambda: run_unitary_scaling([2], schemes=[], shots=math.inf, repetitions=1),
         "^the scheme axis of the unitary-scaling grid is empty$"),
        (lambda: run_intensity_scaling(amplitude_list=[], shots=math.inf, repetitions=1),
         "^the amplitude axis of the intensity grid is empty$"),
        (lambda: run_phase_error_study(0.05, trials_list=[], repetitions=1),
         "^the trials axis of the phase-error grid is empty$"),
        # a bad value in the last row of a multi-value axis, and a bool amplitude
        (lambda: run_mode_scaling([2, 4, 0], shots=math.inf, repetitions=1),
         "^n_modes must be an integer >= 1, got 0$"),
        (lambda: run_unitary_scaling([2, 4, 0], shots=math.inf, repetitions=1),
         "^n_modes must be an integer >= 1, got 0$"),
        (lambda: run_intensity_scaling([10.0], (1, 2, 0), shots=math.inf, repetitions=1),
         "^trials must be an integer >= 1, got 0$"),
        (lambda: run_phase_error_study(0.05, (1, 2, 0), repetitions=1),
         "^trials must be an integer >= 1, got 0$"),
        (lambda: run_mode_scaling([2], amplitude=True, shots=math.inf, repetitions=1),
         "^probe amplitude must be finite and > 0, got True$"),
        # a mode count whose (2N, 2N) float64 array would hold 2**63 bytes
        (lambda: run_mode_scaling([2, 2**29], shots=math.inf, repetitions=1),
         "^n_modes must be an integer >= 1 and < 536870912, got 536870912$"),
    ],
    ids=["mode-reps", "unitary-reps", "intensity-reps", "phase-reps", "mode-n", "unitary-n",
         "intensity-n", "intensity-trials", "phase-trials", "mode-n-float", "phase-reps-float",
         "intensity-negative-amplitude", "intensity-inf-amplitude", "intensity-scheme",
         "mode-scheme", "unitary-scheme", "mode-amplitude", "unitary-amplitude",
         "phase-amplitude", "mode-empty", "unitary-empty", "intensity-empty", "phase-empty",
         "mode-n-last", "unitary-n-last", "intensity-trials-last", "phase-trials-last",
         "mode-bool-amplitude", "mode-n-huge"],
)
def test_runners_reject_bad_counts_before_any_probe(sweep, match, probe_count):
    with pytest.raises(ValueError, match=match):
        sweep()
    assert probe_count == []


def test_stderr_is_the_sample_standard_error_of_the_repetitions(monkeypatch):
    errors = iter([1.0, 2.0, 4.0])
    monkeypatch.setattr(experiments, "scaled_frobenius", lambda *args, **kwargs: next(errors))
    (record,) = run_mode_scaling([2], schemes=[HETERODYNE], eta_list=[1.0], shots=math.inf,
                                 repetitions=3)
    # mean 7/3; squared deviations 16/9, 1/9 and 25/9 over 3 - 1 give the variance 7/3
    assert record.f_mean == pytest.approx(7 / 3, rel=1e-15)
    assert record.f_stderr == pytest.approx(math.sqrt(7 / 3) / math.sqrt(3), rel=1e-15)


def test_phase_error_averages_the_trial_estimates(monkeypatch):
    # skewed estimates: their mean lies one row norm above the element, their median on it
    def estimates(device, i, j, amplitude, phis, config):
        s = device.model.s
        target, norm = s[0, 0], math.hypot(s[0, 0], s[0, 1])
        return [target, target, target + 3 * norm]

    monkeypatch.setattr(experiments, "_phase_error_elements", estimates)
    (record,) = run_phase_error_study(0.05, trials_list=[3], repetitions=1)
    assert record.f_mean == pytest.approx(1.0, rel=1e-12)


def test_repeated_mode_count_gets_its_own_row():
    kwargs = dict(schemes=(HETERODYNE,), eta_list=(1.0,), shots=100, repetitions=3, seed=1)
    (single,) = run_mode_scaling([2], **kwargs)
    assert run_mode_scaling([2, 2], **kwargs) == [single, single]


@pytest.mark.parametrize(
    "grid", [dict(schemes=(HETERODYNE, HETERODYNE)), dict(eta_list=(1.0, 1.0))],
    ids=["schemes", "eta"],
)
def test_repeated_scheme_or_loss_gets_its_own_row(grid):
    kwargs = dict(schemes=(HETERODYNE,), eta_list=(1.0,), shots=100, repetitions=3, seed=1)
    (single,) = run_mode_scaling([2], **kwargs)
    first, _ = run_mode_scaling([2], **{**kwargs, **grid})
    # the second cell draws its noise from its own index, so only the first matches
    assert first == single


@pytest.mark.parametrize(
    "runner, target, raises",
    [
        (lambda: run_mode_scaling([2], schemes=(HETERODYNE,), eta_list=(0.5,), shots=100,
                                  repetitions=5, seed=17),
         "reconstruct_symplectic", {1: LossRecoveryError, 3: LossRecoveryError}),
        (lambda: run_unitary_scaling([2], schemes=(HOMODYNE,), shots=100, repetitions=5, seed=18),
         "reconstruct_unitary", {0: NotPassiveError, 3: LossRecoveryError}),
        (lambda: run_intensity_scaling([10.0], [2], shots=100, seed=19, n_modes=2,
                                       repetitions=5),
         "estimate_eta", {2: LossRecoveryError, 4: LossRecoveryError}),
    ],
    ids=["mode", "unitary", "intensity"],
)
def test_sweep_drops_failed_repetitions(monkeypatch, runner, target, raises):
    """A one-cell grid calls ``target`` once per repetition; the repetitions in
    ``raises`` fail, the others keep the errors they have without failures."""
    errors = []
    scaled_frobenius = experiments.scaled_frobenius

    def recording(*args, **kwargs):
        errors.append(scaled_frobenius(*args, **kwargs))
        return errors[-1]

    monkeypatch.setattr(experiments, "scaled_frobenius", recording)
    (full,) = runner()
    assert full.dropped == 0 and len(errors) == 5
    kept = [e for rep, e in enumerate(errors) if rep not in raises]
    errors.clear()

    original = getattr(experiments, target)
    calls = itertools.count()

    def failing(*args, **kwargs):
        rep = next(calls)
        if rep in raises:
            raise raises[rep](f"injected at repetition {rep}")
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, target, failing)
    (record,) = runner()
    assert errors == kept
    assert record.dropped == len(raises)
    assert record.repetitions == 5
    assert record.f_mean == float(np.mean(kept))


@pytest.mark.parametrize(
    "runner, draw", [(run_mode_scaling, "random_symplectic"), (run_unitary_scaling, "haar_unitary")]
)
def test_scaling_draws_one_device_per_mode_count_and_repetition(monkeypatch, runner, draw):
    counts = {"draw": 0, "model": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiments, draw, counting("draw", getattr(experiments, draw)))
    monkeypatch.setattr(experiments, "DeviceModel", counting("model", experiments.DeviceModel))
    n_list, eta_list, repetitions = [1, 2], (1.0, 0.5), 3
    runner(n_list, schemes=(HOMODYNE, HETERODYNE), eta_list=eta_list, shots=math.inf,
           repetitions=repetitions, seed=20)
    assert counts == {
        "draw": len(n_list) * repetitions,
        "model": len(n_list) * repetitions * len(eta_list),
    }


# one small sweep per runner, mixing both schemes, odd shot counts and N = 1,
# with its probe settings and, of those, the settings that draw shots
SWEEPS = [
    pytest.param(lambda: run_mode_scaling([1, 3], schemes=(HOMODYNE, HETERODYNE),
                                          eta_list=(1.0, 0.6), amplitude=200.0, shots=7,
                                          repetitions=2, seed=31),
                 2 * 2 * 2 * (2 + 6), 2 * 2 * 2 * (2 + 6), id="mode"),
    pytest.param(lambda: run_unitary_scaling([2, 3], schemes=(HOMODYNE, HETERODYNE),
                                             amplitude=200.0, shots=9, repetitions=2, seed=32),
                 2 * 2 * (2 + 3), 2 * 2 * (2 + 3), id="unitary"),
    pytest.param(lambda: run_intensity_scaling([10.0, 30.0], [1, 3], shots=20, seed=33,
                                               n_modes=2, scheme=HOMODYNE, repetitions=2),
                 2 * 2 * (1 + 3) * 4, 2 * 2 * (1 + 3) * 4, id="intensity"),
    pytest.param(lambda: run_phase_error_study(0.05, [1, 10], seed=34, repetitions=2),
                 2 * (1 + 10), 0, id="phase"),
]


@pytest.mark.parametrize("sweep, settings, drawing", SWEEPS)
def test_sweep_streams_give_the_bytes_of_derive_seed_and_default_rng(
    monkeypatch, sweep, settings, drawing
):
    """Every setting's stream read from the sweep's one-pass table equals the
    per-setting ``derive_seed`` + ``default_rng`` path."""
    derived = []
    derive_seed = randgen.derive_seed
    monkeypatch.setattr(randgen, "derive_seed", lambda *a: derived.append(a) or derive_seed(*a))
    cached = records_to_csv(sweep())
    assert derived == []  # no setting's seed was derived natively

    def native_rows(settings):  # each row's child from derive_seed, and no words: default_rng
        return {m: (np.array([derive_seed(m, k) for k in range(count)], np.uint64), [None] * count)
                for m, count in settings.items()}

    seeded, stream = [], randgen._stream
    monkeypatch.setattr(experiments, "_stream_tables", native_rows)
    monkeypatch.setattr("gausstomo.device._stream",
                        lambda seed, words: seeded.append(words) or stream(seed, words))
    assert records_to_csv(sweep()) == cached
    assert seeded == [None] * drawing


# one small sweep per runner at a given seed, with its number of master seeds
MASTER_SWEEPS = [
    pytest.param(lambda seed: run_mode_scaling([1, 3], schemes=(HOMODYNE, HETERODYNE),
                                               eta_list=(1.0, 0.6), amplitude=200.0, shots=7,
                                               repetitions=2, seed=seed),
                 2 * 2 * 2 * 2, id="mode"),
    pytest.param(lambda seed: run_unitary_scaling([2, 3], schemes=(HOMODYNE, HETERODYNE),
                                                  amplitude=200.0, shots=9, repetitions=2,
                                                  seed=seed),
                 2 * 2 * 2, id="unitary"),
    pytest.param(lambda seed: run_intensity_scaling([10.0, 30.0], [1, 3], shots=20, seed=seed,
                                                    n_modes=2, scheme=HOMODYNE, repetitions=2),
                 2 * 2 * (1 + 3), id="intensity"),
    pytest.param(lambda seed: run_phase_error_study(0.05, [1, 10], seed=seed, repetitions=2),
                 2 * 2, id="phase"),
]


@pytest.mark.parametrize("seed", [0, 2**64, 10**399 + 2**70 + 3], ids=["0", "2^64", "400-digit"])
@pytest.mark.parametrize("sweep, masters", MASTER_SWEEPS)
def test_sweep_master_seeds_are_derive_seeds_at_any_seed_size(monkeypatch, sweep, masters, seed):
    """The sweep derives its master seeds in one pass, and the CSV is the bytes of deriving
    each one with ``derive_seed``."""
    passed = records_to_csv(sweep(seed))
    passes = []

    def per_master(n_words, size, master, *columns):  # the oracle: one derive_seed per master
        passes.append(size)
        return np.array([[derive_seed(master, *map(int, parts))] for parts in zip(*columns)],
                        np.uint64)

    monkeypatch.setattr(experiments, "_seed_words", per_master)
    assert records_to_csv(sweep(seed)) == passed
    assert passes == [masters]


def _per_trial_sum(device, amplitude, configs):
    """The per-trial path, the oracle of an intensity cell's plan: each trial's own
    reconstruction, its matrix added to the sum in trial order."""
    return sum(measure_attenuated_matrix(device, amplitude, config) for config in configs)


# (scheme, shots): the fewest shots of each scheme, 100 shots and exact means
PLAN_BUDGETS = [(HETERODYNE, 1), (HOMODYNE, 2), (HETERODYNE, 100), (HOMODYNE, 100),
                (HETERODYNE, math.inf), (HOMODYNE, math.inf)]
PLAN_IDS = ["heterodyne-1", "homodyne-2", "heterodyne-100", "homodyne-100", "heterodyne-inf",
            "homodyne-inf"]


@pytest.mark.parametrize("scheme, shots", PLAN_BUDGETS, ids=PLAN_IDS)
@pytest.mark.parametrize("n_modes", [1, 2, 5])
def test_intensity_plan_gives_the_bytes_of_the_per_trial_path(monkeypatch, probe_count, n_modes,
                                                              scheme, shots):
    """A cell's trials go out one at a time, their matrices added in order; its CSV is the
    per-trial path's, from the same settings. At 1.5e308 the means overflow: every
    repetition of those cells is dropped."""
    def run():
        return run_intensity_scaling([10.0, 1.5e308], [1, 5], shots=shots, seed=35,
                                     n_modes=n_modes, scheme=scheme, repetitions=2)

    planned = run()
    settings = 2 * 2 * (1 + 5) * 2 * n_modes
    assert len(probe_count) == settings
    assert [record.dropped for record in planned[2:]] == [2, 2]
    monkeypatch.setattr(experiments, "_attenuated_sum", _per_trial_sum)
    assert records_to_csv(run()) == records_to_csv(planned)
    assert len(probe_count) == 2 * settings


@pytest.mark.parametrize("scheme, shots", PLAN_BUDGETS, ids=PLAN_IDS)
@pytest.mark.parametrize("n_modes", [1, 2, 5])
@pytest.mark.parametrize("trials", [1, 5, 20, 41])
def test_a_plan_of_trials_is_the_per_trial_sum(trials, n_modes, scheme, shots):
    """The running sum equals the per-trial sum bit for bit (after ``sum``'s leading 0), over
    more than 8 matrices, where a pairwise sum would round otherwise, and over more than 32 KiB
    of means (41 trials at N = 5), and spends the same settings and probes on its device."""
    model = DeviceModel(random_symplectic(n_modes, seed=36), eta=0.8)
    masters = [derive_seed(36, trial) for trial in range(trials)]
    table = randgen._stream_tables({master: 2 * n_modes for master in masters})
    configs = [MeasurementConfig(scheme, shots)._reseeded(m, table=table[m]) for m in masters]
    planned, per_trial = SimulatedDevice(model), SimulatedDevice(model)
    got = tomography._attenuated_sum(planned, 10.0, configs)
    assert np.array_equal(0 + got, _per_trial_sum(per_trial, 10.0, configs))
    per_setting = configs[0].shots_per_quadrature * (2 if scheme == HOMODYNE else 1)
    assert (planned.settings_used, planned.probes_used) == (
        per_trial.settings_used, per_trial.probes_used) == (
        trials * 2 * n_modes, trials * 2 * n_modes * per_setting)


def test_a_plans_memory_does_not_grow_with_its_trials():
    model = DeviceModel(random_symplectic(5, seed=37))
    config = MeasurementConfig(HETERODYNE, math.inf)
    peaks = []
    for trials in (10**3, 10**4):
        configs = [config] * trials
        tracemalloc.start()
        try:
            tomography._attenuated_sum(SimulatedDevice(model), 10.0, configs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 16 * 1024, peaks


@pytest.mark.parametrize("sweep, settings, drawing", SWEEPS)
def test_sweep_issues_one_probe_per_setting(monkeypatch, sweep, settings, drawing):
    calls = []
    original = SimulatedDevice.probe_and_measure

    def counting(self, *args, **kwargs):
        assert not kwargs  # (probe, config), positionally
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(SimulatedDevice, "probe_and_measure", counting)
    sweep()
    assert len(calls) == settings


@pytest.mark.parametrize("sweep", [
    lambda: run_mode_scaling([1, 2], schemes=(HOMODYNE, HETERODYNE), eta_list=(1.0,),
                             amplitude=200.0, shots=9.0, repetitions=2, seed=3),
    lambda: run_unitary_scaling([1, 2], schemes=(HETERODYNE, HOMODYNE), amplitude=200.0,
                                shots=math.inf, repetitions=2, seed=4),
    lambda: run_intensity_scaling([10.0], [1, 2], shots=5, n_modes=2, scheme=HOMODYNE,
                                  repetitions=2, seed=5),
    lambda: run_phase_error_study(0.05, [1, 3], repetitions=2, seed=6),
], ids=["mode", "unitary", "intensity", "phase"])
def test_sweep_configs_take_their_rows_scheme_and_shots(monkeypatch, sweep):
    seen, cells, original = [], [], experiments._sweep

    def spying(experiment_id, axes, repetitions, seeds, error, *args, **fixed):
        def recording(idx, rep, configs):
            seen.append((idx, configs))
            return error(idx, rep, configs)

        cells.extend(itertools.product(*(range(len(values)) for values in axes.values())))
        return original(experiment_id, axes, repetitions, seeds, recording, *args, **fixed)

    monkeypatch.setattr(experiments, "_sweep", spying)
    records = sweep()
    assert len(seen) == 2 * len(records)
    for idx, configs in seen:
        row = records[cells.index(idx)]
        assert configs and all(c.scheme == row.scheme and c.shots == row.shots for c in configs)
        # a finite-shot master carries 2N table rows, the most an N-mode device's settings
        assert all((c._table is None) if c.analytic else len(c._table[0]) == 2 * row.n_modes
                   for c in configs)


def test_sweep_leaves_randgen_unchanged_on_return_and_on_raise(monkeypatch):
    namespace = dict(vars(randgen))
    run_mode_scaling([2], schemes=(HETERODYNE,), eta_list=(1.0,), shots=10, repetitions=2)
    assert vars(randgen) == namespace  # no name rebound or added
    seen = []

    def failing(device, amplitude, config):
        seen.append(config)
        raise RuntimeError("injected")

    monkeypatch.setattr(experiments, "reconstruct_symplectic", failing)
    with pytest.raises(RuntimeError, match="injected"):
        run_mode_scaling([2], schemes=(HETERODYNE,), eta_list=(1.0,), shots=10, repetitions=2)
    assert seen[0]._table is not None  # the sweep's rows travel in the config
    assert vars(randgen) == namespace


def test_sweep_built_config_draws_the_same_means_on_another_thread(monkeypatch):
    calls = []

    def recording(device, amplitude, config):
        result = reconstruct_symplectic(device, amplitude, config)
        calls.append((device.model, amplitude, config, result.s_tilde))
        return result

    monkeypatch.setattr(experiments, "reconstruct_symplectic", recording)
    run_mode_scaling([2, 9], eta_list=(0.8,), shots=7, repetitions=2, seed=23)
    assert len(calls) == 2 * 2 * 2 and all(config._table is not None for _, _, config, _ in calls)

    def redraw(out):
        for model, amplitude, config, _ in calls:
            out.append(measure_attenuated_matrix(SimulatedDevice(model), amplitude, config))

    here, there = [], []
    thread = threading.Thread(target=redraw, args=(there,))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(there) == len(calls)
    redraw(here)
    for (model, amplitude, config, s_tilde), a, b in zip(calls, here, there):
        assert np.array_equal(a, s_tilde) and np.array_equal(b, s_tilde)
        native = dataclasses.replace(config)  # the same seed, carrying no rows
        assert native._table is None
        assert np.array_equal(
            measure_attenuated_matrix(SimulatedDevice(model), amplitude, native), s_tilde)


@pytest.mark.parametrize("runner", [run_mode_scaling, run_unitary_scaling],
                         ids=["mode", "unitary"])
def test_runner_rejects_shot_budget_before_the_first_probe(monkeypatch, runner):
    calls = []
    original = SimulatedDevice.probe_and_measure
    monkeypatch.setattr(SimulatedDevice, "probe_and_measure",
                        lambda self, *args: calls.append(args) or original(self, *args))
    with pytest.raises(ValueError, match="at least 2 shots"):
        runner([2], schemes=[HETERODYNE, HOMODYNE], shots=1, repetitions=1)
    assert calls == []  # the heterodyne cell's settings were not issued first


@pytest.mark.parametrize("shots", [2**53 + 1, 1e300], ids=["2^53+1", "1e300"])
@pytest.mark.parametrize("runner", [run_mode_scaling, run_unitary_scaling],
                         ids=["mode", "unitary"])
def test_runner_rejects_a_shot_budget_above_2_to_the_53_before_any_probe(monkeypatch, runner,
                                                                         shots):
    # a probe would draw for ever: issuing one fails the test
    monkeypatch.setattr(SimulatedDevice, "probe_and_measure", mock.Mock(side_effect=AssertionError))
    with pytest.raises(ValueError, match="shots must be a positive integer <= 2"):
        runner([2], shots=shots, repetitions=1)
    with pytest.raises(ValueError, match="shots must be a positive integer <= 2"):
        run_intensity_scaling([10.0], [1], shots=shots, repetitions=1)


@pytest.mark.parametrize("seed", [1.5, "7", -2, True])
@pytest.mark.parametrize(
    "runner",
    [
        lambda seed: run_mode_scaling([1], shots=10, repetitions=1, seed=seed),
        lambda seed: run_unitary_scaling([1], shots=10, repetitions=1, seed=seed),
        lambda seed: run_intensity_scaling([10.0], [1], shots=10, repetitions=1, seed=seed),
        lambda seed: run_phase_error_study(0.05, [1], repetitions=1, seed=seed),
    ],
    ids=["mode", "unitary", "intensity", "phase"],
)
def test_runners_reject_bad_seed_before_any_probe(runner, seed, probe_count):
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
        runner(seed)
    assert probe_count == []
