"""Repeatable accuracy sweeps over mode count, scheme, probe budget and phase.

Every runner returns a list of :class:`ExperimentRecord` rows (one per swept
combination) that can be dumped to CSV. Seeds are derived per repetition, so
a run is bit-reproducible from its master seed, and the same random devices
are shared across measurement schemes to sharpen comparisons.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import os
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import NotPassiveError, embed_unitary, scaled_frobenius
from .device import HETERODYNE, HOMODYNE, DeviceModel, MeasurementConfig, SCHEMES, SimulatedDevice
from .randgen import DEFAULT_R_MAX, derive_seed, haar_unitary, random_symplectic
from .tomography import (
    LossRecoveryError,
    estimate_eta,
    measure_attenuated_matrix,
    reconstruct_element_with_phase_error,
    reconstruct_symplectic,
    reconstruct_unitary,
)

# seed stream tags, so device draws and measurement noise never collide
_DEV = 0
_MEAS = 1


@dataclass(frozen=True)
class ExperimentRecord:
    """One row of an experiment sweep: a swept combination and its error stats."""

    experiment_id: str
    n_modes: int
    scheme: str
    eta: float
    amplitude: float
    shots: int | float
    trials: int
    repetitions: int
    f_mean: float
    f_stderr: float
    seed: int
    dropped: int


def _record(experiment_id: str, errors: Sequence[float], dropped: int, **cell) -> ExperimentRecord:
    """One row: the swept cell, and the mean and standard error of its errors."""
    arr = np.asarray(errors, dtype=float)
    f_mean = float(arr.mean()) if arr.size else math.nan
    f_stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else math.nan
    return ExperimentRecord(
        experiment_id=experiment_id, f_mean=f_mean, f_stderr=f_stderr, dropped=dropped, **cell
    )


def _check_counts(**counts: Iterable[int]) -> None:
    """Reject a mode, repetition or trial count below 1, before the first probe."""
    for name, values in counts.items():
        for value in values:
            if operator.index(value) < 1:
                raise ValueError(f"{name} must hold counts >= 1, got {value}")


def _scaling_sweep(
    experiment_id: str, n_list: Sequence[int], schemes: Sequence[str],
    eta_list: Sequence[float], amplitude: float, shots: int | float, repetitions: int, seed: int,
    draw: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
    score: Callable[[np.ndarray, SimulatedDevice, MeasurementConfig], float],
    drop_on: tuple[type[Exception], ...],
) -> list[ExperimentRecord]:
    """Reconstruction error versus mode count, one row per (n, scheme, eta).

    For every (n, rep), ``draw(n, device_seed)`` returns the ground truth and
    the device's symplectic matrix; that one device is probed under every
    (eta, scheme) combination. ``score(truth, device, config)`` reconstructs
    and returns the error; a ``drop_on`` exception drops the repetition.
    """
    _check_counts(n_list=n_list, repetitions=[repetitions])
    errors: dict[tuple[int, str, float], list[float]] = {}
    dropped: dict[tuple[int, str, float], int] = {}
    for n in n_list:
        for rep in range(repetitions):
            truth, s_true = draw(n, derive_seed(seed, _DEV, n, rep))
            for eta_idx, eta in enumerate(eta_list):
                model = DeviceModel(s_true, eta=eta)
                for scheme_idx, scheme in enumerate(schemes):
                    key = (n, scheme, eta)
                    meas_seed = derive_seed(seed, _MEAS, n, rep, eta_idx, scheme_idx)
                    config = MeasurementConfig(scheme=scheme, shots=shots, seed=meas_seed)
                    try:
                        error = score(truth, SimulatedDevice(model), config)
                    except drop_on:
                        dropped[key] = dropped.get(key, 0) + 1
                        continue
                    errors.setdefault(key, []).append(error)
    return [
        _record(
            experiment_id, errors.get((n, scheme, eta), []), dropped.get((n, scheme, eta), 0),
            n_modes=n, scheme=scheme, eta=eta, amplitude=amplitude, shots=shots, trials=1,
            repetitions=repetitions, seed=seed,
        )
        for n in n_list
        for scheme in schemes
        for eta in eta_list
    ]


def run_mode_scaling(
    n_list: Sequence[int] = (2, 4, 8, 12),
    schemes: Sequence[str] = SCHEMES,
    eta_list: Sequence[float] = (1.0, 0.5),
    amplitude: float = 1000.0,
    shots: int | float = 100,
    repetitions: int = 50,
    seed: int = 0,
    r_max: float = DEFAULT_R_MAX,
) -> list[ExperimentRecord]:
    """Full-matrix reconstruction error versus mode count.

    For every repetition a fresh random symplectic device is drawn and probed
    under every (scheme, eta) combination, with the same device shared across
    combinations so scheme comparisons are paired. The default grid is
    N = 2, 4, 8, 12 modes x both schemes x eta = 1.0, 0.5, 50 repetitions each.
    """

    def draw(n, device_seed):
        s_true = random_symplectic(n, r_max=r_max, seed=device_seed)
        return s_true, s_true

    def score(s_true, device, config):
        return scaled_frobenius(s_true, reconstruct_symplectic(device, amplitude, config).s_recon)

    return _scaling_sweep(
        "mode-scaling", n_list, schemes, eta_list, amplitude, shots, repetitions, seed,
        draw, score, (LossRecoveryError,),
    )


def run_unitary_scaling(
    n_list: Sequence[int] = (2, 4, 8),
    schemes: Sequence[str] = SCHEMES,
    eta_list: Sequence[float] = (1.0,),
    amplitude: float = 1000.0,
    shots: int | float = 100,
    repetitions: int = 50,
    seed: int = 0,
) -> list[ExperimentRecord]:
    """Passive-shortcut reconstruction error versus mode count, Haar devices.

    The error metric is the scaled Frobenius distance between the true and
    reconstructed N x N unitaries. Repetitions whose reconstruction fails the
    passivity or loss-recovery checks are counted in ``dropped``. The default
    grid is N = 2, 4, 8 modes x both schemes at eta = 1.0, 50 repetitions each.
    """

    def draw(n, device_seed):
        u_true = haar_unitary(n, seed=device_seed)
        return u_true, embed_unitary(u_true)

    def score(u_true, device, config):
        u_hat = reconstruct_unitary(device, amplitude, config).u_hat
        return scaled_frobenius(u_true, u_hat, n_modes=u_true.shape[0])

    return _scaling_sweep(
        "unitary-scaling", n_list, schemes, eta_list, amplitude, shots, repetitions, seed,
        draw, score, (LossRecoveryError, NotPassiveError),
    )


def run_intensity_scaling(
    amplitude_list: Sequence[float] = (10.0, 31.62, 100.0),
    trials_list: Sequence[int] = (1, 10, 100),
    shots: int | float = 100,
    seed: int = 0,
    n_modes: int = 5,
    scheme: str = HETERODYNE,
    eta: float = 1.0,
    repetitions: int = 20,
    r_max: float = DEFAULT_R_MAX,
) -> list[ExperimentRecord]:
    """Reconstruction error versus probe amplitude and trial averaging.

    One fixed random device is probed at every (amplitude, trials) pair; the
    raw attenuated estimates of all trials are averaged before the loss is
    recovered, so error should track 1 / (amplitude * sqrt(trials)). The
    default grid is amplitudes 10, 31.62, 100 x 1, 10, 100 trials on a 5-mode
    heterodyne device, 20 repetitions each.
    """
    _check_counts(n_modes=[n_modes], trials_list=trials_list, repetitions=[repetitions])
    s_true = random_symplectic(n_modes, r_max=r_max, seed=derive_seed(seed, _DEV))
    model = DeviceModel(s_true, eta=eta)
    records = []
    for amp_idx, amplitude in enumerate(amplitude_list):
        for trials_idx, trials in enumerate(trials_list):
            errs = []
            n_dropped = 0
            for rep in range(repetitions):
                tilde_sum = np.zeros((2 * n_modes, 2 * n_modes))
                for trial in range(trials):
                    meas_seed = derive_seed(seed, _MEAS, amp_idx, trials_idx, rep, trial)
                    config = MeasurementConfig(scheme=scheme, shots=shots, seed=meas_seed)
                    tilde_sum += measure_attenuated_matrix(
                        SimulatedDevice(model), amplitude, config
                    )
                tilde_avg = tilde_sum / trials
                try:
                    eta_hat = estimate_eta(tilde_avg)
                except LossRecoveryError:
                    n_dropped += 1
                    continue
                errs.append(scaled_frobenius(s_true, tilde_avg / math.sqrt(eta_hat)))
            records.append(_record(
                "intensity", errs, n_dropped, n_modes=n_modes, scheme=scheme, eta=eta,
                amplitude=amplitude, shots=shots, trials=trials, repetitions=repetitions,
                seed=seed,
            ))
    return records


def run_phase_error_study(
    phi_max: float = 0.05,
    trials_list: Sequence[int] = (1, 10, 100, 1000, 10000),
    seed: int = 0,
    repetitions: int = 200,
    amplitude: float = 1.0,
    r_max: float = DEFAULT_R_MAX,
) -> list[ExperimentRecord]:
    """Element estimation error under random probe phase offsets, exact means.

    A fixed single-mode random symplectic device is probed with phase errors
    drawn uniformly from [-phi_max, phi_max]. The reported error is the
    deviation of the trial-averaged element estimate from the true element,
    normalised by the Euclidean size of the element's (X, P) row pair. The
    default grid is phi_max = 0.05 x 1, 10, 100, 1000, 10000 trials, 200
    repetitions each.
    """
    if not 0 <= phi_max < math.pi / 4:
        raise ValueError("phi_max must lie in [0, pi/4)")
    _check_counts(trials_list=trials_list, repetitions=[repetitions])
    s_true = random_symplectic(1, r_max=r_max, seed=derive_seed(seed, _DEV))
    device = SimulatedDevice(DeviceModel(s_true, eta=1.0))
    config = MeasurementConfig(scheme=HOMODYNE, shots=math.inf)
    target = s_true[0, 0]
    norm = math.hypot(s_true[0, 0], s_true[0, 1])
    records = []
    for trials_idx, trials in enumerate(trials_list):
        errs = []
        for rep in range(repetitions):
            rng = np.random.default_rng(derive_seed(seed, _MEAS, trials_idx, rep))
            phis = rng.uniform(-phi_max, phi_max, trials)
            estimates = [
                reconstruct_element_with_phase_error(device, 1, 1, amplitude, phi, config)
                for phi in phis
            ]
            errs.append(abs(float(np.mean(estimates)) - target) / norm)
        records.append(_record(
            "phase-error", errs, 0, n_modes=1, scheme=config.scheme, eta=1.0,
            amplitude=amplitude, shots=config.shots, trials=trials, repetitions=repetitions,
            seed=seed,
        ))
    return records


def _format_cell(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return repr(value)
    return str(value)


def records_to_csv(records: Iterable[ExperimentRecord]) -> str:
    """Render records as CSV text, one header row plus one row per record."""
    columns = [f.name for f in fields(ExperimentRecord)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for record in records:
        writer.writerow([_format_cell(getattr(record, c)) for c in columns])
    return buf.getvalue()


def _write_atomic(path, text: str) -> None:
    """Write ``text`` to a temporary file next to ``path``, then rename it
    over ``path``: the file is either complete or not touched at all."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(records: Iterable[ExperimentRecord], path) -> None:
    """Write records to ``path`` as CSV, all or nothing."""
    _write_atomic(path, records_to_csv(records))
