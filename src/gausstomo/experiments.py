"""Repeatable accuracy sweeps over mode count, scheme, probe budget and phase.

Every runner returns a list of :class:`ExperimentRecord` rows, one per cell of
its grid, that can be dumped to CSV. All four runners share one sweep loop:
repetitions run outermost, and each row is keyed by its cell's grid index, so
a repeated grid value gets its own row. Seeds are derived per repetition and
cell, so a run is bit-reproducible from its master seed, and the scaling
runners share each repetition's random device across every scheme and loss
to sharpen comparisons. Before its first probe, the sweep checks every input once, off the
cells' CSV rows, naming the column at fault, derives every master seed in one table pass
and 2N streams per finite-shot master of N modes in another (see :mod:`gausstomo.randgen`).
An intensity cell issues the 2N settings of each of its T trials as one plan.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import os
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import _MAX_MODES, NotPassiveError, _check_index, _real, embed_unitary, scaled_frobenius
from .device import HETERODYNE, HOMODYNE, DeviceModel, MeasurementConfig, SCHEMES, SimulatedDevice
from .randgen import (DEFAULT_R_MAX, _seed_words, _stream_tables, derive_seed, haar_unitary,
                      random_symplectic)
from .tomography import (
    LossRecoveryError,
    _attenuated_sum,
    _phase_error_elements,
    _probe_scale,
    estimate_eta,
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


def _sweep(
    experiment_id: str, axes: dict[str, Sequence], repetitions: int,
    seeds: Callable[[tuple[int, ...], int], list[tuple[int, ...]]],
    error: Callable[[tuple[int, ...], int, list[MeasurementConfig]], float],
    drop_on: tuple[type[Exception], ...] = (), **fixed,
) -> list[ExperimentRecord]:
    """One row per cell of the grid ``axes`` (row field -> swept values).

    Cells are index tuples into the axes, in row-major order. A cell's row holds the
    ``fixed`` fields and its swept values, and its config is the row's scheme and shots.
    Each input is checked once, off the rows, by its rule's home, and an error names the row
    field: an empty axis (no row), ``repetitions``, each row's ``n_modes``, ``trials``,
    ``amplitude`` and config, then the ``seed``. ``seeds(idx, rep)`` are the index tuples
    of its master seeds in one repetition, one per reconstruction, master
    ``derive_seed(seed, *parts)``: all are derived in one table pass, and 2 * n_modes streams
    per finite-shot master (the most settings an N-mode reconstruction issues) in another,
    before the first probe. Repetitions run outermost: for every
    ``rep``, every cell's ``error(idx, rep, configs)`` is called in turn with its config
    reseeded to each master, carrying its rows, and a ``drop_on`` exception counts one drop.
    A record is its cell's row with the mean and standard error of the cell's own errors.
    """
    for name, values in axes.items():
        if not len(values):
            raise ValueError(f"the {name} axis of the {experiment_id} grid is empty")
    cells = list(itertools.product(*(range(len(values)) for values in axes.values())))
    rows = {idx: dict(fixed, experiment_id=experiment_id, repetitions=repetitions, dropped=0,
                      **{name: values[i] for (name, values), i in zip(axes.items(), idx)})
            for idx in cells}
    _check_index(repetitions, "repetitions", 1)
    for row in rows.values():
        _check_index(row["n_modes"], "n_modes", 1, _MAX_MODES)
        _check_index(row["trials"], "trials", 1)
        _probe_scale(row["amplitude"])
    configs = {idx: MeasurementConfig(row["scheme"], row["shots"]) for idx, row in rows.items()}
    seed = _check_index(fixed["seed"], "seed", 0)
    parts = {(idx, rep): seeds(idx, rep) for rep in range(repetitions) for idx in cells}
    flat = np.array([part for ps in parts.values() for part in ps], np.uint64)
    derived = iter(_seed_words(1, len(flat), seed, *flat.T)[:, 0].tolist())  # derive_seed(seed, *p)
    masters = {key: [next(derived) for _ in ps] for key, ps in parts.items()}
    table = _stream_tables({m: 2 * rows[idx]["n_modes"] for (idx, _), ms in masters.items()
                            for m in ms if not configs[idx].analytic})  # analytic: no draws
    errors: dict[tuple[int, ...], list[float]] = {idx: [] for idx in cells}
    for rep in range(repetitions):
        for idx in cells:
            reseeded = [configs[idx]._reseeded(m, table=table.get(m)) for m in masters[idx, rep]]
            try:
                errors[idx].append(error(idx, rep, reseeded))
            except drop_on:
                rows[idx]["dropped"] += 1
    for idx, row in rows.items():
        arr = np.asarray(errors[idx], dtype=float)
        row["f_mean"] = float(arr.mean()) if arr.size else math.nan
        row["f_stderr"] = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else math.nan
    return [ExperimentRecord(**row) for row in rows.values()]


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
    @functools.lru_cache(maxsize=1)  # one device per (n, rep), shared by its cells
    def draw(n, rep):
        s_true = random_symplectic(n, r_max=r_max, seed=derive_seed(seed, _DEV, n, rep))
        return s_true, [DeviceModel(s_true, eta=eta) for eta in eta_list]

    def error(idx, rep, configs):
        s_true, models = draw(n_list[idx[0]], rep)
        result = reconstruct_symplectic(SimulatedDevice(models[idx[2]]), amplitude, configs[0])
        return scaled_frobenius(s_true, result.s_recon)

    return _sweep(
        "mode-scaling", dict(n_modes=n_list, scheme=schemes, eta=eta_list), repetitions,
        lambda idx, rep: [(_MEAS, n_list[idx[0]], rep, idx[2], idx[1])],
        error, (LossRecoveryError,), amplitude=amplitude, shots=shots, trials=1, seed=seed,
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
    @functools.lru_cache(maxsize=1)  # one device per (n, rep), shared by its cells
    def draw(n, rep):
        u_true = haar_unitary(n, seed=derive_seed(seed, _DEV, n, rep))
        return u_true, [DeviceModel(embed_unitary(u_true), eta=eta) for eta in eta_list]

    def error(idx, rep, configs):
        n = n_list[idx[0]]
        u_true, models = draw(n, rep)
        u_hat = reconstruct_unitary(SimulatedDevice(models[idx[2]]), amplitude, configs[0]).u_hat
        return scaled_frobenius(u_true, u_hat, n_modes=n)

    return _sweep(
        "unitary-scaling", dict(n_modes=n_list, scheme=schemes, eta=eta_list), repetitions,
        lambda idx, rep: [(_MEAS, n_list[idx[0]], rep, idx[2], idx[1])],
        error, (LossRecoveryError, NotPassiveError),
        amplitude=amplitude, shots=shots, trials=1, seed=seed,
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
    s_true = random_symplectic(n_modes, r_max=r_max, seed=derive_seed(seed, _DEV))
    model = DeviceModel(s_true, eta=eta)

    def seeds(idx, rep):
        return [(_MEAS, *idx, rep, trial) for trial in range(trials_list[idx[1]])]

    def error(idx, rep, configs):  # estimate_eta rejects an average that overflowed
        tilde_sum = _attenuated_sum(SimulatedDevice(model), amplitude_list[idx[0]], configs)
        tilde_avg = (0 + tilde_sum) / len(configs)  # 0 +: sum()'s start, -0.0 reads as 0.0
        return scaled_frobenius(s_true, tilde_avg / math.sqrt(estimate_eta(tilde_avg)))

    return _sweep(
        "intensity", dict(amplitude=amplitude_list, trials=trials_list), repetitions, seeds,
        error, (LossRecoveryError,),
        n_modes=n_modes, scheme=scheme, eta=eta, shots=shots, seed=seed,
    )


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
    if not 0 <= _real(phi_max) < math.pi / 4:
        raise ValueError("phi_max must lie in [0, pi/4)")
    s_true = random_symplectic(1, r_max=r_max, seed=derive_seed(seed, _DEV))
    device = SimulatedDevice(DeviceModel(s_true, eta=1.0))
    target = s_true[0, 0]
    norm = math.hypot(s_true[0, 0], s_true[0, 1])

    def error(idx, rep, configs):  # exact means: the config's seed serves only the phases
        rng = np.random.default_rng(configs[0].seed)
        phis = rng.uniform(-phi_max, phi_max, trials_list[idx[0]])
        estimates = _phase_error_elements(device, 1, 1, amplitude, phis, configs[0])
        return abs(float(np.mean(estimates)) - target) / norm

    return _sweep(
        "phase-error", dict(trials=trials_list), repetitions,
        lambda idx, rep: [(_MEAS, *idx, rep)], error,
        n_modes=1, scheme=HOMODYNE, eta=1.0, amplitude=amplitude, shots=math.inf, seed=seed,
    )


def _format_cell(value) -> str:
    """A float, NumPy's too, as the repr of the Python float it equals."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
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
