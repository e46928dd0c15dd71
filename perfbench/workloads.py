"""Workload definitions, shot-noise correctness gates and output digests.

A workload is a fixed *body* of units. A unit is one call into a public
gausstomo entry point (``cli.main`` or a ``reconstruct_*`` function) whose
output is checked and hashed. Every input is derived from the workload seed;
the package itself only ever sees the generated inputs.

Importing this module imports numpy and gausstomo, so a worker times the
import as part of set-up.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import gausstomo
from gausstomo import (
    DeviceModel,
    LossRecoveryError,
    MeasurementConfig,
    NotPassiveError,
    SimulatedDevice,
    cli,
)

# Package functions are looked up as ``gausstomo.<name>`` at call time, so the
# tracer's patched module globals see every call the benchmark makes.

AMPLITUDE = 1000.0  # probe amplitude of every direct reconstruction
R_MAX = gausstomo.DEFAULT_R_MAX  # squeezing range of every random symplectic device
PHI_MAX = 0.05  # phase-error half-width of the scan-small phase-error scan

# Gate factors. A scan row's f_mean may lie a factor F_HIGH above (F_LOW
# below) its worst-case shot-noise prediction. eta_hat is Gaussian to first
# order; ETA_SIGMAS standard errors are never reached by chance.
F_HIGH = 3.0
F_LOW = 4.0
ETA_SIGMAS = 6.0
PHASE_SIGMAS = 5.0


def sub_seed(seed: int, *tags) -> int:
    """Non-negative 31-bit seed derived from the workload seed and tags."""
    text = ":".join(str(t) for t in (seed,) + tags)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


@dataclass
class Output:
    """What one unit call produced: hashed bytes, gate problems, bookkeeping."""

    payload: bytes
    problems: list[str]
    kept: int
    reconstructions: int
    bytes_written: int = 0


@dataclass
class Unit:
    name: str
    settings: int  # probe settings the unit issues, from the workload definition
    call: Callable[[], object]  # the timed call into the package
    finish: Callable[[object], Output]  # untimed: read back, check, hash


@dataclass
class Workload:
    name: str
    units: list[Unit]
    oracle: Callable[[], list[str]]  # analytic reconstruction check, run once
    params: dict = field(default_factory=dict)

    @property
    def settings(self) -> int:
        return sum(u.settings for u in self.units)


def finite_bytes(*arrays) -> tuple[bytes, bool]:
    parts = [np.ascontiguousarray(np.asarray(a)) for a in arrays]
    ok = all(np.all(np.isfinite(p)) for p in parts)
    return b"".join(p.tobytes() for p in parts), bool(ok)


# ---------------------------------------------------------------- shot noise


def entry_variance(sigma_diag, scheme: str, shots: int, amplitude: float):
    """Variance of an s_tilde entry read from an output quadrature whose
    covariance diagonal is ``sigma_diag`` (mean / (sqrt(2) amplitude))."""
    sigma_diag = np.asarray(sigma_diag, dtype=float)
    if scheme == "homodyne":
        outcome_var, used = sigma_diag / 2.0, shots // 2
    else:
        outcome_var, used = (sigma_diag + 1.0) / 2.0, shots
    return outcome_var / used / (2.0 * amplitude**2)


def frobenius_problems(f: float, f_expect: float, terms: int) -> list[str]:
    """F against a known device's shot-noise prediction.

    F^2 sums ``terms`` squared Gaussian entry errors whose variances differ
    by at most e^2, so its relative spread is below 2/sqrt(terms); the
    allowed factor 1 + max(1/4, 8/sqrt(terms)) is many spreads wide, yet
    narrow enough at N >= 32 to catch a sampler with the wrong variance.
    """
    factor = 1.0 + max(0.25, 8.0 / math.sqrt(terms))
    if f_expect / factor <= f <= f_expect * factor:
        return []
    return [f"F={f:.4g} outside [{f_expect / factor:.4g}, {f_expect * factor:.4g}]"]


def symplectic_gate(s, eta, scheme, shots, amplitude, s_recon, eta_hat) -> list[str]:
    """Scaled Frobenius error and eta_hat against the known device.

    Every coherent probe has vacuum covariance and uniform loss mixes vacuum
    with vacuum, so each setting's output covariance is S S^T; entry (r, c)
    of s_tilde has the variance of quadrature r whatever the column.
    """
    n = s.shape[0] // 2
    var_r = entry_variance(np.einsum("ij,ij->i", s, s), scheme, shots, amplitude)
    f_expect = math.sqrt(2 * n * var_r.sum() / eta) / n
    s_inv = np.linalg.inv(s)
    var_ln_eta = float(np.sum(s_inv.T**2 * var_r[:, None])) / (n * n * eta)
    eta_tol = ETA_SIGMAS * eta * math.sqrt(var_ln_eta)
    problems = frobenius_problems(float(np.linalg.norm(s - s_recon) / n), f_expect, 4 * n * n)
    if abs(eta_hat - eta) > eta_tol:
        problems.append(f"eta_hat={eta_hat!r} differs from {eta} by more than {eta_tol:.3g}")
    return problems


def unitary_gate(u, eta, scheme, shots, amplitude, u_hat, eta_hat) -> list[str]:
    """Passive device: S S^T = I, so every entry has the vacuum variance."""
    n = u.shape[0]
    var_entry = 2.0 * float(entry_variance(1.0, scheme, shots, amplitude))  # re + im
    f_expect = math.sqrt(var_entry / eta)
    # |d ln eta_hat| <= (2/N) |tr(u^-1 du)|, and sum |u^-1|^2 = N for unitary u
    eta_tol = ETA_SIGMAS * eta * math.sqrt(4.0 * var_entry / (n * eta))
    problems = frobenius_problems(float(np.linalg.norm(u - u_hat) / n), f_expect, 2 * n * n)
    if abs(eta_hat - eta) > eta_tol:
        problems.append(f"eta_hat={eta_hat!r} differs from {eta} by more than {eta_tol:.3g}")
    return problems


def scan_row_bounds(row: dict) -> tuple[float, float]:
    """Shot-noise range for the f_mean of one scaling-scan CSV row.

    The device is drawn inside the package, so only its squeezing range is
    known: diagonal entries of S S^T lie in [e^{-2 r_max}, e^{2 r_max}].
    """
    n, eta, amp = int(row["n_modes"]), float(row["eta"]), float(row["amplitude"])
    shots, trials, scheme = int(row["shots"]), int(row["trials"]), row["scheme"]
    if row["experiment_id"] == "unitary-scaling":
        lo_sigma = hi_sigma = 1.0
        count = 2 * n * n  # real and imaginary parts of N x N entries
    else:
        lo_sigma, hi_sigma = math.exp(-2 * R_MAX), math.exp(2 * R_MAX)
        count = 4 * n * n
    def f_of(sigma):
        var = float(entry_variance(sigma, scheme, shots, amp)) / trials
        return math.sqrt(count * var / eta) / n
    return f_of(lo_sigma) / F_LOW, F_HIGH * f_of(hi_sigma)


def phase_error_envelope(trials: int, reps: int) -> float:
    """Upper bound on the phase-error f_mean, shrinking as trials grow.

    With exact means the error of a trial average is
    |S11 (mean cos phi - 1) + S12 mean sin phi| / |(S11, S12)|, at most
    phi_max^2 / 2 plus |mean sin phi|, whose standard deviation is at most
    phi_max / sqrt(3 trials); the mean over reps of that half-normal term
    stays within PHASE_SIGMAS / sqrt(reps) deviations of its own mean. The
    phi^2 bias does not average away, so f_mean need not fall strictly.
    """
    sd = PHI_MAX / math.sqrt(3.0 * trials)
    return PHI_MAX**2 / 2.0 + sd * (1.0 + PHASE_SIGMAS / math.sqrt(reps))


def check_scan_csv(text: str, expect_rows: int) -> tuple[list[str], int, int]:
    """Gate every row of a scan CSV; returns (problems, kept, attempted)."""
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    if len(rows) != expect_rows:
        problems.append(f"{len(rows)} rows, expected {expect_rows}")
    kept = attempted = 0
    for row in rows:
        reps, dropped = int(row["repetitions"]), int(row["dropped"])
        f_mean, f_se = float(row["f_mean"]), float(row["f_stderr"])
        attempted += reps
        kept += reps - dropped
        label = f"{row['experiment_id']} n={row['n_modes']} {row['scheme']} eta={row['eta']} " \
                f"amp={row['amplitude']} trials={row['trials']}"
        if reps == dropped:
            if not math.isnan(f_mean):
                problems.append(f"{label}: all dropped but f_mean={f_mean}")
            continue
        if not math.isfinite(f_mean) or (reps - dropped >= 2 and not math.isfinite(f_se)):
            problems.append(f"{label}: non-finite f_mean={f_mean} f_stderr={f_se}")
            continue
        if row["experiment_id"] == "phase-error":
            hi = phase_error_envelope(int(row["trials"]), reps - dropped)
            if not 0.0 < f_mean <= hi:
                problems.append(f"{label}: f_mean={f_mean:.4g} outside (0, {hi:.4g}]")
            continue
        lo, hi = scan_row_bounds(row)
        if not lo <= f_mean <= hi:
            problems.append(f"{label}: f_mean={f_mean:.4g} outside [{lo:.4g}, {hi:.4g}]")
    return problems, kept, attempted


# ---------------------------------------------------------------- workloads


def _cli_unit(name, argv, out_path, settings, expect_rows) -> Unit:
    meta_path = os.path.splitext(out_path)[0] + ".meta.json"

    def call():
        for path in (out_path, meta_path):
            if os.path.exists(path):
                os.remove(path)
        return cli.main(list(argv))

    def finish(rc) -> Output:
        if rc != 0:
            return Output(b"", [f"cli.main returned {rc}"], 0, 0)
        with open(out_path, "rb") as fh:
            payload = fh.read()
        problems, kept, attempted = check_scan_csv(payload.decode(), expect_rows)
        written = len(payload) + os.path.getsize(meta_path)
        return Output(payload, problems, kept, attempted, written)

    return Unit(name, settings, call, finish)


def _analytic_oracle(model: DeviceModel) -> Callable[[], list[str]]:
    def oracle() -> list[str]:
        config = MeasurementConfig(scheme="heterodyne", shots=math.inf)
        result = gausstomo.reconstruct_symplectic(SimulatedDevice(model), AMPLITUDE, config)
        n = model.n_modes
        f = float(np.linalg.norm(model.s - result.s_recon) / n)
        problems = []
        if not f <= 1e-12:
            problems.append(f"analytic oracle: F={f!r} > 1e-12")
        if not abs(result.eta_hat - model.eta) <= 1e-12:
            problems.append(f"analytic oracle: eta_hat={result.eta_hat!r} != {model.eta}")
        return problems

    return oracle


def _oracle_device(seed: int, n: int) -> Callable[[], list[str]]:
    def oracle():
        s = gausstomo.random_symplectic(n, r_max=R_MAX, seed=sub_seed(seed, "oracle", n))
        return _analytic_oracle(DeviceModel(s, eta=0.5))()
    return oracle


def scan_small(seed: int, tiny: bool, outdir: str) -> Workload:
    modes = [2] if tiny else [2, 4, 8, 12]
    u_modes = [2] if tiny else [2, 4, 8]  # unitary-scaling defaults
    schemes, losses = ["homodyne", "heterodyne"], [0.0, 0.5]
    amps = [10.0, 100.0] if tiny else [10.0, 31.62, 100.0]
    trials = [1, 2] if tiny else [1, 10, 100]
    i_modes = 2 if tiny else 5
    phase_trials = [1, 10, 100] if tiny else [1, 10, 100, 1000, 10000]
    reps_m, reps_u, reps_i, reps_p = (2, 2, 2, 2) if tiny else (5, 10, 2, 2)
    units = [
        _cli_unit(
            "mode-scaling",
            ["experiment", "mode-scaling", "--modes", ",".join(map(str, modes)),
             "--schemes", ",".join(schemes), "--losses", ",".join(map(str, losses)),
             "--shots", "100", "--reps", str(reps_m), "--seed", str(sub_seed(seed, "mode")),
             "--out", os.path.join(outdir, "modes.csv")],
            os.path.join(outdir, "modes.csv"),
            settings=reps_m * len(losses) * len(schemes) * sum(2 * n for n in modes),
            expect_rows=len(modes) * len(schemes) * len(losses),
        ),
        _cli_unit(
            "unitary-scaling",
            ["experiment", "unitary-scaling", "--modes", ",".join(map(str, u_modes)),
             "--reps", str(reps_u), "--seed", str(sub_seed(seed, "unitary")),
             "--out", os.path.join(outdir, "unitary.csv")],
            os.path.join(outdir, "unitary.csv"),
            settings=reps_u * len(schemes) * sum(u_modes),
            expect_rows=len(u_modes) * len(schemes),
        ),
        _cli_unit(
            "intensity",
            ["experiment", "intensity", "--modes", str(i_modes),
             "--amplitudes", ",".join(map(str, amps)), "--trials", ",".join(map(str, trials)),
             "--shots", "100", "--reps", str(reps_i), "--seed", str(sub_seed(seed, "intensity")),
             "--out", os.path.join(outdir, "intensity.csv")],
            os.path.join(outdir, "intensity.csv"),
            settings=len(amps) * sum(trials) * reps_i * 2 * i_modes,
            expect_rows=len(amps) * len(trials),
        ),
        _cli_unit(
            "phase-error",
            ["experiment", "phase-error", "--phi-max", str(PHI_MAX),
             "--trials", ",".join(map(str, phase_trials)), "--reps", str(reps_p),
             "--seed", str(sub_seed(seed, "phase")), "--out", os.path.join(outdir, "phase.csv")],
            os.path.join(outdir, "phase.csv"),
            settings=reps_p * sum(phase_trials),
            expect_rows=len(phase_trials),
        ),
    ]
    params = {"modes": modes, "unitary_modes": u_modes, "intensity_modes": i_modes,
              "amplitudes": amps, "trials": trials, "shots": 100, "phi_max": PHI_MAX,
              "phase_trials": phase_trials,
              "reps": {"mode-scaling": reps_m, "unitary-scaling": reps_u, "intensity": reps_i,
                       "phase-error": reps_p}}
    return Workload("scan-small", units, _oracle_device(seed, 4), params)


def _symplectic_unit(model: DeviceModel, scheme: str, shots: int, seed: int) -> Unit:
    n = model.n_modes
    config = MeasurementConfig(scheme=scheme, shots=shots, seed=seed)

    def call():
        try:
            return gausstomo.reconstruct_symplectic(SimulatedDevice(model), AMPLITUDE, config)
        except LossRecoveryError:
            return None  # rejected by the package itself: a science drop, not a failure

    def finish(result) -> Output:
        if result is None:
            return Output(b"drop", [], 0, 1)
        payload, ok = finite_bytes(result.s_recon, np.float64(result.eta_hat))
        if not ok:
            return Output(payload, ["non-finite s_recon or eta_hat"], 1, 1)
        problems = symplectic_gate(model.s, model.eta, scheme, shots, AMPLITUDE,
                                   result.s_recon, result.eta_hat)
        return Output(payload, problems, 1, 1)

    return Unit(f"symplectic-n{n}-{scheme}-{shots}", 2 * n, call, finish)


def _unitary_unit(u: np.ndarray, model: DeviceModel, scheme: str, shots: int, seed: int) -> Unit:
    n = model.n_modes
    config = MeasurementConfig(scheme=scheme, shots=shots, seed=seed)

    def call():
        try:
            return gausstomo.reconstruct_unitary(SimulatedDevice(model), AMPLITUDE, config)
        except (LossRecoveryError, NotPassiveError):
            return None  # rejected by the package itself: a science drop, not a failure

    def finish(result) -> Output:
        if result is None:
            return Output(b"drop", [], 0, 1)
        payload, ok = finite_bytes(result.u_hat.view(np.float64), np.float64(result.eta_hat))
        if not ok:
            return Output(payload, ["non-finite u_hat or eta_hat"], 1, 1)
        problems = unitary_gate(u, model.eta, scheme, shots, AMPLITUDE,
                                result.u_hat, result.eta_hat)
        return Output(payload, problems, 1, 1)

    return Unit(f"unitary-n{n}-{scheme}-{shots}", n, call, finish)


def _wide(name: str, seed: int, tiny: bool, shots: int, with_unitary: bool) -> Workload:
    modes = [2, 3] if tiny else [32, 64]
    eta = 0.5
    units = []
    models = {}
    for n in modes:
        s = gausstomo.random_symplectic(n, r_max=R_MAX, seed=sub_seed(seed, "device", n))
        models[n] = DeviceModel(s, eta=eta)
    for n in modes:
        for scheme in ("homodyne", "heterodyne"):
            units.append(_symplectic_unit(models[n], scheme, shots,
                                          sub_seed(seed, "measure", n, scheme)))
    params = {"modes": modes, "shots": shots, "eta": eta, "amplitude": AMPLITUDE}
    if with_unitary:
        n_u = modes[-1]
        u = gausstomo.haar_unitary(n_u, seed=sub_seed(seed, "haar", n_u))
        model_u = DeviceModel(gausstomo.embed_unitary(u), eta=eta)
        for scheme in ("homodyne", "heterodyne"):
            units.append(_unitary_unit(u, model_u, scheme, shots,
                                       sub_seed(seed, "measure-unitary", n_u, scheme)))
        params["unitary_modes"] = n_u
    return Workload(name, units, _analytic_oracle(models[modes[-1]]), params)


def wide_lowshot(seed: int, tiny: bool, outdir: str) -> Workload:
    return _wide("wide-lowshot", seed, tiny, shots=100, with_unitary=True)


def wide_highshot(seed: int, tiny: bool, outdir: str) -> Workload:
    return _wide("wide-highshot", seed, tiny, shots=1000 if tiny else 10_000, with_unitary=False)


BY_NAME = {
    "scan-small": scan_small,
    "wide-lowshot": wide_lowshot,
    "wide-highshot": wide_highshot,
}


def build(name: str, seed: int, tiny: bool, outdir: str) -> Workload:
    return BY_NAME[name](seed, tiny, outdir)
