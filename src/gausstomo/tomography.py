"""Symplectic-matrix reconstruction from coherent probes and quadrature means.

The full protocol probes each input mode twice, once with a real-amplitude
coherent state and once with the same amplitude rotated by pi/2, and reads
every X and P mean at the output. Each measured mean, divided by
``sqrt(2) * amplitude``, is one element of the loss-attenuated matrix
``s_tilde = sqrt(eta) S``. Uniform loss is then recovered from
``det(s_tilde) = eta^N`` and divided out.

Passive (linear-optical) devices need only the real-amplitude probes: the
upper and lower halves of each measured column are the real and (negated)
imaginary parts of one unitary column, halving the number of settings.

A reconstruction issues its settings in order and gathers their means in one
(2N, K) array: column k holds setting k's X means over its P means, and each
reconstruction reads its matrix off that array. Setting k's config carries its
own seed stream ``derive_seed(master, k)``, row k of a stream table
(:func:`gausstomo.randgen._stream_tables`), so no setting depends on another's draws.
Averaged reconstructions, one per master seed, are issued as one plan, and their matrices
added in order as they are read. A phase-error scan checks its inputs once, then issues one
setting per phase. An overflowed mean warns nothing and is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from . import randgen
from .core import (STRUCTURAL_TOL, NotPassiveError, _array, _check_index, _check_real, _real,
                   matrix_to_json)
from .device import (_TILE_VALUES, HOMODYNE, MeasurementConfig, ProbeSpec, QuadratureSampleMeans,
                     _probe)

SQRT2 = math.sqrt(2.0)


class LossRecoveryError(RuntimeError):
    """Transmissivity recovery failed: the raw estimate has a non-finite entry or
    det(s_tilde) <= 0, or the recovered transmissivity is not finite and > 0.

    At very low shot counts (or for a non-symplectic device) the estimated
    matrix can have non-positive determinant; this is surfaced rather than
    clamped so that accuracy studies are not silently biased. A probe
    amplitude at the edge of the floating-point range can make a mean or the
    determinant overflow or underflow.
    """


class ProbeableDevice(Protocol):
    """Anything that can be probed with a coherent state and report quadrature
    sample means; satisfied by :class:`gausstomo.device.SimulatedDevice`."""

    @property
    def n_modes(self) -> int: ...

    def probe_and_measure(
        self, probe: ProbeSpec, config: MeasurementConfig
    ) -> QuadratureSampleMeans: ...


@dataclass(frozen=True)
class ReconstructionResult:
    """Raw attenuated estimate, recovered transmissivity and rescaled matrix."""

    s_tilde: np.ndarray
    eta_hat: float
    s_recon: np.ndarray
    probe_amplitude: float
    scheme: str
    shots: int | float


@dataclass(frozen=True)
class UnitaryReconstruction:
    """Reconstructed unitary of a passive device, with diagnostics."""

    u_hat: np.ndarray
    eta_hat: float
    unitarity_residual: float


def _eta_from_log(log_eta: float) -> float:
    """``exp(log_eta)``, which must be a finite, positive transmissivity."""
    with np.errstate(over="ignore"):
        eta_hat = float(np.exp(log_eta))
    if not 0 < eta_hat < math.inf:
        raise LossRecoveryError(f"recovered transmissivity {eta_hat} is not finite and > 0")
    return eta_hat


def _check_finite(finite: np.ndarray, name: str) -> None:
    """Raise :class:`LossRecoveryError` naming up to three non-``finite`` entries, 1-based."""
    if bad := (np.argwhere(~finite) + 1).tolist():
        raise LossRecoveryError(f"{name} has {len(bad)} non-finite entries, such as "
                                + ", ".join(str(tuple(entry)) for entry in bad[:3]))


def estimate_eta(s_tilde: np.ndarray) -> float:
    """Recover the uniform transmissivity from det(s_tilde) = eta^N.

    Raises:
        ValueError: if ``s_tilde`` is not a 2N x 2N matrix with N >= 1.
        LossRecoveryError: if an entry is not finite, the determinant is not
            positive, or the recovered transmissivity is not finite and > 0.
    """
    s_tilde, n = _array(s_tilde, "s_tilde")
    _check_finite(np.isfinite(s_tilde), "s_tilde")
    sign, logabsdet = np.linalg.slogdet(s_tilde)
    if not sign > 0:
        raise LossRecoveryError(
            "det(s_tilde) <= 0: shot noise too large or device not symplectic"
        )
    return _eta_from_log(logabsdet / n)


def _probe_scale(amplitude: float) -> float:
    """``sqrt(2) * amplitude``: a measured mean over this is a matrix element. An amplitude below
    2**-1022, the smallest normal float64, is rejected: its means lose digits, or overflow."""
    if not 2.0**-1022 <= (real := _real(amplitude)) < math.inf:
        normal = ", and not subnormal" if 0 < real < 2.0**-1022 else ""
        raise ValueError(f"probe amplitude must be finite and > 0{normal}, got {amplitude!r}")
    return SQRT2 * amplitude


def _probe_settings(device: ProbeableDevice, probes: list[ProbeSpec],
                    configs: list[MeasurementConfig]) -> np.ndarray:
    """Issue the K probe settings once per config, in order; returns the (2N, T K) array whose
    column t K + k holds setting k of config t's X means over its P means, non-finite where one
    overflowed. Each caller issues them and divides them by the probe scale under one overflow
    scope, so neither warns. Setting k of a finite-shot config is the checked config reseeded
    to row k of its stream table, so the settings could run concurrently."""
    n, count = device.n_modes, len(probes)
    means = np.empty((2 * n, count * len(configs)))
    for t, config in enumerate(configs):  # each config's settings built as it is issued
        settings = [config] * count
        if not config.analytic:  # the rows it carries, else a table pass of its own
            rows = config._table or randgen._stream_tables({config.seed: count})[config.seed]
            if (held := len(rows[0])) < count:
                raise ValueError(f"a stream table of {held} rows cannot seed {count} settings")
            settings = map(config._reseeded, rows[0][:count].tolist(), rows[1])
        for k, (probe, setting) in enumerate(zip(probes, settings), t * count):
            got = device.probe_and_measure(probe, setting)
            means[:n, k], means[n:, k] = got.x_means, got.p_means
    return means


def _mean_stderr(config: MeasurementConfig) -> float:
    """Shot-noise standard error of one quadrature mean of a near-coherent
    output (outcome variance 1/2 homodyne, 1 heterodyne); 0 when analytic."""
    if config.analytic:
        return 0.0
    outcome_var = 0.5 if config.scheme == HOMODYNE else 1.0
    return math.sqrt(outcome_var / config.shots_per_quadrature)


def _attenuated_sum(device: ProbeableDevice, amplitude: float,
                    configs: list[MeasurementConfig]) -> np.ndarray:
    """The raw attenuated matrices of one 2N-setting reconstruction per config of ``configs``,
    added in order: one plan, issued a chunk of about ``_TILE_VALUES`` means at a time and
    reduced onto the running sum, so memory stays O(N**2 + one chunk)."""
    scale, n = _probe_scale(amplitude), device.n_modes
    probes = [_probe(j, amplitude, phase)
              for j in range(1, n + 1) for phase in (0.0, math.pi / 2.0)]
    per, total = max(1, _TILE_VALUES // (4 * n * n)), -0.0  # t + -0.0 is t, bit for bit
    with np.errstate(over="ignore", invalid="ignore"):  # one scope per plan
        for start in range(0, len(configs), per):
            chunk = configs[start:start + per]
            means = _probe_settings(device, probes, chunk).reshape(2 * n, len(chunk), n, 2)
            # each matrix's phase 0 columns, then pi/2, each element divided as its own mean, in
            # C order: the reduction adds the matrices one by one, as sum() does
            tildes = np.divide(means.transpose(1, 0, 3, 2), scale, order="C")
            tildes[0] += total  # the running sum joins the first matrix: t0 + total
            total = np.add.reduce(tildes, 0)
    return total.reshape(2 * n, 2 * n)


def measure_attenuated_matrix(
    device: ProbeableDevice, amplitude: float, config: MeasurementConfig
) -> np.ndarray:
    """Measure the raw attenuated matrix ``s_tilde = sqrt(eta) S`` of a device.

    Issues 2N probe settings (phases 0 and pi/2 on each input mode); every
    setting fills one column of ``s_tilde`` from the measured X and P means,
    each divided by ``sqrt(2) * amplitude``. No loss recovery is attempted,
    so estimates from repeated runs can be averaged before rescaling.

    Raises:
        ValueError: amplitude not finite and > 0.
    """
    return _attenuated_sum(device, amplitude, [config])


def reconstruct_symplectic(
    device: ProbeableDevice, amplitude: float, config: MeasurementConfig
) -> ReconstructionResult:
    """Reconstruct the full 2N x 2N symplectic matrix of a device.

    Runs :func:`measure_attenuated_matrix`, recovers the transmissivity from
    the determinant of the raw estimate and divides it out.

    Args:
        device: probe-and-measure interface.
        amplitude: coherent probe amplitude, finite and > 0.
        config: measurement scheme, shots and master seed; per-setting seeds
            are derived from it, so settings could run concurrently.

    Raises:
        ValueError: amplitude not finite and > 0.
        LossRecoveryError: non-positive determinant of the raw estimate, or
            a recovered transmissivity that is not finite and > 0.
    """
    s_tilde = measure_attenuated_matrix(device, amplitude, config)
    eta_hat = estimate_eta(s_tilde)
    return ReconstructionResult(
        s_tilde=s_tilde,
        eta_hat=eta_hat,
        s_recon=s_tilde / math.sqrt(eta_hat),
        probe_amplitude=amplitude,
        scheme=config.scheme,
        shots=config.shots,
    )


def reconstruct_unitary(
    device: ProbeableDevice, amplitude: float, config: MeasurementConfig
) -> UnitaryReconstruction:
    """Reconstruct the N x N unitary of a passive device with N settings.

    Only real-amplitude probes are used. Column j of the estimate is
    ``x_means / (sqrt(2) amplitude) - i * p_means / (sqrt(2) amplitude)``;
    uniform loss is recovered from ``|det|`` and divided out.

    Raises:
        ValueError: amplitude not finite and > 0.
        LossRecoveryError: a non-finite entry or a vanishing determinant of the
            raw estimate, or a recovered transmissivity that is not finite and > 0.
        NotPassiveError: unitarity residual of the rescaled estimate exceeds
            10x the expected shot-noise scale, which signals an active device.
    """
    scale = _probe_scale(amplitude)
    n = device.n_modes
    probes = [_probe(j, amplitude, 0.0) for j in range(1, n + 1)]
    with np.errstate(over="ignore", invalid="ignore"):  # one scope per reconstruction
        means = _probe_settings(device, probes, [config])
        # divided here: 1j * p / scale divides a complex, and rounds unlike 1j * (p / scale)
        u_tilde = means[:n] / scale - 1j * means[n:] / scale
    _check_finite(np.isfinite(u_tilde), "u_tilde")

    # a vanishing determinant has log -inf and recovers eta_hat = 0
    _, logabsdet = np.linalg.slogdet(u_tilde)
    eta_hat = _eta_from_log(2.0 * logabsdet / n)
    u_hat = u_tilde / math.sqrt(eta_hat)

    residual = float(np.max(np.abs(u_hat @ u_hat.conj().T - np.eye(n))))
    # Expected residual scale: each matrix entry carries the standard error of
    # a quadrature mean divided by sqrt(2) alpha sqrt(eta).
    noise_scale = _mean_stderr(config) / (scale * math.sqrt(eta_hat)) * math.sqrt(2 * n)
    threshold = max(STRUCTURAL_TOL, 10.0 * noise_scale)
    if residual > threshold:
        raise NotPassiveError(
            f"unitarity residual {residual:.3e} exceeds {threshold:.3e}: "
            "device is not passive up to uniform loss"
        )
    return UnitaryReconstruction(u_hat=u_hat, eta_hat=eta_hat, unitarity_residual=residual)


def _phase_error_elements(device: ProbeableDevice, i: int, j: int, amplitude: float, phis,
                          config: MeasurementConfig) -> list[float]:
    """Estimates of element (i, j), one ``probe_and_measure`` per phase error in ``phis`` (floats);
    the inputs are checked first, ``phis`` at once, and a non-finite estimate raises."""
    scale = _probe_scale(amplitude)
    if not np.all(np.abs(phis) < math.pi / 4):
        raise ValueError("phase error must satisfy |phi| < pi/4")
    n = device.n_modes
    i, j = _check_index(i, "element index i", 1), _check_index(j, "element index j", 1)
    if i > n or j > n:
        raise ValueError(f"element indices ({i}, {j}) out of range 1..{n}")
    # one probe_and_measure per phase, not _probe_settings (15-30 % slower on the scan), each
    # with ``config`` unchanged: the phase-error study is analytic and the public entry issues
    # one phase, so no two sampled settings share a stream
    with np.errstate(over="ignore", invalid="ignore"):  # one context per scan, not per probe
        estimates = [float(device.probe_and_measure(_probe(j, amplitude, phi), config)
                           .x_means[i - 1] / scale) for phi in phis]
    if not all(map(math.isfinite, estimates)):
        raise ValueError(f"probe amplitude {amplitude} gives a non-finite estimate")
    return estimates


def reconstruct_element_with_phase_error(
    device: ProbeableDevice,
    i: int,
    j: int,
    amplitude: float,
    phi: float,
    config: MeasurementConfig,
) -> float:
    """Estimate matrix element (i, j), i, j <= N, with a probe phase offset.

    The probe that should have phase 0 is sent with phase ``phi``; under exact
    means the returned value is ``S_ij cos(phi) + S_{i,N+j} sin(phi)``, i.e.
    the phase error leaks the conjugate-column element in at first order.

    Args:
        i: output mode index (X quadrature row), 1-based integer.
        j: input mode index, 1-based integer.
        amplitude: coherent probe amplitude, finite and > 0.
        phi: phase-modulation error in radians, |phi| < pi/4.
    """
    return _phase_error_elements(device, i, j, amplitude, [float(_real(phi))], config)[0]


def probe_ratios(
    device: ProbeableDevice, amplitudes: list[float], config: MeasurementConfig
) -> list[float]:
    """Ratio of the first output P mean to the input X mean, per amplitude.

    For a Gaussian device the ratio is the matrix element ``S_{N+1,1}``
    regardless of amplitude; an amplitude-dependent ratio is the signature of
    dynamics beyond the Gaussian regime.

    Raises:
        ValueError: an amplitude not finite and > 0, before any probe; or,
            once every amplitude has been probed, the first amplitude whose
            ratio is not finite (the output mean overflowed).
    """
    scales = [_probe_scale(amp) for amp in amplitudes]
    probes = [_probe(1, amp, 0.0) for amp in amplitudes]
    with np.errstate(over="ignore", invalid="ignore"):  # one scope for every amplitude
        ratios = (_probe_settings(device, probes, [config])[device.n_modes] / scales).tolist()
    for amp, ratio in zip(amplitudes, ratios):
        if not math.isfinite(ratio):
            raise ValueError(f"probe amplitude {amp} gives a non-finite ratio {ratio}")
    return ratios


def default_detection_tol(amplitudes: list[float], config: MeasurementConfig) -> float:
    """5x the largest analytic shot-noise standard error among the ratios.

    Assumes a near-coherent output (outcome variance 1/2 for homodyne, 1 for
    heterodyne). Floored at the structural tolerance so the analytic backend
    is not tripped by roundoff.

    Raises:
        ValueError: no amplitude, or an amplitude not finite and > 0.
    """
    if not len(amplitudes):
        raise ValueError("need at least one probe amplitude")
    worst_se = max(_mean_stderr(config) / _probe_scale(amp) for amp in amplitudes)
    return max(STRUCTURAL_TOL, 5.0 * worst_se)


def detect_non_gaussian(
    device: ProbeableDevice,
    amplitudes: list[float],
    config: MeasurementConfig,
    tol: float | None = None,
) -> tuple[bool, list[float]]:
    """Probe at several amplitudes and flag amplitude-dependent response.

    Args:
        amplitudes: at least two distinct, finite, positive probe amplitudes.
        tol: decision threshold on the maximum pairwise ratio difference,
            finite and >= 0; defaults to :func:`default_detection_tol`.

    Returns:
        ``(non_gaussian, ratios)``: the verdict and the per-amplitude ratios.
    """
    if len(amplitudes) < 2:
        raise ValueError("need at least two probe amplitudes")
    default_tol = default_detection_tol(amplitudes, config)  # checks each amplitude, in order
    if len(set(float(a) for a in amplitudes)) != len(amplitudes):
        raise ValueError("probe amplitudes must be distinct")
    if tol is None:
        tol = default_tol
    _check_real(tol, "detection tolerance", 0)
    ratios = probe_ratios(device, amplitudes, config)
    spread = max(ratios) - min(ratios)
    return spread > tol, ratios


def reconstruction_to_json(
    result: ReconstructionResult, frobenius_vs_truth: float | None = None
) -> dict:
    """Encode a reconstruction as a JSON-ready dict.

    ``shots`` is null for the analytic backend, since JSON has no infinity.
    """
    return {
        "s_tilde": matrix_to_json(result.s_tilde, "symplectic"),
        "eta_hat": float(result.eta_hat),
        "s_recon": matrix_to_json(result.s_recon, "symplectic"),
        "scheme": result.scheme,
        "shots": None if math.isinf(result.shots) else int(result.shots),
        "amplitude": float(result.probe_amplitude),
        "frobenius_vs_truth": None if frobenius_vs_truth is None else float(frobenius_vs_truth),
    }
