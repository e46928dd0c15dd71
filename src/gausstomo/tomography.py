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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Protocol

import numpy as np

from .core import STRUCTURAL_TOL, NotPassiveError, matrix_to_json
from .device import HOMODYNE, MeasurementConfig, ProbeSpec, QuadratureSampleMeans
from .randgen import derive_seed

SQRT2 = math.sqrt(2.0)


class LossRecoveryError(RuntimeError):
    """Transmissivity recovery failed: det(s_tilde) <= 0, or the recovered
    transmissivity is not finite and > 0.

    At very low shot counts (or for a non-symplectic device) the estimated
    matrix can have non-positive determinant; this is surfaced rather than
    clamped so that accuracy studies are not silently biased. A probe
    amplitude at the edge of the floating-point range can make the
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


def estimate_eta(s_tilde: np.ndarray) -> float:
    """Recover the uniform transmissivity from det(s_tilde) = eta^N.

    Raises:
        LossRecoveryError: if the determinant is not positive, or the
            recovered transmissivity is not finite and > 0.
    """
    s_tilde = np.asarray(s_tilde, dtype=float)
    if s_tilde.ndim != 2 or s_tilde.shape[0] != s_tilde.shape[1] or s_tilde.shape[0] % 2:
        raise ValueError(f"expected a 2N x 2N matrix, got shape {s_tilde.shape}")
    n = s_tilde.shape[0] // 2
    sign, logabsdet = np.linalg.slogdet(s_tilde)
    if not sign > 0:
        raise LossRecoveryError(
            "det(s_tilde) <= 0: shot noise too large or device not symplectic"
        )
    return _eta_from_log(logabsdet / n)


def _probe_scale(amplitude: float) -> float:
    """``sqrt(2) * amplitude``: a measured mean over this is a matrix element."""
    if not 0 < amplitude < math.inf:
        raise ValueError(f"probe amplitude must be finite and > 0, got {amplitude}")
    return SQRT2 * amplitude


def _probe_settings(
    device: ProbeableDevice, probes: list[ProbeSpec], config: MeasurementConfig
) -> Iterator[QuadratureSampleMeans]:
    """Issue the probe settings in order and yield their means; setting k gets
    its own seed stream ``derive_seed(config.seed, k)``, so settings could
    run concurrently."""
    for k, probe in enumerate(probes):
        setting = config if config.analytic else replace(config, seed=derive_seed(config.seed, k))
        yield device.probe_and_measure(probe, setting)


def _mean_stderr(config: MeasurementConfig) -> float:
    """Shot-noise standard error of one quadrature mean of a near-coherent
    output (outcome variance 1/2 homodyne, 1 heterodyne); 0 when analytic."""
    if config.analytic:
        return 0.0
    outcome_var = 0.5 if config.scheme == HOMODYNE else 1.0
    return math.sqrt(outcome_var / config.shots_per_quadrature)


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
    scale = _probe_scale(amplitude)
    n = device.n_modes
    probes = [
        ProbeSpec(mode_j=j, amplitude=amplitude, phase=phase)
        for j in range(1, n + 1)
        for phase in (0.0, math.pi / 2.0)
    ]
    s_tilde = np.zeros((2 * n, 2 * n))
    for probe, means in zip(probes, _probe_settings(device, probes, config)):
        col = probe.mode_j - 1 + (n if probe.phase else 0)
        s_tilde[:n, col] = means.x_means / scale
        s_tilde[n:, col] = means.p_means / scale
    return s_tilde


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
        LossRecoveryError: vanishing determinant of the raw estimate, or a
            recovered transmissivity that is not finite and > 0.
        NotPassiveError: unitarity residual of the rescaled estimate exceeds
            10x the expected shot-noise scale, which signals an active device.
    """
    scale = _probe_scale(amplitude)
    n = device.n_modes
    probes = [ProbeSpec(mode_j=j, amplitude=amplitude, phase=0.0) for j in range(1, n + 1)]
    u_tilde = np.zeros((n, n), dtype=complex)
    for col, means in enumerate(_probe_settings(device, probes, config)):
        u_tilde[:, col] = means.x_means / scale - 1j * means.p_means / scale

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
        i: output mode index (X quadrature row), 1-based.
        j: input mode index, 1-based.
        amplitude: coherent probe amplitude, finite and > 0.
        phi: phase-modulation error in radians, |phi| < pi/4.
    """
    scale = _probe_scale(amplitude)
    if not abs(phi) < math.pi / 4:
        raise ValueError("phase error must satisfy |phi| < pi/4")
    n = device.n_modes
    if not 1 <= i <= n or not 1 <= j <= n:
        raise ValueError(f"element indices ({i}, {j}) out of range 1..{n}")
    means = device.probe_and_measure(
        ProbeSpec(mode_j=j, amplitude=amplitude, phase=phi), config
    )
    return float(means.x_means[i - 1] / scale)


def probe_ratios(
    device: ProbeableDevice, amplitudes: list[float], config: MeasurementConfig
) -> list[float]:
    """Ratio of the first output P mean to the input X mean, per amplitude.

    For a Gaussian device the ratio is the matrix element ``S_{N+1,1}``
    regardless of amplitude; an amplitude-dependent ratio is the signature of
    dynamics beyond the Gaussian regime.

    Raises:
        ValueError: an amplitude not finite and > 0, or one whose ratio is
            not finite (the output mean overflowed).
    """
    scales = [_probe_scale(amp) for amp in amplitudes]
    probes = [ProbeSpec(mode_j=1, amplitude=amp, phase=0.0) for amp in amplitudes]
    ratios = []
    for amp, means, scale in zip(amplitudes, _probe_settings(device, probes, config), scales):
        ratio = float(means.p_means[0] / scale)
        if not math.isfinite(ratio):
            raise ValueError(f"probe amplitude {amp} gives a non-finite ratio {ratio}")
        ratios.append(ratio)
    return ratios


def default_detection_tol(amplitudes: list[float], config: MeasurementConfig) -> float:
    """5x the largest analytic shot-noise standard error among the ratios.

    Assumes a near-coherent output (outcome variance 1/2 for homodyne, 1 for
    heterodyne). Floored at the structural tolerance so the analytic backend
    is not tripped by roundoff.

    Raises:
        ValueError: an amplitude not finite and > 0.
    """
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
    if len(set(float(a) for a in amplitudes)) != len(amplitudes):
        raise ValueError("probe amplitudes must be distinct")
    if tol is None:
        tol = default_detection_tol(amplitudes, config)
    elif not 0 <= tol < math.inf:
        raise ValueError(f"detection tolerance must be finite and >= 0, got {tol}")
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
