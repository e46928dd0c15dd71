"""Simulated probeable device: loss + symplectic evolution + finite-shot readout.

A :class:`DeviceModel` composes uniform input loss with a symplectic map and,
optionally, a single-mode cubic nonlinearity acting on the means. A
:class:`SimulatedDevice` wraps a model behind the probe-and-measure interface
consumed by the tomography layer, so a hardware-backed implementation could
substitute for the simulator.

Measurement schemes and their sampling statistics (vacuum covariance = I):

* homodyne: one quadrature per shot, outcome variance ``sigma_ii / 2``; the
  shot budget is split half on X and half on P.
* heterodyne: both quadratures jointly per shot, covariance
  ``(sigma_block + I) / 2``; the extra vacuum unit is the noise penalty of
  the joint measurement.

With ``shots=math.inf`` the measurement is analytic: exact state means are
returned, no sampling. This is the oracle backend for exactness tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    GaussianState,
    STRUCTURAL_TOL,
    apply_symplectic,
    apply_uniform_loss,
    coherent_probe_state,
    is_symplectic,
    matrix_from_json,
    matrix_to_json,
)

HOMODYNE = "homodyne"
HETERODYNE = "heterodyne"
SCHEMES = (HOMODYNE, HETERODYNE)


@dataclass(frozen=True)
class ProbeSpec:
    """A coherent probe: input mode (1-based), amplitude and phase."""

    mode_j: int
    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if self.mode_j < 1:
            raise ValueError("mode index must be >= 1")
        if not 0 <= self.amplitude < math.inf:
            raise ValueError("probe amplitude must be finite and >= 0")


@dataclass(frozen=True)
class MeasurementConfig:
    """Measurement scheme, shot budget and RNG seed.

    ``shots`` is a positive integer, or ``math.inf`` for the analytic
    (exact-mean) backend. Homodyne splits the budget between X and P, so it
    needs at least 2 shots.
    """

    scheme: str
    shots: int | float
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if not self.analytic:
            if not 1 <= self.shots < math.inf or self.shots != int(self.shots):
                raise ValueError("shots must be a positive integer or math.inf")
            object.__setattr__(self, "shots", int(self.shots))
            if self.scheme == HOMODYNE and self.shots < 2:
                raise ValueError("homodyne needs at least 2 shots to cover both quadratures")

    @property
    def analytic(self) -> bool:
        return self.shots == math.inf

    @property
    def shots_per_quadrature(self) -> int:
        """Outcomes drawn per quadrature and setting: the floored half of the
        budget for homodyne, all of it for heterodyne, 0 when analytic."""
        if self.analytic:
            return 0
        return self.shots // 2 if self.scheme == HOMODYNE else self.shots


@dataclass(frozen=True)
class QuadratureSampleMeans:
    """Per-mode sample means of X and P, plus the shots spent per quadrature.

    ``shots_used_per_quadrature`` is 0 when the means are analytic (exact).
    """

    x_means: np.ndarray
    p_means: np.ndarray
    shots_used_per_quadrature: int


@dataclass(frozen=True)
class DeviceModel:
    """Symplectic matrix + uniform loss (+ optional single-mode cubic gate).

    ``cubic_gamma`` enables the mean-field cubic nonlinearity; it must be
    finite and is only supported for single-mode devices.
    """

    s: np.ndarray
    eta: float = 1.0
    cubic_gamma: float | None = None

    def __post_init__(self):
        s = np.array(self.s, dtype=float)
        if not is_symplectic(s, STRUCTURAL_TOL):
            raise ValueError("device matrix is not symplectic")
        if not 0 < self.eta <= 1:
            raise ValueError(f"transmissivity must be in (0, 1], got {self.eta}")
        if self.cubic_gamma is not None:
            if not math.isfinite(self.cubic_gamma):
                raise ValueError(f"cubic_gamma must be finite, got {self.cubic_gamma}")
            if s.shape != (2, 2):
                raise ValueError("cubic gate is only supported for single-mode devices")
        s.flags.writeable = False
        object.__setattr__(self, "s", s)

    @property
    def n_modes(self) -> int:
        return self.s.shape[0] // 2


def cubic_phase_mean_map(gamma: float, mean: np.ndarray) -> np.ndarray:
    """Mean-field action of a cubic phase gate on a single-mode mean vector.

    X is unchanged; P picks up ``3 gamma X^2``, evaluated at the mean.
    """
    mean = np.asarray(mean, dtype=float)
    if mean.shape != (2,):
        raise ValueError("cubic gate acts on a single mode (mean vector of length 2)")
    x, p = mean
    return np.array([x, p + 3.0 * gamma * x * x])


def evolve(model: DeviceModel, probe: ProbeSpec) -> GaussianState:
    """Propagate a coherent probe through loss, the symplectic map and the
    optional cubic gate; returns the output state.

    Loss is applied at the input, which is equivalent to uniform loss anywhere
    inside the device as far as the means are concerned.
    """
    state = coherent_probe_state(model.n_modes, probe.mode_j, probe.amplitude, probe.phase)
    state = apply_uniform_loss(model.eta, state)
    state = apply_symplectic(model.s, state)
    if model.cubic_gamma is not None:
        state = GaussianState(
            mean=cubic_phase_mean_map(model.cubic_gamma, state.mean), cov=state.cov
        )
    return state


def _mode_blocks(state: GaussianState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-mode (xx, xp, pp) covariance entries as length-N vectors."""
    n = state.n_modes
    cov = state.cov
    xx = np.diagonal(cov[:n, :n]).copy()
    pp = np.diagonal(cov[n:, n:]).copy()
    xp = (np.diagonal(cov[:n, n:]) + np.diagonal(cov[n:, :n])) / 2.0
    return xx, xp, pp


def sample_quadratures(
    state: GaussianState, config: MeasurementConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Draw raw quadrature outcomes; arrays of shape (shots_used_per_quadrature, N).

    Homodyne outcomes for X and P come from disjoint halves of the shot
    budget; heterodyne X and P columns belong to the same joint shots and are
    correlated through the per-mode covariance block.

    Raises:
        ValueError: for the analytic backend (no outcomes to draw).
    """
    if config.analytic:
        raise ValueError("analytic backend has no sample outcomes; use measure()")
    n = state.n_modes
    m = config.shots_per_quadrature
    rng = np.random.default_rng(config.seed)
    mx, mp = state.mean[:n], state.mean[n:]
    xx, xp, pp = _mode_blocks(state)

    if config.scheme == HOMODYNE:
        x = rng.normal(mx, np.sqrt(xx / 2.0), size=(m, n))
        p = rng.normal(mp, np.sqrt(pp / 2.0), size=(m, n))
        return x, p

    # Heterodyne: per-mode 2x2 covariance (block + I)/2, sampled through its
    # closed-form Cholesky factor. The Schur complement is bounded below by
    # 1/(4 a) for any PSD block, so the square roots are safe.
    a = (xx + 1.0) / 2.0
    b = xp / 2.0
    d = (pp + 1.0) / 2.0
    l11 = np.sqrt(a)
    l21 = b / l11
    l22 = np.sqrt(d - b * b / a)
    z = rng.standard_normal((m, n, 2))
    x = mx + l11 * z[:, :, 0]
    p = mp + l21 * z[:, :, 0] + l22 * z[:, :, 1]
    return x, p


def measure(state: GaussianState, config: MeasurementConfig) -> QuadratureSampleMeans:
    """Estimate all 2N quadrature means of a state under a measurement config.

    Returns exact means for the analytic backend, otherwise the sample means
    of :func:`sample_quadratures`.
    """
    n = state.n_modes
    if config.analytic:
        x_means, p_means = state.mean[:n].copy(), state.mean[n:].copy()
    else:
        x, p = sample_quadratures(state, config)
        x_means, p_means = x.mean(axis=0), p.mean(axis=0)
    return QuadratureSampleMeans(x_means, p_means, config.shots_per_quadrature)


@dataclass
class SimulatedDevice:
    """Probe-and-measure frontend over a :class:`DeviceModel`.

    Tracks the number of settings issued and probes (shots) consumed, which
    lets experiments assert that competing schemes got equal budgets. The
    counters are the only mutable state; use one instance per thread.
    """

    model: DeviceModel
    settings_used: int = field(default=0, init=False)
    probes_used: int = field(default=0, init=False)

    @property
    def n_modes(self) -> int:
        return self.model.n_modes

    def probe_and_measure(
        self, probe: ProbeSpec, config: MeasurementConfig
    ) -> QuadratureSampleMeans:
        state = evolve(self.model, probe)
        self.settings_used += 1
        # one probe per homodyne single-quadrature outcome or heterodyne shot
        self.probes_used += config.shots_per_quadrature * (2 if config.scheme == HOMODYNE else 1)
        return measure(state, config)


def device_to_json(model: DeviceModel) -> dict:
    """Encode a device model as a JSON-ready dict ({"S", "eta", "cubic_gamma"})."""
    return {
        "S": matrix_to_json(model.s, "symplectic"),
        "eta": float(model.eta),
        "cubic_gamma": None if model.cubic_gamma is None else float(model.cubic_gamma),
    }


def device_from_json(obj: dict) -> DeviceModel:
    """Decode a dict produced by :func:`device_to_json`."""
    for field in ("S", "eta"):
        if field not in obj:
            raise ValueError(f"device JSON is missing field {field!r}")
    gamma = obj.get("cubic_gamma")
    return DeviceModel(
        s=matrix_from_json(obj["S"], expect_kind="symplectic"),
        eta=float(obj["eta"]),
        cubic_gamma=None if gamma is None else float(gamma),
    )
