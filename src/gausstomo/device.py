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

Every coherent probe has vacuum covariance and uniform loss mixes vacuum with
vacuum, so the output covariance ``S S^T`` and its sampling factors are the
same for every probe setting: a :class:`DeviceModel` computes them once, and
each setting propagates only its mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    GaussianState,
    STRUCTURAL_TOL,
    _check_probe_amplitude,
    _coherent_mean,
    apply_symplectic,
    apply_uniform_loss,
    is_symplectic,
    matrix_from_json,
    matrix_to_json,
    vacuum_state,
)

HOMODYNE = "homodyne"
HETERODYNE = "heterodyne"
SCHEMES = (HOMODYNE, HETERODYNE)


def _check_scheme(scheme: str) -> str:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    return scheme


@dataclass(frozen=True)
class ProbeSpec:
    """A coherent probe: input mode (1-based), amplitude and phase."""

    mode_j: int
    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if self.mode_j < 1:
            raise ValueError("mode index must be >= 1")
        _check_probe_amplitude(self.amplitude)


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
        _check_scheme(self.scheme)
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
    finite and is only supported for single-mode devices. The output
    covariance and the per-scheme sampling factors are computed once here.
    """

    s: np.ndarray
    eta: float = 1.0
    cubic_gamma: float | None = None
    _cov: np.ndarray = field(init=False, repr=False, compare=False)
    _factors: dict = field(init=False, repr=False, compare=False)

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
        cov = apply_symplectic(s, apply_uniform_loss(self.eta, vacuum_state(self.n_modes))).cov
        object.__setattr__(self, "_cov", cov)
        object.__setattr__(self, "_factors", {sch: _sampling_factors(cov, sch) for sch in SCHEMES})

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


def _output_mean(model: DeviceModel, probe: ProbeSpec) -> np.ndarray:
    """Output mean of a coherent probe: loss, then S, then the optional cubic gate."""
    mean = _coherent_mean(model.n_modes, probe.mode_j, probe.amplitude, probe.phase)
    mean = model.s @ (np.sqrt(model.eta) * mean)
    if model.cubic_gamma is not None:
        mean = cubic_phase_mean_map(model.cubic_gamma, mean)
    return mean


def evolve(model: DeviceModel, probe: ProbeSpec) -> GaussianState:
    """Propagate a coherent probe through loss, the symplectic map and the
    optional cubic gate; returns the output state.

    Loss is applied at the input, which is equivalent to uniform loss anywhere
    inside the device as far as the means are concerned. The covariance is the
    model's cached one: probe and loss are vacuum, the cubic gate acts on means.
    """
    return GaussianState(mean=_output_mean(model, probe), cov=model._cov)


def _sampling_factors(cov: np.ndarray, scheme: str) -> tuple[np.ndarray, ...]:
    """Per-mode homodyne X and P standard deviations, or heterodyne Cholesky
    factors (l11, l21, l22) of each mode's (block + I)/2."""
    n = cov.shape[0] // 2
    xx = np.diagonal(cov[:n, :n])
    pp = np.diagonal(cov[n:, n:])
    if scheme == HOMODYNE:
        return np.sqrt(xx / 2.0), np.sqrt(pp / 2.0)
    # The Schur complement is bounded below by 1/(4 a) for any PSD block, so
    # the square roots are safe.
    xp = (np.diagonal(cov[:n, n:]) + np.diagonal(cov[n:, :n])) / 2.0
    a = (xx + 1.0) / 2.0
    b = xp / 2.0
    d = (pp + 1.0) / 2.0
    l11 = np.sqrt(a)
    return l11, b / l11, np.sqrt(d - b * b / a)


def _draw(mean: np.ndarray, factors: tuple, config: MeasurementConfig) -> tuple[np.ndarray, ...]:
    """Raw X and P outcomes, each of shape (shots_per_quadrature, N)."""
    n = mean.size // 2
    m = config.shots_per_quadrature
    rng = np.random.default_rng(config.seed)
    mx, mp = mean[:n], mean[n:]
    if config.scheme == HOMODYNE:
        sx, sp = factors
        return rng.normal(mx, sx, size=(m, n)), rng.normal(mp, sp, size=(m, n))
    l11, l21, l22 = factors
    z = rng.standard_normal((m, n, 2))
    return mx + l11 * z[:, :, 0], mp + l21 * z[:, :, 0] + l22 * z[:, :, 1]


def _sample_means(mean: np.ndarray, factors, config: MeasurementConfig) -> QuadratureSampleMeans:
    """Exact means when analytic, otherwise the sample means of :func:`_draw`."""
    n = mean.size // 2
    if config.analytic:
        x_means, p_means = mean[:n].copy(), mean[n:].copy()
    else:
        x, p = _draw(mean, factors, config)
        x_means, p_means = x.mean(axis=0), p.mean(axis=0)
    return QuadratureSampleMeans(x_means, p_means, config.shots_per_quadrature)


def sample_quadratures(
    state: GaussianState, config: MeasurementConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Draw raw quadrature outcomes; arrays of shape (shots_used_per_quadrature, N).

    Homodyne outcomes for X and P come from disjoint halves of the shot
    budget, with variance ``sigma_ii / 2``; heterodyne X and P columns belong
    to the same joint shots, sampled from each mode's ``(block + I) / 2``.

    Raises:
        ValueError: for the analytic backend (no outcomes to draw).
    """
    if config.analytic:
        raise ValueError("analytic backend has no sample outcomes; use measure()")
    return _draw(state.mean, _sampling_factors(state.cov, config.scheme), config)


def measure(state: GaussianState, config: MeasurementConfig) -> QuadratureSampleMeans:
    """Estimate all 2N quadrature means of a state under a measurement config.

    Returns exact means for the analytic backend, otherwise the sample means
    of :func:`sample_quadratures`.
    """
    factors = None if config.analytic else _sampling_factors(state.cov, config.scheme)
    return _sample_means(state.mean, factors, config)


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
        mean = _output_mean(self.model, probe)
        self.settings_used += 1
        # one probe per homodyne single-quadrature outcome or heterodyne shot
        self.probes_used += config.shots_per_quadrature * (2 if config.scheme == HOMODYNE else 1)
        return _sample_means(mean, self.model._factors[config.scheme], config)


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
