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

Each mode's outcomes are drawn from the mode's own 2 x 2 block of sigma, independently of the
other modes: cross-mode correlations are absent, while each mean's variance is right (ROADMAP
item 16, a joint-law sampler, is the fix). With ``shots=math.inf`` the measurement is analytic:
:func:`measure` and a setting return exact output means before any sampling factor is formed.
This is the oracle backend. A sampling factor that is not finite raises before any draw.

Every coherent probe has vacuum covariance and uniform loss maps vacuum to vacuum, so the output
covariance ``S S^T`` and its sampling factors are the same for every setting: a
:class:`DeviceModel` forms ``S S^T`` directly, once, and each setting propagates only its mean.
A setting's shots come from a fresh PCG64 generator, seeded from ``config.seed`` as
``default_rng`` seeds it, or from the stream words its config carries (:mod:`gausstomo.randgen`).

One formula, :func:`_outcomes`, makes drawn standard normals ``z`` outcomes, ``z * scale + loc``
with heterodyne P's loc ``l21 z0 + mp``. :func:`sample_quadratures` returns all shots' outcomes
as one block, homodyne X then P as (2, shots, N), heterodyne joint shots as (shots, N, 2); a
setting of N > 1 whose shots fit one block is drawn the same way. :func:`measure` and
:meth:`SimulatedDevice.probe_and_measure` return their means, to the same bits, through one
sampler that never holds them all: it draws the same normals in blocks of about 256 KiB and
reduces each as it is drawn, adding the running sum to the next block's first shot (IEEE
addition commutes, so the bits are NumPy's row-by-row sum); at N = 1, where NumPy sums a column
pairwise, the blocks are the leaves of that split. A model tiles each scheme's factors once down
a block of at most 4096 values, one row at N = 1; :func:`measure` tiles one row, which every
block broadcasts. No model is written after it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    GaussianState,
    _array,
    _check_eta,
    _check_fields,
    _check_index,
    _check_probe,
    _check_real,
    _coherent_mean,
    _real,
    is_symplectic,
    matrix_from_json,
    matrix_to_json,
)
from .randgen import _stream

HOMODYNE = "homodyne"
HETERODYNE = "heterodyne"
SCHEMES = (HOMODYNE, HETERODYNE)


def _check_scheme(scheme: str) -> str:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    return scheme


@dataclass(frozen=True)
class ProbeSpec:
    """A coherent probe: input mode (1-based integer), amplitude and finite phase."""

    mode_j: int
    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        _check_index(self.mode_j, "mode index", 1)
        _check_probe(self.amplitude, self.phase)


def _probe(mode_j: int, amplitude: float, phase: float) -> ProbeSpec:
    """A ``ProbeSpec`` built without its checks, for a probe plan checked as a whole."""
    probe = object.__new__(ProbeSpec)
    probe.__dict__.update(mode_j=mode_j, amplitude=amplitude, phase=phase)
    return probe


@dataclass(frozen=True)
class MeasurementConfig:
    """Measurement scheme, shot budget and RNG seed.

    ``shots`` is a positive integer up to 2**53, or ``math.inf`` for the
    analytic (exact-mean) backend. Homodyne splits the budget between X and P,
    so it needs at least 2 shots.
    """

    scheme: str
    shots: int | float
    seed: int = 0

    def __post_init__(self):
        _check_scheme(self.scheme)
        object.__setattr__(self, "seed", _check_index(self.seed, "seed", 0))
        object.__setattr__(self, "analytic", self.shots == math.inf)  # read per setting
        if not self.analytic:
            shots = self.shots  # neither inf (analytic) nor NaN passes 1 <= shots
            # up to 2**53 shots a mean's divisor ``sums / m`` is exact in float64
            if not 1 <= _real(shots) <= 2**53 or shots != int(shots):
                raise ValueError(
                    f"shots must be a positive integer <= 2**53 or math.inf, got {shots!r}")
            object.__setattr__(self, "shots", int(self.shots))
            if self.scheme == HOMODYNE and self.shots < 2:
                raise ValueError("homodyne needs at least 2 shots to cover both quadratures")

    @property
    def shots_per_quadrature(self) -> int:
        """Outcomes drawn per quadrature and setting: the floored half of the
        budget for homodyne, all of it for heterodyne, 0 when analytic."""
        if self.analytic:
            return 0
        return self.shots // 2 if self.scheme == HOMODYNE else self.shots

    analytic = False  # shots == math.inf, an attribute set once, not a property per read
    _words = None  # the seed's PCG64 seeding words, when a stream table derived them
    _table = None  # a master seed's rows of a sweep's stream table, for its settings

    def _reseeded(self, seed: int, words=None, table=None) -> MeasurementConfig:
        """This config, unchecked, with ``seed`` (an int in [0, 2**64) as ``derive_seed``
        gives) and a setting's stream ``words`` or a master's ``table`` rows (see randgen)."""
        child = object.__new__(type(self))
        child.__dict__.update(self.__dict__, seed=seed, _words=words, _table=table)
        return child


@dataclass(frozen=True, init=False)
class QuadratureSampleMeans:
    """Per-mode sample means of X and P and the shots spent per quadrature, 0 if analytic. Built
    per setting, ``__init__`` fills the instance dict rather than a frozen setattr per field."""

    x_means: np.ndarray
    p_means: np.ndarray
    shots_used_per_quadrature: int

    def __init__(self, x_means, p_means, shots_used_per_quadrature):
        fields = self.__dict__
        fields["x_means"], fields["p_means"] = x_means, p_means
        fields["shots_used_per_quadrature"] = shots_used_per_quadrature


@dataclass(frozen=True)
class DeviceModel:
    """Symplectic matrix + uniform loss (+ optional single-mode cubic gate).

    ``cubic_gamma`` enables the mean-field cubic nonlinearity; it must be finite and
    is only supported for single-mode devices. The output covariance ``S S^T``, the
    sampling factor tiles and ``sqrt(eta)`` are computed once here; the model is immutable.
    """

    s: np.ndarray
    eta: float = 1.0
    cubic_gamma: float | None = None
    _cov: np.ndarray = field(init=False, repr=False, compare=False)
    _tiles: dict = field(init=False, repr=False, compare=False)
    _sqrt_eta: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s = _array(self.s, "symplectic")[0].copy("K")  # the model's own, read-only below
        if not is_symplectic(s):
            raise ValueError("device matrix is not symplectic")
        if self.cubic_gamma is not None:
            _check_real(self.cubic_gamma, "cubic_gamma")
            if s.shape != (2, 2):
                raise ValueError("cubic gate is only supported for single-mode devices")
        _check_eta(self.eta)
        s.flags.writeable = False
        object.__setattr__(self, "s", s)
        # not ``s @ s.T``: NumPy hands a product of an array and its own transpose to syrk,
        # whose bits differ from gemm's; a copy keeps the gemm of S (vacuum) S^T, bit for bit
        with np.errstate(over="ignore", invalid="ignore"):
            cov = s.copy() @ s.T
        if not np.isfinite(cov).all():
            raise ValueError("device covariance S S^T overflows float64")
        cov.flags.writeable = False
        object.__setattr__(self, "_cov", cov)
        tiles = {scheme: _tiles(_draw_factors(cov, scheme), _TILE_VALUES) for scheme in SCHEMES}
        object.__setattr__(self, "_tiles", tiles)
        object.__setattr__(self, "_sqrt_eta", np.sqrt(self.eta))

    @property
    def n_modes(self) -> int:
        return self.s.shape[0] // 2


def cubic_phase_mean_map(gamma: float, mean: np.ndarray) -> np.ndarray:
    """Mean-field action of a cubic phase gate on a single-mode mean vector.

    X is unchanged; P picks up ``3 gamma X^2``, gamma finite, at the mean, which has shape (2,).
    """
    _check_real(gamma, "cubic_gamma")
    (x, p), _ = _array(mean, "mean", 1)
    return np.array([x, p + 3.0 * gamma * x * x])


def _output_mean(model: DeviceModel, probe: ProbeSpec) -> np.ndarray:
    """Output mean of a coherent probe: loss, then S, then the optional cubic gate."""
    mean = model.s @ _coherent_mean(model.n_modes, probe.mode_j, probe.amplitude, probe.phase,
                                    model._sqrt_eta)
    if model.cubic_gamma is not None:
        mean = cubic_phase_mean_map(model.cubic_gamma, mean)
    return mean


def evolve(model: DeviceModel, probe: ProbeSpec) -> GaussianState:
    """Propagate a coherent probe through loss, the symplectic map and the
    optional cubic gate; returns the output state.

    Loss is applied at the input, which is equivalent to uniform loss anywhere
    inside the device as far as the means are concerned; the covariance is the model's own,
    physical by construction, so the state is built without rechecking it (O(N^3) per probe).
    """
    state, mean = object.__new__(GaussianState), _output_mean(model, probe)
    mean.flags.writeable = False
    state.__dict__.update(mean=mean, cov=model._cov)
    return state


def _draw_factors(cov: np.ndarray, scheme: str) -> np.ndarray | tuple[np.ndarray, ...]:
    """Per-mode factors of a scheme's draws: homodyne the (2, N) stack of X and P standard
    deviations; heterodyne ``l21`` and the (N, 2) stack of ``l11, l22``, the Cholesky factors
    (l11, l21, l22) of each mode's (block + I)/2. A factor that is not finite raises."""
    n = cov.shape[0] // 2
    xx, pp = np.diagonal(cov[:n, :n]), np.diagonal(cov[n:, n:])
    with np.errstate(all="ignore"):  # a factor that is not finite raises below, not warns
        if scheme == HOMODYNE:
            factors = np.sqrt(np.stack((xx, pp)) / 2.0)
        else:  # the Schur complement is at least 1/(4 a) for a PSD block: the roots are real
            a, d = (xx + 1.0) / 2.0, (pp + 1.0) / 2.0
            b = (np.diagonal(cov[:n, n:]) + np.diagonal(cov[n:, :n])) / 2.0 / 2.0  # xp / 2
            l11 = np.sqrt(a)
            factors = b / l11, np.stack((l11, np.sqrt(d - b * b / a)), 1)
    if not all(np.isfinite(f).all() for f in factors):  # homodyne's rows, heterodyne's pair
        raise ValueError(f"covariance has no real, finite {scheme} sampling factors")
    return factors


# float64 outcomes per block of the mean reduction: 256 KiB stay in cache from draw to sum
_BLOCK_VALUES = 1 << 15
# a model tiles each factor down a block of at most this many values (32 KiB)
_TILE_VALUES = 1 << 12  # one-row tiles, as measure() has, run the intensity sweep 3-5 % slower


def _tiles(factors, values: int) -> tuple | np.ndarray:
    """Read-only ``factors`` of a scheme repeated down a block of at most ``values`` values
    (one row at N = 1, all its sampler reads); homodyne's (2, N) stack as one (2, rows, N)."""
    rows = 1 if factors[0].size == 1 else max(1, values // factors[-1].size)
    hom = isinstance(factors, np.ndarray)
    tiles = np.repeat(factors[:, None], rows, 1) if hom else tuple(
        np.repeat(f[None], rows, 0) for f in factors)
    for tile in [tiles] if hom else tiles:
        tile.flags.writeable = False
    return tiles


def _pairwise(k: int, rows: int, leaf) -> np.ndarray:
    """The column sums of ``k`` shots as NumPy sums a column: above 128 values, the sums of two
    halves, the first ``k // 2`` rounded down to a multiple of 8. ``leaf(k)`` forms the next
    ``k`` shots in stream order once the split reaches at most ``rows``; each column is summed,
    in a flat array."""
    if k > rows:
        half = k // 2 - k // 2 % 8
        return _pairwise(half, rows, leaf) + _pairwise(k - half, rows, leaf)
    return np.array([column.sum() for column in leaf(k).reshape(k, -1).T])


def _outcomes(z: np.ndarray, loc: np.ndarray, scale, l21=None, mp=None) -> np.ndarray:
    """Drawn standard normals ``z`` made outcomes in place: given heterodyne's ``l21``, P's loc
    ``l21 z0 + mp`` is formed in ``loc``; then ``z *= scale`` and ``z += loc``."""
    if l21 is not None:
        p = np.multiply(z[..., 0], l21, out=loc[..., 1])
        np.add(p, mp, out=p)
    z *= scale
    z += loc
    return z


def _measure(mean: np.ndarray, m: int, config: MeasurementConfig, tiles,
             raw: bool = False) -> QuadratureSampleMeans | np.ndarray:
    """The X and P means of ``m`` shots per quadrature around the output ``mean`` (``raw``: their
    outcomes, as one block), drawn in blocks of about ``_BLOCK_VALUES`` values, each scaled by a
    prefix of ``config.scheme``'s ``tiles``, or their first row if taller: one block if all fit
    at N > 1, else a running sum carried across blocks continues NumPy's row-by-row sum, and at
    N = 1 the blocks are the leaves of :func:`_pairwise`, at least 128 shots unless fewer remain."""
    n = mean.size // 2
    scheme, mx, mp = config.scheme, mean[:n], mean[n:]
    rng = _stream(config.seed, config._words)
    if raw or n > 1 and 2 * m * n <= _BLOCK_VALUES:  # one block: X then P, or joint shots
        head = m if m <= len(tiles[0]) else 1  # rows of the tiles read: all m, or the first
        if scheme == HOMODYNE:
            z = _outcomes(rng.standard_normal((2, m, n)), mean.reshape(2, 1, n), tiles[:, :head])
        else:  # P's loc formed in place, as in a streamed block
            z, loc = rng.standard_normal((m, n, 2)), np.empty((m, n, 2))
            loc[:, :, 0] = mx
            z = _outcomes(z, loc, tiles[1][:head], tiles[0][:head], mp)
        if raw:
            return z
        sums = (np.add.reduce(z, 1) if scheme == HOMODYNE else np.add.reduce(z, 0).T) / m
        return QuadratureSampleMeans(sums[0], sums[1], m)
    rows = min(m, max(128 if n == 1 else 1, _BLOCK_VALUES // tiles[-1][0].size))
    if scheme == HOMODYNE:  # all X blocks, then all P; a (1, N) loc stays whole in loc[:k]
        buf, passes, l21 = np.empty((rows, n)), zip((mx[None], mp[None]), tiles[:, :1]), None
    else:  # one pass of joint shots; P's loc is filled per block
        l21, scale = (tile[:1] for tile in tiles)
        buf, loc = np.empty((rows, n, 2)), np.empty((rows, n, 2))
        loc[..., 0] = mx
        passes = [(loc, scale)]

    def block(k, loc, scale):  # the next k shots' outcomes, in buf
        return _outcomes(rng.standard_normal(out=buf[:k]), loc[:k], scale, l21, mp)

    sums = []
    for loc, scale in passes:
        if n == 1:
            total = _pairwise(m, rows, lambda k: block(k, loc, scale))
        else:
            for start in range(0, m, rows):
                z = block(min(rows, m - start), loc, scale)
                if start:  # the running sum joins the first shot: z0 + total is total + z0
                    z[0] += total
                total = np.add.reduce(z, 0)
        sums.append(total / m)
    x, p = sums if scheme == HOMODYNE else sums[0].reshape(n, 2).T
    return QuadratureSampleMeans(x, p, m)


def sample_quadratures(state: GaussianState,
                       config: MeasurementConfig) -> tuple[np.ndarray, np.ndarray]:
    """Draw raw quadrature outcomes; arrays of shape (shots_used_per_quadrature, N).

    Homodyne X and P come from disjoint halves of the shot budget, heterodyne X
    and P from the same joint shots. They are views of one block of all the shots,
    formed as :func:`measure` forms a one-block setting, so :func:`measure` returns
    their means, bit for bit. Different modes' outcomes are drawn independently,
    from each mode's 2 x 2 block of the covariance: each outcome's variance is right,
    but cross-mode correlations are absent (ROADMAP item 16 is the fix).

    Raises:
        ValueError: for the analytic backend (no outcomes to draw).
    """
    if config.analytic:
        raise ValueError("analytic backend has no sample outcomes; use measure()")
    tiles = _tiles(_draw_factors(state.cov, config.scheme), 1)
    z = _measure(state.mean, config.shots_per_quadrature, config, tiles, raw=True)
    return (z[0], z[1]) if config.scheme == HOMODYNE else (z[..., 0], z[..., 1])


def measure(state: GaussianState, config: MeasurementConfig) -> QuadratureSampleMeans:
    """A state's 2N quadrature means: exact if analytic, else :func:`sample_quadratures`' means.
    A mean that overflows warns, or not, as the caller's ``numpy.errstate`` says."""
    if config.analytic:  # exact means, views of a fresh copy, before any factor is formed
        return QuadratureSampleMeans(*state.mean.copy().reshape(2, -1), 0)
    tiles = _tiles(_draw_factors(state.cov, config.scheme), 1)  # one row: each block broadcasts it
    return _measure(state.mean.copy(), config.shots_per_quadrature, config, tiles)


@dataclass
class SimulatedDevice:
    """Probe-and-measure frontend over a :class:`DeviceModel`.

    Tracks the number of settings issued and probes (shots) consumed, which
    lets experiments assert that competing schemes got equal budgets. The
    counters are not thread-safe, so use one instance per thread; the model may
    be shared, as nothing writes to it after construction.
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
        """One setting's means, as :func:`measure` gives them for the probe's output state; a
        mean that overflows warns, or not, as the caller's ``numpy.errstate`` says."""
        mean = _output_mean(self.model, probe)  # fresh: the analytic means are views of it
        self.settings_used += 1
        if config.analytic:  # exact means, as measure() returns them
            n = mean.size // 2
            return QuadratureSampleMeans(mean[:n], mean[n:], 0)
        m = config.shots_per_quadrature  # a probe per homodyne outcome or heterodyne shot
        self.probes_used += m * (2 if config.scheme == HOMODYNE else 1)
        return _measure(mean, m, config, self.model._tiles[config.scheme])


def device_to_json(model: DeviceModel) -> dict:
    """Encode a device model as a JSON-ready dict ({"S", "eta", "cubic_gamma"})."""
    return {
        "S": matrix_to_json(model.s, "symplectic"),
        "eta": float(model.eta),
        "cubic_gamma": None if model.cubic_gamma is None else float(model.cubic_gamma),
    }


def device_from_json(obj: dict) -> DeviceModel:
    """Decode a dict produced by :func:`device_to_json`."""
    _check_fields(obj, ("S", "eta"), "device JSON")
    return DeviceModel(
        s=matrix_from_json(obj["S"], expect_kind="symplectic"),
        eta=obj["eta"],
        cubic_gamma=obj.get("cubic_gamma"),
    )
