import dataclasses
import gc
import itertools
import math
import re
import sys
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gausstomo import (
    DeviceModel,
    GaussianState,
    HETERODYNE,
    HOMODYNE,
    MeasurementConfig,
    ProbeSpec,
    QuadratureSampleMeans,
    SCHEMES,
    SimulatedDevice,
    apply_symplectic,
    apply_uniform_loss,
    coherent_probe_state,
    cubic_phase_mean_map,
    device_from_json,
    device_to_json,
    evolve,
    measure,
    random_symplectic,
    reconstruct_symplectic,
    sample_quadratures,
    vacuum_state,
)
from gausstomo import device as device_module
from gausstomo.device import _tiles
from gausstomo.experiments import run_mode_scaling
from test_properties import _unblocked_outcomes  # the closed-form oracle, not the sampler

SQRT2 = math.sqrt(2.0)
# ints beyond float64's range, where every real input is rejected by its own message
HUGE = [pytest.param(10**400, id="10**400"), pytest.param(-10**400, id="-10**400")]


def test_device_model_rejects_non_symplectic():
    with pytest.raises(ValueError):
        DeviceModel(2.0 * np.eye(2))


# one clean error and no RuntimeWarning where S S^T, the symplectic check S J S^T, or the
# heterodyne sampling factors (the Schur complement's b * b) overflow
@pytest.mark.parametrize("s, message", [
    (np.diag([1e160, 1e-160]), "device covariance S S^T overflows float64"),
    ([[1e200, 1e200], [0.0, 1e-200]], "device matrix is not symplectic"),
    ([[1e100, 0.0], [1e100, 1e-100]], "covariance has no real, finite heterodyne sampling factors"),
], ids=["cov-overflows", "check-overflows", "factors-overflow"])
def test_device_model_rejects_a_matrix_whose_products_overflow(s, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DeviceModel(s)


# a direct probe_and_measure or measure call overflows under the caller's numpy.errstate: a
# scope per setting would cost about a quarter of an analytic probe, and every reconstruction
# holds one scope that ignores the overflow and rejects what comes back
@pytest.mark.parametrize("shots", [math.inf, 100], ids=["analytic", "sampled"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_direct_call_that_overflows_follows_the_callers_errstate(scheme, shots):
    config = MeasurementConfig(scheme, shots, seed=0)
    device = SimulatedDevice(DeviceModel(random_symplectic(3, seed=7)))
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")
        state = coherent_probe_state(3, 1, 1.7e308, 0.0)
        for got in (device.probe_and_measure(ProbeSpec(1, 1.7e308), config),
                    measure(state, config)):
            assert not np.isfinite(np.concatenate((got.x_means, got.p_means))).all()
    with np.errstate(over="warn", invalid="ignore"), pytest.warns(RuntimeWarning, match="overflow"):
        device.probe_and_measure(ProbeSpec(1, 1.7e308), config)


# a covariance whose variance is negative: homodyne's sigma_xx / 2 or heterodyne's
# (sigma_xx + 1) / 2 has no real square root. No state has it, so its factors are formed directly
NO_REAL_FACTORS = [(HOMODYNE, -0.5), (HETERODYNE, -3.0), (HETERODYNE, -1.0)]
# a physical state's covariance whose heterodyne factors overflow (the Schur complement's b * b):
# S S^T of [[1e100, 0], [1e100, 1e-100]]; its homodyne factors are finite
FACTORS_OVERFLOW = np.full((2, 2), 1e200)
UNPHYSICAL = r"^covariance matrix violates the uncertainty principle sigma \+ iJ >= 0$"


@pytest.mark.parametrize("scheme, xx", NO_REAL_FACTORS)
@pytest.mark.parametrize("sample", [measure, sample_quadratures], ids=["measure", "sample"])
def test_a_covariance_without_real_factors_raises_before_any_draw(monkeypatch, sample, scheme,
                                                                   xx):
    message = "^covariance has no real, finite {} sampling factors$"
    with pytest.raises(ValueError, match=message.format(scheme)):
        _tiles(np.diag([xx, 1.0, 1.0, 1.0]), scheme, 1)
    state = GaussianState(mean=[1.0, 2.0], cov=FACTORS_OVERFLOW)
    monkeypatch.setattr(device_module, "_stream", lambda seed, words: object())  # cannot draw
    with pytest.raises(ValueError, match=message.format(HETERODYNE)):
        sample(state, MeasurementConfig(HETERODYNE, 100, seed=0))


@pytest.mark.parametrize("scheme, xx", NO_REAL_FACTORS)
def test_analytic_measure_forms_no_sampling_factor(monkeypatch, scheme, xx):
    # the covariance without real factors builds no state; exact means come first, so a state
    # whose heterodyne factors overflow gets them: no factor is formed, so none warns or raises
    with pytest.raises(ValueError, match=UNPHYSICAL):
        GaussianState(mean=[1.0, 0.0, 2.0, 0.0], cov=np.diag([xx, 1.0, 1.0, 1.0]))
    state = GaussianState(mean=[1.0, 2.0], cov=FACTORS_OVERFLOW)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = measure(state, MeasurementConfig(scheme, math.inf))
    assert got.x_means.tolist() == [1.0] and got.p_means.tolist() == [2.0]
    assert got.shots_used_per_quadrature == 0
    monkeypatch.setattr(device_module, "_tiles", None)
    assert measure(state, MeasurementConfig(scheme, math.inf)).x_means.tolist() == [1.0]


# two covariances no quantum state has, now rejected as the state is built: a negative variance,
# and a state below vacuum (det sigma = 0.01 < 1), which 100 heterodyne shots used to sample
@pytest.mark.parametrize("mean, cov, scheme", [
    ([1.0, 0.0, 2.0, 0.0], np.diag([-0.5, 1.0, 1.0, 1.0]), HOMODYNE),
    ([1.0, 0.0], np.diag([0.1, 0.1]), HETERODYNE),
], ids=["negative-variance", "below-vacuum"])
def test_gaussian_state_rejects_an_unphysical_covariance(mean, cov, scheme):
    with pytest.raises(ValueError, match=UNPHYSICAL):
        measure(GaussianState(mean=mean, cov=cov), MeasurementConfig(scheme, 100, seed=0))


def test_a_negative_variance_beside_a_large_one_is_unphysical():
    # a tolerance on the scale of sigma's largest entry (1e12) let this state build, and its
    # real heterodyne factors drew X outcomes of variance 0.25, below vacuum's 0.5
    with pytest.raises(ValueError, match=UNPHYSICAL):
        state = GaussianState(mean=np.zeros(4), cov=np.diag([-0.5, 1e12, 1.0, 1.0]))
        sample_quadratures(state, MeasurementConfig(HETERODYNE, 100, seed=0))


def test_evolve_checks_no_covariance_per_probe(monkeypatch):
    # S S^T is physical by construction: evolve's state shares the model's covariance and runs
    # no O(N^3) check per probe, and its mean is the one GaussianState builds, read-only
    model, probe = DeviceModel(random_symplectic(3, seed=2), eta=0.6), ProbeSpec(2, 3.0, 0.4)
    want = GaussianState(mean=device_module._output_mean(model, probe), cov=model._cov)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    got = evolve(model, probe)
    assert type(got) is GaussianState and got.cov is model._cov
    assert np.array_equal(got.mean, want.mean) and got.mean.flags.writeable is False


@pytest.mark.parametrize("eta", [0.0, 1.2])
def test_device_model_rejects_bad_eta(eta):
    with pytest.raises(ValueError):
        DeviceModel(np.eye(2), eta=eta)


def test_probe_spec_validation():
    with pytest.raises(ValueError):
        ProbeSpec(mode_j=0, amplitude=1.0)
    with pytest.raises(ValueError):
        ProbeSpec(mode_j=1, amplitude=-2.0)


def test_probe_mode_above_device_rejected():
    device = SimulatedDevice(DeviceModel(np.eye(4)))
    with pytest.raises(ValueError, match="mode index 3 out of range 1..2"):
        device.probe_and_measure(ProbeSpec(mode_j=3, amplitude=1.0), MeasurementConfig(HOMODYNE, 10))


@pytest.mark.parametrize("seed", [1.5, "7", -2])
def test_measurement_config_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
        MeasurementConfig(scheme=HOMODYNE, shots=10, seed=seed)


def test_measurement_config_seed_is_an_int():
    config = MeasurementConfig(scheme=HOMODYNE, shots=10, seed=np.uint64(2**64 - 1))
    assert type(config.seed) is int and config.seed == 2**64 - 1


def test_measurement_config_validation():
    with pytest.raises(ValueError):
        MeasurementConfig(scheme="photon-counting", shots=10)
    with pytest.raises(ValueError):
        MeasurementConfig(scheme=HOMODYNE, shots=0)
    assert MeasurementConfig(scheme=HOMODYNE, shots=math.inf).analytic
    assert not MeasurementConfig(scheme=HOMODYNE, shots=10).analytic


def test_evolve_identity_device():
    out = evolve(DeviceModel(np.eye(2)), ProbeSpec(mode_j=1, amplitude=1.0))
    np.testing.assert_allclose(out.mean, [SQRT2, 0.0], atol=1e-15)
    np.testing.assert_array_equal(out.cov, np.eye(2))


def test_evolve_loss_attenuates_mean():
    out = evolve(DeviceModel(np.eye(2), eta=0.25), ProbeSpec(mode_j=1, amplitude=1.0))
    np.testing.assert_allclose(out.mean, [SQRT2 * 0.5, 0.0], atol=1e-15)


def test_evolve_real_probe_reads_column():
    s = random_symplectic(3, seed=2)
    model = DeviceModel(s)
    alpha = 4.0
    for j in (1, 2, 3):
        out = evolve(model, ProbeSpec(mode_j=j, amplitude=alpha))
        np.testing.assert_allclose(out.mean, SQRT2 * alpha * s[:, j - 1], atol=1e-12)


def test_evolve_probe_mode_out_of_range():
    with pytest.raises(ValueError):
        evolve(DeviceModel(np.eye(2)), ProbeSpec(mode_j=2, amplitude=1.0))


def test_evolve_cubic_needs_single_mode():
    with pytest.raises(ValueError):
        evolve(DeviceModel(np.eye(4), cubic_gamma=0.1), ProbeSpec(mode_j=1, amplitude=1.0))


def test_cubic_phase_mean_map_identity_at_zero_gamma():
    mean = np.array([1.3, -0.4])
    np.testing.assert_allclose(cubic_phase_mean_map(0.0, mean), mean)


def test_cubic_phase_mean_map_values():
    out = cubic_phase_mean_map(0.1, np.array([SQRT2, 0.0]))
    np.testing.assert_allclose(out, [SQRT2, 0.6], atol=1e-12)
    out = cubic_phase_mean_map(0.1, np.array([2.0 * SQRT2, 0.0]))
    np.testing.assert_allclose(out, [2.0 * SQRT2, 2.4], atol=1e-12)


# one finite-real rule and one message for a cubic gate's strength, wherever it is taken
@pytest.mark.parametrize("gamma", [True, np.True_, math.nan, math.inf, -math.inf, *HUGE, "0.1", 1j])
def test_cubic_phase_mean_map_takes_the_device_gamma_rule(gamma):
    message = f"^cubic_gamma must be finite, got {re.escape(repr(gamma))}$"
    with pytest.raises(ValueError, match=message):
        cubic_phase_mean_map(gamma, [1.0, 2.0])
    with pytest.raises(ValueError, match=message):
        DeviceModel(np.eye(2), cubic_gamma=gamma)


def test_evolve_cubic_gamma_zero_matches_plain():
    probe = ProbeSpec(mode_j=1, amplitude=1.5, phase=0.7)
    plain = evolve(DeviceModel(np.eye(2)), probe)
    gated = evolve(DeviceModel(np.eye(2), cubic_gamma=0.0), probe)
    np.testing.assert_array_equal(plain.mean, gated.mean)
    np.testing.assert_array_equal(plain.cov, gated.cov)


def test_measure_analytic_returns_exact_means():
    state = coherent_probe_state(2, 1, 3.0, 0.5)
    means = measure(state, MeasurementConfig(scheme=HOMODYNE, shots=math.inf))
    np.testing.assert_array_equal(means.x_means, state.mean[:2])
    np.testing.assert_array_equal(means.p_means, state.mean[2:])
    assert means.shots_used_per_quadrature == 0


def test_measure_homodyne_needs_two_shots():
    with pytest.raises(ValueError):
        measure(vacuum_state(1), MeasurementConfig(scheme=HOMODYNE, shots=1))


def test_measure_heterodyne_single_shot_ok():
    means = measure(vacuum_state(1), MeasurementConfig(scheme=HETERODYNE, shots=1, seed=0))
    assert means.shots_used_per_quadrature == 1


def test_homodyne_vacuum_variance():
    x, p = sample_quadratures(
        vacuum_state(1), MeasurementConfig(scheme=HOMODYNE, shots=200_000, seed=1)
    )
    assert x.shape == (100_000, 1)
    assert np.var(x) == pytest.approx(0.5, rel=0.05)
    assert np.var(p) == pytest.approx(0.5, rel=0.05)


def test_heterodyne_vacuum_variance():
    x, p = sample_quadratures(
        vacuum_state(1), MeasurementConfig(scheme=HETERODYNE, shots=100_000, seed=2)
    )
    assert x.shape == (100_000, 1)
    assert np.var(x) == pytest.approx(1.0, rel=0.05)
    assert np.var(p) == pytest.approx(1.0, rel=0.05)


def test_variance_contract_general_state():
    # squeezed-ish covariance: homodyne sees sigma/2, heterodyne (sigma+1)/2
    cov = np.diag([2.5, 0.4])
    state = GaussianState(mean=np.zeros(2), cov=cov)
    x_h, p_h = sample_quadratures(state, MeasurementConfig(scheme=HOMODYNE, shots=200_000, seed=3))
    assert np.var(x_h) == pytest.approx(2.5 / 2, rel=0.05)
    assert np.var(p_h) == pytest.approx(0.4 / 2, rel=0.05)
    x_t, p_t = sample_quadratures(state, MeasurementConfig(scheme=HETERODYNE, shots=100_000, seed=4))
    assert np.var(x_t) == pytest.approx((2.5 + 1) / 2, rel=0.05)
    assert np.var(p_t) == pytest.approx((0.4 + 1) / 2, rel=0.05)


def test_heterodyne_preserves_intra_mode_correlation():
    rot = np.array([[math.cos(0.6), math.sin(0.6)], [-math.sin(0.6), math.cos(0.6)]])
    cov = rot @ np.diag([3.0, 0.4]) @ rot.T
    state = GaussianState(mean=np.zeros(2), cov=cov)
    x, p = sample_quadratures(state, MeasurementConfig(scheme=HETERODYNE, shots=200_000, seed=5))
    sample_cov = np.cov(x[:, 0], p[:, 0])
    np.testing.assert_allclose(sample_cov, (cov + np.eye(2)) / 2, rtol=0.05, atol=0.02)


def test_measure_means_unbiased():
    state = coherent_probe_state(1, 1, 2.0, 0.3)
    for scheme in (HOMODYNE, HETERODYNE):
        reps = 1000
        rng = np.random.default_rng(6)
        xs = np.empty(reps)
        for k in range(reps):
            m = measure(state, MeasurementConfig(scheme=scheme, shots=50, seed=rng.integers(2**63)))
            xs[k] = m.x_means[0]
        se = xs.std(ddof=1) / math.sqrt(reps)
        assert abs(xs.mean() - state.mean[0]) < 4 * se


def test_measure_seed_determinism():
    state = coherent_probe_state(2, 1, 1.0, 0.0)
    cfg = MeasurementConfig(scheme=HETERODYNE, shots=64, seed=42)
    a = measure(state, cfg)
    b = measure(state, cfg)
    np.testing.assert_array_equal(a.x_means, b.x_means)
    np.testing.assert_array_equal(a.p_means, b.p_means)


def test_heterodyne_shot_noise_exceeds_homodyne():
    state = coherent_probe_state(1, 1, 1.0, 0.0)
    x_h, _ = sample_quadratures(state, MeasurementConfig(scheme=HOMODYNE, shots=100_000, seed=7))
    x_t, _ = sample_quadratures(state, MeasurementConfig(scheme=HETERODYNE, shots=50_000, seed=8))
    assert np.var(x_t) > np.var(x_h)
    assert np.var(x_t) - np.var(x_h) == pytest.approx(0.5, abs=0.05)


def test_simulated_device_counters():
    dev = SimulatedDevice(DeviceModel(np.eye(2)))
    cfg = MeasurementConfig(scheme=HOMODYNE, shots=100, seed=0)
    dev.probe_and_measure(ProbeSpec(mode_j=1, amplitude=1.0), cfg)
    dev.probe_and_measure(ProbeSpec(mode_j=1, amplitude=1.0, phase=math.pi / 2), cfg)
    assert dev.settings_used == 2
    assert dev.probes_used == 200
    het = SimulatedDevice(DeviceModel(np.eye(2)))
    het.probe_and_measure(
        ProbeSpec(mode_j=1, amplitude=1.0), MeasurementConfig(scheme=HETERODYNE, shots=100, seed=0)
    )
    assert het.probes_used == 100


def test_analytic_probe_counts_settings_only():
    dev = SimulatedDevice(DeviceModel(np.eye(2)))
    dev.probe_and_measure(
        ProbeSpec(mode_j=1, amplitude=1.0), MeasurementConfig(scheme=HOMODYNE, shots=math.inf)
    )
    assert dev.settings_used == 1
    assert dev.probes_used == 0


def test_device_json_round_trip():
    model = DeviceModel(random_symplectic(2, seed=3), eta=0.7)
    back = device_from_json(device_to_json(model))
    np.testing.assert_array_equal(back.s, model.s)
    assert back.eta == model.eta
    assert back.cubic_gamma is None
    gated = DeviceModel(np.eye(2), cubic_gamma=0.1)
    assert device_from_json(device_to_json(gated)).cubic_gamma == 0.1


def test_device_json_missing_field():
    obj = device_to_json(DeviceModel(np.eye(2)))
    del obj["eta"]
    with pytest.raises(ValueError):
        device_from_json(obj)


@pytest.mark.parametrize("shots", [-math.inf, math.nan])
def test_measurement_config_rejects_bad_shots(shots):
    with pytest.raises(ValueError):
        MeasurementConfig(scheme=HETERODYNE, shots=shots)


@pytest.mark.parametrize("scheme", [HOMODYNE, HETERODYNE])
def test_shot_budget_is_at_most_2_to_the_53(scheme):
    # up to 2**53 shots a mean's divisor is exact in float64; a larger budget
    # would keep a setting drawing for ever instead of being rejected
    assert MeasurementConfig(scheme, 2**53).shots == 2**53
    assert MeasurementConfig(scheme, 2.0**53).shots == 2**53
    for shots in (2**53 + 1, 1e300, 10**400):
        with pytest.raises(ValueError, match=re.escape(
                f"shots must be a positive integer <= 2**53 or math.inf, got {shots!r}")):
            MeasurementConfig(scheme, shots)


def test_measurement_config_homodyne_budget_checked_at_construction():
    with pytest.raises(ValueError):
        MeasurementConfig(scheme=HOMODYNE, shots=1)


@pytest.mark.parametrize(
    "scheme, shots, per_quadrature",
    [(HOMODYNE, 2, 1), (HOMODYNE, 7, 3), (HETERODYNE, 7, 7), (HOMODYNE, math.inf, 0),
     (HETERODYNE, math.inf, 0)],
)
def test_shots_per_quadrature(scheme, shots, per_quadrature):
    config = MeasurementConfig(scheme=scheme, shots=shots, seed=1)
    assert config.shots_per_quadrature == per_quadrature
    device = SimulatedDevice(DeviceModel(np.eye(4)))
    means = device.probe_and_measure(ProbeSpec(mode_j=2, amplitude=1.0), config)
    assert means.shots_used_per_quadrature == per_quadrature
    assert device.probes_used == per_quadrature * (2 if scheme == HOMODYNE else 1)


def test_device_model_rejects_multimode_cubic_gate():
    with pytest.raises(ValueError, match="single-mode"):
        DeviceModel(np.eye(4), cubic_gamma=0.1)


@pytest.mark.parametrize("s, message", [(np.ones((2, 2)), "not symplectic"),
                                        (np.eye(4), "single-mode")])
def test_device_model_checks_s_then_the_cubic_gate_then_eta(s, message):
    with pytest.raises(ValueError, match=message):
        DeviceModel(s, eta=2.0, cubic_gamma=0.1)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_device_model_rejects_non_finite_gamma(gamma):
    with pytest.raises(ValueError):
        DeviceModel(np.eye(2), cubic_gamma=gamma)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, *HUGE])
def test_probe_spec_rejects_non_finite_amplitude(amplitude):
    with pytest.raises(ValueError, match="^probe amplitude must be finite and >= 0, got "):
        ProbeSpec(mode_j=1, amplitude=amplitude)


def test_probe_settings_build_no_gaussian_states(monkeypatch):
    # the output covariance is the model's, formed directly; settings carry means only
    built = []
    original = GaussianState.__post_init__
    monkeypatch.setattr(GaussianState, "__post_init__", lambda self: built.append(original(self)))
    device = SimulatedDevice(DeviceModel(random_symplectic(4, seed=1), eta=0.5))
    reconstruct_symplectic(device, 1000.0, MeasurementConfig(scheme=HETERODYNE, shots=10, seed=0))
    assert device.settings_used == 8
    assert built == []


def test_evolve_returns_cached_covariance():
    # bit for bit the covariance of vacuum through loss and S; NumPy's product of S and
    # its own transpose (syrk) differs in the last bits under some BLAS kernels
    for n, (seed, eta) in itertools.product([1, 2, 3, 5, 16, 64], [(4, 0.3), (5, 1.0), (6, 1 / 3)]):
        s = random_symplectic(n, seed=seed)
        out = evolve(DeviceModel(s, eta=eta), ProbeSpec(mode_j=1, amplitude=1.5, phase=0.2))
        reference = apply_symplectic(s, apply_uniform_loss(eta, vacuum_state(n))).cov
        assert out.cov.tobytes() == reference.tobytes()


@pytest.mark.parametrize("shots", [2, math.inf])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_measure_builds_no_model_sized_tiles(scheme, shots):
    # one-row factors, broadcast by the sampler: at N = 64 a model's tiles take 48-64 KiB
    # per scheme, the one-row factors 1-2 KiB
    state = evolve(DeviceModel(random_symplectic(64, seed=0), eta=0.5), ProbeSpec(3, 10.0))
    config = MeasurementConfig(scheme, shots, seed=1)
    measure(state, config)  # warm-up
    tracemalloc.start()
    try:
        measure(state, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**10


def test_heterodyne_means_use_bounded_memory():
    # the shots are reduced block by block: the 2e5 x 16 x 2 outcomes (51 MB)
    # are never held at once
    device = SimulatedDevice(DeviceModel(random_symplectic(16, seed=0), eta=0.8))
    config = MeasurementConfig(scheme=HETERODYNE, shots=200_000, seed=0)
    tracemalloc.start()
    try:
        device.probe_and_measure(ProbeSpec(mode_j=3, amplitude=10.0), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


class _CountingStream:
    """A generator that records the row count of every ``standard_normal`` fill into
    ``out``, or the ``size`` of a fresh draw."""

    def __init__(self, rng, fills):
        self.rng, self.fills = rng, fills

    def standard_normal(self, size=None, out=None):
        self.fills.append(len(out) if size is None else size)
        return self.rng.standard_normal(size, out=out)


@pytest.mark.parametrize("shots", [3, 128, 129, 1000, 3001, 4099])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_one_mode_means_stream_in_pairwise_leaves(monkeypatch, scheme, shots):
    # a block of 256 values holds 256 homodyne or 128 heterodyne shots, so
    # thousands of shots span several leaves of NumPy's pairwise split
    model = DeviceModel(random_symplectic(1, seed=3), eta=0.7)
    probe = ProbeSpec(1, 10.0, 0.3)
    config = MeasurementConfig(scheme, shots, seed=shots)
    x, p = _unblocked_outcomes(evolve(model, probe), config)
    monkeypatch.setattr(device_module, "_BLOCK_VALUES", 256)
    fills, stream = [], device_module._stream
    monkeypatch.setattr(device_module, "_stream",
                        lambda *args: _CountingStream(stream(*args), fills))
    rows = 256 if scheme == HOMODYNE else 128
    for got in (SimulatedDevice(model).probe_and_measure(probe, config),
                measure(evolve(model, probe), config)):
        assert np.array_equal(got.x_means, x.mean(axis=0))
        assert np.array_equal(got.p_means, p.mean(axis=0))
    assert max(fills) <= rows
    passes = 2 * (2 if scheme == HOMODYNE else 1)  # two calls; homodyne draws X, then P
    assert sum(fills) == passes * config.shots_per_quadrature
    if config.shots_per_quadrature > 2 * rows:  # at least three leaves per pass
        assert len(fills) >= 3 * passes


@pytest.mark.parametrize("scheme", SCHEMES)
def test_one_mode_reconstruction_uses_bounded_memory(scheme):
    # 400003 heterodyne shots drawn as one block would take 6.4 MB; a leaf
    # holds at most one block of 256 KiB
    device = SimulatedDevice(DeviceModel(random_symplectic(1, seed=1), eta=0.7))
    reconstruct_symplectic(device, 100.0, MeasurementConfig(scheme, 10, seed=3))  # warm-up
    tracemalloc.start()
    try:
        reconstruct_symplectic(device, 100.0, MeasurementConfig(scheme, 400_003, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_sample_quadratures_has_no_analytic_outcomes():
    state = evolve(DeviceModel(np.eye(2)), ProbeSpec(1, 1.0))
    with pytest.raises(ValueError, match=r"^analytic backend has no sample outcomes; "
                                         r"use measure\(\)$"):
        sample_quadratures(state, MeasurementConfig(HETERODYNE, math.inf))


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf, *HUGE])
def test_probe_spec_rejects_non_finite_phase(phase):
    with pytest.raises(ValueError, match="^probe phase must be finite, got "):
        ProbeSpec(mode_j=1, amplitude=1.0, phase=phase)


@pytest.mark.parametrize("mode_j", [1.5, 2.0, "2", None])
def test_probe_spec_rejects_non_integer_mode(mode_j):
    with pytest.raises(ValueError, match="mode index must be an integer"):
        ProbeSpec(mode_j=mode_j, amplitude=1.0)


def test_probe_spec_accepts_numpy_integer_mode():
    device = SimulatedDevice(DeviceModel(np.eye(4)))
    config = MeasurementConfig(HETERODYNE, math.inf)
    got = device.probe_and_measure(ProbeSpec(mode_j=np.int64(2), amplitude=1.0), config)
    want = device.probe_and_measure(ProbeSpec(mode_j=2, amplitude=1.0), config)
    assert np.array_equal(got.x_means, want.x_means) and np.array_equal(got.p_means, want.p_means)


def test_analytic_probe_results_do_not_alias():
    device = SimulatedDevice(DeviceModel(random_symplectic(3, seed=2), eta=0.6))
    config = MeasurementConfig(HOMODYNE, math.inf)
    probe = ProbeSpec(mode_j=2, amplitude=3.0, phase=0.4)
    first, second, fresh = (device.probe_and_measure(probe, config) for _ in range(3))
    for a in (first.x_means, first.p_means):
        for b in (second.x_means, second.p_means):
            assert not np.shares_memory(a, b)
    first.x_means[:] = first.p_means[:] = 0.0
    assert np.array_equal(second.x_means, fresh.x_means)
    assert np.array_equal(second.p_means, fresh.p_means)


# the draws of one setting in blocks of 60 values: none when analytic; a setting whose 2 q N
# values fit one block draws them as one, homodyne X then P as a (2, q, N) block, heterodyne
# a (q, N, 2) block; a larger one draws each homodyne quadrature, or the joint shots, in
# blocks of at most 60 values (homodyne at 22 shots a block each); N = 1 draws its leaves of
# at least 128 shots
@pytest.mark.parametrize("n, scheme, shots, draws", [
    (3, HOMODYNE, math.inf, []), (3, HETERODYNE, math.inf, []), (1, HOMODYNE, math.inf, []),
    (3, HOMODYNE, 20, [(2, 10, 3)]), (3, HOMODYNE, 22, [11, 11]),
    (3, HOMODYNE, 50, [20, 5, 20, 5]), (3, HETERODYNE, 10, [(10, 3, 2)]),
    (3, HETERODYNE, 11, [10, 1]), (1, HOMODYNE, 100, [50, 50]), (1, HETERODYNE, 100, [100]),
], ids=["analytic-hom", "analytic-het", "analytic-one-mode", "homodyne-one-block",
        "homodyne-past-one-block", "homodyne-blocks", "heterodyne-one-block",
        "heterodyne-blocks", "one-mode-homodyne", "one-mode-heterodyne"])
def test_each_path_returns_frozen_means_and_counts_its_setting(monkeypatch, n, scheme, shots,
                                                               draws):
    model = DeviceModel(random_symplectic(n, seed=5), eta=0.7)
    device, probe = SimulatedDevice(model), ProbeSpec(1, 10.0, 0.3)
    config = MeasurementConfig(scheme, shots, seed=9)
    state = evolve(model, probe)
    if config.analytic:
        x, p = state.mean[:n], state.mean[n:]
    else:
        x, p = (outcomes.mean(axis=0) for outcomes in _unblocked_outcomes(state, config))
    want = QuadratureSampleMeans(x, p, config.shots_per_quadrature)
    monkeypatch.setattr(device_module, "_BLOCK_VALUES", 60)
    fills, stream = [], device_module._stream
    monkeypatch.setattr(device_module, "_stream",
                        lambda *args: _CountingStream(stream(*args), fills))
    per_setting = config.shots_per_quadrature * (2 if scheme == HOMODYNE else 1)
    got = []
    gc.collect()
    gc.disable()  # a reference cycle would leave a setting's buffers to the cyclic collector
    try:
        for calls in (1, 2):
            fills.clear()
            got.append(device.probe_and_measure(probe, config))
            assert fills == draws
            assert (device.settings_used, device.probes_used) == (calls, calls * per_setting)
        fills.clear()
        got.append(measure(state, config))
        assert fills == draws
        assert gc.collect() == 0
    finally:
        gc.enable()
    names = [f.name for f in dataclasses.fields(QuadratureSampleMeans)]
    for means in got:
        assert type(means) is QuadratureSampleMeans and list(vars(means)) == names
        for name in names:
            value, expected = getattr(means, name), getattr(want, name)
            assert type(value) is type(expected) and np.array_equal(value, expected)
        with pytest.raises(dataclasses.FrozenInstanceError):
            means.x_means = means.p_means
    for a in (got[0].x_means, got[0].p_means):  # two calls never share an array
        assert not any(np.shares_memory(a, b) for b in (got[1].x_means, got[1].p_means))


@pytest.mark.parametrize("shots", [math.inf, 7])
@pytest.mark.parametrize("scheme", [HOMODYNE, HETERODYNE])
def test_measure_never_aliases_the_state_mean(scheme, shots):
    state = evolve(DeviceModel(random_symplectic(2, seed=3)), ProbeSpec(mode_j=1, amplitude=2.0))
    means = measure(state, MeasurementConfig(scheme, shots, seed=1))
    for got in (means.x_means, means.p_means):
        assert not np.shares_memory(got, state.mean)
    assert state.mean.flags.writeable is False


def test_factor_tiles_die_with_their_model():
    model = DeviceModel(random_symplectic(3, seed=1), eta=0.5)
    device = SimulatedDevice(model)
    for scheme in (HOMODYNE, HETERODYNE):
        device.probe_and_measure(ProbeSpec(1, 10.0), MeasurementConfig(scheme, 100, seed=0))
    tiles = [weakref.ref(tile) for scheme in SCHEMES for tile in model._tiles[scheme]]
    ref = weakref.ref(model)
    del model, device
    assert ref() is None  # freed by its reference count: no cycle and no outside holder
    assert all(tile() is None for tile in tiles)
    # and no module-level container could hold another copy
    assert not [name for name, value in vars(device_module).items() if not name.startswith("__")
                and (isinstance(value, (dict, list, set, np.ndarray)) or hasattr(value, "cache_info"))]


def _snapshot(value):
    """``value`` with every array in it, nested in dicts and tuples, as its bytes."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, dict):
        return {key: _snapshot(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return tuple(map(_snapshot, value))
    return value


def test_probing_leaves_a_model_unchanged():
    # shot counts on both sides of the tile cap, N = 1 (which reads the tiles' first rows) included
    for n in (1, 8):
        model = DeviceModel(random_symplectic(n, seed=2), eta=0.6)
        before = _snapshot(vars(model))
        assert set(before["_tiles"]) == set(SCHEMES)
        device = SimulatedDevice(model)
        for scheme, shots in itertools.product(SCHEMES, [2, 3, 100, 1000, 10_000, math.inf]):
            device.probe_and_measure(ProbeSpec(1, 10.0, 0.3), MeasurementConfig(scheme, shots))
        assert _snapshot(vars(model)) == before
        assert not any(tile.flags.writeable for tiles in model._tiles.values() for tile in tiles)


@pytest.mark.parametrize("n, shot_counts, rounds", [(1, [4, 10], 200), (3, [2, 5, 101, 3000], 25)],
                         ids=["one-mode", "three-mode"])
def test_threads_sharing_a_model_get_the_serial_means(n, shot_counts, rounds):
    # at N = 1 a heterodyne leaf spans every shot, 4 or 10 rows: a thread that
    # read another's block shape would keep only its last block's sum. Each
    # thread starts the settings at its own offset, so threads draw different
    # shot counts of one scheme at once.
    model = DeviceModel(random_symplectic(n, seed=4), eta=0.8)
    configs = [MeasurementConfig(scheme, shots, seed=k)
               for k, (scheme, shots) in enumerate(itertools.product(SCHEMES, shot_counts))]
    probe = ProbeSpec(1, 10.0, 0.3)
    want = [SimulatedDevice(model).probe_and_measure(probe, config) for config in configs]
    barrier = threading.Barrier(4, timeout=60)

    def run(offset):
        device = SimulatedDevice(model)  # its counters are its own
        order = list(range(offset, offset + rounds * len(configs)))
        barrier.wait()
        return [(k % len(configs), device.probe_and_measure(probe, configs[k % len(configs)]))
                for k in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL over as often as the interpreter checks
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = list(pool.map(run, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for k, got in itertools.chain.from_iterable(runs):
        np.testing.assert_array_equal(got.x_means, want[k].x_means)
        np.testing.assert_array_equal(got.p_means, want[k].p_means)


def test_wide_model_tiles_hold_at_most_the_cap():
    # at N = 64 a heterodyne block of 256 x 64 x 2 values is taller than the
    # tiles and reads their first row; each tile holds at most the cap's values
    model = DeviceModel(random_symplectic(64, seed=0), eta=0.8)
    config = MeasurementConfig(HETERODYNE, 10_000, seed=0)
    SimulatedDevice(model).probe_and_measure(ProbeSpec(mode_j=3, amplitude=10.0), config)
    for scheme in SCHEMES:
        # homodyne's X and P tiles are the two rows of one (2, rows, N) array the model owns
        tiles = model._tiles[scheme]
        owner = tiles if scheme == HOMODYNE else None
        assert owner is None or owner.flags.owndata
        for tile, factor in zip(tiles, _tiles(model._cov, scheme, 1), strict=True):
            assert tile.base is owner and tile.size <= device_module._TILE_VALUES
            assert np.array_equal(tile, np.broadcast_to(factor, tile.shape))
    assert len(model._tiles[HETERODYNE][0]) == device_module._TILE_VALUES // 128 < 256


def test_scaling_sweep_memory_does_not_grow_with_its_devices():
    # each repetition draws two devices at N = 8, whose models tile their factors;
    # the tiles must die with their models. From 2 to 20 repetitions the sweep's
    # stream table and records grow by about 100 KB, kept tiles would add 36 sets
    tile_bytes = sum(tile.nbytes for tiles in DeviceModel(np.eye(16))._tiles.values()
                     for tile in tiles)

    def peak(repetitions):
        gc.collect()
        tracemalloc.start()
        try:
            run_mode_scaling([8], eta_list=(1.0, 0.5), shots=100, repetitions=repetitions, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # the first sweep in a process also allocates what later sweeps reuse
    assert peak(20) - peak(2) < 2 * tile_bytes
