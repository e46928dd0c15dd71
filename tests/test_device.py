import math

import numpy as np
import pytest

from gausstomo import (
    DeviceModel,
    GaussianState,
    HETERODYNE,
    HOMODYNE,
    MeasurementConfig,
    ProbeSpec,
    SimulatedDevice,
    coherent_probe_state,
    cubic_phase_mean_map,
    device_from_json,
    device_to_json,
    evolve,
    measure,
    random_symplectic,
    sample_quadratures,
    vacuum_state,
)

SQRT2 = math.sqrt(2.0)


def test_device_model_rejects_non_symplectic():
    with pytest.raises(ValueError):
        DeviceModel(2.0 * np.eye(2))


@pytest.mark.parametrize("eta", [0.0, 1.2])
def test_device_model_rejects_bad_eta(eta):
    with pytest.raises(ValueError):
        DeviceModel(np.eye(2), eta=eta)


def test_probe_spec_validation():
    with pytest.raises(ValueError):
        ProbeSpec(mode_j=0, amplitude=1.0)
    with pytest.raises(ValueError):
        ProbeSpec(mode_j=1, amplitude=-2.0)


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
    cov = rot @ np.diag([3.0, 0.3]) @ rot.T
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


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_device_model_rejects_non_finite_gamma(gamma):
    with pytest.raises(ValueError):
        DeviceModel(np.eye(2), cubic_gamma=gamma)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf])
def test_probe_spec_rejects_non_finite_amplitude(amplitude):
    with pytest.raises(ValueError):
        ProbeSpec(mode_j=1, amplitude=amplitude)


def test_probe_settings_build_no_gaussian_states(monkeypatch):
    # the output covariance is the model's, computed once; settings carry means only
    from gausstomo import reconstruct_symplectic

    model = DeviceModel(random_symplectic(4, seed=1), eta=0.5)
    built = []
    original = GaussianState.__post_init__
    monkeypatch.setattr(GaussianState, "__post_init__", lambda self: built.append(original(self)))
    device = SimulatedDevice(model)
    reconstruct_symplectic(device, 1000.0, MeasurementConfig(scheme=HETERODYNE, shots=10, seed=0))
    assert device.settings_used == 8
    assert built == []


def test_evolve_returns_cached_covariance():
    model = DeviceModel(random_symplectic(2, seed=4), eta=0.3)
    out = evolve(model, ProbeSpec(mode_j=2, amplitude=1.5, phase=0.2))
    np.testing.assert_allclose(out.cov, model.s @ model.s.T, atol=1e-12)
