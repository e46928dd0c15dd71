import math

import numpy as np
import pytest

from gausstomo import (
    DeviceModel,
    HETERODYNE,
    HOMODYNE,
    LossRecoveryError,
    MeasurementConfig,
    NotPassiveError,
    SimulatedDevice,
    default_detection_tol,
    detect_non_gaussian,
    embed_unitary,
    estimate_eta,
    haar_unitary,
    measure_attenuated_matrix,
    probe_ratios,
    random_symplectic,
    reconstruct_element_with_phase_error,
    reconstruct_symplectic,
    reconstruct_unitary,
    reconstruction_to_json,
    scaled_frobenius,
    symplectic_form,
)

ANALYTIC_HET = MeasurementConfig(scheme=HETERODYNE, shots=math.inf)
ANALYTIC_HOM = MeasurementConfig(scheme=HOMODYNE, shots=math.inf)


def make_device(n, eta=1.0, seed=0):
    return SimulatedDevice(DeviceModel(random_symplectic(n, seed=seed), eta=eta))


def test_estimate_eta_identity():
    assert estimate_eta(np.eye(4)) == pytest.approx(1.0, abs=1e-14)


def test_estimate_eta_scaled_identity():
    assert estimate_eta(0.5 * np.eye(2)) == pytest.approx(0.25, abs=1e-14)


def test_estimate_eta_attenuated_symplectic():
    s = random_symplectic(3, seed=1)
    assert estimate_eta(math.sqrt(0.5) * s) == pytest.approx(0.5, abs=1e-10)


def test_estimate_eta_rejects_negative_det():
    flipped = np.diag([1.0, -1.0])
    with pytest.raises(LossRecoveryError):
        estimate_eta(flipped)


def test_estimate_eta_rejects_bad_shape():
    with pytest.raises(ValueError):
        estimate_eta(np.eye(3))


def test_exact_inversion_lossless():
    dev = make_device(3, seed=2)
    result = reconstruct_symplectic(dev, 2.0, ANALYTIC_HET)
    np.testing.assert_allclose(result.s_recon, dev.model.s, atol=1e-12)
    assert result.eta_hat == pytest.approx(1.0, abs=1e-12)
    assert dev.settings_used == 6


def test_exact_inversion_with_loss():
    s = random_symplectic(2, seed=3)
    dev = SimulatedDevice(DeviceModel(s, eta=0.5))
    result = reconstruct_symplectic(dev, 1.0, ANALYTIC_HET)
    assert np.linalg.det(result.s_tilde) == pytest.approx(0.25, abs=1e-10)
    assert result.eta_hat == pytest.approx(0.5, abs=1e-10)
    np.testing.assert_allclose(result.s_recon, s, atol=1e-10)


def test_result_rescaling_invariant():
    result = reconstruct_symplectic(make_device(2, eta=0.8, seed=4), 3.0, ANALYTIC_HOM)
    np.testing.assert_allclose(
        result.s_recon, result.s_tilde / math.sqrt(result.eta_hat), atol=1e-15
    )
    assert result.eta_hat > 0


def test_reconstruction_loss_invariance():
    s = random_symplectic(2, seed=5)
    recons = [
        reconstruct_symplectic(
            SimulatedDevice(DeviceModel(s, eta=eta)), 1.0, ANALYTIC_HET
        ).s_recon
        for eta in (1.0, 0.5, 0.25)
    ]
    np.testing.assert_allclose(recons[0], recons[1], atol=1e-10)
    np.testing.assert_allclose(recons[0], recons[2], atol=1e-10)


def test_reconstruction_amplitude_invariance():
    dev_s = random_symplectic(2, seed=6)
    recons = [
        reconstruct_symplectic(SimulatedDevice(DeviceModel(dev_s)), amp, ANALYTIC_HET).s_recon
        for amp in (0.1, 1.0, 1000.0)
    ]
    np.testing.assert_allclose(recons[0], recons[1], atol=1e-10)
    np.testing.assert_allclose(recons[0], recons[2], atol=1e-10)


def test_reconstruct_rejects_bad_amplitude():
    with pytest.raises(ValueError):
        reconstruct_symplectic(make_device(1), 0.0, ANALYTIC_HET)
    with pytest.raises(ValueError):
        reconstruct_symplectic(make_device(1), -1.0, ANALYTIC_HET)


def test_reconstruct_homodyne_needs_splittable_budget():
    with pytest.raises(ValueError):
        reconstruct_symplectic(
            make_device(1), 1.0, MeasurementConfig(scheme=HOMODYNE, shots=1, seed=0)
        )


def test_reconstruct_deterministic():
    cfg = MeasurementConfig(scheme=HETERODYNE, shots=50, seed=9)
    a = reconstruct_symplectic(make_device(2, seed=7), 100.0, cfg)
    b = reconstruct_symplectic(make_device(2, seed=7), 100.0, cfg)
    np.testing.assert_array_equal(a.s_tilde, b.s_tilde)
    assert a.eta_hat == b.eta_hat


def test_loss_recovery_error_at_hopeless_budget():
    # tiny amplitude and 2 shots: determinant sign is essentially random
    errors = 0
    for seed in range(10):
        cfg = MeasurementConfig(scheme=HOMODYNE, shots=2, seed=seed)
        try:
            reconstruct_symplectic(make_device(2, seed=8), 0.05, cfg)
        except LossRecoveryError:
            errors += 1
    assert errors > 0


def test_error_scales_inversely_with_amplitude():
    f_by_amp = {}
    for amp in (10.0, 100.0):
        fs = []
        for seed in range(20):
            dev = make_device(2, seed=10)
            cfg = MeasurementConfig(scheme=HETERODYNE, shots=100, seed=seed)
            fs.append(scaled_frobenius(dev.model.s, reconstruct_symplectic(dev, amp, cfg).s_recon))
        f_by_amp[amp] = np.mean(fs)
    ratio = f_by_amp[10.0] / f_by_amp[100.0]
    assert 7.0 < ratio < 14.0


def test_error_scales_inversely_with_sqrt_shots():
    f_by_shots = {}
    for shots in (100, 400):
        fs = []
        for seed in range(20):
            dev = make_device(2, seed=11)
            cfg = MeasurementConfig(scheme=HETERODYNE, shots=shots, seed=seed)
            fs.append(
                scaled_frobenius(dev.model.s, reconstruct_symplectic(dev, 100.0, cfg).s_recon)
            )
        f_by_shots[shots] = np.mean(fs)
    ratio = f_by_shots[100] / f_by_shots[400]
    assert 1.5 < ratio < 2.7


def test_estimator_unbiased_both_schemes():
    s = random_symplectic(1, seed=12)
    eta = 0.8
    reps = 1000
    for scheme in (HOMODYNE, HETERODYNE):
        vals = np.empty(reps)
        for k in range(reps):
            dev = SimulatedDevice(DeviceModel(s, eta=eta))
            cfg = MeasurementConfig(scheme=scheme, shots=50, seed=k)
            tilde = measure_attenuated_matrix(dev, 5.0, cfg)
            vals[k] = tilde[0, 0] / math.sqrt(eta)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - s[0, 0]) < 4 * se


def test_reconstruct_unitary_identity():
    dev = SimulatedDevice(DeviceModel(np.eye(2)))
    rec = reconstruct_unitary(dev, 1.0, ANALYTIC_HOM)
    np.testing.assert_allclose(rec.u_hat, np.eye(1), atol=1e-12)
    assert rec.eta_hat == pytest.approx(1.0, abs=1e-12)
    assert dev.settings_used == 1


def test_reconstruct_unitary_phase_i():
    dev = SimulatedDevice(DeviceModel(symplectic_form(1)))
    rec = reconstruct_unitary(dev, 2.0, ANALYTIC_HOM)
    np.testing.assert_allclose(rec.u_hat, [[1j]], atol=1e-12)


def test_reconstruct_unitary_haar_with_loss():
    u = haar_unitary(4, seed=13)
    dev = SimulatedDevice(DeviceModel(embed_unitary(u), eta=0.5))
    rec = reconstruct_unitary(dev, 1.0, ANALYTIC_HET)
    np.testing.assert_allclose(rec.u_hat, u, atol=1e-10)
    assert rec.eta_hat == pytest.approx(0.5, abs=1e-10)
    assert rec.unitarity_residual < 1e-9


def test_reconstruct_unitary_finite_shots_passes_residual_gate():
    u = haar_unitary(3, seed=14)
    for scheme in (HOMODYNE, HETERODYNE):
        dev = SimulatedDevice(DeviceModel(embed_unitary(u), eta=0.9))
        cfg = MeasurementConfig(scheme=scheme, shots=100, seed=15)
        rec = reconstruct_unitary(dev, 1000.0, cfg)
        assert scaled_frobenius(u, rec.u_hat, n_modes=3) < 1e-3


def test_reconstruct_unitary_flags_active_device():
    # opposite squeezing on two modes; dets cancel so the gain alias is unavailable
    r = 0.5
    squeezer = np.diag([math.exp(r), math.exp(-r), math.exp(-r), math.exp(r)])
    with pytest.raises(NotPassiveError):
        reconstruct_unitary(SimulatedDevice(DeviceModel(squeezer)), 1.0, ANALYTIC_HOM)


def test_reconstruct_unitary_single_mode_gain_alias():
    # for one mode the residual gate cannot fire: rescaling by |det| lands
    # every 1x1 estimate on the unit circle, squeezing reads as loss or gain
    squeezer = np.diag([math.exp(0.5), math.exp(-0.5)])
    rec = reconstruct_unitary(SimulatedDevice(DeviceModel(squeezer)), 1.0, ANALYTIC_HOM)
    assert rec.unitarity_residual < 1e-12
    assert rec.eta_hat == pytest.approx(math.exp(1.0), rel=1e-10)


def test_phase_error_zero_phi_is_exact():
    s = random_symplectic(2, seed=16)
    dev = SimulatedDevice(DeviceModel(s))
    for i in (1, 2):
        for j in (1, 2):
            est = reconstruct_element_with_phase_error(dev, i, j, 1.0, 0.0, ANALYTIC_HOM)
            assert est == pytest.approx(s[i - 1, j - 1], abs=1e-12)


def test_phase_error_pure_conjugate_leak():
    # S = J has S_11 = 0 and S_12 = 1, so the estimate is exactly sin(phi)
    dev = SimulatedDevice(DeviceModel(symplectic_form(1)))
    est = reconstruct_element_with_phase_error(dev, 1, 1, 1.0, 0.05, ANALYTIC_HOM)
    assert est == pytest.approx(0.04997916927067833, abs=1e-12)


def test_phase_error_trig_identity():
    s = random_symplectic(1, seed=17)
    dev = SimulatedDevice(DeviceModel(s))
    for phi in (-0.3, 0.02, 0.17):
        est = reconstruct_element_with_phase_error(dev, 1, 1, 2.0, phi, ANALYTIC_HET)
        expected = s[0, 0] * math.cos(phi) + s[0, 1] * math.sin(phi)
        assert est == pytest.approx(expected, abs=1e-12)


def test_phase_error_trial_average_second_order():
    s = random_symplectic(1, seed=18)
    dev = SimulatedDevice(DeviceModel(s))
    rng = np.random.default_rng(19)
    phis = rng.uniform(-0.05, 0.05, 10_000)
    ests = np.array(
        [reconstruct_element_with_phase_error(dev, 1, 1, 1.0, p, ANALYTIC_HOM) for p in phis]
    )
    # exact trig identity of the averaged estimator
    expected = s[0, 0] * np.cos(phis).mean() + s[0, 1] * np.sin(phis).mean()
    assert ests.mean() == pytest.approx(expected, abs=1e-12)
    # and the second-order smallness of the residual bias
    scale = abs(s[0, 0]) + abs(s[0, 1])
    assert abs(ests.mean() - s[0, 0]) <= 2.1e-3 * scale


def test_phase_error_validation():
    dev = make_device(2, seed=20)
    with pytest.raises(ValueError):
        reconstruct_element_with_phase_error(dev, 1, 1, 1.0, math.pi / 4, ANALYTIC_HOM)
    with pytest.raises(ValueError):
        reconstruct_element_with_phase_error(dev, 0, 1, 1.0, 0.0, ANALYTIC_HOM)
    with pytest.raises(ValueError):
        reconstruct_element_with_phase_error(dev, 1, 3, 1.0, 0.0, ANALYTIC_HOM)


def cubic_device(gamma):
    return SimulatedDevice(DeviceModel(np.eye(2), cubic_gamma=gamma))


def test_detect_gaussian_device_is_quiet():
    flag, ratios = detect_non_gaussian(cubic_device(None), [1.0, 2.0], ANALYTIC_HET)
    assert not flag
    assert ratios[0] == pytest.approx(ratios[1], abs=1e-12)


def test_detect_cubic_ratios():
    flag, ratios = detect_non_gaussian(cubic_device(0.1), [1.0, 2.0], ANALYTIC_HET)
    assert flag
    assert ratios[0] == pytest.approx(3 * 0.1 * math.sqrt(2), abs=1e-12)
    assert ratios[1] == pytest.approx(3 * 0.1 * 2 * math.sqrt(2), abs=1e-12)


def test_detect_requires_distinct_amplitudes():
    with pytest.raises(ValueError):
        detect_non_gaussian(cubic_device(0.1), [1.0, 1.0], ANALYTIC_HET)
    with pytest.raises(ValueError):
        detect_non_gaussian(cubic_device(0.1), [1.0], ANALYTIC_HET)


def test_detect_finite_shots_no_false_positive_sample():
    cfg = MeasurementConfig(scheme=HETERODYNE, shots=100, seed=0)
    for seed in range(20):
        flag, _ = detect_non_gaussian(
            cubic_device(None),
            [1.0, 2.0],
            MeasurementConfig(scheme=HETERODYNE, shots=100, seed=seed),
        )
        assert not flag
    assert default_detection_tol([1.0, 2.0], cfg) == pytest.approx(
        5.0 * math.sqrt(1.0 / 100) / math.sqrt(2.0), abs=1e-12
    )


def test_default_tol_analytic_floor():
    assert default_detection_tol([1.0, 2.0], ANALYTIC_HET) == 1e-9


def test_reconstruction_json_finite_and_analytic():
    dev = make_device(1, seed=21)
    finite = reconstruct_symplectic(
        dev, 50.0, MeasurementConfig(scheme=HETERODYNE, shots=40, seed=1)
    )
    obj = reconstruction_to_json(finite, frobenius_vs_truth=0.01)
    assert obj["shots"] == 40
    assert obj["frobenius_vs_truth"] == 0.01
    assert obj["s_tilde"]["kind"] == "symplectic"
    assert obj["scheme"] == HETERODYNE
    analytic = reconstruct_symplectic(make_device(1, seed=21), 50.0, ANALYTIC_HET)
    obj = reconstruction_to_json(analytic)
    assert obj["shots"] is None
    assert obj["frobenius_vs_truth"] is None
    np.testing.assert_allclose(np.array(obj["s_recon"]["data"]), analytic.s_recon)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda dev, a: reconstruct_symplectic(dev, a, ANALYTIC_HET),
        lambda dev, a: measure_attenuated_matrix(dev, a, ANALYTIC_HET),
        lambda dev, a: reconstruct_unitary(dev, a, ANALYTIC_HET),
        lambda dev, a: reconstruct_element_with_phase_error(dev, 1, 1, a, 0.0, ANALYTIC_HOM),
        lambda dev, a: probe_ratios(dev, [1.0, a], ANALYTIC_HET),
        lambda dev, a: default_detection_tol([1.0, a], ANALYTIC_HET),
    ],
)
def test_non_finite_amplitude_rejected(call, amplitude):
    dev = SimulatedDevice(DeviceModel(np.eye(2)))
    with pytest.raises(ValueError):
        call(dev, amplitude)
    assert dev.settings_used == 0


def test_default_tol_rejects_zero_amplitude():
    with pytest.raises(ValueError):
        default_detection_tol([0.0, 1.0], MeasurementConfig(scheme=HETERODYNE, shots=100))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
def test_detect_rejects_bad_tol(tol):
    with pytest.raises(ValueError):
        detect_non_gaussian(cubic_device(0.1), [1.0, 2.0], ANALYTIC_HET, tol=tol)


# At 1e-300 the shot noise divided by sqrt(2) a makes det(s_tilde) overflow,
# so eta_hat = exp(logdet / N) is inf; at 1e308 the sample means overflow and
# eta_hat is NaN. Neither may come back as a result.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("amplitude, seed", [(1e-300, 0), (1e308, 2)])
def test_non_finite_eta_hat_is_loss_recovery_error(amplitude, seed):
    config = MeasurementConfig(scheme=HETERODYNE, shots=100, seed=seed)
    with pytest.raises(LossRecoveryError):
        reconstruct_symplectic(make_device(1, eta=0.5, seed=seed), amplitude, config)


def test_unitary_non_finite_eta_hat_is_loss_recovery_error():
    device = SimulatedDevice(DeviceModel(embed_unitary(haar_unitary(2, seed=3)), eta=0.5))
    config = MeasurementConfig(scheme=HETERODYNE, shots=100, seed=1)
    with pytest.raises(LossRecoveryError):
        reconstruct_unitary(device, 1e-300, config)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_probe_ratios_rejects_non_finite_ratio():
    config = MeasurementConfig(scheme=HETERODYNE, shots=100, seed=0)
    with pytest.raises(ValueError, match="1e\\+308"):
        probe_ratios(cubic_device(0.1), [1e308, 1.0], config)
