import contextlib
import dataclasses
import math
import re

import numpy as np
import pytest

from gausstomo import (
    DeviceModel,
    HETERODYNE,
    HOMODYNE,
    LossRecoveryError,
    MeasurementConfig,
    NotPassiveError,
    ProbeSpec,
    QuadratureSampleMeans,
    SimulatedDevice,
    default_detection_tol,
    derive_seed,
    detect_non_gaussian,
    embed_unitary,
    estimate_eta,
    evolve,
    haar_unitary,
    measure,
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
from gausstomo import experiments, randgen
from gausstomo.experiments import run_mode_scaling

ANALYTIC_HET = MeasurementConfig(scheme=HETERODYNE, shots=math.inf)
ANALYTIC_HOM = MeasurementConfig(scheme=HOMODYNE, shots=math.inf)
# ints beyond float64's range, where every real input is rejected by its own message
HUGE = [pytest.param(10**400, id="10**400"), pytest.param(-10**400, id="-10**400")]


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
    with pytest.raises(ValueError):
        estimate_eta(np.zeros((0, 0)))


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


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("scheme, shots", [(HOMODYNE, math.inf), (HETERODYNE, math.inf),
                                           (HOMODYNE, 100), (HOMODYNE, 12_000),
                                           (HETERODYNE, 100)])
def test_reconstructions_return_c_ordered_arrays(n, scheme, shots):
    # a caller may read a result's buffer, as u_hat.view(np.float64) does, which needs its
    # last axis contiguous; at N = 3, 12000 homodyne shots do not fit one sampling block
    config = MeasurementConfig(scheme, shots, seed=4)
    result = reconstruct_symplectic(make_device(n, eta=0.8, seed=2), 1000.0, config)
    u_hat = reconstruct_unitary(SimulatedDevice(DeviceModel(
        embed_unitary(haar_unitary(n, seed=2)), eta=0.8)), 1000.0, config).u_hat
    for a in (result.s_tilde, result.s_recon, u_hat):
        assert a.flags.c_contiguous
    assert u_hat.view(np.float64).shape == (n, 2 * n)


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


class _MatrixDevice:
    """A probeable device whose probe of mode j reads column j of the complex matrix
    ``u_tilde`` as ``reconstruct_unitary`` reads it, whatever the shots."""

    def __init__(self, u_tilde):
        self.u_tilde = np.asarray(u_tilde, dtype=complex)

    @property
    def n_modes(self):
        return len(self.u_tilde)

    def probe_and_measure(self, probe, config):
        column = math.sqrt(2.0) * probe.amplitude * self.u_tilde[:, probe.mode_j - 1]
        return QuadratureSampleMeans(column.real, -column.imag, config.shots_per_quadrature)


# two modes at 100 heterodyne shots and amplitude 1: each entry's noise scale is
# 0.1 / sqrt(2), so the residual gate is 10 sqrt(2 N) 0.1 / sqrt(2) = sqrt(2)
_GATE_CONFIG = MeasurementConfig(HETERODYNE, 100)


def test_reconstruct_unitary_flags_a_residual_above_ten_noise_scales():
    # diag(2, 1/2) keeps |det| = 1, so eta_hat = 1 and the residual is 2**2 - 1 = 3,
    # between the gate (1.41) and 100 noise scales (14.1)
    message = r"^unitarity residual 3\.000e\+00 exceeds 1\.414e\+00"
    with pytest.raises(NotPassiveError, match=message):
        reconstruct_unitary(_MatrixDevice(np.diag([2.0, 0.5])), 1.0, _GATE_CONFIG)


def test_reconstruct_unitary_noise_scale_grows_with_sqrt_2n():
    # a residual of 1.2 lies between the gate of sqrt(N) (1.0) and sqrt(2 N) (1.41)
    # noise scales: it must pass
    d = math.sqrt(2.2)
    rec = reconstruct_unitary(_MatrixDevice(np.diag([d, 1 / d])), 1.0, _GATE_CONFIG)
    assert rec.unitarity_residual == pytest.approx(1.2, rel=1e-12)
    assert rec.eta_hat == pytest.approx(1.0, rel=1e-12)


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
    for phi in (10**400, -10**400):  # beyond float64's range: no OverflowError
        with pytest.raises(ValueError, match=r"^phase error must satisfy \|phi\| < pi/4$"):
            reconstruct_element_with_phase_error(dev, 1, 1, 1.0, phi, ANALYTIC_HOM)
    assert dev.settings_used == 0


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


# 10**400 is beyond float64's range, so it would overflow sqrt(2) a (-10**400 is negative)
@pytest.mark.parametrize("amplitude", [math.nan, math.inf, HUGE[0]])
@pytest.mark.parametrize(
    "call",
    [
        lambda dev, a: reconstruct_symplectic(dev, a, ANALYTIC_HET),
        lambda dev, a: measure_attenuated_matrix(dev, a, ANALYTIC_HET),
        lambda dev, a: reconstruct_unitary(dev, a, ANALYTIC_HET),
        lambda dev, a: reconstruct_element_with_phase_error(dev, 1, 1, a, 0.0, ANALYTIC_HOM),
        lambda dev, a: probe_ratios(dev, [1.0, a], ANALYTIC_HET),
        lambda dev, a: default_detection_tol([1.0, a], ANALYTIC_HET),
        lambda dev, a: default_detection_tol([], ANALYTIC_HET),  # no amplitude at all
    ],
)
def test_non_finite_amplitude_rejected(call, amplitude):
    dev = SimulatedDevice(DeviceModel(np.eye(2)))
    with pytest.raises(ValueError, match="probe amplitude"):
        call(dev, amplitude)
    assert dev.settings_used == 0


def test_default_tol_rejects_zero_amplitude():
    with pytest.raises(ValueError):
        default_detection_tol([0.0, 1.0], MeasurementConfig(scheme=HETERODYNE, shots=100))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3, *HUGE])
def test_detect_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="^detection tolerance must be finite and >= 0, got "):
        detect_non_gaussian(cubic_device(0.1), [1.0, 2.0], ANALYTIC_HET, tol=tol)


# At 1e-300 the shot noise divided by sqrt(2) a makes det(s_tilde) overflow,
# so eta_hat = exp(logdet / N) is inf; at 1e308 the sample means overflow, and
# s_tilde has non-finite entries. Neither may come back as a result, nor warn.
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


_SUBNORMAL = r"^probe amplitude must be finite and > 0, and not subnormal, got "


# Below 2**-1022 a mean loses digits (analytic reconstructions of
# random_symplectic(3, seed=7) at eta = 0.5 were off by F = 3e-14 at 1e-310 and
# by 2.8e-4 at 1e-320) or, with shot noise divided by sqrt(2) a, overflows: a
# subnormal amplitude is rejected before any probe; 2**-1022 is not.
@pytest.mark.parametrize("reconstruct, shots", [
    (reconstruct_symplectic, 100), (reconstruct_symplectic, math.inf), (reconstruct_unitary, 100),
], ids=["symplectic", "analytic", "unitary"])
@pytest.mark.parametrize("scheme", [HOMODYNE, HETERODYNE])
@pytest.mark.parametrize("amplitude", [1e-310, 1e-320, 5e-324])
def test_a_subnormal_amplitude_is_rejected_before_any_probe(reconstruct, shots, scheme,
                                                            amplitude):
    device = SimulatedDevice(DeviceModel(embed_unitary(haar_unitary(3, seed=7)), eta=0.5))
    with pytest.raises(ValueError, match=_SUBNORMAL + re.escape(repr(amplitude)) + "$"):
        reconstruct(device, amplitude, MeasurementConfig(scheme, shots, seed=0))
    assert device.settings_used == 0
    reconstruct(device, 2.0**-1022, ANALYTIC_HET)


def test_probe_ratios_rejects_a_tiny_amplitude_without_a_warning():
    device = cubic_device(0.1)
    config = MeasurementConfig(scheme=HETERODYNE, shots=100, seed=0)
    for check in (lambda: probe_ratios(device, [1.0, 1e-310], config),
                  lambda: default_detection_tol([1.0, 1e-310], config)):
        with pytest.raises(ValueError, match=_SUBNORMAL + r"1e-310$"):
            check()
    assert device.settings_used == 0


def test_estimate_eta_names_the_non_finite_entries():
    s_tilde = np.eye(4)
    s_tilde[0, 1], s_tilde[2, 3] = math.inf, math.nan
    with pytest.raises(LossRecoveryError,
                       match=r"^s_tilde has 2 non-finite entries, such as \(1, 2\), \(3, 4\)$"):
        estimate_eta(s_tilde)
    s_tilde[:] = math.inf
    with pytest.raises(LossRecoveryError, match=r" 16 non-finite .* \(1, 1\), \(1, 2\), \(1, 3\)$"):
        estimate_eta(s_tilde)


@pytest.mark.parametrize("scheme, shots",
                         [(HETERODYNE, 100), (HOMODYNE, 100), (HOMODYNE, math.inf)])
def test_unitary_overflowed_mean_is_loss_recovery_error(scheme, shots):
    device = SimulatedDevice(DeviceModel(np.diag([2.0, 2.0, 0.5, 0.5])))
    with pytest.raises(LossRecoveryError,
                       match=r"^u_tilde has 2 non-finite entries, such as \(1, 1\), \(2, 2\)$"):
        reconstruct_unitary(device, 1e308, MeasurementConfig(scheme, shots, seed=1))


@pytest.mark.parametrize("scheme, shots", [(HOMODYNE, math.inf), (HETERODYNE, 100)])
def test_phase_error_overflowed_mean_is_rejected(scheme, shots):
    device = SimulatedDevice(DeviceModel(np.diag([2.0, 0.5])))
    with pytest.raises(ValueError, match=r"probe amplitude 1e\+308 gives a non-finite estimate"):
        reconstruct_element_with_phase_error(device, 1, 1, 1e308, 0.0,
                                             MeasurementConfig(scheme, shots))


def test_probe_ratios_rejects_non_finite_ratio():
    config = MeasurementConfig(scheme=HETERODYNE, shots=100, seed=0)
    with pytest.raises(ValueError, match="1e\\+308"):
        probe_ratios(cubic_device(0.1), [1e308, 1.0], config)


@pytest.mark.parametrize("i, j", [(1.5, 1), (1, 1.5), (1, "1"), (None, 1)])
def test_phase_error_rejects_non_integer_index(i, j):
    with pytest.raises(ValueError, match="element index . must be an integer"):
        reconstruct_element_with_phase_error(make_device(2, seed=20), i, j, 1.0, 0.0, ANALYTIC_HOM)


def test_phase_error_accepts_numpy_integer_index():
    dev = make_device(2, seed=20)
    got = reconstruct_element_with_phase_error(dev, np.int64(2), np.int64(2), 1.0, 0.1, ANALYTIC_HOM)
    assert got == reconstruct_element_with_phase_error(dev, 2, 2, 1.0, 0.1, ANALYTIC_HOM)


class _RecordingDevice:
    """A device that records the config of every setting it is asked for."""

    def __init__(self, n):
        self.inner, self.configs = make_device(n, seed=5), []

    @property
    def n_modes(self):
        return self.inner.n_modes

    def probe_and_measure(self, probe, config):
        self.configs.append(config)
        return self.inner.probe_and_measure(probe, config)


@pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 - 1])
@pytest.mark.parametrize("scheme, shots", [(HOMODYNE, 10), (HETERODYNE, 3)])
def test_setting_config_equals_replaced_config(scheme, shots, seed):
    config = MeasurementConfig(scheme=scheme, shots=shots, seed=seed)
    device = _RecordingDevice(2)
    measure_attenuated_matrix(device, 10.0, config)
    assert len(device.configs) == 4
    for k, child in enumerate(device.configs):
        want = dataclasses.replace(config, seed=derive_seed(seed, k))
        assert type(child) is MeasurementConfig
        assert dataclasses.astuple(child) == dataclasses.astuple(want)
        assert child == want and hash(child) == hash(want)
        assert type(child.seed) is int and type(child.shots) is int
        with pytest.raises(dataclasses.FrozenInstanceError):
            child.seed = 1
    assert config.seed == seed  # the parent is not touched


def test_analytic_settings_share_the_checked_config():
    device = _RecordingDevice(2)
    measure_attenuated_matrix(device, 10.0, ANALYTIC_HET)
    assert all(child is ANALYTIC_HET for child in device.configs)


WIDE = 3  # any mode count: every finite-shot reconstruction reads its streams off a table


def _count_table_passes(monkeypatch):
    """Record the settings of every stream-table pass, a sweep's or a reconstruction's own."""
    built, stream_tables = [], randgen._stream_tables

    def counting(settings):
        built.append(dict(settings))
        return stream_tables(settings)

    monkeypatch.setattr(randgen, "_stream_tables", counting)
    monkeypatch.setattr(experiments, "_stream_tables", counting)
    return built


@pytest.mark.parametrize("outcome", ["return", "raise"])
@pytest.mark.parametrize("in_sweep", [False, True], ids=["alone", "in-sweep"])
def test_direct_reconstruction_never_writes_thread_streams(monkeypatch, in_sweep, outcome):
    config = MeasurementConfig(HETERODYNE, 10, seed=9)
    table = randgen._stream_tables({4: 3, 9: 2 * WIDE})[9]
    if in_sweep:  # as a sweep hands it over: its master's rows of the sweep's one table
        config = config._reseeded(config.seed, table=table)
    built = _count_table_passes(monkeypatch)
    namespace = dict(vars(randgen))
    device = _RecordingDevice(WIDE)
    inner = device.inner.probe_and_measure

    def probe_and_measure(probe, config):
        if outcome == "raise" and len(device.configs) > 3:
            raise RuntimeError("injected")
        return inner(probe, config)

    device.inner.probe_and_measure = probe_and_measure
    raising = pytest.raises(RuntimeError, match="injected")
    with raising if outcome == "raise" else contextlib.nullcontext():
        reconstruct_symplectic(device, 10.0, config)
    assert vars(randgen) == namespace  # no name rebound or added
    assert built == ([] if in_sweep else [{9: 2 * WIDE}])  # the carried rows, else its own pass
    assert len(device.configs) == (4 if outcome == "raise" else 2 * WIDE)
    words = [config._words for config in device.configs]
    assert np.array_equal(words, table[1][: len(words)])  # either table has the same rows
    if in_sweep:  # row views of the carried table, not copies
        assert all(np.shares_memory(row, table[1]) for row in words)


class _ZeroDevice(_RecordingDevice):
    """Records every setting's config and returns zero means without drawing."""

    def probe_and_measure(self, probe, config):
        self.configs.append(config)
        zeros = np.zeros(self.n_modes)
        return QuadratureSampleMeans(zeros, zeros, config.shots_per_quadrature)


@pytest.mark.parametrize("in_sweep", [False, True], ids=["own-table", "sweep-table"])
@pytest.mark.parametrize("scheme, shots", [(HOMODYNE, 10), (HETERODYNE, 7)])
def test_wide_setting_configs_draw_their_own_streams_in_any_order(scheme, shots, in_sweep):
    config = MeasurementConfig(scheme, shots, seed=2**40 + 9)
    if in_sweep:  # its master's rows of a sweep's table
        table = randgen._stream_tables({config.seed: 2 * WIDE})[config.seed]
        config = config._reseeded(config.seed, table=table)
    device = _ZeroDevice(WIDE)
    measure_attenuated_matrix(device, 10.0, config)  # reads every config, draws none
    assert len(device.configs) == 2 * WIDE
    state = evolve(device.inner.model, ProbeSpec(1, 3.0))
    for k, child in reversed(list(enumerate(device.configs))):
        assert child._words is not None  # a fresh generator seeded from the table's row
        want = measure(state, MeasurementConfig(scheme, shots, seed=derive_seed(config.seed, k)))
        got = measure(state, child)
        assert np.array_equal(got.x_means, want.x_means)
        assert np.array_equal(got.p_means, want.p_means)


def test_a_table_one_row_short_raises_before_any_probe():
    short = randgen._stream_tables({9: 2 * WIDE - 1})[9]  # no native stream fills the gap
    config = MeasurementConfig(HETERODYNE, 10)._reseeded(9, table=short)
    device = _RecordingDevice(WIDE)
    with pytest.raises(ValueError, match=f"table of {2 * WIDE - 1} rows cannot seed {2 * WIDE}"):
        reconstruct_symplectic(device, 10.0, config)
    assert device.configs == [] and device.inner.settings_used == 0


def test_reconstruction_in_a_sweep_builds_no_second_table(monkeypatch):
    built = _count_table_passes(monkeypatch)
    run_mode_scaling([WIDE], schemes=(HETERODYNE,), eta_list=(1.0,), shots=10, repetitions=2)
    assert len(built) == 1  # the sweep's own pass, which holds every reconstruction's master
    assert len(built[0]) == 2 and set(built[0].values()) == {2 * WIDE}
