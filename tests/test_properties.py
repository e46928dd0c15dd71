"""Property-based checks over random mode counts, loss, seeds and schemes."""

import math

from hypothesis import given, settings, strategies as st

from gausstomo import (
    HOMODYNE,
    SCHEMES,
    DeviceModel,
    LossRecoveryError,
    MeasurementConfig,
    SimulatedDevice,
    embed_unitary,
    extract_unitary,
    haar_unitary,
    random_symplectic,
    reconstruct_symplectic,
    scaled_frobenius,
)

modes = st.integers(min_value=1, max_value=8)
etas = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
schemes = st.sampled_from(SCHEMES)


@settings(deadline=None)
@given(n=modes, eta=etas, seed=seeds, scheme=schemes)
def test_analytic_reconstruction_is_exact(n, eta, seed, scheme):
    s = random_symplectic(n, seed=seed)
    device = SimulatedDevice(DeviceModel(s, eta=eta))
    result = reconstruct_symplectic(device, 1000.0, MeasurementConfig(scheme, math.inf))
    assert scaled_frobenius(s, result.s_recon) <= 1e-12
    assert abs(result.eta_hat - eta) <= 1e-12


@settings(deadline=None)
@given(n=modes, seed=seeds)
def test_unitary_embedding_round_trip(n, seed):
    u = haar_unitary(n, seed=seed)
    assert abs(extract_unitary(embed_unitary(u)) - u).max() <= 1e-12


@settings(deadline=None, max_examples=50)
@given(n=modes, eta=etas, seed=seeds, scheme=schemes,
       shots=st.integers(min_value=2, max_value=200))
def test_finite_shot_budget(n, eta, seed, scheme, shots):
    config = MeasurementConfig(scheme, shots, seed=seed)
    per_quadrature = shots // 2 if scheme == HOMODYNE else shots
    assert config.shots_per_quadrature == per_quadrature
    device = SimulatedDevice(DeviceModel(random_symplectic(n, seed=seed), eta=eta))
    try:
        reconstruct_symplectic(device, 1000.0, config)
    except LossRecoveryError:
        pass  # every setting has been issued before loss recovery
    assert device.settings_used == 2 * n
    assert device.probes_used == 2 * n * per_quadrature * (2 if scheme == HOMODYNE else 1)
