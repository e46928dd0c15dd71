"""Property-based checks over random mode counts, loss, seeds and schemes."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from gausstomo import (
    HOMODYNE,
    SCHEMES,
    DeviceModel,
    GaussianState,
    LossRecoveryError,
    MeasurementConfig,
    ProbeSpec,
    SimulatedDevice,
    apply_symplectic,
    apply_uniform_loss,
    coherent_probe_state,
    cubic_phase_mean_map,
    embed_unitary,
    extract_unitary,
    haar_unitary,
    measure,
    random_symplectic,
    reconstruct_symplectic,
    scaled_frobenius,
)

modes = st.integers(min_value=1, max_value=8)
etas = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
schemes = st.sampled_from(SCHEMES)


@given(n=modes, eta=etas, seed=seeds, scheme=schemes)
def test_analytic_reconstruction_is_exact(n, eta, seed, scheme):
    s = random_symplectic(n, seed=seed)
    device = SimulatedDevice(DeviceModel(s, eta=eta))
    result = reconstruct_symplectic(device, 1000.0, MeasurementConfig(scheme, math.inf))
    assert scaled_frobenius(s, result.s_recon) <= 1e-12
    assert abs(result.eta_hat - eta) <= 1e-12


@given(n=modes, seed=seeds)
def test_unitary_embedding_round_trip(n, seed):
    u = haar_unitary(n, seed=seed)
    assert abs(extract_unitary(embed_unitary(u)) - u).max() <= 1e-12


@settings(max_examples=50)
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



def _composed_means(model, probe, config):
    """Means from the state-by-state composition of public core functions:
    probe state, then loss, then S, then the optional cubic gate."""
    state = coherent_probe_state(model.n_modes, probe.mode_j, probe.amplitude, probe.phase)
    state = apply_symplectic(model.s, apply_uniform_loss(model.eta, state))
    if model.cubic_gamma is not None:
        state = GaussianState(cubic_phase_mean_map(model.cubic_gamma, state.mean), state.cov)
    return measure(state, config)


@settings(max_examples=80)
@given(n=modes, eta=etas, seed=seeds, scheme=schemes, data=st.data(),
       shots=st.one_of(st.integers(min_value=2, max_value=200), st.just(math.inf)),
       phase=st.floats(min_value=-math.pi, max_value=math.pi),
       amplitude=st.floats(min_value=0.0, max_value=1e4))
def test_probe_and_measure_matches_state_composition(n, eta, seed, scheme, data, shots, phase,
                                                     amplitude):
    gamma = data.draw(st.none() | st.floats(-1.0, 1.0), label="cubic_gamma") if n == 1 else None
    model = DeviceModel(random_symplectic(n, seed=seed), eta=eta, cubic_gamma=gamma)
    probe = ProbeSpec(data.draw(st.integers(1, n), label="mode_j"), amplitude, phase)
    config = MeasurementConfig(scheme, shots, seed=seed)
    got = SimulatedDevice(model).probe_and_measure(probe, config)
    want = _composed_means(model, probe, config)
    assert np.array_equal(got.x_means, want.x_means)
    assert np.array_equal(got.p_means, want.p_means)
