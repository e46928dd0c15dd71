"""Property-based checks over random mode counts, loss, seeds and schemes."""

import contextlib
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gausstomo import (
    HETERODYNE,
    HOMODYNE,
    SCHEMES,
    DeviceModel,
    GaussianState,
    LossRecoveryError,
    MeasurementConfig,
    NotPassiveError,
    ProbeSpec,
    SimulatedDevice,
    apply_symplectic,
    apply_uniform_loss,
    coherent_probe_state,
    cubic_phase_mean_map,
    derive_seed,
    embed_unitary,
    evolve,
    extract_unitary,
    haar_unitary,
    measure,
    measure_attenuated_matrix,
    probe_ratios,
    random_symplectic,
    reconstruct_symplectic,
    reconstruct_unitary,
    sample_quadratures,
    scaled_frobenius,
    vacuum_state,
)
from gausstomo import device as device_module
from gausstomo import randgen

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


@settings(max_examples=60)
@given(n=modes, eta=etas, seed=seeds, mode=modes, r_max=st.floats(min_value=0.0, max_value=6.0),
       phase=st.floats(min_value=-math.pi, max_value=math.pi),
       amplitude=st.floats(min_value=0.0, max_value=1e4))
@example(n=8, eta=0.5, seed=3, mode=8, r_max=6.0, phase=0.3, amplitude=1e4)
@example(n=1, eta=1.0, seed=4, mode=1, r_max=6.0, phase=-2.0, amplitude=0.0)
def test_physical_states_obey_the_uncertainty_principle(n, eta, seed, mode, r_max, phase,
                                                        amplitude):
    # every state the package makes passes GaussianState's rule sigma + iJ >= 0; evolve builds
    # its state without rechecking the model's S S^T, so it is rebuilt here to run the rule
    mode_j = 1 + (mode - 1) % n
    model = DeviceModel(random_symplectic(n, r_max, seed=seed), eta=eta)
    probe = coherent_probe_state(n, mode_j, amplitude, phase)
    states = [vacuum_state(n), probe, evolve(model, ProbeSpec(mode_j, amplitude, phase)),
              apply_symplectic(model.s, apply_uniform_loss(eta, probe))]
    for state in states:
        GaussianState(mean=state.mean, cov=state.cov)


def _unblocked_outcomes(state, config):
    """Raw outcomes drawn the unblocked way: one homodyne ``rng.normal`` call
    per quadrature, or one heterodyne ``standard_normal((m, n, 2))`` and the
    affine map of each mode's Cholesky factor, P summed left to right. The
    factors are this module's own closed form, not the package's."""
    n, m = state.mean.size // 2, config.shots_per_quadrature
    mx, mp = state.mean[:n], state.mean[n:]
    cov = state.cov
    xx, pp = np.diagonal(cov[:n, :n]), np.diagonal(cov[n:, n:])
    rng = np.random.default_rng(config.seed)
    if config.scheme == HOMODYNE:  # standard deviations sqrt(sigma_ii / 2)
        return (rng.normal(mx, np.sqrt(xx / 2.0), size=(m, n)),
                rng.normal(mp, np.sqrt(pp / 2.0), size=(m, n)))
    # Cholesky factors of each mode's (block + I) / 2 = [[a, b], [b, d]]
    a, d = (xx + 1.0) / 2.0, (pp + 1.0) / 2.0
    b = (np.diagonal(cov[:n, n:]) + np.diagonal(cov[n:, :n])) / 2.0 / 2.0
    l11 = np.sqrt(a)
    l21, l22 = b / l11, np.sqrt(d - b * b / a)
    z = rng.standard_normal((m, n, 2))
    return mx + l11 * z[:, :, 0], (mp + l21 * z[:, :, 0]) + l22 * z[:, :, 1]


def _assert_streamed_means_match(n, seed, scheme, shots, cap_offset=None):
    """Means and outcomes equal the unblocked ones. A model tiles its factors down
    a block of at most the cap's values: a block that fits reads a prefix of the
    tiles, a taller one their first row. ``cap_offset`` sets the cap, before the
    model is built, that far from the block's own value count, else the module's
    cap holds. At N = 1 the shots are drawn in leaves of at least 128 shots, and
    the tiles keep one row whatever the cap, as the N = 1 sampler reads no more."""
    config = MeasurementConfig(scheme, shots, seed=seed)
    m, width = config.shots_per_quadrature, n if scheme == HOMODYNE else 2 * n
    rows = min(m, max(128 if n == 1 else 1, device_module._BLOCK_VALUES // width))
    values = rows * width
    cap = device_module._TILE_VALUES if cap_offset is None else values + cap_offset
    with mock.patch("gausstomo.device._TILE_VALUES", cap):
        model = DeviceModel(random_symplectic(n, seed=seed), eta=0.7)
    tiles = model._tiles[scheme]
    if n == 1:  # the N = 1 sampler reads only the first row, whatever the cap
        assert [len(tile) for tile in tiles] == [1, 1]
    else:  # a one-row block fits in the one row a tile keeps at least
        assert (len(tiles[0]) >= rows) == (values <= cap or rows == 1)
    assert all(tile.size <= max(cap, tile[0].size) for tile in tiles)
    probe = ProbeSpec(1 + seed % n, 1000.0, 0.3)
    state = evolve(model, probe)
    x, p = _unblocked_outcomes(state, config)
    device = SimulatedDevice(model)
    for got in (measure(state, config), device.probe_and_measure(probe, config),
                device.probe_and_measure(probe, config)):  # the second reads the same tiles
        assert np.array_equal(got.x_means, x.mean(axis=0))
        assert np.array_equal(got.p_means, p.mean(axis=0))
    x_raw, p_raw = sample_quadratures(state, config)
    assert np.array_equal(x_raw, x) and np.array_equal(p_raw, p)


@settings(max_examples=150)
@given(n=modes, seed=seeds, scheme=schemes, shots=st.integers(min_value=1, max_value=500),
       block_values=st.integers(min_value=1, max_value=48),
       cap_offset=st.sampled_from([-1, 0, 1]))
# blocks of 5, 5 and 3 shots, inside the tiles and taller; one leaf spanning every shot at N = 1
@example(n=3, seed=11, scheme=HETERODYNE, shots=13, block_values=30, cap_offset=0)
@example(n=3, seed=11, scheme=HETERODYNE, shots=13, block_values=30, cap_offset=-1)
@example(n=3, seed=11, scheme=HOMODYNE, shots=27, block_values=15, cap_offset=0)
@example(n=3, seed=11, scheme=HOMODYNE, shots=27, block_values=15, cap_offset=-1)
@example(n=1, seed=11, scheme=HETERODYNE, shots=9, block_values=4, cap_offset=0)
@example(n=1, seed=11, scheme=HOMODYNE, shots=9, block_values=4, cap_offset=-1)
# a setting as one block: 2 q N = 30 values fill a block of 30 and read a prefix of the
# tiles, or their first row with the cap just below; at 36 values the blocks are drawn
# apart, homodyne one per quadrature
@example(n=3, seed=11, scheme=HOMODYNE, shots=10, block_values=30, cap_offset=0)
@example(n=3, seed=11, scheme=HOMODYNE, shots=10, block_values=30, cap_offset=-1)
@example(n=3, seed=11, scheme=HOMODYNE, shots=12, block_values=30, cap_offset=0)
@example(n=3, seed=11, scheme=HETERODYNE, shots=5, block_values=30, cap_offset=-1)
@example(n=3, seed=11, scheme=HETERODYNE, shots=6, block_values=30, cap_offset=0)
def test_streamed_means_equal_unblocked_means(n, seed, scheme, shots, block_values, cap_offset):
    # a block of a few rows makes every example cross several block boundaries,
    # most ending in a short block; at N = 1 the shots are drawn in leaves of
    # NumPy's pairwise split, at most 128 shots each, as a block of at most 48
    # values is smaller. The block sits just above the tile cap (cap_offset -1),
    # at it (0) or just below it (1).
    assume(scheme != HOMODYNE or shots >= 2)
    with mock.patch("gausstomo.device._BLOCK_VALUES", block_values):
        _assert_streamed_means_match(n, seed, scheme, shots, cap_offset)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_streamed_means_equal_unblocked_means_wide(scheme):
    _assert_streamed_means_match(64, 5, scheme, 10_000)


def _per_column_attenuated_matrix(model, amplitude, config):
    """s_tilde the per-column way: setting k's config rebuilt by
    ``dataclasses.replace`` with seed ``derive_seed(seed, k)``, and each
    column's means divided by sqrt(2) amplitude as they arrive."""
    n, scale = model.n_modes, math.sqrt(2.0) * amplitude
    device, s_tilde = SimulatedDevice(model), np.zeros((2 * model.n_modes, 2 * model.n_modes))
    for k, (j, phase) in enumerate((j, phase) for j in range(1, n + 1) for phase in (0.0, math.pi / 2)):
        means = device.probe_and_measure(ProbeSpec(j, amplitude, phase), _per_setting(config, k))
        col = j - 1 + (n if phase else 0)
        s_tilde[:n, col] = means.x_means / scale
        s_tilde[n:, col] = means.p_means / scale
    return s_tilde


def _per_setting(config, k):
    """Setting k's config, rebuilt by ``dataclasses.replace``."""
    if config.analytic:
        return config
    return dataclasses.replace(config, seed=derive_seed(config.seed, k))


def _per_column_unitary(settings, amplitude):
    """u_hat and eta_hat the per-column way from recorded settings: column k of
    u_tilde is setting k's ``x_means / scale - 1j * p_means / scale``."""
    n, scale = len(settings), math.sqrt(2.0) * amplitude
    u_tilde = np.zeros((n, n), dtype=complex)
    for col, (_, means) in enumerate(settings):
        u_tilde[:, col] = means.x_means / scale - 1j * means.p_means / scale
    eta_hat = float(np.exp(2.0 * np.linalg.slogdet(u_tilde)[1] / n))
    return u_tilde / math.sqrt(eta_hat), eta_hat


class _RecordingDevice:
    """A simulated device that keeps every setting's probe, means and config."""

    def __init__(self, model):
        self.inner, self.settings, self.configs = SimulatedDevice(model), [], []

    @property
    def n_modes(self):
        return self.inner.n_modes

    def probe_and_measure(self, probe, config):
        self.configs.append(config)
        self.settings.append((probe, self.inner.probe_and_measure(probe, config)))
        return self.settings[-1][1]


@settings(max_examples=150)
@given(count=st.integers(1, 32), eta=etas, scheme=schemes, data=st.data(),
       seed=st.one_of(seeds, st.integers(2**32, 2**64 - 1)), in_sweep=st.booleans(),
       kind=st.sampled_from(["symplectic", "unitary", "ratios"]),
       amplitude=st.floats(min_value=1e-3, max_value=1e4))
@example(count=16, eta=0.5, scheme=HETERODYNE, data=None, seed=2**64 - 1,
         in_sweep=False, kind="symplectic", amplitude=3.0)
@example(count=16, eta=0.5, scheme=HOMODYNE, data=None, seed=7, in_sweep=False,
         kind="unitary", amplitude=3.0)
@example(count=32, eta=0.5, scheme=HETERODYNE, data=None, seed=2**40 + 3,
         in_sweep=False, kind="unitary", amplitude=3.0)
@example(count=15, eta=0.5, scheme=HOMODYNE, data=None, seed=2**40 + 3,
         in_sweep=False, kind="unitary", amplitude=3.0)
@example(count=16, eta=0.5, scheme=HOMODYNE, data=None, seed=5, in_sweep=True,
         kind="ratios", amplitude=3.0)
@example(count=1, eta=0.5, scheme=HETERODYNE, data=None, seed=2**40 + 3,
         in_sweep=False, kind="unitary", amplitude=3.0)
@example(count=2, eta=0.5, scheme=HOMODYNE, data=None, seed=11,
         in_sweep=False, kind="symplectic", amplitude=3.0)
def test_attenuated_matrix_equals_per_column_reference(count, eta, seed, scheme, data, in_sweep,
                                                       kind, amplitude):
    # about ``count`` settings, 2n (n for a unitary, one per amplitude for the ratios), from
    # a single one on: a direct reconstruction replays its streams from a table pass of its
    # own; in a sweep they come from the table rows the sweep hands over in the master's
    # config. Masters take one and two words.
    n = count if kind != "symplectic" else -(-count // 2)
    shots = data.draw(st.one_of(st.integers(2 if scheme == HOMODYNE else 1, 300),
                                st.just(math.inf)), label="shots") if data else 50
    unitary = kind == "unitary"
    s = embed_unitary(haar_unitary(n, seed=seed)) if unitary else random_symplectic(n, seed=seed)
    model, config = DeviceModel(s, eta=eta), MeasurementConfig(scheme, shots, seed=seed)
    device = _RecordingDevice(model)
    settings_count = (2 if kind == "symplectic" else 1) * n
    if in_sweep and not config.analytic:  # as a sweep reseeds it: carrying the master's rows
        table = randgen._stream_tables({seed: settings_count})[seed]
        config = config._reseeded(seed, table=table)
    if unitary:
        with contextlib.suppress(LossRecoveryError, NotPassiveError):
            got = reconstruct_unitary(device, amplitude, config)
            u_hat, eta_hat = _per_column_unitary(device.settings, amplitude)
            assert np.array_equal(got.u_hat, u_hat) and got.eta_hat == eta_hat
    elif kind == "ratios":
        amplitudes = [amplitude * (k + 1) for k in range(n)]
        got = probe_ratios(device, amplitudes, config)
        assert got == [means.p_means[0] / (math.sqrt(2.0) * probe.amplitude)
                       for probe, means in device.settings]
        assert [probe.amplitude for probe, _ in device.settings] == amplitudes
    else:
        got = measure_attenuated_matrix(device, amplitude, config)
        assert np.array_equal(got, _per_column_attenuated_matrix(model, amplitude, config))
    assert len(device.settings) == settings_count
    # every finite-shot setting reads its words off a table row, whatever the count
    assert all((child._words is None) == config.analytic for child in device.configs)
    reference = SimulatedDevice(model)
    for k, (probe, means) in enumerate(device.settings):
        want = reference.probe_and_measure(probe, _per_setting(config, k))
        assert np.array_equal(means.x_means, want.x_means)
        assert np.array_equal(means.p_means, want.p_means)


@pytest.mark.parametrize("seed", [2**64 - 1, 2**64, 2**70], ids=["2^64-1", "2^64", "2^70"])
def test_wide_reconstruction_at_large_seeds_equals_per_column_reference(monkeypatch, seed):
    # a master of any size takes the one table pass
    tables = []
    stream_tables = randgen._stream_tables
    monkeypatch.setattr(randgen, "_stream_tables", lambda s: tables.append(s) or stream_tables(s))
    n = 8
    model = DeviceModel(random_symplectic(n, seed=3), eta=0.7)
    config = MeasurementConfig(HETERODYNE, 20, seed=seed)
    got = reconstruct_symplectic(SimulatedDevice(model), 5.0, config).s_tilde
    assert np.array_equal(got, _per_column_attenuated_matrix(model, 5.0, config))
    assert tables == [{seed: 2 * n}]
