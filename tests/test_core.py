import math

import numpy as np
import pytest

from gausstomo import (
    GaussianState,
    NotPassiveError,
    apply_symplectic,
    apply_uniform_loss,
    coherent_probe_state,
    embed_unitary,
    extract_unitary,
    is_symplectic,
    matrix_from_json,
    matrix_to_json,
    scaled_frobenius,
    symplectic_form,
    unitary_from_json,
    unitary_to_json,
    vacuum_state,
)
from gausstomo.randgen import haar_unitary, random_symplectic

SQRT2 = math.sqrt(2.0)


def test_symplectic_form_single_mode():
    np.testing.assert_array_equal(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])


def test_symplectic_form_two_modes_block_layout():
    j = symplectic_form(2)
    np.testing.assert_array_equal(j[:2, 2:], np.eye(2))
    np.testing.assert_array_equal(j[2:, :2], -np.eye(2))
    np.testing.assert_array_equal(j[:2, :2], np.zeros((2, 2)))
    np.testing.assert_array_equal(j[2:, 2:], np.zeros((2, 2)))


def test_symplectic_form_squares_to_minus_identity():
    j = symplectic_form(3)
    np.testing.assert_allclose(j @ j, -np.eye(6), atol=1e-15)
    np.testing.assert_array_equal(j.T, -j)


def test_is_symplectic_identity():
    assert is_symplectic(np.eye(4), tol=1e-12)


def test_is_symplectic_rejects_scaling():
    # 2I scales J by 4
    assert not is_symplectic(2.0 * np.eye(2), tol=1e-9)


def test_is_symplectic_rotation():
    th = 0.3
    rot = np.array([[math.cos(th), math.sin(th)], [-math.sin(th), math.cos(th)]])
    assert is_symplectic(rot)


@pytest.mark.parametrize("bad", [np.eye(3), np.zeros((2, 4))])
def test_is_symplectic_rejects_bad_shapes(bad):
    with pytest.raises(ValueError):
        is_symplectic(bad)


def test_embed_unitary_scalar_one():
    np.testing.assert_allclose(embed_unitary(np.array([[1.0 + 0j]])), np.eye(2))


def test_embed_unitary_scalar_i_gives_form():
    np.testing.assert_allclose(embed_unitary(np.array([[1j]])), symplectic_form(1))


def test_embed_unitary_real_unitary_is_block_diagonal():
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2
    s = embed_unitary(u)
    np.testing.assert_allclose(s[:2, :2], u, atol=1e-15)
    np.testing.assert_allclose(s[2:, 2:], u, atol=1e-15)
    np.testing.assert_allclose(s[:2, 2:], 0.0, atol=1e-15)
    assert is_symplectic(s)


def test_embed_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        embed_unitary(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))


def test_embedded_unitaries_are_orthogonal_symplectic():
    for seed in range(5):
        s = embed_unitary(haar_unitary(4, seed=seed))
        assert is_symplectic(s, tol=1e-9)
        np.testing.assert_allclose(s @ s.T, np.eye(8), atol=1e-9)


def test_embed_unitary_homomorphism():
    rng = np.random.default_rng(11)
    for n in (2, 3, 6):
        u = haar_unitary(n, seed=rng)
        v = haar_unitary(n, seed=rng)
        lhs = embed_unitary(u @ v)
        rhs = embed_unitary(u) @ embed_unitary(v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_extract_unitary_identity():
    np.testing.assert_allclose(extract_unitary(np.eye(2)), [[1.0 + 0j]])


def test_extract_unitary_of_form_is_i():
    np.testing.assert_allclose(extract_unitary(symplectic_form(1)), [[1j]])


def test_extract_unitary_rejects_squeezer():
    r = 0.1
    with pytest.raises(NotPassiveError):
        extract_unitary(np.diag([math.exp(r), math.exp(-r)]))


def test_embed_extract_round_trip_haar():
    for seed in range(100):
        n = 1 + seed % 5
        u = haar_unitary(n, seed=seed)
        np.testing.assert_allclose(extract_unitary(embed_unitary(u)), u, atol=1e-10)


def test_vacuum_state_single_mode():
    vac = vacuum_state(1)
    np.testing.assert_array_equal(vac.mean, [0.0, 0.0])
    np.testing.assert_array_equal(vac.cov, np.eye(2))


def test_vacuum_state_three_modes():
    vac = vacuum_state(3)
    assert vac.mean.shape == (6,)
    np.testing.assert_array_equal(vac.cov, np.eye(6))
    # symmetric and PSD
    np.testing.assert_allclose(vac.cov, vac.cov.T)
    assert np.all(np.linalg.eigvalsh(vac.cov) > -1e-9)


def test_coherent_probe_real_amplitude():
    state = coherent_probe_state(1, 1, 1.0, 0.0)
    np.testing.assert_allclose(state.mean, [SQRT2, 0.0], atol=1e-15)
    np.testing.assert_array_equal(state.cov, np.eye(2))


def test_coherent_probe_quarter_phase():
    state = coherent_probe_state(1, 1, 1.0, math.pi / 2)
    np.testing.assert_allclose(state.mean, [0.0, SQRT2], atol=1e-15)


def test_coherent_probe_mode_placement():
    state = coherent_probe_state(2, 2, 3.0, 0.0)
    np.testing.assert_allclose(state.mean, [0.0, 3.0 * SQRT2, 0.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("j", [0, 3])
def test_coherent_probe_mode_out_of_range(j):
    with pytest.raises(ValueError):
        coherent_probe_state(2, j, 1.0, 0.0)


def test_coherent_probe_negative_amplitude_rejected():
    with pytest.raises(ValueError):
        coherent_probe_state(1, 1, -1.0, 0.0)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf])
def test_coherent_probe_non_finite_amplitude_rejected(amplitude):
    with pytest.raises(ValueError, match="finite"):
        coherent_probe_state(1, 1, amplitude, 0.0)


def test_apply_symplectic_identity():
    state = coherent_probe_state(2, 1, 1.5, 0.3)
    out = apply_symplectic(np.eye(4), state)
    np.testing.assert_allclose(out.mean, state.mean)
    np.testing.assert_allclose(out.cov, state.cov)


def test_apply_symplectic_form_rotates_mean():
    state = coherent_probe_state(1, 1, 1.0, 0.0)
    out = apply_symplectic(symplectic_form(1), state)
    np.testing.assert_allclose(out.mean, [0.0, -SQRT2], atol=1e-15)


def test_apply_symplectic_real_probe_reads_column():
    s = random_symplectic(3, seed=5)
    alpha = 2.5
    for j in range(1, 4):
        out = apply_symplectic(s, coherent_probe_state(3, j, alpha, 0.0))
        np.testing.assert_allclose(out.mean, SQRT2 * alpha * s[:, j - 1], atol=1e-12)


def test_apply_symplectic_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_symplectic(np.eye(4), vacuum_state(1))


def test_apply_symplectic_preserves_cov_invariants():
    s = random_symplectic(2, seed=9)
    out = apply_symplectic(s, vacuum_state(2))
    np.testing.assert_allclose(out.cov, out.cov.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(out.cov) > -1e-9)


def test_apply_uniform_loss_passthrough():
    state = coherent_probe_state(1, 1, 1.0, 0.2)
    out = apply_uniform_loss(1.0, state)
    np.testing.assert_allclose(out.mean, state.mean)
    np.testing.assert_allclose(out.cov, state.cov)


def test_apply_uniform_loss_coherent_fixed_point():
    state = coherent_probe_state(1, 1, 1.0, 0.0)
    out = apply_uniform_loss(0.5, state)
    np.testing.assert_allclose(out.mean, [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(out.cov, np.eye(2), atol=1e-15)


def test_apply_uniform_loss_thermal_cov():
    state = GaussianState(mean=np.zeros(2), cov=2.0 * np.eye(2))
    out = apply_uniform_loss(0.5, state)
    np.testing.assert_allclose(out.cov, 1.5 * np.eye(2), atol=1e-15)


@pytest.mark.parametrize("eta", [0.0, -0.1, 1.5])
def test_apply_uniform_loss_eta_range(eta):
    with pytest.raises(ValueError):
        apply_uniform_loss(eta, vacuum_state(1))


def test_loss_commutes_with_symplectic_on_means():
    rng = np.random.default_rng(3)
    for n in (1, 2, 4):
        s = random_symplectic(n, seed=rng)
        state = coherent_probe_state(n, 1, 1.7, 0.4)
        for eta in (1.0, 0.5, 0.25):
            loss_first = apply_symplectic(s, apply_uniform_loss(eta, state)).mean
            loss_last = apply_uniform_loss(eta, apply_symplectic(s, state)).mean
            np.testing.assert_allclose(loss_first, loss_last, atol=1e-12)


def test_scaled_frobenius_zero_on_equal():
    a = random_symplectic(2, seed=1)
    assert scaled_frobenius(a, a) == 0.0


def test_scaled_frobenius_single_entry():
    a = np.zeros((2, 2))
    b = np.zeros((2, 2))
    b[0, 1] = 0.3
    assert scaled_frobenius(a, b) == pytest.approx(0.3, abs=1e-15)


def test_scaled_frobenius_identity_vs_zero():
    assert scaled_frobenius(np.eye(4), np.zeros((4, 4))) == pytest.approx(1.0)


def test_scaled_frobenius_metric_properties():
    rng = np.random.default_rng(8)
    a, b, c = (rng.normal(size=(4, 4)) for _ in range(3))
    assert scaled_frobenius(a, b) == pytest.approx(scaled_frobenius(b, a))
    assert scaled_frobenius(a, c) <= scaled_frobenius(a, b) + scaled_frobenius(b, c) + 1e-12
    assert scaled_frobenius(a, a) == 0.0


def test_scaled_frobenius_shape_mismatch():
    with pytest.raises(ValueError):
        scaled_frobenius(np.eye(4), np.eye(2))


def test_scaled_frobenius_needs_explicit_modes_for_odd_dim():
    with pytest.raises(ValueError):
        scaled_frobenius(np.eye(3), np.zeros((3, 3)))
    # same matrices are fine once the mode count is stated
    assert scaled_frobenius(np.eye(3), np.zeros((3, 3)), n_modes=3) == pytest.approx(
        math.sqrt(3) / 3
    )


def test_gaussian_state_validation():
    with pytest.raises(ValueError):
        GaussianState(mean=np.zeros(3), cov=np.eye(3))
    with pytest.raises(ValueError):
        GaussianState(mean=np.zeros(2), cov=np.eye(4))
    asym = np.eye(2)
    asym = asym + np.array([[0.0, 1e-6], [0.0, 0.0]])
    with pytest.raises(ValueError):
        GaussianState(mean=np.zeros(2), cov=asym)


def test_gaussian_state_immutable():
    state = vacuum_state(1)
    with pytest.raises(ValueError):
        state.mean[0] = 1.0


def test_matrix_json_round_trip():
    s = random_symplectic(3, seed=2)
    obj = matrix_to_json(s, "symplectic")
    assert obj["ordering"] == "xxpp"
    assert obj["n_modes"] == 3
    np.testing.assert_array_equal(matrix_from_json(obj), s)


def test_matrix_json_mean_vector():
    mean = coherent_probe_state(2, 1, 1.0, 0.0).mean
    obj = matrix_to_json(mean, "mean")
    np.testing.assert_array_equal(matrix_from_json(obj, expect_kind="mean"), mean)


def test_matrix_json_rejects_unknown_ordering():
    obj = matrix_to_json(np.eye(2), "symplectic")
    obj["ordering"] = "xpxp"
    with pytest.raises(ValueError):
        matrix_from_json(obj)


def test_matrix_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        matrix_to_json(np.eye(2), "density")
    obj = matrix_to_json(np.eye(2), "symplectic")
    obj["kind"] = "density"
    with pytest.raises(ValueError):
        matrix_from_json(obj)


def test_matrix_json_kind_mismatch():
    obj = matrix_to_json(np.eye(2), "covariance")
    with pytest.raises(ValueError):
        matrix_from_json(obj, expect_kind="symplectic")


def test_unitary_json_round_trip():
    u = haar_unitary(3, seed=4)
    np.testing.assert_allclose(unitary_from_json(unitary_to_json(u)), u, atol=0)
