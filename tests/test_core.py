import json
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest

from gausstomo import (
    MATRIX_KINDS,
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
from gausstomo.core import _real
from gausstomo.device import (HETERODYNE, DeviceModel, MeasurementConfig, ProbeSpec,
                              SimulatedDevice, cubic_phase_mean_map)
from gausstomo.experiments import run_mode_scaling, run_phase_error_study
from gausstomo.randgen import derive_seed, haar_unitary, random_symplectic
from gausstomo.tomography import (
    detect_non_gaussian,
    estimate_eta,
    reconstruct_element_with_phase_error,
    reconstruct_symplectic,
)

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


# (S, symplectic?): diag(1e160, 1e-160) is, though S S^T overflows; the second matrix's
# S J S^T overflows, and a check that overflows finds it not symplectic, with no warning
@pytest.mark.parametrize("s, symplectic", [
    (np.diag([1e160, 1e-160]), True),
    (np.array([[1e200, 1e200], [0.0, 1e-200]]), False),
], ids=["cov-overflows", "check-overflows"])
def test_is_symplectic_at_the_edge_of_the_float_range(s, symplectic):
    assert is_symplectic(s) is symplectic


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


@pytest.mark.parametrize("j, message", [(0, "mode index must be an integer >= 1, got 0"),
                                        (3, "mode index 3 out of range 1..2")], ids=["0", "3"])
def test_coherent_probe_mode_out_of_range(j, message):
    with pytest.raises(ValueError, match=message):
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


@pytest.mark.parametrize("n_modes", [True, np.True_, 1.5, 2.0, "2", 0])
def test_scaled_frobenius_mode_count_is_an_integer_at_least_one(n_modes):
    with pytest.raises(ValueError, match="n_modes must be"):
        scaled_frobenius(np.eye(2), np.eye(2), n_modes=n_modes)
    assert scaled_frobenius(np.eye(2), np.zeros((2, 2)), n_modes=np.int64(2)) == pytest.approx(
        math.sqrt(2) / 2)


def test_gaussian_state_validation():
    with pytest.raises(ValueError):
        GaussianState(mean=np.zeros(3), cov=np.eye(3))
    with pytest.raises(ValueError):
        GaussianState(mean=np.zeros(2), cov=np.eye(4))
    asym = np.eye(2)
    asym = asym + np.array([[0.0, 1e-6], [0.0, 0.0]])
    with pytest.raises(ValueError):
        GaussianState(mean=np.zeros(2), cov=asym)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_gaussian_state_rejects_a_non_finite_covariance(bad, entry):
    # checked before symmetry: a NaN passes the symmetry tolerance, an inf warns in cov - cov.T
    cov = np.eye(2)
    cov[entry] = bad
    with pytest.raises(ValueError, match=r"^covariance matrix has non-finite entries$"):
        GaussianState(mean=np.zeros(2), cov=cov)


def _squeezed(r, theta):
    """A single-mode squeezed vacuum's covariance, squeezing ``r`` at angle ``theta``."""
    rot = np.array([[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]])
    cov = rot @ np.diag([math.exp(2 * r), math.exp(-2 * r)]) @ rot.T
    return (cov + cov.T) / 2


# sigma + iJ >= 0 within STRUCTURAL_TOL times max(1, max|sigma|): det sigma = 1 is a pure state at
# the rule's edge, and squeezing 12's roundoff (about -1e-6) is past the unscaled tolerance
@pytest.mark.parametrize("cov", [np.eye(2), np.diag([2.5, 0.4]), _squeezed(12.0, 0.7)],
                         ids=["vacuum", "det-one", "squeezed-12"])
def test_gaussian_state_accepts_a_physical_covariance_within_roundoff(cov):
    GaussianState(mean=np.zeros(2), cov=cov)


# test_device.py's test_gaussian_state_rejects_an_unphysical_covariance holds diag(0.1, 0.1)
# and a negative variance
@pytest.mark.parametrize("cov", [np.diag([1.0, 1.0 - 1e-6]), np.diag([3.0, 0.3])],
                         ids=["just-below-vacuum", "det-0.9"])
def test_gaussian_state_rejects_a_covariance_below_the_uncertainty_bound(cov):
    with pytest.raises(ValueError, match=r"^covariance matrix violates the uncertainty "
                                         r"principle sigma \+ iJ >= 0$"):
        GaussianState(mean=np.zeros(len(cov)), cov=cov)


def test_gaussian_state_leaves_an_overflowed_mean_to_its_reader():
    # an overflowed probe's output state must still build
    state = GaussianState(mean=[math.inf, math.nan], cov=np.eye(2))
    assert not np.isfinite(state.mean).any()


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


# the shape of each kind at N = 1; N modes scale every axis by N
_KIND_SHAPES = {"symplectic": (2, 2), "covariance": (2, 2), "mean": (2,),
                "unitary-real": (1, 1), "unitary-imag": (1, 1)}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", MATRIX_KINDS)
def test_matrix_json_round_trips_every_kind_bit_for_bit(kind, n):
    a = np.random.default_rng(n).standard_normal([f * n for f in _KIND_SHAPES[kind]])
    obj = json.loads(json.dumps(matrix_to_json(a, kind)))
    assert obj["n_modes"] == n
    got = matrix_from_json(obj, expect_kind=kind)
    assert got.shape == a.shape and got.tobytes() == a.tobytes()


# per kind: empty, odd-sized, non-square and wrongly ranked arrays; an empty mean or
# unitary part was once written with "n_modes": 0, which no reader accepts
_MEAN_BAD = [(0,), (3,), (), (2, 2)]
_UNITARY_BAD = [(0, 0), (2, 3), (), (2,), (2, 2, 2)]
_SQUARE_BAD = [(0, 0), (3, 3), (2, 4), (), (4,), (2, 2, 2)]


@pytest.mark.parametrize("kind, shape", [
    pytest.param(kind, shape, id=f"{kind}-{'x'.join(map(str, shape)) or 'scalar'}")
    for kinds, shapes in ((["mean"], _MEAN_BAD), (["unitary-real", "unitary-imag"], _UNITARY_BAD),
                          (["symplectic", "covariance"], _SQUARE_BAD))
    for kind in kinds for shape in shapes])
def test_matrix_to_json_rejects_a_shape_of_no_mode_count(kind, shape):
    with pytest.raises(ValueError, match=f"^{kind} data has shape {re.escape(str(shape))}, "
                                         "expected "):
        matrix_to_json(np.zeros(shape), kind)


@pytest.mark.parametrize("call, message", [
    (lambda: matrix_from_json({**matrix_to_json(np.eye(4), "symplectic"), "n_modes": 3}),
     "symplectic data has shape (4, 4), expected (6, 6) for N = 3"),
    (lambda: is_symplectic(np.zeros((2, 3))),
     "matrix data has shape (2, 3), expected (2, 2) for N = 1"),
    (lambda: extract_unitary(np.zeros((0, 0))),
     "matrix data has shape (0, 0), expected N >= 1 modes"),
    (lambda: apply_symplectic(np.eye(4), vacuum_state(1)),
     "matrix data has shape (4, 4), expected (2, 2) for N = 1"),
    (lambda: GaussianState(mean=np.zeros(3), cov=np.eye(3)),
     "mean data has shape (3,), expected (2,) for N = 1"),
    (lambda: GaussianState(mean=np.zeros(2), cov=np.eye(4)),
     "covariance data has shape (4, 4), expected (2, 2) for N = 1"),
    (lambda: estimate_eta(np.eye(3)), "s_tilde data has shape (3, 3), expected (2, 2) for N = 1"),
    (lambda: embed_unitary(np.zeros((2, 3))),
     "unitary data has shape (2, 3), expected (2, 2) for N = 2"),
    # an empty matrix once failed inside NumPy's reduction, with NumPy's message
    (lambda: embed_unitary(np.zeros((0, 0))), "unitary data has shape (0, 0), expected N >= 1 modes"),
    (lambda: cubic_phase_mean_map(0.1, np.zeros(4)),
     "mean data has shape (4,), expected (2,) for N = 1"),
    (lambda: scaled_frobenius(np.eye(3), np.zeros((3, 3))),
     "matrix data has shape (3, 3), expected (2, 2) for N = 1"),
], ids=["matrix_from_json", "is_symplectic", "extract_unitary", "apply_symplectic", "state-mean", "state-cov",
        "estimate_eta", "embed_unitary-2x3", "embed_unitary-0x0", "cubic_phase_mean_map",
        "scaled_frobenius"])
def test_every_mode_shaped_input_is_checked_by_the_one_shape_rule(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# every public function that takes a mode-shaped array: a call with the array, its kind and a
# valid value, which a bad entry replaces
_ARRAY_SITES = {
    "GaussianState": (lambda a: GaussianState(mean=np.zeros(2), cov=a), "covariance", np.eye(2)),
    "is_symplectic": (is_symplectic, "matrix", np.eye(2)),
    "embed_unitary": (embed_unitary, "unitary", np.eye(2)),
    "extract_unitary": (extract_unitary, "matrix", np.eye(2)),
    "apply_symplectic": (lambda a: apply_symplectic(a, vacuum_state(1)), "matrix", np.eye(2)),
    "scaled_frobenius": (lambda a: scaled_frobenius(np.eye(2), a), "matrix", np.eye(2)),
    "matrix_to_json": (lambda a: matrix_to_json(a, "symplectic"), "symplectic", np.eye(2)),
    "matrix_from_json": (
        lambda a: matrix_from_json({**matrix_to_json(np.eye(2), "symplectic"), "data": a}),
        "symplectic", np.eye(2)),
    "unitary_to_json": (unitary_to_json, "unitary", np.eye(2)),
    "DeviceModel": (DeviceModel, "symplectic", np.eye(2)),
    "cubic_phase_mean_map": (lambda a: cubic_phase_mean_map(0.1, a), "mean", np.zeros(2)),
    "estimate_eta": (estimate_eta, "s_tilde", np.eye(2)),
}


def _with_first(valid: np.ndarray, entry) -> list:
    """``valid`` as nested lists, its first entry replaced by ``entry``."""
    data = valid.tolist()
    row = data[0] if valid.ndim == 2 else data
    row[0] = entry
    return data


# a list: NumPy reads True and "1" as 1.0 and None as NaN, even beside floats; a ragged
# nesting holds a list where a number belongs; NumPy overflows on an int beyond float64's range
_BAD_LISTS = {
    "bool": (lambda valid: _with_first(valid, True), "of type bool"),
    "str": (lambda valid: _with_first(valid, "1"), "of type str"),
    "none": (lambda valid: _with_first(valid, None), "of type NoneType"),
    "ragged": (lambda valid: _with_first(valid, [0.0, 0.0]), "of type list"),
    # a nesting NumPy cannot hold even as objects: a row beside a (2, 2) block
    "too-ragged": (lambda valid: [valid[0] if valid.ndim == 2 else valid, np.zeros((2, 2))],
                   "of type list"),
    "complex": (lambda valid: _with_first(valid, 1 + 0.5j), "of type complex"),
    "huge-int": (lambda valid: _with_first(valid, 10**399), "beyond float64's range"),  # 400 digits
    # an ndarray of another dtype is read entry by entry too
    "bool-array": (lambda valid: valid.astype(bool), "of type bool"),
    "str-array": (lambda valid: valid.astype(str), "of type str"),
    "object-array": (lambda valid: np.array(_with_first(valid, None), dtype=object),
                     "of type NoneType"),
    "complex-array": (lambda valid: valid * (1 + 0.5j), "of type complex"),
}


@pytest.mark.parametrize("call, kind, valid, bad, entry", [
    pytest.param(call, kind, valid, bad, entry, id=f"{site}-{bad_id}")
    for site, (call, kind, valid) in _ARRAY_SITES.items()
    for bad_id, (bad, entry) in _BAD_LISTS.items()
    if not (kind == "unitary" and bad_id.startswith("complex"))  # a unitary is complex
])
def test_an_array_entry_that_is_not_a_number_is_rejected_by_kind(tmp_path, monkeypatch, call, kind,
                                                                 valid, bad, entry):
    monkeypatch.chdir(tmp_path)
    number = "complex" if kind == "unitary" else "real"
    with warnings.catch_warnings(), \
            mock.patch.object(SimulatedDevice, "probe_and_measure", side_effect=AssertionError):
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{kind} data must hold {number} numbers, got an "
                                             f"entry {entry}$"):
            call(bad(valid))
        call(valid)  # the valid value passes
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_an_array_reads_each_real_number_type():
    data = [[np.float32(1.0), 0], [np.int64(0), 1.0]]
    for s in (data, np.array(data, dtype=object), np.eye(2, dtype=np.float32),
              np.eye(2, dtype=np.int8), [np.array([1.0, 0.0]), (0, 1)]):
        assert DeviceModel(s).s.tobytes() == np.eye(2).tobytes()
    assert unitary_from_json(unitary_to_json([[1j, 0], [0, 1]]))[0, 0] == 1j
    with pytest.raises(ValueError, match="^unitary-real data must hold real numbers, got an entry"
                                         " of type NoneType$"):
        unitary_from_json({**unitary_to_json(np.eye(1)),
                           "real": {**matrix_to_json(np.eye(1), "unitary-real"), "data": [[None]]}})


def test_unitary_json_parts_must_agree_in_mode_count():
    obj = {"real": unitary_to_json(np.eye(2))["real"], "imag": unitary_to_json(np.eye(3))["imag"]}
    with pytest.raises(ValueError, match="^unitary real/imag parts disagree in shape$"):
        unitary_from_json(obj)


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
def test_coherent_probe_non_finite_phase_rejected(phase):
    with pytest.raises(ValueError, match="phase"):
        coherent_probe_state(1, 1, 1.0, phase)


@pytest.mark.parametrize("mode_j", [1.5, 1.0])
def test_coherent_probe_non_integer_mode_rejected(mode_j):
    with pytest.raises(ValueError, match="mode index must be an integer"):
        coherent_probe_state(2, mode_j, 1.0, 0.0)


def test_coherent_probe_accepts_numpy_integer_mode():
    got = coherent_probe_state(3, np.int64(2), 1.5, 0.3)
    assert np.array_equal(got.mean, coherent_probe_state(3, 2, 1.5, 0.3).mean)


def test_embed_unitary_rejects_nan():
    # the message states no comparison, which NaN would make false
    message = r"^matrix is not unitary: residual nan, tolerance 1\.0e-09$"
    with pytest.raises(ValueError, match=message):
        embed_unitary(np.array([[math.nan]]))


def test_extract_unitary_rejects_nan():
    message = r"^matrix is not passive: block asymmetry nan, tolerance 1\.0e-06$"
    with pytest.raises(NotPassiveError, match=message):
        extract_unitary(np.full((2, 2), math.nan))


@pytest.mark.parametrize("build", [
    lambda n: random_symplectic(n, seed=0),
    lambda n: haar_unitary(n, seed=0),
    symplectic_form,
    vacuum_state,
    lambda n: coherent_probe_state(n, 1, 1.0, 0.0),
], ids=["random_symplectic", "haar_unitary", "symplectic_form", "vacuum_state",
        "coherent_probe_state"])
@pytest.mark.parametrize("n", [
    1.5, 2.0, "2", None,
    # from 2**29 on, a (2N, 2N) float64 array holds 2**63 bytes: rejected before any allocation
    pytest.param(2**29, id="2^29"), pytest.param(2**40, id="2^40"),
    pytest.param(10**400, id="10^400"),
])
def test_mode_count_must_be_an_integer(build, n):
    bound = " and < 536870912" if isinstance(n, int) else ""
    with pytest.raises(ValueError, match=f"^number of modes must be an integer >= 1{bound}, got"):
        build(n)
    build(np.int64(2))  # a NumPy integer is a count


def _device():
    return SimulatedDevice(DeviceModel(np.eye(2)))


def _runner_amplitude(value):
    """A sweep with probe amplitude ``value``; issuing a probe fails the test."""
    with mock.patch.object(SimulatedDevice, "probe_and_measure", side_effect=AssertionError):
        run_mode_scaling([2], amplitude=value, shots=10, repetitions=1)


# every site that takes a real number: a call with the value there, and its message
_REAL_SITES = {
    "probe-amplitude": (lambda v: ProbeSpec(1, v), "probe amplitude must be finite and >= 0"),
    "probe-phase": (lambda v: ProbeSpec(1, 1.0, v), "probe phase must be finite"),
    "state-amplitude": (lambda v: coherent_probe_state(1, 1, v, 0.0), "probe amplitude must be"),
    "state-phase": (lambda v: coherent_probe_state(1, 1, 1.0, v), "probe phase must be finite"),
    "r-max": (lambda v: random_symplectic(2, r_max=v), "r_max must be finite and >= 0"),
    "reconstruction-amplitude": (
        lambda v: reconstruct_symplectic(_device(), v, MeasurementConfig(HETERODYNE, 10)),
        "probe amplitude must be finite and > 0"),
    "cubic-gamma": (lambda v: DeviceModel(np.eye(2), cubic_gamma=v), "cubic_gamma must be finite"),
    "tol": (lambda v: detect_non_gaussian(_device(), [1.0, 2.0], MeasurementConfig(HETERODYNE, 10),
                                          tol=v), "detection tolerance must be finite and >= 0"),
    "phi-max": (lambda v: run_phase_error_study(phi_max=v), r"phi_max must lie in \[0, pi/4\)"),
    "phase-error-phi": (
        lambda v: reconstruct_element_with_phase_error(
            _device(), 1, 1, 1.0, v, MeasurementConfig(HETERODYNE, math.inf)),
        r"phase error must satisfy \|phi\| < pi/4"),
    "runner-amplitude": (_runner_amplitude, "probe amplitude must be finite and > 0"),
    "detect-amplitude": (
        lambda v: detect_non_gaussian(_device(), [v, 1.0], MeasurementConfig(HETERODYNE, 10)),
        "probe amplitude must be finite and > 0"),
}
# integer seeds; None asks NumPy for fresh entropy, except in derive_seed
_SEED_SITES = {
    "derive-seed": (lambda v: derive_seed(v, 1), "seed must be an integer >= 0"),
    "derive-seed-part": (lambda v: derive_seed(1, v), "seed must be an integer >= 0"),
    "haar-seed": (lambda v: haar_unitary(2, seed=v), "seed must be an integer >= 0"),
    "symplectic-seed": (lambda v: random_symplectic(2, seed=v), "seed must be an integer >= 0"),
}


@pytest.mark.parametrize("build, message", [
    (random_symplectic, "number of modes must be an integer"),
    (lambda flag: ProbeSpec(flag, 1.0), "mode index must be an integer"),
    (lambda flag: run_phase_error_study(repetitions=flag), "repetitions must be an integer"),
    (lambda flag: MeasurementConfig(HETERODYNE, flag), "shots must be a positive integer"),
    (lambda flag: MeasurementConfig(HETERODYNE, 10, seed=flag), "seed must be an integer >= 0"),
    (lambda flag: DeviceModel(np.eye(2), eta=flag), r"transmissivity must be in \(0, 1\]"),
    (lambda flag: apply_uniform_loss(flag, vacuum_state(1)), r"transmissivity must be in"),
    *_REAL_SITES.values(),
    *_SEED_SITES.values(),
], ids=["modes", "mode-index", "repetitions", "shots", "seed", "device-eta", "loss-eta",
        *_REAL_SITES, *_SEED_SITES])
@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
def test_a_bool_is_not_a_number(build, message, flag):
    with pytest.raises(ValueError, match=message):
        build(flag)


@pytest.mark.parametrize("build, message, value", [
    pytest.param(build, message, value, id=f"{value_id}-{site}")
    for site, (build, message) in {
        "shots": (lambda value: MeasurementConfig(HETERODYNE, value),
                  "shots must be a positive integer"),
        "device-eta": (lambda value: DeviceModel(np.eye(2), eta=value),
                       r"transmissivity must be in \(0, 1\]"),
        "loss-eta": (lambda value: apply_uniform_loss(value, vacuum_state(1)),
                     "transmissivity must be in"),
        **_REAL_SITES,
        **_SEED_SITES,
    }.items()
    for value_id, value in {"str": "3", "str-float": "0.5", "none": None, "complex": 1j}.items()
    # None: no gate, default tol, fresh entropy
    if not (value is None and site in ("cubic-gamma", "tol", "haar-seed", "symplectic-seed"))
])
def test_a_non_number_is_rejected_by_name(build, message, value):
    with pytest.raises(ValueError, match=message) as raised:
        build(value)
    assert "got nan" not in str(raised.value)  # a message shows the value it was given


@pytest.mark.parametrize("value", [2.0, 2.5, -1], ids=["integral-float", "float", "negative"])
@pytest.mark.parametrize("build, message", _SEED_SITES.values(), ids=list(_SEED_SITES))
def test_a_seed_that_is_not_an_integer_from_0_is_rejected(build, message, value):
    with pytest.raises(ValueError, match=f"{message}, got {value!r}"):
        build(value)


def test_numpy_random_objects_seed_as_before():
    for seed in (None, np.random.default_rng(3), np.random.PCG64(3), np.random.SeedSequence(3)):
        assert haar_unitary(2, seed=seed).shape == (2, 2)
    assert np.array_equal(random_symplectic(2, seed=np.random.default_rng(3)),
                          random_symplectic(2, seed=np.int64(3)))


@pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5), np.int64(1), 1, 0.5])
def test_numpy_and_python_reals_are_numbers(value):
    assert _real(value) is value
    ProbeSpec(1, value, value)
    assert is_symplectic(random_symplectic(2, r_max=value, seed=0))
