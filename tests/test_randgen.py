import numpy as np
import pytest

from gausstomo import DEFAULT_R_MAX, derive_seed, haar_unitary, is_symplectic, random_symplectic


def test_haar_unitary_single_mode_is_phase():
    u = haar_unitary(1, seed=0)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_unitary_unitarity():
    u = haar_unitary(4, seed=1)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-10)


def test_haar_unitary_unitarity_large():
    u = haar_unitary(32, seed=2)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(32), atol=1e-10)


def test_haar_first_moment():
    # E|U_00|^2 = 1/n for Haar measure
    n = 4
    draws = 2000
    rng = np.random.default_rng(123)
    samples = np.array([abs(haar_unitary(n, seed=rng)[0, 0]) ** 2 for _ in range(draws)])
    # |U_00|^2 is Beta(1, n-1): variance (n-1)/(n^2 (n+1))
    stderr = np.sqrt((n - 1) / (n**2 * (n + 1)) / draws)
    assert abs(samples.mean() - 1.0 / n) < 3 * stderr


def test_haar_unitary_deterministic():
    np.testing.assert_array_equal(haar_unitary(3, seed=7), haar_unitary(3, seed=7))


def test_random_symplectic_zero_squeezing_is_orthogonal():
    s = random_symplectic(3, r_max=0.0, seed=5)
    assert is_symplectic(s)
    np.testing.assert_allclose(s @ s.T, np.eye(6), atol=1e-9)


def test_random_symplectic_invariants():
    s = random_symplectic(3, r_max=0.5, seed=11)
    assert is_symplectic(s, tol=1e-9)
    assert np.linalg.det(s) == pytest.approx(1.0, abs=1e-9)


def test_random_symplectic_singular_values_reciprocal_pairs():
    s = random_symplectic(2, r_max=1.0, seed=13)
    sv = np.sort(np.linalg.svd(s, compute_uv=False))
    np.testing.assert_allclose(sv * sv[::-1], np.ones(4), atol=1e-10)
    assert sv[-1] <= np.exp(1.0) + 1e-9


def test_random_symplectic_many_sizes():
    rng = np.random.default_rng(17)
    for n in range(1, 17):
        for _ in range(100):
            assert is_symplectic(random_symplectic(n, seed=rng), tol=1e-9)


def test_random_symplectic_deterministic():
    a = random_symplectic(4, r_max=0.3, seed=21)
    b = random_symplectic(4, r_max=0.3, seed=21)
    np.testing.assert_array_equal(a, b)


def test_random_symplectic_default_squeeze_range():
    assert DEFAULT_R_MAX == 0.5


def test_derive_seed_stable_and_distinct():
    assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)
    assert derive_seed(0) != derive_seed(1)
    assert 0 <= derive_seed(3, 4) < 2**64


@pytest.mark.parametrize("r_max", [float("nan"), float("inf"), -0.1])
def test_random_symplectic_rejects_bad_r_max(r_max):
    with pytest.raises(ValueError):
        random_symplectic(2, r_max=r_max, seed=0)
