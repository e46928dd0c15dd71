"""Seeded generation of Haar-random unitaries and random symplectic matrices.

All randomness in the package flows through ``numpy.random.default_rng``
(PCG64), so a fixed seed reproduces bit-identical matrices across runs.
Seed streams for independent settings or repetitions are derived with
:func:`derive_seed`, which hashes an index tuple through ``SeedSequence``.
"""

from __future__ import annotations

import numpy as np

from .core import embed_unitary

DEFAULT_R_MAX = 0.5


def derive_seed(master: int, *parts: int) -> int:
    """Derive an independent 64-bit child seed from a master seed and indices."""
    ss = np.random.SeedSequence((int(master),) + tuple(int(p) for p in parts))
    return int(ss.generate_state(1, np.uint64)[0])


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    # Ginibre matrix, QR, then the diagonal phase correction that makes the
    # distribution right-invariant.
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_unitary(n: int, seed: int | np.random.Generator | None = None) -> np.ndarray:
    """Draw an n x n unitary from the Haar measure.

    Args:
        n: matrix dimension (number of modes), >= 1.
        seed: integer seed or an existing ``numpy.random.Generator``.

    Returns:
        Complex n x n array, unitary to double precision.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return _haar_unitary(n, np.random.default_rng(seed))


def random_symplectic(
    n: int,
    r_max: float = DEFAULT_R_MAX,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Draw a random 2n x 2n symplectic matrix.

    The draw uses the Euler form ``K1 Z K2``: two independent Haar-random
    passive factors around a squeezing core
    ``Z = diag(e^r_1, ..., e^r_n, e^-r_1, ..., e^-r_n)`` with each ``r_i``
    uniform on ``[-r_max, r_max]``. With ``r_max = 0`` the result is a pure
    passive (orthogonal-symplectic) matrix.

    Args:
        n: number of modes, >= 1.
        r_max: maximum squeezing magnitude, finite and >= 0.
        seed: integer seed or an existing ``numpy.random.Generator``.
    """
    if n < 1:
        raise ValueError("number of modes must be >= 1")
    if not 0 <= r_max < np.inf:
        raise ValueError(f"r_max must be finite and >= 0, got {r_max}")
    rng = np.random.default_rng(seed)
    k1 = embed_unitary(_haar_unitary(n, rng))
    r = rng.uniform(-r_max, r_max, size=n)
    k2 = embed_unitary(_haar_unitary(n, rng))
    z = np.diag(np.concatenate([np.exp(r), np.exp(-r)]))
    return k1 @ z @ k2
