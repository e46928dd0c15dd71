"""Phase-space conventions and exact Gaussian algebra.

Conventions used throughout the package:

* Quadratures are ordered ``(X_1, ..., X_N, P_1, ..., P_N)`` ("xxpp").
* Quadratures are dimensionless, with ``X = (a + a^dag)/sqrt(2)``, so a
  coherent state of complex amplitude ``alpha`` has mean
  ``<X> = sqrt(2) Re(alpha)``, ``<P> = sqrt(2) Im(alpha)``.
* Covariances are anticommutator second moments about the mean, which
  makes the vacuum covariance the identity matrix.

A Gaussian process acts on means as ``r -> S r`` with ``S`` real,
symplectic and of determinant +1; on covariances as ``sigma -> S sigma S^T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Absolute entrywise tolerance for structural checks (symplectic, unitary).
STRUCTURAL_TOL = 1e-9

# Block asymmetry admitted when reading a unitary out of a reconstructed
# (hence noisy) passive symplectic matrix.
PASSIVE_BLOCK_TOL = 1e-6


class NotPassiveError(ValueError):
    """The matrix does not have the block structure of a passive transformation."""


@dataclass(frozen=True)
class GaussianState:
    """A Gaussian state: mean vector (length 2N) and covariance matrix (2N x 2N).

    Instances are immutable; the arrays are copied and marked read-only so a
    state can be shared freely between threads.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise ValueError(f"mean must be a length-2N vector, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"covariance shape {cov.shape} inconsistent with mean length {mean.size}"
            )
        if np.max(np.abs(cov - cov.T)) > STRUCTURAL_TOL:
            raise ValueError("covariance matrix is not symmetric")
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form J = [[0, I], [-I, 0]].

    Args:
        n: number of modes, >= 1.
    """
    if n < 1:
        raise ValueError("number of modes must be >= 1")
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def _check_even_square(a: np.ndarray, name: str) -> int:
    """Validate a 2N x 2N matrix and return N."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] % 2 != 0 or a.shape[0] == 0:
        raise ValueError(f"{name} must have even dimension 2N, got {a.shape[0]}")
    return a.shape[0] // 2


def is_symplectic(s: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    """Check the symplectic condition S J S^T = J entrywise within ``tol``.

    Raises:
        ValueError: if ``s`` is not square with even dimension.
    """
    s = np.asarray(s, dtype=float)
    n = _check_even_square(s, "matrix")
    j = symplectic_form(n)
    return bool(np.max(np.abs(s @ j @ s.T - j)) <= tol)


def embed_unitary(u: np.ndarray, tol: float = STRUCTURAL_TOL) -> np.ndarray:
    """Embed an N x N unitary as the 2N x 2N symplectic matrix of a passive map.

    The embedding is ``[[Re(u), Im(u)], [-Im(u), Re(u)]]``; the result is both
    symplectic and orthogonal.

    Args:
        u: complex N x N matrix, unitary within ``tol``.

    Raises:
        ValueError: if ``u`` is not square or not unitary within ``tol``.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary must be square, got shape {u.shape}")
    residual = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    if residual > tol:
        raise ValueError(f"matrix is not unitary: residual {residual:.3e} > {tol:.1e}")
    re, im = u.real, u.imag
    return np.block([[re, im], [-im, re]])


def extract_unitary(s: np.ndarray, tol: float = PASSIVE_BLOCK_TOL) -> np.ndarray:
    """Read the N x N unitary out of a passive 2N x 2N symplectic matrix.

    Inverse of :func:`embed_unitary`. The two copies of each block are averaged,
    which symmetrizes small asymmetries of reconstructed (noisy) matrices.

    Args:
        s: real 2N x 2N matrix with blocks ``[[A, B], [-B, A]]`` within ``tol``.

    Raises:
        NotPassiveError: if the block symmetry is violated beyond ``tol``,
            which signals an active (e.g. squeezing) transformation.
    """
    s = np.asarray(s, dtype=float)
    n = _check_even_square(s, "matrix")
    a, b = s[:n, :n], s[:n, n:]
    c, d = s[n:, :n], s[n:, n:]
    asym = max(np.max(np.abs(a - d)), np.max(np.abs(b + c)))
    if asym > tol:
        raise NotPassiveError(
            f"block asymmetry {asym:.3e} exceeds {tol:.1e}: matrix is not passive"
        )
    return (a + d) / 2 + 1j * (b - c) / 2


def vacuum_state(n: int) -> GaussianState:
    """The n-mode vacuum: zero mean, identity covariance."""
    if n < 1:
        raise ValueError("number of modes must be >= 1")
    return GaussianState(mean=np.zeros(2 * n), cov=np.eye(2 * n))


def coherent_probe_state(n: int, mode_j: int, amplitude: float, phase: float) -> GaussianState:
    """Coherent probe of complex amplitude ``amplitude * exp(i phase)`` in one mode.

    Mode ``mode_j`` (1-based) carries mean ``(sqrt(2) amplitude cos(phase),
    sqrt(2) amplitude sin(phase))``; every other mode is vacuum.

    Args:
        n: number of modes.
        mode_j: input mode index, 1 <= mode_j <= n.
        amplitude: real probe amplitude, finite and >= 0.
        phase: probe phase in radians.

    Raises:
        ValueError: if ``mode_j`` is out of range or ``amplitude`` is negative
            or not finite.
    """
    if n < 1:
        raise ValueError("number of modes must be >= 1")
    _check_probe_amplitude(amplitude)
    return GaussianState(mean=_coherent_mean(n, mode_j, amplitude, phase), cov=np.eye(2 * n))


def _check_probe_amplitude(amplitude: float) -> None:
    """A coherent probe's amplitude must be finite and >= 0."""
    if not 0 <= amplitude < math.inf:
        raise ValueError(f"probe amplitude must be finite and >= 0, got {amplitude}")


def _coherent_mean(n: int, mode_j: int, amplitude: float, phase: float) -> np.ndarray:
    """Mean vector of :func:`coherent_probe_state`, after its mode-range check."""
    if not 1 <= mode_j <= n:
        raise ValueError(f"mode index {mode_j} out of range 1..{n}")
    mean = np.zeros(2 * n)
    mean[mode_j - 1] = np.sqrt(2.0) * amplitude * np.cos(phase)
    mean[n + mode_j - 1] = np.sqrt(2.0) * amplitude * np.sin(phase)
    return mean


def apply_symplectic(s: np.ndarray, state: GaussianState) -> GaussianState:
    """Evolve a state through a symplectic map: mean -> S mean, cov -> S cov S^T."""
    s = np.asarray(s, dtype=float)
    _check_even_square(s, "matrix")
    if s.shape[0] != state.mean.size:
        raise ValueError(
            f"matrix dimension {s.shape[0]} does not match state dimension {state.mean.size}"
        )
    return GaussianState(mean=s @ state.mean, cov=s @ state.cov @ s.T)


def apply_uniform_loss(eta: float, state: GaussianState) -> GaussianState:
    """Apply the same beam-splitter loss of transmissivity ``eta`` to every mode.

    Means are attenuated by sqrt(eta); the covariance mixes with vacuum,
    ``sigma -> eta sigma + (1 - eta) I``.

    Args:
        eta: power transmissivity, 0 < eta <= 1.
    """
    if not 0 < eta <= 1:
        raise ValueError(f"transmissivity must be in (0, 1], got {eta}")
    dim = state.mean.size
    return GaussianState(
        mean=np.sqrt(eta) * state.mean,
        cov=eta * state.cov + (1.0 - eta) * np.eye(dim),
    )


def scaled_frobenius(a: np.ndarray, b: np.ndarray, n_modes: int | None = None) -> float:
    """Frobenius norm of ``a - b`` divided by the number of modes.

    For the default ``n_modes=None`` the matrices are 2N x 2N and N is half
    the dimension. Pass ``n_modes`` explicitly to apply the same metric to an
    N x N complex matrix difference.

    Raises:
        ValueError: on shape mismatch, or odd dimension with ``n_modes`` unset.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if n_modes is None:
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 2 != 0:
            raise ValueError(
                "n_modes must be given explicitly for matrices that are not 2N x 2N"
            )
        n_modes = a.shape[0] // 2
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return float(np.linalg.norm(a - b) / n_modes)


MATRIX_KINDS = ("symplectic", "unitary-real", "unitary-imag", "covariance", "mean")
ORDERING = "xxpp"


def matrix_to_json(a: np.ndarray, kind: str) -> dict:
    """Encode a real matrix (or mean vector) as a plain JSON-ready dict.

    The dict carries an explicit quadrature-ordering tag so files written
    here cannot silently be read under a different convention.
    """
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    a = np.asarray(a, dtype=float)
    if kind == "mean":
        if a.ndim != 1 or a.size % 2:
            raise ValueError("mean must be a length-2N vector")
        n_modes = a.size // 2
    elif kind in ("unitary-real", "unitary-imag"):
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"{kind} must be a square matrix")
        n_modes = a.shape[0]
    else:
        n_modes = _check_even_square(a, kind)
    return {"kind": kind, "n_modes": n_modes, "ordering": ORDERING, "data": a.tolist()}


def matrix_from_json(obj: dict, expect_kind: str | None = None) -> np.ndarray:
    """Decode a dict produced by :func:`matrix_to_json`, checking its tags."""
    for field in ("kind", "n_modes", "ordering", "data"):
        if field not in obj:
            raise ValueError(f"matrix JSON is missing field {field!r}")
    kind = obj["kind"]
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise ValueError(f"expected matrix kind {expect_kind!r}, found {kind!r}")
    if obj["ordering"] != ORDERING:
        raise ValueError(f"unsupported quadrature ordering {obj['ordering']!r}")
    a = np.asarray(obj["data"], dtype=float)
    n = int(obj["n_modes"])
    if kind == "mean":
        expected = (2 * n,)
    elif kind in ("unitary-real", "unitary-imag"):
        expected = (n, n)
    else:
        expected = (2 * n, 2 * n)
    if a.shape != expected:
        raise ValueError(f"{kind} data has shape {a.shape}, expected {expected}")
    return a


def unitary_to_json(u: np.ndarray) -> dict:
    """Encode a complex unitary as paired real/imag matrix dicts."""
    u = np.asarray(u, dtype=complex)
    return {
        "real": matrix_to_json(u.real, "unitary-real"),
        "imag": matrix_to_json(u.imag, "unitary-imag"),
    }


def unitary_from_json(obj: dict) -> np.ndarray:
    """Decode a dict produced by :func:`unitary_to_json`."""
    for field in ("real", "imag"):
        if field not in obj:
            raise ValueError(f"unitary JSON is missing field {field!r}")
    re = matrix_from_json(obj["real"], expect_kind="unitary-real")
    im = matrix_from_json(obj["imag"], expect_kind="unitary-imag")
    if re.shape != im.shape:
        raise ValueError("unitary real/imag parts disagree in shape")
    return re + 1j * im
