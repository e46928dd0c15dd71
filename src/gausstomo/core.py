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
import numbers
import operator
from dataclasses import dataclass

import numpy as np

# Absolute entrywise tolerance for structural checks (symplectic, unitary).
STRUCTURAL_TOL = 1e-9
_SQRT2 = np.sqrt(2.0)  # of a coherent mean; a NumPy float, so its products keep NumPy types
_BOOLS = (bool, np.bool_)  # no count, index, seed or real input is a bool
_FLOAT_MAX = float(np.finfo(float).max)  # a Python float, which any int compares with exactly
_MAX_MODES = 2**29  # the least N whose (2N, 2N) float64 array holds 2**63 bytes

# Block asymmetry admitted when reading a unitary out of a reconstructed
# (hence noisy) passive symplectic matrix.
PASSIVE_BLOCK_TOL = 1e-6


class NotPassiveError(ValueError):
    """The matrix does not have the block structure of a passive transformation."""


@dataclass(frozen=True)
class GaussianState:
    """A Gaussian state: mean (length 2N), finite symmetric covariance (2N x 2N), sigma + iJ >= 0.

    Instances are immutable; the arrays are copied and marked read-only so a
    state can be shared freely between threads.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean, n = _array(self.mean, "mean")
        mean, cov = mean.copy("K"), _array(self.cov, "covariance", n)[0].copy("K")
        if not np.isfinite(cov).all():  # a NaN passes the symmetry check, an inf warns in it
            raise ValueError("covariance matrix has non-finite entries")
        if np.max(np.abs(cov - cov.T)) > STRUCTURAL_TOL:
            raise ValueError("covariance matrix is not symmetric")
        tol = STRUCTURAL_TOL * max(1.0, np.max(np.abs(cov)))  # roundoff at sigma's scale
        if np.linalg.eigvalsh(cov + 1j * symplectic_form(n))[0] < -tol:  # uncertainty principle
            raise ValueError("covariance matrix violates the uncertainty principle sigma + iJ >= 0")
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
    _check_index(n, "number of modes", 1, _MAX_MODES)
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


# an N-mode array of each kind has shape N times these factors; any other kind (2, 2)
_SHAPE_FACTORS = {"mean": (2,), "unitary": (1, 1), "unitary-real": (1, 1), "unitary-imag": (1, 1)}


def _array(a, kind: str, n: int | None = None) -> tuple[np.ndarray, int]:
    """``a`` read as an N-mode ``kind`` array, and N. Its entries must be real numbers (complex
    for a unitary), not the bools, strings or None NumPy would read as numbers; its shape that of
    N = ``n`` >= 1 modes, or N is read off the first axis: (2N,) for a mean, (N, N) for a unitary
    (no JSON kind) or its parts, else (2N, 2N). An ndarray of numbers pays one dtype test, any
    other input one scan of its entries' types."""
    unitary = kind == "unitary"  # the one kind whose entries may be complex
    numbers = "iufc" if unitary else "iuf"  # their dtype kinds
    if not (isinstance(a, np.ndarray) and a.dtype.kind in numbers):
        try:  # each entry's type, in order of first appearance; a ragged nesting holds a list
            types = dict.fromkeys(map(type, (a := np.array(a, dtype=object)).flat))
        except ValueError:  # a nesting too ragged for NumPy to hold even as objects
            types = (list,)
        if bad := [t for t in types if np.dtype(t).kind not in numbers]:
            raise ValueError(f"{kind} data must hold {'complex' if unitary else 'real'} "
                             f"numbers, got an entry of type {bad[0].__name__}")
    try:
        a = np.asarray(a, dtype=complex if unitary else float)
    except OverflowError:  # a Python int beyond float64's range
        raise ValueError(f"{kind} data must hold {'complex' if unitary else 'real'} numbers, "
                         "got an entry beyond float64's range") from None
    factors = _SHAPE_FACTORS.get(kind, (2, 2))
    if n is None:
        n = a.shape[0] // factors[0] if a.ndim else 0
    if n < 1 or a.shape != (shape := tuple(factor * n for factor in factors)):
        expected = f"{shape} for N = {n}" if n >= 1 else "N >= 1 modes"
        raise ValueError(f"{kind} data has shape {a.shape}, expected {expected}")
    return a, n


def is_symplectic(s: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    """Check the symplectic condition S J S^T = J entrywise within ``tol``.

    Raises:
        ValueError: if ``s`` is not square with even dimension.
    """
    s, n = _array(s, "matrix")
    j = symplectic_form(n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed product is not symplectic
        return bool(np.max(np.abs(s @ j @ s.T - j)) <= tol)


def embed_unitary(u: np.ndarray, tol: float = STRUCTURAL_TOL) -> np.ndarray:
    """Embed an N x N unitary as the 2N x 2N symplectic matrix of a passive map.

    The embedding is ``[[Re(u), Im(u)], [-Im(u), Re(u)]]``; the result is both
    symplectic and orthogonal.

    Args:
        u: complex N x N matrix, N >= 1, unitary within ``tol``.

    Raises:
        ValueError: if ``u`` is not N x N with N >= 1, or not unitary within ``tol``.
    """
    u, n = _array(u, "unitary")
    residual = np.max(np.abs(u @ u.conj().T - np.eye(n)))
    if not residual <= tol:
        raise ValueError(f"matrix is not unitary: residual {residual:.3e}, tolerance {tol:.1e}")
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
    s, n = _array(s, "matrix")
    a, b = s[:n, :n], s[:n, n:]
    c, d = s[n:, :n], s[n:, n:]
    asym = max(np.max(np.abs(a - d)), np.max(np.abs(b + c)))
    if not asym <= tol:
        raise NotPassiveError(
            f"matrix is not passive: block asymmetry {asym:.3e}, tolerance {tol:.1e}"
        )
    return (a + d) / 2 + 1j * (b - c) / 2


def vacuum_state(n: int) -> GaussianState:
    """The n-mode vacuum: zero mean, identity covariance."""
    _check_index(n, "number of modes", 1, _MAX_MODES)
    return GaussianState(mean=np.zeros(2 * n), cov=np.eye(2 * n))


def coherent_probe_state(n: int, mode_j: int, amplitude: float, phase: float) -> GaussianState:
    """Coherent probe of complex amplitude ``amplitude * exp(i phase)`` in one mode.

    Mode ``mode_j`` (1-based) carries mean ``(sqrt(2) amplitude cos(phase),
    sqrt(2) amplitude sin(phase))``; every other mode is vacuum.

    Args:
        n: number of modes.
        mode_j: input mode index, 1 <= mode_j <= n.
        amplitude: real probe amplitude, finite and >= 0.
        phase: probe phase in radians, finite.

    Raises:
        ValueError: if ``mode_j`` is not an integer or out of range, or
            ``amplitude`` or ``phase`` is out of range or not finite.
    """
    _check_index(n, "number of modes", 1, _MAX_MODES)
    _check_index(mode_j, "mode index", 1)
    _check_probe(amplitude, phase)
    return GaussianState(mean=_coherent_mean(n, mode_j, amplitude, phase), cov=np.eye(2 * n))


def _check_probe(amplitude: float, phase: float) -> None:
    """A coherent probe's amplitude must be finite and >= 0, its phase finite."""
    _check_real(amplitude, "probe amplitude", 0)
    _check_real(phase, "probe phase")


def _check_eta(eta: float) -> None:
    """A power transmissivity must be in (0, 1]."""
    if not 0 < _real(eta) <= 1:
        raise ValueError(f"transmissivity must be in (0, 1], got {eta!r}")


def _check_real(value, name: str, low: float = -math.inf) -> None:
    """``value`` must be a real number, not a bool, finite and >= ``low``."""
    if not (math.isfinite(real := _real(value)) and real >= low):
        bound = f" and >= {low}" if low > -math.inf else ""
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")


def _check_index(value, name: str, low: int, high: float = math.inf) -> int:
    """``value`` as an int: an integer (``operator.index``), not a bool, in [``low``, ``high``)."""
    try:  # not contextlib.suppress: per probe, its object would cost several times the check
        if low <= (index := operator.index(None if isinstance(value, _BOOLS) else value)) < high:
            return index
    except TypeError:
        index = low
    below = f" and < {high}" if index >= high else ""
    raise ValueError(f"{name} must be an integer >= {low}{below}, got {value!r}")


def _real(value):
    """``value`` if a float, or a non-bool real within float64's range; else NaN, failing checks."""
    if isinstance(value, (float, np.float32, np.float16)):  # np.float64 too; a float32 would cast
        return value  # the bound below to inf and warn; an inf or NaN fails every check anyway
    real = isinstance(value, numbers.Real) and not isinstance(value, _BOOLS)
    return value if real and -_FLOAT_MAX <= value <= _FLOAT_MAX else math.nan  # an int stays exact


def _check_fields(obj, fields: tuple[str, ...], what: str) -> None:
    """A decoded JSON ``what`` must be an object holding every one of ``fields``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    for field in fields:
        if field not in obj:
            raise ValueError(f"{what} is missing field {field!r}")


def _coherent_mean(n: int, mode_j: int, amplitude: float, phase: float, gain=1.0) -> np.ndarray:
    """Mean of :func:`coherent_probe_state` times ``gain`` > 0 (on its two nonzero entries: the
    same bits); checks the mode index's upper bound, the caller (``ProbeSpec``) the lower."""
    if mode_j > n:
        raise ValueError(f"mode index {mode_j} out of range 1..{n}")
    mean = np.zeros(2 * n)
    mean[mode_j - 1] = gain * (_SQRT2 * amplitude * np.cos(phase))
    mean[n + mode_j - 1] = gain * (_SQRT2 * amplitude * np.sin(phase))
    return mean


def apply_symplectic(s: np.ndarray, state: GaussianState) -> GaussianState:
    """Evolve a state through a symplectic map: mean -> S mean, cov -> S cov S^T."""
    s, _ = _array(s, "matrix", state.n_modes)
    return GaussianState(mean=s @ state.mean, cov=s @ state.cov @ s.T)


def apply_uniform_loss(eta: float, state: GaussianState) -> GaussianState:
    """Apply the same beam-splitter loss of transmissivity ``eta`` to every mode.

    Means are attenuated by sqrt(eta); the covariance mixes with vacuum,
    ``sigma -> eta sigma + (1 - eta) I``.

    Args:
        eta: power transmissivity, 0 < eta <= 1.
    """
    _check_eta(eta)
    dim = state.mean.size
    return GaussianState(
        mean=np.sqrt(eta) * state.mean,
        cov=eta * state.cov + (1.0 - eta) * np.eye(dim),
    )


def scaled_frobenius(a: np.ndarray, b: np.ndarray, n_modes: int | None = None) -> float:
    """Frobenius norm of ``a - b`` divided by the number of modes.

    For the default ``n_modes=None`` both are real 2N x 2N matrices, N >= 1, and N is half the
    dimension. Pass ``n_modes`` explicitly to apply the same metric to N x N complex matrices.

    Raises:
        ValueError: on an entry or shape :func:`_array` rejects, or on bad ``n_modes``.
    """
    kind = "matrix" if n_modes is None else "unitary"
    a, n = _array(a, kind, n_modes if n_modes is None else _check_index(n_modes, "n_modes", 1))
    return float(np.linalg.norm(a - _array(b, kind, n)[0]) / n)


MATRIX_KINDS = ("symplectic", "unitary-real", "unitary-imag", "covariance", "mean")
ORDERING = "xxpp"


def matrix_to_json(a: np.ndarray, kind: str) -> dict:
    """Encode a real matrix (or mean vector) as a plain JSON-ready dict.

    The dict carries an explicit quadrature-ordering tag so files written
    here cannot silently be read under a different convention. N is read off
    the first axis, and the shape checked by :func:`matrix_from_json`'s rule.
    """
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    a, n = _array(a, kind)
    return {"kind": kind, "n_modes": n, "ordering": ORDERING, "data": a.tolist()}


def matrix_from_json(obj: dict, expect_kind: str | None = None) -> np.ndarray:
    """Decode a dict produced by :func:`matrix_to_json`, checking its tags."""
    _check_fields(obj, ("kind", "n_modes", "ordering", "data"), "matrix JSON")
    kind = obj["kind"]
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise ValueError(f"expected matrix kind {expect_kind!r}, found {kind!r}")
    if obj["ordering"] != ORDERING:
        raise ValueError(f"unsupported quadrature ordering {obj['ordering']!r}")
    return _array(obj["data"], kind, _check_index(obj["n_modes"], "n_modes", 1))[0]


def unitary_to_json(u: np.ndarray) -> dict:
    """Encode a complex unitary as paired real/imag matrix dicts."""
    u, _ = _array(u, "unitary")
    return {
        "real": matrix_to_json(u.real, "unitary-real"),
        "imag": matrix_to_json(u.imag, "unitary-imag"),
    }


def unitary_from_json(obj: dict) -> np.ndarray:
    """Decode a dict produced by :func:`unitary_to_json`."""
    _check_fields(obj, ("real", "imag"), "unitary JSON")
    re = matrix_from_json(obj["real"], expect_kind="unitary-real")
    im = matrix_from_json(obj["imag"], expect_kind="unitary-imag")
    if re.shape != im.shape:
        raise ValueError("unitary real/imag parts disagree in shape")
    return re + 1j * im
