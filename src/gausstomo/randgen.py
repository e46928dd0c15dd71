"""Seeded generation of Haar-random unitaries and random symplectic matrices.

All randomness in the package flows through PCG64 generators, so a fixed
seed reproduces bit-identical matrices across runs. Seed streams for
independent settings or repetitions are derived with :func:`derive_seed`,
which hashes an index tuple through ``SeedSequence`` and defines every stream.
:func:`_seed_words` replays that hash for many tuples in one vectorised pass,
whatever the size of their integers: an experiment sweep derives all its
master seeds in one pass, and :func:`_stream_tables` gives each setting k of a
finite-shot reconstruction its child seed ``derive_seed(master, k)`` and its
PCG64 seeding words, as rows of a second: a sweep derives one table for all its
masters and hands each reconstruction its rows in its config, else the
reconstruction derives its own. The words travel with the setting's config, and
:func:`_stream` seeds a fresh PCG64 from them; a caller's own config probed
directly seeds it from its seed, as ``default_rng`` does.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import _MAX_MODES, _check_index, _check_real, embed_unitary

DEFAULT_R_MAX = 0.5
# a draw's S J S^T - J carries roundoff of about c eps e^(2 r_max), c <= 0.3 measured up to
# N = 64; at 6, even c = 16 gives 5.8e-10 < STRUCTURAL_TOL: every draw passes DeviceModel
_R_MAX_LIMIT = 6.0


def derive_seed(master: int, *parts: int) -> int:
    """Derive an independent 64-bit child seed from a master seed and indices, integers >= 0."""
    ss = np.random.SeedSequence([_check_index(v, "seed", 0) for v in (master, *parts)])
    return int(ss.generate_state(1, np.uint64)[0])


_MIX_L, _MIX_R = np.array(0xCA01F9DD, np.uint32), np.array(0x4973F715, np.uint32)
_OTHERS, _CYCLE = [np.delete(np.arange(4), src) for src in range(4)], np.arange(8) % 4


def _hash(rows: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of row i with constants i and i + 1 of ``chain``."""
    rows = rows ^ chain[:-1]
    rows *= chain[1:]
    rows ^= rows >> 16
    return rows


def _seed_words(n_words: int, size: int, *columns) -> np.ndarray:
    """``SeedSequence(e).generate_state(n_words, np.uint64)`` as (size, n_words) rows, for the
    ``size`` entropies ``e`` that list each column's entry: an int >= 0 shared by all, or a uint64
    array, split into 32-bit words as SeedSequence splits an int. Each step works on word rows."""
    blocks = []  # (word row, which entropies hold it); an entropy's unheld words are zeros
    for c in columns:
        if isinstance(c, np.ndarray):  # low words, and high words if any is nonzero
            low, high = np.ascontiguousarray(c, "<u8").view("<u4").reshape(-1, 2).T
            blocks += [(low, True)] + [(high, high.all() or high != 0)] * bool(high.any())
        else:  # at least one word
            words = c.to_bytes((c.bit_length() + 31) // 32 * 4 or 4, "little")
            blocks += [(w, True) for w in np.frombuffer(words, "<u4")]
    entropy = np.zeros((max(4, len(blocks)), size), np.uint32)  # the pool hashes no word as 0
    held = entropy.astype(bool)
    for row, (words, holds) in enumerate(blocks):
        entropy[row], held[row] = words, holds
    if not held[:len(blocks)].all():  # each entropy's words first, its unheld zeros last
        order = np.argsort(~held, 0, kind="stable")
        entropy, held = np.take_along_axis(entropy, order, 0), np.take_along_axis(held, order, 0)
    # SeedSequence's two running hash constants, h * mult**i mod 2**32 at step i, as columns
    mix, out = (np.array([h] + [mult] * n, np.uint32).cumprod(dtype=np.uint32)[:, None]
                for h, mult, n in ((0x43B0D7E5, 0x931E8875, 4 * len(entropy)),
                                   (0x8B51F9DD, 0x58F38DED, 2 * n_words)))
    pool = _hash(entropy[:4], mix[:5])
    entropy, held = entropy[4:].copy(), held[4:].copy()  # words past the pool; frees the rest
    for src, dst in enumerate(_OTHERS):
        value = _MIX_L * pool[dst] - _MIX_R * _hash(pool[src], mix[4 + 3 * src:8 + 3 * src])
        pool[dst] = value ^ (value >> 16)
    for row, (extra, holds) in enumerate(zip(entropy, held), 4):  # each mixes into every pool word
        value = _MIX_L * pool - _MIX_R * _hash(extra, mix[4 * row:4 * row + 5])
        pool = np.where(holds, value ^ (value >> 16), pool)
    words = _hash(pool[_CYCLE[:2 * n_words]], out)
    return np.ascontiguousarray(words.T, "<u4").view("<u8").astype(np.uint64, copy=False)


def _stream_tables(settings: dict[int, int]) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """``{master: (children, words)}``: ``children[k] = derive_seed(master, k)`` for each
    ``k < settings[master]``, and ``words[k]`` that child's PCG64 seeding words
    ``generate_state(4, np.uint64)``, as row views of one pass. One master may have any size,
    several must be below 2**64."""
    counts = np.fromiter(settings.values(), np.intp, len(settings))
    starts = np.cumsum(counts) - counts
    masters = [*settings]  # the columns live in the call only: freed before the words pass
    children = _seed_words(1, size := counts.sum(), masters[0] if len(masters) == 1 else
                           np.repeat(np.array(masters, np.uint64), counts),
                           (np.arange(size) - np.repeat(starts, counts)).view(np.uint64))[:, 0]
    words = _seed_words(4, size, children)
    return {master: (children[start:end], words[start:end]) for master, start, end
            in zip(settings, starts.tolist(), (starts + counts).tolist())}


@functools.cache
def _table_seed() -> type:
    """An ``ISeedSequence`` whose ``generate_state(4, np.uint64)`` is a contiguous table row,
    which PCG64 reads in place; made at first use, so import does not load ``numpy.random``."""

    class TableSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return TableSeed


def _stream(seed: int, words: np.ndarray | None) -> np.random.Generator:
    """``default_rng(seed)``, a fresh ``Generator(PCG64(seed))``; given ``seed``'s PCG64
    seeding ``words``, the same generator seeded from them, without deriving them again."""
    return np.random.Generator(np.random.PCG64(seed if words is None else _table_seed()(words)))


def _rng(seed) -> np.random.Generator:
    """``default_rng`` of None, a NumPy Generator, BitGenerator or SeedSequence, or an int >= 0."""
    given = (type(None), np.random.Generator, np.random.BitGenerator, np.random.SeedSequence)
    return np.random.default_rng(seed if isinstance(seed, given) else _check_index(seed, "seed", 0))


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
        seed: integer seed >= 0, None, or a NumPy Generator, BitGenerator or SeedSequence.

    Returns:
        Complex n x n array, unitary to double precision.
    """
    _check_index(n, "number of modes", 1, _MAX_MODES)
    return _haar_unitary(n, _rng(seed))


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
        r_max: maximum squeezing magnitude, in [0, 6]; past 6, roundoff breaks the symplectic form.
        seed: integer seed >= 0, None, or a NumPy Generator, BitGenerator or SeedSequence.
    """
    _check_index(n, "number of modes", 1, _MAX_MODES)
    _check_real(r_max, "r_max", 0)
    if r_max > _R_MAX_LIMIT:  # past it, roundoff can break a draw's symplectic form
        raise ValueError(f"r_max must be <= {_R_MAX_LIMIT}, got {r_max!r}")
    rng = _rng(seed)
    k1 = embed_unitary(_haar_unitary(n, rng))
    r = rng.uniform(-r_max, r_max, size=n)
    k2 = embed_unitary(_haar_unitary(n, rng))
    z = np.diag(np.concatenate([np.exp(r), np.exp(-r)]))
    return k1 @ z @ k2
