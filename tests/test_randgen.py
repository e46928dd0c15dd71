import itertools
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gausstomo
from gausstomo import DEFAULT_R_MAX, derive_seed, haar_unitary, is_symplectic, random_symplectic
from gausstomo import randgen, tomography
from gausstomo.device import HETERODYNE, DeviceModel, MeasurementConfig, ProbeSpec, SimulatedDevice


# ints beyond float64's range, where every real input is rejected by its own message
HUGE = [pytest.param(10**400, id="10**400"), pytest.param(-10**400, id="-10**400")]


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


@pytest.mark.parametrize("n", [1, 2, 8, 32, 64])
def test_draws_at_the_largest_r_max_pass_device_model(n):
    assert randgen._R_MAX_LIMIT == 6.0  # the bound README and CI name
    for seed in range(20):
        DeviceModel(random_symplectic(n, r_max=randgen._R_MAX_LIMIT, seed=seed))


@pytest.mark.parametrize("r_max", [np.nextafter(6.0, 7.0), 9, 800.0, np.float32(6.5)],
                         ids=["next-float", "int-9", "800", "float32"])
def test_random_symplectic_rejects_r_max_past_the_bound_before_any_draw(monkeypatch, r_max):
    monkeypatch.setattr(randgen, "_rng", None)  # no generator is made
    message = rf"^r_max must be <= 6\.0, got {re.escape(repr(r_max))}$"
    with pytest.raises(ValueError, match=message):
        random_symplectic(2, r_max=r_max, seed=0)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)
    assert derive_seed(0) != derive_seed(1)
    assert 0 <= derive_seed(3, 4) < 2**64


@pytest.mark.parametrize("r_max", [float("nan"), float("inf"), -0.1, *HUGE])
def test_random_symplectic_rejects_bad_r_max(r_max):
    with pytest.raises(ValueError, match="^r_max must be finite and >= 0, got "):
        random_symplectic(2, r_max=r_max, seed=0)


# (master, k) -> derive_seed(master, k), and the PCG64 (state, inc) of
# default_rng(derive_seed(master, k)); SeedSequence and PCG64 seeding are
# specified on little-endian words, so these hold on every platform
PINNED_STREAMS = [
    (0, 0, 15793235383387715774,
     0x8C03BA954894611D775D3D476B050614, 0xF0A87D86C2674172D43004A2C6FC2385),
    (2**32 - 1, 1, 6766491796382316032,
     0xFB905EE02F7F2C02255CB8B2DFE8ABFD, 0x4B2DFC8393CEF576690B159201D90AEF),
    (2**32, 5, 13922735284947157694,
     0xE51D7A95FCB1880C03C13FFC50095B14, 0x8832289B9A77031D33D66B4A208D94D5),
    (2**64 - 1, 127, 8196200917048970049,
     0xCD1C639870B9704497B4D5050198BAE4, 0x7FB844AFDD5BA041EFA6307476796A1B),
]


@pytest.mark.parametrize("master, k, child, state, inc", PINNED_STREAMS,
                         ids=["zero", "one-word", "two-word", "largest"])
def test_pinned_streams(master, k, child, state, inc):
    assert derive_seed(master, k) == child
    pcg = {"state": state, "inc": inc}
    assert np.random.default_rng(child).bit_generator.state["state"] == pcg
    children, words = randgen._stream_tables({master: k + 1})[master]
    assert children[k] == child
    replayed = randgen._stream(child, words[k])
    assert replayed is not randgen._stream(child, words[k])  # a new generator at every call
    assert replayed.bit_generator.state["state"] == pcg
    assert randgen._stream(child, None).bit_generator.state["state"] == pcg


@settings(max_examples=40)
@given(st.dictionaries(st.integers(0, 2**64 - 1), st.integers(1, 128), min_size=1, max_size=3))
@example({0: 3, 2**32 - 1: 128, 2**32: 1, 2**64 - 1: 17})
def test_sweep_streams_match_derive_seed_and_default_rng(settings_per_master):
    """The one-pass tables replay SeedSequence bit for bit, for one- and two-word masters."""
    tables = randgen._stream_tables(settings_per_master)
    assert list(tables) == list(settings_per_master)
    for master, count in settings_per_master.items():
        children, word_rows = tables[master]  # row views of the one pass, not Python lists
        assert children.shape == (count,) and word_rows.shape == (count, 4)
        assert children.base is not None and word_rows.base is not None
        for k, (child, words) in enumerate(zip(children.tolist(), word_rows)):
            assert child == derive_seed(master, k)
            assert words.shape == (4,) and np.shares_memory(words, word_rows)  # a row view
            seeded = np.random.SeedSequence(child).generate_state(4, np.uint64)
            assert words.tolist() == seeded.tolist()
            replayed = randgen._stream(child, words)
            assert replayed is not randgen._stream(child, words)  # a new generator at every call
            native = np.random.default_rng(child)
            assert replayed.bit_generator.state == native.bit_generator.state
        # past the table: no stream, rather than one derived another way, and no probe
        device = SimulatedDevice(DeviceModel(np.eye(2)))
        config = MeasurementConfig(HETERODYNE, 1)._reseeded(master, table=tables[master])
        with pytest.raises(ValueError, match=f"table of {count} rows cannot seed {count + 1}"):
            tomography._probe_settings(device, [ProbeSpec(1, 1.0)] * (count + 1), [config])
        assert device.settings_used == 0


# masters across the word boundaries SeedSequence splits an int at, and beyond 2**64
MASTERS = st.one_of(st.integers(0, 2**70),
                    st.sampled_from([2**32 - 1, 2**32, 2**64 - 1, 2**64, 10**40]))
# one to four tuples of zero to eight parts, each of one word or two
PARTS = st.integers(0, 8).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 2**33)] * n), min_size=1, max_size=4))


@settings(max_examples=60)
@given(master=MASTERS, parts=PARTS, count=st.integers(1, 12))
@example(master=2**32 - 1, parts=[(2**32 - 1, 2**32, 0, 7, 2**33)], count=1)
@example(master=10**40, parts=[(), ()], count=3)
@example(master=2**64, parts=[(1, 2**32), (2**32, 1), (0, 0)], count=12)
def test_seed_pass_replays_derive_seed_bit_for_bit(master, parts, count):
    """One pass gives ``derive_seed(master, *p)`` for every tuple ``p``, tuples whose parts
    take one word or two side by side, and a stream table of rows for any master."""
    columns = np.array(parts, np.uint64).T
    derived = randgen._seed_words(1, len(parts), master, *columns)[:, 0].tolist()
    assert derived == [derive_seed(master, *p) for p in parts]
    children, words = randgen._stream_tables({master: count})[master]
    assert children.tolist() == [derive_seed(master, k) for k in range(count)]
    for child, row in zip(children.tolist(), words):
        assert row.tolist() == np.random.SeedSequence(child).generate_state(4, np.uint64).tolist()


def test_stream_outside_a_sweep_is_a_fresh_generator():
    for master, count in itertools.product((7, 2**40 + 3), range(1, 16)):
        # a table pass of its own, however few the settings
        children, word_rows = randgen._stream_tables({master: count})[master]
        assert children.tolist() == [derive_seed(master, k) for k in range(count)]
        for child, words in zip(children.tolist(), word_rows):
            assert (randgen._stream(child, words).bit_generator.state
                    == np.random.default_rng(child).bit_generator.state)
    fresh = randgen._stream(5, None)  # a caller's own seed: default_rng
    assert fresh is not randgen._stream(5, None)
    np.testing.assert_array_equal(fresh.standard_normal(4),
                                  np.random.default_rng(5).standard_normal(4))


def test_replayed_stream_restarts_at_every_read():
    child = derive_seed(11, 0)
    expected = np.random.default_rng(child).standard_normal(8)
    [seed], [words] = randgen._stream_tables({11: 1})[11]
    assert seed == child
    replays = [randgen._stream(seed, words) for _ in range(2)]
    assert replays[0] is not replays[1]
    for replayed in replays:
        np.testing.assert_array_equal(replayed.standard_normal(8), expected)


@pytest.mark.parametrize("master", [2**64 - 1, 2**64, 10**40, 10**399],
                         ids=["2^64-1", "2^64", "10^40", "400-digit"])
def test_a_master_of_any_size_takes_table_words(master):
    children, word_rows = randgen._stream_tables({master: 3})[master]
    assert children.tolist() == [derive_seed(master, k) for k in range(3)]
    for child, words in zip(children.tolist(), word_rows):
        seeded = np.random.SeedSequence(child).generate_state(4, np.uint64)
        assert words.tolist() == seeded.tolist()
        assert (randgen._stream(child, words).bit_generator.state
                == np.random.default_rng(child).bit_generator.state)


def test_table_streams_held_at_once_do_not_alias():
    (s0, s1), (w0, w1) = randgen._stream_tables({3: 2})[3]
    s0, s1 = int(s0), int(s1)
    a, b = randgen._stream(s0, w0), randgen._stream(s1, w1)
    assert a is not b
    for held, seed in ((a, s0), (b, s1)):  # each draws its own seed's numbers
        np.testing.assert_array_equal(held.standard_normal(8),
                                      np.random.default_rng(seed).standard_normal(8))


def test_package_keeps_no_thread_state():
    modules = [module for name, module in sys.modules.items()
               if name == "gausstomo" or name.startswith("gausstomo.")]
    assert randgen in modules
    for module in modules:
        assert not any(isinstance(value, threading.local) for value in vars(module).values())
    namespace = dict(vars(randgen))
    [seed], [words] = randgen._stream_tables({3: 1})[3]
    seen = []
    thread = threading.Thread(target=lambda: seen.append(randgen._stream(seed, words)))
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive() and len(seen) == 1
    assert seen[0].bit_generator.state == np.random.default_rng(seed).bit_generator.state
    assert vars(randgen) == namespace  # no name rebound or added


def test_import_does_not_load_numpy_random():
    code = "import sys, gausstomo; print('numpy.random' in sys.modules)"
    src = os.path.dirname(os.path.dirname(gausstomo.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
