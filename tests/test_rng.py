import numpy as np
import pytest
from hypothesis import given, strategies as st

from mfchain import rng


def test_mix64_known_answer():
    # SplitMix64 seeded with 0: the first output is the finalizer applied
    # to the first incremented state.
    v = rng.mix64(np.uint64(0x9E3779B97F4A7C15))
    assert int(v) == 0xE220A8397B1DCDAF


def splitmix_uniform(subkey, k):
    """uniforms in pure Python integers: SplitMix64 of subkey + k * PHI."""
    x = (subkey + k * 0x9E3779B97F4A7C15) & rng.MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & rng.MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & rng.MASK64
    x ^= x >> 31
    return x, ((x >> 11) + 1) * 2.0**-53


def test_uniforms_known_answer():
    # raw(0, 1) is the mix64 known answer, whose top bit is set
    assert rng.uniforms(np.uint64(0), 1) == ((0xE220A8397B1DCDAF >> 11) + 1) * 2.0**-53
    # counters near 2**64 and a subkey near 2**64 wrap the sum mod 2**64
    subkeys = [0, 1, 0x8000000000000000, rng.MASK64]
    counters = [0, 1, 2, 1000, 2**32, 2**63 - 1, 2**63, rng.MASK64 - 1, rng.MASK64]
    top_bit = 0
    for key in subkeys:
        got = rng.uniforms(np.uint64(key), np.array(counters, dtype=np.uint64))
        ref = [splitmix_uniform(key, k) for k in counters]
        assert got.dtype == np.float64 and got.tolist() == [u for _, u in ref]
        assert [rng.uniforms(np.uint64(key), np.uint64(k)) for k in counters] == got.tolist()
        top_bit += sum(raw >> 63 for raw, _ in ref)
    assert top_bit > 0


def test_mix64_array_matches_scalar():
    xs = np.arange(1000, dtype=np.uint64) * np.uint64(0x123456789)
    arr = rng.mix64(xs)
    for i in (0, 17, 999):
        assert arr[i] == rng.mix64(xs[i])


@given(st.integers(0, 2**32), st.integers(0, 10_000))
def test_uniforms_in_half_open_unit_interval(seed, rep):
    u = rng.uniform_block(seed, rep, rng.DOMAIN_EVENTS, 0, 256)
    assert np.all(u > 0.0) and np.all(u <= 1.0)


def test_determinism_and_separation():
    a = rng.uniform_block(42, 7, rng.DOMAIN_EVENTS, 0, 64)
    b = rng.uniform_block(42, 7, rng.DOMAIN_EVENTS, 0, 64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, rng.uniform_block(42, 8, rng.DOMAIN_EVENTS, 0, 64))
    assert not np.array_equal(a, rng.uniform_block(43, 7, rng.DOMAIN_EVENTS, 0, 64))
    assert not np.array_equal(a, rng.uniform_block(42, 7, rng.DOMAIN_INIT, 0, 64))


def test_counter_addressing_is_stateless():
    # draw 100..163 of a stream equals the tail of draws 0..163
    key = rng.domain_key(rng.stream_key(5, 3), rng.DOMAIN_EVENTS)
    full = rng.uniforms(key, np.arange(164, dtype=np.uint64))
    tail = rng.uniforms(key, np.arange(100, 164, dtype=np.uint64))
    assert np.array_equal(full[100:], tail)


def test_stream_key_vectorizes():
    reps = np.arange(50, dtype=np.uint64)
    keys = rng.stream_key(9, reps)
    assert keys.shape == (50,)
    assert keys[13] == rng.stream_key(9, 13)
    assert len(np.unique(keys)) == 50


def test_uniform_statistics():
    u = rng.uniform_block(0, 0, rng.DOMAIN_EVENTS, 0, 200_000)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_random_measures_validity():
    m = rng.random_measures(3, 500, 4, floor=0.02)
    assert m.shape == (500, 4)
    assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)
    assert m.min() >= 0.02 - 1e-12
    with pytest.raises(ValueError):
        rng.random_measures(3, 10, 4, floor=0.3)  # floor * d >= 1


def test_random_measures_rep_streams_differ():
    a = rng.random_measures(3, 50, 3, rep=0)
    b = rng.random_measures(3, 50, 3, rep=1)
    assert not np.allclose(a, b)


def test_random_measures_blocks_equal_one_draw():
    whole = rng.random_measures(3, 2500, 4, floor=0.02, rep=1)
    for start, n in ((0, 1), (0, 1024), (1024, 1), (1025, 1475), (7, 993)):
        block = rng.random_measures(3, n, 4, floor=0.02, rep=1, start=start)
        assert np.array_equal(block, whole[start:start + n])
