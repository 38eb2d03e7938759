"""Pin of the batched stream derivation against numpy.

``rng.streams`` re-implements ``SeedSequence``'s entropy mix in vectorized
numpy and re-keys one Philox per stream.  It is a copy of numpy's
algorithm, not a call into it, so a numpy release that changes
``SeedSequence`` or the Philox state layout must fail here.  If it does,
the fallback is ``make_rng``: derive each stream with
``make_rng(seed, *key)`` inside ``streams``, which is the reference these
tests compare against and draws the same numbers by definition.
"""

import numpy as np
import pytest

from qlang.rng import make_rng, philox_keys, streams

SEEDS = (0, 5, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1)


def _random_keys(gen, count, depth):
    """Stream tuples with small entries, as the protocols use, and about a
    third of the entries at or above 2^32."""
    small = gen.integers(0, 1000, size=(count, depth))
    large = gen.integers(2**32, 2**64, size=(count, depth), dtype=np.uint64)
    pick = gen.random((count, depth)) < 1 / 3
    return [tuple(int(l) if p else int(s) for s, l, p in zip(sr, lr, pr))
            for sr, lr, pr in zip(small, large, pick)]


@pytest.mark.parametrize("seed", SEEDS)
def test_keys_match_seed_sequence(seed):
    gen = np.random.default_rng(seed % 1000)
    for depth in (1, 2, 3, 4):
        keys = _random_keys(gen, 1000, depth)
        got = philox_keys(seed, keys)
        want = [np.random.SeedSequence(entropy=seed, spawn_key=k).generate_state(2, np.uint64)
                for k in keys]
        assert got.dtype == np.uint64 and got.shape == (len(keys), 2)
        assert np.array_equal(got, np.array(want))
    # Philox keys itself with those two words
    k = keys[0]
    philox = np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=k))
    assert np.array_equal(philox.state["state"]["key"], philox_keys(seed, [k])[0])


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_are_bit_identical_to_make_rng(seed):
    gen = np.random.default_rng(seed % 997)
    keys = [k for depth in (1, 2, 3, 4) for k in _random_keys(gen, 50, depth)]
    by_depth = {}
    for k in keys:
        by_depth.setdefault(len(k), []).append(k)
    for batch in by_depth.values():
        for key, rng in zip(batch, streams(seed, batch)):
            ref = make_rng(seed, *key)
            assert rng.random(17).tobytes() == ref.random(17).tobytes()
            assert rng.standard_normal(9).tobytes() == ref.standard_normal(9).tobytes()


def _same_state(a, b):
    sa, sb = a.bit_generator.state, b.bit_generator.state
    for field in ("counter", "key"):
        assert np.array_equal(sa["state"][field], sb["state"][field])
    assert np.array_equal(sa["buffer"], sb["buffer"])
    for field in ("buffer_pos", "has_uint32", "uinteger"):
        assert sa[field] == sb[field]


def test_rekeyed_generator_carries_no_buffered_state():
    keys = [(1, 2), (3, 4), (5, 6)]
    for key, rng in zip(keys, streams(7, keys)):
        ref = make_rng(7, *key)
        _same_state(rng, ref)
        # an odd number of 32-bit draws leaves half a 64-bit word buffered,
        # which the next key's check above must not see
        rng.integers(0, 2**32, size=3, dtype=np.uint32)
        ref.integers(0, 2**32, size=3, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        _same_state(rng, ref)
        assert rng.random(5).tobytes() == ref.random(5).tobytes()


def test_empty_key_list():
    assert list(streams(3, [])) == []
