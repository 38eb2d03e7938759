"""Deterministic random streams.

Every stochastic operation takes an integer seed plus a tuple of stream
indices (repetition number, probe number, trial number, ...).  Streams are
derived with a counter-based Philox generator keyed by
``SeedSequence(entropy=seed, spawn_key=stream)``, so parallel and serial
execution of independent sub-tasks draw from identical streams.

:func:`make_rng` builds one such generator.  :func:`streams` yields the
same generators for a whole batch of stream tuples: it takes the seed's
entropy pool from numpy's ``SeedSequence(seed)`` once, mixes in every
stream's words and hashes out every Philox key at once with a vectorized
copy of only those two steps, and re-keys a single Philox per stream,
which costs a few microseconds instead of a fresh ``SeedSequence`` and
``Philox`` each.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the sub-stream ``stream`` of ``seed``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *stream: int) -> int:
    """Integer seed for the sub-stream, usable as a fresh master seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream))
    return int(ss.generate_state(1, np.uint64)[0])


def _hash_constants(init: int, mult: int, count: int):
    """XOR and multiplier constants of ``count`` successive hashes: hash k
    XORs with c_k and multiplies by c_(k+1), c_(k+1) = c_k * mult."""
    c = [init]
    for _ in range(count):
        c.append(c[-1] * mult & _MASK32)
    return (np.array(c[:-1], dtype=np.uint32)[:, None],
            np.array(c[1:], dtype=np.uint32)[:, None])


def _hash(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = (words ^ xor) * mult
    return v ^ (v >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ (r >> np.uint32(16))


def philox_keys(seed: int, keys) -> np.ndarray:
    """Philox keys, shape (len(keys), 2) uint64, of
    ``SeedSequence(entropy=seed, spawn_key=k)`` for each tuple ``k`` of
    ``keys``; every tuple has the same length and entries in [0, 2^64).

    A spawn key only appends words after the seed's, which are zero-padded
    to the pool size, so the pool before the first stream word is
    ``SeedSequence(seed).pool`` for the whole batch.  Only the stream words'
    mix and the output hash run here, on all keys at once; a key with an
    entry of two 32-bit words (>= 2^32) is derived by numpy itself.
    """
    spawn = np.asarray(keys, dtype=np.uint64).reshape(len(keys), -1)
    pool = np.repeat(np.random.SeedSequence(seed).pool[:, None], len(keys), axis=1)
    # hashes so far: 4 per seed word, the seed padded to the pool size
    start = _POOL_SIZE * max(_POOL_SIZE, (max(int(seed).bit_length(), 1) + 31) // 32)
    xor, mult = _hash_constants(_INIT_A, _MULT_A, start + _POOL_SIZE * spawn.shape[1])
    for d, words in enumerate(spawn.T.astype(np.uint32)):
        k = start + _POOL_SIZE * d
        pool = _mix(pool, _hash(words, xor[k:k + _POOL_SIZE], mult[k:k + _POOL_SIZE]))
    xor, mult = _hash_constants(_INIT_B, _MULT_B, _POOL_SIZE)
    state = _hash(pool, xor, mult).T.astype("<u4", order="C").view("<u8").astype(np.uint64)
    for i in np.flatnonzero((spawn >> np.uint64(32)).any(axis=1)):
        ss = np.random.SeedSequence(seed, spawn_key=tuple(spawn[i].tolist()))
        state[i] = ss.generate_state(2, np.uint64)
    return state


def streams(seed: int, keys) -> Iterator[np.random.Generator]:
    """Generators for the sub-streams ``keys`` of ``seed``, in order.

    Each draws exactly what ``make_rng(seed, *key)`` draws.  One Philox is
    re-keyed per stream (counter 0, empty buffer), so a yielded generator
    is valid only until the next one is taken.
    """
    if len(keys) == 0:
        return
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    # the setter reads plain ints several times faster than numpy scalars
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in philox_keys(seed, keys).tolist():
        state["state"]["key"] = key
        bitgen.state = state
        yield gen
