"""Deterministic random streams.

Every stochastic operation takes an integer seed plus a tuple of stream
indices (repetition number, probe number, trial number, ...).  Streams are
derived with a counter-based Philox generator keyed by
``SeedSequence(entropy=seed, spawn_key=stream)``, so parallel and serial
execution of independent sub-tasks draw from identical streams.

:func:`make_rng` builds one such generator.  :func:`streams` yields the
same generators for a whole batch of stream tuples: it derives every
Philox key at once with a vectorized copy of ``SeedSequence``'s entropy
mix and re-keys a single Philox per stream, which costs a few microseconds
instead of a fresh ``SeedSequence`` and ``Philox`` each.
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


def _int_words(n: int) -> list:
    """Little-endian 32-bit words of a nonnegative integer, as SeedSequence
    splits its entropy ([0] for zero)."""
    if n < 0:
        raise ValueError("expected a nonnegative seed")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


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

    The entropy mix runs on all keys at once, word by word.  Its hash
    constants depend only on the word position, so a key with fewer words
    (entries below 2^32 take one word, larger ones two) skips the trailing
    steps.
    """
    spawn = np.asarray(keys, dtype=np.uint64).reshape(len(keys), -1).T
    depth, batch = spawn.shape
    run = _int_words(seed)
    if depth:  # SeedSequence zero-pads the run entropy only under a spawn key
        run += [0] * (_POOL_SIZE - len(run))
    words = spawn.astype(np.uint32)
    valid = np.ones(words.shape, dtype=bool)
    hi = (spawn >> np.uint64(32)).astype(np.uint32)
    if hi.any():  # interleave the high words, then pack each key's words first
        words = np.stack([words, hi], axis=1).reshape(2 * depth, batch)
        valid = np.stack([valid, hi != 0], axis=1).reshape(2 * depth, batch)
        order = np.argsort(~valid, axis=0, kind="stable")
        words = np.take_along_axis(words, order, axis=0)
        valid = np.take_along_axis(valid, order, axis=0)
    width = max(len(run) + len(words), _POOL_SIZE)
    entropy = np.zeros((width, batch), dtype=np.uint32)
    entropy[:len(run)] = np.array(run, dtype=np.uint32)[:, None]
    entropy[len(run):len(run) + len(words)] = words
    tail = np.zeros((width, batch), dtype=bool)
    tail[len(run):len(run) + len(words)] = valid
    tail[:len(run)] = True

    side = _POOL_SIZE - 1
    xor, mult = _hash_constants(
        _INIT_A, _MULT_A, _POOL_SIZE * (1 + side) + _POOL_SIZE * (width - _POOL_SIZE))
    pool = _hash(entropy[:_POOL_SIZE], xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    k = _POOL_SIZE
    # every word mixes into the other pool words; hashes of one source
    # word are independent, so they run as one (side, batch) step
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[k:k + side], mult[k:k + side]))
        k += side
    for src in range(_POOL_SIZE, width):
        mixed = _mix(pool, _hash(entropy[src], xor[k:k + _POOL_SIZE], mult[k:k + _POOL_SIZE]))
        pool = np.where(tail[src], mixed, pool)
        k += _POOL_SIZE

    xor, mult = _hash_constants(_INIT_B, _MULT_B, _POOL_SIZE)
    state = _hash(pool, xor, mult).T.copy()
    return state.astype("<u4").view("<u8").astype(np.uint64)


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
