"""Deterministic per-entity random streams.

Batch operations must give bit-identical results no matter how the work is
ordered or parallelized. Each entity (junction, site, trace) therefore gets
its own generator, derived from the master seed and a hash of the entity id;
no draw order is shared between entities.

The stream of an id is, draw for draw, numpy's
``PCG64(SeedSequence(master_seed, spawn_key=key))`` where ``key`` is the
leading four big-endian 32-bit words of sha256(id). The derivation is done
here directly, for many ids at once. SeedSequence is O'Neill's seed_seq
hash (pcg-random.org, 2015), pure uint32 arithmetic in which every
multiplier depends only on the position of the step, not on the data. The
pool mixed from the master seed alone comes from ``SeedSequence`` once; the
four key words per id and the state generation then run as uint32 array
arithmetic over all ids. PCG64's 128-bit ``srandom`` step turns each id's words into the
generator's ``(state, inc)``.
"""

from __future__ import annotations

import hashlib
import operator
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError

__all__ = ["CHUNK", "child_rng", "stream_rngs", "stream_states"]

# Ids derived per vectorised pass by ``stream_rngs``; bounds its memory.
CHUNK = 1024

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _u32(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32)


# Array operands throughout: numpy ops between arrays wrap modulo 2**32
# silently and cost less than ops with Python-int operands.
_MIX_MULT_L = _u32([0xCA01F9DD])
_MIX_MULT_R = _u32([0x4973F715])
_XSHIFT = _u32([16])


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The running hash constant before each of ``count`` steps, and after."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return _u32(consts)


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """One hashmix step: xor with the running constant, multiply by its next value."""
    value = (value ^ xor) * mul
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


_GEN = _hash_consts(_INIT_B, _MULT_B, 8)[:, None]
_GEN_XOR, _GEN_MUL = _GEN[:-1], _GEN[1:]


def _seed_pool(master_seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SeedSequence's pool before the spawn key, and the key steps' constants.

    Returns the pool (4 x 1) after the master seed's words are mixed in,
    and the xor and multiply constants (4 x 4 x 1) of the key steps that
    follow: one row per key word, one column per pool slot. Mixing the seed
    takes one step per pool slot and seed word, with the seed zero-padded
    to the pool size, as SeedSequence does when a spawn key follows;
    without a spawn key it hashes the same zeros, so its pool is the same.
    """
    seed = operator.index(master_seed)
    if seed < 0:
        raise DomainError(f"master seed must be non-negative, got {seed}")
    n_seed_steps = _POOL_SIZE * max(-(-seed.bit_length() // 32), _POOL_SIZE)
    start = _INIT_A * pow(_MULT_A, n_seed_steps, 1 << 32) & _MASK32
    consts = _hash_consts(start, _MULT_A, _POOL_SIZE * _POOL_SIZE)
    shape = (_POOL_SIZE, _POOL_SIZE, 1)
    pool = np.random.SeedSequence(seed).pool.reshape(_POOL_SIZE, 1)
    return pool, consts[:-1].reshape(shape), consts[1:].reshape(shape)


def stream_states(master_seed: int, stream_ids: Sequence[str]) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of each id's stream, in the order given."""
    mixer, key_xor, key_mul = _seed_pool(master_seed)
    digests = b"".join(hashlib.sha256(sid.encode("utf-8")).digest()[:16] for sid in stream_ids)
    keys = np.frombuffer(digests, dtype=">u4").reshape(-1, _POOL_SIZE).T.astype(np.uint32)
    # Rows are pool slots, columns are ids. Each key word updates all four
    # slots at once, since a slot's update reads only itself and the word.
    for key, xor, mul in zip(keys, key_xor, key_mul):
        mixer = _mix(mixer, _hashmix(key, xor, mul))
    # generate_state(4, np.uint64): eight words cycling over the pool, paired
    # little-endian into four uint64 (state high, low, seq high, low).
    words = _hashmix(mixer[[0, 1, 2, 3, 0, 1, 2, 3]], _GEN_XOR, _GEN_MUL).astype(np.uint64)
    halves = words[0::2] | (words[1::2] << np.uint64(32))
    # PCG64 srandom: inc = seq << 1 | 1; state = (inc + initstate) * M + inc.
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in halves.T.tolist():
        inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK128
        state = ((inc + ((state_hi << 64) | state_lo)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def stream_rngs(master_seed: int, stream_ids: Sequence[str]) -> Iterator[np.random.Generator]:
    """One generator per id, in order, deriving ``CHUNK`` ids at a time.

    Every item is the same Generator object, reloaded with the next id's
    stream, so a stream is only valid until the iterator advances.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for start in range(0, len(stream_ids), CHUNK):
        for state, inc in stream_states(master_seed, stream_ids[start : start + CHUNK]):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng


def child_rng(master_seed: int, stream_id: str) -> np.random.Generator:
    """Generator for one named stream under a master seed.

    The stream key is the leading words of sha256(stream_id), so the mapping
    is stable across runs, platforms, and iteration order.
    """
    return next(stream_rngs(master_seed, [stream_id]))
