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

Since no stream depends on another, a batch can be cut into slices that
run in separate processes: ``_in_workers`` runs a function over contiguous
slices of a list, all but the first in forked workers, and gives back the
results in slice order, the same whatever the process count.
"""

from __future__ import annotations

import hashlib
import operator
import os
import pickle
from typing import Any, BinaryIO, Callable, Iterator, Sequence

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


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_worker(fn: Callable, part: Sequence, args: tuple) -> tuple[int, BinaryIO] | None:
    """Fork a worker that pickles ``fn(part, *args)``, or the exception it
    raised, into a pipe: its pid and the pipe's read end, or None if the
    fork failed. The worker leaves through ``os._exit``, with status 0 only
    once its whole result is written."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:  # the worker: never returns into the caller's frames
        status = 1
        try:
            os.close(read_end)
            try:
                result = (True, fn(part, *args))
            except Exception as exc:  # raised again in the caller
                result = (False, exc)
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, os.fdopen(read_end, "rb")


def _worker_result(pid: int, pipe: BinaryIO) -> Any:
    """Read and reap a worker: its result, or None if it ended without a
    whole one, which ``_stop_worker`` then reaps. The exception a worker
    raised is raised here."""
    try:
        ok, payload = pickle.load(pipe)  # read as it arrives; only ``_fork_worker``'s worker writes it
    except (EOFError, pickle.UnpicklingError):  # it wrote nothing, or a part
        return None
    status = os.waitpid(pid, 0)[1]
    pipe.close()  # tells ``_stop_worker`` that this worker is reaped
    if status != 0:
        return None
    if not ok:
        raise payload
    return payload


def _stop_worker(pid: int, pipe: BinaryIO) -> None:
    """Kill and reap a worker that ``_worker_result`` has not reaped."""
    if not pipe.closed:
        import signal  # here, so that a run whose workers all report loads no signal

        pipe.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _in_workers(fn: Callable, items: Sequence, *args) -> list:
    """``[fn(part, *args) for part in parts]`` over contiguous slices of
    ``items`` of near-equal length, in order; ``fn`` must not return None.

    There is one slice per available CPU at most, and one per started
    ``CHUNK`` of items, so a list of at most ``CHUNK`` items is one slice; where
    ``os.fork`` does not exist there is one. This process runs the first
    slice and forked workers the others. A worker's exception is raised
    here, and as the slices are read in order, an exception is the one the
    single loop would meet first. A slice whose worker could not be forked,
    or ended without a result, runs in this process. No worker outlives
    the call.
    """
    n_chunks = -(-len(items) // CHUNK)
    n_parts = max(1, min(_available_cpus(), n_chunks)) if hasattr(os, "fork") else 1
    bounds = [len(items) * k // n_parts for k in range(n_parts + 1)]
    parts = [items[start:stop] for start, stop in zip(bounds, bounds[1:])]
    workers: list[tuple[int, BinaryIO] | None] = []
    try:
        for part in parts[1:]:
            workers.append(_fork_worker(fn, part, args))
        results = [fn(parts[0], *args)]
        for part, worker in zip(parts[1:], workers):
            result = None if worker is None else _worker_result(*worker)
            results.append(fn(part, *args) if result is None else result)
    finally:
        for worker in filter(None, workers):
            _stop_worker(*worker)
    return results
