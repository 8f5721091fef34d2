"""Batched stream derivation against numpy's SeedSequence -> PCG64 path."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jjtune.errors import DomainError
from jjtune.streams import CHUNK, child_rng, stream_rngs, stream_states

EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64, 2**128, 2**130 + 11]

seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(min_value=0, max_value=2**200))
ids = st.lists(
    st.one_of(st.sampled_from(["", "tls-scan", "W1-J00", "Ω-ü-漢字"]), st.text(max_size=24)),
    min_size=1,
    max_size=8,
)


def oracle(seed, stream_id):
    """numpy's own derivation: SeedSequence with the sha256 spawn key, then PCG64."""
    digest = hashlib.sha256(stream_id.encode("utf-8")).digest()
    key = tuple(int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def pcg_state(rng):
    state = rng.bit_generator.state["state"]
    return state["state"], state["inc"]


@given(seed=seeds, stream_ids=ids)
def test_states_and_draws_match_seed_sequence(seed, stream_ids):
    states = stream_states(seed, stream_ids)
    for stream_id, state, rng in zip(stream_ids, states, stream_rngs(seed, stream_ids)):
        reference = oracle(seed, stream_id)
        assert state == pcg_state(reference)
        assert np.array_equal(rng.standard_normal(3), reference.standard_normal(3))


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_child_rng_is_the_one_id_case(seed):
    assert np.array_equal(
        child_rng(seed, "J0001").random(4), oracle(seed, "J0001").random(4)
    )


def test_iterator_crosses_chunk_boundaries():
    stream_ids = [f"J{i:05d}" for i in range(2 * CHUNK + 3)]
    draws = [rng.standard_normal() for rng in stream_rngs(7, stream_ids)]
    for index in (0, CHUNK - 1, CHUNK, 2 * CHUNK, 2 * CHUNK + 2):
        assert draws[index] == oracle(7, stream_ids[index]).standard_normal()


def test_negative_seed_rejected():
    with pytest.raises(DomainError, match="non-negative"):
        stream_states(-1, ["J0"])
