"""Workload inputs are a function of the workload seed alone."""

import os

import pytest

from workloads import WORKLOADS


def _input_bytes(name: str, seed: int, root) -> dict[str, bytes]:
    work = root / f"{name}-{seed}"
    os.makedirs(work / "in")
    setup = WORKLOADS[name].generate(seed, str(work))
    files = sorted({f for command in setup.commands for f in command.inputs if f.startswith("in/")})
    assert files, "a workload reads at least one generated file"
    return {f: (work / f).read_bytes() for f in files}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name, tmp_path):
    first = _input_bytes(name, 11, tmp_path / "a")
    again = _input_bytes(name, 11, tmp_path / "b")
    other = _input_bytes(name, 12, tmp_path / "c")
    assert first == again
    assert first.keys() == other.keys()
    assert first != other
