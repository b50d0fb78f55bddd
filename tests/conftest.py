from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

import numpy as np
import pytest

from duet.checkpoint import PartitionSpec, fingerprint_map


def make_map(rng: np.random.Generator, n_tensors: int, max_elems: int = 64, dtype=np.float64) -> dict:
    out = {}
    for i in range(n_tensors):
        size = int(rng.integers(1, max_elems))
        out[f"layer_{i:02d}"] = rng.normal(0.0, 1.0, size=size).astype(dtype)
    return out


class ReadStep(NamedTuple):
    """A sequence step with its stream read into a map."""

    task_index: int
    checkpoint: dict
    report: object


def read_steps(steps: Iterable) -> Iterator[ReadStep]:
    """Each step of ``iter_incremental_sequence`` with its layers collected,
    read before the next step is asked for (the driver finishes an unread
    stream itself, so a later read would find it empty)."""
    for step in steps:
        yield ReadStep(step.task_index, dict(step.layers), step.report)
        del step  # its layout is not held while the driver makes the next step


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def simple_spec() -> PartitionSpec:
    return PartitionSpec(
        shared_patterns=("backbone.*", "neck.*"),
        task_specific_patterns=("head.*",),
        head_concat_axis=0,
    )


@pytest.fixture
def fingerprinted_base(rng):
    base = {
        "backbone.w": rng.normal(size=(6, 4)).astype(np.float32),
        "backbone.b": rng.normal(size=6).astype(np.float32),
        "neck.w": rng.normal(size=(5, 6)).astype(np.float32),
    }
    return base, fingerprint_map(base)
