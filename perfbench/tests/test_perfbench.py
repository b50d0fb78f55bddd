"""Tests of the benchmark's own code: generator, oracles and span arithmetic.

Run from the root of the checkout with ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402


def _tree_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_byte_deterministic_per_seed(tmp_path):
    first = inputs.generate("seq-tiny", 5, tmp_path / "a")
    again = inputs.generate("seq-tiny", 5, tmp_path / "b")
    other = inputs.generate("seq-tiny", 6, tmp_path / "c")
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    assert _tree_bytes(tmp_path / "a")["ft1.safetensors"] != _tree_bytes(tmp_path / "c")["ft1.safetensors"]
    for key in ("shared_tensors", "shared_params", "S_bytes", "input_bytes"):
        assert first[key] == again[key] == other[key]
    assert first["shared_tensors"] == 10_000
    assert first["S_bytes"] == 4 * first["shared_params"]


def test_container_roundtrip(tmp_path):
    tensors = {"a": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.ones(4, dtype=np.float64)}
    size = inputs.write_container(tmp_path / "x.safetensors", tensors)
    assert size == (tmp_path / "x.safetensors").stat().st_size
    back = inputs.read_container(tmp_path / "x.safetensors")
    assert list(back) == ["a", "b"]
    for name in tensors:
        assert back[name].dtype == tensors[name].dtype
        assert np.array_equal(back[name], tensors[name])


def _mini_sequence(directory: Path) -> dict:
    """Base plus three fine-tuned checkpoints small enough for a unit test."""
    rng = np.random.default_rng(7)
    directory.mkdir()

    def model(classes, base=None):
        m = {}
        for name, shape in (("backbone.a", (8, 4)), ("neck.b", (6,))):
            drift = rng.standard_normal(shape).astype(np.float32)
            m[name] = drift if base is None else base[name] + np.float32(0.01) * drift
        m["head.stem.0.weight"] = rng.standard_normal((3, 3)).astype(np.float32)
        m["head.cls.0.weight"] = rng.standard_normal((classes, 3)).astype(np.float32)
        return m

    base = model(2)
    inputs.write_container(directory / "base.safetensors", base)
    tasks = []
    for k, classes in enumerate((2, 3, 1), start=1):
        inputs.write_container(directory / f"ft{k}.safetensors", model(classes, base))
        tasks.append(str(directory / f"ft{k}.safetensors"))
    (directory / "partition.json").write_text(json.dumps(inputs.PARTITION))
    return {"base": str(directory / "base.safetensors"), "tasks": tasks,
            "partition": str(directory / "partition.json")}


@pytest.fixture()
def sequence_run(tmp_path):
    import duet.cli

    files = _mini_sequence(tmp_path / "in")
    out = tmp_path / "out"
    [op] = run.build_ops("seq-mini", files, out)
    with contextlib.redirect_stdout(io.StringIO()):
        assert duet.cli.main(op["argv"]) == 0
    return files, out / "seq"


def _rewrite(path: Path, edit):
    tensors = {name: np.array(arr) for name, arr in inputs.read_container(path).items()}
    edit(tensors)
    inputs.write_container(path, tensors)


def test_verifier_accepts_program_output(sequence_run):
    files, out = sequence_run
    assert verify.check_sequence(files, out) == []


def test_verifier_catches_one_flipped_element(sequence_run):
    files, out = sequence_run

    def flip(tensors):
        flat = tensors["backbone.a"].reshape(-1)
        i = int(np.argmax(np.abs(flat)))
        flat[i] = -flat[i]

    _rewrite(out / "task03.safetensors", flip)
    problems = verify.check_sequence(files, out)
    assert any("task03.safetensors:backbone.a" in p for p in problems)


def test_verifier_catches_swapped_head_blocks(sequence_run):
    files, out = sequence_run

    def swap(tensors):
        head = tensors["head.cls.0.weight"]  # task 2: 3 current rows, then 2 previous
        tensors["head.cls.0.weight"] = np.concatenate([head[3:], head[:3]])

    _rewrite(out / "task02.safetensors", swap)
    problems = verify.check_sequence(files, out)
    assert any("head.cls.0.weight" in p and "concatenated head" in p for p in problems)


def test_verifier_catches_a_wrong_report_alpha(sequence_run):
    files, out = sequence_run
    path = out / "task02.report.json"
    report = json.loads(path.read_text())
    report["layers"][0]["alpha"] += 1e-3
    path.write_text(json.dumps(report))
    problems = verify.check_sequence(files, out)
    assert any("reported alpha" in p for p in problems)


def _span(i, parent, start, end, name="x", thread=1):
    return Span(i, parent, name, start, end, thread, 0)


def test_self_times_of_nested_spans():
    spans = [_span(1, None, 0, 10), _span(2, 1, 1, 4), _span(3, 2, 2, 3), _span(4, 1, 5, 9)]
    assert self_times(spans) == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}


def test_self_times_share_concurrent_children():
    # Two worker-thread children overlap on [4, 6]; each gets half of it.
    spans = [_span(1, None, 0, 10), _span(2, 1, 2, 6, thread=2), _span(3, 1, 4, 8, thread=3)]
    assert self_times(spans) == {1: 4.0, 2: 3.0, 3: 3.0}
    assert sum(self_times(spans).values()) == 10.0


def test_layer_metrics_self_times_add_up_to_the_root():
    spans = [
        Span(1, None, "iteration", 0.0, 10.0, 1, 0),
        Span(2, 1, "cli.sequence", 0.5, 9.5, 1, 0),
        Span(3, 2, "merge.step", 1.0, 6.0, 1, 0),
        Span(4, 3, "tensors.l1_norm", 2.0, 3.0, 1, 4_000_000),
        Span(5, 3, "checkpoint.load", 3.0, 4.0, 1, 8_000_000),
        Span(6, 2, "checkpoint.write", 6.0, 8.0, 1, 6_000_000),
    ]
    m = layer_metrics(spans, {"merge_layers": 2}, rchar=16_000_000, input_bytes=8_000_000)
    assert m["trace.self_sum_s"] == m["trace.wall_s"] == 10.0
    assert m["merge.self_s"] == 3.0
    assert m["cli.self_s"] == 2.0
    assert m["bench.self_s"] == 1.0
    assert m["cli.sequence_s"] == 9.0
    assert m["tensors.l1_norm_gbps"] == pytest.approx(0.004)
    assert m["checkpoint.read_amplification"] == 2.0
    assert m["checkpoint.hash_per_io"] == pytest.approx(6 / 14)


def test_tracer_restores_the_program_and_covers_its_wall(sequence_run, tmp_path):
    import duet.checkpoint
    import duet.cli

    files, _ = sequence_run
    original = (duet.cli.write_checkpoint, duet.checkpoint.CheckpointReader.load)
    [op] = run.build_ops("seq-mini", files, tmp_path / "traced")
    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.root()
        with contextlib.redirect_stdout(io.StringIO()):
            assert duet.cli.main(op["argv"]) == 0
        tracer.end(root, "iteration")
    finally:
        tracer.uninstall()
    assert (duet.cli.write_checkpoint, duet.checkpoint.CheckpointReader.load) == original
    m = layer_metrics(tracer.spans, tracer.counters, rchar=1, input_bytes=1)
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["merge.layers"] == 2 * 2  # two merged tasks, two shared layers each
    assert m["tensors.l1_norm_calls"] == 3 * 4
    assert m["checkpoint.write_mb"] > 0 and m["checkpoint.load_mb"] > 0
    assert verify.check_sequence(files, tmp_path / "traced" / "seq") == []


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    pct, value = run.tail([float(i) for i in range(20)])
    assert pct == 50.0 and value == 9.0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
