"""The file commands stream: each reads its inputs a layer at a time and
writes through the header-first writer, so none holds a whole model, and a
fault found mid-walk leaves no output behind."""

from __future__ import annotations

import gc
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import duet
from duet.checkpoint import CheckpointReader, read_checkpoint, write_checkpoint
from duet.cli import main
from duet.fixtures import materialize_trio
from duet.task_vectors import TaskVector, compute_task_vector, save_task_vector

# Many equal shared layers, so S (the shared partition's bytes) is 64 times
# the largest layer, and each is merged alone (more than one 32 Ki block).
LAYERS, SIDE = 64, 256
PARTITION = {"shared": ["backbone.*"], "task_specific": ["head.*"], "head_concat_axis": 0,
             "replace": ["head.stem.*"]}


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """A base, two fine-tuned models, the partition and two task vector bundles."""
    root = tmp_path_factory.mktemp("models")
    rng = np.random.default_rng(11)

    def model(base=None) -> dict:
        out = {}
        for i in range(LAYERS):
            name = f"backbone.l{i:02d}"
            draw = rng.standard_normal((SIDE, SIDE), dtype=np.float32)
            out[name] = draw * np.float32(0.05) if base is None else base[name] + draw * np.float32(0.01)
        out["head.cls.weight"] = rng.standard_normal((4, SIDE), dtype=np.float32)
        out["head.stem.weight"] = rng.standard_normal((SIDE, 8), dtype=np.float32)
        return out

    base = model()
    files = SimpleNamespace(root=root, partition=root / "partition.json")
    files.partition.write_text(json.dumps(PARTITION))
    base_shared = {name: arr for name, arr in base.items() if name.startswith("backbone.")}
    for label, tensors in (("base", base), ("ft1", model(base)), ("ft2", model(base))):
        setattr(files, label, root / f"{label}.safetensors")
        write_checkpoint(tensors, getattr(files, label))
        if label != "base":
            with CheckpointReader(files.base) as reader:
                base_fp = reader.fingerprint()
            shared = {name: tensors[name] for name in base_shared}
            vector = compute_task_vector(shared, base_shared, base_fp, label)
            setattr(files, f"tv{label[-1]}", save_task_vector(vector, root / f"tv{label[-1]}"))
    files.S = sum(arr.nbytes for arr in base_shared.values())
    files.largest = SIDE * SIDE * 4
    return files


# Each streamed command, as the argv it runs over ``files`` into ``out``.
STREAMED = {
    "task-vector": lambda f, out: ["task-vector", f.base, f.ft1, "--partition", f.partition,
                                   "-o", out / "tv"],
    "merge-duet": lambda f, out: ["merge", "duet", f.base, "--old", f.tv1, "--curr", f.tv2,
                                  "-o", out / "merged.st", "--report", out / "report.json"],
    "merge-average": lambda f, out: ["merge", "average", f.base, "--tv", f.tv1, "--tv", f.tv2,
                                     "-o", out / "merged.st"],
    "merge-magmax": lambda f, out: ["merge", "magmax", f.base, "--tv", f.tv1, "--tv", f.tv2,
                                    "-o", out / "merged.st"],
    "head-concat": lambda f, out: ["head-concat", f.ft1, f.ft2, "--partition", f.partition,
                                   "-o", out / "head.st"],
    "signs-vectors": lambda f, out: ["diagnose", "signs", "--old", f.tv1, "--curr", f.tv2,
                                     "-o", out / "signs.json"],
    "signs-updates": lambda f, out: ["diagnose", "signs", "--old", f.tv1, "--curr", f.tv2,
                                     "--preset", "updates", "-o", out / "signs.json"],
    "dc-loss": lambda f, out: ["dc-loss", "--t", f.tv2, "--prev", f.tv1],
}


def run_main(argv: list) -> tuple[int, str]:
    """Exit code and stderr of one ``duet`` command run in this process."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("command", list(STREAMED))
def test_each_command_holds_about_its_largest_layers(models, tmp_path, command, threads):
    """Loading whole models, these commands peak at 2 S (head-concat, signs
    over the vectors) to 4 S (the merges) on this fixture: 128 to 256 of its
    largest layers.  Streamed, each holds a few layers per call in flight."""
    argv = [*STREAMED[command](models, tmp_path), "--threads", threads]
    gc.collect()
    tracemalloc.start()
    try:
        code, err = run_main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, err
    bound = min(models.S / 2, 32 * models.largest)
    assert peak < bound, f"{command}: peak {peak} B, bound {bound:.0f} B"


def poison(path: Path, name: str):
    """Set the first element of tensor ``name`` in the container at ``path``
    to NaN, in place; the header stays valid."""
    with open(path, "r+b") as fh:
        (header_len,) = struct.unpack("<Q", fh.read(8))
        entry = json.loads(fh.read(header_len))[name]
        fh.seek(8 + header_len + entry["data_offsets"][0])
        fh.write(np.float32(np.nan).tobytes())


@pytest.fixture(scope="module")
def poisoned(models, tmp_path_factory):
    """Copies of ``models`` whose last shared tensor (the last head tensor,
    for head-concat's current model) holds a NaN."""
    root = tmp_path_factory.mktemp("poisoned")
    files = SimpleNamespace(**vars(models))
    files.ft1 = Path(shutil.copy(models.ft1, root / "ft1.safetensors"))
    poison(files.ft1, "backbone.l63")
    files.ft2 = Path(shutil.copy(models.ft2, root / "ft2.safetensors"))
    poison(files.ft2, "head.stem.weight")
    files.tv2 = Path(shutil.copytree(models.tv2, root / "tv2"))
    poison(files.tv2 / "deltas.safetensors", "backbone.l63")
    return files


# The target each command writes, if any, relative to its output directory.
TARGETS = {"task-vector": "tv", "merge-duet": "merged.st", "merge-average": "merged.st",
           "merge-magmax": "merged.st", "head-concat": "head.st", "signs-vectors": "signs.json",
           "signs-updates": "signs.json"}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("command", list(STREAMED))
def test_a_fault_found_mid_walk_leaves_no_output(poisoned, tmp_path, command, threads):
    out = tmp_path / "new"
    if command != "task-vector":
        out.mkdir()
        if command in TARGETS:
            (out / TARGETS[command]).write_bytes(b"earlier contents")
    argv = [*STREAMED[command](poisoned, out), "--threads", threads]
    code, err = run_main(argv)
    assert code == 2, err
    error = json.loads(err)["error"]
    assert error["type"] == "CheckpointFormatError"
    name = "head.stem.weight" if command == "head-concat" else "backbone.l63"
    assert f"tensor {name!r} contains non-finite values" in error["message"]
    if command == "task-vector":
        assert not out.exists()  # the directory it created is gone
    else:
        names = [p.name for p in out.iterdir()]
        assert names == ([TARGETS[command]] if command in TARGETS else [])
        if command in TARGETS:
            assert (out / TARGETS[command]).read_bytes() == b"earlier contents"


@pytest.fixture
def mixed(tmp_path):
    """The synthetic trio, a copy of its base with one f64 tensor and a task
    vector bundle of f64 deltas over the f32 base."""
    trio = materialize_trio(tmp_path / "trio")
    base = read_checkpoint(trio["base"])
    name = next(iter(base))
    write_checkpoint({**base, name: base[name].astype(np.float64)}, tmp_path / "mixed.st")
    with CheckpointReader(trio["base"]) as reader:
        base_fp = reader.fingerprint()
    shared = {k: v for k, v in base.items() if not k.startswith("head.")}
    save_task_vector(compute_task_vector(shared, shared, base_fp, "f32"), tmp_path / "tv32")
    f64 = {k: np.zeros(v.shape) for k, v in shared.items()}
    save_task_vector(TaskVector(f64, base_fp, "f64"), tmp_path / "tv64")
    return trio, tmp_path


@pytest.mark.parametrize("command", ["task-vector", "merge-duet", "merge-average", "merge-magmax",
                                     "head-concat"])
def test_dtype_check_reads_headers_only(mixed, monkeypatch, command):
    trio, root = mixed
    argv = {
        "task-vector": ["task-vector", root / "mixed.st", root / "mixed.st", "--partition",
                        trio["partition"], "-o", root / "tv"],
        "merge-duet": ["merge", "duet", trio["base"], "--old", root / "tv32", "--curr",
                       root / "tv64", "-o", root / "m.st"],
        "merge-average": ["merge", "average", trio["base"], "--tv", root / "tv32", "--tv",
                          root / "tv64", "-o", root / "m.st"],
        "merge-magmax": ["merge", "magmax", trio["base"], "--tv", root / "tv32", "--tv",
                         root / "tv64", "-o", root / "m.st"],
        "head-concat": ["head-concat", root / "mixed.st", trio["task2"], "--partition",
                        trio["partition"], "-o", root / "h.st"],
    }[command]
    loads = []
    load = CheckpointReader.load

    def counted(self, name):
        loads.append(name)
        return load(self, name)

    monkeypatch.setattr(CheckpointReader, "load", counted)
    code, err = run_main([*argv, "--dtype-check"])
    assert code == 1, err
    error = json.loads(err)["error"]
    assert error["type"] == "DTypeError"
    assert error["message"] == "--dtype-check: inputs mix element types ['float32', 'float64']"
    assert loads == []


def test_the_parser_imports_no_pool_tracer_or_self_test():
    """``duet`` pays for its thread pool, tracemalloc and the self-test only
    when a command uses them."""
    code = ("import json, sys, duet.cli; duet.cli.build_parser(); "
            "print(json.dumps(sorted(m for m in ('concurrent.futures', 'queue', 'tracemalloc', "
            "'duet.selftest') if m in sys.modules)))")
    src = Path(duet.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert json.loads(done.stdout) == []
