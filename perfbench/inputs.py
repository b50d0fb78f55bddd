"""Seeded synthetic inputs for the benchmark workloads, plus a minimal reader
and writer for the checkpoint container.

The container code here is written independently of ``duet.checkpoint`` so
that the inputs the program reads and the oracles that check its outputs do
not share code with the program.  The layout is the one ``duet`` documents:
an 8-byte little-endian header length, a minimal JSON header mapping names to
``{"dtype", "shape", "data_offsets"}``, then the packed payload.

Shapes are fixed per workload; only the values depend on the seed, so every
seed gives the same amount of work and the same seed gives the same bytes.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from pathlib import Path

import numpy as np

_TAGS = {np.dtype("<f4"): "F32", np.dtype("<f8"): "F64"}
_DTYPES = {tag: dtype for dtype, tag in _TAGS.items()}

WORKLOADS = ("seq-yolo", "seq-tiny", "bundle-ops")

PARTITION = {
    "shared": ["backbone.*", "neck.*"],
    "task_specific": ["head.*"],
    "head_concat_axis": 0,
    "replace": ["head.stem.*"],
}


def write_container(path: Path, tensors: dict[str, np.ndarray]) -> int:
    """Write ``tensors`` in canonical container form; returns the file size."""
    header = {}
    offset = 0
    for name, arr in tensors.items():
        header[name] = {
            "dtype": _TAGS[arr.dtype],
            "shape": list(arr.shape),
            "data_offsets": [offset, offset + arr.nbytes],
        }
        offset += arr.nbytes
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for arr in tensors.values():
            fh.write(np.ascontiguousarray(arr).tobytes())
        # On disk before timing starts, so no writeback of inputs overlaps it.
        fh.flush()
        os.fsync(fh.fileno())
    return 8 + len(header_bytes) + offset


def read_container(path: Path) -> dict[str, np.ndarray]:
    """Read-only views of every tensor, in header order, backed by a mmap."""
    with open(path, "rb") as fh:
        buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    (header_len,) = struct.unpack("<Q", buf[:8])
    header = json.loads(bytes(buf[8 : 8 + header_len]))
    start = 8 + header_len
    out = {}
    for name, meta in header.items():
        begin, end = meta["data_offsets"]
        dtype = _DTYPES[meta["dtype"]]
        out[name] = np.frombuffer(buf, dtype=dtype, count=(end - begin) // dtype.itemsize,
                                  offset=start + begin).reshape(meta["shape"])
    return out


def hash_file(path, digest):
    """Feed a file's bytes to ``digest`` in chunks; returns the digest."""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            digest.update(chunk)
    return digest


def _yolo_convs(width: float) -> list[tuple[str, tuple[int, ...]]]:
    """Conv + batch-norm tensor shapes of a YOLO-like backbone and neck."""
    chans = [int(c * width) for c in (64, 128, 256, 512, 768)]
    convs: list[tuple[str, int, int, int]] = [("backbone.stem", chans[0], 3, 3)]
    prev = chans[0]
    for stage, (c, blocks) in enumerate(zip(chans[1:], (3, 6, 6, 3))):
        convs.append((f"backbone.stage{stage}.down", c, prev, 3))
        convs.append((f"backbone.stage{stage}.cv1", c, c, 1))
        for b in range(blocks):
            convs.append((f"backbone.stage{stage}.m{b}.cv1", c // 2, c // 2, 3))
            convs.append((f"backbone.stage{stage}.m{b}.cv2", c // 2, c // 2, 3))
        convs.append((f"backbone.stage{stage}.cv2", c, c // 2 * (blocks + 2), 1))
        prev = c
    for j in range(6):
        c = chans[2 + j % 3]
        convs.append((f"neck.p{j}.cv1", c, prev, 1))
        convs.append((f"neck.p{j}.m0.cv1", c // 2, c // 2, 3))
        convs.append((f"neck.p{j}.m0.cv2", c // 2, c // 2, 3))
        convs.append((f"neck.p{j}.cv2", c, c // 2 * 3, 1))
        prev = c
    shapes = []
    for name, cout, cin, k in convs:
        shapes.append((f"{name}.conv.weight", (cout, cin, k, k)))
        shapes.append((f"{name}.bn.weight", (cout,)))
        shapes.append((f"{name}.bn.bias", (cout,)))
    return shapes


def _tiny_shapes(count: int) -> list[tuple[str, tuple[int, ...]]]:
    cycle = ((16, 16), (4, 8, 3, 3), (240,), (16, 4, 2, 2))
    shapes = []
    for i in range(count):
        prefix = "backbone" if i < count * 3 // 4 else "neck"
        shapes.append((f"{prefix}.b{i // 4:04d}.t{i % 4}", cycle[i % 4]))
    return shapes


def _head_shapes(width: int, classes: int) -> list[tuple[str, tuple[int, ...]]]:
    shapes = []
    for level in range(3):
        shapes.append((f"head.stem.{level}.weight", (width, width, 3, 3)))
        shapes.append((f"head.stem.{level}.bias", (width,)))
        shapes.append((f"head.cls.{level}.weight", (classes, width, 1, 1)))
        shapes.append((f"head.cls.{level}.bias", (classes,)))
    return shapes


# Per workload: shared shapes, head width, class counts of the base and of each
# fine-tuned task (heads grow along axis 0 by these counts).
_LAYOUTS = {
    "seq-yolo": (lambda: _yolo_convs(0.82), 64, (10, 10, 5, 5, 4)),
    "seq-tiny": (lambda: _tiny_shapes(10_000), 16, (4, 4, 2, 2, 1)),
    "bundle-ops": (lambda: _yolo_convs(0.645), 64, (10, 10, 5)),
}

PREDICTION_ROWS = 100_000
PREDICTION_CLASSES = 16
PREDICTION_BOX_BINS = 16


def _normal(rng: np.random.Generator, shape, scale: float) -> np.ndarray:
    arr = rng.standard_normal(shape, dtype=np.float32)
    arr *= np.float32(scale)
    return arr


def _model(rng, shared_shapes, head_width, classes, base_shared=None):
    """A checkpoint: base draws, or base plus a per-layer drift when a base is given."""
    model = {}
    for name, shape in shared_shapes:
        if base_shared is None:
            model[name] = _normal(rng, shape, 0.05)
        else:
            # Per-layer drift scales spread the L1 ratio p, so alpha varies.
            drift = _normal(rng, shape, float(rng.uniform(0.002, 0.02)))
            drift += base_shared[name]
            model[name] = drift
    for name, shape in _head_shapes(head_width, classes):
        model[name] = _normal(rng, shape, 0.05)
    return model


def generate(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's inputs into ``directory``; returns their manifest.

    The manifest records the paths plus S (shared-partition bytes), the
    shared tensor and parameter counts and the input bytes on disk.
    """
    if workload not in _LAYOUTS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    directory.mkdir(parents=True, exist_ok=True)
    shared_fn, head_width, classes = _LAYOUTS[workload]
    shared_shapes = shared_fn()
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])

    files: dict[str, str] = {}
    input_bytes = 0
    base = _model(rng, shared_shapes, head_width, classes[0])
    path = directory / "base.safetensors"
    input_bytes += write_container(path, base)
    files["base"] = str(path)
    tasks = []
    for k, n_classes in enumerate(classes[1:], start=1):
        model = _model(rng, shared_shapes, head_width, n_classes, base_shared=base)
        path = directory / f"ft{k}.safetensors"
        input_bytes += write_container(path, model)
        tasks.append(str(path))
        del model
    files["tasks"] = tasks

    path = directory / "partition.json"
    path.write_text(json.dumps(PARTITION, indent=2) + "\n", encoding="utf-8")
    input_bytes += path.stat().st_size
    files["partition"] = str(path)

    if workload == "bundle-ops":
        for label in ("pred_curr", "pred_old"):
            batch = {
                "class_logits": _normal(rng, (PREDICTION_ROWS, PREDICTION_CLASSES), 2.0),
                "bbox_values": _normal(rng, (PREDICTION_ROWS, PREDICTION_BOX_BINS), 1.0),
            }
            path = directory / f"{label}.safetensors"
            input_bytes += write_container(path, batch)
            files[label] = str(path)

    shared_params = sum(int(np.prod(shape)) for _, shape in shared_shapes)
    return {
        "workload": workload,
        "seed": seed,
        "files": files,
        "shared_tensors": len(shared_shapes),
        "shared_params": shared_params,
        "S_bytes": shared_params * 4,
        "input_bytes": input_bytes,
    }
