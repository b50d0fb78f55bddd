"""Task vectors over the shared partition: parameter deltas against a base."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import read_checkpoint, write_atomically, write_checkpoint
from .errors import BaseMismatchError, CheckpointFormatError, ShapeError
from .tensors import NamedTensorMap, check_tensor, combine, map_layers

_DELTAS_FILE = "deltas.safetensors"
_META_FILE = "meta.json"


@dataclass
class TaskVector:
    """Named deltas (fine-tuned minus base) over the shared parameters.

    ``base_fingerprint`` identifies the base checkpoint the deltas were
    computed against; operations combining task vectors refuse to mix bases.
    """

    deltas: NamedTensorMap
    base_fingerprint: str
    label: str = ""

    def keys(self):
        return self.deltas.keys()


def _check_bases(op: str, base_fingerprint: str, *vectors: TaskVector):
    for vector in vectors:
        if vector.base_fingerprint != base_fingerprint:
            raise BaseMismatchError(
                f"{op}: task vector {vector.label!r} was computed against base "
                f"{vector.base_fingerprint[:12]}..., expected {base_fingerprint[:12]}..."
            )


def _check_layer_pair(name: str, a: np.ndarray, b: np.ndarray):
    check_tensor(a, name)
    check_tensor(b, name)
    if a.shape != b.shape:
        raise ShapeError(f"tensor {name!r}: shape mismatch {a.shape} vs {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"tensor {name!r}: dtype mismatch {a.dtype} vs {b.dtype}")


def _subtract(name: str, minuend: np.ndarray, subtrahend: np.ndarray) -> np.ndarray:
    _check_layer_pair(name, minuend, subtrahend)
    return combine(((1.0, minuend), (-1.0, subtrahend)), subtrahend.dtype)


def compute_task_vector(
    fine_tuned_shared: NamedTensorMap,
    base_shared: NamedTensorMap,
    base_fingerprint: str,
    label: str = "",
) -> TaskVector:
    """Per-tensor ``fine_tuned - base`` in float64, stored in the base dtype."""
    maps = {"base": base_shared, "fine_tuned": fine_tuned_shared}
    subtract = lambda name, base, fine_tuned: _subtract(name, fine_tuned, base)
    deltas = dict(map_layers("compute_task_vector", subtract, maps))
    return TaskVector(deltas=deltas, base_fingerprint=base_fingerprint, label=label)


def zero_task_vector(base_shared: NamedTensorMap, base_fingerprint: str, label: str = "") -> TaskVector:
    """The all-zero task vector (a model's drift against itself)."""
    deltas = {}
    for name, arr in base_shared.items():
        check_tensor(arr, name)
        zero = np.zeros(arr.shape, dtype=arr.dtype)
        zero.flags.writeable = False
        deltas[name] = zero
    return TaskVector(deltas=deltas, base_fingerprint=base_fingerprint, label=label)


def apply_task_vector(
    base_shared: NamedTensorMap,
    base_fingerprint: str,
    vector: TaskVector,
    scale: float = 1.0,
) -> NamedTensorMap:
    """``base + scale * delta`` per tensor, in float64, cast to the base dtype."""
    _check_bases("apply_task_vector", base_fingerprint, vector)
    add = lambda name, base, delta: combine(((1.0, base), (float(scale), delta)), base.dtype)
    maps = {"base": base_shared, "task vector": vector.deltas}
    return dict(map_layers("apply_task_vector", add, maps))


def save_task_vector(vector: TaskVector, directory: str | Path) -> Path:
    """Write a task vector bundle: deltas container plus a JSON sidecar."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_checkpoint(vector.deltas, directory / _DELTAS_FILE)
    sidecar = {"base_fingerprint": vector.base_fingerprint, "label": vector.label}
    text = json.dumps(sidecar, indent=2) + "\n"
    write_atomically(directory / _META_FILE, [text.encode("utf-8")])
    return directory


def load_task_vector(directory: str | Path) -> TaskVector:
    directory = Path(directory)
    deltas_path = directory / _DELTAS_FILE
    meta_path = directory / _META_FILE
    if not deltas_path.exists() or not meta_path.exists():
        raise CheckpointFormatError(
            f"{directory}: not a task vector bundle (expected {_DELTAS_FILE} and {_META_FILE})"
        )
    deltas, _ = read_checkpoint(deltas_path)
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        base_fingerprint = meta["base_fingerprint"]
        label = meta.get("label", "")
    except (json.JSONDecodeError, RecursionError, KeyError, TypeError) as exc:
        raise CheckpointFormatError(f"{meta_path}: malformed task vector sidecar: {exc}") from exc
    return TaskVector(deltas=deltas, base_fingerprint=base_fingerprint, label=label)
