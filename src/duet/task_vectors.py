"""Task vectors over the shared partition: parameter deltas against a base."""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import read_checkpoint, read_json, write_atomically, write_checkpoint
from .errors import BaseMismatchError, CheckpointFormatError, DTypeError, ShapeError
from .tensors import NamedTensorMap, check_tensor, map_layers

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
        raise DTypeError(f"tensor {name!r}: dtype mismatch {a.dtype} vs {b.dtype}")


def _subtract(name: str, minuend: np.ndarray, subtrahend: np.ndarray) -> np.ndarray:
    """Read-only ``minuend - subtrahend`` in their one dtype: the exact
    difference rounded once.  These are the bits of ``combine(((1.0,
    minuend), (-1.0, subtrahend)), dtype)``, whose float64 difference,
    rounded again to float32, moves no bit (53 >= 2 * 24 + 2)."""
    _check_layer_pair(name, minuend, subtrahend)
    difference = np.empty(subtrahend.shape, subtrahend.dtype)
    np.subtract(minuend, subtrahend, out=difference)
    difference.flags.writeable = False
    return difference


def compute_task_vector(
    fine_tuned_shared: NamedTensorMap,
    base_shared: NamedTensorMap,
    base_fingerprint: str,
    label: str = "",
) -> TaskVector:
    """Per-tensor ``fine_tuned - base``, rounded once to the base dtype."""
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


def save_task_vector(vector: TaskVector, directory: str | Path) -> Path:
    """Write a task vector bundle: deltas container plus a JSON sidecar.

    If either write fails, the directories this call created are removed.
    """
    directory = Path(directory)
    # The outermost directory that mkdir is about to create, if any.
    created = next((p for p in reversed([directory, *directory.parents]) if not p.exists()), None)
    directory.mkdir(parents=True, exist_ok=True)
    try:
        write_checkpoint(vector.deltas, directory / _DELTAS_FILE)
        sidecar = {"base_fingerprint": vector.base_fingerprint, "label": vector.label}
        text = json.dumps(sidecar, indent=2) + "\n"
        write_atomically(directory / _META_FILE, [text.encode("utf-8")])
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise
    return directory


def load_task_vector(directory: str | Path) -> TaskVector:
    directory = Path(directory)
    deltas_path = directory / _DELTAS_FILE
    meta_path = directory / _META_FILE
    if not deltas_path.exists() or not meta_path.exists():
        raise CheckpointFormatError(
            f"{directory}: not a task vector bundle (expected {_DELTAS_FILE} and {_META_FILE})"
        )
    deltas = read_checkpoint(deltas_path)
    meta = read_json(meta_path, "task vector sidecar")
    fields = meta if isinstance(meta, dict) else {}
    base_fingerprint, label = fields.get("base_fingerprint"), fields.get("label", "")
    if not isinstance(base_fingerprint, str) or not isinstance(label, str):
        raise CheckpointFormatError(
            f"{meta_path}: malformed task vector sidecar: expected an object with a string "
            "'base_fingerprint' and an optional string 'label'"
        )
    return TaskVector(deltas=deltas, base_fingerprint=base_fingerprint, label=label)
