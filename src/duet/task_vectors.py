"""Task vectors over the shared partition: parameter deltas against a base.

Each way to make a task vector has one form, and each gives lazy deltas
(a :class:`~duet.tensors.LazyTensorMap`) that make a layer when it is looked
up: :func:`compute_task_vector` subtracts it, :func:`open_task_vector` reads
it from a bundle, :func:`zero_task_vector` makes zeros.  A map of arrays is a
task vector's deltas too.  Every operation on task vectors takes any of these
forms, mixed, and walks them a layer at a time, so a lazy vector is never
held whole; ``dict(vector.deltas)`` holds one whole where that is wanted.
"""

from __future__ import annotations

import json
import shutil
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .checkpoint import CheckpointReader, read_json, write_atomically, write_checkpoint
from .errors import BaseMismatchError, CheckpointFormatError, DTypeError, ShapeError
from .tensors import (
    LazyTensorMap,
    NamedTensorMap,
    check_aligned,
    check_layout_entry,
    check_tensor,
    layout_of,
)

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


class _Deltas(LazyTensorMap):
    """A task vector computed on lookup: ``load(name) - base[name]``.

    Its names, dtypes and shapes are the base's.  A walk looks each name up
    once, on the consuming thread, so ``load`` may read a file or pop a map.
    """

    def __init__(self, base, load: Callable[[str], np.ndarray]):
        self.base = base
        self.layout = layout_of(base)
        self._load = load

    def __getitem__(self, name: str) -> np.ndarray:
        return _subtract(name, self._load(name), self.base[name])

    def raw(self, name: str) -> np.ndarray:
        """The loaded layer before the subtraction, with its checks."""
        layer = self._load(name)
        _check_layer_pair(name, layer, self.base[name])
        return layer


class _Zeros(LazyTensorMap):
    """Read-only zeros in the dtypes and shapes of a layout, each made when
    it is looked up."""

    def __init__(self, layout: dict):
        self.layout = layout

    def __getitem__(self, name: str) -> np.ndarray:
        spec = self.layout[name]
        zero = np.zeros(spec.shape, dtype=spec.dtype)
        zero.flags.writeable = False
        return zero


def compute_task_vector(
    fine_tuned_shared: NamedTensorMap,
    base_shared: NamedTensorMap,
    base_fingerprint: str,
    label: str = "",
) -> TaskVector:
    """Per-tensor ``fine_tuned - base``, rounded once to the base dtype, each
    delta taken when it is looked up from the layers of the two maps (either
    may be lazy).  The key sets are checked now; each layer pair's dtype and
    shape on lookup."""
    check_aligned("compute_task_vector", {"base": base_shared, "fine_tuned": fine_tuned_shared})
    deltas = _Deltas(base_shared, fine_tuned_shared.__getitem__)
    return TaskVector(deltas=deltas, base_fingerprint=base_fingerprint, label=label)


def zero_task_vector(base_shared: NamedTensorMap, base_fingerprint: str, label: str = "") -> TaskVector:
    """The all-zero task vector (a model's drift against itself), in the
    base's dtypes and shapes; each zero layer is made when it is looked up."""
    layout = layout_of(base_shared)
    for name, spec in layout.items():
        check_layout_entry(spec, name)
    return TaskVector(deltas=_Zeros(layout), base_fingerprint=base_fingerprint, label=label)


def save_task_vector(vector: TaskVector, directory: str | Path) -> Path:
    """Write a task vector bundle: deltas container plus a JSON sidecar.

    The deltas are written as their map makes them, so a lazy vector is
    written a layer at a time.  If either write fails, the directories this
    call created are removed.
    """
    directory = Path(directory)
    # The outermost directory that mkdir is about to create, if any.
    created = next((p for p in reversed([directory, *directory.parents]) if not p.exists()), None)
    directory.mkdir(parents=True, exist_ok=True)
    try:
        deltas = vector.deltas
        write_checkpoint(layout_of(deltas), directory / _DELTAS_FILE, deltas.items())
        sidecar = {"base_fingerprint": vector.base_fingerprint, "label": vector.label}
        text = json.dumps(sidecar, indent=2) + "\n"
        write_atomically(directory / _META_FILE, [text.encode("utf-8")])
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise
    return directory


def open_task_vector(directory: str | Path, stack: ExitStack) -> TaskVector:
    """A bundle as a task vector whose deltas are an open
    :class:`CheckpointReader`, closed with ``stack``.  The deltas' header
    and the sidecar are read and checked now; each delta is read when it is
    looked up."""
    directory = Path(directory)
    deltas_path = directory / _DELTAS_FILE
    meta_path = directory / _META_FILE
    if not deltas_path.exists() or not meta_path.exists():
        raise CheckpointFormatError(
            f"{directory}: not a task vector bundle (expected {_DELTAS_FILE} and {_META_FILE})"
        )
    deltas = stack.enter_context(CheckpointReader(deltas_path))
    meta = read_json(meta_path, "task vector sidecar")
    fields = meta if isinstance(meta, dict) else {}
    base_fingerprint, label = fields.get("base_fingerprint"), fields.get("label", "")
    if not isinstance(base_fingerprint, str) or not isinstance(label, str):
        raise CheckpointFormatError(
            f"{meta_path}: malformed task vector sidecar: expected an object with a string "
            "'base_fingerprint' and an optional string 'label'"
        )
    return TaskVector(deltas=deltas, base_fingerprint=base_fingerprint, label=label)

