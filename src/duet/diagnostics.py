"""Sign-conflict counts between task vectors and merged-model distance checks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensors import NamedTensorMap, cosine_similarity, l2_norm, map_layers
from .task_vectors import TaskVector


@dataclass(slots=True)
class TensorSignConflicts:
    conflicts: int
    comparable: int

    @property
    def fraction(self) -> float:
        return self.conflicts / self.comparable if self.comparable else 0.0


@dataclass
class SignConflictReport:
    """Per-tensor and total counts of strictly-opposite nonzero sign pairs."""

    per_tensor: dict[str, TensorSignConflicts] = field(default_factory=dict)

    @property
    def total_conflicts(self) -> int:
        return sum(entry.conflicts for entry in self.per_tensor.values())

    @property
    def total_comparable(self) -> int:
        return sum(entry.comparable for entry in self.per_tensor.values())

    @property
    def total_fraction(self) -> float:
        comparable = self.total_comparable
        return self.total_conflicts / comparable if comparable else 0.0

    def to_dict(self) -> dict:
        return {
            "per_tensor": {
                name: {
                    "conflicts": entry.conflicts,
                    "comparable": entry.comparable,
                    "fraction": entry.fraction,
                }
                for name, entry in self.per_tensor.items()
            },
            "total_conflicts": self.total_conflicts,
            "total_comparable": self.total_comparable,
            "total_fraction": self.total_fraction,
        }


def _as_map(vector: TaskVector | NamedTensorMap) -> NamedTensorMap:
    return vector.deltas if isinstance(vector, TaskVector) else vector


def layer_sign_conflicts(left: np.ndarray, right: np.ndarray) -> TensorSignConflicts:
    """Count one tensor pair's elements with strictly opposite nonzero signs.

    Pairs where either element is zero are excluded from ``comparable``.
    """
    nonzero = (left != 0) & (right != 0)
    comparable = int(np.count_nonzero(nonzero))
    conflicts = int(np.count_nonzero(nonzero & (np.sign(left) != np.sign(right))))
    return TensorSignConflicts(conflicts=conflicts, comparable=comparable)


def sign_conflicts(a: TaskVector | NamedTensorMap, b: TaskVector | NamedTensorMap) -> SignConflictReport:
    """:func:`layer_sign_conflicts` for every tensor of two aligned maps."""
    count = lambda name, left, right: layer_sign_conflicts(left, right)
    maps = {"left": _as_map(a), "right": _as_map(b)}
    return SignConflictReport(dict(map_layers("sign_conflicts", count, maps)))


@dataclass
class MergeDistanceReport:
    """Whole-model L2 distance and cosine similarity of merged vs old/current."""

    l2_to_old: float
    l2_to_curr: float
    cos_to_old: float
    cos_to_curr: float

    def to_dict(self) -> dict:
        return {
            "l2_to_old": self.l2_to_old,
            "l2_to_curr": self.l2_to_curr,
            "cos_to_old": self.cos_to_old,
            "cos_to_curr": self.cos_to_curr,
        }


def _flatten_canonical(tensor_map: NamedTensorMap) -> np.ndarray:
    # Sorted-name order makes the result independent of dict insertion order.
    # Copying into one preallocated buffer avoids a float64 copy per tensor.
    names = sorted(tensor_map)
    flat = np.empty(sum(tensor_map[name].size for name in names), dtype=np.float64)
    offset = 0
    for name in names:
        size = tensor_map[name].size
        flat[offset : offset + size] = tensor_map[name].reshape(-1)
        offset += size
    return flat


def merge_distance(
    merged: NamedTensorMap, old: NamedTensorMap, curr: NamedTensorMap
) -> MergeDistanceReport:
    maps = {"merged": merged, "old": old, "curr": curr}
    for _ in map_layers("merge_distance", lambda name, *layers: None, maps):
        pass
    flat_merged = _flatten_canonical(merged)
    flat_old = _flatten_canonical(old)
    flat_curr = _flatten_canonical(curr)
    return MergeDistanceReport(
        l2_to_old=l2_norm(flat_merged - flat_old),
        l2_to_curr=l2_norm(flat_merged - flat_curr),
        cos_to_old=cosine_similarity(flat_merged, flat_old),
        cos_to_curr=cosine_similarity(flat_merged, flat_curr),
    )
