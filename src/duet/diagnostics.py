"""Sign-conflict counts between task vectors and merged-model distance checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensors import NamedTensorMap, _blockwise, check_same_shape, map_layers
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
    The pair must share one shape (ShapeError); its dtypes may differ.
    """
    check_same_shape("layer_sign_conflicts", left=left, right=right)
    counts = _blockwise((left, right), _sign_counts, *_sign_scratch(left.dtype, right.dtype))
    return TensorSignConflicts(*counts.tolist())


def _sign_count_rows(left: np.ndarray, right: np.ndarray) -> tuple:
    """``(conflicts, comparable)`` of each row of two stacked matrices of layers."""
    nonzero = (left != 0) & (right != 0)
    comparable = np.count_nonzero(nonzero, axis=1)
    nonzero &= np.sign(left) != np.sign(right)
    return np.count_nonzero(nonzero, axis=1), comparable


def _sign_scratch(left_dtype, right_dtype) -> tuple:
    """The scratch dtypes :func:`_sign_counts` takes its blocks in."""
    return bool, bool, left_dtype, right_dtype


def _sign_counts(left, right, nonzero, differ, left_sign, right_sign) -> np.ndarray:
    """The sign-count leaf of a blocked walk: ``(conflicts, comparable)``, in
    :class:`TensorSignConflicts`' field order, of one pair of blocks, from
    comparisons of ``np.sign`` values, through :func:`_sign_scratch` blocks."""
    np.not_equal(left, 0, out=nonzero)
    nonzero &= np.not_equal(right, 0, out=differ)
    np.sign(left, out=left_sign)
    np.sign(right, out=right_sign)
    np.not_equal(left_sign, right_sign, out=differ)
    differ &= nonzero
    return np.array((np.count_nonzero(differ), np.count_nonzero(nonzero)))


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


# Stability constant added to the norm product of a cosine.  Distinct from the
# merge epsilon; keeps the ratio strictly inside (-1, 1).
COSINE_EPS = 1e-12


def _distance_sums(name: str, merged: np.ndarray, old: np.ndarray, curr: np.ndarray) -> list:
    """One layer's float64 sums: squared distances of ``merged`` to ``old``
    and ``curr``, its inner products with them, and the three squared norms."""
    return _blockwise((merged, old, curr), _distance_leaf, np.float64, np.float64).tolist()


def _distance_leaf(merged, old, curr, m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The seven sums of :func:`_distance_sums` over one block: ``m`` is the
    float64 ``merged`` block, and each sum is taken of the float64 block ``x``."""
    m[...] = merged
    square_sum = lambda y: np.sum(np.square(y, out=x, dtype=np.float64))
    return np.array((
        square_sum(np.subtract(m, old, out=x)), square_sum(np.subtract(m, curr, out=x)),
        np.sum(np.multiply(m, old, out=x)), np.sum(np.multiply(m, curr, out=x)),
        square_sum(m), square_sum(old), square_sum(curr),
    ))


def _cosine(inner: float, sq_norm_x: float, sq_norm_y: float) -> float:
    """Cosine from an inner product and two squared norms; 0 when either norm is 0."""
    nx, ny = math.sqrt(sq_norm_x), math.sqrt(sq_norm_y)
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return inner / (nx * ny + COSINE_EPS)


def merge_distance(
    merged: NamedTensorMap, old: NamedTensorMap, curr: NamedTensorMap
) -> MergeDistanceReport:
    """L2 distances and cosines over the concatenated layers, a layer at a time.

    Each layer's sums are numpy's pairwise sums; ``math.fsum`` adds the layers'
    sums exactly rounded, so the map order cannot change a bit.
    """
    maps = {"merged": merged, "old": old, "curr": curr}
    per_layer = [sums for _, sums in map_layers("merge_distance", _distance_sums, maps)]
    totals = [math.fsum(column) for column in zip(*per_layer)] or [0.0] * 7
    to_old, to_curr, inner_old, inner_curr, merged_sq, old_sq, curr_sq = totals
    return MergeDistanceReport(
        l2_to_old=math.sqrt(to_old),
        l2_to_curr=math.sqrt(to_curr),
        cos_to_old=_cosine(inner_old, merged_sq, old_sq),
        cos_to_curr=_cosine(inner_curr, merged_sq, curr_sq),
    )
