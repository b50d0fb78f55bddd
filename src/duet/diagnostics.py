"""Sign-conflict counts between task vectors and merged-model distance checks,
and the streamed JSON text of the reports built on the counts.

A report's JSON is written as a stream of text pieces with the bytes of
``json.dumps(report, indent=2)``: each flat record (a merge report's layer,
a tensor's sign counts) fills a ``%`` template, and at most
``_PIECE_RECORDS`` records go into one piece, so no dict of the report and
no whole text of it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

import numpy as np

from .tensors import NamedTensorMap, _blockwise, check_same_shape, map_layers
from .task_vectors import TaskVector


# Records per piece of a streamed report; 512 layer records are about 130 KB.
_PIECE_RECORDS = 512


def _json_scalar(value) -> str:
    """``json.dumps(value)`` of a string, None, an int or a float, NaN and
    the infinities included."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    if value is None:
        return "null"
    return int.__repr__(value)


_NON_FINITE = frozenset(("nan", "inf", "-inf"))  # float.__repr__ of the non-finite floats


def _json_floats(values: tuple) -> tuple:
    """:func:`_json_scalar` of each value, at the cost of ``float.__repr__``
    alone while the values are finite floats."""
    try:
        texts = tuple(map(float.__repr__, values))
    except TypeError:  # not a float among them
        return tuple(map(_json_scalar, values))
    return texts if _NON_FINITE.isdisjoint(texts) else tuple(map(_json_scalar, values))


def _object_template(keys: Iterable[str], depth: int) -> str:
    """A ``%`` template of a flat JSON object with ``keys``, one ``%s`` per
    value, as ``json.dumps(..., indent=2)`` writes it ``depth`` levels deep."""
    pad = "\n" + "  " * (depth + 1)
    return "{" + ",".join(f"{pad}{encode_basestring_ascii(key)}: %s" for key in keys) + pad[:-2] + "}"


def _json_items(items: Iterable[str], depth: int, brackets: str) -> Iterator[str]:
    """The pieces of a JSON list (``brackets`` ``"[]"``) or object (``"{}"``)
    of encoded ``items`` written ``depth`` levels deep, ``_PIECE_RECORDS``
    items per piece."""
    items = iter(items)
    pad = "\n" + "  " * (depth + 1)
    separator = brackets[0] + pad
    for part in iter(lambda: list(islice(items, _PIECE_RECORDS)), []):
        yield separator + ("," + pad).join(part)
        separator = "," + pad
    yield pad[:-2] + brackets[1] if separator[0] == "," else brackets  # empty: "[]" or "{}"


def _json_fields(fields: Iterable[tuple[str, object]], depth: int) -> Iterator[str]:
    """The pieces of a JSON object of ``(key, value)`` fields written
    ``depth`` levels deep; a value is a scalar, or an iterator of the pieces
    of its own text."""
    pad = "\n" + "  " * (depth + 1)
    separator = "{"
    for key, value in fields:
        head = f"{separator}{pad}{encode_basestring_ascii(key)}: "
        if isinstance(value, Iterator):
            yield head
            yield from value
        else:
            yield head + _json_scalar(value)
        separator = ","
    yield pad[:-2] + "}"


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

    def json_fields(self, depth: int) -> list[tuple[str, object]]:
        """The fields of :meth:`to_dict` for :func:`_json_fields` ``depth``
        levels deep, the per-tensor counts as a lazy stream of pieces."""
        template = _object_template(("conflicts", "comparable", "fraction"), depth + 2)
        counts = (
            f"{encode_basestring_ascii(name)}: " + template % (
                int.__repr__(entry.conflicts), int.__repr__(entry.comparable),
                _json_scalar(entry.fraction),
            )
            for name, entry in self.per_tensor.items()
        )
        return [
            ("per_tensor", _json_items(counts, depth + 1, "{}")),
            ("total_conflicts", self.total_conflicts),
            ("total_comparable", self.total_comparable),
            ("total_fraction", self.total_fraction),
        ]


def _as_map(vector: TaskVector | NamedTensorMap) -> NamedTensorMap:
    return vector.deltas if isinstance(vector, TaskVector) else vector


def layer_sign_conflicts(left: np.ndarray, right: np.ndarray) -> TensorSignConflicts:
    """Count one tensor pair's elements with strictly opposite nonzero signs.

    Pairs where either element is zero are excluded from ``comparable``.
    The pair must share one shape (ShapeError); its dtypes may differ.
    """
    check_same_shape("layer_sign_conflicts", left=left, right=right)
    counts = _blockwise((left, right), _sign_counts, *_sign_scratch(left.dtype, right.dtype))
    return TensorSignConflicts(*counts[:, 0].tolist())


def _sign_scratch(left_dtype, right_dtype) -> tuple:
    """The scratch dtypes :func:`_sign_counts` takes its blocks in."""
    return bool, bool, left_dtype, right_dtype


def _sign_counts(left, right, nonzero, differ, left_sign, right_sign) -> np.ndarray:
    """The sign-count leaf of a blocked walk: ``(conflicts, comparable)``, in
    :class:`TensorSignConflicts`' field order, of each row of one pair of
    blocks, from comparisons of ``np.sign`` values, through
    :func:`_sign_scratch` blocks."""
    np.not_equal(left, 0, out=nonzero)
    nonzero &= np.not_equal(right, 0, out=differ)
    np.sign(left, out=left_sign)
    np.sign(right, out=right_sign)
    np.not_equal(left_sign, right_sign, out=differ)
    differ &= nonzero
    return np.array((_row_counts(differ), _row_counts(nonzero)))


def _row_counts(mask: np.ndarray):
    """The true values in each row of a block.  numpy counts along an axis by
    a cast sum, several times slower than its count of a whole array, so a
    block of one row is counted whole."""
    return np.count_nonzero(mask, axis=-1) if len(mask) > 1 else [np.count_nonzero(mask)]


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
