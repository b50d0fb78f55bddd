"""Directional-consistency loss (with analytic gradient) and percentile-masked
distillation losses on raw prediction arrays."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .checkpoint import read_checkpoint, read_json
from .diagnostics import TensorSignConflicts, _sign_counts, _sign_scratch
from .errors import CheckpointFormatError, ConfigError, EmptyInputError, ShapeError
from .tensors import NamedTensorMap, _blockwise, check_same_shape, map_layers
from .task_vectors import TaskVector, _check_bases

GRANULARITIES = ("tensor", "element")


@dataclass(frozen=True)
class DcLossConfig:
    """``granularity`` picks the index set of the alignment sum: one term per
    named tensor (inner product) or one per scalar element.  The only
    supported reduction over terms is a plain sum."""

    granularity: str = "tensor"

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise ConfigError(
                f"granularity must be one of {GRANULARITIES}, got {self.granularity!r}"
            )


def successive_updates(tau_t, tau_prev, tau_prev2, d_curr, d_prev) -> tuple:
    """The float64 updates ``d_curr = tau_t - tau_prev`` and ``d_prev =
    tau_prev - tau_prev2``, written into float64 arrays of their shape: the
    update leaf of a blocked walk, or one whole tensor's updates."""
    np.subtract(tau_t, tau_prev, out=d_curr, dtype=np.float64)
    np.subtract(tau_prev, tau_prev2, out=d_prev, dtype=np.float64)
    return d_curr, d_prev


def _walk_updates(op: str, tau_t, tau_prev, tau_prev2, leaf: Callable, *scratch):
    """``leaf(d_curr, d_prev, *scratch_blocks)`` over blocks of one tensor's
    :func:`successive_updates`, added up a :func:`~duet.tensors._blockwise`
    walk.  The tensors must share one shape (ShapeError), not one dtype."""
    check_same_shape(op, tau_t=tau_t, tau_prev=tau_prev, tau_prev2=tau_prev2)

    def block(t, prev, prev2, d_curr, d_prev, *blocks):
        return leaf(*successive_updates(t, prev, prev2, d_curr, d_prev), *blocks)

    return _blockwise((tau_t, tau_prev, tau_prev2), block, np.float64, np.float64, *scratch)


def _alignment_sums(d_curr: np.ndarray, d_prev: np.ndarray) -> np.ndarray:
    """The DC leaf: a block's ``sum(d_curr * d_prev)`` and the sum of its
    negative products, ``sum(min(d_curr * d_prev, 0))``."""
    products = np.multiply(d_curr, d_prev, out=d_curr)
    return np.array((np.sum(products), np.sum(np.fmin(products, 0.0, out=products))))


def update_sign_conflicts(tau_t, tau_prev, tau_prev2) -> TensorSignConflicts:
    """:func:`~duet.diagnostics.layer_sign_conflicts` of one tensor's
    :func:`successive_updates`, a block at a time."""
    counts = _walk_updates("update_sign_conflicts", tau_t, tau_prev, tau_prev2, _sign_counts,
                           *_sign_scratch(np.float64, np.float64))
    return TensorSignConflicts(*counts[:, 0].tolist())


def dc_term(
    tau_t: np.ndarray, tau_prev: np.ndarray, tau_prev2: np.ndarray, granularity: str
) -> float:
    """One tensor's term of :func:`dc_loss`, a block at a time.

    At tensor granularity the term is ``relu(-(d_curr . d_prev))``, with the
    bits of :func:`~duet.tensors.inner_product` of the whole updates, and it
    is positive exactly when the tensor's gradient is active.  At element
    granularity it is minus the sum of the negative products.
    """
    sums = _walk_updates("dc_term", tau_t, tau_prev, tau_prev2, _alignment_sums)
    alignment, negative = sums.tolist()
    if granularity == "tensor":
        return -alignment if alignment < 0.0 else 0.0
    return -negative


def _dc_terms(tau_t: TaskVector, tau_prev: TaskVector, tau_prev2: TaskVector, fn, op: str):
    _check_bases(op, tau_t.base_fingerprint, tau_prev, tau_prev2)
    maps = {"tau_t": tau_t.deltas, "tau_prev": tau_prev.deltas, "tau_prev2": tau_prev2.deltas}
    return map_layers(op, fn, maps)


def dc_loss(
    tau_t: TaskVector,
    tau_prev: TaskVector,
    tau_prev2: TaskVector,
    config: DcLossConfig | None = None,
) -> float:
    """Penalty on successive update directions that point against each other.

    Sums ``relu(-(d_curr . d_prev))`` where ``d_curr = tau_t - tau_prev`` and
    ``d_prev = tau_prev - tau_prev2``; the dot product runs over whole tensors
    or single elements depending on the configured granularity.
    """
    config = config or DcLossConfig()
    term = lambda name, *layers: dc_term(*layers, config.granularity)
    terms = _dc_terms(tau_t, tau_prev, tau_prev2, term, "dc_loss")
    total = 0.0
    # Sorted order makes the sum independent of dict insertion order.
    for _, penalty in sorted(terms):
        total += penalty
    return total


def _layer_grad(tau_t, tau_prev, tau_prev2, granularity: str) -> np.ndarray:
    """One tensor's gradient of :func:`dc_loss`, ``where(active, -d_prev, 0)``,
    whole, as the gradient map is."""
    d_curr, d_prev = successive_updates(tau_t, tau_prev, tau_prev2, *np.empty((2, *tau_t.shape)))
    if granularity == "tensor":
        active = dc_term(tau_t, tau_prev, tau_prev2, "tensor") > 0.0
    else:
        active = d_curr * d_prev < 0.0
    layer_grad = np.where(active, -d_prev, 0.0)
    layer_grad.flags.writeable = False
    return layer_grad


def dc_loss_grad(
    tau_t: TaskVector,
    tau_prev: TaskVector,
    tau_prev2: TaskVector,
    config: DcLossConfig | None = None,
) -> NamedTensorMap:
    """Gradient of :func:`dc_loss` with respect to ``tau_t``.

    Active terms (negative alignment) contribute ``-d_prev`` on their support;
    at the hinge (alignment exactly zero) the zero subgradient is returned.
    """
    config = config or DcLossConfig()
    grad = lambda name, *layers: _layer_grad(*layers, config.granularity)
    return dict(_dc_terms(tau_t, tau_prev, tau_prev2, grad, "dc_loss_grad"))


def percentile_75(values) -> float:
    """75th percentile with linear interpolation between order statistics."""
    data = np.asarray(values, dtype=np.float64).reshape(-1)
    if data.size == 0:
        raise EmptyInputError("percentile of an empty value list is undefined")
    if not np.isfinite(data).all():
        raise ValueError("percentile input must be finite")
    ordered = np.sort(data)
    position = (ordered.size - 1) * 0.75
    lower = int(position)
    if lower == ordered.size - 1:
        return float(ordered[lower])
    fraction = position - lower
    return float(ordered[lower] + fraction * (ordered[lower + 1] - ordered[lower]))


@dataclass
class PredictionBatch:
    """Raw detector outputs: one row of class logits per prediction and one
    row of box coordinates per box."""

    class_logits: np.ndarray
    bbox_values: np.ndarray

    def __post_init__(self):
        self.class_logits = np.asarray(self.class_logits, dtype=np.float64)
        self.bbox_values = np.asarray(self.bbox_values, dtype=np.float64)
        if self.class_logits.ndim != 2:
            raise ShapeError(f"class_logits must be 2-d, got shape {self.class_logits.shape}")
        if self.bbox_values.ndim != 2:
            raise ShapeError(f"bbox_values must be 2-d, got shape {self.bbox_values.shape}")
        if self.class_logits.shape[0] > 0 and self.class_logits.shape[1] < 1:
            raise ShapeError("class_logits needs at least one class column")
        if self.bbox_values.shape[1] < 2:
            raise ShapeError(
                f"bbox_values needs at least 2 coordinates per box, got {self.bbox_values.shape[1]}"
            )
        for label, arr in (("class_logits", self.class_logits), ("bbox_values", self.bbox_values)):
            if arr.size and not np.isfinite(arr).all():
                raise ValueError(f"{label} contains non-finite values")


def load_prediction_batch(path: str | Path) -> PredictionBatch:
    """Load a batch from JSON or from the binary tensor container."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        arrays, where = read_json(path, "prediction JSON"), f"{path}: prediction JSON"
    else:
        arrays, where = read_checkpoint(path), f"{path}: prediction container"
    try:
        logits, boxes = np.asarray(arrays["class_logits"]), np.asarray(arrays["bbox_values"])
        if logits.dtype.kind not in "iuf" or boxes.dtype.kind not in "iuf":
            raise TypeError("an array holds values other than numbers")
        return PredictionBatch(logits, boxes)
    except (TypeError, KeyError, ValueError) as exc:  # also ragged or non-finite arrays
        raise CheckpointFormatError(
            f"{where} must carry 'class_logits' and 'bbox_values' as rectangular arrays "
            f"of finite numbers: {exc}"
        ) from exc


def _check_batch_pair(curr: np.ndarray, old: np.ndarray, what: str):
    if curr.shape != old.shape:
        raise ShapeError(f"{what}: shape mismatch {curr.shape} vs {old.shape}")


def distill_cls_loss(curr: PredictionBatch, old: PredictionBatch) -> tuple[float, int]:
    """Mean squared L2 gap over rows whose old max-logit clears the 75th
    percentile threshold; empty batches give (0, 0)."""
    _check_batch_pair(curr.class_logits, old.class_logits, "class_logits")
    n = old.class_logits.shape[0]
    if n == 0:
        return 0.0, 0
    row_max = np.max(old.class_logits, axis=1)
    threshold = percentile_75(row_max)
    mask = row_max >= threshold
    mask_size = int(np.count_nonzero(mask))
    if mask_size == 0:
        return 0.0, 0
    diff = curr.class_logits[mask] - old.class_logits[mask]
    per_row = np.sum(diff * diff, axis=1, dtype=np.float64)
    return float(np.sum(per_row, dtype=np.float64) / mask_size), mask_size


def _row_softmax(rows: np.ndarray) -> np.ndarray:
    shifted = rows - np.max(rows, axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=1, keepdims=True)


def distill_bbox_loss(curr: PredictionBatch, old: PredictionBatch) -> tuple[float, int]:
    """Mean KL(softmax(curr row) || softmax(old row)) over rows whose old-box
    population variance is at or below the 75th percentile threshold."""
    _check_batch_pair(curr.bbox_values, old.bbox_values, "bbox_values")
    m = old.bbox_values.shape[0]
    if m == 0:
        return 0.0, 0
    variances = np.var(old.bbox_values, axis=1)  # population variance: divide by K
    threshold = percentile_75(variances)
    mask = variances <= threshold
    mask_size = int(np.count_nonzero(mask))
    if mask_size == 0:
        return 0.0, 0
    p = _row_softmax(curr.bbox_values[mask])
    q = _row_softmax(old.bbox_values[mask])
    kl_rows = np.sum(p * (np.log(p) - np.log(q)), axis=1, dtype=np.float64)
    return float(np.sum(kl_rows, dtype=np.float64) / mask_size), mask_size


@dataclass
class DistillResult:
    cls_loss: float
    cls_mask_size: int
    bbox_loss: float
    bbox_mask_size: int

    @property
    def total(self) -> float:
        return self.cls_loss + self.bbox_loss

    def to_dict(self) -> dict:
        return {
            "cls_loss": self.cls_loss,
            "cls_mask_size": self.cls_mask_size,
            "bbox_loss": self.bbox_loss,
            "bbox_mask_size": self.bbox_mask_size,
            "total": self.total,
        }


def distill_loss(curr: PredictionBatch, old: PredictionBatch) -> DistillResult:
    cls_loss, cls_mask = distill_cls_loss(curr, old)
    bbox_loss, bbox_mask = distill_bbox_loss(curr, old)
    return DistillResult(cls_loss, cls_mask, bbox_loss, bbox_mask)
