"""Directional-consistency loss (with analytic gradient) and percentile-masked
distillation losses on raw prediction arrays."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import read_checkpoint, read_json
from .errors import CheckpointFormatError, ConfigError, EmptyInputError, ShapeError
from .tensors import NamedTensorMap, inner_product, map_layers
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


def successive_updates(
    tau_t: np.ndarray, tau_prev: np.ndarray, tau_prev2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One tensor's float64 updates ``d_curr = tau_t - tau_prev`` and
    ``d_prev = tau_prev - tau_prev2``."""
    prev = tau_prev.astype(np.float64)
    d_curr = tau_t.astype(np.float64) - prev
    return d_curr, prev - tau_prev2.astype(np.float64)


def dc_term(
    tau_t: np.ndarray, tau_prev: np.ndarray, tau_prev2: np.ndarray, granularity: str
) -> tuple[float, np.ndarray, np.ndarray | bool]:
    """One tensor's term of :func:`dc_loss` as ``(penalty, d_prev, active)``.

    ``active`` marks the terms with negative alignment (one flag per tensor or
    per element); the term's gradient with respect to ``tau_t`` is
    ``where(active, -d_prev, 0)``, the zero subgradient at the hinge.
    """
    d_curr, d_prev = successive_updates(tau_t, tau_prev, tau_prev2)
    if granularity == "tensor":
        alignment = inner_product(d_curr, d_prev)
        active = alignment < 0.0
        return (-alignment if active else 0.0), d_prev, active
    products = d_curr * d_prev
    active = products < 0.0
    return float(-np.sum(products[active], dtype=np.float64)), d_prev, active


def _dc_terms(
    tau_t: TaskVector, tau_prev: TaskVector, tau_prev2: TaskVector, config: DcLossConfig, op: str
):
    _check_bases(op, tau_t.base_fingerprint, tau_prev, tau_prev2)
    term = lambda name, t, prev, prev2: dc_term(t, prev, prev2, config.granularity)
    maps = {"tau_t": tau_t.deltas, "tau_prev": tau_prev.deltas, "tau_prev2": tau_prev2.deltas}
    return map_layers(op, term, maps)


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
    terms = _dc_terms(tau_t, tau_prev, tau_prev2, config, "dc_loss")
    total = 0.0
    # Sorted order makes the sum independent of dict insertion order.
    for _, penalty in sorted((name, term[0]) for name, term in terms):
        total += penalty
    return total


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
    grad: NamedTensorMap = {}
    for name, (_, d_prev, active) in _dc_terms(tau_t, tau_prev, tau_prev2, config, "dc_loss_grad"):
        layer_grad = np.where(active, -d_prev, 0.0)
        layer_grad.flags.writeable = False
        grad[name] = layer_grad
    return grad


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
