"""Layer-wise retention/adaptation merging, head concatenation, and the
incremental-sequence driver, plus the weight-averaging and magnitude-max
baseline mergers.

For each shared layer the merge balances the old and current task vectors
with a norm-imbalance factor::

    p     = (|tau_old|_1 - |tau_curr|_1) / (|tau_old + tau_curr|_1 + epsilon)
    delta = gamma * tanh(p)
    alpha = alpha_base + clamp(delta, -gamma, +gamma)
    beta  = 1 - alpha
    merged = base + alpha * tau_old + beta * tau_curr

The sequence driver streams checkpoints tensor-by-tensor and rotates the old
task vector in place, so it retains only the base shared map plus two
task-vector-sized maps regardless of sequence length.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .checkpoint import CheckpointReader, PartitionSpec, classify_names, fingerprint_map
from .diagnostics import SignConflictReport, sign_conflicts
from .errors import (
    AxisError,
    BaseMismatchError,
    EmptyInputError,
    KeyMismatchError,
    ShapeError,
)
from .tensors import NamedTensorMap, check_same_keys, check_tensor, combine, l1_norm, map_layers
from .task_vectors import TaskVector, _check_bases, _check_layer_pair, _subtract

# Slack on the |p| <= 1 bound; the triangle inequality caps the exact ratio at
# 1, so anything above this is data corruption worth flagging.
_P_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class MergeConfig:
    """Hyperparameters of the layer-wise merge.

    ``gamma`` bounds how far a layer's retention weight may move from
    ``alpha_base``; ``epsilon`` keeps the norm ratio finite on all-zero layers.
    """

    gamma: float = 0.1
    alpha_base: float = 0.5
    epsilon: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 0.5:
            raise ValueError(f"gamma must be in [0, 0.5], got {self.gamma}")
        if not 0.0 < self.alpha_base < 1.0:
            raise ValueError(f"alpha_base must be in (0, 1), got {self.alpha_base}")
        if self.alpha_base - self.gamma < 0.0 or self.alpha_base + self.gamma > 1.0:
            raise ValueError(
                f"alpha_base +/- gamma must stay within [0, 1]; "
                f"got alpha_base={self.alpha_base}, gamma={self.gamma}"
            )
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    def to_dict(self) -> dict:
        return {"gamma": self.gamma, "alpha_base": self.alpha_base, "epsilon": self.epsilon}


@dataclass(slots=True)
class LayerMergeRecord:
    layer_name: str
    p: float
    delta: float
    alpha: float
    beta: float
    norm_old: float
    norm_curr: float
    norm_sum: float

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


@dataclass
class MergeReport:
    """Per-layer coefficient records plus provenance for one merge invocation."""

    config: MergeConfig
    base_fingerprint: str
    old_fingerprint: str
    curr_fingerprint: str
    layers: list[LayerMergeRecord] = field(default_factory=list)
    sign_conflicts: SignConflictReport | None = None
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "base_fingerprint": self.base_fingerprint,
            "old_fingerprint": self.old_fingerprint,
            "curr_fingerprint": self.curr_fingerprint,
            "layers": [record.to_dict() for record in self.layers],
            "sign_conflicts": self.sign_conflicts.to_dict() if self.sign_conflicts else None,
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def csv_rows(self) -> list[list]:
        header = ["layer_name", "p", "delta", "alpha", "beta", "norm_old", "norm_curr", "norm_sum"]
        rows = [header]
        for record in self.layers:
            entry = record.to_dict()
            rows.append([entry[column] for column in header])
        return rows


def _layer_coefficients(
    name: str, tau_old_l: np.ndarray, tau_curr_l: np.ndarray, config: MergeConfig
) -> tuple[LayerMergeRecord, list[str]]:
    _check_layer_pair(name, tau_old_l, tau_curr_l)
    norm_old = l1_norm(tau_old_l)
    norm_curr = l1_norm(tau_curr_l)
    norm_sum = l1_norm(np.add(tau_old_l, tau_curr_l, dtype=np.float64))
    p = (norm_old - norm_curr) / (norm_sum + config.epsilon)
    warnings: list[str] = []
    if abs(p) > 1.0 + _P_BOUND_SLACK:
        warnings.append(f"layer {name!r}: |p|={abs(p)!r} exceeds the triangle-inequality bound 1")
    delta = config.gamma * math.tanh(p)
    clamped = min(max(delta, -config.gamma), config.gamma)
    if clamped != delta:
        warnings.append(f"layer {name!r}: delta clamp activated ({delta!r} -> {clamped!r})")
    alpha = config.alpha_base + clamped
    beta = 1.0 - alpha
    record = LayerMergeRecord(
        layer_name=name,
        p=p,
        delta=clamped,
        alpha=alpha,
        beta=beta,
        norm_old=norm_old,
        norm_curr=norm_curr,
        norm_sum=norm_sum,
    )
    return record, warnings


def duet_layer_coefficients(
    tau_old_l: np.ndarray, tau_curr_l: np.ndarray, config: MergeConfig | None = None
) -> tuple[float, float, float, float]:
    """Return ``(p, delta, alpha, beta)`` for one layer's pair of deltas."""
    record, _ = _layer_coefficients("<layer>", tau_old_l, tau_curr_l, config or MergeConfig())
    return record.p, record.delta, record.alpha, record.beta


def _merge_layers(
    base_shared: NamedTensorMap,
    base_fingerprint: str,
    tau_old: NamedTensorMap,
    tau_curr: NamedTensorMap,
    config: MergeConfig,
    threads: int = 1,
) -> tuple[MergeReport, Iterator[tuple[str, np.ndarray]]]:
    """The report (fingerprints and sign conflicts taken now) plus a lazy
    ``(name, merged_layer)`` stream in base order that adds each layer's record
    as it goes.  Once a layer is yielded its inputs are never read again."""

    def merge_one(name, base_l, old_l, curr_l) -> tuple[LayerMergeRecord, np.ndarray, list[str]]:
        record, warnings = _layer_coefficients(name, old_l, curr_l, config)
        terms = ((1.0, base_l), (record.alpha, old_l), (record.beta, curr_l))
        return record, combine(terms, base_l.dtype), warnings

    maps = {"base": base_shared, "tau_old": tau_old, "tau_curr": tau_curr}
    results = map_layers("duet_merge", merge_one, maps, threads)
    report = MergeReport(
        config=config,
        base_fingerprint=base_fingerprint,
        old_fingerprint=fingerprint_map(tau_old),
        curr_fingerprint=fingerprint_map(tau_curr),
        sign_conflicts=sign_conflicts(tau_old, tau_curr),
    )

    def layers() -> Iterator[tuple[str, np.ndarray]]:
        for name, (record, merged_layer, warnings) in results:
            report.layers.append(record)
            report.warnings.extend(warnings)
            yield name, merged_layer

    return report, layers()


def duet_merge(
    base_shared: NamedTensorMap,
    base_fingerprint: str,
    tau_old: TaskVector,
    tau_curr: TaskVector,
    config: MergeConfig | None = None,
    threads: int = 1,
) -> tuple[NamedTensorMap, MergeReport]:
    """Merge two task vectors onto the base shared weights, layer by layer.

    Both task vectors must carry ``base_fingerprint``.  Returns the merged
    shared map (in base order) and a report with one record per layer.
    """
    config = config or MergeConfig()
    _check_bases("duet_merge", base_fingerprint, tau_old, tau_curr)
    report, layers = _merge_layers(
        base_shared, base_fingerprint, tau_old.deltas, tau_curr.deltas, config, threads
    )
    return dict(layers), report


def incremental_head_concat(
    prev_head: NamedTensorMap,
    curr_head: NamedTensorMap,
    axis: int,
    order: str = "curr-first",
    replace_names: Iterable[str] = (),
) -> NamedTensorMap:
    """Concatenate per-key head tensors along the class-growth axis.

    The current task's block comes first by default (``order="prev-first"``
    flips it).  Keys in ``replace_names`` are taken from the current head and
    must keep an identical shape.
    """
    if order not in ("curr-first", "prev-first"):
        raise ValueError(f"order must be 'curr-first' or 'prev-first', got {order!r}")
    check_same_keys(prev_head, curr_head, "incremental_head_concat", "prev", "curr")
    replace = set(replace_names)
    unknown = sorted(replace - set(curr_head))
    if unknown:
        raise KeyMismatchError(f"incremental_head_concat: replace names not in head: {unknown}")
    out: NamedTensorMap = {}
    for name, curr in curr_head.items():
        prev = prev_head[name]
        check_tensor(curr, name)
        check_tensor(prev, name)
        if prev.dtype != curr.dtype:
            raise ShapeError(f"tensor {name!r}: dtype mismatch {prev.dtype} vs {curr.dtype}")
        if name in replace:
            if prev.shape != curr.shape:
                raise ShapeError(
                    f"tensor {name!r} is flagged replace but shapes differ: "
                    f"{prev.shape} vs {curr.shape}"
                )
            out[name] = curr
            continue
        ndim = curr.ndim
        concat_axis = axis + ndim if axis < 0 else axis
        if not 0 <= concat_axis < ndim:
            raise AxisError(
                f"tensor {name!r}: concat axis {axis} out of range for {ndim}-d shape {curr.shape}"
            )
        prev_rest = prev.shape[:concat_axis] + prev.shape[concat_axis + 1 :]
        curr_rest = curr.shape[:concat_axis] + curr.shape[concat_axis + 1 :]
        if prev_rest != curr_rest:
            raise ShapeError(
                f"tensor {name!r}: shapes {prev.shape} and {curr.shape} differ off axis {axis}"
            )
        blocks = [curr, prev] if order == "curr-first" else [prev, curr]
        joined = np.concatenate(blocks, axis=concat_axis)
        joined.flags.writeable = False
        out[name] = joined
    return out


def assemble_incremental(
    merged_shared: NamedTensorMap, concat_head: NamedTensorMap
) -> NamedTensorMap:
    """Union of shared and head maps, shared first; key sets must be disjoint."""
    overlap = sorted(merged_shared.keys() & concat_head.keys())
    if overlap:
        raise KeyMismatchError(f"assemble_incremental: overlapping keys: {overlap}")
    out: NamedTensorMap = dict(merged_shared)
    out.update(concat_head)
    return out


class _DictSource:
    def __init__(self, tensor_map: NamedTensorMap):
        self._map = tensor_map

    @property
    def names(self) -> list[str]:
        return list(self._map)

    def load(self, name: str) -> np.ndarray:
        return self._map[name]

    def load_all(self) -> NamedTensorMap:
        return dict(self._map)

    def close(self):
        pass


def _open_source(source) -> _DictSource | CheckpointReader:
    if isinstance(source, dict):
        return _DictSource(source)
    return CheckpointReader(source)


@dataclass
class SequenceStep:
    """One task's output: the assembled checkpoint plus the merge report
    (``None`` for the base task, which passes through verbatim)."""

    task_index: int
    checkpoint: NamedTensorMap
    report: MergeReport | None


def iter_incremental_sequence(
    base,
    fine_tuned: Iterable,
    spec: PartitionSpec,
    config: MergeConfig | None = None,
    head_order: str = "curr-first",
    threads: int = 1,
) -> Iterator[SequenceStep]:
    """Stream the incremental sequence, one task at a time.

    ``base`` and each ``fine_tuned`` item may be a checkpoint path or an
    in-memory map.  Task 1 is yielded verbatim; every later task merges the
    previous incremental model's task vector with the current one and
    concatenates the heads.  Between steps only the base shared map, the
    rolling old task vector, and the previous concatenated head are retained;
    ``threads > 1`` adds up to ``2 * threads`` layers in flight.
    """
    config = config or MergeConfig()

    base_source = _open_source(base)
    try:
        if isinstance(base_source, CheckpointReader):
            base_fingerprint = base_source.fingerprint()
        else:
            base_fingerprint = fingerprint_map(base_source.load_all())
        base_shared_names, _ = classify_names(base_source.names, spec)
        base_shared = {name: base_source.load(name) for name in base_shared_names}
    finally:
        base_source.close()
    shared_set = set(base_shared)

    tau_old: NamedTensorMap | None = None
    prev_head: NamedTensorMap | None = None
    produced = 0

    for task_index, item in enumerate(fine_tuned, start=1):
        reader = _open_source(item)
        try:
            shared_names, head_names = classify_names(reader.names, spec)
            if set(shared_names) != shared_set:
                only_ft = sorted(set(shared_names) - shared_set)
                only_base = sorted(shared_set - set(shared_names))
                raise KeyMismatchError(
                    f"task {task_index}: shared keys differ from base; "
                    f"only in task: {only_ft}; only in base: {only_base}"
                )
            replace_names = {name for name in head_names if spec.is_replace(name)}

            if task_index == 1:
                full = reader.load_all()
                tau_old = {
                    name: _subtract(name, full[name], base_shared[name]) for name in base_shared
                }
                prev_head = {name: full[name] for name in head_names}
                yield SequenceStep(task_index, full, None)
                del full
            else:
                assert tau_old is not None and prev_head is not None
                tau_curr = {
                    name: _subtract(name, reader.load(name), base_shared[name])
                    for name in base_shared
                }
                curr_head = {name: reader.load(name) for name in head_names}

                report, layers = _merge_layers(
                    base_shared, base_fingerprint, tau_old, tau_curr, config, threads
                )
                merged: NamedTensorMap = {}
                for name, merged_layer in layers:
                    merged[name] = merged_layer
                    # Rotate in place: the next stage's old vector is the drift
                    # of this merged layer, so tau_curr can be released as we go.
                    tau_old[name] = _subtract(name, merged_layer, base_shared[name])
                    del tau_curr[name]

                head = incremental_head_concat(
                    prev_head,
                    curr_head,
                    spec.head_concat_axis,
                    order=head_order,
                    replace_names=replace_names,
                )
                prev_head = head
                del curr_head
                yield SequenceStep(task_index, assemble_incremental(merged, head), report)
                del merged
            produced += 1
        finally:
            reader.close()
    if produced == 0:
        raise EmptyInputError("incremental sequence needs at least the first fine-tuned checkpoint")


def incremental_sequence(
    base,
    fine_tuned: Iterable,
    spec: PartitionSpec,
    config: MergeConfig | None = None,
    head_order: str = "curr-first",
) -> tuple[list[NamedTensorMap], list[MergeReport | None]]:
    """Collect the full sequence in memory (small runs and tests)."""
    checkpoints: list[NamedTensorMap] = []
    reports: list[MergeReport | None] = []
    for step in iter_incremental_sequence(base, fine_tuned, spec, config, head_order=head_order):
        checkpoints.append(step.checkpoint)
        reports.append(step.report)
    return checkpoints, reports


def _vector_stack(
    base_shared: NamedTensorMap, base_fingerprint: str, task_vectors: list[TaskVector], op: str
) -> dict[str, NamedTensorMap]:
    if not task_vectors:
        raise EmptyInputError(f"{op}: need at least one task vector")
    _check_bases(op, base_fingerprint, *task_vectors)
    vectors = {f"task vector {i} {v.label!r}": v.deltas for i, v in enumerate(task_vectors, 1)}
    return {"base": base_shared, **vectors}


def weight_average_merge(
    base_shared: NamedTensorMap,
    base_fingerprint: str,
    task_vectors: list[TaskVector],
    threads: int = 1,
) -> NamedTensorMap:
    """Base plus the uniform mean of the task vectors."""
    maps = _vector_stack(base_shared, base_fingerprint, task_vectors, "weight_average_merge")
    scale = 1.0 / len(task_vectors)

    def merge_one(name: str, base_l: np.ndarray, *deltas: np.ndarray) -> np.ndarray:
        total = np.zeros(base_l.shape, dtype=np.float64)
        for delta in deltas:
            total += delta
        return combine(((1.0, base_l), (scale, total)), base_l.dtype)

    return dict(map_layers("weight_average_merge", merge_one, maps, threads))


def magmax_merge(
    base_shared: NamedTensorMap,
    base_fingerprint: str,
    task_vectors: list[TaskVector],
    threads: int = 1,
) -> NamedTensorMap:
    """Base plus, per element, the largest-magnitude delta across vectors.

    Ties keep the earliest vector in list order.  This is the elementwise
    magnitude-max core only, not any consensus preprocessing around it.
    """
    maps = _vector_stack(base_shared, base_fingerprint, task_vectors, "magmax_merge")

    def merge_one(name: str, base_l: np.ndarray, *deltas: np.ndarray) -> np.ndarray:
        best = deltas[0].copy()
        for delta in deltas[1:]:
            take = np.abs(delta) > np.abs(best)
            best[take] = delta[take]
        return combine(((1.0, base_l), (1.0, best)), base_l.dtype)

    return dict(map_layers("magmax_merge", merge_one, maps, threads))
