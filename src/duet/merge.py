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

Every merge and the head concatenation is a stream (``iter_*``) that yields
each output layer as it is made, for a header-first writer, over inputs that
may be lazy maps, and task vectors of any form, mixed.  Two map forms collect
a stream, each for a caller that wants the whole map: :func:`duet_merge` and
:func:`incremental_head_concat`.

The sequence driver keeps only the base shared map and the previous step's
shared output.  Each step walks the layers once, forming both task vectors a
layer at a time, so it holds about two shared-partition-sized maps regardless
of sequence length.  A step is yielded as its layout and a one-shot stream of
its layers, so a header-first writer writes each merged layer as it is made.

Every unit of the merge is a stack of rows, a large layer as one row or a
window's small layers one row each, and takes one fetch, one statistics walk
and one :func:`combine`.  Both task vectors' digests take a unit's deltas in
base order as it is fetched: a large layer's on :mod:`~duet.checkpoint`'s
I/O thread while it merges, a window's on the fetching thread or behind the
lane's jobs.  A unit's deltas are released only once hashed.

A :class:`MergeReport` is written as a stream of JSON text pieces
(:meth:`MergeReport.json_pieces`), a few hundred records per piece.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterable, Iterator

import numpy as np

from .checkpoint import (
    CheckpointReader,
    PartitionSpec,
    _Lane,
    canonical_header,
    canonical_payload,
    fingerprint_map,
    partition_checkpoint,
)
from .diagnostics import (
    SignConflictReport,
    TensorSignConflicts,
    _json_fields,
    _json_floats,
    _json_items,
    _json_scalar,
    _object_template,
    _sign_counts,
    _sign_scratch,
)
from .errors import (
    AxisError,
    ConfigError,
    DTypeError,
    EmptyInputError,
    KeyMismatchError,
    ShapeError,
)
from .tensors import (
    _BLOCK,
    NamedTensorMap,
    TensorLayout,
    _blockwise,
    _walk,
    check_aligned,
    check_same_keys,
    check_shapes,
    check_tensor,
    combine,
    l1_norm,
    layout_of,
    map_layers,
)
from .task_vectors import TaskVector, _check_bases, _check_layer_pair, _check_layout, _Deltas, _subtract

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
            raise ConfigError(f"gamma must be in [0, 0.5], got {self.gamma}")
        if not 0.0 < self.alpha_base < 1.0:
            raise ConfigError(f"alpha_base must be in (0, 1), got {self.alpha_base}")
        if self.alpha_base - self.gamma < 0.0 or self.alpha_base + self.gamma > 1.0:
            raise ConfigError(
                f"alpha_base +/- gamma must stay within [0, 1]; "
                f"got alpha_base={self.alpha_base}, gamma={self.gamma}"
            )
        if not self.epsilon > 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")

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


_record_values = attrgetter(*LayerMergeRecord.__slots__)
_record_numbers = attrgetter(*LayerMergeRecord.__slots__[1:])
# A layer record as an item of the report's "layers" list, two levels deep.
_LAYER_TEMPLATE = _object_template(LayerMergeRecord.__slots__, 2)


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

    def json_pieces(self) -> Iterator[str]:
        """The text of ``json.dumps(self.to_dict(), indent=2)``, byte for
        byte, as a stream of pieces of at most ``_PIECE_RECORDS`` layer
        records or sign counts; neither the dict nor the whole text is built."""
        config = self.config.to_dict()
        records = (
            _LAYER_TEMPLATE % (
                encode_basestring_ascii(record.layer_name), *_json_floats(_record_numbers(record))
            )
            for record in self.layers
        )
        signs = self.sign_conflicts
        return _json_fields([
            ("config", _json_fields(config.items(), 1)),
            ("base_fingerprint", self.base_fingerprint),
            ("old_fingerprint", self.old_fingerprint),
            ("curr_fingerprint", self.curr_fingerprint),
            ("layers", _json_items(records, 1, "[]")),
            ("sign_conflicts", None if signs is None else _json_fields(signs.json_fields(1), 1)),
            ("warnings", _json_items(map(_json_scalar, self.warnings), 1, "[]")),
        ], 0)

    def to_json(self) -> str:
        """The joined :meth:`json_pieces`: the whole text, for a caller that wants it."""
        return "".join(self.json_pieces())

    def csv_rows(self) -> Iterator[tuple]:
        """The CSV header, then one row per layer record, each made as it is read."""
        yield LayerMergeRecord.__slots__
        yield from map(_record_values, self.layers)


def _statistics(old: np.ndarray, curr: np.ndarray) -> tuple[list, list]:
    """The statistics of each row of a stack of deltas, from one blocked
    walk: the L1 norms of ``old``, ``curr`` and their float64 sum, as three
    lists of floats, and the sign counts, as two lists of ints.  A row's
    norms have the bits of :func:`l1_norm` of its layer, row-major; its
    counts, added as float64, are exact below 2**53 elements."""
    scratch = (np.float64, *_sign_scratch(old.dtype, curr.dtype))
    statistics = _blockwise((old, curr), _statistics_leaf, *scratch, rows=len(old))
    return statistics[:3].tolist(), statistics[3:].astype(np.int64).tolist()


def _statistics_leaf(old, curr, wide: np.ndarray, *signs: np.ndarray) -> np.ndarray:
    # The L1 leaves over old, curr and their float64 sum share one float64
    # scratch block, beside the sign-count leaf.
    return np.array((
        l1_norm(old, wide),
        l1_norm(curr, wide),
        l1_norm(np.add(old, curr, out=wide, dtype=np.float64), wide),
        *_sign_counts(old, curr, *signs),
    ))


def _hash_deltas(digests: list, rows: list) -> None:
    """Add layers' deltas, ``(old, curr)`` pairs in base order, to their
    vectors' digests."""
    old_digest, curr_digest = digests
    for old, curr in rows:
        old_digest.update(canonical_payload(old))
        curr_digest.update(canonical_payload(curr))


def _coefficients(
    name: str, norm_old: float, norm_curr: float, norm_sum: float, config: MergeConfig
) -> tuple[LayerMergeRecord, list[str]]:
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


def _windows(layout: dict) -> Iterator[list[str]]:
    """The merge's units of work, in base order: each layer of more than
    ``_BLOCK`` elements alone, and the consecutive layers between them, cut
    into windows of at most ``_BLOCK`` elements."""
    window: list[str] = []
    total = 0
    for name, layer in layout.items():
        if window and total + layer.size > _BLOCK:
            yield window
            window, total = [], 0
        window.append(name)
        total += layer.size
    if window:
        yield window


def _stack(layers: tuple[np.ndarray, ...]) -> np.ndarray:
    """Same-shape layers as the rows of one row-major stack: a layer alone is
    a reshaped view, copied only if it is not row-major; several are copied."""
    stack = layers[0] if len(layers) == 1 else np.array(layers)
    return stack.reshape(len(layers), -1)


def _merge_stacks(stacks: list[tuple], count: int, config: MergeConfig) -> deque:
    """Merge a unit's ``count`` layers, given as stacks of the rows of
    same-shape layers of one dtype triple, each with the rows' positions in
    the unit, names and fetched layers: one statistics walk and one
    :func:`combine` per stack, with a column of each row's coefficients.
    The entries come out in the unit's order."""
    entries: list = [None] * count
    for positions, names, layers, base, old, curr in stacks:
        shape = layers[0][0].shape
        norms, counts = _statistics(old, curr)
        coefficients = [
            _coefficients(name, *row, config) for name, row in zip(names, zip(*norms))
        ]
        alpha = np.array([[record.alpha] for record, _ in coefficients])
        beta = np.array([[record.beta] for record, _ in coefficients])
        merged = combine(((1.0, base), (alpha, old), (beta, curr)), base.dtype)
        for position, name, (record, warnings), layer, signs in zip(
            positions, names, coefficients, merged, zip(*counts)
        ):
            entries[position] = (
                name, record, layer.reshape(shape), warnings, TensorSignConflicts(*signs)
            )
    return deque(entries)


def _merge_layers(
    base_shared: NamedTensorMap,
    base_fingerprint: str,
    tau_old: NamedTensorMap | _Deltas,
    tau_curr: NamedTensorMap | _Deltas,
    config: MergeConfig,
    threads: int = 1,
    header: bytes | None = None,
) -> tuple[MergeReport, Iterator[tuple[str, np.ndarray]]]:
    """The report plus a lazy ``(name, merged_layer)`` stream in base order,
    in the base's dtypes and shapes.

    Each layer adds its record, its sign conflicts and its bytes to both
    vectors' fingerprints as it is yielded; the fingerprints and the sign
    conflicts are set when the stream ends.  Once a layer is yielded its
    inputs are never read again.  Any map may be lazy, and the vectors may
    be of different forms: only layouts are read, and checked name by name
    in base order (shapes, then the vectors' dtypes), before the walk; two
    :class:`_Deltas` over ``base_shared`` itself have its layout, unchecked.
    ``header`` is the canonical header of ``tau_old``'s layout, when the
    caller has it.

    The layers are walked in units (:func:`_windows`): a layer of more than
    ``_BLOCK`` elements alone, the others in windows.  The consuming thread
    fetches each unit in base order and stacks it: a window's layers of one
    shape and dtypes, one or many, as the rows of one stack (two such
    :class:`_Deltas` loaded, less the base once per stack), and a large layer
    as one row.  It then hashes the unit's deltas, or hands them to the I/O
    thread (a large layer, or while the lane has jobs), and the unit is
    merged by :func:`_merge_stacks`, on the pool at ``threads`` above 1.
    """
    maps = {"base": base_shared, "tau_old": tau_old, "tau_curr": tau_curr}
    check_aligned("duet_merge", maps)
    vectors = (tau_old, tau_curr)
    # A unit of one layer takes its deltas as they are looked up, so that its
    # two loaded layers are not held at once.
    subtract = all(isinstance(v, _Deltas) and v.base is base_shared for v in vectors)
    deltas = [base_shared.__getitem__, tau_old.__getitem__, tau_curr.__getitem__]
    loads = [base_shared.__getitem__, tau_old.load, tau_curr.load] if subtract else deltas

    def fetch(names: list[str]) -> tuple[int, partial]:
        # On the consuming thread, in base order, so the first payload fault in
        # base order raises at any thread count and the digests take the deltas
        # in order.  Returns the ticket of the unit's hash job (0: hashed here).
        stacked = subtract and len(names) > 1  # subtract the base once per stack
        lookups = loads if stacked else deltas
        groups: dict[tuple, list] = {}
        for position, name in enumerate(names):
            base_l, old_l, curr_l = layers = [lookup(name) for lookup in lookups]
            key = (base_l.shape, base_l.dtype, old_l.dtype, curr_l.dtype)
            groups.setdefault(key, []).append((position, name, layers))
        stacks = []
        rows: list = [None] * len(names)
        for members in groups.values():
            positions, group, layers = zip(*members)
            base, old, curr = (_stack(column) for column in zip(*layers))
            if stacked:
                old, curr = (_subtract(x, base) for x in (old, curr))
            for row, position in enumerate(positions):
                rows[position] = (old[row], curr[row])
            # The fetched layers are held until the stack is merged: freed
            # before the merge makes its outputs, they leave gaps in the heap
            # that raised the peak RSS of a sequence of 10,000 small layers
            # by about 2 MB.
            stacks.append((positions, group, layers, base, old, curr))
        call = partial(_merge_stacks, stacks, len(names), config)
        # A large layer is hashed on the I/O thread while it merges.
        if rows[0][0].size <= _BLOCK and lane.idle():
            _hash_deltas(digests, rows)
            return 0, call
        return lane.put(_hash_deltas, digests, rows), call

    layouts = [layout_of(v) for v in vectors]
    # Each digest opens with its vector's own header (a vector may hold f64
    # deltas over an f32 base), so header errors surface before any layer.
    # Both vectors of a sequence step share the base's layout: one header.
    header = header or canonical_header(layouts[0])
    digests = [
        hashlib.sha256(header if layout is layouts[0] else canonical_header(layout))
        for layout in layouts
    ]
    if not subtract:
        for name, base_l in layout_of(base_shared).items():
            old_l, curr_l = entries = [layout[name] for layout in layouts]
            check_shapes("duet_merge", maps, name, [base_l, *entries])
            _check_layer_pair(name, old_l, curr_l)
    report = MergeReport(
        config=config, base_fingerprint=base_fingerprint, old_fingerprint="", curr_fingerprint=""
    )
    lane = _Lane()

    def layers() -> Iterator[tuple[str, np.ndarray]]:
        counts = {}
        with lane:
            for ticket, entries in _walk(map(fetch, _windows(layout_of(base_shared))), threads):
                lane.wait(ticket)  # the unit's deltas are not held past it
                while entries:  # popped: not held by the deque while the next unit is made
                    name, record, merged_layer, warnings, signs = entries.popleft()
                    report.layers.append(record)
                    report.warnings.extend(warnings)
                    counts[name] = signs
                    yield name, merged_layer
        # The digests took the layers in base order; a vector stored in
        # another order is hashed again, a layer at a time.
        report.old_fingerprint, report.curr_fingerprint = (
            digest.hexdigest() if list(layout) == list(counts) else fingerprint_map(vector)
            for digest, layout, vector in zip(digests, layouts, vectors)
        )
        report.sign_conflicts = SignConflictReport({name: counts[name] for name in layouts[0]})

    return report, layers()


def iter_duet_merge(
    base_shared: NamedTensorMap,
    base_fingerprint: str,
    tau_old: TaskVector,
    tau_curr: TaskVector,
    config: MergeConfig | None = None,
    threads: int = 1,
) -> tuple[MergeReport, Iterator[tuple[str, np.ndarray]]]:
    """:func:`duet_merge` as a stream: the report, complete once the lazy
    ``(name, merged_layer)`` stream (base order, base dtypes and shapes) has
    ended.  The bases, key sets, vector headers and layouts are checked now."""
    config = config or MergeConfig()
    _check_bases("duet_merge", base_fingerprint, tau_old, tau_curr)
    return _merge_layers(
        base_shared, base_fingerprint, tau_old.deltas, tau_curr.deltas, config, threads
    )


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
    shared map (in base order) and a report with one record per layer: the
    whole map :func:`iter_duet_merge` streams.  This map form stays for the
    merge's oracle check in the self-test and for the benchmark's tracer,
    which times it by this name.
    """
    report, layers = iter_duet_merge(
        base_shared, base_fingerprint, tau_old, tau_curr, config, threads
    )
    return dict(layers), report


def _check_order(order: str):
    if order not in ("curr-first", "prev-first"):
        raise ConfigError(f"order must be 'curr-first' or 'prev-first', got {order!r}")


def iter_head_concat(
    prev_head: NamedTensorMap,
    curr_head: NamedTensorMap,
    axis: int,
    order: str = "curr-first",
    replace_names: Iterable[str] = (),
) -> tuple[dict[str, TensorLayout], Iterator[tuple[str, np.ndarray]]]:
    """:func:`incremental_head_concat` as a stream: the joined head's layout,
    checked now from the two heads' layouts alone, and a lazy ``(name,
    layer)`` stream in ``curr_head`` order that reads each pair of blocks as
    it joins them."""
    _check_order(order)
    check_same_keys(prev_head, curr_head, "incremental_head_concat", "prev", "curr")
    replace = set(replace_names)
    unknown = sorted(replace - set(curr_head))
    if unknown:
        raise KeyMismatchError(f"incremental_head_concat: replace names not in head: {unknown}")
    prev_layout = layout_of(prev_head)
    layout: dict[str, TensorLayout] = {}
    # Per joined name, its concat axis; a replaced name is not joined.
    axes: dict[str, int] = {}
    for name, curr in layout_of(curr_head).items():
        prev = prev_layout[name]
        check_tensor(curr, name)
        check_tensor(prev, name)
        if prev.dtype != curr.dtype:
            raise DTypeError(f"tensor {name!r}: dtype mismatch {prev.dtype} vs {curr.dtype}")
        if name in replace:
            if prev.shape != curr.shape:
                raise ShapeError(
                    f"tensor {name!r} is flagged replace but shapes differ: "
                    f"{prev.shape} vs {curr.shape}"
                )
            layout[name] = TensorLayout(curr.dtype, curr.shape)
            continue
        ndim = len(curr.shape)
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
        shape = list(curr.shape)
        shape[concat_axis] += prev.shape[concat_axis]
        layout[name] = TensorLayout(curr.dtype, tuple(shape))
        axes[name] = concat_axis

    def layers() -> Iterator[tuple[str, np.ndarray]]:
        for name in layout:
            curr = curr_head[name]
            if name not in axes:
                yield name, curr
                continue
            prev = prev_head[name]
            blocks = [curr, prev] if order == "curr-first" else [prev, curr]
            joined = np.concatenate(blocks, axis=axes[name])
            joined.flags.writeable = False
            yield name, joined

    return layout, layers()


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
    must keep an identical shape.  This is the whole map
    :func:`iter_head_concat` streams; it stays for the sequence driver, which
    keeps each step's head, and for the benchmark's tracer, which times the
    driver's head concat by this name.
    """
    _, layers = iter_head_concat(prev_head, curr_head, axis, order, replace_names)
    return dict(layers)


@dataclass
class SequenceStep:
    """One task's output checkpoint as a stream, plus the merge report
    (``None`` for the base task, which passes through verbatim).

    ``layout`` maps each name, in checkpoint order, to an array or a
    :class:`~duet.tensors.TensorLayout` of its dtype and shape, for
    :func:`~duet.checkpoint.write_checkpoint`'s header.  ``layers`` is a
    one-shot stream of the ``(name, layer)`` pairs in that order, each made
    as it is read.  Read it before asking for the next step: the driver
    first finishes a stream left unread.
    """

    task_index: int
    layout: dict
    layers: _Stream
    _report: MergeReport | None = field(repr=False)

    @property
    def report(self) -> MergeReport | None:
        """The merge report, always complete: read before ``layers`` has
        ended, it first runs the stream to its end, and the stream then
        yields the rest from what it kept."""
        if self._report is not None:
            self.layers.finish()
        return self._report


class _Stream:
    """A step's one-shot stream of layers.  :meth:`finish` runs it to its end
    ahead of its reader, keeping the pairs still to be read: the driver keeps
    the same arrays for the next step, so it holds no more."""

    def __init__(self, layers: Iterator[tuple[str, np.ndarray]]):
        self._layers = layers
        self._ahead: deque = deque()

    def __iter__(self) -> _Stream:
        return self

    def __next__(self) -> tuple[str, np.ndarray]:
        if self._ahead:
            return self._ahead.popleft()
        return next(self._layers)

    def finish(self) -> None:
        self._ahead.extend(self._layers)


def _as_map(item, stack: ExitStack):
    """A map or an open reader as it is; any other item is a checkpoint
    source, opened here and closed with ``stack``."""
    if isinstance(item, (dict, CheckpointReader)):
        return item
    return stack.enter_context(CheckpointReader(item))


def iter_incremental_sequence(
    base,
    fine_tuned: Iterable,
    spec: PartitionSpec,
    config: MergeConfig | None = None,
    head_order: str = "curr-first",
    threads: int = 1,
) -> Iterator[SequenceStep]:
    """Stream the incremental sequence, one task at a time.

    ``base`` and each ``fine_tuned`` item may be a checkpoint path, an open
    :class:`CheckpointReader` (read as a map and left open) or an in-memory
    map.  Task 1 is yielded verbatim; every later task merges the
    previous incremental model's task vector with the current one and
    concatenates the heads.  ``head_order`` is checked now, each item's
    shared layout against the base's before any of its layers is read, and
    task 1's head concat axis before task 1 is yielded.
    Between steps only the base shared map, the previous step's shared layers
    (the arrays it yielded) and the previous concatenated head are retained;
    ``threads > 1`` adds up to ``2 * threads`` layers in flight.  Each step
    (:class:`SequenceStep`) is its layout and a one-shot stream of its
    layers, for ``write_checkpoint(step.layout, path, step.layers)``; a
    later step's stream merges each shared layer as it is read, dropping the
    previous one, and its head follows.  A consumer that reads each stream
    and drops each step before advancing keeps the driver near two
    shared-partition-sized maps.
    """
    _check_order(head_order)
    return _sequence(base, fine_tuned, spec, config or MergeConfig(), head_order, threads)


def _sequence(
    base, fine_tuned: Iterable, spec: PartitionSpec, config: MergeConfig, head_order: str,
    threads: int,
) -> Iterator[SequenceStep]:
    with ExitStack() as stack:
        base = _as_map(base, stack)
        reader = isinstance(base, CheckpointReader)
        base_fingerprint = base.fingerprint() if reader else fingerprint_map(base)
        base_shared = dict(partition_checkpoint(base, spec)[0])
    del base  # a reader opened here is closed; its entry table is not kept
    # The header both task vectors of every merge open with, built once.  A
    # map it refuses (an empty one) is refused before task 1 is out.
    shared_header = canonical_header(base_shared)

    prev_shared: NamedTensorMap | None = None
    prev_head: NamedTensorMap | None = None
    produced = 0

    for task_index, item in enumerate(fine_tuned, start=1):
        with ExitStack() as stack:
            source = _as_map(item, stack)
            shared, curr_head = partition_checkpoint(source, spec)
            if shared.keys() != base_shared.keys():
                only_ft = sorted(shared.keys() - base_shared.keys())
                only_base = sorted(base_shared.keys() - shared.keys())
                raise KeyMismatchError(
                    f"task {task_index}: shared keys differ from base; "
                    f"only in task: {only_ft}; only in base: {only_base}"
                )
            # From the file's header alone, before any of its layers is read.
            reader = isinstance(source, CheckpointReader)
            _check_layout(source.layout_for(base_shared) if reader else source, base_shared)
            replace_names = {name for name in curr_head if spec.is_replace(name)}

            if task_index == 1:
                # Task 2's head concat, checked from task 1's head layout alone.
                iter_head_concat(
                    curr_head, curr_head, spec.head_concat_axis, head_order, replace_names
                )
                full = dict(source)
                prev_shared = {name: full[name] for name in base_shared}
                prev_head = {name: full[name] for name in curr_head}
                # A map of arrays is its own layout.
                yield SequenceStep(task_index, full, _Stream(iter(full.items())), None)
                del full
            else:
                assert prev_shared is not None and prev_head is not None
                # The small head first: the step's layout, for the header, needs it.
                prev_head = incremental_head_concat(
                    prev_head,
                    curr_head,
                    spec.head_concat_axis,
                    order=head_order,
                    replace_names=replace_names,
                )
                # Both task vectors are formed a layer at a time; each previous
                # output layer is dropped once its delta is taken.
                tau_old = _Deltas(base_shared, prev_shared.pop)
                tau_curr = _Deltas(base_shared, shared.__getitem__)
                report, layers = _merge_layers(
                    base_shared, base_fingerprint, tau_old, tau_curr, config, threads, shared_header
                )
                merged: NamedTensorMap = {}
                layers = _Stream(_kept(layers, merged, prev_head))
                # The partition makes the shared and head names disjoint.
                yield SequenceStep(task_index, {**base_shared, **prev_head}, layers, report)
                deque(layers, maxlen=0)  # the caller may have left it unread
                prev_shared = merged
            produced += 1
    if produced == 0:
        raise EmptyInputError("incremental sequence needs at least the first fine-tuned checkpoint")


def _kept(
    merged_layers: Iterator[tuple[str, np.ndarray]], merged: NamedTensorMap, head: NamedTensorMap
) -> Iterator[tuple[str, np.ndarray]]:
    """A step's stream: the merged shared layers, each kept in ``merged`` for
    the next step as it passes, then the head's."""
    for name, layer in merged_layers:
        merged[name] = layer
        yield name, layer
    yield from head.items()


def _vector_stack(
    base_shared: NamedTensorMap, base_fingerprint: str, task_vectors: list[TaskVector], op: str
) -> dict[str, NamedTensorMap]:
    if not task_vectors:
        raise EmptyInputError(f"{op}: need at least one task vector")
    _check_bases(op, base_fingerprint, *task_vectors)
    vectors = {f"task vector {i} {v.label!r}": v.deltas for i, v in enumerate(task_vectors, 1)}
    return {"base": base_shared, **vectors}


def iter_weight_average_merge(
    base_shared: NamedTensorMap,
    base_fingerprint: str,
    task_vectors: list[TaskVector],
    threads: int = 1,
) -> Iterator[tuple[str, np.ndarray]]:
    """Base plus the uniform mean of the task vectors, as a lazy ``(name,
    merged_layer)`` stream in base order, in the base's dtypes and shapes."""
    maps = _vector_stack(base_shared, base_fingerprint, task_vectors, "weight_average_merge")
    scale = 1.0 / len(task_vectors)

    def merge_one(name: str, base_l: np.ndarray, *deltas: np.ndarray) -> np.ndarray:
        total = np.zeros(base_l.shape, dtype=np.float64)
        for delta in deltas:
            total += delta
        return combine(((1.0, base_l), (scale, total)), base_l.dtype)

    return map_layers("weight_average_merge", merge_one, maps, threads)


def iter_magmax_merge(
    base_shared: NamedTensorMap,
    base_fingerprint: str,
    task_vectors: list[TaskVector],
    threads: int = 1,
) -> Iterator[tuple[str, np.ndarray]]:
    """Base plus, per element, the largest-magnitude delta across vectors, as
    a lazy ``(name, merged_layer)`` stream in base order, in the base's
    dtypes and shapes.

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

    return map_layers("magmax_merge", merge_one, maps, threads)
