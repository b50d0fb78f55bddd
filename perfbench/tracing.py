"""In-memory span recording around the public functions of each ``duet`` layer.

Spans are recorded from the benchmark's own code: :class:`Tracer` replaces
module attributes (and a few class methods) with timing wrappers while a
traced iteration runs, and restores the originals afterwards.  The program's
files are not touched.

A span is ``(id, parent, name, start, end, thread, nbytes)``.  Spans started
on a worker thread with no open span of their own take the innermost open
span of the tracing thread as parent, so thread-pool work nests under the
call that submitted it.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import weakref
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    nbytes: int


def self_times(spans: list[Span]) -> dict[int, float]:
    """Wall-clock self time of every span.

    At each instant the time goes to the open spans that have no open child,
    shared equally when several run at once on different threads.  Without
    concurrency this is a span's duration minus its children's; in every case
    the self times of a tree add up to the duration of its root.
    """
    events = []
    for span in spans:
        events.append((span.start, 1, span.id))
        events.append((span.end, 0, span.id))
    # Ends sort before starts at equal times, so touching spans never overlap.
    events.sort()
    parent_of = {span.id: span.parent for span in spans}
    open_children: dict[int, int] = defaultdict(int)
    is_open: set[int] = set()
    leaves: set[int] = set()
    out = {span.id: 0.0 for span in spans}
    last = events[0][0] if events else 0.0
    for when, is_start, span_id in events:
        if leaves and when > last:
            share = (when - last) / len(leaves)
            for leaf in leaves:
                out[leaf] += share
        last = when
        parent = parent_of[span_id]
        if is_start:
            is_open.add(span_id)
            leaves.add(span_id)
            if parent in is_open:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open.discard(span_id)
            leaves.discard(span_id)
            if parent in is_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return out


class Tracer:
    """Collects the spans of one traced iteration."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._file_bytes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._hashed: weakref.WeakSet = weakref.WeakSet()
        self.counters: dict[str, float] = defaultdict(float)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> tuple[int, int | None, float]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def end(self, token, name: str, nbytes: int = 0, stop: float | None = None):
        span_id, parent, start = token
        end = time.perf_counter() if stop is None else stop
        self._stack().pop()
        self.spans.append(Span(span_id, parent, name, start, end, threading.get_ident(), nbytes))

    def root(self):
        """Open the iteration's root span on the calling thread."""
        token = self.begin()
        self._root_stack = self._stack()
        return token

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, nbytes=None):
        tracer = self

        def wrapper(*args, **kwargs):
            token = tracer.begin()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(token, name)
                raise
            # Byte counts are taken after the span closes, outside its time.
            stop = time.perf_counter()
            tracer.end(token, name, nbytes(args, kwargs, result) if nbytes else 0, stop)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_fn(self, modules, attr: str, name: str, nbytes=None):
        for module in modules:
            if hasattr(module, attr):
                self._patch(module, attr, self._wrap(name, getattr(module, attr), nbytes))

    def install(self):
        """Wrap the layer entry points; :meth:`uninstall` undoes it."""
        import duet.checkpoint as checkpoint
        import duet.cli as cli
        import duet.merge as merge
        import duet.task_vectors as task_vectors

        tracer = self
        reader = checkpoint.CheckpointReader

        orig_init = reader.__init__

        def reader_init(self_, source, *args, **kwargs):
            token = tracer.begin()
            try:
                orig_init(self_, source, *args, **kwargs)
            finally:
                tracer.end(token, "checkpoint.open")
            if isinstance(source, (str, os.PathLike)):
                tracer._file_bytes[self_] = os.path.getsize(source)

        self._patch(reader, "__init__", reader_init)
        self._patch(reader, "load", self._wrap("checkpoint.load", reader.load,
                                               lambda a, k, r: r.nbytes))
        orig_fingerprint = reader.fingerprint

        def reader_fingerprint(self_):
            # Only the first call on a reader hashes the file; later ones are cached.
            token = tracer.begin()
            try:
                return orig_fingerprint(self_)
            finally:
                first = self_ not in tracer._hashed
                tracer._hashed.add(self_)
                tracer.end(token, "checkpoint.fingerprint",
                           tracer._file_bytes.get(self_, 0) if first else 0)

        self._patch(reader, "fingerprint", reader_fingerprint)

        def map_bytes(args, kwargs, result):
            return sum(arr.nbytes for arr in args[0].values())

        self._patch_fn((checkpoint, merge), "classify_names", "checkpoint.classify")
        self._patch_fn((checkpoint, merge), "fingerprint_map", "checkpoint.fingerprint_map", map_bytes)
        self._patch_fn((checkpoint, cli, task_vectors), "write_checkpoint", "checkpoint.write",
                       map_bytes)
        self._patch_fn((merge,), "l1_norm", "tensors.l1_norm", lambda a, k, r: a[0].nbytes)
        self._patch_fn((merge, cli), "sign_conflicts", "diagnostics.sign_conflicts")
        self._patch_fn((cli,), "merge_distance", "diagnostics.distance")
        self._patch_fn((cli,), "compute_task_vector", "task_vectors.compute")
        self._patch_fn((cli,), "save_task_vector", "task_vectors.save")
        self._patch_fn((cli,), "load_task_vector", "task_vectors.load")
        self._patch_fn((cli, merge), "incremental_head_concat", "merge.head_concat")
        self._patch_fn((cli,), "weight_average_merge", "merge.average")
        self._patch_fn((cli,), "magmax_merge", "merge.magmax")
        self._patch_fn((cli,), "dc_loss", "losses.dc_loss")
        self._patch_fn((cli,), "distill_loss", "losses.distill")
        self._patch_fn((cli,), "load_prediction_batch", "losses.load_predictions")
        self._patch_fn((cli,), "load_protocol", "metrics.load")
        self._patch_fn((cli,), "load_records", "metrics.load")
        self._patch_fn((cli,), "compute_metrics", "metrics.compute")
        self._patch(merge.MergeReport, "to_json",
                    self._wrap("cli.report_json", merge.MergeReport.to_json,
                               lambda a, k, r: len(r)))
        # Report files are the writes whose path names a report.
        self._patch(cli, "_write_text", self._wrap(
            "cli.write_text", cli._write_text,
            lambda a, k, r: len(a[1]) if "report" in os.path.basename(str(a[0])) else 0))

        orig_duet_merge = cli.duet_merge

        def duet_merge(*args, **kwargs):
            cpu = time.process_time()
            token = tracer.begin()
            try:
                merged, report = orig_duet_merge(*args, **kwargs)
            finally:
                tracer.end(token, "merge.duet_merge")
                tracer.counters["duet_merge_cpu_s"] += time.process_time() - cpu
            tracer.counters["merge_layers"] += len(report.layers)
            return merged, report

        self._patch(cli, "duet_merge", duet_merge)

        orig_sequence = cli.iter_incremental_sequence

        def iter_incremental_sequence(*args, **kwargs):
            steps = orig_sequence(*args, **kwargs)
            try:
                while True:
                    token = tracer.begin()
                    try:
                        step = next(steps)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(token, "merge.step")
                    if step.report is not None:
                        tracer.counters["merge_layers"] += len(step.report.layers)
                    yield step
            finally:
                steps.close()

        self._patch(cli, "iter_incremental_sequence", iter_incremental_sequence)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


_MERGE_ARITHMETIC = ("merge.step", "merge.duet_merge", "merge.average", "merge.magmax")
_CLI_WRAPPED = ("cli.report_json", "cli.write_text")


def layer_metrics(spans: list[Span], counters: dict, rchar: int, input_bytes: int) -> dict:
    """Per-layer metrics of one traced iteration (a tree rooted at one span).

    Times are seconds summed over the iteration's spans of that name; ``*_mb``
    are megabytes (1e6) moved; ``*.self_s`` are self times.
    """
    selfs = self_times(spans)
    dur: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    nbytes: dict[str, int] = defaultdict(int)
    report_write_s = 0.0
    for span in spans:
        elapsed = span.end - span.start
        dur[span.name] += elapsed
        own[span.name] += selfs[span.id]
        calls[span.name] += 1
        nbytes[span.name] += span.nbytes
        if span.name == "cli.write_text" and span.nbytes:
            report_write_s += elapsed
    roots = [span for span in spans if span.parent is None]
    load_b = nbytes["checkpoint.load"]
    write_b = nbytes["checkpoint.write"]
    hashed_b = nbytes["checkpoint.fingerprint"] + nbytes["checkpoint.fingerprint_map"] + write_b
    l1_s = dur["tensors.l1_norm"]
    out = {
        "checkpoint.open_s": dur["checkpoint.open"],
        "checkpoint.classify_s": dur["checkpoint.classify"],
        "checkpoint.load_s": dur["checkpoint.load"],
        "checkpoint.load_mb": load_b / 1e6,
        "checkpoint.fingerprint_s": dur["checkpoint.fingerprint"] + dur["checkpoint.fingerprint_map"],
        "checkpoint.hashed_mb": hashed_b / 1e6,
        "checkpoint.write_s": dur["checkpoint.write"],
        "checkpoint.write_mb": write_b / 1e6,
        "checkpoint.read_amplification": rchar / input_bytes,
        "checkpoint.hash_per_io": hashed_b / (load_b + write_b) if load_b + write_b else 0.0,
        "tensors.l1_norm_s": l1_s,
        "tensors.l1_norm_calls": calls["tensors.l1_norm"],
        "tensors.l1_norm_gbps": nbytes["tensors.l1_norm"] / l1_s / 1e9 if l1_s else 0.0,
        "task_vectors.compute_s": dur["task_vectors.compute"],
        "task_vectors.save_s": dur["task_vectors.save"],
        "task_vectors.load_s": dur["task_vectors.load"],
        "merge.step_s": dur["merge.step"],
        "merge.self_s": sum(own[name] for name in _MERGE_ARITHMETIC),
        "merge.layers": counters.get("merge_layers", 0),
        "merge.head_concat_s": dur["merge.head_concat"],
        "merge.duet_merge_s": dur["merge.duet_merge"],
        "merge.duet_merge_parallelism": (
            counters.get("duet_merge_cpu_s", 0.0) / dur["merge.duet_merge"]
            if dur["merge.duet_merge"] else 0.0
        ),
        "merge.average_s": dur["merge.average"],
        "merge.magmax_s": dur["merge.magmax"],
        "diagnostics.sign_conflicts_s": dur["diagnostics.sign_conflicts"],
        "diagnostics.sign_conflicts_calls": calls["diagnostics.sign_conflicts"],
        "diagnostics.distance_s": dur["diagnostics.distance"],
        "losses.dc_loss_s": dur["losses.dc_loss"],
        "losses.distill_s": dur["losses.distill"],
        "losses.load_predictions_s": dur["losses.load_predictions"],
        "metrics.load_s": dur["metrics.load"],
        "metrics.compute_s": dur["metrics.compute"],
        "cli.report_s": dur["cli.report_json"] + report_write_s,
        "cli.report_mb": nbytes["cli.write_text"] / 1e6,
        "cli.self_s": sum(
            own[name] for name in own if name.startswith("cli.") and name not in _CLI_WRAPPED
        ),
        "bench.self_s": sum(selfs[span.id] for span in roots),
        "trace.self_sum_s": sum(selfs.values()),
        "trace.wall_s": sum(span.end - span.start for span in roots),
    }
    for name in dur:
        if name.startswith("cli.") and name not in _CLI_WRAPPED:
            out[f"{name}_s"] = dur[name]
    return out
