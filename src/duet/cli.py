"""Command-line surface for batch merging, losses, diagnostics, and metrics.

Exit codes: 0 success, 1 validation/protocol error, 2 I/O or parse error.
With the default ``--format json`` failures also emit a machine-readable
error object on stderr.  All subcommands are deterministic: reruns and any
``--threads`` setting produce byte-identical outputs.

The file commands open their checkpoints and bundles as readers and walk
them a layer at a time; a command that writes a checkpoint streams each
output layer into the header-first writer as it is made.  None holds a whole
model: each runs in the size of its largest layers (``sequence`` keeps its
driver's bound).  The merge and diagnose reports are written as their
encoders yield text pieces, about 1 MiB per write, so none is held whole.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings
from contextlib import ExitStack
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator

from .checkpoint import (
    CheckpointReader,
    load_partition_spec,
    partition_checkpoint,
    wait_for_io,
    write_atomically,
    write_checkpoint,
)
from .diagnostics import (
    _PIECE_RECORDS,
    SignConflictReport,
    _json_fields,
    merge_distance,
    sign_conflicts,
)
from .errors import CheckpointFormatError, ConfigError, DTypeError, DuetError
from .losses import (
    DcLossConfig,
    dc_loss,
    distill_loss,
    load_prediction_batch,
    update_sign_conflicts,
)
# duet_merge is not called here: the commands use the stream forms.  It stays
# importable as duet.cli.duet_merge, which perfbench's tracer wraps by name.
from .merge import (
    MergeConfig,
    duet_merge,
    iter_duet_merge,
    iter_head_concat,
    iter_incremental_sequence,
    iter_magmax_merge,
    iter_weight_average_merge,
)
from .metrics import compute_metrics, load_protocol, load_records
from .tensors import _Subset, layout_of, map_layers
from .task_vectors import (
    TaskVector,
    _check_bases,
    compute_task_vector,
    open_task_vector,
    save_task_vector,
    zero_task_vector,
)

_IO_ERRORS = (CheckpointFormatError, OSError)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1 (2 is reserved for I/O)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {raw!r}")
    return value


def _parent_parsers() -> tuple[argparse.ArgumentParser, ...]:
    """Shared flags: ``--threads`` and ``--format`` go on every subcommand,
    ``-o`` and ``--dtype-check`` only on the subcommands that act on them."""
    common = _Parser(add_help=False)
    common.add_argument(
        "--threads",
        type=positive_int,
        default=1,
        help="worker threads for merge and sequence (default 1); the other commands "
        "run on one thread",
    )
    common.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="format of the reports of merge duet --report, diagnose and metrics -o, and "
        "of errors (default json); sequence reports are always JSON",
    )
    output = _Parser(add_help=False)
    output.add_argument("-o", "--output", help="output file or directory")
    dtype_check = _Parser(add_help=False)
    dtype_check.add_argument(
        "--dtype-check",
        action="store_true",
        help="require a single uniform element type across all input tensors",
    )
    return common, output, dtype_check


def build_parser() -> _Parser:
    parser = _Parser(prog="duet", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--self-test", action="store_true", help="run the offline fixture self-test and exit"
    )
    common, output, dtype_check = _parent_parsers()
    with_output = [common, output]
    with_dtype_check = [common, output, dtype_check]
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser(
        "task-vector", parents=with_dtype_check, help="compute a shared-partition task vector"
    )
    p.add_argument("base", help="pretrained base checkpoint")
    p.add_argument("fine_tuned", help="fine-tuned checkpoint")
    p.add_argument("--partition", required=True, help="partition manifest JSON")
    p.add_argument("--label", default="", help="free-form task tag")

    merge = sub.add_parser("merge", parents=[], help="merge task vectors onto a base checkpoint")
    merge_sub = merge.add_subparsers(dest="algorithm", parser_class=_Parser)

    p = merge_sub.add_parser(
        "duet", parents=with_dtype_check, help="layer-wise retention/adaptation merge"
    )
    p.add_argument("base", help="pretrained base checkpoint")
    p.add_argument("--old", required=True, help="old task vector bundle")
    p.add_argument("--curr", required=True, help="current task vector bundle")
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--alpha-base", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=1e-8)
    p.add_argument("--report", help="write the per-layer merge report here")

    for name, help_text in (
        ("average", "uniform mean of task vectors added to base"),
        ("magmax", "elementwise largest-magnitude delta added to base"),
    ):
        p = merge_sub.add_parser(name, parents=with_dtype_check, help=help_text)
        p.add_argument("base", help="pretrained base checkpoint")
        p.add_argument("--tv", action="append", required=True, help="task vector bundle (repeatable)")

    p = sub.add_parser(
        "head-concat", parents=with_dtype_check, help="concatenate task-specific heads"
    )
    p.add_argument("prev", help="previous incremental checkpoint")
    p.add_argument("curr", help="current fine-tuned checkpoint")
    p.add_argument("--partition", required=True)
    p.add_argument("--head-order", choices=("curr-first", "prev-first"), default="curr-first")

    p = sub.add_parser("sequence", parents=with_output, help="run the full incremental sequence")
    p.add_argument("base", help="pretrained base checkpoint")
    p.add_argument("fine_tuned", nargs="+", help="fine-tuned checkpoints, in task order")
    p.add_argument("--partition", required=True)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--alpha-base", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=1e-8)
    p.add_argument("--head-order", choices=("curr-first", "prev-first"), default="curr-first")

    p = sub.add_parser("dc-loss", parents=[common], help="directional-consistency loss")
    p.add_argument("--t", dest="tau_t", required=True, help="current task vector bundle")
    p.add_argument("--prev", required=True, help="previous task vector bundle")
    p.add_argument("--prev2", help="task vector two steps back (default: zero vector)")
    p.add_argument("--granularity", choices=("tensor", "element"), default="tensor")
    p.add_argument(
        "--grad-check",
        action="store_true",
        help="compare the analytic gradient against central finite differences",
    )

    p = sub.add_parser("distill", parents=[common], help="masked distillation losses")
    p.add_argument("--curr", required=True, help="current predictions (.json or container)")
    p.add_argument("--old", required=True, help="previous-model predictions")

    diagnose = sub.add_parser("diagnose", parents=[], help="merge diagnostics")
    diagnose_sub = diagnose.add_subparsers(dest="probe", parser_class=_Parser)

    p = diagnose_sub.add_parser("signs", parents=with_output, help="sign-conflict statistics")
    p.add_argument("--old", required=True, help="old task vector bundle")
    p.add_argument("--curr", required=True, help="current task vector bundle")
    p.add_argument(
        "--preset",
        choices=("vectors", "updates"),
        default="vectors",
        help="compare the vectors themselves or the successive update deltas",
    )
    p.add_argument("--prev2", help="task vector two steps back (updates preset; default zero)")

    p = diagnose_sub.add_parser(
        "distance", parents=with_output, help="L2/cosine to old and current"
    )
    p.add_argument("--merged", required=True, help="merged checkpoint")
    p.add_argument("--old", required=True, help="old checkpoint")
    p.add_argument("--curr", required=True, help="current checkpoint")
    p.add_argument("--partition", help="restrict the comparison to the shared partition")

    p = sub.add_parser("metrics", parents=with_output, help="retention/generalization metrics")
    p.add_argument("--protocol", required=True, help="protocol manifest JSON")
    p.add_argument("--records", required=True, help="mAP records (.jsonl or .csv)")

    return parser


def _print_json(payload: dict):
    print(json.dumps(payload, indent=2))


def _write_text(path: str | Path, text: str):
    write_atomically(path, [text.encode("utf-8")])


# Bytes of report text gathered into each write of :func:`_write_pieces`.
_WRITE_BYTES = 1 << 20


def _write_pieces(path: str | Path, pieces: Iterable[str]):
    """Write the text ``pieces`` to ``path`` atomically as they come, joined
    into writes of about ``_WRITE_BYTES``: a report is never held whole."""
    write_atomically(path, _joined(pieces))


def _joined(pieces: Iterable[str]) -> Iterator[bytearray]:
    buffer = bytearray()
    for piece in pieces:
        buffer += piece.encode("utf-8")
        if len(buffer) >= _WRITE_BYTES:
            yield buffer
            buffer = bytearray()  # the one yielded may still be waiting to be written
    yield buffer


def _csv_pieces(rows: Iterable) -> Iterator[str]:
    """The CSV text of ``rows``, ``_PIECE_RECORDS`` rows per piece.  A
    character UTF-8 cannot carry (a lone surrogate, which a ``\\ud800`` escape
    in a header's JSON makes) is written as its backslash escape, as the JSON
    report writes it, so a layer name never stops the report midway."""
    rows = iter(rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for part in iter(lambda: list(islice(rows, _PIECE_RECORDS)), []):
        writer.writerows(part)
        yield buffer.getvalue().encode("utf-8", "backslashreplace").decode("utf-8")
        buffer.seek(0)
        buffer.truncate()


def _enforce_uniform_dtype(args, *tensor_maps):
    """``--dtype-check``, from the maps' layouts: a reader's header alone."""
    if not args.dtype_check:
        return
    dtypes = set()
    for tensor_map in tensor_maps:
        for spec in layout_of(tensor_map).values():
            dtypes.add(str(spec.dtype))
    if len(dtypes) > 1:
        raise DTypeError(f"--dtype-check: inputs mix element types {sorted(dtypes)}")


def _require_output(args, what: str = "--output"):
    if not args.output:
        raise DuetError(f"{what} is required for this subcommand")


def _open_readers(stack: ExitStack, *paths) -> list[CheckpointReader]:
    return [stack.enter_context(CheckpointReader(path)) for path in paths]


def _open_tv_maybe_zero(
    path: str | None, like: TaskVector, label: str, stack: ExitStack
) -> TaskVector:
    if path is None:
        return zero_task_vector(like.deltas, like.base_fingerprint, label)
    return open_task_vector(path, stack)


def _cmd_task_vector(args) -> int:
    spec = load_partition_spec(args.partition)
    _require_output(args)
    with ExitStack() as stack:
        base, fine = _open_readers(stack, args.base, args.fine_tuned)
        _enforce_uniform_dtype(args, base, fine)
        base_shared, _ = partition_checkpoint(base, spec)
        fine_shared, _ = partition_checkpoint(fine, spec)
        vector = compute_task_vector(fine_shared, base_shared, base.fingerprint(), args.label)
        save_task_vector(vector, args.output)
    _print_json(
        {
            "output": str(args.output),
            "label": args.label,
            "tensors": len(vector.deltas),
            "base_fingerprint": vector.base_fingerprint,
        }
    )
    return 0


def _base_shared_for(base: CheckpointReader, vector: TaskVector) -> _Subset:
    return _Subset(base, [name for name in base if name in vector.deltas])


def _cmd_merge(args) -> int:
    if not getattr(args, "algorithm", None):
        raise DuetError("merge needs an algorithm: duet, average, or magmax")
    _require_output(args)
    with ExitStack() as stack:
        [base] = _open_readers(stack, args.base)
        merge = _merge_duet if args.algorithm == "duet" else _merge_baseline
        _print_json(merge(args, base, stack))
    return 0


def _merge_duet(args, base: CheckpointReader, stack: ExitStack) -> dict:
    """``merge duet`` onto the open ``base``, streamed into the output; the summary."""
    config = MergeConfig(gamma=args.gamma, alpha_base=args.alpha_base, epsilon=args.epsilon)
    tau_old = open_task_vector(args.old, stack)
    tau_curr = open_task_vector(args.curr, stack)
    _enforce_uniform_dtype(args, base, tau_old.deltas, tau_curr.deltas)
    base_shared = _base_shared_for(base, tau_old)
    report, layers = iter_duet_merge(
        base_shared, base.fingerprint(), tau_old, tau_curr, config, threads=args.threads
    )
    write_checkpoint(base_shared.layout, args.output, layers)
    if args.report:
        if args.format == "csv":
            _write_pieces(args.report, _csv_pieces(report.csv_rows()))
        else:
            _write_pieces(args.report, chain(report.json_pieces(), ["\n"]))
    alphas = [record.alpha for record in report.layers]
    return {
        "output": str(args.output),
        "report": str(args.report) if args.report else None,
        "layers": len(report.layers),
        "alpha_min": min(alphas),
        "alpha_max": max(alphas),
        "sign_conflict_fraction": report.sign_conflicts.total_fraction,
        "warnings": report.warnings,
    }


def _merge_baseline(args, base: CheckpointReader, stack: ExitStack) -> dict:
    """``merge average`` or ``merge magmax`` onto the open ``base``, streamed
    into the output; the summary."""
    vectors = [open_task_vector(path, stack) for path in args.tv]
    _enforce_uniform_dtype(args, base, *[vector.deltas for vector in vectors])
    base_shared = _base_shared_for(base, vectors[0])
    merge = iter_weight_average_merge if args.algorithm == "average" else iter_magmax_merge
    layers = merge(base_shared, base.fingerprint(), vectors, threads=args.threads)
    write_checkpoint(base_shared.layout, args.output, layers)
    return {"output": str(args.output), "algorithm": args.algorithm, "vectors": len(vectors)}


def _cmd_head_concat(args) -> int:
    spec = load_partition_spec(args.partition)
    _require_output(args)
    with ExitStack() as stack:
        prev, curr = _open_readers(stack, args.prev, args.curr)
        _enforce_uniform_dtype(args, prev, curr)
        _, prev_head = partition_checkpoint(prev, spec)
        _, curr_head = partition_checkpoint(curr, spec)
        replace = {name for name in curr_head if spec.is_replace(name)}
        layout, layers = iter_head_concat(
            prev_head, curr_head, spec.head_concat_axis, order=args.head_order,
            replace_names=replace,
        )
        write_checkpoint(layout, args.output, layers)
    _print_json(
        {
            "output": str(args.output),
            "tensors": len(layout),
            "head_order": args.head_order,
            "axis": spec.head_concat_axis,
        }
    )
    return 0


def _cmd_sequence(args) -> int:
    spec = load_partition_spec(args.partition)
    _require_output(args)
    config = MergeConfig(gamma=args.gamma, alpha_base=args.alpha_base, epsilon=args.epsilon)
    out_dir = Path(args.output)
    # Files of later tasks, left by a longer run, would pass for this run's.
    tasks = len(args.fine_tuned)
    numbers = {path.name: path.name.split(".")[0][4:] for path in out_dir.glob("task*.*")}
    stale = sorted(name for name, number in numbers.items() if number.isdecimal() and int(number) > tasks)
    if stale:
        raise DuetError(f"{out_dir} holds files of tasks beyond this run's {tasks}: {', '.join(stale)}")
    summaries = []
    for step in iter_incremental_sequence(
        args.base, args.fine_tuned, spec, config, head_order=args.head_order, threads=args.threads
    ):
        # Made once a step is ready: a run refused before task 1 leaves nothing.
        out_dir.mkdir(parents=True, exist_ok=True)
        ckpt_path = out_dir / f"task{step.task_index:02d}.safetensors"
        write_checkpoint(step.layout, ckpt_path, step.layers)
        entry = {"task": step.task_index, "checkpoint": str(ckpt_path)}
        if step.report is not None:
            report_path = out_dir / f"task{step.task_index:02d}.report.json"
            _write_pieces(report_path, chain(step.report.json_pieces(), ["\n"]))
            entry["report"] = str(report_path)
            entry["warnings"] = step.report.warnings
        summaries.append(entry)
        # Held across the next step, the step would keep what the driver
        # drops: its report, and task 1's layout is that whole checkpoint.
        del step
    _print_json({"output": str(out_dir), "tasks": summaries})
    return 0


def _cmd_dc_loss(args) -> int:
    config = DcLossConfig(granularity=args.granularity)
    with ExitStack() as stack:
        tau_t = open_task_vector(args.tau_t, stack)
        tau_prev = open_task_vector(args.prev, stack)
        tau_prev2 = _open_tv_maybe_zero(args.prev2, tau_prev, "zero", stack)
        loss = dc_loss(tau_t, tau_prev, tau_prev2, config)
        payload = {"loss": loss, "granularity": args.granularity}
        if args.grad_check:
            from .selftest import central_difference_check

            check = central_difference_check(tau_t, tau_prev, tau_prev2, config)
            payload["grad_check"] = {
                "max_rel_error": check.max_rel_error,
                "near_hinge_skipped": check.near_hinge_skipped,
                "passed": check.passed,
            }
    _print_json(payload)
    return 0


def _cmd_distill(args) -> int:
    curr = load_prediction_batch(args.curr)
    old = load_prediction_batch(args.old)
    result = distill_loss(curr, old)
    _print_json(result.to_dict())
    return 0


def _emit_report(args, json_pieces: Iterable[str], csv_rows: Iterable):
    """A diagnose report, its JSON text pieces or its CSV rows as ``--format``
    says, written to ``-o`` or to stdout as they come."""
    if args.format == "csv":
        pieces = _csv_pieces(csv_rows)
    else:
        pieces = chain(json_pieces, ["\n"])
    if args.output:
        _write_pieces(args.output, pieces)
    else:
        sys.stdout.writelines(pieces)


def _cmd_diagnose(args) -> int:
    if not getattr(args, "probe", None):
        raise DuetError("diagnose needs a probe: signs or distance")
    if args.probe == "signs":
        if args.prev2 is not None and args.preset != "updates":
            raise ConfigError(f"--prev2 applies only with --preset updates, not {args.preset!r}")
        with ExitStack() as stack:
            # One tensor at a time: no vector, and no float64 update map, is held whole.
            tau_old = open_task_vector(args.old, stack)
            tau_curr = open_task_vector(args.curr, stack)
            _check_bases("diagnose signs", tau_old.base_fingerprint, tau_curr)
            if args.preset == "updates":
                tau_prev2 = _open_tv_maybe_zero(args.prev2, tau_old, "zero", stack)
                _check_bases("diagnose signs", tau_old.base_fingerprint, tau_prev2)
                count = lambda name, *layers: update_sign_conflicts(*layers)
                maps = {"curr": tau_curr.deltas, "old": tau_old.deltas, "prev2": tau_prev2.deltas}
                report = SignConflictReport(dict(map_layers("sign_conflicts", count, maps)))
            else:
                report = sign_conflicts(tau_old, tau_curr)
        # The merge report's sign section, one level up, with the preset first.
        pieces = _json_fields([("preset", args.preset), *report.json_fields(0)], 0)
        rows = chain(
            [["tensor", "conflicts", "comparable", "fraction"]],
            ([name, entry.conflicts, entry.comparable, entry.fraction]
             for name, entry in report.per_tensor.items()),
            [["TOTAL", report.total_conflicts, report.total_comparable, report.total_fraction]],
        )
        _emit_report(args, pieces, rows)
        return 0
    with ExitStack() as stack:
        # Walked a layer at a time: no input is loaded whole.
        maps = _open_readers(stack, args.merged, args.old, args.curr)
        if args.partition:
            spec = load_partition_spec(args.partition)
            maps = [partition_checkpoint(reader, spec)[0] for reader in maps]
        report = merge_distance(*maps)
    pieces = [json.dumps(report.to_dict(), indent=2)]
    rows = [
        ["metric", "value"],
        ["l2_to_old", report.l2_to_old],
        ["l2_to_curr", report.l2_to_curr],
        ["cos_to_old", report.cos_to_old],
        ["cos_to_curr", report.cos_to_curr],
    ]
    _emit_report(args, pieces, rows)
    return 0


def _cmd_metrics(args) -> int:
    protocol = load_protocol(args.protocol)
    records = load_records(args.records)
    report = compute_metrics(protocol, records)
    print(report.table())
    if args.output:
        if args.format == "csv":
            _write_pieces(args.output, _csv_pieces(report.csv_rows()))
        else:
            _write_text(args.output, report.to_json() + "\n")
    return 0


_HANDLERS = {
    "task-vector": _cmd_task_vector,
    "merge": _cmd_merge,
    "head-concat": _cmd_head_concat,
    "sequence": _cmd_sequence,
    "dc-loss": _cmd_dc_loss,
    "distill": _cmd_distill,
    "diagnose": _cmd_diagnose,
    "metrics": _cmd_metrics,
}


def _emit_error(args, exc: Exception):
    fmt = getattr(args, "format", "json") if args is not None else "json"
    if fmt == "json":
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.self_test:
        from . import selftest

        return selftest.run()
    if not args.command:
        parser.print_usage(sys.stderr)
        print("duet: error: a subcommand is required (or --self-test)", file=sys.stderr)
        return 1
    handler = _HANDLERS[args.command]
    try:
        # An overflow yields inf, which every writer refuses with an error that
        # names the tensor; numpy's warning would only print ahead of it.  Here,
        # not per call in the kernels, so the hot loops pay nothing for it.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "overflow encountered", RuntimeWarning)
            return handler(args)
    except _IO_ERRORS as exc:
        _emit_error(args, exc)
        return 2
    except (DuetError, ValueError) as exc:
        _emit_error(args, exc)
        return 1
    finally:
        # A stream left unread by an error may still have digests on the I/O thread.
        wait_for_io()


if __name__ == "__main__":
    sys.exit(main())
