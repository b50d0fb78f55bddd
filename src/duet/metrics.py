"""Retention / generalization / RAI metrics over mAP evaluation records.

All percentages are carried at full float64 precision; the two-decimal
formatting happens only when the human-readable table is rendered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .checkpoint import read_csv_rows, read_json, read_json_lines
from .errors import ConfigError, DegenerateBaselineError, ProtocolError

RECORD_KINDS = ("new", "old", "unseen", "ref")


@dataclass(frozen=True)
class TaskPhase:
    task_id: int
    domain: str
    class_range: tuple[int, int]


@dataclass(frozen=True)
class UnseenPair:
    domain: str
    task_id: int
    class_range: tuple[int, int]


@dataclass(frozen=True)
class EvalProtocol:
    """Ordered task sequence plus the unseen (domain, task, class-range)
    pairs scored for generalization."""

    tasks: tuple[TaskPhase, ...]
    unseen_pairs: tuple[UnseenPair, ...] = ()


@dataclass(frozen=True)
class EvalRecord:
    """One mAP@0.5 measurement (percentage in [0, 100])."""

    kind: str
    domain: str
    class_range: tuple[int, int]
    map50: float
    measured_at_task: int | None = None

    def __post_init__(self):
        if self.kind not in RECORD_KINDS:
            raise ValueError(f"record kind must be one of {RECORD_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.map50 <= 100.0:
            raise ValueError(f"map50 must be within [0, 100], got {self.map50}")
        if self.kind == "ref":
            if self.measured_at_task is not None:
                raise ValueError("ref records carry no measured_at_task")
        elif self.measured_at_task is None:
            raise ValueError(f"{self.kind} records need measured_at_task")


def _parse_range(raw, context: str) -> tuple[int, int]:
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or any(not isinstance(v, int) or isinstance(v, bool) for v in raw)
    ):
        raise ProtocolError(f"{context}: class range must be [lo, hi] integers, got {raw!r}")
    lo, hi = raw
    if lo > hi:
        raise ProtocolError(f"{context}: class range [{lo}, {hi}] is inverted")
    return (lo, hi)


def _phase_fields(entry, context: str) -> dict:
    fields = entry if isinstance(entry, dict) else {}
    task_id, domain = fields.get("task_id"), fields.get("domain")
    if type(task_id) is not int or not isinstance(domain, str) or "classes" not in fields:
        raise ProtocolError(
            f"{context} is malformed: expected an object with an integer 'task_id', "
            "a string 'domain' and 'classes'"
        )
    return {"task_id": task_id, "domain": domain, "class_range": _parse_range(fields["classes"], context)}


def load_protocol(path: str | Path) -> EvalProtocol:
    payload = read_json(path, "protocol JSON")
    fields = payload if isinstance(payload, dict) else {}
    tasks, pairs = fields.get("tasks"), fields.get("unseen_pairs", [])
    if not isinstance(tasks, list) or not isinstance(pairs, list):
        raise ProtocolError(
            f"{path}: protocol JSON must be an object with a 'tasks' list "
            "and an optional 'unseen_pairs' list"
        )
    tasks = [TaskPhase(**_phase_fields(entry, f"{path}: task {i}")) for i, entry in enumerate(tasks, 1)]
    pairs = [UnseenPair(**_phase_fields(entry, f"{path}: unseen pair {i}")) for i, entry in enumerate(pairs, 1)]
    return EvalProtocol(tasks=tuple(tasks), unseen_pairs=tuple(pairs))


def _record_from_dict(payload, context: str) -> EvalRecord:
    fields = payload if isinstance(payload, dict) else {}
    kind, domain, map50, task = (fields.get(k) for k in ("kind", "domain", "map50", "task_id"))
    typed = isinstance(kind, str) and isinstance(domain, str) and type(map50) in (int, float)
    if not typed or type(task) not in (int, type(None)) or "classes" not in fields:
        raise ProtocolError(
            f"{context}: malformed record: expected an object with a string 'kind' and "
            "'domain', 'classes', a number 'map50' and an optional integer 'task_id'"
        )
    try:
        return EvalRecord(kind, domain, _parse_range(fields["classes"], context), float(map50), task)
    except (ValueError, OverflowError) as exc:
        raise ProtocolError(f"{context}: malformed record: {exc}") from exc


def load_records(path: str | Path) -> list[EvalRecord]:
    """Load records from JSON-lines or CSV (columns kind, domain, class_lo,
    class_hi, task_id, map50)."""
    path = Path(path)
    if path.suffix.lower() != ".csv":
        return [_record_from_dict(payload, where) for where, payload in read_json_lines(path, "records JSON")]
    records: list[EvalRecord] = []
    for where, row in read_csv_rows(path, "records CSV"):
        try:
            payload = {
                "kind": row["kind"],
                "domain": row["domain"],
                "classes": [int(row["class_lo"]), int(row["class_hi"])],
                "map50": float(row["map50"]),
                "task_id": int(row["task_id"]) if row.get("task_id") else None,
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"{where}: malformed CSV record: {exc}") from exc
        records.append(_record_from_dict(payload, where))
    return records


def validate_protocol(protocol: EvalProtocol) -> list[str]:
    """Return violations (empty when the protocol is consistent)."""
    violations: list[str] = []
    seen_ids: dict[int, TaskPhase] = {}
    for task in protocol.tasks:
        if task.task_id in seen_ids:
            violations.append(f"duplicate task_id {task.task_id}")
        seen_ids[task.task_id] = task
    for i, first in enumerate(protocol.tasks):
        for second in protocol.tasks[i + 1 :]:
            lo1, hi1 = first.class_range
            lo2, hi2 = second.class_range
            if lo1 <= hi2 and lo2 <= hi1:
                violations.append(
                    f"tasks {first.task_id} and {second.task_id} have overlapping class "
                    f"ranges [{lo1}, {hi1}] and [{lo2}, {hi2}]"
                )
            if first.domain == second.domain:
                violations.append(
                    f"tasks {first.task_id} and {second.task_id} repeat domain {first.domain!r}"
                )
    domains = {task.domain for task in protocol.tasks}
    task_ids = {task.task_id for task in protocol.tasks}
    for pair in protocol.unseen_pairs:
        if pair.domain not in domains:
            violations.append(f"unseen pair references undeclared domain {pair.domain!r}")
        if pair.task_id not in task_ids:
            violations.append(f"unseen pair references undeclared task {pair.task_id}")
    return violations


def retention_index(map_old_final: float, map_new_initial: float) -> float:
    """Final-task mAP on old classes as a percentage of their first-learned mAP."""
    if map_new_initial <= 0.0:
        raise DegenerateBaselineError(
            f"retention index needs a positive first-learned mAP, got {map_new_initial}"
        )
    return 100.0 * map_old_final / map_new_initial


def generalization_index(map_unseen: float, map_ref: float) -> float:
    """Unseen-pair mAP as a percentage of the single-task reference mAP."""
    if map_ref <= 0.0:
        raise DegenerateBaselineError(
            f"generalization index needs a positive reference mAP, got {map_ref}"
        )
    return 100.0 * map_unseen / map_ref


def rai(avg_ri: float, avg_gi: float) -> float:
    """Mean of the average retention and generalization indices."""
    if avg_ri < 0.0 or avg_gi < 0.0:
        raise ConfigError("rai inputs must be non-negative")
    return (avg_ri + avg_gi) / 2.0


def _pick_unique(
    records: list[EvalRecord],
    kind: str,
    domain: str,
    class_range: tuple[int, int],
    measured_at_task: int | None,
) -> EvalRecord:
    matches = [
        record
        for record in records
        if record.kind == kind
        and record.domain == domain
        and record.class_range == class_range
        and record.measured_at_task == measured_at_task
    ]
    slot = f"(domain={domain!r}, kind={kind!r}, classes={list(class_range)}, task={measured_at_task})"
    if not matches:
        raise ProtocolError(f"missing record for slot {slot}")
    if len(matches) > 1:
        raise ProtocolError(f"duplicate records ({len(matches)}) for slot {slot}")
    return matches[0]


@dataclass
class DomainRetention:
    domain: str
    class_range: tuple[int, int]
    map_old_final: float
    map_new_initial: float
    ri: float

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "classes": list(self.class_range),
            "map_old_final": self.map_old_final,
            "map_new_initial": self.map_new_initial,
            "ri": self.ri,
        }


@dataclass
class PairGeneralization:
    domain: str
    task_id: int
    class_range: tuple[int, int]
    map_unseen: float
    map_ref: float
    gi: float

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "task_id": self.task_id,
            "classes": list(self.class_range),
            "map_unseen": self.map_unseen,
            "map_ref": self.map_ref,
            "gi": self.gi,
        }


@dataclass
class MetricsReport:
    retention: list[DomainRetention] = field(default_factory=list)
    generalization: list[PairGeneralization] = field(default_factory=list)
    avg_ri: float = 0.0
    avg_gi: float = 0.0
    rai: float = 0.0

    def to_dict(self) -> dict:
        return {
            "retention": [entry.to_dict() for entry in self.retention],
            "generalization": [entry.to_dict() for entry in self.generalization],
            "avg_ri": self.avg_ri,
            "avg_gi": self.avg_gi,
            "rai": self.rai,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def table(self) -> str:
        lines = []
        lines.append(f"{'Retention':<42}{'RI (%)':>10}")
        for entry in self.retention:
            label = f"{entry.domain} {list(entry.class_range)}"
            lines.append(f"  {label:<40}{entry.ri:>10.2f}")
        lines.append(f"{'Generalization':<42}{'GI (%)':>10}")
        for entry in self.generalization:
            label = f"{entry.domain} {list(entry.class_range)} @ task {entry.task_id}"
            lines.append(f"  {label:<40}{entry.gi:>10.2f}")
        lines.append("-" * 52)
        lines.append(f"{'Avg RI (%)':<42}{self.avg_ri:>10.2f}")
        lines.append(f"{'Avg GI (%)':<42}{self.avg_gi:>10.2f}")
        lines.append(f"{'RAI (%)':<42}{self.rai:>10.2f}")
        return "\n".join(lines)

    def csv_rows(self) -> list[list]:
        rows = [["section", "domain", "class_lo", "class_hi", "task_id", "value"]]
        for entry in self.retention:
            rows.append(["ri", entry.domain, entry.class_range[0], entry.class_range[1], "", entry.ri])
        for entry in self.generalization:
            rows.append(
                ["gi", entry.domain, entry.class_range[0], entry.class_range[1], entry.task_id, entry.gi]
            )
        rows.append(["avg_ri", "", "", "", "", self.avg_ri])
        rows.append(["avg_gi", "", "", "", "", self.avg_gi])
        rows.append(["rai", "", "", "", "", self.rai])
        return rows


def _check_protocol(protocol: EvalProtocol) -> None:
    violations = validate_protocol(protocol)
    if violations:
        raise ProtocolError("invalid protocol: " + "; ".join(violations))
    if len(protocol.tasks) < 2:
        raise ProtocolError("metrics need at least two tasks (one incremental step)")


def _retention(protocol: EvalProtocol, records: list[EvalRecord]) -> list[DomainRetention]:
    final_task = protocol.tasks[-1].task_id
    retention = []
    for task in protocol.tasks[:-1]:
        new_rec = _pick_unique(records, "new", task.domain, task.class_range, task.task_id)
        old_rec = _pick_unique(records, "old", task.domain, task.class_range, final_task)
        ri = retention_index(old_rec.map50, new_rec.map50)
        retention.append(
            DomainRetention(
                domain=task.domain,
                class_range=task.class_range,
                map_old_final=old_rec.map50,
                map_new_initial=new_rec.map50,
                ri=ri,
            )
        )
    return retention


def _generalization(protocol: EvalProtocol, records: list[EvalRecord]) -> list[PairGeneralization]:
    generalization = []
    for pair in protocol.unseen_pairs:
        unseen_rec = _pick_unique(records, "unseen", pair.domain, pair.class_range, pair.task_id)
        ref_rec = _pick_unique(records, "ref", pair.domain, pair.class_range, None)
        gi = generalization_index(unseen_rec.map50, ref_rec.map50)
        generalization.append(
            PairGeneralization(
                domain=pair.domain,
                task_id=pair.task_id,
                class_range=pair.class_range,
                map_unseen=unseen_rec.map50,
                map_ref=ref_rec.map50,
                gi=gi,
            )
        )
    return generalization


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def compute_metrics(protocol: EvalProtocol, records: list[EvalRecord]) -> MetricsReport:
    """Evaluate every retention and generalization slot of the protocol.

    Old-class mAPs are taken at the final task only; intermediate old
    measurements may be present in ``records`` but do not enter Avg RI.
    """
    _check_protocol(protocol)
    report = MetricsReport(
        retention=_retention(protocol, records),
        generalization=_generalization(protocol, records),
    )
    report.avg_ri = _mean([entry.ri for entry in report.retention])
    report.avg_gi = _mean([entry.gi for entry in report.generalization])
    report.rai = rai(report.avg_ri, report.avg_gi)
    return report
