from __future__ import annotations

import json

import numpy as np
import pytest

from duet.errors import DegenerateBaselineError, ProtocolError
from duet.fixtures import METRIC_METHODS, expected_metrics_path, protocol_path, records_path
from duet.metrics import (
    EvalProtocol,
    EvalRecord,
    TaskPhase,
    UnseenPair,
    compute_metrics,
    generalization_index,
    load_protocol,
    load_records,
    rai,
    retention_index,
    validate_protocol,
)


def two_phase_protocol() -> EvalProtocol:
    return EvalProtocol(
        tasks=(
            TaskPhase(1, "daytime_sunny", (1, 4)),
            TaskPhase(2, "night_sunny", (5, 7)),
        ),
        unseen_pairs=(
            UnseenPair("night_sunny", 2, (1, 4)),
            UnseenPair("daytime_sunny", 2, (5, 7)),
        ),
    )


def record(kind, domain, classes, map50, task=None) -> EvalRecord:
    return EvalRecord(
        kind=kind, domain=domain, class_range=tuple(classes), map50=map50, measured_at_task=task
    )


def avg_ri_of(protocol: EvalProtocol, records: list[EvalRecord]) -> float:
    """Avg RI of ``compute_metrics`` over the protocol's tasks alone."""
    tasks_only = EvalProtocol(tasks=protocol.tasks)
    return compute_metrics(tasks_only, records).avg_ri


def avg_gi_of(protocol: EvalProtocol, records: list[EvalRecord]) -> float:
    """Avg GI of ``compute_metrics``, with perfect retention records added
    for the protocol's retention slots."""
    final_task = protocol.tasks[-1].task_id
    retention = []
    for task in protocol.tasks[:-1]:
        retention.append(record("new", task.domain, task.class_range, 50.0, task=task.task_id))
        retention.append(record("old", task.domain, task.class_range, 50.0, task=final_task))
    report = compute_metrics(protocol, records + retention)
    assert report.avg_ri == 100.0
    return report.avg_gi


class TestRetentionIndex:
    def test_published_duet_ratio(self):
        assert retention_index(43.50, 49.40) == pytest.approx(88.06, abs=0.01)

    def test_published_lwf_ratio(self):
        assert retention_index(27.60, 49.40) == pytest.approx(55.87, abs=0.01)

    def test_total_forgetting(self):
        assert retention_index(0.00, 49.40) == 0.0

    def test_zero_denominator_rejected(self):
        with pytest.raises(DegenerateBaselineError):
            retention_index(10.0, 0.0)

    def test_scale_ratio_homogeneous(self, rng):
        for _ in range(20):
            old, new = rng.uniform(1, 90, size=2)
            c = float(rng.uniform(0.1, 1.0))
            a = retention_index(old, new)
            b = retention_index(c * old, c * new)
            assert abs(a - b) <= 1e-12 * a


class TestGeneralizationIndex:
    def test_matched_reference(self):
        assert generalization_index(27.46, 27.46) == 100.0

    def test_zero_unseen(self):
        assert generalization_index(0.0, 27.46) == 0.0

    def test_scalar_example(self):
        assert generalization_index(12.60, 27.46) == pytest.approx(45.88, abs=0.01)

    def test_zero_reference_rejected(self):
        with pytest.raises(DegenerateBaselineError):
            generalization_index(5.0, 0.0)

    def test_scale_ratio_homogeneous(self, rng):
        for _ in range(20):
            unseen, ref = rng.uniform(1, 90, size=2)
            c = float(rng.uniform(0.1, 1.0))
            a = generalization_index(unseen, ref)
            b = generalization_index(c * unseen, c * ref)
            assert abs(a - b) <= 1e-12 * a


class TestRai:
    def test_published_duet_row(self):
        assert rai(88.06, 56.95) == pytest.approx(72.51, abs=0.01)

    def test_published_erd_row(self):
        assert rai(66.80, 53.04) == pytest.approx(59.92, abs=0.01)

    def test_zero(self):
        assert rai(0.0, 0.0) == 0.0

    def test_monotone_in_both_arguments(self):
        assert rai(50.0, 50.0) < rai(60.0, 50.0) <= rai(60.0, 51.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rai(-1.0, 10.0)


class TestValidateProtocol:
    def test_bundled_manifest_is_clean(self):
        assert validate_protocol(load_protocol(protocol_path())) == []

    def test_overlapping_ranges_flagged(self):
        protocol = EvalProtocol(
            tasks=(TaskPhase(1, "a", (1, 10)), TaskPhase(2, "b", (10, 20)))
        )
        violations = validate_protocol(protocol)
        assert any("overlapping class ranges" in v for v in violations)
        assert any("1" in v and "2" in v for v in violations)

    def test_repeated_domain_flagged(self):
        protocol = EvalProtocol(
            tasks=(TaskPhase(1, "same", (1, 2)), TaskPhase(2, "same", (3, 4)))
        )
        assert any("repeat domain" in v for v in validate_protocol(protocol))

    def test_unseen_pair_must_reference_declared_domain(self):
        protocol = EvalProtocol(
            tasks=(TaskPhase(1, "a", (1, 2)), TaskPhase(2, "b", (3, 4))),
            unseen_pairs=(UnseenPair("ghost", 2, (1, 2)),),
        )
        assert any("undeclared domain" in v for v in validate_protocol(protocol))


def duet_records() -> list[EvalRecord]:
    return load_records(records_path("duet"))


class TestAvgRetention:
    def test_published_two_phase_row(self):
        report = compute_metrics(two_phase_protocol(), duet_records())
        assert report.avg_ri == pytest.approx(88.06, abs=0.02)

    def test_perfect_retention(self):
        records = [
            record("new", "daytime_sunny", (1, 4), 50.0, task=1),
            record("old", "daytime_sunny", (1, 4), 50.0, task=2),
        ]
        assert avg_ri_of(two_phase_protocol(), records) == 100.0

    def test_three_phase_mean(self):
        protocol = EvalProtocol(
            tasks=(
                TaskPhase(1, "a", (1, 2)),
                TaskPhase(2, "b", (3, 4)),
                TaskPhase(3, "c", (5, 6)),
            )
        )
        records = [
            record("new", "a", (1, 2), 50.0, task=1),
            record("old", "a", (1, 2), 40.0, task=3),  # RI 80
            record("new", "b", (3, 4), 60.0, task=2),
            record("old", "b", (3, 4), 54.0, task=3),  # RI 90
        ]
        assert avg_ri_of(protocol, records) == pytest.approx(85.0, abs=1e-9)

    def test_intermediate_old_records_are_ignored(self):
        protocol = EvalProtocol(
            tasks=(
                TaskPhase(1, "a", (1, 2)),
                TaskPhase(2, "b", (3, 4)),
                TaskPhase(3, "c", (5, 6)),
            )
        )
        records = [
            record("new", "a", (1, 2), 50.0, task=1),
            record("old", "a", (1, 2), 40.0, task=3),
            record("new", "b", (3, 4), 60.0, task=2),
            record("old", "b", (3, 4), 54.0, task=3),
        ]
        with_intermediate = records + [record("old", "a", (1, 2), 10.0, task=2)]
        assert avg_ri_of(protocol, with_intermediate) == avg_ri_of(
            protocol, records
        )

    def test_missing_record_names_slot(self):
        records = [record("new", "daytime_sunny", (1, 4), 50.0, task=1)]
        with pytest.raises(ProtocolError, match="kind='old'"):
            avg_ri_of(two_phase_protocol(), records)

    def test_duplicate_record_names_slot(self):
        records = [
            record("new", "daytime_sunny", (1, 4), 50.0, task=1),
            record("old", "daytime_sunny", (1, 4), 40.0, task=2),
            record("old", "daytime_sunny", (1, 4), 41.0, task=2),
        ]
        with pytest.raises(ProtocolError, match="duplicate"):
            avg_ri_of(two_phase_protocol(), records)

    def test_record_order_does_not_matter(self):
        records = duet_records()
        straight = compute_metrics(two_phase_protocol(), records)
        shuffled = compute_metrics(two_phase_protocol(), records[::-1])
        assert straight.to_dict() == shuffled.to_dict()


class TestAvgGeneralization:
    def test_all_pairs_at_reference(self):
        records = [
            record("unseen", "night_sunny", (1, 4), 30.0, task=2),
            record("ref", "night_sunny", (1, 4), 30.0),
            record("unseen", "daytime_sunny", (5, 7), 20.0, task=2),
            record("ref", "daytime_sunny", (5, 7), 20.0),
        ]
        assert avg_gi_of(two_phase_protocol(), records) == 100.0

    def test_mean_of_two_ratios(self):
        records = [
            record("unseen", "night_sunny", (1, 4), 4.0, task=2),
            record("ref", "night_sunny", (1, 4), 10.0),
            record("unseen", "daytime_sunny", (5, 7), 6.0, task=2),
            record("ref", "daytime_sunny", (5, 7), 10.0),
        ]
        assert avg_gi_of(two_phase_protocol(), records) == pytest.approx(50.0)

    def test_five_pair_multi_phase_shape(self):
        # three-task protocol scoring two pairs at task 2 and three at task 3,
        # sharing the per-(domain, range) reference measurements
        protocol = EvalProtocol(
            tasks=(
                TaskPhase(1, "night_sunny", (1, 2)),
                TaskPhase(2, "daytime_sunny", (3, 4)),
                TaskPhase(3, "daytime_foggy", (5, 7)),
            ),
            unseen_pairs=(
                UnseenPair("night_sunny", 2, (3, 4)),
                UnseenPair("daytime_sunny", 2, (1, 2)),
                UnseenPair("night_sunny", 3, (3, 4)),
                UnseenPair("daytime_sunny", 3, (1, 2)),
                UnseenPair("daytime_foggy", 3, (1, 4)),
            ),
        )
        records = [
            record("unseen", "night_sunny", (3, 4), 12.0, task=2),
            record("unseen", "daytime_sunny", (1, 2), 18.0, task=2),
            record("unseen", "night_sunny", (3, 4), 15.0, task=3),
            record("unseen", "daytime_sunny", (1, 2), 21.0, task=3),
            record("unseen", "daytime_foggy", (1, 4), 9.0, task=3),
            record("ref", "night_sunny", (3, 4), 30.0),
            record("ref", "daytime_sunny", (1, 2), 60.0),
            record("ref", "daytime_foggy", (1, 4), 45.0),
        ]
        ratios = [12.0 / 30.0, 18.0 / 60.0, 15.0 / 30.0, 21.0 / 60.0, 9.0 / 45.0]
        expected = 100.0 * sum(ratios) / 5.0
        assert avg_gi_of(protocol, records) == pytest.approx(expected, abs=1e-9)


class TestBundledFixture:
    @pytest.mark.parametrize("method", METRIC_METHODS)
    def test_reproduces_published_row(self, method):
        expected = json.loads(expected_metrics_path().read_text())[method]
        report = compute_metrics(load_protocol(protocol_path()), load_records(records_path(method)))
        assert report.avg_ri == pytest.approx(expected["avg_ri"], abs=0.02)
        assert report.avg_gi == pytest.approx(expected["avg_gi"], abs=0.02)
        assert report.rai == pytest.approx(expected["rai"], abs=0.02)

    def test_table_formats_two_decimals(self):
        report = compute_metrics(load_protocol(protocol_path()), duet_records())
        table = report.table()
        assert "88.06" in table
        assert "Avg RI" in table and "RAI" in table


class TestRecordIO:
    def test_jsonl_and_csv_agree(self, tmp_path):
        records = duet_records()
        csv_path = tmp_path / "records.csv"
        lines = ["kind,domain,class_lo,class_hi,task_id,map50"]
        for entry in records:
            task = "" if entry.measured_at_task is None else entry.measured_at_task
            lines.append(
                f"{entry.kind},{entry.domain},{entry.class_range[0]},{entry.class_range[1]},"
                f"{task},{entry.map50!r}"
            )
        csv_path.write_text("\n".join(lines) + "\n")
        assert load_records(csv_path) == records

    def test_jsonl_lines_end_at_newline_only(self, tmp_path):
        record = {"kind": "ref", "domain": "night\u2028rain\x1c", "classes": [1, 2], "map50": 5.0}
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(record, ensure_ascii=False) + "\r\n\n")
        assert [r.domain for r in load_records(path)] == ["night\u2028rain\x1c"]

    def test_malformed_jsonl_line_is_located(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"kind": "new"}\n')
        with pytest.raises(ProtocolError, match="line 1"):
            load_records(path)

    def test_out_of_range_map_rejected(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(
            json.dumps(
                {"kind": "new", "domain": "d", "classes": [1, 2], "task_id": 1, "map50": 101.0}
            )
            + "\n"
        )
        with pytest.raises(ProtocolError):
            load_records(path)

    def test_ref_with_task_rejected(self):
        with pytest.raises(ValueError):
            record("ref", "d", (1, 2), 10.0, task=1)

    def test_non_ref_needs_task(self):
        with pytest.raises(ValueError):
            record("new", "d", (1, 2), 10.0)
