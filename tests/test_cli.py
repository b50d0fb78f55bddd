from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import warnings
from contextlib import ExitStack
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import duet
import duet.errors
from duet.checkpoint import CheckpointReader, read_checkpoint, write_checkpoint
from duet.cli import main
from duet.diagnostics import SignConflictReport, sign_conflicts
from duet.fixtures import materialize_trio, protocol_path, records_path
from duet.losses import update_sign_conflicts
from duet.task_vectors import TaskVector, open_task_vector, save_task_vector


@pytest.fixture
def trio(tmp_path):
    return materialize_trio(tmp_path / "trio")


def base_fingerprint(path) -> str:
    with CheckpointReader(path) as reader:
        return reader.fingerprint()


def run_cli(capsys, argv: list[str]):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def make_task_vector(capsys, trio, source, out_dir, label):
    code, _, err = run_cli(
        capsys,
        [
            "task-vector",
            trio["base"],
            source,
            "--partition",
            trio["partition"],
            "--label",
            label,
            "-o",
            out_dir,
        ],
    )
    assert code == 0, err
    return out_dir


# Every input the CLI decodes as text: JSON, JSON lines or CSV.
TEXT_INPUTS = ("manifest", "meta", "protocol", "records", "records-csv", "predictions")
DUET_ERRORS = {
    cls.__name__ for cls in vars(duet.errors).values()
    if isinstance(cls, type) and issubclass(cls, duet.DuetError)
}
_FIELDS = ("shared", "task_specific", "head_concat_axis", "replace", "base_fingerprint", "label",
           "tasks", "unseen_pairs", "task_id", "domain", "classes", "kind", "map50",
           "class_logits", "bbox_values")
_CSV_CELLS = ("kind", "domain", "class_lo", "class_hi", "task_id", "map50", "new", "old", "ref",
              "daytime_sunny", "1", "4", "46.29", "")


def json_values():
    """Arbitrary JSON values whose objects often carry the field names the loaders read."""
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    return st.recursive(
        scalars,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=4), children, max_size=4),
        max_leaves=16,
    )


def csv_texts():
    cells = st.sampled_from(_CSV_CELLS) | st.text(max_size=4)
    rows = st.lists(st.lists(cells, max_size=7), max_size=4)
    return rows.map(lambda rows: "\n".join(",".join(row) for row in rows).encode())


def input_argv(capsys, trio, tmp_path, kind: str, content: bytes) -> list:
    """A command line that reads ``content`` as its input of ``kind``: one of
    TEXT_INPUTS, or "header" for a container whose header is ``content``."""
    if kind == "meta":
        bundle = tmp_path / "tv"
        if not bundle.exists():
            make_task_vector(capsys, trio, trio["task1"], bundle, "t")
        (bundle / "meta.json").write_bytes(content)
        return ["merge", "duet", trio["base"], "--old", bundle, "--curr", bundle,
                "-o", tmp_path / "merged.st"]
    if kind == "header":
        content = len(content).to_bytes(8, "little") + content
    path = tmp_path / {"records": "input.jsonl", "records-csv": "input.csv"}.get(kind, "input.json")
    path.write_bytes(content)
    return {
        "header": ["diagnose", "distance", "--merged", path, "--old", path, "--curr", path],
        "manifest": ["task-vector", trio["base"], trio["task1"], "--partition", path,
                     "-o", tmp_path / "out"],
        "protocol": ["metrics", "--protocol", path, "--records", records_path("duet")],
        "records": ["metrics", "--protocol", protocol_path(), "--records", path],
        "records-csv": ["metrics", "--protocol", protocol_path(), "--records", path],
        "predictions": ["distill", "--curr", path, "--old", path],
    }[kind]


class TestTaskVectorCommand:
    def test_creates_bundle(self, capsys, trio, tmp_path):
        out = make_task_vector(capsys, trio, trio["task1"], tmp_path / "tv", "phase1")
        with ExitStack() as stack:
            vector = open_task_vector(out, stack)
        assert vector.label == "phase1"
        assert vector.base_fingerprint == base_fingerprint(trio["base"])

    def test_summary_is_json(self, capsys, trio, tmp_path):
        code, out, _ = run_cli(
            capsys,
            [
                "task-vector",
                trio["base"],
                trio["task1"],
                "--partition",
                trio["partition"],
                "-o",
                tmp_path / "tv",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["tensors"] == 3

    def test_missing_output_flag(self, capsys, trio):
        code, _, err = run_cli(
            capsys,
            ["task-vector", trio["base"], trio["task1"], "--partition", trio["partition"]],
        )
        assert code == 1
        assert "--output" in err


class TestMergeCommand:
    def test_equal_vectors_merge_to_base_plus_delta(self, capsys, trio, tmp_path):
        tv_dir = make_task_vector(capsys, trio, trio["task1"], tmp_path / "tv", "t")
        out_path = tmp_path / "merged.safetensors"
        report_path = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys,
            [
                "merge",
                "duet",
                trio["base"],
                "--old",
                tv_dir,
                "--curr",
                tv_dir,
                "-o",
                out_path,
                "--report",
                report_path,
            ],
        )
        assert code == 0, err
        report = json.loads(report_path.read_text())
        assert all(layer["alpha"] == 0.5 for layer in report["layers"])
        merged = read_checkpoint(out_path)
        base = read_checkpoint(trio["base"])
        with ExitStack() as stack:
            for name, delta in open_task_vector(tv_dir, stack).deltas.items():
                expected = (base[name].astype(np.float64) + delta.astype(np.float64)).astype(
                    np.float32
                )
                np.testing.assert_array_equal(merged[name], expected)

    def test_merge_summary_fields(self, capsys, trio, tmp_path):
        tv_old = make_task_vector(capsys, trio, trio["task1"], tmp_path / "a", "old")
        tv_curr = make_task_vector(capsys, trio, trio["task2"], tmp_path / "b", "curr")
        code, out, _ = run_cli(
            capsys,
            ["merge", "duet", trio["base"], "--old", tv_old, "--curr", tv_curr, "-o", tmp_path / "m.st"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["layers"] == 3
        assert 0.4 <= payload["alpha_min"] <= payload["alpha_max"] <= 0.6

    def test_average_and_magmax(self, capsys, trio, tmp_path):
        tv_old = make_task_vector(capsys, trio, trio["task1"], tmp_path / "a", "old")
        tv_curr = make_task_vector(capsys, trio, trio["task2"], tmp_path / "b", "curr")
        for algorithm in ("average", "magmax"):
            code, out, err = run_cli(
                capsys,
                [
                    "merge",
                    algorithm,
                    trio["base"],
                    "--tv",
                    tv_old,
                    "--tv",
                    tv_curr,
                    "-o",
                    tmp_path / f"{algorithm}.st",
                ],
            )
            assert code == 0, err
            assert json.loads(out)["vectors"] == 2

    def test_wrong_base_is_validation_error(self, capsys, trio, tmp_path):
        tv_dir = make_task_vector(capsys, trio, trio["task1"], tmp_path / "tv", "t")
        code, _, err = run_cli(
            capsys,
            ["merge", "duet", trio["task2"], "--old", tv_dir, "--curr", tv_dir, "-o", tmp_path / "m.st"],
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "BaseMismatchError"

    def test_missing_algorithm(self, capsys, trio):
        code, _, err = run_cli(capsys, ["merge"])
        assert code == 1

    def test_csv_report_has_the_json_report_values(self, capsys, trio, tmp_path):
        tv_old = make_task_vector(capsys, trio, trio["task1"], tmp_path / "a", "old")
        tv_curr = make_task_vector(capsys, trio, trio["task2"], tmp_path / "b", "curr")
        merge = ["merge", "duet", trio["base"], "--old", tv_old, "--curr", tv_curr,
                 "-o", tmp_path / "m.st"]
        for fmt in ("json", "csv"):
            code, _, err = run_cli(capsys, [*merge, "--report", tmp_path / f"r.{fmt}",
                                            "--format", fmt])
            assert code == 0, err
        layers = json.loads((tmp_path / "r.json").read_text())["layers"]
        header, *rows = csv_rows(tmp_path / "r.csv")
        assert header == ["layer_name", "p", "delta", "alpha", "beta", "norm_old", "norm_curr",
                          "norm_sum"]
        assert [row[0] for row in rows] == [
            "backbone.conv1.weight", "backbone.conv1.bias", "neck.fuse.weight"
        ]
        assert [[row[0], *map(float, row[1:])] for row in rows] == [
            [layer[column] for column in header] for layer in layers
        ]


class TestHeadConcatCommand:
    def test_concatenates_head_blocks(self, capsys, trio, tmp_path):
        out_path = tmp_path / "head.st"
        code, _, err = run_cli(
            capsys,
            [
                "head-concat",
                trio["task1"],
                trio["task2"],
                "--partition",
                trio["partition"],
                "-o",
                out_path,
            ],
        )
        assert code == 0, err
        head = read_checkpoint(out_path)
        task1 = read_checkpoint(trio["task1"])
        task2 = read_checkpoint(trio["task2"])
        assert head["head.cls.weight"].shape[0] == (
            task1["head.cls.weight"].shape[0] + task2["head.cls.weight"].shape[0]
        )
        np.testing.assert_array_equal(head["head.cls.weight"][:3], task2["head.cls.weight"])
        # stem is flagged replace in the fixture manifest: taken from current
        np.testing.assert_array_equal(head["head.stem.weight"], task2["head.stem.weight"])

    def test_mixed_head_dtypes_are_a_dtype_error(self, capsys, trio, tmp_path):
        curr = read_checkpoint(trio["task2"])
        curr["head.cls.weight"] = curr["head.cls.weight"].astype(np.float64)
        write_checkpoint(curr, tmp_path / "curr.st")
        code, out, err = run_cli(capsys, ["head-concat", trio["task1"], tmp_path / "curr.st",
                                          "--partition", trio["partition"], "-o", tmp_path / "h.st"])
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DTypeError"
        assert error["message"] == "tensor 'head.cls.weight': dtype mismatch float32 vs float64"
        assert not (tmp_path / "h.st").exists()

    def test_prev_first_order(self, capsys, trio, tmp_path):
        out_path = tmp_path / "head.st"
        code, _, _ = run_cli(
            capsys,
            [
                "head-concat",
                trio["task1"],
                trio["task2"],
                "--partition",
                trio["partition"],
                "--head-order",
                "prev-first",
                "-o",
                out_path,
            ],
        )
        assert code == 0
        head = read_checkpoint(out_path)
        task1 = read_checkpoint(trio["task1"])
        np.testing.assert_array_equal(head["head.cls.weight"][:4], task1["head.cls.weight"])


class TestSequenceCommand:
    def test_writes_checkpoints_and_reports(self, capsys, trio, tmp_path):
        out_dir = tmp_path / "seq"
        code, out, err = run_cli(
            capsys,
            [
                "sequence",
                trio["base"],
                trio["task1"],
                trio["task2"],
                "--partition",
                trio["partition"],
                "-o",
                out_dir,
            ],
        )
        assert code == 0, err
        assert (out_dir / "task01.safetensors").exists()
        assert (out_dir / "task02.safetensors").exists()
        assert not (out_dir / "task01.report.json").exists()
        report = json.loads((out_dir / "task02.report.json").read_text())
        assert len(report["layers"]) == 3
        payload = json.loads(out)
        assert [entry["task"] for entry in payload["tasks"]] == [1, 2]
        # first task passes through verbatim
        task1_bytes = (out_dir / "task01.safetensors").read_bytes()
        assert task1_bytes == trio["task1"].read_bytes()

    @staticmethod
    def large_sequence(tmp_path, rng, n_tasks=3) -> list:
        """``sequence`` argv over models with a shared layer large enough to
        be written and hashed on the I/O thread."""
        import duet.checkpoint

        big = duet.checkpoint._HANDOFF_BYTES // 4 + 1

        def model(rows):
            return {"backbone.big": rng.normal(size=big).astype(np.float32),
                    "backbone.small": rng.normal(size=5).astype(np.float32),
                    "head.cls": rng.normal(size=(rows, 3)).astype(np.float32)}

        paths = []
        for i in range(n_tasks + 1):
            paths.append(tmp_path / f"m{i}.st")
            write_checkpoint(model(i + 1), paths[-1])
        partition = tmp_path / "partition.json"
        partition.write_text(json.dumps({"shared": ["backbone.*"], "task_specific": ["head.*"],
                                         "head_concat_axis": 0}))
        return ["sequence", *paths, "--partition", partition, "-o", tmp_path / "seq"]

    def test_a_write_error_on_the_io_thread_exits_2(self, capsys, tmp_path, rng, monkeypatch):
        import threading

        import duet.checkpoint

        write_all = duet.checkpoint._write_all
        on_thread = []

        def failing(fh, chunks):
            on_thread.append(threading.current_thread() is not threading.main_thread())
            if on_thread[-1]:
                raise OSError(28, "No space left on device")
            write_all(fh, chunks)

        argv = self.large_sequence(tmp_path, rng)
        monkeypatch.setattr(duet.checkpoint, "_write_all", failing)
        # Every hand-off then runs on the thread, however late it starts.
        monkeypatch.setattr(duet.checkpoint._Lane, "_take_over", False)
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {"type": "OSError",
                                            "message": "[Errno 28] No space left on device"}
        assert True in on_thread
        assert list((tmp_path / "seq").iterdir()) == []

    def test_a_non_finite_last_task_exits_2_without_hanging(self, tmp_path, rng):
        from tests.test_streaming import poison

        argv = self.large_sequence(tmp_path, rng)
        poison(argv[-5], "backbone.big")  # the last task's
        src = Path(duet.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "duet.cli", *map(str, argv)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert done.returncode == 2, done.stderr
        error = json.loads(done.stderr)["error"]
        assert error["type"] == "CheckpointFormatError"
        assert "'backbone.big' contains non-finite values" in error["message"]
        assert sorted(p.name for p in (tmp_path / "seq").iterdir()) == [
            "task01.safetensors", "task02.report.json", "task02.safetensors"]

    def test_bad_concat_axis_is_refused_before_task_1_is_written(self, capsys, trio, tmp_path):
        partition = json.loads(Path(trio["partition"]).read_text())
        partition["head_concat_axis"] = 5
        bad = tmp_path / "partition.json"
        bad.write_text(json.dumps(partition))
        out_dir = tmp_path / "seq"
        code, stdout, err = run_cli(
            capsys,
            ["sequence", trio["base"], trio["task1"], trio["task2"], "--partition", bad,
             "-o", out_dir],
        )
        assert code == 1 and stdout == ""
        error = json.loads(err)["error"]
        assert error["type"] == "AxisError" and "head.cls.weight" in error["message"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("missing", ["base", "task1"])
    def test_a_missing_input_exits_2_without_making_the_output(self, capsys, trio, tmp_path,
                                                                missing):
        inputs = {"base": trio["base"], "task1": trio["task1"]}
        inputs[missing] = tmp_path / "missing.safetensors"
        out_dir = tmp_path / "out" / "seq"
        code, stdout, err = run_cli(
            capsys,
            ["sequence", inputs["base"], inputs["task1"], trio["task2"],
             "--partition", trio["partition"], "-o", out_dir],
        )
        assert code == 2 and stdout == ""
        error = json.loads(err)["error"]
        assert error["type"] == "FileNotFoundError" and "missing.safetensors" in error["message"]
        assert not (tmp_path / "out").exists()

    def test_files_of_later_tasks_in_the_output_are_refused(self, capsys, tmp_path, rng):
        argv = self.large_sequence(tmp_path, rng, n_tasks=3)
        out_dir = argv[-1]
        assert run_cli(capsys, argv)[0] == 0
        written = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        # A rerun of as many tasks rewrites its own files.
        assert run_cli(capsys, argv)[0] == 0
        assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == written
        shorter = [*argv[:4], *argv[5:]]  # the base and tasks 1 and 2
        code, stdout, err = run_cli(capsys, shorter)
        assert code == 1 and stdout == ""
        assert json.loads(err)["error"] == {
            "type": "DuetError",
            "message": f"{out_dir} holds files of tasks beyond this run's 2: "
                       "task03.report.json, task03.safetensors",
        }
        assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == written

    def test_a_layout_fault_in_task_3_is_refused_before_its_payload(self, capsys, tmp_path, rng,
                                                                     monkeypatch):
        from tests.test_streaming import poison

        argv = self.large_sequence(tmp_path, rng, n_tasks=3)
        task3 = argv[4]
        with CheckpointReader(task3) as reader:
            model = dict(reader)
        # Its late shared layer in F64, and a NaN in an earlier one.
        model["backbone.small"] = model["backbone.small"].astype(np.float64)
        write_checkpoint(model, task3)
        poison(task3, "backbone.big")
        loaded = []
        load = CheckpointReader.load
        monkeypatch.setattr(CheckpointReader, "load",
                            lambda reader, name: loaded.append(reader._path) or load(reader, name))
        code, stdout, err = run_cli(capsys, argv)
        assert code == 1 and stdout == ""
        assert json.loads(err)["error"] == {
            "type": "DTypeError", "message": "tensor 'backbone.small': dtype mismatch float64 vs float32"}
        assert str(task3) not in loaded and str(argv[3]) in loaded
        # Tasks 1 and 2 are those of a run that ends before task 3.
        out_dir = argv[-1]
        written = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        argv[-1] = tmp_path / "two"
        assert run_cli(capsys, [*argv[:4], *argv[5:]])[0] == 0
        assert written == {path.name: path.read_bytes() for path in argv[-1].iterdir()}
        assert sorted(written) == ["task01.safetensors", "task02.report.json", "task02.safetensors"]


class TestDcLossCommand:
    def test_loss_with_default_zero_prev2(self, capsys, trio, tmp_path):
        tv_prev = make_task_vector(capsys, trio, trio["task1"], tmp_path / "a", "prev")
        tv_t = make_task_vector(capsys, trio, trio["task2"], tmp_path / "b", "t")
        code, out, err = run_cli(capsys, ["dc-loss", "--t", tv_t, "--prev", tv_prev])
        assert code == 0, err
        payload = json.loads(out)
        assert payload["loss"] >= 0.0
        assert payload["granularity"] == "tensor"

    def test_grad_check_passes(self, capsys, trio, tmp_path):
        tv_prev = make_task_vector(capsys, trio, trio["task1"], tmp_path / "a", "prev")
        tv_t = make_task_vector(capsys, trio, trio["task2"], tmp_path / "b", "t")
        for granularity in ("tensor", "element"):
            code, out, err = run_cli(
                capsys,
                [
                    "dc-loss",
                    "--t",
                    tv_t,
                    "--prev",
                    tv_prev,
                    "--granularity",
                    granularity,
                    "--grad-check",
                ],
            )
            assert code == 0, err
            payload = json.loads(out)
            assert payload["grad_check"]["passed"] is True


class TestDistillCommand:
    def test_json_predictions(self, capsys, tmp_path, rng):
        curr = tmp_path / "curr.json"
        old = tmp_path / "old.json"
        logits = rng.normal(size=(6, 3)).tolist()
        boxes = rng.normal(size=(5, 4)).tolist()
        old.write_text(json.dumps({"class_logits": logits, "bbox_values": boxes}))
        curr.write_text(json.dumps({"class_logits": logits, "bbox_values": boxes}))
        code, out, err = run_cli(capsys, ["distill", "--curr", curr, "--old", old])
        assert code == 0, err
        payload = json.loads(out)
        assert payload["cls_loss"] == 0.0
        assert payload["bbox_loss"] == 0.0
        assert payload["total"] == 0.0
        assert payload["cls_mask_size"] >= 1


class TestDiagnoseCommand:
    def test_signs_vectors_preset(self, capsys, trio, tmp_path):
        tv_old = make_task_vector(capsys, trio, trio["task1"], tmp_path / "a", "old")
        tv_curr = make_task_vector(capsys, trio, trio["task2"], tmp_path / "b", "curr")
        code, out, err = run_cli(capsys, ["diagnose", "signs", "--old", tv_old, "--curr", tv_curr])
        assert code == 0, err
        payload = json.loads(out)
        assert payload["preset"] == "vectors"
        assert payload["total_comparable"] > 0
        assert set(payload["per_tensor"]) == {
            "backbone.conv1.weight",
            "backbone.conv1.bias",
            "neck.fuse.weight",
        }

    def test_signs_updates_preset_with_zero_prev2(self, capsys, trio, tmp_path):
        tv_old = make_task_vector(capsys, trio, trio["task1"], tmp_path / "a", "old")
        tv_curr = make_task_vector(capsys, trio, trio["task2"], tmp_path / "b", "curr")
        code, out, _ = run_cli(
            capsys,
            ["diagnose", "signs", "--old", tv_old, "--curr", tv_curr, "--preset", "updates"],
        )
        assert code == 0
        assert json.loads(out)["preset"] == "updates"

    def test_prev2_without_updates_preset_is_a_config_error(self, capsys, trio, tmp_path):
        tv_old = make_task_vector(capsys, trio, trio["task1"], tmp_path / "a", "old")
        signs = ["diagnose", "signs", "--old", tv_old, "--curr", tv_old]
        for preset in ([], ["--preset", "vectors"]):
            code, out, err = run_cli(capsys, [*signs, *preset, "--prev2", str(tmp_path / "none")])
            assert code == 1 and out == ""
            error = json.loads(err)["error"]
            assert error["type"] == "ConfigError"
            assert "--prev2" in error["message"] and "--preset updates" in error["message"]
        # with the updates preset the bundle is read: a missing one is an I/O error
        code, _, err = run_cli(capsys, [*signs, "--preset", "updates", "--prev2", str(tmp_path / "none")])
        assert code == 2, err

    @pytest.mark.parametrize("preset", ["vectors", "updates"])
    def test_signs_refuse_vectors_of_different_bases(self, capsys, trio, tmp_path, preset):
        tv_old = make_task_vector(capsys, trio, trio["task1"], tmp_path / "a", "old")
        # "curr" is taken against task 1 as its base: the fingerprints differ.
        code, _, err = run_cli(capsys, ["task-vector", trio["task1"], trio["task2"], "--partition",
                                        trio["partition"], "--label", "curr", "-o", tmp_path / "b"])
        assert code == 0, err
        argv = ["diagnose", "signs", "--old", tv_old, "--curr", tmp_path / "b", "--preset", preset,
                "-o", tmp_path / "signs.json"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "BaseMismatchError"
        assert error["message"].startswith("diagnose signs: task vector 'curr' was computed against")
        assert not (tmp_path / "signs.json").exists()

    def test_signs_csv_format(self, capsys, trio, tmp_path):
        tv_old = make_task_vector(capsys, trio, trio["task1"], tmp_path / "a", "old")
        tv_curr = make_task_vector(capsys, trio, trio["task2"], tmp_path / "b", "curr")
        code, out, _ = run_cli(
            capsys,
            ["diagnose", "signs", "--old", tv_old, "--curr", tv_curr, "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tensor,conflicts,comparable,fraction"
        assert lines[-1].startswith("TOTAL,")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_signs_output_file_holds_the_printed_report(self, capsys, trio, tmp_path, fmt):
        tv_old = make_task_vector(capsys, trio, trio["task1"], tmp_path / "a", "old")
        tv_curr = make_task_vector(capsys, trio, trio["task2"], tmp_path / "b", "curr")
        signs = ["diagnose", "signs", "--old", tv_old, "--curr", tv_curr, "--format", fmt]
        code, printed, err = run_cli(capsys, signs)
        assert code == 0, err
        code, out, err = run_cli(capsys, [*signs, "-o", tmp_path / "signs.out"])
        assert code == 0, err
        assert out == ""
        assert (tmp_path / "signs.out").read_text() == printed

    @pytest.mark.parametrize("preset", ["vectors", "updates"])
    def test_signs_json_is_the_indent_encoder_output(self, capsys, tmp_path, rng, preset):
        names = ['a"b', "back\\slash", "tab\tnl\n", "ctl\x00\x1f\x7f", "é", "\U0001d11e", "{}[],: "]
        vectors = []
        for label in ("old", "curr"):
            deltas = {name: rng.normal(size=(3, 4)) for name in names}
            deltas[names[0]][0] = 0.0  # some pairs are not comparable
            vector = TaskVector(deltas, "f" * 64, label)
            vectors.append(vector)
            save_task_vector(vector, tmp_path / label)
        report = sign_conflicts(*vectors)
        if preset == "updates":  # against the zero vector two steps back
            report = SignConflictReport({
                name: update_sign_conflicts(vectors[1].deltas[name], vectors[0].deltas[name],
                                            np.zeros((3, 4)))
                for name in names
            })
        want = json.dumps({"preset": preset, **report.to_dict()}, indent=2) + "\n"
        signs = ["diagnose", "signs", "--old", tmp_path / "old", "--curr", tmp_path / "curr",
                 "--preset", preset]
        code, out, err = run_cli(capsys, signs)
        assert code == 0, err
        assert out == want
        code, out, err = run_cli(capsys, [*signs, "-o", tmp_path / "signs.json"])
        assert (code, out) == (0, ""), err
        assert (tmp_path / "signs.json").read_bytes() == want.encode()

    def test_distance(self, capsys, trio, tmp_path):
        code, out, err = run_cli(
            capsys,
            [
                "diagnose",
                "distance",
                "--merged",
                trio["task1"],
                "--old",
                trio["task1"],
                "--curr",
                trio["task1"],
                "--partition",
                trio["partition"],
            ],
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["l2_to_old"] == 0.0
        assert payload["cos_to_old"] == pytest.approx(1.0, abs=1e-9)


class TestMetricsCommand:
    def test_bundled_fixture_prints_published_numbers(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["metrics", "--protocol", protocol_path(), "--records", records_path("duet")],
        )
        assert code == 0, err
        values = {}
        for line in out.splitlines():
            if line.startswith(("Avg RI", "Avg GI", "RAI")):
                label = line.split("(%)")[0].strip()
                values[label] = float(line.rsplit(None, 1)[1])
        assert values["Avg RI"] == pytest.approx(88.06, abs=0.02)
        assert values["Avg GI"] == pytest.approx(56.95, abs=0.02)
        assert values["RAI"] == pytest.approx(72.51, abs=0.02)

    def test_json_report_written(self, capsys, tmp_path):
        out_path = tmp_path / "metrics.json"
        code, _, _ = run_cli(
            capsys,
            [
                "metrics",
                "--protocol",
                protocol_path(),
                "--records",
                records_path("erd"),
                "-o",
                out_path,
            ],
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["avg_ri"] == pytest.approx(66.80, abs=0.02)

    def test_csv_report_has_the_json_report_values(self, capsys, tmp_path):
        metrics = ["metrics", "--protocol", protocol_path(), "--records", records_path("duet")]
        for fmt in ("json", "csv"):
            code, _, err = run_cli(capsys, [*metrics, "-o", tmp_path / f"m.{fmt}", "--format", fmt])
            assert code == 0, err
        report = json.loads((tmp_path / "m.json").read_text())
        header, *rows = csv_rows(tmp_path / "m.csv")
        assert header == ["section", "domain", "class_lo", "class_hi", "task_id", "value"]
        expected = [
            ["ri", entry["domain"], *map(str, entry["classes"]), "", entry["ri"]]
            for entry in report["retention"]
        ] + [
            ["gi", entry["domain"], *map(str, entry["classes"]), str(entry["task_id"]), entry["gi"]]
            for entry in report["generalization"]
        ] + [[name, "", "", "", "", report[name]] for name in ("avg_ri", "avg_gi", "rai")]
        assert report["retention"] and report["generalization"]
        assert [[*row[:5], float(row[5])] for row in rows] == expected

    def test_missing_records_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["metrics", "--protocol", protocol_path(), "--records", tmp_path / "nope.jsonl"],
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] in ("FileNotFoundError", "OSError")


class TestCliContract:
    def test_unknown_subcommand_exits_1_with_usage(self, capsys):
        code, _, err = run_cli(capsys, ["frobnicate"])
        assert code == 1
        assert "usage:" in err

    def test_no_subcommand_exits_1(self, capsys):
        code, _, err = run_cli(capsys, [])
        assert code == 1
        assert "usage:" in err

    def test_missing_file_exits_2(self, capsys, trio, tmp_path):
        code, _, err = run_cli(
            capsys,
            [
                "task-vector",
                tmp_path / "missing.st",
                trio["task1"],
                "--partition",
                trio["partition"],
                "-o",
                tmp_path / "tv",
            ],
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"

    def test_a_name_utf8_cannot_carry_exits_2(self, capsys, trio, tmp_path):
        import struct

        header = {"backbone.\ud800": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}}
        text = json.dumps(header).encode()  # the lone surrogate as its "\ud800" escape
        path = tmp_path / "surrogate.st"
        path.write_bytes(struct.pack("<Q", len(text)) + text + bytes(4))
        code, out, err = run_cli(
            capsys,
            ["task-vector", trio["base"], path, "--partition", trio["partition"],
             "-o", tmp_path / "tv"],
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "CheckpointFormatError"
        assert error["message"].endswith(
            "tensor name 'backbone.\\ud800' holds a lone surrogate, which UTF-8 cannot encode")
        assert not (tmp_path / "tv").exists()

    def test_dtype_check_flags_mixed_inputs(self, capsys, trio, tmp_path, rng):
        from duet.checkpoint import write_checkpoint

        base = read_checkpoint(trio["base"])
        mixed = {
            name: (arr.astype(np.float64) if i == 0 else arr)
            for i, (name, arr) in enumerate(base.items())
        }
        mixed_path = tmp_path / "mixed.st"
        write_checkpoint(mixed, mixed_path)
        code, _, err = run_cli(
            capsys,
            [
                "task-vector",
                mixed_path,
                mixed_path,
                "--partition",
                trio["partition"],
                "--dtype-check",
                "-o",
                tmp_path / "tv",
            ],
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "DTypeError"

    def test_task_vector_over_another_dtype_is_a_dtype_error(self, capsys, trio, tmp_path):
        from duet.checkpoint import write_checkpoint

        fine = {name: arr.astype(np.float64) for name, arr in read_checkpoint(trio["task1"]).items()}
        write_checkpoint(fine, tmp_path / "f64.st")
        argv = ["task-vector", trio["base"], tmp_path / "f64.st", "--partition", trio["partition"],
                "-o", tmp_path / "tv"]
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert '"type": "DTypeError"' in err
        assert "dtype mismatch float64 vs float32" in json.loads(err)["error"]["message"]
        assert not (tmp_path / "tv").exists()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_merge_error_does_not_depend_on_threads(self, capsys, tmp_path, threads):
        from duet.checkpoint import write_checkpoint
        from duet.task_vectors import TaskVector, save_task_vector

        # An f32 and an f64 bundle: "a" (merged alone) fails before the window holding "b".
        base = tmp_path / "base.st"
        write_checkpoint({"a": np.zeros(40_000, np.float32), "b": np.zeros(3, np.float32)}, base)
        bundles = {
            "old": {"a": np.ones(40_000, np.float32), "b": np.ones(3, np.float32)},
            "curr": {"a": np.ones(40_000), "b": np.ones(4)},
        }
        for label, deltas in bundles.items():
            save_task_vector(TaskVector(deltas, base_fingerprint(base), label), tmp_path / label)
        code, _, err = run_cli(capsys, ["merge", "duet", base, "--old", tmp_path / "old",
                                        "--curr", tmp_path / "curr", "-o", tmp_path / "m.st",
                                        "--threads", threads])
        assert code == 1
        assert json.loads(err)["error"] == {
            "type": "DTypeError",
            "message": "tensor 'a': dtype mismatch float32 vs float64",
        }
        assert not (tmp_path / "m.st").exists()

    def test_bad_partition_json_exits_2(self, capsys, trio, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run_cli(
            capsys,
            ["task-vector", trio["base"], trio["task1"], "--partition", bad, "-o", tmp_path / "tv"],
        )
        assert code == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_task_vector_is_not_written(self, capsys, trio, tmp_path):
        from duet.checkpoint import write_checkpoint

        base = read_checkpoint(trio["base"])
        low = {name: np.full_like(arr, -3e38) for name, arr in base.items()}
        high = {name: np.full_like(arr, 3e38) for name, arr in base.items()}
        write_checkpoint(low, tmp_path / "low.st")
        write_checkpoint(high, tmp_path / "high.st")
        out = tmp_path / "tv"
        code, _, err = run_cli(
            capsys,
            ["task-vector", tmp_path / "low.st", tmp_path / "high.st",
             "--partition", trio["partition"], "-o", out],
        )
        assert code == 2
        assert "non-finite" in json.loads(err)["error"]["message"]
        assert not (out / "deltas.safetensors").exists()
        assert not (out / "meta.json").exists()

    def _overflowing_models(self, trio, tmp_path, dtype=np.float32, big=3e38):
        from duet.checkpoint import write_checkpoint

        base = read_checkpoint(trio["base"])
        for name, value in (("low.st", -big), ("high.st", big)):
            model = {k: np.full(arr.shape, value, dtype=dtype) for k, arr in base.items()}
            write_checkpoint(model, tmp_path / name)
        return tmp_path / "low.st", tmp_path / "high.st"

    def test_refused_task_vector_leaves_no_directory(self, capsys, trio, tmp_path):
        low, high = self._overflowing_models(trio, tmp_path)
        out = tmp_path / "new" / "tv"
        code, _, err = run_cli(
            capsys, ["task-vector", low, high, "--partition", trio["partition"], "-o", out]
        )
        assert code == 2, err
        assert not (tmp_path / "new").exists()

    # f32: the cast back overflows; f64: the float64 difference itself does.
    @pytest.mark.parametrize("dtype, big", [(np.float32, 3e38), (np.float64, 1e308)])
    def test_json_error_output_is_one_object(self, trio, tmp_path, dtype, big):
        # A child process: the warning machinery of a test run would hide a printed warning.
        low, high = self._overflowing_models(trio, tmp_path, dtype, big)
        src = Path(duet.__file__).resolve().parents[1]
        argv = ["task-vector", low, high, "--partition", trio["partition"], "-o", tmp_path / "tv"]
        done = subprocess.run(
            [sys.executable, "-m", "duet.cli", *map(str, argv)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 2, done.stderr
        assert json.loads(done.stderr)["error"]["type"] == "CheckpointFormatError"

    @pytest.mark.parametrize("command", ["sequence", "merge-duet"])
    def test_empty_shared_partition_is_refused(self, capsys, trio, tmp_path, command):
        if command == "sequence":
            partition = tmp_path / "no_shared.json"
            partition.write_text(
                json.dumps({"shared": ["none"], "task_specific": ["*"], "head_concat_axis": 0})
            )
            argv = ["sequence", trio["base"], trio["task1"], trio["task2"],
                    "--partition", partition, "-o", tmp_path / "seq"]
        else:
            base_fp = base_fingerprint(trio["base"])
            bundle = tmp_path / "empty_tv"
            bundle.mkdir()
            (bundle / "deltas.safetensors").write_bytes((2).to_bytes(8, "little") + b"{}")
            (bundle / "meta.json").write_text(json.dumps({"base_fingerprint": base_fp}))
            argv = ["merge", "duet", trio["base"], "--old", bundle, "--curr", bundle,
                    "-o", tmp_path / "merged.st"]
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert json.loads(err)["error"] == {
            "type": "EmptyInputError",
            "message": "cannot serialize an empty tensor map",
        }
        assert not (tmp_path / "merged.st").exists()
        assert not (tmp_path / "seq" / "task01.safetensors").exists()
        assert not (tmp_path / "seq" / "task02.safetensors").exists()

    @pytest.mark.parametrize(
        "nested", ["header", "manifest", "meta", "protocol", "records", "predictions"]
    )
    def test_deeply_nested_json_exits_2(self, capsys, trio, tmp_path, nested):
        argv = input_argv(capsys, trio, tmp_path, nested, b"[" * 100_000)
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "CheckpointFormatError"

    @pytest.mark.parametrize("kind, content, code, error", [
        pytest.param("protocol", b'{"tasks": 5}', 1, "ProtocolError", id="protocol-tasks-int"),
        pytest.param("protocol", b'{"tasks": [], "unseen_pairs": 3}', 1, "ProtocolError",
                     id="protocol-unseen-pairs-int"),
        pytest.param("protocol", b'{"tasks": [' + b"1" * 5000 + b"]}", 2, "CheckpointFormatError",
                     id="protocol-int-over-digit-limit"),
        pytest.param("records", b"[1, 2]\n", 1, "ProtocolError", id="records-line-not-object"),
        pytest.param("records-csv", b"kind,domain\n" + b"x" * 200_000 + b"\n", 2,
                     "CheckpointFormatError", id="records-csv-field-over-limit"),
        pytest.param("records-csv", b"kind,domain,class_lo,class_hi,task_id,map50\nnew,d\n", 1,
                     "ProtocolError", id="records-csv-short-row"),
        pytest.param("manifest", b'{"shared": 5, "task_specific": ["*"], "head_concat_axis": 0}',
                     1, "PartitionError", id="manifest-shared-int"),
        pytest.param("meta", b'{"base_fingerprint": 5}', 2, "CheckpointFormatError",
                     id="meta-fingerprint-int"),
        pytest.param("predictions", b'{"class_logits": [[1.0, 2.0], [3.0]], "bbox_values": [[0, 0]]}',
                     2, "CheckpointFormatError", id="predictions-ragged"),
        pytest.param("header", b'{"a": {"dtype": "F32", "shape": [' + b"1" * 5000 + b"]}}", 2,
                     "CheckpointFormatError", id="header-int-over-digit-limit"),
        *(pytest.param(kind, b'{"label": "\xff"}', 2, "CheckpointFormatError",
                       id=f"{kind}-invalid-utf8") for kind in TEXT_INPUTS),
    ])
    def test_malformed_input_is_a_typed_error(self, capsys, trio, tmp_path, kind, content, code,
                                              error):
        argv = input_argv(capsys, trio, tmp_path, kind, content)
        got, _, err = run_cli(capsys, argv)
        assert got == code
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["type"] == error

    @pytest.mark.parametrize("kind", TEXT_INPUTS)
    @given(content=st.one_of(
        st.binary(max_size=200),
        json_values().map(lambda value: json.dumps(value).encode()),
        csv_texts(),
    ))
    @settings(max_examples=75, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_hostile_text_inputs_end_in_a_typed_error(self, capsys, trio, tmp_path, kind,
                                                      content):
        argv = input_argv(capsys, trio, tmp_path, kind, content)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, argv)
        assert [str(w.message) for w in caught] == []
        if code == 0:  # the draw happened to be a valid input
            assert err == ""
            return
        assert code in (1, 2)
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["type"] in DUET_ERRORS

    def test_threads_default_to_one_whatever_the_environment(self, monkeypatch, capsys):
        from duet.cli import build_parser

        monkeypatch.setenv("DUET_THREADS", "junk")
        args = build_parser().parse_args(["distill", "--curr", "a", "--old", "b"])
        assert args.threads == 1
        code, _, err = run_cli(capsys, ["distill", "--curr", "missing_a", "--old", "missing_b"])
        assert code == 2 and "DUET_THREADS" not in err

    @pytest.mark.parametrize("argv", [
        ["sequence", "base", "ft1", "--partition", "p.json", "-o", "out"],
        ["merge", "average", "base", "--tv", "tv", "-o", "out"],
        ["task-vector", "base", "ft1", "--partition", "p.json", "-o", "out"],
    ])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_non_positive_threads_rejected(self, capsys, argv, threads):
        code, _, err = run_cli(capsys, argv + ["--threads", threads])
        assert code == 1
        assert "--threads" in err

    @pytest.mark.parametrize("argv", [
        ["sequence", "base", "ft1", "--partition", "p.json", "-o", "out"],
        ["dc-loss", "--t", "a", "--prev", "b"],
        ["distill", "--curr", "a", "--old", "b"],
        ["diagnose", "signs", "--old", "a", "--curr", "b"],
        ["diagnose", "distance", "--merged", "m", "--old", "a", "--curr", "b"],
        ["metrics", "--protocol", "p.json", "--records", "r.jsonl"],
    ])
    def test_dtype_check_rejected_where_it_has_no_effect(self, capsys, argv):
        code, _, err = run_cli(capsys, argv + ["--dtype-check"])
        assert code == 1
        assert "unrecognized arguments: --dtype-check" in err

    @pytest.mark.parametrize("argv", [
        ["dc-loss", "--t", "a", "--prev", "b"],
        ["distill", "--curr", "a", "--old", "b"],
    ])
    def test_output_rejected_where_nothing_is_written(self, capsys, argv):
        code, _, err = run_cli(capsys, argv + ["-o", "out.json"])
        assert code == 1
        assert "unrecognized arguments: -o" in err

    def test_merge_hyperparameter_flags(self, capsys, trio, tmp_path):
        tv_old = make_task_vector(capsys, trio, trio["task1"], tmp_path / "a", "old")
        tv_curr = make_task_vector(capsys, trio, trio["task2"], tmp_path / "b", "curr")
        report_path = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys,
            [
                "merge",
                "duet",
                trio["base"],
                "--old",
                tv_old,
                "--curr",
                tv_curr,
                "--gamma",
                "0.2",
                "--alpha-base",
                "0.6",
                "--epsilon",
                "1e-6",
                "-o",
                tmp_path / "m.st",
                "--report",
                report_path,
            ],
        )
        assert code == 0, err
        report = json.loads(report_path.read_text())
        assert report["config"] == {"gamma": 0.2, "alpha_base": 0.6, "epsilon": 1e-6}
        assert all(0.4 <= layer["alpha"] <= 0.8 for layer in report["layers"])

    def test_invalid_hyperparameters_exit_1(self, capsys, trio, tmp_path):
        tv_dir = make_task_vector(capsys, trio, trio["task1"], tmp_path / "tv", "t")
        code, _, err = run_cli(
            capsys,
            [
                "merge",
                "duet",
                trio["base"],
                "--old",
                tv_dir,
                "--curr",
                tv_dir,
                "--gamma",
                "0.9",
                "-o",
                tmp_path / "m.st",
            ],
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize(
        "option", [["--gamma", "0.7"], ["--alpha-base", "1.5"], ["--epsilon", "0"]]
    )
    def test_out_of_range_sequence_options_are_config_errors(self, capsys, trio, tmp_path, option):
        out = tmp_path / "seq"
        code, stdout, err = run_cli(
            capsys,
            ["sequence", trio["base"], trio["task1"], trio["task2"],
             "--partition", trio["partition"], "-o", out, *option],
        )
        assert code == 1 and stdout == ""
        assert json.loads(err)["error"]["type"] == "ConfigError"
        assert not out.exists()

    def test_rerun_is_byte_identical(self, capsys, trio, tmp_path):
        args = [
            "task-vector",
            trio["base"],
            trio["task1"],
            "--partition",
            trio["partition"],
            "-o",
            tmp_path / "tv",
        ]
        code_a, out_a, _ = run_cli(capsys, args)
        first = (tmp_path / "tv" / "deltas.safetensors").read_bytes()
        code_b, out_b, _ = run_cli(capsys, args)
        second = (tmp_path / "tv" / "deltas.safetensors").read_bytes()
        assert (code_a, out_a) == (code_b, out_b)
        assert first == second


class TestSelfTest:
    CRITERIA = ("1", "2", "3", "4", "5", "7", "8")

    def test_every_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["--self-test"])
        assert code == 0, out
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            f"PASS criterion {n}" for n in self.CRITERIA
        ]

    def test_a_broken_gradient_fails_its_check(self, capsys, monkeypatch):
        from duet import losses, selftest

        def negated(*args, **kwargs):
            return {name: -g for name, g in losses.dc_loss_grad(*args, **kwargs).items()}

        monkeypatch.setattr(selftest, "dc_loss_grad", negated)
        code, out, _ = run_cli(capsys, ["--self-test"])
        assert code == 1
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            f"{'FAIL' if n == '4' else 'PASS'} criterion {n}" for n in self.CRITERIA
        ]
        assert "worst relative error 2.000e+00" in lines[3]
