"""Release checks, written once.

``duet --self-test`` and ``tests/test_acceptance.py`` run the same functions
at the same seeds, instance counts and thresholds: the merge against a
direct-formula oracle and its coefficient invariants (criteria 1-2), the
bundled metric rows (3), the directional-consistency gradient against
central differences (4), distillation identities (5), serialization
roundtrips with a frozen fingerprint (7) and CLI determinism across reruns
and thread counts (8).  Criterion 6 measures the memory of the calling
process and stays in the test suite.  ``duet dc-loss --grad-check`` runs
:func:`central_difference_check`.

Each ``check_*`` function returns ``None`` when the check holds, or a
problem string naming the measured value.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from functools import cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import cli
from .checkpoint import fingerprint_map, parse_checkpoint, serialize_checkpoint
from .fixtures import (
    METRIC_METHODS,
    expected_metrics_path,
    materialize_trio,
    protocol_path,
    records_path,
)
from .losses import (
    GRANULARITIES,
    DcLossConfig,
    PredictionBatch,
    dc_loss,
    dc_loss_grad,
    dc_term,
    distill_bbox_loss,
    distill_cls_loss,
    percentile_75,
    successive_updates,
)
from .merge import LayerMergeRecord, MergeConfig, duet_merge
from .metrics import compute_metrics, load_protocol, load_records
from .task_vectors import TaskVector

# Canonical fingerprint of the reference map in check_serialization; guards
# byte-level format stability across platforms.
REFERENCE_FINGERPRINT = "de9bc8adefafeceb4e682593b8bdfe04ce1ad4d757eda03e2a2333d6502eafba"


# --- criteria 1 and 2: merge oracle equivalence and coefficient invariants ---


def _random_instance(rng: np.random.Generator):
    n_tensors = int(rng.integers(3, 11))
    base, old, curr = {}, {}, {}
    for i in range(n_tensors):
        size = int(10 ** rng.uniform(1.0, 5.0))
        base[f"layer_{i:02d}"] = rng.normal(0.0, 1.0, size=size)
        old[f"layer_{i:02d}"] = rng.normal(0.0, 1.0, size=size)
        curr[f"layer_{i:02d}"] = rng.normal(0.0, 1.0, size=size)
    return base, old, curr


def oracle_merge(base, old, curr, cfg: MergeConfig) -> dict:
    """Direct evaluation of the merge equations: norms, ratio, tanh scaling,
    clamp, convex combination.  Uses nothing from ``duet.merge`` or
    ``duet.tensors``, so it stays independent of the production code path."""
    merged = {}
    for name in base:
        n_old = float(np.abs(old[name]).sum())
        n_curr = float(np.abs(curr[name]).sum())
        n_sum = float(np.abs(old[name] + curr[name]).sum())
        p = (n_old - n_curr) / (n_sum + cfg.epsilon)
        delta = cfg.gamma * math.tanh(p)
        delta = max(-cfg.gamma, min(cfg.gamma, delta))
        alpha = cfg.alpha_base + delta
        merged[name] = base[name] + alpha * old[name] + (1.0 - alpha) * curr[name]
    return merged


class MergeSuite(NamedTuple):
    """``duet_merge`` on 50 random instances: the worst elementwise relative
    error against :func:`oracle_merge` and every layer record."""

    worst_rel: float
    records: list[LayerMergeRecord]


def run_merge_suite() -> MergeSuite:
    rng = np.random.default_rng(42)
    cfg = MergeConfig()
    worst_rel = 0.0
    records = []
    for _ in range(50):
        base, old, curr = _random_instance(rng)
        fp = "acceptance-base"
        merged, report = duet_merge(
            base, fp, TaskVector(old, fp, "old"), TaskVector(curr, fp, "curr"), cfg
        )
        expected = oracle_merge(base, old, curr, cfg)
        for name in base:
            scale = np.maximum(np.abs(expected[name]), 1.0)
            worst_rel = max(worst_rel, float(np.max(np.abs(merged[name] - expected[name]) / scale)))
        records.extend(report.layers)
    return MergeSuite(worst_rel, records)


def check_merge_oracle(suite: MergeSuite) -> str | None:
    if suite.worst_rel <= 1e-9:
        return None
    return f"worst relative error {suite.worst_rel:.3e} against the oracle exceeds 1e-9"


def check_coefficient_invariants(suite: MergeSuite) -> str | None:
    cfg = MergeConfig()
    for record in suite.records:
        name = record.layer_name
        if record.alpha + record.beta != 1.0:
            return f"{name}: alpha+beta = {record.alpha + record.beta!r}, not exactly 1"
        if not cfg.alpha_base - cfg.gamma <= record.alpha <= cfg.alpha_base + cfg.gamma:
            return f"{name}: alpha {record.alpha!r} outside the gamma band"
        gap = abs(record.delta - cfg.gamma * math.tanh(record.p))
        if not gap <= 1e-12:
            return f"{name}: |delta - gamma*tanh(p)| = {gap:.3e} exceeds 1e-12"
    rng = np.random.default_rng(7)
    base = {"w": rng.normal(size=64)}
    same = {"w": rng.normal(size=64)}
    _, report = duet_merge(
        base, "fp", TaskVector(same, "fp"), TaskVector({"w": same["w"].copy()}, "fp"), cfg
    )
    for record in report.layers:
        if record.alpha != cfg.alpha_base:
            return f"equal task vectors gave alpha {record.alpha!r}, not {cfg.alpha_base}"
    return None


# --- criterion 3: bundled benchmark-row reproduction ---


def check_metric_rows() -> str | None:
    protocol = load_protocol(protocol_path())
    expected = json.loads(expected_metrics_path().read_text(encoding="utf-8"))
    failures = []
    for method in METRIC_METHODS:
        report = compute_metrics(protocol, load_records(records_path(method)))
        want = expected[method]
        for label, key, value in (
            ("Avg RI", "avg_ri", report.avg_ri),
            ("Avg GI", "avg_gi", report.avg_gi),
            ("RAI", "rai", report.rai),
        ):
            if abs(value - want[key]) > 0.02:
                failures.append(f"{method} {label} {value:.4f} != {want[key]}")
    return "; ".join(failures) or None


# --- criterion 4: directional-consistency gradient check ---


_GRAD_RTOL = 1e-4
# Probes per tensor in central_difference_check: keeps --grad-check linear in
# the bundle size while covering every element of tensors this small.
_MAX_PROBES = 256


class GradCheck(NamedTuple):
    """Worst relative error over the compared elements, the elements skipped
    near the hinge, and the number compared."""

    max_rel_error: float
    near_hinge_skipped: int
    checked: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= _GRAD_RTOL


def _probe_indices(size: int) -> range | list[int]:
    """At most ``_MAX_PROBES`` evenly spaced flat indices, both ends included."""
    if size <= _MAX_PROBES:
        return range(size)
    return [k * (size - 1) // (_MAX_PROBES - 1) for k in range(_MAX_PROBES)]


def central_difference_check(
    tau_t: TaskVector, tau_prev: TaskVector, tau_prev2: TaskVector, config: DcLossConfig
) -> GradCheck:
    """Compare :func:`dc_loss_grad` with central differences of :func:`dc_loss`
    at up to 256 evenly spaced elements of each tensor of ``tau_t``.

    A bump of one element moves only its tensor's term (:func:`dc_term`), so
    each probe evaluates that term alone.  Elements whose stencil could cross
    the hinge are skipped and counted; elements where both values are below
    1e-9 agree and are not counted.
    """
    grad = dc_loss_grad(tau_t, tau_prev, tau_prev2, config)
    h = 1e-5
    worst = 0.0
    skipped = checked = 0
    for name, layer_grad in grad.items():
        prev, prev2 = tau_prev.deltas[name], tau_prev2.deltas[name]
        # float64 copy so each bump is applied exactly even for f32 storage
        layer = tau_t.deltas[name].astype(np.float64)
        flat = layer.reshape(-1)

        def term(flat_index: int, bump: float) -> float:
            value = flat[flat_index]
            flat[flat_index] = value + bump
            try:
                return dc_term(layer, prev, prev2, config.granularity)[0]
            finally:
                flat[flat_index] = value

        d_curr, d_prev = successive_updates(layer, prev, prev2)
        flat_grad = layer_grad.reshape(-1)
        flat_prev = d_prev.reshape(-1)
        if config.granularity == "tensor":
            alignment = np.full(flat_prev.size, float(np.sum(d_curr * d_prev)))
        else:
            alignment = (d_curr * d_prev).reshape(-1)
        for flat_index in _probe_indices(flat.size):
            # A +/-h bump moves this term's alignment by h*|d_prev[i]|; if
            # that can cross the hinge, the stencil straddles the kink.
            if abs(alignment[flat_index]) <= 2.0 * h * abs(flat_prev[flat_index]):
                skipped += 1
                continue
            fd = (term(flat_index, h) - term(flat_index, -h)) / (2 * h)
            analytic = float(flat_grad[flat_index])
            if abs(fd) < 1e-9 and abs(analytic) < 1e-9:
                continue
            worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-12))
            checked += 1
    return GradCheck(worst, skipped, checked)


def _kink_free_instance(rng: np.random.Generator, granularity: str):
    """Sample three task vectors whose alignment terms stay away from the
    hinge, so the loss is differentiable on the whole FD stencil."""
    shapes = {f"t{i}": int(rng.integers(3, 9)) for i in range(3)}
    while True:
        make = lambda: {name: rng.normal(0.0, 1.0, size=n) for name, n in shapes.items()}
        tau_t, tau_prev, tau_prev2 = make(), make(), make()
        clear = True
        for name in shapes:
            d_curr = tau_t[name] - tau_prev[name]
            d_prev = tau_prev[name] - tau_prev2[name]
            if granularity == "tensor":
                scale = float(np.linalg.norm(d_curr) * np.linalg.norm(d_prev))
                if abs(float(np.dot(d_curr, d_prev))) <= 1e-6 * max(scale, 1e-12):
                    clear = False
                if np.any(np.abs(np.dot(d_curr, d_prev)) <= 2e-5 * np.abs(d_prev) + 1e-7):
                    clear = False
            else:
                products = d_curr * d_prev
                if np.any(np.abs(products) <= np.maximum(2e-5 * np.abs(d_prev), 1e-7)):
                    clear = False
        if clear:
            return TaskVector(tau_t, "fp"), TaskVector(tau_prev, "fp"), TaskVector(tau_prev2, "fp")


def check_dc_gradient() -> str | None:
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    for granularity in GRANULARITIES:
        cfg = DcLossConfig(granularity)
        for _ in range(50):
            result = central_difference_check(*_kink_free_instance(rng, granularity), cfg)
            worst = max(worst, result.max_rel_error)
            checked += result.checked
    failures = []
    if not worst <= _GRAD_RTOL:
        failures.append(
            f"worst relative error {worst:.3e} over {checked} probes exceeds {_GRAD_RTOL:g}"
        )
    if checked < 100:
        failures.append(f"only {checked} probes compared, fewer than 100")
    # aligned successive updates cost exactly zero
    direction = np.random.default_rng(5).normal(size=32)
    tau_prev2 = TaskVector({"w": np.zeros(32)}, "fp")
    tau_prev = TaskVector({"w": direction * 1.0}, "fp")
    tau_t = TaskVector({"w": direction * 1.7}, "fp")
    for granularity in GRANULARITIES:
        loss = dc_loss(tau_t, tau_prev, tau_prev2, DcLossConfig(granularity))
        if loss != 0.0:
            failures.append(f"aligned updates cost {loss!r} at {granularity} granularity, not 0")
    return "; ".join(failures) or None


# --- criterion 5: distillation-loss properties ---


def check_distillation() -> str | None:
    rng = np.random.default_rng(99)
    failures = []
    nonzero_loss = 0.0
    for _ in range(25):
        batch = PredictionBatch(rng.normal(size=(8, 5)), rng.normal(size=(6, 4)))
        for loss, _ in (distill_cls_loss(batch, batch), distill_bbox_loss(batch, batch)):
            if loss != 0.0:
                nonzero_loss = loss
    if nonzero_loss != 0.0:
        failures.append(f"identical batches gave a loss of {nonzero_loss!r}, not 0")
    min_kl = math.inf
    for _ in range(1000):
        m = int(rng.integers(1, 12))
        k = int(rng.integers(2, 8))
        old = PredictionBatch(np.zeros((1, 1)), rng.normal(0.0, 2.0, size=(m, k)))
        curr = PredictionBatch(np.zeros((1, 1)), rng.normal(0.0, 2.0, size=(m, k)))
        min_kl = min(min_kl, distill_bbox_loss(curr, old)[0])
    if not min_kl >= -1e-12:
        failures.append(f"min KL {min_kl:.3e} is negative")
    threshold = percentile_75([0.1, 0.2, 0.3, 0.9])
    old = PredictionBatch([[0.1], [0.2], [0.3], [0.9]], [[0.0, 0.0]])
    curr = PredictionBatch([[0.1], [0.2], [0.3], [1.9]], [[0.0, 0.0]])
    loss, mask_size = distill_cls_loss(curr, old)
    if not (abs(threshold - 0.45) <= 1e-9 and mask_size == 1 and abs(loss - 1.0) <= 1e-12):
        failures.append(
            f"percentile fixture gave threshold {threshold}, mask {mask_size}, loss {loss!r}"
        )
    return "; ".join(failures) or None


# --- criterion 7: serialization property test ---


def check_serialization() -> str | None:
    rng = np.random.default_rng(123)
    iterations = 10_000
    for iteration in range(iterations):
        tensor_map = {}
        for i in range(int(rng.integers(1, 4))):
            dtype = np.float32 if rng.integers(2) else np.float64
            shape = tuple(int(s) for s in rng.integers(0, 5, size=int(rng.integers(0, 3))))
            tensor_map[f"t{i}"] = rng.normal(size=shape).astype(dtype)
        blob = serialize_checkpoint(tensor_map)
        loaded, fp = parse_checkpoint(blob)
        if serialize_checkpoint(loaded) != blob or fingerprint_map(loaded) != fp:
            return f"roundtrip {iteration} of {iterations} is not byte-identical"
    reference = {
        "a": np.array([[1, 2], [3, 4]], dtype=np.float32),
        "b": np.array([0.5, -0.25], dtype=np.float64),
        "empty": np.zeros((0, 3), dtype=np.float32),
        "scalar": np.array(7.0, dtype=np.float64),
    }
    got = fingerprint_map(reference)
    if got != REFERENCE_FINGERPRINT:
        return f"reference map fingerprint {got} != frozen {REFERENCE_FINGERPRINT}"
    return None


# --- criterion 8: CLI determinism ---


def _determinism_argvs(tmp: Path) -> list[list]:
    """Every subcommand once, with inputs and outputs under ``tmp``."""
    trio = materialize_trio(tmp / "trio")
    preds = tmp / "preds.json"
    rng = np.random.default_rng(8)
    preds.write_text(
        json.dumps(
            {
                "class_logits": rng.normal(size=(6, 4)).tolist(),
                "bbox_values": rng.normal(size=(5, 4)).tolist(),
            }
        )
    )
    base, task1, task2 = trio["base"], trio["task1"], trio["task2"]
    part = ["--partition", trio["partition"]]
    tv_old, tv_curr, merged = tmp / "tv_old", tmp / "tv_curr", tmp / "merged.st"
    vectors = ["--tv", tv_old, "--tv", tv_curr]
    return [
        ["task-vector", base, task1, *part, "--label", "old", "-o", tv_old],
        ["task-vector", base, task2, *part, "--label", "curr", "-o", tv_curr],
        ["merge", "duet", base, "--old", tv_old, "--curr", tv_curr, "-o", merged,
         "--report", tmp / "report.json"],
        ["merge", "average", base, *vectors, "-o", tmp / "avg.st"],
        ["merge", "magmax", base, *vectors, "-o", tmp / "mm.st"],
        ["head-concat", task1, task2, *part, "-o", tmp / "head.st"],
        ["sequence", base, task1, task2, *part, "-o", tmp / "seq"],
        ["dc-loss", "--t", tv_curr, "--prev", tv_old, "--grad-check"],
        ["distill", "--curr", preds, "--old", preds],
        ["diagnose", "signs", "--old", tv_old, "--curr", tv_curr],
        ["diagnose", "signs", "--old", tv_old, "--curr", tv_curr, "--format", "csv"],
        ["diagnose", "distance", "--merged", merged, "--old", task1, "--curr", task2, *part],
        ["metrics", "--protocol", protocol_path(), "--records", records_path("duet"),
         "-o", tmp / "metrics.json"],
    ]


def _collect(argv: list, tmp: Path) -> tuple[str, dict]:
    """Run one CLI call; return its stdout and the bytes of every file under ``tmp``."""
    argv = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"duet {' '.join(argv[:2])} exited {code}: {err.getvalue().strip()}")
    files = sorted(path for path in tmp.rglob("*") if path.is_file())
    return out.getvalue(), {str(path): path.read_bytes() for path in files}


def check_cli_determinism() -> str | None:
    failures = []
    with tempfile.TemporaryDirectory() as tmp_dir:
        tmp = Path(tmp_dir)
        try:
            for argv in _determinism_argvs(tmp):
                first = _collect(argv, tmp)
                if _collect(argv, tmp) != first:
                    failures.append(f"rerun differs: {argv[0]} {argv[1]}")
                if argv[0] in ("merge", "sequence"):
                    for threads in ("2", "4"):
                        if _collect(argv + ["--threads", threads], tmp) != first:
                            failures.append(f"--threads {threads} differs: {argv[0]} {argv[1]}")
        except RuntimeError as exc:
            failures.append(str(exc))
    return "; ".join(failures) or None


def run() -> int:
    """Run every release check, print one PASS/FAIL line per check, and
    return the exit code (1 if any check failed)."""
    merge_suite = cache(run_merge_suite)
    checks = [
        ("criterion 1: merge output matches the direct-formula oracle on 50 random instances",
         lambda: check_merge_oracle(merge_suite())),
        ("criterion 2: alpha+beta=1 exactly, alpha within the gamma band, delta=gamma*tanh(p)",
         lambda: check_coefficient_invariants(merge_suite())),
        ("criterion 3: bundled benchmark rows reproduce Avg RI, Avg GI and RAI within 0.02",
         check_metric_rows),
        ("criterion 4: analytic DC gradient matches central differences to 1e-4",
         check_dc_gradient),
        ("criterion 5: distillation identities, KL non-negativity, percentile mask fixture",
         check_distillation),
        ("criterion 7: 10k write/read roundtrips byte-identical; fingerprint frozen",
         check_serialization),
        ("criterion 8: every CLI subcommand is rerun- and thread-count-deterministic",
         check_cli_determinism),
    ]
    failures = 0
    for title, check in checks:
        try:
            problem = check()
        except Exception as exc:  # a crashing check is a failing check
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem is None:
            print(f"PASS {title}")
        else:
            failures += 1
            print(f"FAIL {title}: {problem}")
    return 1 if failures else 0
