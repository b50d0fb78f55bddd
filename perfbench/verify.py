"""Oracles for the workloads' outputs, written independently of ``duet``.

Every check works from the generated inputs and the files the program wrote,
reads containers with :func:`inputs.read_container`, and recomputes results
in float64 with plain numpy.  Each check returns a list of mismatch messages;
an empty list means the output is correct.

Float outputs are stored as float32, so a merged element may differ from the
float64 formula by the rounding of the stored deltas and of the final cast.
The tolerance is four float32 half-ulps of the magnitudes that enter the sum,
far below any corruption of an element's sign or of its block position.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from inputs import PARTITION, hash_file, read_container

GAMMA, ALPHA_BASE, EPSILON = 0.1, 0.5, 1e-8
_F32_HALF_ULP = 2.0 ** -24
_ALPHA_TOL = 1e-6
_REL_TOL = 1e-9


def _is_shared(name: str) -> bool:
    return any(name.startswith(p[:-1]) for p in PARTITION["shared"])


def _is_replace(name: str) -> bool:
    return any(name.startswith(p[:-1]) for p in PARTITION["replace"])


def _f64(arr: np.ndarray) -> np.ndarray:
    return arr.astype(np.float64)


def duet_coefficient(tau_old: np.ndarray, tau_curr: np.ndarray) -> float:
    """alpha of one layer from the L1-norm imbalance of its two deltas."""
    norm_old = float(np.abs(tau_old).sum())
    norm_curr = float(np.abs(tau_curr).sum())
    norm_sum = float(np.abs(tau_old + tau_curr).sum())
    p = (norm_old - norm_curr) / (norm_sum + EPSILON)
    delta = min(max(GAMMA * math.tanh(p), -GAMMA), GAMMA)
    return ALPHA_BASE + delta


def _close(name: str, got: np.ndarray, want: np.ndarray, scale: np.ndarray) -> list[str]:
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    err = np.abs(_f64(got) - want)
    bad = err > 4 * _F32_HALF_ULP * scale
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return [f"{name}: {int(bad.sum())} elements off the float64 formula "
                f"(first at flat index {i}: {got.reshape(-1)[i]!r} vs {want.reshape(-1)[i]!r})"]
    return []


def _rel_close(what: str, got: float, want: float) -> list[str]:
    if not abs(got - want) <= _REL_TOL * max(abs(got), abs(want), 1e-12):
        return [f"{what}: {got!r} != {want!r}"]
    return []


def check_duet_layer(name, out, base, tau_old, tau_curr, report_alpha=None) -> list[str]:
    """One merged layer (and optionally its reported alpha) against the formula."""
    alpha = duet_coefficient(tau_old, tau_curr)
    want = base + alpha * tau_old + (1.0 - alpha) * tau_curr
    problems = _close(name, out, want, np.abs(base) + np.abs(tau_old) + np.abs(tau_curr))
    if report_alpha is not None and not abs(report_alpha - alpha) <= _ALPHA_TOL:
        problems.append(f"{name}: reported alpha {report_alpha!r}, formula gives {alpha!r}")
    return problems


def _check_head(label, name, out, curr, prev) -> list[str]:
    if _is_replace(name):
        want = curr
    else:
        want = np.concatenate([curr, prev], axis=PARTITION["head_concat_axis"])
    if out.shape != want.shape or not np.array_equal(out, want):
        kind = "replace stem" if _is_replace(name) else "concatenated head"
        return [f"{label}: {kind} differs from the current-first expectation"]
    return []


def check_sequence(files: dict, out_dir: Path) -> list[str]:
    """``duet sequence`` outputs: task 1 verbatim, later tasks merged + concatenated."""
    base = read_container(Path(files["base"]))
    shared = [name for name in base if _is_shared(name)]
    problems: list[str] = []
    prev = None
    for k, task_path in enumerate(files["tasks"], start=1):
        ft = read_container(Path(task_path))
        out_path = out_dir / f"task{k:02d}.safetensors"
        if not out_path.exists():
            return problems + [f"{out_path.name}: missing"]
        out = read_container(out_path)
        heads = [name for name in ft if not _is_shared(name)]
        if list(out) != (list(ft) if k == 1 else shared + heads):
            problems.append(f"{out_path.name}: tensor names or order differ")
            return problems
        if k == 1:
            for name in ft:
                if not np.array_equal(out[name], ft[name]):
                    problems.append(f"{out_path.name}:{name}: task 1 is not passed through")
        else:
            report = json.loads((out_dir / f"task{k:02d}.report.json").read_text())
            layers = report["layers"]
            if [layer["layer_name"] for layer in layers] != shared:
                problems.append(f"task{k:02d}.report.json: layer records differ from shared names")
                layers = [None] * len(shared)
            for name, layer in zip(shared, layers):
                b = _f64(base[name])
                # The old vector rolls forward: previous merged output minus base.
                problems += check_duet_layer(
                    f"{out_path.name}:{name}", out[name], b, _f64(prev[name]) - b,
                    _f64(ft[name]) - b, None if layer is None else layer["alpha"])
            for name in heads:
                problems += _check_head(f"{out_path.name}:{name}", name, out[name], ft[name],
                                        prev[name])
        prev = out
    return problems


def _check_bundle(bundle: Path, base: dict, ft: dict, base_sha: str, label: str) -> list[str]:
    meta = json.loads((bundle / "meta.json").read_text())
    problems = []
    if meta.get("base_fingerprint") != base_sha or meta.get("label") != label:
        problems.append(f"{bundle.name}/meta.json: base fingerprint or label wrong")
    deltas = read_container(bundle / "deltas.safetensors")
    shared = [name for name in base if _is_shared(name)]
    if list(deltas) != shared:
        return problems + [f"{bundle.name}: delta names differ from the shared partition"]
    for name in shared:
        want = (_f64(ft[name]) - _f64(base[name])).astype(base[name].dtype)
        if not np.array_equal(deltas[name], want):
            problems.append(f"{bundle.name}:{name}: delta is not fine-tuned minus base")
    return problems


def distill_oracle(curr_path: Path, old_path: Path) -> dict:
    curr, old = read_container(curr_path), read_container(old_path)
    c_cls, o_cls = _f64(curr["class_logits"]), _f64(old["class_logits"])
    row_max = o_cls.max(axis=1)
    mask = row_max >= np.percentile(row_max, 75)
    cls_loss = float(((c_cls[mask] - o_cls[mask]) ** 2).sum(axis=1).mean())
    c_box, o_box = _f64(curr["bbox_values"]), _f64(old["bbox_values"])
    var = o_box.var(axis=1)
    bmask = var <= np.percentile(var, 75)

    def log_softmax(x):
        x = x - x.max(axis=1, keepdims=True)
        return x - np.log(np.exp(x).sum(axis=1, keepdims=True))

    log_p, log_q = log_softmax(c_box[bmask]), log_softmax(o_box[bmask])
    bbox_loss = float((np.exp(log_p) * (log_p - log_q)).sum(axis=1).mean())
    return {"cls_loss": cls_loss, "cls_mask_size": int(mask.sum()),
            "bbox_loss": bbox_loss, "bbox_mask_size": int(bmask.sum())}


def check_bundle_ops(files: dict, out_dir: Path, stdout: dict, fixtures: Path) -> dict[str, list[str]]:
    """Problems per operation name of the ``bundle-ops`` workload.

    A check that cannot read its output (missing or malformed file) reports
    that as the operation's problem instead of stopping the other checks.
    """
    base = read_container(Path(files["base"]))
    ft1, ft2 = (read_container(Path(p)) for p in files["tasks"])
    base_sha = hash_file(files["base"], hashlib.sha256()).hexdigest()
    shared = [name for name in base if _is_shared(name)]
    vectors: dict[str, dict] = {}

    def task_vector(label: str, ft: dict) -> list[str]:
        problems = _check_bundle(out_dir / f"tv{label[1]}", base, ft, base_sha, label)
        vectors[label] = read_container(out_dir / f"tv{label[1]}" / "deltas.safetensors")
        return problems

    def merged_layers(file_name: str, per_layer) -> list[str]:
        merged = read_container(out_dir / file_name)
        if list(merged) != shared:
            return [f"{file_name}: tensor names or order differ from the shared partition"]
        problems = []
        for name in shared:
            problems += per_layer(f"{file_name}:{name}", name, merged[name], _f64(base[name]))
        return problems

    def merge_duet() -> list[str]:
        report = json.loads((out_dir / "merge.report.json").read_text())
        if [layer["layer_name"] for layer in report["layers"]] != shared:
            return ["merge.report.json: layer records differ from the shared names"]
        alphas = {layer["layer_name"]: layer["alpha"] for layer in report["layers"]}
        return merged_layers("merged_duet.safetensors", lambda label, name, out, b: check_duet_layer(
            label, out, b, _f64(ft1[name]) - b, _f64(ft2[name]) - b, alphas[name]))

    def merge_average() -> list[str]:
        def layer(label, name, out, b):
            t1, t2 = _f64(vectors["t1"][name]), _f64(vectors["t2"][name])
            return _close(label, out, b + 0.5 * (t1 + t2), np.abs(b) + np.abs(t1) + np.abs(t2))
        return merged_layers("merged_average.safetensors", layer)

    def merge_magmax() -> list[str]:
        def layer(label, name, out, b):
            t1, t2 = vectors["t1"][name], vectors["t2"][name]
            best = _f64(np.where(np.abs(t2) > np.abs(t1), t2, t1))  # ties keep the first
            return _close(label, out, b + best, np.abs(b) + np.abs(best))
        return merged_layers("merged_magmax.safetensors", layer)

    def head_concat() -> list[str]:
        head = read_container(out_dir / "head.safetensors")
        names = [name for name in ft2 if not _is_shared(name)]
        if list(head) != names:
            return ["head.safetensors: tensor names or order differ"]
        return [p for name in names for p in _check_head(f"head.safetensors:{name}", name, head[name],
                                                         ft2[name], ft1[name])]

    def diagnose_signs() -> list[str]:
        signs = json.loads((out_dir / "signs.json").read_text())
        problems = []
        total = [0, 0]
        for name in shared:
            left = _f64(vectors["t2"][name]) - _f64(vectors["t1"][name])
            right = _f64(vectors["t1"][name])
            both = (left != 0) & (right != 0)
            counts = [int((both & ((left > 0) != (right > 0))).sum()), int(both.sum())]
            entry = signs["per_tensor"].get(name, {})
            if [entry.get("conflicts"), entry.get("comparable")] != counts:
                problems.append(f"signs.json:{name}: counts differ from the oracle")
            total = [total[0] + counts[0], total[1] + counts[1]]
        if [signs["total_conflicts"], signs["total_comparable"]] != total:
            problems.append("signs.json: totals differ from the oracle")
        return problems

    def diagnose_distance() -> list[str]:
        distance = json.loads((out_dir / "distance.json").read_text())
        merged = read_container(out_dir / "merged_duet.safetensors")
        order = sorted(shared)
        flat_m = np.concatenate([_f64(merged[n]).reshape(-1) for n in order])
        problems = []
        for key, ref in (("old", ft1), ("curr", ft2)):
            flat_r = np.concatenate([_f64(ref[n]).reshape(-1) for n in order])
            l2 = float(np.sqrt(((flat_m - flat_r) ** 2).sum()))
            cos = float(flat_m @ flat_r) / (
                float(np.sqrt(flat_m @ flat_m)) * float(np.sqrt(flat_r @ flat_r)) + 1e-12)
            problems += _rel_close(f"distance l2_to_{key}", distance[f"l2_to_{key}"], l2)
            problems += _rel_close(f"distance cos_to_{key}", distance[f"cos_to_{key}"], cos)
        return problems

    def dc_loss() -> list[str]:
        loss = 0.0
        for name in shared:
            t1, t2 = _f64(vectors["t1"][name]), _f64(vectors["t2"][name])
            loss += max(-float(((t2 - t1) * t1).sum()), 0.0)
        return _rel_close("dc-loss", json.loads(stdout["dc-loss"])["loss"], loss)

    def distill() -> list[str]:
        got = json.loads(stdout["distill"])
        want = distill_oracle(Path(files["pred_curr"]), Path(files["pred_old"]))
        problems = []
        for key in ("cls_loss", "bbox_loss"):
            problems += _rel_close(f"distill {key}", got[key], want[key])
        for key in ("cls_mask_size", "bbox_mask_size"):
            if got[key] != want[key]:
                problems.append(f"distill {key}: {got[key]} != {want[key]}")
        return problems

    def metrics(method: str, values: dict) -> list[str]:
        report = json.loads((out_dir / f"metrics_{method}.json").read_text())
        return [f"metrics {method} {key}: {report[key]!r} vs expected {values[key]!r}"
                for key in ("avg_ri", "avg_gi", "rai") if not abs(report[key] - values[key]) <= 0.02]

    checks = {
        "task-vector-1": lambda: task_vector("t1", ft1),
        "task-vector-2": lambda: task_vector("t2", ft2),
        "merge-duet": merge_duet,
        "merge-average": merge_average,
        "merge-magmax": merge_magmax,
        "head-concat": head_concat,
        "diagnose-signs": diagnose_signs,
        "diagnose-distance": diagnose_distance,
        "dc-loss": dc_loss,
        "distill": distill,
    }
    expected = json.loads((fixtures / "expected.json").read_text())
    for method, values in expected.items():
        checks[f"metrics-{method}"] = lambda m=method, v=values: metrics(m, v)
    return {name: guarded(check) for name, check in checks.items()}


def guarded(check) -> list[str]:
    """Run one check; an output it cannot read is that output's problem."""
    try:
        return check()
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
