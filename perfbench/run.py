"""Benchmark of the duet toolkit: seeded inputs, one fresh process per iteration.

Run from the root of a checkout::

    python3 perfbench/run.py                                  # every workload
    python3 perfbench/run.py --workload seq-yolo --seed 3 --seconds 15 --trace 0

For each workload the run generates its inputs from ``--seed`` (untimed),
times how long a fresh interpreter takes to import ``duet`` and build the CLI
parser, then runs iterations back to back until ``--seconds`` are measured:
each iteration is a fresh child process that calls ``duet.cli.main`` for the
workload's operations (see ``child.py``).
Afterwards every output is checked against oracles written independently of
the program (``verify.py``).  Human-readable lines go to stdout first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
(from a traced run, see ``tracing.py``) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import verify

HERE = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "mparams_per_s": "Mparam/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "peak_rss_per_S": "ratio",
}

# Per-layer metrics every workload exercises; the rest are printed only.
PER_LAYER = (
    "checkpoint.open_s", "checkpoint.classify_s", "checkpoint.load_s", "checkpoint.load_mb",
    "checkpoint.fingerprint_s", "checkpoint.hashed_mb", "checkpoint.write_s",
    "checkpoint.write_mb", "checkpoint.read_amplification", "checkpoint.hash_per_io",
    "tensors.l1_norm_s", "tensors.l1_norm_calls", "tensors.l1_norm_gbps",
    "merge.self_s", "merge.layers", "merge.head_concat_s",
    "diagnostics.sign_conflicts_s", "diagnostics.sign_conflicts_calls",
    "cli.report_s", "cli.report_mb", "cli.self_s", "trace.overhead_frac",
)

SETUP_PROBES = 7
# Iterations stop being started after this; verification must fit in the rest
# of the 180 seconds a run may take.
ITERATIONS_DEADLINE_S = 150.0
_SETUP_PROBE = (
    "import time; t = time.perf_counter(); import duet.cli; duet.cli.build_parser(); "
    "print(time.perf_counter() - t)"
)


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_gbps"):
        return "GB/s"
    if metric.endswith(("_calls", ".layers")):
        return "count"
    return "ratio"


def build_ops(workload: str, files: dict, out: Path) -> list[dict]:
    """The workload's CLI calls: name, argv, output files, whether stdout is checked."""
    part = files["partition"]
    if workload.startswith("seq-"):
        seq = out / "seq"
        outputs = [str(seq / f"task{k:02d}.safetensors") for k in range(1, len(files["tasks"]) + 1)]
        outputs += [str(seq / f"task{k:02d}.report.json") for k in range(2, len(files["tasks"]) + 1)]
        return [{"name": "sequence", "outputs": outputs,
                 "argv": ["sequence", files["base"], *files["tasks"], "--partition", part,
                          "-o", str(seq)]}]
    base, (ft1, ft2) = files["base"], files["tasks"]
    tv1, tv2 = str(out / "tv1"), str(out / "tv2")
    threads = ["--threads", "2"]

    def op(name, argv, outputs=(), check_stdout=False):
        return {"name": name, "argv": [*argv, *threads], "check_stdout": check_stdout,
                "outputs": [str(out / o) for o in outputs]}

    ops = [
        op("task-vector-1", ["task-vector", base, ft1, "--partition", part, "--label", "t1",
                             "-o", tv1], ["tv1/deltas.safetensors", "tv1/meta.json"]),
        op("task-vector-2", ["task-vector", base, ft2, "--partition", part, "--label", "t2",
                             "-o", tv2], ["tv2/deltas.safetensors", "tv2/meta.json"]),
        op("merge-duet", ["merge", "duet", base, "--old", tv1, "--curr", tv2,
                          "-o", str(out / "merged_duet.safetensors"),
                          "--report", str(out / "merge.report.json")],
           ["merged_duet.safetensors", "merge.report.json"]),
        op("merge-average", ["merge", "average", base, "--tv", tv1, "--tv", tv2,
                             "-o", str(out / "merged_average.safetensors")],
           ["merged_average.safetensors"]),
        op("merge-magmax", ["merge", "magmax", base, "--tv", tv1, "--tv", tv2,
                            "-o", str(out / "merged_magmax.safetensors")],
           ["merged_magmax.safetensors"]),
        op("head-concat", ["head-concat", ft1, ft2, "--partition", part,
                           "-o", str(out / "head.safetensors")], ["head.safetensors"]),
        op("diagnose-signs", ["diagnose", "signs", "--old", tv1, "--curr", tv2,
                              "--preset", "updates", "-o", str(out / "signs.json")],
           ["signs.json"]),
        op("diagnose-distance", ["diagnose", "distance",
                                 "--merged", str(out / "merged_duet.safetensors"),
                                 "--old", ft1, "--curr", ft2, "--partition", part,
                                 "-o", str(out / "distance.json")], ["distance.json"]),
        op("dc-loss", ["dc-loss", "--t", tv2, "--prev", tv1], check_stdout=True),
        op("distill", ["distill", "--curr", files["pred_curr"], "--old", files["pred_old"]],
           check_stdout=True),
    ]
    fixtures = Path("src/duet/fixtures/metrics")
    for method in json.loads((fixtures / "expected.json").read_text()):
        ops.append(op(f"metrics-{method}", [
            "metrics", "--protocol", str(fixtures / "protocol_weather_two_phase.json"),
            "--records", str(fixtures / f"records_{method}.jsonl"),
            "-o", str(out / f"metrics_{method}.json")], [f"metrics_{method}.json"]))
    return ops


def merged_params(workload: str, manifest: dict) -> int:
    """Shared parameters in the merged outputs one iteration writes."""
    merges = len(manifest["files"]["tasks"]) - 1 if workload.startswith("seq-") else 3
    return merges * manifest["shared_params"]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env.pop("DUET_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict) -> list[float]:
    """Seconds a fresh interpreter takes to import duet and build the parser."""
    times = []
    for probe in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, "-c", _SETUP_PROBE], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        if probe:  # the first probe also writes bytecode caches
            times.append(float(done.stdout.strip()))
    return times


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def run_iterations(ops: list[dict], seconds: int, trace: bool, work: Path, env: dict,
                   root: Path, deadline: float, request: dict) -> list[dict]:
    """The closed loop: one fresh child per iteration until ``seconds`` are measured.

    An untimed warm-up iteration comes first: it creates the output files and
    pulls the inputs into the page cache, which only the first pass after
    generation pays.  With tracing, untraced and traced iterations alternate,
    each pair in the opposite order of the one before.
    """
    iterations: list[dict] = []

    def run_child(kind: str):
        index = len(iterations)
        child_request = dict(request, ops=ops, trace=kind == "traced",
                             result_path=str(work / f"result{index}.json"),
                             spans_path=str(work / f"spans{index}.jsonl.gz"),
                             run_id=f"{request['run_id']}-iter{index}")
        request_path = work / f"request{index}.json"
        request_path.write_text(json.dumps(child_request))
        done = subprocess.run([sys.executable, str(HERE / "child.py"), str(request_path)],
                              env=env, cwd=root, timeout=deadline - time.monotonic())
        if done.returncode != 0:
            raise RuntimeError(f"child exited with {done.returncode}")
        result = json.loads(Path(child_request["result_path"]).read_text())
        result["kind"] = kind
        result["spans_path"] = child_request["spans_path"]
        iterations.append(result)
        return result["wall_s"]

    run_child("warmup")
    measured = 0.0
    pair = 0
    while measured < seconds:
        if not trace:
            kinds = ("timed",)
        else:
            kinds = ("untraced", "traced") if pair % 2 == 0 else ("traced", "untraced")
        for kind in kinds:
            measured += run_child(kind)
        pair += 1
    return iterations


def run_workload(workload: str, seed: int, seconds: int, trace: bool, root: Path,
                 spans_dir: Path) -> dict:
    """Generate, run and verify one workload; returns the result object."""
    start = time.monotonic()
    work = root / ".perfbench_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        manifest = inputs.generate(workload, seed, work / "inputs")
        phases = {"generate": time.monotonic() - start}
        files = manifest["files"]
        print(f"# {workload} seed {seed}: S {manifest['S_bytes'] / 1e6:.1f} MB, "
              f"{manifest['shared_tensors']} shared tensors, "
              f"{manifest['shared_params'] / 1e6:.2f}M shared params, "
              f"{manifest['input_bytes'] / 1e6:.1f} MB input", flush=True)
        env = child_env(root)
        setup = measure_setup(env)
        phases["setup probes"] = time.monotonic() - start - sum(phases.values())
        out = work / "out"
        out.mkdir()
        ops = build_ops(workload, files, out)
        request = {"input_bytes": manifest["input_bytes"], "run_id": f"{workload}-seed{seed}"}
        iterations = run_iterations(ops, seconds, trace, work, env, root,
                                    start + ITERATIONS_DEADLINE_S, request)
        phases["children"] = time.monotonic() - start - sum(phases.values())

        if workload.startswith("seq-"):
            problems = {"sequence": verify.guarded(
                lambda: verify.check_sequence(files, out / "seq"))}
        else:
            stdout = {op["name"]: s for op, s in zip(ops, iterations[-1]["stdout"]) if s}
            problems = verify.check_bundle_ops(files, out, stdout, root / "src/duet/fixtures/metrics")
        phases["verify"] = time.monotonic() - start - sum(phases.values())
        print("run phases (s): " + ", ".join(f"{k} {v:.2f}" for k, v in phases.items()))
        failed = 0
        for it in iterations:
            for j, op in enumerate(ops):
                bad = (it["codes"][j] != 0 or it["fingerprints"][j] != iterations[-1]["fingerprints"][j]
                       or problems.get(op["name"]))
                failed += bool(bad)
                if it["codes"][j] != 0:
                    print(f"! {op['name']} exited {it['codes'][j]}: {it['stderr'][j].strip()}")
        for name, msgs in problems.items():
            for msg in msgs[:5]:
                print(f"! {name}: {msg}")
        attempted = len(ops) * len(iterations)
        print(f"failed_frac {failed / attempted} (failed {failed} of {attempted} operations)")

        if trace:
            spans_dir.mkdir(exist_ok=True)
            # Gzip members concatenate into one valid gzip file.
            with open(spans_dir / f"spans-{workload}-seed{seed}.jsonl.gz", "wb") as fh:
                for it in iterations:
                    if it["kind"] == "traced":
                        fh.write(Path(it["spans_path"]).read_bytes())
            metrics = traced_metrics(iterations)
        else:
            metrics = untraced_metrics(workload, manifest, setup, iterations)
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def untraced_metrics(workload: str, manifest: dict, setup: list[float], iterations: list[dict]) -> dict:
    iterations = [it for it in iterations if it["kind"] == "timed"]
    walls = [it["wall_s"] for it in iterations]
    params = merged_params(workload, manifest)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "mparams_per_s": statistics.median(params / 1e6 / w for w in walls),
        "cpu_s": statistics.median(it["cpu_s"] for it in iterations),
        "peak_rss_mb": statistics.median(it["peak_rss_bytes"] / 1e6 for it in iterations),
        "peak_rss_per_S": statistics.median(
            (it["peak_rss_bytes"] - it["rss_after_setup_bytes"]) / manifest["S_bytes"]
            for it in iterations),
    }
    print(f"setup_s: median of {len(setup)} fresh interpreters {[round(t, 4) for t in setup]}")
    print(f"other metrics: median of {len(walls)} timed iterations after a warm-up, one fresh "
          f"process each; wall "
          f"{[round(w, 4) for w in walls]}, cpu {[round(it['cpu_s'], 4) for it in iterations]}, "
          f"peak MB {[round(it['peak_rss_bytes'] / 1e6, 1) for it in iterations]}")
    high = tail(walls)
    if high:
        print(f"wall_s_tail {high[1]} s at p{high[0]:.1f} ({len(walls)} samples, 10 beyond)")
    else:
        print(f"wall_s_tail n/a: {len(walls)} samples, a tail needs 11 or more")
    for name, value in values.items():
        print(f"{name} {value} {END_TO_END[name]}")
    return {name: {"value": value, "unit": END_TO_END[name]} for name, value in values.items()}


def traced_metrics(iterations: list[dict]) -> dict:
    untraced = [it["wall_s"] for it in iterations if it["kind"] == "untraced"]
    traced = [it for it in iterations if it["kind"] == "traced"]
    overhead = statistics.median(it["wall_s"] for it in traced) / statistics.median(untraced) - 1.0
    values = {name: statistics.median(it["layers"][name] for it in traced)
              for name in traced[0]["layers"]}
    values["trace.overhead_frac"] = overhead
    print(f"per-layer values: median of {len(traced)} traced iterations "
          f"({len(untraced)} untraced iterations alternate with them)")
    for name in sorted(values):
        if values[name] or name in PER_LAYER:  # skip layers this workload does not run
            print(f"{name} {values[name]} {unit_of(name)}")
    for it in traced:
        print(f"self times add up to {it['layers']['trace.self_sum_s']} s "
              f"of traced wall {it['layers']['trace.wall_s']} s")
    return {name: {"value": values[name], "unit": unit_of(name)} for name in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "duet" / "__init__.py").is_file():
        print("perfbench: run from the root of a duet checkout (src/duet is missing)",
              file=sys.stderr)
        return 2
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                         root, root / ".perfbench_out")
    if len(results) == 1:
        result = results[workloads[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
