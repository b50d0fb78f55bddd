"""One iteration of a workload in a fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/child.py REQUEST.json``, once per
iteration, the way a user starts ``duet`` once per command.  The request
names the workload's operations (``duet`` CLI argument lists) and whether to
trace.  The child imports ``duet``, builds its parser, then calls
``duet.cli.main`` for each operation back to back.  It records wall time,
CPU time and peak RSS of the iteration, then fingerprints the outputs outside
the timed region, and writes all of it to the result path in the request.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import duet.cli
from inputs import hash_file
from tracing import Tracer, layer_metrics


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _rchar() -> int:
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    raise RuntimeError("rchar missing from /proc/self/io")


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _fingerprint(stdout: str, paths: list[str]) -> str:
    digest = hashlib.sha256(stdout.encode("utf-8"))
    for path in paths:
        hash_file(path, digest)
    return digest.hexdigest()


def run_iteration(ops: list[dict], tracer: Tracer | None = None) -> dict:
    """Run every operation once; returns wall, CPU and per-op exit codes."""
    codes, outs, errs = [], [], []
    cpu0 = _cpu_s()
    start = time.perf_counter()
    root = tracer.root() if tracer else None
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        token = tracer.begin() if tracer else None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = duet.cli.main(op["argv"])
            except Exception as exc:  # a crash counts as a failed operation
                print(f"{type(exc).__name__}: {exc}", file=err)
                code = -1
        if tracer:
            tracer.end(token, f"cli.{op['name']}")
        codes.append(code)
        outs.append(out.getvalue())
        errs.append(err.getvalue())
    if tracer:
        tracer.end(root, "iteration")
    wall = time.perf_counter() - start
    return {"wall_s": wall, "cpu_s": _cpu_s() - cpu0, "codes": codes, "stdout": outs,
            "stderr": errs}


def main(request_path: str) -> int:
    request = json.loads(Path(request_path).read_text())
    ops = request["ops"]
    duet.cli.build_parser()
    rss_after_setup = _rss_bytes()
    tracer = None
    if request["trace"]:
        tracer = Tracer()
        tracer.install()
        rchar0 = _rchar()
    result = run_iteration(ops, tracer)
    result["peak_rss_bytes"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    result["rss_after_setup_bytes"] = rss_after_setup
    if tracer:
        result["layers"] = layer_metrics(tracer.spans, tracer.counters, _rchar() - rchar0,
                                         request["input_bytes"])
        with gzip.open(request["spans_path"], "wt", compresslevel=1) as fh:
            for span in tracer.spans:
                fh.write(json.dumps([request["run_id"], *span]) + "\n")
    result["fingerprints"] = [_fingerprint(s, op["outputs"]) for s, op in zip(result["stdout"], ops)]
    # Keep stdout only where a verifier reads it, and stderr only on failure.
    result["stdout"] = [s if op.get("check_stdout") else "" for s, op in zip(result["stdout"], ops)]
    result["stderr"] = [e if c != 0 else "" for e, c in zip(result["stderr"], result["codes"])]
    Path(request["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
