"""One fresh process that sets up a workload and measures it.

Started by run.py, which passes --t0, the monotonic clock reading taken just
before this process was spawned, so set-up time runs from process start to
the first timed op. One caller, closed loop: each op starts when the
previous one has returned. Ops run in whole passes over the workload's
fixed op list.

With --setup-only the process stops after the warm-up op and reports its
set-up time. Otherwise it prints one JSON line: the end-to-end figures
(--trace 0) or the per-layer figures from a run with every traced program
function wrapped (--trace 1), plus the environment.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import numpy as np  # noqa: E402

import bearing_rigidity  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# latency_tail_ms is taken at a fixed percentile per workload: the highest
# whole percentile with TAIL_BEYOND samples above it (nearest rank) once the
# run holds min_samples(pct) ops. A run makes whole passes until both
# --seconds of op time and that many samples are reached, so the percentile
# never depends on how fast the program is. A pass holds 14, 20 and 30 ops.
TAIL_PCT = {"analyze-large": 64, "augment-sparse": 64, "batch-mixed": 90}
TAIL_BEYOND = 10


def min_samples(pct: int) -> int:
    n = TAIL_BEYOND + 1
    while n - math.ceil(pct * n / 100) < TAIL_BEYOND:
        n += 1
    return n


def run_op(op, expected, tr: tracer.Tracer | None) -> tuple[float, list[str]]:
    """Time one op, traced when a tracer is given; check its output outside
    the timed and traced section."""
    if tr is not None:
        tr.begin_op()
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception:  # an op that raises is a failed op, not a failed run
        return time.perf_counter() - start, [traceback.format_exc(limit=2)]
    finally:
        elapsed = time.perf_counter() - start
        if tr is not None:
            tr.end_op()
    want = None if expected is None else expected.get(op.name)
    if expected is not None and want is None:
        return elapsed, ["no stored output for this op at the default seed"]
    try:
        return elapsed, op.check(out, want)
    except Exception:  # malformed output is a failed check
        return elapsed, [traceback.format_exc(limit=2)]


class Measurement:
    """Latencies per op and failures, gathered over whole passes."""

    def __init__(self, ops, expected, tr: tracer.Tracer | None = None):
        self.ops, self.expected, self.tr = ops, expected, tr
        self.latency: dict[str, list[float]] = {op.name: [] for op in ops}
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, list[str]] = {}
        self.passes = 0
        self.busy = 0.0

    def one(self, op) -> None:
        elapsed, problems = run_op(op, self.expected, self.tr)
        self.attempted += 1
        self.busy += elapsed
        self.latency[op.name].append(elapsed)
        if problems:
            self.failed += 1
            self.failures.setdefault(op.name, []).extend(problems)

    def run(self, seconds: float, min_ops: int) -> None:
        while self.attempted < min_ops or self.busy < seconds:
            for op in self.ops:
                self.one(op)
            self.passes += 1

    def items(self) -> int:
        """Frameworks (batch-mixed: files) processed by the timed ops."""
        return sum(op.items for op in self.ops) * self.passes


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics. Where the plain sample quantile is one sample, this
    weighs every sample near the quantile, so on a noisy machine one slow or
    fast sample moves it less. The Beta weights come from its density,
    integrated by the midpoint rule."""
    x = np.sort(np.asarray(samples, dtype=float))
    n, k = len(x), 200
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = (np.arange(n * k) + 0.5) / (n * k)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, k).sum(axis=1)
    return float(w @ x / w.sum())


def blas_info() -> dict:
    """BLAS library from numpy's build config and its live thread count."""
    info: dict = {"env_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["library"] = None
    import ctypes
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    info["threads"] = None
    return info


def environment(args) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "bearing_rigidity", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "cpu": cpu or platform.processor() or None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
    }


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(m: Measurement, setup_s: float, pct: int, attempted: int,
               failed: int) -> tuple[dict, dict]:
    samples = [x for v in m.latency.values() for x in v]
    tail_s = quantile(samples, pct / 100)
    metrics = {
        "items_per_s": (m.items() / m.busy, "1/s"),
        "latency_p50_ms": (quantile(samples, 0.5) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
    }
    detail = {"latency_tail_percentile": pct, "latency_samples": len(samples),
              "latency_samples_beyond_tail": sum(x > tail_s for x in samples),
              "passes": m.passes,
              "error_rate": failed / attempted,
              "median_ms_by_op": {name: round(statistics.median(v) * 1e3, 3)
                                  for name, v in m.latency.items()}}
    return metrics, detail


# Per-layer metrics a traced run reports: the traced functions' calls and
# self time per item (framework) processed while tracing, plus a few sizes
# and ratios.
COUNTED = ("linalg.rank_and_nullspace", "engine.rigidity_matrix",
           "engine.unified_rigidity_matrix", "engine.ibr_verdict",
           "spaces.Framework.init", "spaces.is_non_degenerate",
           "graphs.SensingGraph.init")


def per_layer(plain: Measurement, traced: Measurement, tr: tracer.Tracer,
              ) -> tuple[dict, dict]:
    items = traced.items()
    agg = tracer.summarize(tr.spans, items)
    metrics: dict[str, tuple[float, str]] = {}
    for name, a in agg.items():
        if name in COUNTED:
            metrics[f"{name}.calls"] = (a["calls"], "count")
        metrics[f"{name}.self_s"] = (a["self_s"], "s")
    metrics["linalg.rank_and_nullspace.in_mb"] = (
        agg["linalg.rank_and_nullspace"]["size"], "MB")
    metrics["engine.rigidity_matrix.rows"] = (agg["engine.rigidity_matrix"]["size"], "count")
    aug = agg["scenarios.augment_to_ibr"]
    added = round(aug["size"] * items)
    evals = tracer.descendants_of(tr.spans, "scenarios.augment_to_ibr",
                                  "linalg.rank_and_nullspace")
    metrics["scenarios.augment_to_ibr.edges_added"] = (aug["size"], "count")
    metrics["scenarios.augment_to_ibr.rank_evals"] = (evals / items, "count")
    metrics["scenarios.augment_to_ibr.useful_ratio"] = (
        added / evals if evals else 0.0, "ratio")
    # each greedy round adds one edge; the last round only confirms rigidity
    metrics["scenarios.augment_to_ibr.rounds"] = (aug["size"] + aug["calls"], "count")
    wall = traced.busy / items
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_ratio"] = (
        (traced.busy / traced.passes) / (plain.busy / plain.passes), "ratio")
    detail = {
        "traced_items": items, "traced_passes": traced.passes,
        "installed": tr.installed, "spans": len(tr.spans),
        "self_share_of_wall": {name: round(a["self_s"] / wall, 4)
                               for name, a in agg.items() if a["calls"]},
        "useful_ratio_counts": {"edges_added": added, "rank_evals": evals},
    }
    return metrics, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true",
                   help="only the workload's cheapest op, one pass")
    args = p.parse_args(argv)

    if not os.path.abspath(bearing_rigidity.__file__).startswith(SRC + os.sep):
        print(f"bearing_rigidity imported from {bearing_rigidity.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed, args.workdir)
    if args.smoke:
        ops = [op for op in ops if op.name == workloads.SMALLEST[args.workload]]
    expected = workloads.load_expected(args.workload, args.seed)
    warm = Measurement(ops, expected)
    warm.one(next(op for op in ops if op.name == workloads.SMALLEST[args.workload]))
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    pct = TAIL_PCT[args.workload]
    seconds, min_ops = (0.0, 1) if args.smoke else (args.seconds, min_samples(pct))
    plain = Measurement(ops, expected)
    result: dict = {"environment": environment(args)}
    if args.trace:
        plain.run(seconds / 2, 1)
        tr = tracer.Tracer()
        tr.install()
        traced = Measurement(ops, expected, tr)
        traced.run(seconds / 2, 1)
        runs = (warm, plain, traced)
        metrics, detail = per_layer(plain, traced, tr)
        spans_path = os.path.join(ROOT, ".perfbench",
                                  f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "size"],
                       "spans": tr.spans}, fh)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        plain.run(seconds, min_ops)
        runs = (warm, plain)
    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    if not args.trace:
        metrics, detail = end_to_end(plain, setup_s, pct, attempted, failed)
    failures: dict[str, list[str]] = {}
    for m in runs:
        for name, probs in m.failures.items():
            failures.setdefault(name, []).extend(probs)
    result.update({
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "failures": failures,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
