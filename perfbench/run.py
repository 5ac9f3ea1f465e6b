"""Benchmark entry point: python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1, run from the root of a checkout.

Builds nothing: the program is imported from the checkout's src/. Sets the
BLAS thread count explicitly, then starts fresh processes (bench.py): with
--trace 0, SETUP_RUNS - 1 that only set up, for the median set-up time, and
one that sets up and measures; with --trace 1, one that measures with the
program's functions wrapped. Prints the measuring process's environment and
details as one JSON line, then the result as the last line:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_RUNS = 5
DEADLINE_S = 170
# OpenBLAS's own default on the 2-core reference machine; one thread was
# slower and noisier there. Never more than the machine has.
BLAS_THREADS = min(2, os.cpu_count() or 1)


class ChildFailed(Exception):
    pass


def child(args, workdir: str, deadline: float, *extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS))
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0), "--workdir", workdir, *extra]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"exit code {proc.returncode}\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("analyze-large", "augment-sparse", "batch-mixed"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="cheapest op only, one pass, one set-up (for the smoke test)")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bearing_rigidity", "__init__.py")):
        print(f"error: no program source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    smoke = ("--smoke",) if args.smoke else ()
    try:
        probes = 0 if args.trace or args.smoke else SETUP_RUNS - 1
        setups = [child(args, os.path.join(work, f"setup{k}"), deadline,
                        "--setup-only", *smoke)["setup_s"] for k in range(probes)]
        res = child(args, os.path.join(work, "run"), deadline, *smoke)
    except ChildFailed as exc:
        print(f"error: benchmark process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = res.pop("metrics")
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        res["detail"]["setup_s_samples"] = setups
    print(json.dumps(res))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
