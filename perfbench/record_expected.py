"""Rewrite expected_seed0.json: each op's output at the default seed.

Run from the root of a checkout: python3 perfbench/record_expected.py
The stored outputs pin the program's verdicts, ranks, subspaces and added
edges; regenerate them only when a change to those outputs is intended, and
say so in the change. Outputs that break an invariant are not recorded.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def main() -> int:
    out: dict = {}
    scratch = os.path.join(os.path.dirname(HERE), ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    for wl in workloads.WORKLOADS:
        out[wl] = {}
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            for op in workloads.build(wl, workloads.DEFAULT_SEED, tmp):
                result = op.run()
                problems = op.check(result, None)
                if problems:
                    print(f"{wl} {op.name}: {problems}", file=sys.stderr)
                    return 1
                out[wl][op.name] = workloads.SUMMARIES[wl](result)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
