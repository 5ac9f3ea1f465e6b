"""Print two benchmark outputs side by side, metric by metric.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 1 > before.txt
    ... change the program ...
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 1 > after.txt
    python3 perfbench/compare.py before.txt after.txt

Each file is the saved standard output of one run: the environment line,
then the result line. With traced runs the table shows, layer by layer, each
function's calls and self time per item, so it shows where a saving
appears. One pair of runs is not a measurement of a gain: end-to-end claims
need the repeated, alternating runs the benchmark's README describes.
"""
from __future__ import annotations

import json
import sys


def load(path: str) -> tuple[dict, dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (env_a, res_a), (env_b, res_b) = load(argv[0]), load(argv[1])
    for key in ("workload", "seed", "trace", "git_sha", "src_sha256"):
        a, b = env_a["environment"].get(key), env_b["environment"].get(key)
        print(f"{key:<12} {a}" + ("" if a == b else f"  ->  {b}"))
    print(f"{'failed':<12} {res_a['failed']}/{res_a['attempted']}  ->  "
          f"{res_b['failed']}/{res_b['attempted']}")
    names = list(res_a["metrics"]) + [k for k in res_b["metrics"]
                                      if k not in res_a["metrics"]]
    print(f"\n{'metric':<44} {'unit':<6} {'before':>12} {'after':>12} {'change':>8}")
    layer = None
    for name in names:
        if name.split(".")[0] != layer:
            layer = name.split(".")[0]
            print()
        a = res_a["metrics"].get(name, {}).get("value")
        b = res_b["metrics"].get(name, {}).get("value")
        unit = (res_a["metrics"].get(name) or res_b["metrics"][name])["unit"]
        change = f"{b / a - 1:+.1%}" if a and b is not None else ""
        print(f"{name:<44} {unit:<6} {fmt(a):>12} {fmt(b):>12} {change:>8}")
    return 0


def fmt(v) -> str:
    return "-" if v is None else f"{v:.6g}"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
