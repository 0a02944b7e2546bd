#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 bench/compare.py OLD NEW

OLD and NEW are result files written by run.py (bench/out/*.json) or
directories of them.  For every workload and metric present on both
sides it prints the median of each side, the change in percent, and the
metric's bound from BENCHMARK.json where it has one; a change past the
bound in the worse direction is marked REGRESSION.  Failed counts are
compared as shares of attempted operations.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(path: pathlib.Path) -> dict:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = defaultdict(lambda: defaultdict(list))
    for f in files:
        r = json.loads(f.read_text())
        w = r["workload"]
        for name, m in r["metrics"].items():
            out[w][name].append(m["value"])
        out[w]["failed share"].append(r["failed"] / r["attempted"])
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (load(pathlib.Path(a)) for a in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for w in sorted(set(old) & set(new)):
        print(f"== {w}")
        for name in sorted(set(old[w]) & set(new[w])):
            a, b = statistics.median(old[w][name]), statistics.median(new[w][name])
            change = (b - a) / a * 100 if a else (0.0 if b == a else float("inf"))
            m = meta.get(name, {})
            flag = ""
            if "bound" in m and a:
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                if worse > m["bound"]:
                    flag = f"  REGRESSION (bound {m['bound']:.0%})"
            print(f"  {name:45s} {a:12.6g} -> {b:12.6g}  {change:+7.1f}%{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
