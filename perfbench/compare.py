#!/usr/bin/env python3
"""
Compare two trajectory points written by collect.py.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Refuses (exit 2) when the two were measured with a different kernel or
Python version: their numbers are not comparable.  Otherwise prints, per
workload and end-to-end metric, both medians, the relative change in the
metric's bad direction, the bound from BENCHMARK.json and a verdict:

* `regression`  AFTER is worse than BEFORE by more than the bound;
* `unresolved`  BEFORE's own spread is wider than the bound;
* `better` / `within bound` otherwise.

Exits 1 when any metric regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUST_MATCH = ("kernel", "python")


def load(path):
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != "perfbench/trajectory/1":
        raise SystemExit(f"{path}: not a trajectory point from collect.py")
    return doc


def comparable(a, b):
    """The metadata fields on which the two differ, among MUST_MATCH."""
    return [k for k in MUST_MATCH if a["meta"].get(k) != b["meta"].get(k)]


def verdict(before, after, metric):
    worse = after["median"] - before["median"]
    if metric["better"] == "higher":
        worse = -worse
    change = worse / before["median"]
    if change > metric["bound"]:
        return change, "regression"
    if before["spread"] > metric["bound"]:
        return change, "unresolved"
    return change, "better" if change < 0 else "within bound"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    differ = comparable(a, b)
    if differ:
        for k in differ:
            print(f"refusing to compare: {k} {a['meta'].get(k)!r} vs "
                  f"{b['meta'].get(k)!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressed = False
    for workload, entry in a["workloads"].items():
        other = b["workloads"].get(workload)
        if other is None:
            print(f"{workload}: missing from {argv[1]}")
            continue
        print(f"{workload}:")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            change, word = verdict(entry["metrics"][name],
                                   other["metrics"][name], metric)
            regressed |= word == "regression"
            print(f"  {name:<12} {entry['metrics'][name]['median']:10.5g} -> "
                  f"{other['metrics'][name]['median']:10.5g} {metric['unit']:<4}"
                  f" worse by {100 * change:+6.1f}% (bound "
                  f"{100 * metric['bound']:.0f}%): {word}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
