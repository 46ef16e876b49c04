#!/usr/bin/env python3
"""
Run the benchmark on several seeds and summarize the spread.

    python3 perfbench/collect.py --runs 10 [--workload NAME ...] \\
        [--seed0 1000] [--out perfbench/trajectory/NAME.json]

Each run is `run.py --trace 0` in its own process, one after another.  For
every end-to-end metric the summary gives the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median
next to the metric's bound in BENCHMARK.json; a spread above a third of
the bound is flagged.  `--out` writes the summary as a trajectory point
that `compare.py` reads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import parse_record

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    record = parse_record(proc.stdout)
    if proc.returncode != 0 or record is None:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), record


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    doc = {"schema": "perfbench/trajectory/1", "meta": None,
           "seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            result, record = one_run(workload, args.seed0 + i, args.seconds)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {args.seed0 + i}: "
                                 "incorrect result")
            runs.append((result, record))
            print(f"  {workload} seed {args.seed0 + i}: " + ", ".join(
                f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)
        meta = dict(runs[0][1]["meta"])
        for key in ("workload", "seed", "jobs_per_class"):
            meta.pop(key)
        doc["meta"] = doc["meta"] or meta
        entry = {
            "seeds": [r["meta"]["seed"] for _, r in runs],
            "jobs_per_class": runs[0][1]["meta"]["jobs_per_class"],
            "attempted": [r["attempted"] for _, r in runs],
            "checked": [r["checked"] for _, r in runs],
            "failed": [r["failed"] for _, r in runs],
            "known_defects": [r["known_defects"] for _, r in runs],
            "metrics": {},
        }
        print(f"{workload}:")
        for name, m in bounds.items():
            s = summarize([res["metrics"][name]["value"] for res, _ in runs])
            s["unit"] = m["unit"]
            entry["metrics"][name] = s
            flag = ""
            if name != "setup_s" and s["spread"] > m["bound"] / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"  {name:<12} median {s['median']:10.5g} {m['unit']:<4} "
                  f"q1 {s['q1']:10.5g} q3 {s['q3']:10.5g} "
                  f"spread {s['spread']:.4f} bound {m['bound']}{flag}")
        doc["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
