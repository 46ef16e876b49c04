#!/usr/bin/env python3
"""
The iwahecke benchmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload zmu-cold --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from `src/`
without installing it.  Workloads (see each module's docstring for why it
was chosen):

* `zmu-cold`       Bernstein functions, fresh group context per job;
* `deeplevel-gl2`  the GL(2) deep-level family phi_n over F_q((t));
* `session-mixed`  one long-lived session of mixed library and CLI requests.

`--seed` fixes the inputs; `--seconds` fixes the amount of work: the number
of rounds is `--seconds` divided by the nominal round time, so both commits
of a comparison run the same jobs.  Every job's result is checked, outside
the timed interval, by an independent route.  Times are rescaled to a
reference CPU speed measured between jobs (see jobs.py); the record keeps
the raw ones.

With `--trace 0` the run prints the end-to-end metrics, measured untraced:
setup_s, jobs_per_s, job_p50_ms, job_p90_ms and peak_rss_mb, plus the error
rate as attempted/failed counts.  With `--trace 1` it first runs the same
jobs untraced in a child process, then traced here, and prints the
per-layer metrics of `spans.py` and `trace.overhead_ratio`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it, starting
with `record `, holds the full record (metadata, counts, failures).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "zmu-cold": "zmu_cold",
    "deeplevel-gl2": "deeplevel_gl2",
    "session-mixed": "session_mixed",
}
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed child)."""


def workload_module(name):
    if not (SRC / "iwahecke" / "__init__.py").is_file():
        raise BenchError(f"package sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    return importlib.import_module(WORKLOADS[name])


def rounds_for(module, seconds):
    return max(getattr(module, "MIN_ROUNDS", 1),
               round(seconds / module.NOMINAL_ROUND_S))


def build_workload(name, seed, seconds, count=None):
    """Import the package and build the workload's jobs (the set-up)."""
    module = workload_module(name)
    from jobs import number
    rounds = rounds_for(module, seconds)
    if count is not None and name == "session-mixed":
        return number(module.build(seed, rounds, count=count))
    return number(module.build(seed, rounds))


def child(script, *args):
    """Run a Python script of this directory; its standard output."""
    cmd = [sys.executable, str(HERE / script), *map(str, args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} took over {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{script} failed: {proc.stderr.strip()}")
    return proc.stdout


def setup_samples(name, seed, seconds):
    """Set-up time of fresh interpreters: import plus building inputs."""
    return [json.loads(child("setup_probe.py", name, seed, seconds)
                       .strip().splitlines()[-1])["setup_s"]
            for _ in range(SETUP_SAMPLES)]


def metadata(name, seed, seconds, jobs):
    import iwahecke
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "python_impl": platform.python_implementation(),
        "kernel": iwahecke.default_impl(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "jobs_per_class": dict(sorted(Counter(j.size_class
                                              for j in jobs).items())),
    }


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def src_digest():
    """Content hash of the package sources: identifies the program version
    in checkouts that are not git repositories."""
    h = hashlib.sha256()
    pkg = SRC / "iwahecke"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(pkg)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def end_to_end(outcome, setup):
    from jobs import beyond, quantile
    times = outcome.times
    return {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (outcome.completed / outcome.timed_s, "1/s"),
        "job_p50_ms": (quantile(times, 0.5) * 1e3, "ms"),
        "job_p90_ms": (quantile(times, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MiB"),
    }, {"samples": len(times), "beyond_p90": beyond(times, 0.9),
        "raw_timed_s": sum(outcome.raw_times),
        "raw_job_p50_ms": quantile(outcome.raw_times, 0.5) * 1e3,
        "raw_job_p90_ms": quantile(outcome.raw_times, 0.9) * 1e3,
        "probe_s": {"min": min(outcome.probes), "max": max(outcome.probes),
                    "median": statistics.median(outcome.probes)}}


def untraced_baseline(name, seed, seconds):
    """Run the same jobs untraced in a fresh process; its record."""
    record = parse_record(child("run.py", "--workload", name, "--seed", seed,
                                "--seconds", seconds, "--trace", 0))
    if record is None:
        raise BenchError("untraced baseline printed no record")
    return record


def parse_record(stdout):
    for line in reversed(stdout.splitlines()):
        if line.startswith("record "):
            return json.loads(line[len("record "):])
    return None


def run(args, build=build_workload):
    """Measure one workload; `build` makes its jobs (tests pass a smaller
    one)."""
    workload_module(args.workload)  # fails early without package sources
    from jobs import run_jobs
    if args.trace:
        baseline = untraced_baseline(args.workload, args.seed, args.seconds)
        from spans import Tracer
        tracer = Tracer()
        jobs = build(args.workload, args.seed, args.seconds,
                     count=tracer.count)
        tracer.install()
        try:
            outcome = run_jobs(jobs, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = (
            outcome.timed_s / baseline["timed_s"], "ratio")
        extra = {"layer_self_s": tracer.layer_self_s(),
                 "slow_spans": tracer.slow_spans[:20],
                 "untraced_timed_s": baseline["timed_s"]}
    else:
        setup = setup_samples(args.workload, args.seed, args.seconds)
        jobs = build(args.workload, args.seed, args.seconds)
        outcome = run_jobs(jobs)
        metrics, extra = end_to_end(outcome, setup)
        extra["setup_samples_s"] = setup
    meta = metadata(args.workload, args.seed, args.seconds, jobs)
    return meta, outcome, metrics, extra


def report(meta, outcome, metrics, extra, trace):
    correct = outcome.failed == 0 and outcome.checked > 0
    print(f"workload {meta['workload']}  seed {meta['seed']}  "
          f"kernel {meta['kernel']}  python {meta['python']}  "
          f"nproc {meta['nproc']}  trace {int(trace)}")
    print("jobs per class: " + ", ".join(
        f"{k} {v}" for k, v in meta["jobs_per_class"].items()))
    print(f"attempted {outcome.attempted}  checked {outcome.checked}  "
          f"unchecked {outcome.unchecked}  failed {outcome.failed}  "
          f"known_defects {outcome.known_defects}")
    for kind, n in sorted(outcome.defects.items()):
        print(f"  known defect {kind}: {n}")
    for f in outcome.failures:
        if not f["error"].startswith("known defect"):
            print(f"  FAILED job {f['job']} {f['kind']}: {f['error']}")
    if "samples" in extra:
        print(f"latency samples {extra['samples']}, "
              f"{extra['beyond_p90']} beyond p90")
    lines = dict(metrics)
    if not trace:  # 0 on a healthy run, so it is no comparable metric
        lines["error_rate"] = (outcome.failed / outcome.attempted, "ratio")
        lines["known_defect_rate"] = (
            outcome.known_defects / outcome.attempted, "ratio")
    for name, (value, unit) in lines.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    if trace:
        total = sum(extra["layer_self_s"].values()) or 1.0
        print("self time by layer:")
        for layer, s in sorted(extra["layer_self_s"].items(),
                               key=lambda kv: -kv[1]):
            print(f"  {layer:<10} {s:9.3f} s  {100 * s / total:5.1f}%")
    record = {"meta": meta,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "checked": outcome.checked, "unchecked": outcome.unchecked,
              "known_defects": outcome.known_defects,
              "defects": outcome.defects, "failures": outcome.failures,
              "timed_s": outcome.timed_s, "trace": int(trace),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "extra": extra}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return outcome.checked > 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        meta, outcome, metrics, extra = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not report(meta, outcome, metrics, extra, args.trace):
        print("error: no job was checked", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
