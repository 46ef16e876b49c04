"""
Smoke test of the benchmark itself, at a tiny size:

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py

Each workload runs a handful of jobs through the same measuring and
reporting code as run.py, and must print all six end-to-end metrics with
their units, a nonzero checked count, and a final JSON line that matches
BENCHMARK.json.  The traced path runs once, on the deep-level workload.
"""

import argparse
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
SIX = dict(END_TO_END, error_rate="ratio")


def tiny_build(name, seed, seconds, count=None):
    from jobs import number
    module = run.workload_module(name)
    if name == "zmu-cold":
        return number(module.build(seed, 1, classes=("small",)))
    if name == "deeplevel-gl2":
        return number(module.build(seed, 2, plan={(2, 1): (3, 1),
                                                  (3, 2): (1, 1)}))
    fresh = {kind: choices[:1] for kind, choices in module.FRESH.items()}
    return number(module.build(seed, 4, fresh=fresh,
                               **({"count": count} if count else {})))


def measure(workload, trace, capsys):
    args = argparse.Namespace(workload=workload, seed=5, seconds=1,
                              trace=trace)
    meta, outcome, metrics, extra = run.run(args, build=tiny_build)
    assert run.report(meta, outcome, metrics, extra, trace)
    return outcome, capsys.readouterr().out.strip().splitlines()


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_prints_end_to_end_metrics(workload, capsys):
    outcome, lines = measure(workload, 0, capsys)
    text = "\n".join(lines)
    for name, unit in SIX.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                         text, re.M), name
    checked = int(re.search(r"checked (\d+)", text).group(1))
    assert checked > 0 and outcome.failed == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    meta = json.loads(lines[-2][len("record "):])["meta"]
    for key in ("git_sha", "python", "kernel", "nproc", "seed",
                "jobs_per_class"):
        assert key in meta
    if workload == "session-mixed":  # probes hit no defect outside the list
        known = run.workload_module(workload).KNOWN_DEFECTS
        assert set(outcome.defects) <= known


def test_traced_run_prints_every_per_layer_metric(monkeypatch, capsys):
    monkeypatch.setattr(run, "untraced_baseline",
                        lambda *a: {"timed_s": 1.0})
    _, lines = measure("deeplevel-gl2", 1, capsys)
    result = json.loads(lines[-1])
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["deeplevel.scholze_phi.calls"]["value"] > 0
    assert result["metrics"]["kernel.calls"]["value"] == 0
