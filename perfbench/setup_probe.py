"""
One set-up sample for run.py, in a fresh interpreter: the time to import
the package and build a workload's jobs, rescaled to the reference speed
like every job time (see jobs.py).

    python3 perfbench/setup_probe.py <workload> <seed> <seconds>
"""

import json
import sys
import time

import jobs

before = jobs.probe()
t0 = time.perf_counter()

import run  # noqa: E402  (the import is part of what is timed)

built = run.build_workload(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
raw = time.perf_counter() - t0
speed = (before + jobs.probe()) / 2
print(json.dumps({"setup_s": raw * jobs.REFERENCE_PROBE_S / speed,
                  "raw_s": raw, "jobs": len(built)}))
