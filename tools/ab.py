"""
In-process A/B timing of two checkouts of the package, with an A/A control.

Usage: python3 tools/ab.py OLD NEW CASES

OLD and NEW are checkout roots.  OLD's `src/iwahecke` is copied twice and
NEW's once into a temporary directory, as the packages `ab_old`,
`ab_copy` and `ab_new`, and all three are imported into this one process;
this works because the package imports itself only through relative
imports.  CASES is a Python file defining `cases(load)`, which returns
`{name: callable}`; `load("deeplevel")` imports that submodule of the tree
being measured, so `cases` is called once per tree.  Each callable should
do a few milliseconds of work or more, as one call is one timing.

Each case is called once per tree to warm up, then timed over 21 reps.  A
rep times the three trees one after the other, in the order old, copy,
new on even reps and reversed on odd ones, so the side that runs first
alternates in both pairs.  Two lines are printed per case: the median
NEW/OLD ratio of the reps with its quartiles, and the same for the A/A
pair, copy/OLD.  A change is within the A/A spread when its median is no
higher than the A/A upper quartile.
"""

import gc
import importlib.util
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import quantiles

REPS = 21
TREES = ("ab_old", "ab_copy", "ab_new")


def _timed(call) -> float:
    gc.disable()
    try:
        start = time.perf_counter()
        call()
        return time.perf_counter() - start
    finally:
        gc.enable()


def _line(case, label, ratios) -> str:
    q1, median, q3 = quantiles(ratios, n=4)
    return (f"{case:<32} {label:<12} median {median:.3f}  "
            f"quartiles {q1:.3f} {q3:.3f}")


def main(argv) -> int:
    if len(argv) != 3:
        print("Usage: python3 tools/ab.py OLD NEW CASES", file=sys.stderr)
        return 2
    old, new, cases_path = argv
    spec = importlib.util.spec_from_file_location("ab_cases", cases_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with tempfile.TemporaryDirectory() as tmp:
        for tree, root in zip(TREES, (old, old, new)):
            shutil.copytree(Path(root) / "src" / "iwahecke",
                            Path(tmp) / tree,
                            ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, tmp)
        sides = [module.cases(lambda sub, tree=tree: importlib.import_module(
            f"{tree}.{sub}")) for tree in TREES]
        for case in sides[0]:
            calls = [side[case] for side in sides]
            for call in calls:
                call()
            times = []
            for rep in range(REPS):
                order = range(3) if rep % 2 == 0 else range(2, -1, -1)
                rep_times = [0.0] * 3
                for k in order:
                    rep_times[k] = _timed(calls[k])
                times.append(rep_times)
            print(_line(case, "A/B new/old", [n / o for o, _, n in times]))
            print(_line(case, "A/A copy/old", [c / o for o, c, _ in times]),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
