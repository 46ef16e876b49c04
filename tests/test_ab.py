"""
`tools/ab.py`, the in-process A/B of two checkouts with an A/A control,
run on this checkout against itself.
"""

import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

_CASES = '''
def cases(load):
    ffield = load("ffield")
    return {"gf4-add": lambda: ffield.GF(2, 2).add(2, 3)}
'''


def test_ab_prints_the_ab_and_aa_lines(tmp_path):
    cases = tmp_path / "cases.py"
    cases.write_text(_CASES)
    run = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "ab.py"), str(_ROOT),
         str(_ROOT), str(cases)],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 2
    for line, label in zip(lines, ("A/B new/old", "A/A copy/old")):
        words = line.split()
        assert words[:3] == ["gf4-add", *label.split()], line
        assert words[3] == "median" and words[5] == "quartiles", line
        q1, median, q3 = float(words[6]), float(words[4]), float(words[7])
        assert 0 < q1 <= median <= q3, line


def test_ab_refuses_a_wrong_argument_count():
    run = subprocess.run([sys.executable, str(_ROOT / "tools" / "ab.py")],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and run.stderr.startswith("Usage:")
