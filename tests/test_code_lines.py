"""
`tools/code_lines.py`, the code-line count that size gates cite: lines
holding a token other than a comment, a docstring or layout.
"""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_SAMPLE = '''"""A module docstring,
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """A function docstring."""

    text = """a string that is
    not a docstring"""
    return (x,
            text)
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(_SAMPLE)
    # import, def, the two lines of `text` and the two of the return
    assert code_lines.code_lines(path) == 6


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text(_SAMPLE)
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["1", "6", "7"]
    assert out[-1].split() == ["7", "total"]
    assert code_lines.main(["code_lines.py"]) == 2
