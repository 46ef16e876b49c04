"""
Count the code lines of the Python files under a directory.

A code line holds at least one token that is not a comment, a docstring or
layout (newlines, indents).  A docstring here is any statement that is only
a string literal, the first statement of a module, class or function being
the usual case.  A token that spans lines (a multi-line string or bracket
contents) counts every line it covers.  Lines are read with `tokenize`, so
the count does not depend on formatting inside a line.

Usage: python3 tools/code_lines.py DIR

prints `<lines>  <file>` for each `*.py` under DIR, sorted by path, then
`<lines>  total`.
"""

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.COMMENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path) -> int:
    """The number of code lines in the Python file at `path`."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    statement = []  # the significant tokens of the current logical line
    for tok in tokens:  # every statement ends in a NEWLINE token
        if tok.type == tokenize.NEWLINE:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def main(argv) -> int:
    if len(argv) != 2 or not Path(argv[1]).is_dir():
        print("usage: code_lines.py DIR", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(Path(argv[1]).rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
