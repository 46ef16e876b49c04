import doctest
import re
from pathlib import Path

import iwahecke
import iwahecke.affine
import iwahecke.hecke
import iwahecke.laurent
import iwahecke.rootdata
import iwahecke.series
import iwahecke.weyl


def test_module_doctests():
    for mod in (iwahecke, iwahecke.laurent, iwahecke.affine, iwahecke.hecke,
                iwahecke.rootdata, iwahecke.series, iwahecke.weyl):
        result = doctest.testmod(mod, verbose=False)
        assert result.failed == 0, mod.__name__
        assert result.attempted > 0, mod.__name__


def test_readme_quick_start():
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
