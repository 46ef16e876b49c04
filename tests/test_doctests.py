import doctest
import importlib
import re
from pathlib import Path

import iwahecke


def _modules_with_examples():
    # every module of the package whose source holds an example
    for path in sorted(Path(iwahecke.__file__).parent.glob("*.py")):
        if ">>>" in path.read_text(encoding="utf-8"):
            name = "iwahecke" if path.stem == "__init__" else \
                f"iwahecke.{path.stem}"
            yield importlib.import_module(name)


def test_module_doctests():
    mods = list(_modules_with_examples())
    assert iwahecke.hecke in mods
    for mod in mods:
        result = doctest.testmod(mod, verbose=False)
        assert result.failed == 0, mod.__name__
        assert result.attempted > 0, mod.__name__


def test_readme_quick_start():
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
