"""
The package namespace: its public names, and which layers each entry point
imports.  `import iwahecke` imports no submodule; an exported name imports
its own submodule on first access, and each CLI subcommand imports only the
layers it runs.  The import checks run in fresh interpreters, since this
process has long since imported every layer.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import iwahecke

# the package's public names, by the submodule that defines them
EXPORTS = {
    "_kernel": {"default_impl"},
    "affine": {"AffineWeylElement", "AffineWeylGroup", "OmegaElement"},
    "center": {"HeightBoundError", "NotCentralError", "SymmetricFunction",
               "bernstein_iso", "bernstein_iso_inverse", "constant_term",
               "monomial_symmetric"},
    "deeplevel": {"DiagonalTorusPoint", "IndeterminatePrecisionError",
                  "drinfeld_propp_value", "ell_invariant", "gl2_level_index",
                  "k_invariant", "level_compatibility_check", "scholze_phi",
                  "scholze_z"},
    "ffield": {"GF"},
    "hecke": {"HeckeAlgebra", "HeckeElement"},
    "klpoly": {"RPolynomials", "closed_form_bernstein", "r_polynomial"},
    "laurent": {"LaurentPoly"},
    "rootdata": {"RootDatum", "RootDatumError", "build_root_datum",
                 "is_minuscule", "levi_sub_datum", "load_root_datum",
                 "weyl_orbit"},
    "series": {"Matrix2", "TruncatedSeries"},
    "transfer": {"GradedFunction", "base_change", "grassmannian_count",
                 "kottwitz_fiber_integrate", "normalized_transfer"},
    "weyl": {"IndexedWeyl"},
}
SUBMODULES = {"affine", "center", "deeplevel", "ffield", "hecke", "intlinalg",
              "klpoly", "laurent", "rootdata", "series", "transfer", "weyl"}

SRC = Path(iwahecke.__file__).resolve().parent.parent


def test_star_import_names():
    ns = {}
    exec("from iwahecke import *", ns)
    del ns["__builtins__"]
    assert len(ns) == 54
    assert set(ns) == SUBMODULES.union(*EXPORTS.values())
    for mod, names in EXPORTS.items():
        owner = importlib.import_module(f"iwahecke.{mod}")
        for name in names:
            assert ns[name] is getattr(owner, name), name
            assert getattr(iwahecke, name) is ns[name], name
    for mod in SUBMODULES:
        assert ns[mod] is importlib.import_module(f"iwahecke.{mod}"), mod


def test_readme_states_the_star_import_names():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    count, submodules = re.search(
        r"`from iwahecke\s+import \*` gives (\d+) names, the (\w+) "
        r"submodules included", readme).groups()
    ns = {}
    exec("from iwahecke import *", ns)
    del ns["__builtins__"]
    assert int(count) == len(ns)
    assert (submodules, sum(isinstance(v, ModuleType) for v in ns.values())
            ) == ("twelve", 12)


def test_dir_lists_every_public_name():
    assert set(iwahecke.__all__) <= set(dir(iwahecke))
    assert len(iwahecke.__all__) == 54


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        iwahecke.nope
    with pytest.raises(ImportError):
        exec("from iwahecke import nope", {})


# printed at exit, so a run that ends in SystemExit reports too
_REPORT = """import atexit, sys
atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))
"""


def _loaded(code):
    """The modules loaded by a fresh interpreter that runs `code`; the run
    must succeed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _REPORT + code],
                          capture_output=True, text=True, env=env,
                          cwd=SRC, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def _imported(code):
    """The iwahecke submodules loaded by a fresh interpreter that runs
    `code`."""
    return {m.split(".")[1] for m in _loaded(code)
            if m.startswith("iwahecke.")}


def test_submodule_attribute_right_after_import():
    assert _imported("import iwahecke") == set()
    assert "hecke" in _imported(
        "import iwahecke; iwahecke.hecke.HeckeAlgebra")


def test_algebra_names_load_no_other_layer():
    got = _imported(
        "from iwahecke import build_root_datum, HeckeAlgebra, klpoly")
    assert {"rootdata", "hecke", "klpoly"} <= got
    assert not got & {"center", "deeplevel", "ffield", "series", "transfer",
                      "cli"}


def test_deep_level_names_load_no_algebra_layer():
    got = _imported("from iwahecke import GF, scholze_phi")
    assert {"ffield", "deeplevel", "series"} <= got
    assert not got & {"affine", "rootdata", "hecke", "klpoly", "center",
                      "transfer"}


# what python3 -m iwahecke zmu --group GL:3 --mu 2,1,0 runs
_ZMU_RUN = (
    "import runpy\n"
    "sys.argv = ['iwahecke', 'zmu', '--group', 'GL:3', '--mu', '2,1,0']\n"
    "runpy.run_module('iwahecke', run_name='__main__', alter_sys=True)")


def test_zmu_run_loads_no_deep_level_or_transfer_layer():
    got = _imported(_ZMU_RUN)
    assert {"cli", "hecke", "center"} <= got
    assert not got & {"deeplevel", "series", "ffield", "transfer"}


def test_root_datum_and_zmu_run_load_no_dataclasses():
    # dataclasses would pull inspect, ast, dis and tokenize into every run
    got = _loaded("import iwahecke.rootdata")
    assert "iwahecke.rootdata" in got and "dataclasses" not in got
    got = _loaded(_ZMU_RUN)
    assert "iwahecke.hecke" in got and "dataclasses" not in got


def test_deep_level_names_load_no_dataclasses():
    got = _loaded("from iwahecke import GF, scholze_phi")
    assert "iwahecke.deeplevel" in got and "dataclasses" not in got


# the benchmark's per-layer tracer, which patches methods and functions of
# every layer by name
_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_patches_and_restores_every_name():
    # a deleted or renamed name that the tracer patches fails install() with
    # a KeyError or an AttributeError; a fresh interpreter keeps the import
    # checks above on clean module state
    _loaded(f"""
sys.path.insert(0, {str(_PERFBENCH)!r})
from spans import Tracer
tracer = Tracer()
tracer.install()
patched = list(tracer._patches)
assert patched and all(vars(o)[a] is not f for o, a, f in patched)
tracer.uninstall()
assert all(vars(o)[a] is f for o, a, f in patched)
""")


def _benchmark_reads():
    """(file, dotted name) for each package name that perfbench/*.py reads,
    from their source alone: every name a `from iwahecke... import` takes,
    and every attribute read off a name such an import binds (a module, a
    class or a function)."""
    for path in sorted(_PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = {}  # local name -> the dotted name it stands for
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "iwahecke":
                        local = alias.asname or "iwahecke"
                        bound[local] = alias.name if alias.asname else local
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "iwahecke"):
                for alias in node.names:
                    dotted = f"{node.module}.{alias.name}"
                    bound[alias.asname or alias.name] = dotted
                    yield path.name, dotted
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in bound):
                yield path.name, f"{bound[node.value.id]}.{node.attr}"


def _resolve(dotted):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, part)
        except AttributeError:  # a submodule not yet imported
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def test_every_package_name_the_benchmark_reads_resolves():
    # a deleted or renamed name that a workload calls would otherwise fail
    # only when the benchmark runs
    reads = set(_benchmark_reads())
    dotted = {name for _, name in reads}
    assert {"iwahecke.affine.bruhat_leq", "iwahecke.klpoly.r_polynomial",
            "iwahecke.default_impl",
            "iwahecke._kernel._pykernel.Kernel"} <= dotted
    missing = []
    for where, name in sorted(reads):
        try:
            _resolve(name)
        except (AttributeError, ImportError):
            missing.append(f"{where}: {name}")
    assert not missing, missing
