import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from iwahecke import cli
from iwahecke.rootdata import build_root_datum

DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def _fresh_reports():
    # cli.run keeps the last reports it computed: no test sees a report
    # that another test's call left behind
    cli._report.cache_clear()


@pytest.fixture(scope="session")
def gl2():
    return build_root_datum("GL", 2)


@pytest.fixture(scope="session")
def gl3():
    return build_root_datum("GL", 3)


@pytest.fixture(scope="session")
def gl4():
    return build_root_datum("GL", 4)


@pytest.fixture(scope="session")
def sp4():
    return build_root_datum("Sp", 4)


@pytest.fixture(scope="session")
def gsp4():
    return build_root_datum("GSp", 4)
