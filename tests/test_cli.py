import argparse
import json
import os
import re
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import iwahecke.affine as affine
import iwahecke.cli as cli
import iwahecke.deeplevel as deeplevel
import iwahecke.transfer as transfer
from iwahecke.center import bernstein_iso, constant_term, monomial_symmetric
from iwahecke.cli import (PreconditionError, _records, _report, dumps, main,
                          parse, parse_group, run as run_request)
from iwahecke.klpoly import closed_form_bernstein
from iwahecke.laurent import LaurentPoly
from iwahecke.rootdata import build_root_datum, load_root_datum
from iwahecke.transfer import base_change

from conftest import DATA
from oracles import element_record, hecke_json
from test_inputs import SWEEP

CORPUS_Q2 = Path("src/iwahecke/data/scholze_corpus_q2.txt")
CORPUS_Q3 = Path("src/iwahecke/data/scholze_corpus_q3.txt")


def run(tmp_path, *argv, name="out"):
    out = tmp_path / name
    rc = main(list(argv) + ["--out", str(out)])
    return rc, out.read_bytes() if out.exists() else b""


@pytest.fixture
def call(capsys):
    """main in this process, as (exit code, stdout, stderr)."""
    def call(argv):
        return main(list(argv)), *capsys.readouterr()
    return call


def test_adm_gl2(tmp_path):
    rc, data = run(tmp_path, "adm", "--group", "GL:2", "--mu", "1,0")
    assert rc == 0
    doc = json.loads(data)
    assert doc["count"] == 3
    assert doc["schema"] == "iwahecke/adm/1"


def test_adm_trivial(tmp_path, capsys):
    rc, data = run(tmp_path, "adm", "--group", "GL:2", "--mu", "0,0")
    assert rc == 0
    assert json.loads(data)["count"] == 1
    # a leading minus needs the = form: REFUSALS refuses "--mu", "-1,1,0"
    rc, data = run(tmp_path, "adm", "--group", "GL:3", "--mu=0,0,-1")
    assert (rc, json.loads(data)["count"], capsys.readouterr().err) == (
        0, 7, "")


def test_zmu_closed_base_change_refused_before_the_center(tmp_path, capsys,
                                                         monkeypatch):
    def no_center(*args):
        raise AssertionError("the symmetric function was formed")
    monkeypatch.setattr("iwahecke.cli.monomial_symmetric", no_center)
    rc, data = run(tmp_path, "zmu", "--group", "GL:3", "--mu", "1,0,0",
                   "--method", "closed", "--r", "2")
    assert rc == 3 and data == b""
    assert capsys.readouterr().err == "error: --r is a theta-route option\n"


def test_adm_csv(tmp_path):
    rc, data = run(tmp_path, "adm", "--group", "GL:2", "--mu", "1,0",
                   "--format", "csv")
    assert rc == 0
    lines = data.decode().strip().splitlines()
    assert lines[0] == "translation,finite_word,length,kappa"
    assert len(lines) == 4


def test_zmu_trivial(tmp_path):
    rc, data = run(tmp_path, "zmu", "--group", "GL:3", "--mu", "0,0,0")
    doc = json.loads(data)
    assert rc == 0 and len(doc["terms"]) == 1
    assert doc["terms"][0]["coeff"] == {"0": 1}


def test_zmu_q_specialization(tmp_path):
    rc, data = run(tmp_path, "zmu", "--group", "GL:2", "--mu", "1,0",
                   "--q", "4")
    doc = json.loads(data)
    coeffs = {tuple(t["element"]["translation"]): t["coeff"]
              for t in doc["terms"]}
    assert coeffs[(1, 0)] == {"q": 4, "value": 1}
    assert coeffs[(0, 1)] == {"q": 4, "value": 1}


def test_zmu_levi(tmp_path):
    rc, data = run(tmp_path, "zmu", "--group", "GL:3", "--mu", "1,0,0",
                   "--levi", "1")
    doc = json.loads(data)
    assert rc == 0
    assert doc["normalization"] == "c^G_L(z_mu)"
    assert len(doc["terms"]) == 4  # z^L_{(1,0,0)} (3 terms) + z^L_{(0,0,1)}


def test_zmu_base_change(tmp_path):
    rc, data = run(tmp_path, "zmu", "--group", "GL:2", "--mu", "1,0",
                   "--r", "2")
    doc = json.loads(data)
    assert rc == 0
    translations = {tuple(t["element"]["translation"]) for t in doc["terms"]
                    if not t["element"]["finite_word"]}
    assert {(2, 0), (0, 2)} <= translations


def test_transfer_pass(tmp_path):
    rc, data = run(tmp_path, "transfer", "--group", "GL:4", "--mu", "1,1,0,0")
    doc = json.loads(data)
    assert rc == 0
    assert doc["routes_match"] == "PASS"
    assert doc["grassmannian"]["match"] == "PASS"
    assert doc["grassmannian"]["expected"] == \
        {"0": 1, "2": 1, "4": 2, "6": 1, "8": 1}


def test_transfer_without_gl_size_checks_no_grassmannian(tmp_path):
    # GSp(4) is not the standard GL(n) datum, so no Grassmannian count
    # applies and the report has no such block
    rc, data = run(tmp_path, "transfer", "--group", "GSp:4", "--mu", "1,1,1")
    doc = json.loads(data)
    assert rc == 0 and doc["routes_match"] == "PASS"
    assert "grassmannian" not in doc


def test_transfer_trivial_grade(tmp_path):
    rc, data = run(tmp_path, "transfer", "--group", "GL:3", "--mu", "0,0,0")
    doc = json.loads(data)
    assert rc == 0 and doc["graded"] == {"0": {"0": 1}}


def test_custom_group_config(tmp_path):
    rc, data = run(tmp_path, "adm", "--group", str(DATA / "gsp4.cfg"),
                   "--mu", "1,1,1")
    assert rc == 0
    assert json.loads(data)["count"] == 13


def test_transfer_report_embeds_function(tmp_path):
    rc, data = run(tmp_path, "transfer", "--group", "GL:2", "--mu", "1,0")
    doc = json.loads(data)
    assert doc["input_function"] == [{"coweight": [1, 0], "coeff": {"0": 1}}]


def test_scholze_table_field_too_large_exits_3(tmp_path, capsys,
                                              monkeypatch):
    # 4096 = 2^12 is in range, but its q x q tables would take minutes
    def no_tables(self):
        raise AssertionError("field tables were built")
    monkeypatch.setattr("iwahecke.ffield._Field._build_tables", no_tables)
    rc, data = run(tmp_path, "scholze", "--n", "1", "--q", "4096")
    assert rc == 3 and data == b""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: GF(2^12) is too large")


def test_scholze_compat_size_guard_boundary(tmp_path, capsys, monkeypatch):
    # q = 13 has 28,561 cosets a row and is the largest q --compat takes
    def no_check(*args, **kwargs):
        raise AssertionError("a coset sum was run")
    monkeypatch.setattr("iwahecke.deeplevel.level_compatibility_check",
                        no_check)
    rc, data = run(tmp_path, "scholze", "--n", "1", "--q", "13",
                   "--count", "0", "--compat")
    assert rc == 0 and data.decode().strip() == "index,matrix,phi,z,flag"
    capsys.readouterr()
    for q in ("16", "17", "256"):
        rc, data = run(tmp_path, "scholze", "--n", "1", "--q", q,
                       "--count", "1", "--compat", name=f"q{q}")
        assert rc == 3 and data == b"", q
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --compat "), q
    # without --compat the same q is accepted
    rc, _ = run(tmp_path, "scholze", "--n", "1", "--q", "16", "--count", "1",
                "--pairs", "0")
    assert rc == 0


# -- exit 4: every check that can fail, failed in-process --------------------


def test_transfer_route_mismatch_exits_4(tmp_path, monkeypatch):
    argv = ("transfer", "--group", "GL:3", "--mu", "2,1,0")
    rc, data = run(tmp_path, *argv)
    want = json.loads(data)
    assert rc == 0 and want["routes_match"] == "PASS"
    assert "grassmannian" not in want
    fiber_integrate = transfer.kottwitz_fiber_integrate

    def shifted(z):  # one coefficient of the center route times q
        g = fiber_integrate(z)
        terms = dict(g.terms)
        rep = min(terms)
        terms[rep] = terms[rep].shift(2)
        return transfer.GradedFunction._make(g.rd, terms)
    monkeypatch.setattr(transfer, "kottwitz_fiber_integrate", shifted)
    _report.cache_clear()  # else the second run reads the first's report
    rc, data = run(tmp_path, *argv)
    assert rc == 4
    assert json.loads(data) == dict(want, routes_match="FAIL")


def test_transfer_grassmannian_mismatch_exits_4(tmp_path, monkeypatch):
    argv = ("transfer", "--group", "GL:4", "--mu", "1,1,0,0")
    rc, data = run(tmp_path, *argv)
    want = json.loads(data)
    assert rc == 0 and want["grassmannian"]["match"] == "PASS"
    count = transfer.grassmannian_count
    monkeypatch.setattr(transfer, "grassmannian_count",
                        lambda n, m: count(n, m) + 1)
    _report.cache_clear()  # else the second run reads the first's report
    rc, data = run(tmp_path, *argv)
    assert rc == 4
    expected = dict(want["grassmannian"]["expected"])
    expected["0"] += 1
    assert json.loads(data) == dict(want, grassmannian=dict(
        want["grassmannian"], expected=expected, match="FAIL"))


@pytest.mark.parametrize("check", ["invariance", "compatibility"])
def test_scholze_failed_check_exits_4(tmp_path, capsys, monkeypatch, check):
    argv = ("scholze", "--n", "1", "--q", "2", "--count", "4", "--compat")
    rc, rows = run(tmp_path, *argv)
    want = json.loads(capsys.readouterr().out)
    assert rc == 0 and want["status"] == "PASS"
    assert want["invariance"]["checked"] and want["compatibility"]["checked"]
    if check == "invariance":
        corpus = []
        build, phi = deeplevel.build_reference_corpus, deeplevel.scholze_phi

        def recorded(field, count):
            corpus.extend(build(field, count=count))
            return list(corpus)

        def off_by_one_on_products(n, g):  # u g u' is no corpus matrix
            value = phi(n, g)
            return value if any(g is h for h in corpus) else value + 1
        monkeypatch.setattr(deeplevel, "build_reference_corpus", recorded)
        monkeypatch.setattr(deeplevel, "scholze_phi", off_by_one_on_products)
    else:
        monkeypatch.setattr(deeplevel, "level_compatibility_check",
                            lambda n, g: False)
    _report.cache_clear()  # else the second run reads the first's report
    rc, got_rows = run(tmp_path, *argv)
    assert rc == 4 and got_rows == rows
    assert json.loads(capsys.readouterr().out) == dict(
        want, status="FAIL", **{check: dict(want[check], passed=0)})


@pytest.mark.parametrize("compat", [True, False])
def test_scholze_undecided_pair_is_not_checked(tmp_path, capsys, monkeypatch,
                                               compat):
    """A bi-invariance pair whose phi(u g u') the precision cannot decide
    is neither checked nor passed: it cannot turn the report into FAIL."""
    argv = ("scholze", "--n", "1", "--q", "2", "--count", "4",
            *(("--compat",) if compat else ()))
    rc, rows = run(tmp_path, *argv)
    want = json.loads(capsys.readouterr().out)
    assert rc == 0 and want["status"] == "PASS"
    assert want["invariance"]["checked"]
    corpus = []
    build, phi = deeplevel.build_reference_corpus, deeplevel.scholze_phi

    def recorded(field, count):
        corpus.extend(build(field, count=count))
        return list(corpus)

    def undecided_on_products(n, g):  # u g u' is no corpus matrix
        if any(g is h for h in corpus):
            return phi(n, g)
        raise deeplevel.IndeterminatePrecisionError("injected")
    monkeypatch.setattr(deeplevel, "build_reference_corpus", recorded)
    monkeypatch.setattr(deeplevel, "scholze_phi", undecided_on_products)
    _report.cache_clear()  # else the second run reads the first's report
    rc, got_rows = run(tmp_path, *argv)
    assert rc == 0 and got_rows == rows
    assert json.loads(capsys.readouterr().out) == dict(
        want, status="PASS" if compat else "UNCHECKED",
        invariance=dict(want["invariance"], checked=0, passed=0))


def _largest_printable_level(q):
    # [K:K_n] = q^(4(n-1)) (q^2-1)(q^2-q) must print in at most 4300 digits
    n = 1
    while q ** (4 * n) * (q * q - 1) * (q * q - q) < 10 ** 4300:
        n += 1
    return n


def test_scholze_level_size_guard_boundary(tmp_path, capsys, monkeypatch):
    n = _largest_printable_level(2)
    rc, data = run(tmp_path, "scholze", "--n", str(n), "--q", "2",
                   "--count", "1", "--pairs", "0", name="edge")
    assert rc == 0
    phi, z = data.decode().splitlines()[1].split(",")[2:4]
    assert int(phi) == 1 + 2 ** (2 * n - 1)       # the largest value of phi_n
    assert len(z.split("/")[1]) > 4290
    capsys.readouterr()

    def no_rows(*args, **kwargs):
        raise AssertionError("a row was computed")
    monkeypatch.setattr("iwahecke.deeplevel.build_reference_corpus", no_rows)
    monkeypatch.setattr("iwahecke.deeplevel.scholze_phi", no_rows)
    for q, level in ((2, n + 1), (3, _largest_printable_level(3) + 1),
                     (2, 10 ** 9)):
        rc, data = run(tmp_path, "scholze", "--n", str(level), "--q", str(q),
                       "--count", "1", name="over")
        assert rc == 3 and data == b""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --n ")


@pytest.mark.parametrize("group,order", [
    ("GL:200", "200!"), ("GL:140", "140!"), ("GL:100", "100!"),
    ("GL:10", "10!"), ("SL:10", "10!"), ("GL:99999999999", "99999999999!"),
    ("Sp:14", "2^7 7!"), ("GSp:200", "2^100 100!"),
])
def test_oversized_builtin_group_exits_3_before_building(tmp_path, capsys,
                                                         monkeypatch, group,
                                                         order):
    # GL(200) used to spend about a minute in the root closure, then exit 3
    # with the wrong reason
    def no_build(*args):
        raise AssertionError("the root datum was built")
    monkeypatch.setattr("iwahecke.cli.build_root_datum", no_build)
    start = time.perf_counter()
    rc, data = run(tmp_path, "adm", "--group", group, "--mu", "1")
    assert time.perf_counter() - start < 0.5
    assert rc == 3 and data == b""
    assert capsys.readouterr().err.splitlines() == [
        f"error: group {group!r} is too large: |W_0| = {order}, more than "
        "the 500000 elements the package enumerates"]


def test_weyl_size_guard_boundary(tmp_path, capsys, monkeypatch):
    # |W_0| = 9! = 362,880 and 2^6 6! = 46,080 are within the cap
    def stop(family, n):
        raise PreconditionError(f"built {family}:{n}")
    monkeypatch.setattr("iwahecke.cli.build_root_datum", stop)
    for group in ("GL:9", "SL:9", "Sp:12", "GSp:12"):
        rc, _ = run(tmp_path, "adm", "--group", group, "--mu", "1")
        assert rc == 3
        assert capsys.readouterr().err == f"error: built {group}\n"


def test_parse_group_reuses_builtin_datum_only(tmp_path):
    # a builtin group is built once per family and rank, whatever its case;
    # a config file is read again on every call
    gl3 = parse_group("GL:3")
    assert parse_group("GL:3") is gl3 and parse_group("gl:3") is gl3
    assert parse_group("SL:3") is not gl3 and parse_group("GL:4") is not gl3
    assert parse_group("SL:3").family == "SL(3)"
    cfg = tmp_path / "g.cfg"
    cfg.write_text((DATA / "pgl2.cfg").read_text())
    first = parse_group(str(cfg))
    cfg.write_text((DATA / "gsp4.cfg").read_text())
    assert parse_group(str(cfg)).rank == 3 and first.rank == 1


# -- the CLI contract as tables -----------------------------------------------
# Each table is run through main by its test here, and through the installed
# console script by CI with the same checking function.

# (argv, stdout golden, stderr golden) of every golden in tests/data but
# SAME_BYTES' Levi one; without --out, scholze writes its CSV to stdout and
# its report to stderr
GOLDEN_RUNS = [
    (("zmu", "--group", "GL:3", "--mu", "1,0,0"), "golden_zmu_gl3.json", None),
    (("zmu", "--group", "GL:3", "--mu", "2,1,0"), "golden_zmu_gl3_210.json",
     None),
    (("zmu", "--group", "Sp:4", "--mu", "1,1"), "golden_zmu_sp4_11.json",
     None),
    (("zmu", "--group", "GSp:6", "--mu", "1,1,1,1"),
     "golden_zmu_gsp6_1111.json", None),
    (("zmu", "--group", "GL:3", "--mu", "2,1,0", "--levi", "2"),
     "golden_zmu_gl3_210_levi2.json", None),
    (("zmu", "--group", "GSp:4", "--mu", "1,1,1", "--levi", "1"),
     "golden_zmu_gsp4_111_levi1.json", None),
    (("zmu", "--group", "Sp:4", "--mu", "1,1", "--levi", "2"),
     "golden_zmu_sp4_11_levi2.json", None),
    (("adm", "--group", "Sp:4", "--mu", "1,1"), "golden_adm_sp4_11.json",
     None),
    (("adm", "--group", "GL:3", "--mu", "2,1,0"), "golden_adm_gl3_210.json",
     None),
    # a product datum, whose kappa is a list
    (("adm", "--group", str(DATA / "gl2xgl2.cfg"), "--mu", "1,0,1,0"),
     "golden_adm_gl2xgl2_1010.json", None),
    # the Levi image of a base-changed function
    (("zmu", "--group", "GL:3", "--mu", "2,1,0", "--levi", "1", "--r", "2"),
     "golden_zmu_gl3_210_levi1_r2.json", None),
    (("zmu", "--group", "GL:3", "--mu", "1,0,0", "--levi", "2", "--q", "3"),
     "golden_zmu_gl3_100_levi2_q3.json", None),
    # both transfer routes, with the Grassmannian count at --q
    (("transfer", "--group", "GL:3", "--mu", "1,1,0", "--q", "2"),
     "golden_transfer_gl3_110_q2.json", None),
    # grades keyed by Kottwitz classes, and no Grassmannian block
    (("transfer", "--group", str(DATA / "gl2xgl2.cfg"), "--mu", "1,0,0,0"),
     "golden_transfer_gl2xgl2_1000.json", None),
    (("scholze", "--n", "1", "--q", "2", "--corpus", str(CORPUS_Q2),
      "--precision", "12", "--pairs", "1"), "golden_scholze_q2_n1.csv",
     "golden_scholze_q2_n1.json"),
    (("scholze", "--n", "2", "--q", "3", "--precision", "2", "--compat"),
     "golden_scholze_compat_q3_n2_p2.csv",
     "golden_scholze_compat_q3_n2_p2.json"),
    (("scholze", "--n", "1", "--q", "4", "--count", "60", "--compat"),
     "golden_scholze_compat_q4_n1.csv", "golden_scholze_compat_q4_n1.json"),
    # exact prime-field rows, each with its change-of-level check
    (("scholze", "--n", "1", "--q", "3", "--corpus", str(CORPUS_Q3),
      "--compat", "--pairs", "1"), "golden_scholze_compat_q3_n1.csv",
     "golden_scholze_compat_q3_n1.json"),
]

# The exit-code contract, one refusal a row: "<exit code> <argv> :: <error
# line>", where a line that starts with spaces continues the row and DATA
# in the argv stands for tests/data.  A refused run writes nothing to
# stdout or its --out, and one stderr line with "error:", this one (a
# prefix if it ends in "...": for a path, OS error text or argparse's
# choices, which Python 3.13 prints unquoted), after only argparse's usage.
# test_refusal runs each row through main, CI through the installed script.
_REFUSALS = """
2 :: iwahecke: error: the following arguments are required: command
2 frobnicate :: iwahecke: error: argument command: invalid choice: 'frobnicate'...
2 adm --group GL:2 --mu 1,0 --q 3 :: iwahecke: error: unrecognized arguments: --q 3
2 adm --group GL:2 --mu 1,0 --q 0 :: iwahecke: error: unrecognized arguments: --q 0
2 adm --group GL:3 --mu -1,1,0 :: iwahecke adm: error: argument --mu: expected one argument
2 zmu --group GL:2 --mu 1,0 --format csv
  :: iwahecke zmu: error: argument --format: invalid choice: 'csv'...
2 transfer --group GL:2 --mu 1,0 --format csv
  :: iwahecke transfer: error: argument --format: invalid choice: 'csv'...
2 scholze --n 1 --q 2 --format json
  :: iwahecke scholze: error: argument --format: invalid choice: 'json'...
2 zmu --group Sp:4 --mu 1,1 --method closed --r 2 --format csv
  :: iwahecke zmu: error: argument --format: invalid choice: 'csv'...
2 zmu --group GL:2 --mu 1,0 --r 0 :: iwahecke zmu: error: argument --r: must be >= 1, got 0
2 zmu --group GL:2 --mu 1,0 --r -2 :: iwahecke zmu: error: argument --r: must be >= 1, got -2
2 zmu --group GL:2 --mu 1,0 --r x :: iwahecke zmu: error: argument --r: invalid int value: 'x'
2 zmu --group GL:3 --mu 2,1,0 --levi abc
  :: iwahecke zmu: error: argument --levi: malformed label list 'abc'
2 zmu --group GL:3 --mu 2,1,0 --levi 1,,2
  :: iwahecke zmu: error: argument --levi: malformed label list '1,,2'
2 zmu --group GL:3 --mu 2,1,0 --levi=--
  :: iwahecke zmu: error: argument --levi: malformed label list '--'
2 zmu --group GL:2 --mu 1,0 --q=-- :: iwahecke zmu: error: argument --q: invalid int value: '--'
2 adm --group GL:3 --mu 1,0,0 --format=--
  :: iwahecke adm: error: argument --format: invalid choice: '--'...
2 scholze --n=-- --q 2 :: iwahecke scholze: error: argument --n: invalid int value: '--'
2 scholze --n 0 --q 2 :: iwahecke scholze: error: argument --n: must be >= 1, got 0
2 scholze --n -3 --q 2 :: iwahecke scholze: error: argument --n: must be >= 1, got -3
2 scholze --n 1 --q abc :: iwahecke scholze: error: argument --q: invalid int value: 'abc'
2 scholze --n 1 --q 2 --count -1 :: iwahecke scholze: error: argument --count: must be >= 0, got -1
2 scholze --n 1 --q 2 --precision -5
  :: iwahecke scholze: error: argument --precision: must be >= 0, got -5
2 scholze --n 1 --q 2 --pairs -1 :: iwahecke scholze: error: argument --pairs: must be >= 0, got -1
2 adm --group GL:3 --mu a,b,c :: error: malformed coweight 'a,b,c'
2 adm --group GL:3 --mu=-- :: error: malformed coweight '--'
2 zmu --group GL:abc --mu 1 :: error: malformed group 'GL:abc'
2 adm --group GL: --mu 1 :: error: malformed group 'GL:'
3 adm --group GL:0 --mu 1 :: error: GL(n) needs n >= 1
3 adm --group XX:2 --mu 1 :: error: unsupported family 'XX'
3 adm --group GSp:3 --mu 1 :: error: GSp(n) needs even n >= 2
3 adm --group Sp:5 --mu 1 :: error: Sp(n) needs even n >= 2
3 adm --group gsp:1 --mu 1 :: error: GSp(n) needs even n >= 2
3 adm --group GL:200 --mu 1 :: error: group 'GL:200' is too large: |W_0| = 200!, more than the
  500000 elements the package enumerates
3 adm --group GL:3 --mu=-1,1,0 :: error: (-1, 1, 0) is not dominant
3 zmu --group GL:3 --mu 0,1,0 :: error: (0, 1, 0) is not dominant
3 adm --group GL:3 --mu 1,0 :: error: coweight has 2 coordinates, rank is 3
3 zmu --group GL:2 --mu 2,0 --method closed
  :: error: (2, 0) is not minuscule; the closed formula does not apply
3 zmu --group GL:3 --mu 2,1,0 --levi 5 :: error: not a simple root label: 5
3 zmu --group GL:3 --mu 1,0,0 --levi 1 --q 0
  :: error: cannot specialize q to 0: -v + v^-1 has a negative power of q
3 adm --group GL:2 --mu 1,0 --out DATA/no-such-dir/out.json
  :: error: cannot write output: [Errno 2]...
3 scholze --n 1 --q 2 --count 3 --out DATA/no-such-dir/out.csv
  :: error: cannot write output: [Errno 2]...
3 adm --group GL:2 --mu 1,1 --out= :: error: cannot write output: [Errno 2]...
3 scholze --n=1 --q=2 --count=3 --pairs=1 --corpus=
  :: error: cannot read corpus: [Errno 2]...
3 scholze --n 1 --q 2 --corpus DATA/no-such-dir/x :: error: cannot read corpus: [Errno 2]...
3 scholze --n 1 --q 2 --corpus DATA :: error: cannot read corpus: [Errno 21]...
3 scholze --n 1 --q 6 :: error: 6 is not a prime power
3 scholze --n 1 --q 12 :: error: 12 is not a prime power
3 scholze --n 1 --q 1000000007 :: error: q = 1000000007 is out of supported range 2..4096
3 scholze --n 1 --q 4097 :: error: q = 4097 is out of supported range 2..4096
3 scholze --n 1 --q 1 :: error: q = 1 is out of supported range 2..4096
3 scholze --n 1 --q 0 :: error: q = 0 is out of supported range 2..4096
3 scholze --n 1 --q -4 :: error: q = -4 is out of supported range 2..4096
3 adm --group DATA/no-such.cfg --mu 0 :: error: cannot read group config: [Errno 2]...
3 adm --group DATA --mu 0 :: error: cannot read group config: [Errno 21]...
3 adm --group=-- --mu 1,0,0 :: error: cannot read group config: [Errno 2]...
3 adm --group DATA/rank_negative.cfg --mu 0 :: error: bad rank '-1'
3 adm --group DATA/bad_row.cfg --mu 0 :: error: bad matrix row '1 x'
3 adm --group DATA/unterminated.cfg --mu 0 :: error: unterminated block 'simple_roots'
3 adm --group DATA/no_rank.cfg --mu 0 :: error: config is missing 'rank'
3 adm --group DATA/unpaired.cfg --mu 0 :: error: need equally many simple roots and coroots
3 adm --group DATA/long_vectors.cfg --mu 0 :: error: root/coroot length differs from rank
3 adm --group DATA/positive_cartan.cfg --mu 0 :: error: positive off-diagonal Cartan entry
3 adm --group DATA/affine_a1.cfg --mu 0 :: error: root closure exceeds 10000 roots: the Cartan
  matrix is not of finite type, or its root system is larger than the package allows
3 adm --group DATA/rank_huge.cfg --mu 0 :: error: rank must be an int in 0..10000, got 100000000000
3 adm --group DATA/rank_overflow.cfg --mu 0
  :: error: rank must be an int in 0..10000, got 1000000000000000000000000000000
"""


def _lines(table):
    """A text table's rows, each continuation line joined to its row."""
    return re.sub(r"\n\s+", " ", table.strip()).splitlines()


def _argv(text):
    """The argv a table spells, DATA standing for tests/data."""
    return tuple(arg.replace("DATA", str(DATA), 1) for arg in text.split())


def _rows(table):
    rows = []
    for row in _lines(table):
        head, line = row.split(" :: ")
        code, _, argv = head.partition(" ")
        rows.append((_argv(argv), int(code), line))
    return rows


REFUSALS = _rows(_REFUSALS)
# rows whose guard, were it to regress, would allocate without bound: each
# runs in a child process whose address space is capped
CAPPED = [row for row in REFUSALS if row[2].startswith("error: rank must")]

# Groups of runs that print the same bytes once "method": "closed" reads
# "method": "theta", their members, a golden or an argv that exits 0 with
# an empty stderr, separated by " = ".  The closed route never folds, so
# on a minuscule mu it writes the theta route's report; a Levi report has
# no method line, and prints its labels sorted and without repeats.
SAME_BYTES = [row.split(" = ") for row in _lines("""
golden_zmu_gl3.json = zmu --group GL:3 --mu 1,0,0 --method closed
zmu --group GL:4 --mu 1,1,0,0 = zmu --group GL:4 --mu 1,1,0,0 --method closed
zmu --group GSp:4 --mu 1,1,1 = zmu --group GSp:4 --mu 1,1,1 --method closed
golden_zmu_gsp6_1111.json = zmu --group GSp:6 --mu 1,1,1,1 --method closed
golden_zmu_gl3_100_levi2_q3.json
  = zmu --group GL:3 --mu 1,0,0 --levi 2 --q 3 --method closed
golden_zmu_gl3_100_levi12.json = zmu --group GL:3 --mu 1,0,0 --levi 1,2
  = zmu --group GL:3 --mu 1,0,0 --levi 2,1
  = zmu --group GL:3 --mu 1,0,0 --levi 1,1,2
  = zmu --group GL:3 --mu 1,0,0 --levi 2,1,2
  = zmu --group GL:3 --mu 1,0,0 --levi 1,2 --method closed
""")]

# scholze runs, each exiting 0 with a headed CSV: "<CSV rows> <rows
# INDETERMINATE> <status> <invariance checked/passed/vacuous>
# <compatibility checked/passed> :: <argv after scholze>".  A run that
# checked nothing (u g u' = g checks nothing) is UNCHECKED, never PASS.
REPORTS = [row.split(" :: ") for row in _lines("""
0 0 UNCHECKED 0/0/0 0/0 :: --n 1 --q 2 --corpus DATA/corpus_empty.txt
2 2 UNCHECKED 0/0/0 0/0
  :: --n 3 --q 2 --corpus DATA/corpus_starved.txt --precision 2 --pairs 0
2 2 UNCHECKED 0/0/0 0/0
  :: --n 3 --q 2 --corpus DATA/corpus_starved.txt --precision 2 --compat
3 0 UNCHECKED 0/0/0 0/0 :: --n 1 --q 2 --count 3 --pairs 0
3 3 UNCHECKED 0/0/0 0/0 :: --n 1 --q 2 --count 3 --precision 0
60 32 UNCHECKED 0/0/84 0/0 :: --n 3 --q 2 --count 60 --precision 2 --pairs 3
3 0 PASS 3/3/0 0/0 :: --n 1 --q 2 --count 3 --pairs 1
5 0 PASS 5/5/0 0/0 :: --n 1 --q 9 --count 5 --pairs 1
3 0 PASS 6/6/0 3/3 :: --n 2 --q 3 --count 3 --compat
6 0 PASS 12/12/0 6/6 :: --n 1 --q 4 --count 6 --compat
6 0 PASS 12/12/0 6/6 :: --n 2 --q 5 --count 6 --compat
""")]

# Runs that, each run twice (the second a report-memo hit) in one process
# in this order, print what fresh contexts print.  The z_mu and Adm memos
# answer a central shift (here by 1000 (1,1,1)) of a seen class by
# translating; the two configs hold GL(3)'s roots under two names.
SHIFTED_RUNS = _lines("""
zmu --group GL:3 --mu 2,1,0
zmu --group GL:3 --mu=1002,1001,1000
zmu --group GL:3 --mu 1,1,0 --method closed
zmu --group GL:3 --mu=1001,1001,1000 --method closed
adm --group GL:3 --mu 2,1,0
adm --group GL:3 --mu=1002,1001,1000
zmu --group GL:3 --mu 2,1,0 --levi 1
zmu --group GL:3 --mu=1002,1001,1000 --levi 1
adm --group DATA/gl3_one.cfg --mu 2,1,0
adm --group DATA/gl3_two.cfg --mu 2,1,0
zmu --group DATA/gl3_one.cfg --mu 1,0,0
zmu --group DATA/gl3_two.cfg --mu 1,0,0
""")

# Calls that succeed, run between the golden ones: each sets options the
# golden calls leave at their defaults, so a value that outlived its call
# would change a later golden's bytes.
INTERLEAVED = [
    ("zmu", "--group", "GL:3", "--mu", "1,0,0", "--levi", "1", "--q", "4"),
    ("--help",),
    ("zmu", "--help"),
    ("scholze", "--n", "2", "--q", "2", "--count", "2", "--pairs", "0",
     "--precision", "1"),
    ("zmu", "--group", "GL:2", "--mu", "1,0", "--r", "2", "--q", "3"),
]


def test_main_is_reentrant(capsys):
    seen = {}
    stored = []

    def call(argv):
        rc = main(list(argv))
        out, err = capsys.readouterr()
        seen.setdefault(argv, []).append((rc, out, err))
        # a report run returns is kept unless its request reads a corpus,
        # also when write then refuses its --out
        if ((rc == 0 or "error: cannot write output" in err)
                and "--help" not in argv and "--corpus" not in argv):
            stored.append(argv)
        return rc, out, err

    # every uncapped refusal and INTERLEAVED call runs before some golden
    refusals = [row for row in REFUSALS if row not in CAPPED]
    # the first pass fills the per-group memos, the second computes every
    # report again from them, and the third reads each report from cli.run's
    for n in range(3):
        if n == 1:
            _report.cache_clear()
        stored.clear()
        hits = _report.cache_info().hits
        for i, (argv, out_name, err_name) in enumerate(GOLDEN_RUNS):
            for row in refusals[i::len(GOLDEN_RUNS)]:
                assert refusal_faults(row, *call(row[0]), 0) == [], row
            for extra in INTERLEAVED[i::len(GOLDEN_RUNS)]:
                assert call(extra)[0] == 0, extra
            rc, out, err = call(argv)
            assert rc == 0, argv
            # read as bytes: the CSV goldens end their lines in \r\n
            assert out == (DATA / out_name).read_bytes().decode(), argv
            # a run with no stderr golden writes nothing there
            assert err == ((DATA / err_name).read_bytes().decode()
                           if err_name else ""), argv
        assert _report.cache_info().hits - hits == (len(stored) if n == 2
                                                    else 0)
    for argv, results in seen.items():
        assert len(results) == 3 and results.count(results[0]) == 3, argv


def refusal_faults(row, rc, out, err, seconds):
    """How a run of `row` that exited `rc` after `seconds`, writing `out`
    and `err`, broke the contract: empty if it kept it."""
    argv, code, line = row
    *usage, last = err.splitlines() or [""]
    prog = last.split("error:")[0][:-2]  # argparse's, which writes usage
    prefix = line.removesuffix("...")
    # --out PATH and --out=PATH; an empty PATH names no file, as Path("")
    # is the working directory
    outs = [argv[i + 1] for i, a in enumerate(argv) if a == "--out"]
    outs += [a.removeprefix("--out=") for a in argv if a.startswith("--out=")]
    return [fault for fault, bad in (
        (f"exit code {rc}", rc != code),
        (f"error line {last!r}", not last.startswith(prefix) or (
            prefix == line and last != line)),
        ("other stderr", bool(usage) != bool(prog) or any(
            not u.startswith((f"usage: {prog} [", " ")) for u in usage)),
        ("output on stdout", out != ""),
        ("a file at --out", any(Path(path).exists() for path in outs if path)),
        (f"{seconds:.2f} s", seconds >= 2)) if bad]


@pytest.mark.parametrize("row", REFUSALS, ids=[
    " ".join(argv).replace(str(DATA), "DATA") for argv, _, _ in REFUSALS])
def test_refusal(row, call):
    start = time.perf_counter()
    if row in CAPPED:  # python -m iwahecke, its address space capped
        proc = subprocess.run(
            [sys.executable, "-m", "iwahecke", *row[0]], capture_output=True,
            text=True, timeout=60, preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (1536 << 20,) * 2),
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        result = proc.returncode, proc.stdout, proc.stderr
    else:
        result = call(row[0])
    assert refusal_faults(row, *result, time.perf_counter() - start) == []


def test_refusal_faults_reads_both_spellings_of_out(tmp_path):
    # a file left at --out is a fault in either spelling of the flag, and
    # an empty path names no file
    path = tmp_path / "out.json"
    path.write_text("")
    err = "error: cannot write output: x\n"
    for argv in (("adm", "--out", str(path)), ("adm", f"--out={path}"),
                 ("adm", "--out=")):
        row = (argv, 3, "error: cannot write output: ...")
        assert refusal_faults(row, 3, "", err, 0) == (
            [] if argv[-1] == "--out=" else ["a file at --out"]), argv


def golden_faults(row, call, out):
    """How a GOLDEN_RUNS row, run by `call(argv) -> (exit code, stdout,
    stderr)` as it is and with --out `out` (no file yet), broke the
    contract: empty if it kept it."""
    argv, out_name, err_name = row
    text = (DATA / out_name).read_bytes().decode()
    note = (DATA / err_name).read_bytes().decode() if err_name else ""
    return [fault for fault, bad in (
        ("without --out", call(argv) != (0, text, note)),
        ("with --out", call([*argv, "--out", str(out)]) != (0, note, "")
         or out.read_bytes().decode() != text)) if bad]


def same_bytes_faults(group, call):
    """The members of a SAME_BYTES group whose bytes differ from its
    first's, or that do not exit 0 with an empty stderr."""
    def text(member):
        if member.startswith("golden_"):
            return (DATA / member).read_bytes().decode()
        rc, out, err = call(_argv(member))
        return None if rc or err else out.replace('"method": "closed"',
                                                  '"method": "theta"')
    texts = [text(member) for member in group]
    return [m for m, t in zip(group, texts) if t is None or t != texts[0]]


def report_summary(call, argv):
    """What the REPORTS run `argv` reports, as its row writes it."""
    rc, out, err = call(("scholze", *_argv(argv)))
    header, *rows = out.splitlines() or [""]
    if rc or header != "index,matrix,phi,z,flag":
        return f"exit code {rc}, CSV header {header!r}"
    report = json.loads(err)
    inv, compat = report["invariance"], report["compatibility"]
    flagged = sum(row.endswith(",INDETERMINATE") for row in rows)
    return (f"{len(rows)} {flagged} {report['status']} {inv['checked']}/"
            f"{inv['passed']}/{inv['vacuous']} "
            f"{compat['checked']}/{compat['passed']}")


def shifted_faults(call, fresh):
    """The SHIFTED_RUNS rows that, run twice each by `call`, all in order,
    do not exit 0 or print other bytes than one run by `fresh`."""
    runs = [(row, call(_argv(row)), call(_argv(row))) for row in SHIFTED_RUNS]
    return [row for row, first, second in runs
            if first[0] or not first == second == fresh(_argv(row))]


@pytest.mark.parametrize("row", GOLDEN_RUNS, ids=[r[1] for r in GOLDEN_RUNS])
def test_golden(row, call, tmp_path):
    assert golden_faults(row, call, tmp_path / "out") == []


@pytest.mark.parametrize("group", SAME_BYTES, ids=[g[0] for g in SAME_BYTES])
def test_same_bytes(group, call):
    assert same_bytes_faults(group, call) == []


@pytest.mark.parametrize("want,argv", REPORTS, ids=[a for _, a in REPORTS])
def test_report(want, argv, call):
    assert report_summary(call, argv) == want


def test_shifted_runs_print_what_fresh_contexts_print(call, monkeypatch):
    hits = []

    def in_process(argv):
        hits.append(_report.cache_info().hits)
        return call(argv)

    def fresh(argv):
        _report.cache_clear()
        monkeypatch.setattr(affine, "_REGISTRY", {})
        monkeypatch.setattr(cli, "_builtin", {})
        return call(argv)
    assert shifted_faults(in_process, fresh) == []
    # every second run, and no first, is a report-memo hit
    assert hits == [k // 2 for k in range(2 * len(SHIFTED_RUNS))]


def test_run_writes_no_stream(capsys):
    # parse and run compute the report; only write and main touch a stream
    for argv, out_name, err_name in GOLDEN_RUNS:
        report = run_request(parse(list(argv))[0])
        assert capsys.readouterr() == ("", ""), argv
        assert report.status == 0, argv
        assert report.text == (DATA / out_name).read_bytes().decode(), argv
        assert report.note == ((DATA / err_name).read_bytes().decode()
                               if err_name else ""), argv


def test_spellings_of_one_request_parse_equal(tmp_path):
    def request(*argv):
        return parse(list(argv))[0]
    zmu = ("zmu", "--group", "GL:3", "--mu", "1,0,0")
    assert request(*zmu, "--levi", "2,1,2") == request(*zmu, "--levi", "1,2")
    assert request(*zmu, "--levi", "1,2").levi == (1, 2)
    assert (request("adm", "--group", "GL:3", "--mu=1,0,0")
            == request("adm", "--group", "GL:3", "--mu", "1,0,0"))
    assert (request("adm", "--group", "gl:3", "--mu", "1,0,0")
            == request("adm", "--group", "GL:3", "--mu", "1,0,0"))
    # each subcommand's one format may be named; REFUSALS has the others
    for argv, fmt in ((zmu, "json"), (("transfer", *zmu[1:]), "json"),
                      (("scholze", "--n", "1", "--q", "2"), "csv")):
        assert request(*argv, "--format", fmt) == request(*argv), argv
    a, out_a = parse([*zmu, "--out", str(tmp_path / "a")])
    b, out_b = parse([*zmu, "--out", str(tmp_path / "b")])
    assert a == b and out_a != out_b
    assert a == request(*zmu) and not hasattr(a, "out")
    assert a.mu == (1, 0, 0) and a.group is parse_group("GL:3")


# -- the reader against argparse ----------------------------------------------

# argv that parse leaves to argparse.  argparse reads an abbreviation, a
# repeat (keeping the last), a value that starts with "-" given apart, a
# value "--" (which 3.10 and 3.11 drop) and empty values; it refuses a
# store_true given a value, "--" before an option, an unknown option, one
# missing its value and a missing required option, and answers -h with help
DECLINED = [_argv(row) for row in _lines("""
adm --gr GL:3 --mu 1,0,0
adm --group GL:3 --mu 1,0,0 --mu 2,1,0
zmu --group GL:3 --mu=1,0,0 --method closed --method=theta
zmu --group GL:3 --mu 1,0,0 --q -1
adm --group GL:3 --mu=--
adm --group GL:3 --mu=
scholze --n 1 --q 2 --corpus=
scholze --n 1 --q 2 --compat=1
adm --group GL:3 --mu 1,0,0 -h
adm --group GL:3 -- --mu 1,0,0
adm --group GL:3 --mu 1,0,0 --levi 1
adm --group GL:3 --mu
adm --group GL:3
""")] + [("adm", "--group", "", "--mu", "1,0,0")]

# every argv of the tables that exit 0, all of which parse reads itself
READ = ([argv for argv, _, _ in GOLDEN_RUNS]
        + [_argv(m) for group in SAME_BYTES for m in group
           if not m.startswith("golden_")]
        + [("scholze", *_argv(argv)) for _, argv in REPORTS]
        + [_argv(row) for row in SHIFTED_RUNS])


def reader_faults(argv):
    """How parse's reader answered `argv` other than argparse: empty if it
    declined or read argparse's ``Namespace``, field by field."""
    read = cli._read(list(argv))
    if read is None:
        return []
    try:
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            parsed = cli._grammar()[0].parse_args(list(argv))
    except SystemExit:
        return ["read what argparse refuses"]
    read, parsed = vars(read), vars(parsed)
    return [f"{key}: {read.get(key)!r}, argparse {parsed.get(key)!r}"
            for key in sorted(read.keys() | parsed.keys())
            if key not in read or key not in parsed
            or (type(read[key]), read[key])
            != (type(parsed[key]), parsed[key])]


def test_reader_reads_what_argparse_reads():
    tables = READ + [argv for argv, _, _ in REFUSALS] + SWEEP + DECLINED
    assert [(argv, faults) for argv in tables
            if (faults := reader_faults(argv))] == []
    assert [argv for argv in READ if cli._read(list(argv)) is None] == []
    assert [argv for argv in DECLINED
            if cli._read(list(argv)) is not None] == []


def test_main_and_parse_read_sys_argv(monkeypatch, capsys):
    def refuse(self, args=None, namespace=None):
        raise AssertionError("argparse parsed a canonical argv")
    # one argv the reader reads, one argparse refuses, one argparse reads
    for argv in (("zmu", "--group", "GL:3", "--mu", "2,1,0", "--levi", "2"),
                 ("adm", "--group", "GL:3", "--mu", "-1,1,0"),
                 ("adm", "--group", "GL:3", "--mu", "1,0,0", "--mu", "2,1,0")):
        want = main(list(argv)), *capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(sys, "argv", ["iwahecke", *argv])
            if argv[0] == "zmu":
                patch.setattr(argparse.ArgumentParser, "parse_args", refuse)
                assert parse(None) == parse(list(argv))
            assert (main(None), *capsys.readouterr()) == want, argv


# -- the report memo -------------------------------------------------------------


def test_repeated_and_respelled_requests_are_memo_hits(capsys):
    zmu = ("zmu", "--group", "GL:3", "--mu", "1,0,0")
    scholze = ("scholze", "--n", "1", "--q", "4", "--count", "3")
    for first, again in (
            (zmu, zmu),
            (("adm", "--group", "GL:3", "--mu=2,1,0"),
             ("adm", "--group", "GL:3", "--mu", "2,1,0")),
            ((*zmu, "--levi", "2,1,2"), (*zmu, "--levi", "1,2")),
            (scholze, scholze)):
        _report.cache_clear()
        rc = main(list(first))
        want = rc, *capsys.readouterr()
        assert rc == 0 and _report.cache_info()[:2] == (0, 1), first
        rc = main(list(again))
        assert (rc, *capsys.readouterr()) == want, again
        assert _report.cache_info()[:2] == (1, 1), again  # (hits, misses)


def test_memo_keeps_the_last_32_reports(capsys):
    # a central coweight's Adm is one element, so each request is cheap
    def adm(k):
        assert main(["adm", "--group", "GL:2", f"--mu={k},{k}"]) == 0
    for k in range(33):
        adm(k)
    assert _report.cache_info().currsize == 32
    adm(32)
    assert _report.cache_info().hits == 1
    adm(0)  # the oldest, dropped
    assert _report.cache_info()[:2] == (1, 34)
    assert _report.cache_info().currsize == 32
    capsys.readouterr()


def test_memo_keeps_equal_data_under_two_names_apart(capsys):
    # RootDatum equality ignores the name, but every report prints it
    configs = [(name, str(DATA / f"{name}.cfg"))
               for name in ("gl3_one", "gl3_two")]
    assert load_root_datum(configs[0][1]) == load_root_datum(configs[1][1])
    for _ in range(2):
        for name, path in configs:
            for argv in (("adm", "--mu", "1,0,0"), ("zmu", "--mu", "1,0,0")):
                assert main([*argv, "--group", path]) == 0
                assert json.loads(capsys.readouterr().out)["group"] == name
    assert _report.cache_info()[:2] == (4, 4)


def test_memo_rereads_a_corpus_on_every_call(tmp_path, capsys):
    lines = CORPUS_Q2.read_text().splitlines()
    corpus = tmp_path / "corpus.txt"
    argv = ["scholze", "--n", "1", "--q", "2", "--corpus", str(corpus),
            "--precision", "12", "--pairs", "1"]
    rows = []
    for chunk in (lines[:3], lines[3:6]):
        corpus.write_text("\n".join(chunk) + "\n")
        assert main(argv) == 0
        rows.append(capsys.readouterr().out.splitlines()[1:])
    assert len(rows[0]) == len(rows[1]) == 3 and rows[0] != rows[1]
    assert _report.cache_info().currsize == 0


def test_memo_stores_no_refusal(capsys):
    assert main(["zmu", "--group", "GL:3", "--mu", "2,1,0"]) == 0
    capsys.readouterr()
    for _ in range(3):
        rc = main(["zmu", "--group", "GL:3", "--mu", "1,0,0", "--levi", "1",
                   "--q", "0"])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert err.startswith("error: cannot specialize q to 0")
        assert err.count("\n") == 1
        assert _report.cache_info().currsize == 1


# -- the records splice against json.dumps ------------------------------------


def _reference_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


class _Label(int):
    pass


HAND_CORPUS = [
    {}, [], (), "", 0, -1, 7, -(2 ** 70), 2 ** 64, 2 ** 64 + 1, 3 ** 200,
    True, False, None, 1.5, -0.0, 1e300, float("inf"),
    {"a": {}, "b": [], "c": [[], {}], "d": [{}], "e": ([], ())},
    [[[[]]]], {"x": {"y": {"z": {}}}},
    {"t": (1, (2, ()), ("s", None))}, [("a", "b"), (True, False)],
    "café", "日本", "\U0001f600", "\"\\/\n\r\t\b\f\x00\x1f\x7f",
    {"é": 1, "\n": 2, "a\"b": 3, "": 4, "\U0001f600": [None]},
    {"b": 1, "a": 2, "10": 3, "9": 4, "B": 5, "-1": -1},
    {"neg": [-5, 0, 5], "big": [2 ** 64 + 1, -(2 ** 64) - 1]},
    {"ints": {2: "b", 1: [1, {}], 10: {"k": ()}}}, [{1.5: "x"}],
    {"sub": _Label(3)}, [_Label(-4), {"f": 0.1}],
]


@pytest.mark.parametrize("obj", HAND_CORPUS, ids=range(len(HAND_CORPUS)))
def test_dumps_matches_json_dumps_on_hand_corpus(obj):
    # json.dumps writes each value around the records, before and after
    # their key, after the key's own null text one level deeper and in a
    # string; the records still take the place of their key's null alone
    W = build_root_datum("GL", 2).affine_weyl()
    for key in ("elements", "terms"):
        for elements in ([], sorted(W.admissible_set((1, 0)),
                                    key=W.sort_key)):
            report = {"a": {key: None, "x": obj}, "b": f'\n "{key}": null',
                      "c": obj, key: _records(W, elements), "z": obj}
            plain = dict(report)
            plain[key] = [element_record(W, x) for x in elements]
            assert dumps(report) == _reference_dumps(plain)


def _plain_report(argv):
    """The report of an adm or zmu run as plain objects, each record built
    by the oracle, for json.dumps to write."""
    command, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    family, _, n = opts["--group"].partition(":")
    rd = build_root_datum(family, int(n)) if n else load_root_datum(family)
    W = rd.affine_weyl()
    mu = tuple(int(t) for t in opts["--mu"].split(","))
    if command == "adm":
        elements = sorted(W.admissible_set(mu), key=W.sort_key)
        return {"schema": "iwahecke/adm/1", "group": rd.family,
                "mu": list(mu), "count": len(elements),
                "elements": [element_record(W, x) for x in elements]}
    q = int(opts["--q"]) if "--q" in opts else None
    r = int(opts.get("--r", 1))
    method = opts.get("--method", "theta")
    f = base_change(monomial_symmetric(rd, mu), r)
    if method == "closed":
        vz = closed_form_bernstein(W, mu)
    else:
        lt = W.translation(tuple(r * x for x in mu)).length()
        vz = bernstein_iso(f, W).scale(LaurentPoly.v(lt))
    if "--levi" in opts:
        levi = [int(t) for t in opts["--levi"].split(",")]
        return {"schema": "iwahecke/hecke-element/1", "group": rd.family,
                "levi": levi, "mu": list(mu),
                "normalization": "c^G_L(z_mu)",
                "terms": hecke_json(constant_term(bernstein_iso(f, W), levi),
                                    q)}
    return {"schema": "iwahecke/hecke-element/1", "group": rd.family,
            "mu": list(mu), "method": method, "base_change_r": r,
            "normalization": "v^l(t_mu) * z_mu", "terms": hecke_json(vz, q)}


def test_dumps_matches_json_dumps_on_command_outputs(tmp_path):
    # adm and zmu write their records from one template: their bytes must
    # be what json.dumps writes for the same report built as plain objects,
    # on every adm and zmu golden, the --q forms and a display name that
    # JSON escapes, which holds the text of the records' own key line
    escaped = str(DATA / "gl2_escaped_name.cfg")
    for argv in [a for a, _, _ in GOLDEN_RUNS if a[0] in ("adm", "zmu")] + [
            ("adm", "--group", escaped, "--mu", "1,0"),
            ("zmu", "--group", escaped, "--mu", "1,0", "--q", "3"),
            ("adm", "--group", str(DATA / "pgl2.cfg"), "--mu", "1"),
            ("zmu", "--group", "GSp:4", "--mu", "1,1,1"),
            ("zmu", "--group", "GL:3", "--mu", "2,1,0", "--levi", "1"),
            ("zmu", "--group", "GL:2", "--mu", "1,0", "--q", "5"),
            ("zmu", "--group", "Sp:4", "--mu", "1,1", "--q", "3"),
            ("zmu", "--group", "GL:2", "--mu", "1,0", "--r", "3", "--q", "2"),
            ("zmu", "--group", "GL:3", "--mu", "1,0,0", "--levi", "1",
             "--method", "closed", "--q", "4"),
            ("zmu", "--group", str(DATA / "gl2xgl2.cfg"), "--mu", "1,0,1,0",
             "--levi", "1,2", "--q", "2")]:
        rc, data = run(tmp_path, *argv)
        assert rc == 0, argv
        assert data.decode() == _reference_dumps(_plain_report(argv)), argv
