import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

import iwahecke.deeplevel as deeplevel
import iwahecke.transfer as transfer
from iwahecke.center import bernstein_iso, constant_term, monomial_symmetric
from iwahecke.cli import PreconditionError, dumps, main, parse_group
from iwahecke.klpoly import closed_form_bernstein
from iwahecke.laurent import LaurentPoly
from iwahecke.rootdata import build_root_datum, load_root_datum
from iwahecke.transfer import base_change

from conftest import DATA
from oracles import element_record, hecke_json

CORPUS_Q2 = Path("src/iwahecke/data/scholze_corpus_q2.txt")


def run(tmp_path, *argv, name="out"):
    out = tmp_path / name
    rc = main(list(argv) + ["--out", str(out)])
    return rc, out.read_bytes() if out.exists() else b""


def test_adm_gl2(tmp_path):
    rc, data = run(tmp_path, "adm", "--group", "GL:2", "--mu", "1,0")
    assert rc == 0
    doc = json.loads(data)
    assert doc["count"] == 3
    assert doc["schema"] == "iwahecke/adm/1"


def test_adm_trivial(tmp_path):
    rc, data = run(tmp_path, "adm", "--group", "GL:2", "--mu", "0,0")
    assert rc == 0
    assert json.loads(data)["count"] == 1


def test_adm_malformed_mu(tmp_path, capsys):
    assert main(["adm", "--group", "GL:2", "--mu", "x,y"]) == 2


def test_adm_takes_no_q(tmp_path, capsys):
    # Adm(mu) has no coefficients to specialize, so --q is a usage error
    for q in ("3", "0"):
        rc, data = run(tmp_path, "adm", "--group", "GL:2", "--mu", "1,0",
                       "--q", q)
        assert rc == 2 and data == b"", q
        assert capsys.readouterr().err.splitlines() == [
            "usage: iwahecke [-h] {adm,zmu,transfer,scholze} ...",
            f"iwahecke: error: unrecognized arguments: --q {q}"]


def test_malformed_group_rank_is_a_parse_error(tmp_path, capsys):
    for cmd, group in (("zmu", "GL:abc"), ("adm", "GL:")):
        rc, data = run(tmp_path, cmd, "--group", group, "--mu", "1")
        assert rc == 2 and data == b"", group
        err = capsys.readouterr().err
        assert err == f"error: malformed group {group!r}\n"
    # a well-formed rank the family rejects stays a precondition error
    for group in ("GL:0", "XX:2"):
        rc, _ = run(tmp_path, "adm", "--group", group, "--mu", "1")
        assert rc == 3, group
        assert capsys.readouterr().err.startswith("error: ")


def test_odd_symplectic_size_names_the_family(tmp_path, capsys):
    # the message spells the family as the datum names do
    for group, family in (("GSp:3", "GSp"), ("Sp:5", "Sp"), ("gsp:1", "GSp")):
        rc, data = run(tmp_path, "adm", "--group", group, "--mu", "1")
        assert rc == 3 and data == b"", group
        assert capsys.readouterr().err == (
            f"error: {family}(n) needs even n >= 2\n"), group


def test_zmu_closed_base_change_refused_before_the_center(tmp_path, capsys,
                                                         monkeypatch):
    def no_center(*args):
        raise AssertionError("the symmetric function was formed")
    monkeypatch.setattr("iwahecke.cli.monomial_symmetric", no_center)
    rc, data = run(tmp_path, "zmu", "--group", "GL:3", "--mu", "1,0,0",
                   "--method", "closed", "--r", "2")
    assert rc == 3 and data == b""
    assert capsys.readouterr().err == "error: --r is a theta-route option\n"


def test_leading_minus_in_mu_needs_the_equals_form(tmp_path, capsys):
    # argparse takes "-1,1,0" after a space for an option, not a value
    rc, data = run(tmp_path, "adm", "--group", "GL:3", "--mu", "-1,1,0")
    err = capsys.readouterr().err
    assert rc == 2 and data == b""
    assert [line for line in err.splitlines() if "error:" in line] == [
        "iwahecke adm: error: argument --mu: expected one argument"]
    assert "Traceback" not in err
    # the = form reaches the dominance check
    rc, data = run(tmp_path, "adm", "--group", "GL:3", "--mu=-1,1,0")
    assert rc == 3 and data == b""
    assert capsys.readouterr().err == "error: (-1, 1, 0) is not dominant\n"
    rc, data = run(tmp_path, "adm", "--group", "GL:3", "--mu=0,0,-1")
    assert rc == 0 and json.loads(data)["count"] == 7
    assert capsys.readouterr().err == ""


def test_adm_wrong_length_mu(tmp_path):
    rc, _ = run(tmp_path, "adm", "--group", "GL:3", "--mu", "1,0")
    assert rc == 3


def test_adm_csv(tmp_path):
    rc, data = run(tmp_path, "adm", "--group", "GL:2", "--mu", "1,0",
                   "--format", "csv")
    assert rc == 0
    lines = data.decode().strip().splitlines()
    assert lines[0] == "translation,finite_word,length,kappa"
    assert len(lines) == 4


def test_zmu_methods_identical(tmp_path):
    rc1, d1 = run(tmp_path, "zmu", "--group", "GL:4", "--mu", "1,1,0,0",
                  "--method", "theta", name="a")
    rc2, d2 = run(tmp_path, "zmu", "--group", "GL:4", "--mu", "1,1,0,0",
                  "--method", "closed", name="b")
    assert rc1 == rc2 == 0
    a, b = json.loads(d1), json.loads(d2)
    assert a["terms"] == b["terms"]  # identical modulo the method tag


def test_zmu_closed_requires_minuscule(tmp_path):
    rc, _ = run(tmp_path, "zmu", "--group", "GL:2", "--mu", "2,0",
                "--method", "closed")
    assert rc == 3


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


def test_zmu_levi_reports_its_labels_sorted_without_repeats(tmp_path):
    # the Levi is a set of labels: every spelling of it prints the same bytes
    outs = {}
    for levi in ("1,2", "2,1", "1,1,2"):
        rc, outs[levi] = run(tmp_path, "zmu", "--group", "GL:3", "--mu",
                             "1,0,0", "--levi", levi, name=levi)
        assert rc == 0, levi
    assert json.loads(outs["1,2"])["levi"] == [1, 2]
    assert outs["2,1"] == outs["1,2"] and outs["1,1,2"] == outs["1,2"]


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


def test_transfer_trivial_grade(tmp_path):
    rc, data = run(tmp_path, "transfer", "--group", "GL:3", "--mu", "0,0,0")
    doc = json.loads(data)
    assert rc == 0 and doc["graded"] == {"0": {"0": 1}}


def test_custom_group_config(tmp_path):
    rc, data = run(tmp_path, "adm", "--group", str(DATA / "gsp4.cfg"),
                   "--mu", "1,1,1")
    assert rc == 0
    assert json.loads(data)["count"] == 13


def test_determinism(tmp_path):
    rc1, d1 = run(tmp_path, "zmu", "--group", "GL:3", "--mu", "1,1,0", name="a")
    rc2, d2 = run(tmp_path, "zmu", "--group", "GL:3", "--mu", "1,1,0", name="b")
    assert rc1 == rc2 == 0 and d1 == d2
    rc3, d3 = run(tmp_path, "scholze", "--n", "1", "--q", "2", "--corpus",
                  str(CORPUS_Q2), "--precision", "12", "--pairs", "1", name="c")
    rc4, d4 = run(tmp_path, "scholze", "--n", "1", "--q", "2", "--corpus",
                  str(CORPUS_Q2), "--precision", "12", "--pairs", "1", name="d")
    assert rc3 == rc4 == 0 and d3 == d4


def test_scholze_empty_corpus(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    rc, data = run(tmp_path, "scholze", "--n", "1", "--q", "2",
                   "--corpus", str(empty))
    assert rc == 0
    assert data.decode().strip() == "index,matrix,phi,z,flag"


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_scholze_unreadable_corpus_exits_3(tmp_path, capsys, kind):
    corpus = tmp_path / "nonexistent" / "x" if kind == "missing" else tmp_path
    rc, data = run(tmp_path, "scholze", "--n", "1", "--q", "2",
                   "--corpus", str(corpus))
    assert rc == 3 and data == b""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read corpus: ")


def test_scholze_precision_starved_row(tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("1:1 | z | z | 0:1\n")
    rc, data = run(tmp_path, "scholze", "--n", "3", "--q", "2",
                   "--corpus", str(corpus), "--precision", "2", "--pairs", "0")
    assert rc == 0
    rows = data.decode().strip().splitlines()
    assert rows[1].endswith("INDETERMINATE")


def test_scholze_golden(tmp_path):
    rc, data = run(tmp_path, "scholze", "--n", "1", "--q", "2",
                   "--corpus", str(CORPUS_Q2), "--precision", "12",
                   "--pairs", "1")
    assert rc == 0
    golden = (DATA / "golden_scholze_q2_n1.csv").read_bytes()
    assert data == golden


@pytest.mark.parametrize("argv,name", [
    # rows and change-of-level checks left INDETERMINATE at O(t^2)
    (("--n", "2", "--q", "3", "--precision", "2"),
     "golden_scholze_compat_q3_n2_p2"),
    (("--n", "1", "--q", "4", "--count", "60"), "golden_scholze_compat_q4_n1"),
])
def test_scholze_compat_golden(tmp_path, capsys, argv, name):
    rc, data = run(tmp_path, "scholze", *argv, "--compat")
    assert rc == 0
    assert data == (DATA / f"{name}.csv").read_bytes()
    assert capsys.readouterr().out == (DATA / f"{name}.json").read_text()


def test_zmu_golden(tmp_path):
    rc, data = run(tmp_path, "zmu", "--group", "GL:3", "--mu", "1,0,0")
    assert rc == 0
    golden = (DATA / "golden_zmu_gl3.json").read_bytes()
    assert data == golden


def test_zmu_golden_non_minuscule(tmp_path):
    # theta route: the closed formula does not apply to the first two mu
    for group, mu, name in (("GL:3", "2,1,0", "golden_zmu_gl3_210.json"),
                            ("Sp:4", "1,1", "golden_zmu_sp4_11.json"),
                            ("GSp:6", "1,1,1,1", "golden_zmu_gsp6_1111.json")):
        rc, data = run(tmp_path, "zmu", "--group", group, "--mu", mu)
        assert rc == 0
        assert data == (DATA / name).read_bytes(), name


def test_zmu_closed_route_matches_theta_golden(tmp_path):
    # GSp(6) (1,1,1,1) is minuscule: the closed route, which never folds,
    # writes the theta golden's bytes but for its method line
    rc, data = run(tmp_path, "zmu", "--group", "GSp:6", "--mu", "1,1,1,1",
                   "--method", "closed")
    assert rc == 0
    assert (data.replace(b'"method": "closed"', b'"method": "theta"')
            == (DATA / "golden_zmu_gsp6_1111.json").read_bytes())


def test_zmu_levi_golden(tmp_path):
    # the constant term of z_mu inverts the Bernstein isomorphism, whose
    # elimination certifies that z_mu is central
    rc, data = run(tmp_path, "zmu", "--group", "GL:3", "--mu", "2,1,0",
                   "--levi", "2")
    assert rc == 0
    assert data == (DATA / "golden_zmu_gl3_210_levi2.json").read_bytes()


def test_transfer_report_embeds_function(tmp_path):
    rc, data = run(tmp_path, "transfer", "--group", "GL:2", "--mu", "1,0")
    doc = json.loads(data)
    assert doc["input_function"] == [{"coweight": [1, 0], "coeff": {"0": 1}}]


def test_unsupported_formats_exit_2(tmp_path, capsys):
    # each subcommand's --format takes only the formats it writes, so any
    # other is an argument error, refused before the command runs
    for argv, fmt in [(("zmu", "--group", "GL:2", "--mu", "1,0"), "csv"),
                      (("transfer", "--group", "GL:2", "--mu", "1,0"), "csv"),
                      (("scholze", "--n", "1", "--q", "2"), "json")]:
        rc, data = run(tmp_path, *argv, "--format", fmt)
        assert rc == 2 and data == b"", argv
        assert (f"argument --format: invalid choice: '{fmt}'"
                in capsys.readouterr().err), argv
        # the one format a subcommand writes may still be named
        ok = {"csv": "json", "json": "csv"}[fmt]
        assert (run(tmp_path, *argv, "--format", ok, name="named")
                == run(tmp_path, *argv, name="default")), argv
        capsys.readouterr()


def test_scholze_rejects_non_prime_power(tmp_path):
    rc, _ = run(tmp_path, "scholze", "--n", "1", "--q", "6")
    assert rc == 3


def test_scholze_q_out_of_range_exits_3_before_trial_division(tmp_path,
                                                              capsys):
    # trial division up to a prime near 10^9 would take over a minute
    for q in ("1000000007", "4097", "1", "0", "-4"):
        start = time.perf_counter()
        rc, data = run(tmp_path, "scholze", "--n", "1", "--q", q)
        assert time.perf_counter() - start < 2, q
        assert rc == 3 and data == b"", q
        assert "out of supported range" in capsys.readouterr().err, q


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


def test_scholze_generated_corpus_gf9(tmp_path):
    rc, data = run(tmp_path, "scholze", "--n", "1", "--q", "9",
                   "--count", "5", "--pairs", "1")
    assert rc == 0
    assert len(data.decode().strip().splitlines()) == 6


def test_zmu_levi_q0_is_a_precondition_error(tmp_path, capsys):
    # c^G_L(z_mu) has negative powers of q, so q = 0 cannot be substituted
    rc, data = run(tmp_path, "zmu", "--group", "GL:3", "--mu", "1,0,0",
                   "--levi", "1", "--q", "0")
    assert rc == 3 and data == b""
    assert "negative power of q" in capsys.readouterr().err


def test_out_into_missing_directory(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "out.json"
    rc = main(["adm", "--group", "GL:2", "--mu", "1,0", "--out", str(out)])
    assert rc == 3 and not out.exists()
    assert "cannot write output" in capsys.readouterr().err


def test_scholze_negative_precision_rejected(tmp_path, capsys):
    rc, data = run(tmp_path, "scholze", "--n", "1", "--q", "2",
                   "--count", "3", "--precision", "-5")
    assert rc == 2 and data == b""
    captured = capsys.readouterr()
    assert "PASS" not in captured.out + captured.err


def test_scholze_malformed_q_is_a_parse_error(tmp_path):
    rc, data = run(tmp_path, "scholze", "--n", "1", "--q", "abc",
                   "--count", "3")
    assert rc == 2 and data == b""


def test_zmu_base_change_degree_must_be_positive(tmp_path):
    for r in ("0", "-2", "x"):
        rc, data = run(tmp_path, "zmu", "--group", "GL:2", "--mu", "1,0",
                       "--r", r)
        assert rc == 2 and data == b"", r


def test_scholze_negative_pairs_rejected(tmp_path):
    rc, data = run(tmp_path, "scholze", "--n", "1", "--q", "2",
                   "--count", "3", "--pairs", "-1")
    assert rc == 2 and data == b""


def test_scholze_nothing_checked_is_not_pass(tmp_path, capsys):
    rc, data = run(tmp_path, "scholze", "--n", "1", "--q", "2",
                   "--count", "3", "--pairs", "0")
    assert rc == 0 and len(data.decode().strip().splitlines()) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["invariance"] == {"checked": 0, "passed": 0, "vacuous": 0}
    assert report["compatibility"] == {"checked": 0, "passed": 0}
    assert report["status"] == "UNCHECKED"


def test_scholze_all_rows_indeterminate_is_not_pass(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("1:1 | z | z | 0:1\n1:1 | 0 | z | 0:1\n")
    rc, data = run(tmp_path, "scholze", "--n", "3", "--q", "2",
                   "--corpus", str(corpus), "--precision", "2", "--compat")
    assert rc == 0
    rows = data.decode().strip().splitlines()[1:]
    assert len(rows) == 2 and all(r.endswith("INDETERMINATE") for r in rows)
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "UNCHECKED"


def test_scholze_all_pairs_vacuous_is_not_pass(tmp_path, capsys):
    # at O(t^2) every sampled u g u' over F_2 at level 3 is g itself, so
    # no pair tests bi-invariance
    rc, data = run(tmp_path, "scholze", "--n", "3", "--q", "2", "--count",
                   "60", "--precision", "2", "--pairs", "3")
    assert rc == 0 and len(data.decode().strip().splitlines()) == 61
    report = json.loads(capsys.readouterr().out)
    assert report["invariance"] == {"checked": 0, "passed": 0, "vacuous": 84}
    assert report["compatibility"] == {"checked": 0, "passed": 0}
    assert report["status"] == "UNCHECKED"


def test_scholze_checked_rows_pass(tmp_path, capsys):
    rc, _ = run(tmp_path, "scholze", "--n", "1", "--q", "2",
                "--count", "3", "--pairs", "1")
    report = json.loads(capsys.readouterr().out)
    assert rc == 0 and report["invariance"]["checked"] == 3
    assert report["status"] == "PASS"


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
    rc, got_rows = run(tmp_path, *argv)
    assert rc == 4 and got_rows == rows
    assert json.loads(capsys.readouterr().out) == dict(
        want, status="FAIL", **{check: dict(want[check], passed=0)})


def test_scholze_precision_zero_truncates_generated_corpus(tmp_path, capsys):
    # O(t^0) decides nothing: every row is undecided, so nothing passes
    rc, data = run(tmp_path, "scholze", "--n", "1", "--q", "2",
                   "--count", "3", "--precision", "0")
    assert rc == 0
    rows = data.decode().strip().splitlines()[1:]
    assert len(rows) == 3 and all(r.endswith("INDETERMINATE") for r in rows)
    assert json.loads(capsys.readouterr().out)["status"] == "UNCHECKED"


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


def test_scholze_negative_count_rejected(tmp_path):
    rc, data = run(tmp_path, "scholze", "--n", "1", "--q", "2",
                   "--count", "-1")
    assert rc == 2 and data == b""


def test_scholze_level_must_be_positive(tmp_path, capsys):
    for n in ("0", "-3"):
        rc, data = run(tmp_path, "scholze", "--n", n, "--q", "2",
                       "--count", "3")
        assert rc == 2 and data == b"", n
        assert "--n" in capsys.readouterr().err


def test_zmu_malformed_levi_is_a_parse_error(tmp_path, capsys):
    for levi in ("abc", "1,,2"):
        rc, data = run(tmp_path, "zmu", "--group", "GL:3", "--mu", "2,1,0",
                       "--levi", levi)
        assert rc == 2 and data == b"", levi
        err = capsys.readouterr().err
        assert "--levi" in err and "invalid literal" not in err


def test_zmu_levi_label_out_of_range(tmp_path, capsys):
    rc, data = run(tmp_path, "zmu", "--group", "GL:3", "--mu", "2,1,0",
                   "--levi", "5")
    assert rc == 3 and data == b""
    assert "not a simple root label" in capsys.readouterr().err


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


# -- repeated in-process calls ------------------------------------------------

# (argv, stdout golden, stderr golden) of every golden in tests/data; without
# --out, scholze writes its CSV to stdout and its report to stderr
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
    (("scholze", "--n", "1", "--q", "2", "--corpus", str(CORPUS_Q2),
      "--precision", "12", "--pairs", "1"), "golden_scholze_q2_n1.csv", None),
    (("scholze", "--n", "2", "--q", "3", "--precision", "2", "--compat"),
     "golden_scholze_compat_q3_n2_p2.csv",
     "golden_scholze_compat_q3_n2_p2.json"),
    (("scholze", "--n", "1", "--q", "4", "--count", "60", "--compat"),
     "golden_scholze_compat_q4_n1.csv", "golden_scholze_compat_q4_n1.json"),
]

# Calls run between the golden ones, each with its exit code.  Those that
# succeed set options the golden calls leave at their defaults, so a value
# that outlived its call would change a later golden's bytes.
INTERLEAVED = [
    (("zmu", "--group", "GL:3", "--mu", "1,0,0", "--levi", "1", "--q", "4"),
     0),
    (("adm", "--group", "GL:3", "--mu", "a,b,c"), 2),
    (("scholze", "--n", "1", "--q", "abc"), 2),
    (("frobnicate",), 2),
    ((), 2),
    (("zmu", "--group", "GL:2", "--mu", "1,0", "--r", "0"), 2),
    (("zmu", "--group", "GL:3", "--mu", "0,1,0"), 3),
    (("adm", "--group", "GL:200", "--mu", "1"), 3),
    (("zmu", "--group", "GL:2", "--mu", "2,0", "--method", "closed"), 3),
    (("--help",), 0),
    (("zmu", "--help"), 0),
    (("zmu", "--group", "Sp:4", "--mu", "1,1", "--method", "closed",
      "--r", "2", "--format", "csv"), 2),
    (("scholze", "--n", "2", "--q", "2", "--count", "2", "--pairs", "0",
      "--precision", "1"), 0),
    (("zmu", "--group", "GL:2", "--mu", "1,0", "--r", "2", "--q", "3"), 0),
]


def test_main_is_reentrant(capsys):
    seen = {}

    def call(argv):
        rc = main(list(argv))
        out, err = capsys.readouterr()
        seen.setdefault(argv, []).append((rc, out, err))
        return rc, out, err

    for _ in range(2):
        for i, (argv, out_name, err_name) in enumerate(GOLDEN_RUNS):
            for extra, code in INTERLEAVED[i::len(GOLDEN_RUNS)]:
                assert call(extra)[0] == code, extra
            rc, out, err = call(argv)
            assert rc == 0, argv
            # read as bytes: the CSV goldens end their lines in \r\n
            assert out == (DATA / out_name).read_bytes().decode(), argv
            if err_name:
                assert err == (DATA / err_name).read_bytes().decode(), argv
    for argv, results in seen.items():
        assert len(results) == 2 and results[0] == results[1], argv


# -- the JSON writer against json.dumps ----------------------------------------


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
    # handed to json.dumps whole, then indented to their depth
    {"ints": {2: "b", 1: [1, {}], 10: {"k": ()}}}, [{1.5: "x"}],
    {"sub": _Label(3)}, [_Label(-4), {"f": 0.1}],
]


@pytest.mark.parametrize("obj", HAND_CORPUS, ids=range(len(HAND_CORPUS)))
def test_dumps_matches_json_dumps_on_hand_corpus(obj):
    assert dumps(obj) == _reference_dumps(obj)


def test_dumps_refuses_what_json_dumps_refuses():
    for obj in ({"x": Fraction(1, 2)}, [{"a": 1, 2: "b"}]):
        with pytest.raises(TypeError):
            _reference_dumps(obj)
        with pytest.raises(TypeError):
            dumps(obj)


def test_dumps_matches_json_dumps_on_goldens():
    names = sorted(p.name for p in DATA.glob("*.json"))
    assert len(names) == 14
    for name in names:
        text = (DATA / name).read_text()
        obj = json.loads(text)
        assert dumps(obj) == _reference_dumps(obj) == text, name


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


def test_dumps_matches_json_dumps_on_command_outputs(tmp_path, monkeypatch):
    # adm and zmu write their records from one template: their bytes must
    # be what json.dumps writes for the same report built as plain objects,
    # on every JSON golden and the --q forms; transfer and scholze hand
    # dumps plain objects
    for argv in [a for a, _, _ in GOLDEN_RUNS if a[0] != "scholze"] + [
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

    written = []

    def spy(obj):
        text = dumps(obj)
        written.append((obj, text))
        return text
    monkeypatch.setattr("iwahecke.cli.dumps", spy)
    for argv in (
            ("transfer", "--group", "GL:4", "--mu", "1,1,0,0"),
            ("transfer", "--group", "GL:3", "--mu", "1,0,0", "--q", "2"),
            ("transfer", "--group", str(DATA / "gl2xgl2.cfg"),
             "--mu", "1,0,0,0"),
            ("scholze", "--n", "1", "--q", "2", "--count", "3",
             "--compat")):
        assert main(list(argv) + ["--out", str(tmp_path / "out")]) == 0, argv
    assert len(written) == 4
    for obj, text in written:
        assert text == _reference_dumps(obj)
