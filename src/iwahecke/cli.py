"""
Command-line interface: JSON/CSV tables of the package's computations.

Subcommands:

* ``adm``       mu-admissible sets, with lengths and Kottwitz grades;
* ``zmu``       Bernstein functions v^{l(t_mu)} z_mu in the T-basis, by the
                theta-sum route or the closed R-polynomial formula (minuscule
                only); optional constant term (--levi) and base change (--r);
* ``transfer``  both transfer routes to the anisotropic inner form plus the
                Grassmannian point-count comparison, with a PASS/FAIL report;
* ``scholze``   the GL_2 deep-level family phi_n / z_n over a matrix corpus,
                as CSV, with bi-invariance and change-of-level reports.

Exit codes: 0 success, 2 argument/parse error, 3 precondition violation,
4 internal consistency failure (oracle mismatch).  All output is
deterministic: element lists are sorted by (length, translation, finite
word) and JSON keys are sorted.

A run takes three steps.  ``parse(argv)`` returns the request, argparse's
``Namespace`` with the root datum of ``--group`` and the coweight tuple of
``--mu`` in place of their texts, and the ``--out`` path apart from it; it
reads an argv in canonical form from the options the parser declares, and
leaves every other argv, so every usage, help and refusal text, to
argparse.  ``run(request)`` computes the `Report` ``(text, status, note)``
and writes to no stream; ``note`` is scholze's JSON report, empty for the
other commands.  A request seen among the last 32 is answered from memory:
the key is every field of the request plus the display name of its datum
(``group.family``, which datum equality ignores), so two spellings of one
request share an entry.  A ``scholze --corpus`` request is computed on
every call, as its file may change, and a refusal raises and is never
stored.  ``write(report, out)`` writes ``text`` to ``--out`` or stdout and
``note`` to stdout with ``--out``, else to stderr.

``main(argv)`` runs the three, maps refusals to exit codes and returns the
exit code.  It may be called repeatedly in one process; each call writes
the same bytes to stdout and stderr as the ``iwahecke`` console script run
with the same arguments, whether its report is computed or remembered.
The argument parser is built on the first call and reused by later ones,
and so is the root datum of a builtin group (``--group GL:3``); a config
path is read on every call, and keys the memo by the datum it holds.

Only the algebra layers are imported with this module: ``transfer`` and
``zmu --r N`` import the transfer layer (the latter for ``base_change``) and
``scholze`` the deep-level layers (``deeplevel``, ``series``, ``ffield``) on
their first call, so an ``adm`` run or a ``zmu`` run without ``--r`` loads
none of them.
"""

from __future__ import annotations

import argparse
import collections
import csv
import functools
import io
import json
import sys
from fractions import Fraction

from .affine import _gl_size
from .center import (bernstein_iso, constant_term, levi_image,
                     monomial_symmetric)
from .klpoly import closed_form_bernstein
from .laurent import LaurentPoly, per_coefficient
from .rootdata import build_root_datum, is_minuscule, load_root_datum
from .weyl import _MAX_GROUP

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_MISMATCH = 4

_INVARIANCE_SEED = 271828
# CPython's default limit on int <-> str conversion: scholze rows print
# phi_n and z_n in decimal, so no value may have more digits than this
_MAX_VALUE_DIGITS = 4300
_MAX_VALUE_BITS = (10 ** _MAX_VALUE_DIGITS).bit_length()
# --compat sums over the q^4 cosets of K_n/K_{n+1} for every row.  Over
# generated n = 1 rows, exact: q = 13 (28,561 cosets) takes 0.13-0.18 s a
# row on average and 0.27-0.32 s at most (16 rows), q = 16 0.64-0.95 s and
# 1.7-2.6 s (8 rows); truncated by --precision 3: q = 13 0.09-0.17 s and
# 0.14-0.25 s, q = 16 0.31-0.46 s and 0.47-0.71 s (three runs, 2-core
# x86-64 VM, Python 3.11)
_MAX_COMPAT_COSETS = 30_000

_encode_str = json.encoder.encode_basestring_ascii


class PreconditionError(ValueError):
    pass


# -- serialization helpers -------------------------------------------------------


def poly_json(p: LaurentPoly, q_value=None):
    if q_value is None:
        return {str(e): c for e, c in sorted(p.c.items())}
    even, odd = p.even_odd_parts()
    try:
        value, oval = even.eval_q(q_value), odd.eval_q(q_value)
    except ZeroDivisionError:
        raise PreconditionError(
            f"cannot specialize q to {q_value}: {p} has a negative power "
            "of q") from None
    out = {"q": q_value, "value": _rat_str(value)}
    if oval:
        out["sqrt_q_coeff"] = _rat_str(oval)
    return out


def _rat_str(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def _records(W, elements, coeffs=None, q_value=None):
    """The JSON list of the element records of `elements`, sorted elements
    of W, with keys "coeff" (the matching entry of `coeffs`; no such key
    when `coeffs` is None), "element" ("finite_word", "translation"),
    "kappa" and "length", as ``json.dumps(report, sort_keys=True,
    indent=1)`` writes it at a top-level key of a report; `dumps` splices
    it in there.  A report's headers go through ``json.dumps``, but its
    records stay on this template: through the stdlib's indenting encoder,
    which is pure Python, they would double the cost of a fresh adm or zmu
    request.

    Every record is one template filled with pre-formatted values: the
    translation and kappa texts are written once per translation part,
    the finite word once per finite index and the coefficient once per
    distinct coefficient object (so --q evaluates each distinct polynomial
    once), in the order of the elements.
    """
    if not elements:
        return "[]"
    # the newline and indent of a record, of its keys and of its element's
    i0, i1, i2 = "\n  ", "\n   ", "\n    "
    row = ("{%s" + i1 + '"element": {' + i2 + '"finite_word": %s,' + i2
           + '"translation": %s' + i1 + "}," + i1 + '"kappa": %s,' + i1
           + '"length": %d' + i0 + "}")
    coeff = per_coefficient(lambda c: (
        i1 + '"coeff": ' + _flat_dict_text(poly_json(c, q_value), i1) + ","))
    word = W.weyl.word
    parts, words, rows = {}, {}, []
    for k, x in enumerate(elements):
        part = parts.get(x.trans)
        if part is None:
            kappa = _kappa(W, x)
            part = parts[x.trans] = (
                _int_list_text(x.trans, i2),
                _int_list_text(kappa, i1) if type(kappa) is list
                else str(kappa))
        fw = words.get(x.fin)
        if fw is None:
            fw = words[x.fin] = _int_list_text(
                [i + 1 for i in word[x.fin]], i2)
        rows.append(row % ("" if coeffs is None else coeff(coeffs[k]),
                           fw, part[0], part[1], x.length()))
    return "[" + i0 + ("," + i0).join(rows) + "\n ]"


def _int_list_text(values, nl):
    """A list of ints as `dumps` writes it on a line indented by `nl`."""
    if not values:
        return "[]"
    inner = nl + " "
    return "[" + inner + ("," + inner).join(map(str, values)) + nl + "]"


def _flat_dict_text(d, nl):
    """A dict of str keys and int or str values, `poly_json`'s, as `dumps`
    writes it on a line indented by `nl`."""
    if not d:
        return "{}"
    inner = nl + " "
    return "{" + inner + ("," + inner).join(
        _encode_str(k) + ": " + (_encode_str(v) if type(v) is str else str(v))
        for k, v in sorted(d.items())) + nl + "}"


def _kappa(W, x):
    """The Kottwitz grade of x = t_la w in W as JSON: the class of la."""
    om = W.kottwitz_image(x)
    grade = om.grade
    return grade if grade is not None else list(om.rep)


def graded_json(gf, q_value=None):
    out = {}
    for g, c in gf.grades():
        key = str(g) if isinstance(g, int) else str(list(g))
        out[key] = poly_json(c, q_value)
    return out


# the builtin root data parse_group has built, keyed by (family, n); the
# |W_0| guard runs first and admits 29 builtin groups, so this stays small
_builtin = {}


def parse_group(text: str):
    if ":" in text:
        fam, _, n = text.partition(":")
        try:
            n = int(n)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"malformed group {text!r}") from None
        _check_weyl_size(text, fam, n)
        key = (fam.upper(), n)
        rd = _builtin.get(key)
        if rd is None:
            rd = _builtin[key] = build_root_datum(fam, n)
        return rd
    try:
        return load_root_datum(text)
    except OSError as exc:
        raise PreconditionError(f"cannot read group config: {exc}") from exc


def _check_weyl_size(text, family, n):
    """Refuse a builtin group whose |W_0| is above the cap of IndexedWeyl
    before its root datum is built: |W_0| = n! for GL(n) and SL(n) and
    2^k k! = 2 * 4 * ... * 2k for Sp(2k) and GSp(2k).  Other ranks are
    left to build_root_datum, which refuses them."""
    family = family.upper()
    if family in ("GL", "SL"):
        factors, order_text = range(2, n + 1), f"{n}!"
    elif family in ("SP", "GSP") and n % 2 == 0:
        k = n // 2
        factors, order_text = range(2, n + 1, 2), f"2^{k} {k}!"
    else:
        return
    order = 1
    for f in factors:  # stops at the cap, so n! is never formed for large n
        order *= f
        if order > _MAX_GROUP:
            raise PreconditionError(
                f"group {text!r} is too large: |W_0| = {order_text}, more "
                f"than the {_MAX_GROUP} elements the package enumerates")


def parse_mu(text: str, rd):
    try:
        mu = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed coweight {text!r}")
    if len(mu) != rd.rank:
        raise PreconditionError(
            f"coweight has {len(mu)} coordinates, rank is {rd.rank}")
    return mu


def dumps(report) -> str:
    """``json.dumps(report, sort_keys=True, indent=1) + "\\n"``, where an
    adm or zmu report holds at its "elements" or "terms" key the text that
    `_records` laid out.

    ``json.dumps`` writes the report with null at that key, and the records
    text takes null's place.  A JSON string holds no raw newline, so the
    key's own line is the one place ``'\\n "terms": null'`` can occur.
    """
    for key in ("elements", "terms"):
        if key in report:
            text = json.dumps({**report, key: None}, sort_keys=True, indent=1)
            return text.replace(f'\n "{key}": null',
                                f'\n "{key}": ' + report[key], 1) + "\n"
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


# -- commands ---------------------------------------------------------------------


# what every command returns: its output, its exit status and scholze's
# JSON report (empty for the other commands)
Report = collections.namedtuple("Report", "text status note", defaults=("",))


def cmd_adm(request) -> Report:
    rd, mu = request.group, request.mu
    W = rd.affine_weyl()
    elements = sorted(W.admissible_set(mu), key=W.sort_key)
    if request.format == "csv":
        word = W.weyl.word
        kappa = {x.trans: x for x in elements}  # one per translation part
        kappa = {t: _kappa(W, x) for t, x in kappa.items()}
        buf = io.StringIO()
        wr = csv.writer(buf)
        wr.writerow(["translation", "finite_word", "length", "kappa"])
        for x in elements:
            wr.writerow([" ".join(map(str, x.trans)),
                         " ".join(str(i + 1) for i in word[x.fin]),
                         x.length(), kappa[x.trans]])
        return Report(buf.getvalue(), EXIT_OK)
    return Report(dumps({
        "schema": "iwahecke/adm/1",
        "group": rd.family,
        "mu": list(mu),
        "count": len(elements),
        "elements": _records(W, elements),
    }), EXIT_OK)


def cmd_zmu(request) -> Report:
    rd, mu, levi, r = request.group, request.mu, request.levi, request.r
    W = rd.affine_weyl()
    lt = W.translation(tuple(r * x for x in mu)).length()

    if request.method == "closed":
        if r > 1:
            raise PreconditionError("--r is a theta-route option")
        if not is_minuscule(rd, mu):
            raise PreconditionError(
                f"{mu} is not minuscule; the closed formula does not apply")
        h = closed_form_bernstein(W, mu)
        if levi is not None:
            # the elimination inside constant_term is what ties the closed
            # form to the center
            h = constant_term(h.scale(LaurentPoly.v(-lt)), levi)
    else:
        f = monomial_symmetric(rd, mu)
        if r > 1:
            from .transfer import base_change
            f = base_change(f, r)
        if levi is not None:
            h = levi_image(f, levi)  # c^G_L(z) for z = bernstein_iso(f)
        else:
            h = bernstein_iso(f, W).scale(LaurentPoly.v(lt))

    report = {"schema": "iwahecke/hecke-element/1", "group": rd.family,
              "mu": list(mu)}
    if levi is None:
        report.update(method=request.method, base_change_r=r,
                      normalization="v^l(t_mu) * z_mu")
    else:
        report.update(levi=levi, normalization="c^G_L(z_mu)")
    items = h.items_sorted()
    # a Levi image's W is the Levi's group, not G's
    report["terms"] = _records(h.algebra.W, [x for x, _ in items],
                               [c for _, c in items], request.q)
    return Report(dumps(report), EXIT_OK)


def cmd_transfer(request) -> Report:
    from .transfer import (grassmannian_count, kottwitz_fiber_integrate,
                           normalized_transfer)
    rd, mu, q = request.group, request.mu, request.q
    W = rd.affine_weyl()
    lt = W.translation(mu).length()
    f = monomial_symmetric(rd, mu)
    vfactor = LaurentPoly.v(lt)

    via_center = kottwitz_fiber_integrate(bernstein_iso(f, W).scale(vfactor))
    direct = normalized_transfer(f).scale(vfactor)
    routes_match = via_center == direct

    report = {
        "schema": "iwahecke/transfer/1",
        "group": rd.family,
        "mu": list(mu),
        "input_function": [
            {"coweight": list(la), "coeff": poly_json(f.terms[la])}
            for la in f.dominant_support()],
        "normalization": "v^l(t_mu) scaled",
        "graded": graded_json(direct, q),
        "routes_match": "PASS" if routes_match else "FAIL",
    }

    n = _gl_size(rd)
    m = sum(mu)
    if (n is not None and 0 < m < n
            and list(mu) == [1] * m + [0] * (n - m)):
        binom = grassmannian_count(n, m)
        got = via_center.coeff(m)
        report["grassmannian"] = {
            "n": n, "m": m,
            "expected": poly_json(binom, q),
            "grade_m_coefficient": poly_json(got, q),
            "match": "PASS" if got == binom else "FAIL",
        }
        if got != binom:
            routes_match = False

    return Report(dumps(report), EXIT_OK if routes_match else EXIT_MISMATCH)


def _int_at_least(text: str, lo: int) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < lo:
        raise argparse.ArgumentTypeError(f"must be >= {lo}, got {n}")
    return n


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _int_list(text: str) -> tuple:
    """Comma-separated labels as a sorted tuple without repeats: the Levi
    they name, spelled one way."""
    try:
        return tuple(sorted({int(t) for t in text.split(",")})) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed label list {text!r}")


def _check_level_size(n: int, q: int):
    """Refuse a level whose rows could not be printed.

    On the support k(g) <= 0, so |phi_n| <= 1 + q^(2n-1), and the
    denominator of z_n divides [K:K_n] = q^(4(n-1))(q^2-1)(q^2-q), the
    larger of the two.  Both are printed in decimal.
    """
    from .deeplevel import gl2_level_index
    # q^(4(n-1)) >= 2^(4(n-1)(bits(q)-1)): refuse the hopeless levels
    # without building their numbers
    too_large = (4 * (n - 1) * (q.bit_length() - 1) >= _MAX_VALUE_BITS
                 or gl2_level_index(n, q) >= 10 ** _MAX_VALUE_DIGITS)
    if too_large:
        raise PreconditionError(
            f"--n {n} is too large for q = {q}: [K:K_n] would have more "
            f"than {_MAX_VALUE_DIGITS} decimal digits")


def cmd_scholze(request) -> Report:
    import random

    from .deeplevel import (IndeterminatePrecisionError, _z_n,
                            build_reference_corpus, level_compatibility_check,
                            load_corpus, matrix_column_text,
                            random_kn_element, scholze_phi)
    from .ffield import _field_of_size
    field = _field_of_size(request.q)
    n, precision = request.n, request.precision
    _check_level_size(n, field.q)
    if request.compat and field.q ** 4 > _MAX_COMPAT_COSETS:
        raise PreconditionError(
            f"--compat needs q^4 = {field.q ** 4} cosets a row for q = "
            f"{field.q}, more than {_MAX_COMPAT_COSETS}")
    if request.corpus is not None:
        try:
            mats = load_corpus(request.corpus, field, precision=precision)
        except OSError as exc:
            raise PreconditionError(f"cannot read corpus: {exc}") from None
    else:
        mats = [g if precision is None else g.truncate(precision)
                for g in build_reference_corpus(field, count=request.count)]

    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(["index", "matrix", "phi", "z", "flag"])
    rng = random.Random(_INVARIANCE_SEED)
    inv_checked = inv_passed = inv_vacuous = 0
    compat_checked = compat_passed = 0
    for i, g in enumerate(mats):
        try:
            phi = scholze_phi(n, g)
            z = _z_n(n, field.q, phi)
            wr.writerow([i, matrix_column_text(g), phi, str(z), ""])
        except IndeterminatePrecisionError:
            wr.writerow([i, matrix_column_text(g), "", "", "INDETERMINATE"])
            continue
        for _ in range(request.pairs):
            u = random_kn_element(field, n, rng, depth=6)
            up = random_kn_element(field, n, rng, depth=6)
            h = u * g * up
            if h == g:  # the same matrix tests nothing
                inv_vacuous += 1
                continue
            try:
                same = scholze_phi(n, h) == phi
            except IndeterminatePrecisionError:
                continue  # undecided: neither checked nor passed
            inv_checked += 1
            if same:
                inv_passed += 1
        if request.compat:
            try:
                compatible = level_compatibility_check(n, g)
            except IndeterminatePrecisionError:
                continue  # undecided: neither checked nor passed
            compat_checked += 1
            if compatible:
                compat_passed += 1

    report = {
        "schema": "iwahecke/scholze-report/1",
        "n": n, "q": field.q,
        "rows": len(mats),
        "invariance": {"checked": inv_checked, "passed": inv_passed,
                       "vacuous": inv_vacuous},
        "compatibility": {"checked": compat_checked, "passed": compat_passed},
    }
    ok = inv_passed == inv_checked and compat_passed == compat_checked
    if not ok:
        report["status"] = "FAIL"
    elif inv_checked or compat_checked:
        report["status"] = "PASS"
    else:  # nothing was checked, so nothing passed
        report["status"] = "UNCHECKED"
    return Report(buf.getvalue(), EXIT_OK if ok else EXIT_MISMATCH,
                  dumps(report))


# -- argument plumbing ---------------------------------------------------------


def build_parser():
    """The argument parser, and for each subcommand its parser and the
    actions that ``add_argument`` returned for its options, in order."""
    ap = argparse.ArgumentParser(
        prog="iwahecke",
        description="Bernstein functions of Iwahori-Hecke algebras and "
                    "friends, in exact arithmetic.")
    sub = ap.add_subparsers(dest="command", required=True)
    declared = {}

    def command(name, help):
        p = sub.add_parser(name, help=help)
        actions = []
        declared[name] = p, actions
        return lambda *flags, **kwargs: actions.append(
            p.add_argument(*flags, **kwargs))

    def common(option, q=True, formats=("json",)):
        option("--group", required=True,
               help="family:rank (GL:3, SL:2, Sp:4, GSp:4) or a "
                    "root-datum config path")
        option("--mu", required=True,
               help="comma-separated dominant coweight; one that starts "
                    "with a minus sign needs the = form, e.g. "
                    "--mu=0,0,-1")
        if q:
            option("--q", type=int, default=None,
                   help="specialize q to an integer (after exact "
                        "computation)")
        option("--out", default=None, help="output path (default stdout)")
        option("--format", choices=formats, default="json")

    common(command("adm", help="mu-admissible set"), q=False,
           formats=("json", "csv"))

    option = command("zmu", help="Bernstein function v^l(t_mu) z_mu")
    common(option)
    option("--method", choices=["theta", "closed"], default="theta")
    option("--levi", type=_int_list, default=None,
           help="comma-separated simple-root labels; output the constant "
                "term c^G_L(z_mu) instead")
    option("--r", type=_positive_int, default=1,
           help="base-change degree applied to the monomial function")

    common(command("transfer",
                   help="transfer to the anisotropic inner form, two routes"))

    option = command("scholze", help="GL_2 deep-level family phi_n / z_n")
    option("--n", type=_positive_int, required=True, help="congruence level")
    option("--q", type=int, required=True, help="residue field size")
    option("--corpus", default=None, help="corpus file path")
    option("--count", type=_nonnegative_int, default=200,
           help="corpus size when generating (no --corpus)")
    option("--precision", type=_nonnegative_int, default=None,
           help="truncate corpus entries to this absolute precision")
    option("--pairs", type=_nonnegative_int, default=2,
           help="bi-invariance sample pairs per corpus point")
    option("--compat", action="store_true",
           help="run the change-of-level coset-sum check per point")
    option("--out", default=None)
    option("--format", choices=["csv"], default="csv")
    return ap, declared


_COMMANDS = {
    "adm": cmd_adm,
    "zmu": cmd_zmu,
    "transfer": cmd_transfer,
    "scholze": cmd_scholze,
}


@functools.lru_cache(maxsize=None)
def _grammar():
    """parse's parser and the reader's table, built on the first call:
    argparse keeps no state between parse_args calls, and building the tree
    costs more than a cached command.

    The table holds, for each subcommand, the fields of its request before
    any option is read (``command`` and every default), its actions by
    option string, the fields it requires and its parser.  Only actions
    that take one value or none (``store_true``) are in it.
    """
    ap, declared = build_parser()
    table = {}
    for name, (parser, actions) in declared.items():
        table[name] = (
            {"command": name, **{a.dest: a.default for a in actions}},
            {flag: a for a in actions if a.nargs in (None, 0)
             for flag in a.option_strings},
            {a.dest for a in actions if a.required}, parser)
    return ap, table


def _read(argv):
    """The ``Namespace`` argparse parses from `argv`, read from the table
    without it, or None where `argv` is not in the one form the reader
    takes: a subcommand, then each of its options once, under its full
    name, as ``--opt value`` (a value that does not start with "-") or
    ``--opt=value``, with no empty value and every required option given,
    each value passing its type and choices.  argparse parses every other
    argv, and so writes every usage, help and refusal text.
    """
    entry = _grammar()[1].get(argv[0]) if argv else None
    if entry is None:
        return None
    defaults, options, required, _ = entry
    fields = {}
    i, end = 1, len(argv)
    while i < end:
        flag, eq, value = argv[i].partition("=")
        action = options.get(flag)
        i += 1
        if action is None or action.dest in fields:
            return None  # an unknown or abbreviated option, or a repeat
        if action.nargs == 0:
            if eq:
                return None
            fields[action.dest] = action.const
            continue
        if not eq:
            if i == end:
                return None
            value = argv[i]
            i += 1
            if value.startswith("-"):
                return None
        # argparse drops a value "--" on Python 3.10 and 3.11, not later
        if not value or value == "--":
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        fields[action.dest] = value
    if not required <= fields.keys():
        return None
    request = argparse.Namespace()
    vars(request).update(defaults, **fields)
    return request


def parse(argv=None):
    """The request and the --out path of `argv` (``sys.argv[1:]`` when None).

    The request is the parsed ``Namespace`` without ``out``; for the root
    datum commands, ``group`` is the datum and ``mu`` the coweight tuple.
    An argv in the reader's form (`_read`: each option once under its full
    name, ``--opt value`` or ``--opt=value``, no empty value) is read from
    the actions `build_parser` declares; argparse parses every other one,
    with the same result, and writes every usage, ``--help`` and refusal.
    A bad group is refused first, then a bad coweight, then one that is not
    dominant.  argparse's own refusals raise ``SystemExit``.
    """
    if argv is None:
        argv = sys.argv[1:]
    request = _read(argv)
    if request is None:
        request = _grammar()[0].parse_args(argv)
        _read_dashes(request)
    out = vars(request).pop("out")
    if request.command != "scholze":
        rd = request.group = parse_group(request.group)
        mu = request.mu = parse_mu(request.mu, rd)
        if not rd.is_dominant(mu):
            raise PreconditionError(f"{mu} is not dominant")
    return request, out


def _read_dashes(request):
    """Read the value ``--`` of ``--opt=--`` as Python 3.13's argparse
    does, through the option's type and choices, refused with its error:
    earlier versions drop that value and store []."""
    _, options, _, parser = _grammar()[1][request.command]
    for action in options.values():
        if getattr(request, action.dest) == []:
            try:
                value = parser._get_value(action, "--")
                parser._check_value(action, value)
            except argparse.ArgumentError as err:
                parser.error(str(err))
            setattr(request, action.dest, value)


# how many reports run keeps: session-mixed (seed 1) asks for a scholze
# report again after at most 21 other distinct requests.  This bounds the
# count of reports, not their size: the largest measured (adm --group GL:7
# --mu 1,1,0,0,0,0,0) has 381 KB, but adm's output grows with mu and
# scholze's with --count, so no size is bounded
_MAX_REPORTS = 32


@functools.lru_cache(maxsize=_MAX_REPORTS)
def _report(key):
    """The report of the request whose fields `key` holds."""
    fields, _family = key
    # filled in place, in under half the time Namespace(**fields) takes
    request = argparse.Namespace()
    vars(request).update(fields)
    return _COMMANDS[request.command](request)


def run(request) -> Report:
    """The report of a parsed request; writes to no stream.

    A request seen among the last 32 is answered from memory.  The key is
    every field of the request plus the display name of its datum, which
    datum equality ignores; a scholze --corpus file may change between
    calls, so such a request is always computed again.  A refusal raises
    and is not stored.
    """
    if getattr(request, "corpus", None) is not None:
        return cmd_scholze(request)
    group = getattr(request, "group", None)
    return _report((tuple(sorted(vars(request).items())),
                    getattr(group, "family", None)))


def write(report: Report, out):
    """Write `report`: its text to the file `out`, or to stdout without
    one, then its note to stdout with `out`, else to stderr."""
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(report.text)
        except OSError as exc:
            raise PreconditionError(f"cannot write output: {exc}") from None
        sys.stdout.write(report.note)
    else:
        sys.stdout.write(report.text)
        sys.stderr.write(report.note)


def main(argv=None) -> int:
    try:
        request, out = parse(argv)
        report = run(request)
        write(report, out)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_PARSE
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    return report.status


if __name__ == "__main__":
    sys.exit(main())
