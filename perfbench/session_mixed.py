"""
Workload `session-mixed`: one long-lived session of mixed requests.

The session shares group contexts through `rd.affine_weyl()`, the registry
the CLI and the library use, so its memo caches fill and are hit as they
would be in a long-running process.  Each round issues every request type
below once or twice with a fresh central shift (a cache miss that costs the
same as any other shift), then a fixed share of exact repeats of earlier
requests (cache hits), and two malformed CLI requests.

* in-process `cli.main` for `adm`, `zmu` and `zmu --levi`, output captured
  in memory;
* `transfer`, both routes;
* `scholze` over GF(4), the extension-field table path;
* `bernstein_iso_inverse(bernstein_iso(f))` round trips;
* `constant_term` of products of central elements;
* T-basis products;
* `bruhat_leq` and `r_polynomial` queries on Adm(mu).

This is the only workload that runs the cache hit paths next to their
fills, the center/transfer/cli layers and GF(p^r) with r > 1; the caches
grow for the whole run, which `peak_rss_mb` shows.

Each check builds its references in fresh, private contexts, so checking
never fills the session's caches.
"""

from __future__ import annotations

import functools
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from iwahecke import LaurentPoly, affine, center, cli, klpoly, transfer
from iwahecke.affine import AffineWeylGroup
from iwahecke.center import SymmetricFunction
from iwahecke.hecke import HeckeAlgebra
from iwahecke.rootdata import build_root_datum, is_minuscule, levi_sub_datum

from jobs import CheckFailed, Job, KnownDefect, central_shift, shifted

SHIFT_RANGE = 999
# One exact repeat of an earlier request of each of these kinds per round
# (a cache hit); the earlier request is drawn by the seed, the kinds are
# fixed so that the mix of hits is the same for every seed.
REPEAT_KINDS = ("cli_adm", "cli_zmu", "cli_levi", "transfer", "ct_product",
                "adm_queries")
PROBES_PER_ROUND = 2
ADM_QUERY_PAIRS = 12
ROUNDS_MULTIPLE = 4  # PROBES_PER_ROUND * ROUNDS_MULTIPLE == len(PROBES)

NOMINAL_ROUND_S = 0.19  # one round, pure kernel, at the introducing commit

GROUPS = (("GL", 3), ("GL", 4), ("GSp", 4), ("Sp", 4))
LEVIS = ((("GL", 3), (1,)), (("GL", 3), (2,)))

# Fresh requests per round: kind -> list of fixed choices, each issued once.
FRESH = {
    "cli_adm": [("GL", 3, (2, 1, 0)), ("GL", 4, (1, 1, 0, 0))],
    "cli_zmu": [("GL", 3, (2, 1, 0), "theta"), ("GL", 3, (1, 1, 0), "closed"),
                ("GSp", 4, (1, 1, 1), "theta")],
    "cli_levi": [("GL", 3, (1, 0, 0), (1,)), ("GL", 3, (2, 1, 0), (2,))],
    "transfer": [("GL", 3, (1, 0, 0)), ("GL", 4, (1, 1, 0, 0))],
    "scholze_gf4": [(1,), (2,)],
    "iso_round_trip": [("GL", 3, ((1, 0, 0), (1, 1, 0))),
                       ("GL", 3, ((2, 1, 0), (1, 0, 0)))],
    "ct_product": [("GL", 3, (1, 0, 0), (1, 1, 0), (1,)),
                   ("GL", 3, (1, 0, 0), (2, 1, 0), (2,))],
    "hecke_product": [("GL", 3), ("GL", 3)],
    "adm_queries": [("GL", 3, (2, 1, 0)), ("Sp", 4, (1, 1))],
}
SCHOLZE_COUNT = 4

_MISSING_DIR = Path(__file__).resolve().parent / "no-such-dir"

# Malformed requests: each must end with exit code 2 or 3 and no traceback.
PROBES = {
    "probe_rank": ["adm", "--group", "GL:3", "--mu", "1,0"],
    "probe_malformed_mu": ["adm", "--group", "GL:3", "--mu", "a,b,c"],
    "probe_not_dominant": ["zmu", "--group", "GL:3", "--mu", "0,1,0"],
    "probe_not_prime_power": ["scholze", "--n", "1", "--q", "6"],
    "probe_q_text": ["scholze", "--n", "1", "--q", "abc"],
    "probe_levi_q0": ["zmu", "--group", "GL:3", "--mu", "1,0,0",
                      "--levi", "1", "--q", "0"],
    "probe_out_missing_dir": ["adm", "--group", "GL:2", "--mu", "1,0",
                              "--out", str(_MISSING_DIR / "out.json")],
    "probe_negative_precision": ["scholze", "--n", "1", "--q", "2",
                                 "--count", "3", "--precision", "-5"],
}
# Defects of the package that these probes reproduce; they are reported as
# known defects, not failed jobs, until the package fixes them.
KNOWN_DEFECTS = {"probe_levi_q0", "probe_out_missing_dir",
                 "probe_negative_precision"}


# Root data of the session's groups, built once: the session keeps them, as
# a long-lived process would.
_datum = functools.lru_cache(maxsize=None)(build_root_datum)


def csv_int(v):
    return ",".join(str(x) for x in v)


def call_cli(argv, count):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    text_out, text_err = out.getvalue(), err.getvalue()
    count("cli.bytes_out", len(text_out) + len(text_err))
    return rc, text_out, text_err


# -- canonical forms, for comparing results across contexts ----------------


def word_of(x):
    return tuple(i + 1 for i in x.group.weyl.word[x.fin])


def hecke_canon(h, svec=None):
    return {(_unshift(x.trans, svec), word_of(x)): frozenset(c.c.items())
            for x, c in h.terms.items()}


def json_canon(terms, svec=None):
    return {(_unshift(t["element"]["translation"], svec),
             tuple(t["element"]["finite_word"])):
            frozenset((int(e), c) for e, c in t["coeff"].items())
            for t in terms}


def _unshift(trans, svec):
    if not svec:
        return tuple(trans)
    return tuple(a - b for a, b in zip(trans, svec))


class Checker:
    """References computed once per fixed choice, in private contexts."""

    def __init__(self):
        self.refs = {}

    def cached(self, key, make):
        ref = self.refs.get(key)
        if ref is None:
            ref = self.refs[key] = make()
        return ref

    def z_mu(self, family, size, mu):
        """v^l(t_mu) z_mu, verified by an independent route."""
        def make():
            rd = build_root_datum(family, size)
            W = AffineWeylGroup(rd)
            H = HeckeAlgebra(W)
            lt = W.translation(mu).length()
            z = H.bernstein_function(mu).scale(LaurentPoly.v(lt))
            if is_minuscule(rd, mu):
                if klpoly.closed_form_bernstein(W, mu) != z:
                    raise CheckFailed(f"theta and closed routes differ at {mu}")
            else:
                adm = W.admissible_set(mu)
                if not H.is_central(z) or set(z.terms) != set(adm):
                    raise CheckFailed(f"z_{mu} is not central on Adm(mu)")
            return hecke_canon(z)
        return self.cached(("z", family, size, mu), make)

    def levi_image(self, family, size, labels, f_terms):
        """bernstein_iso_L of a G-invariant function restricted to L."""
        lrd = levi_sub_datum(build_root_datum(family, size), labels)
        f = SymmetricFunction(lrd, f_terms)
        return hecke_canon(center.bernstein_iso(f, AffineWeylGroup(lrd)))


# -- request kinds -------------------------------------------------------------


def _cli_adm(choice, c, rng, ck, count):
    family, size, mu0 = choice
    sv = central_shift(family, size, c)
    argv = ["adm", "--group", f"{family}:{size}",
            "--mu=" + csv_int(shifted(mu0, sv))]

    def run(_):
        return call_cli(argv, count)

    def check(_, res):
        rc, out, _err = res
        if rc != 0:
            raise CheckFailed(f"adm exited {rc}")
        got = {(_unshift(e["element"]["translation"], sv),
                tuple(e["element"]["finite_word"]))
               for e in json.loads(out)["elements"]}
        want = set(ck.z_mu(family, size, mu0))  # supp z_mu = Adm(mu)
        if got != want:
            raise CheckFailed("adm output differs from the support of z_mu")
    return run, check


def _cli_zmu(choice, c, rng, ck, count):
    family, size, mu0, route = choice
    sv = central_shift(family, size, c)
    argv = ["zmu", "--group", f"{family}:{size}",
            "--mu=" + csv_int(shifted(mu0, sv)), "--method", route]

    def run(_):
        return call_cli(argv, count)

    def check(_, res):
        rc, out, _err = res
        if rc != 0:
            raise CheckFailed(f"zmu exited {rc}")
        if json_canon(json.loads(out)["terms"], sv) != ck.z_mu(family, size,
                                                               mu0):
            raise CheckFailed(f"zmu {route} differs from the reference")
    return run, check


def _cli_levi(choice, c, rng, ck, count):
    family, size, mu0, labels = choice
    sv = central_shift(family, size, c)
    argv = ["zmu", "--group", f"{family}:{size}",
            "--mu=" + csv_int(shifted(mu0, sv)), "--levi", csv_int(labels)]

    def run(_):
        return call_cli(argv, count)

    def check(_, res):
        rc, out, _err = res
        if rc != 0:
            raise CheckFailed(f"zmu --levi exited {rc}")
        rd = _datum(family, size)
        want = ck.cached(("levi", choice), lambda: ck.levi_image(
            family, size, labels, center.monomial_symmetric(rd, mu0).terms))
        if json_canon(json.loads(out)["terms"], sv) != want:
            raise CheckFailed("constant term differs from the Levi image")
    return run, check


def _transfer(choice, c, rng, ck, count):
    family, size, mu0 = choice
    rd = _datum(family, size)
    mu = shifted(mu0, central_shift(family, size, c))

    def run(_):
        W = rd.affine_weyl()
        f = center.monomial_symmetric(rd, mu)
        vl = LaurentPoly.v(W.translation(mu).length())
        via_center = transfer.kottwitz_fiber_integrate(
            center.bernstein_iso(f, W).scale(vl))
        direct = transfer.normalized_transfer(f).scale(vl)
        return via_center, direct

    def check(_, res):
        via_center, direct = res
        if via_center != direct:
            raise CheckFailed("the two transfer routes differ")
        m = sum(mu0)
        if sorted(mu0, reverse=True) == [1] * m + [0] * (size - m):
            if via_center.coeff(sum(mu)) != transfer.grassmannian_count(size,
                                                                         m):
                raise CheckFailed("transfer misses the Grassmannian count")
    return run, check


def _scholze(choice, c, rng, ck, count):
    (n,) = choice
    argv = ["scholze", "--n", str(n), "--q", "4", "--count",
            str(SCHOLZE_COUNT), "--pairs", "1"]

    def run(_):
        return call_cli(argv, count)

    def check(_, res):
        rc, out, err = res
        report = json.loads(err)
        rows = out.strip().splitlines()[1:]
        inv = report["invariance"]
        if rc != 0 or report["status"] != "PASS":
            raise CheckFailed(f"scholze GF(4) exited {rc}")
        if len(rows) != SCHOLZE_COUNT or any(
                r.endswith("INDETERMINATE") for r in rows):
            raise CheckFailed("scholze GF(4) rows are missing or undecided")
        if not 0 < inv["checked"] == inv["passed"]:
            raise CheckFailed("scholze GF(4) checked no bi-invariance pair")
    return run, check


def _iso_round_trip(choice, c, rng, ck, count):
    family, size, mus = choice
    rd = _datum(family, size)
    terms = {}
    for mu0 in mus:
        mu = shifted(mu0, central_shift(family, size, rng.randint(-SHIFT_RANGE,
                                                              SHIFT_RANGE)))
        coeff = LaurentPoly({rng.randint(-2, 2): rng.choice((-2, -1, 1, 2))})
        terms[mu] = coeff
    f = SymmetricFunction.from_dominant(rd, terms)
    W = rd.affine_weyl()
    bound = max(W.translation(mu).length() for mu in terms)

    def run(_):
        z = center.bernstein_iso(f, rd.affine_weyl())
        return center.bernstein_iso_inverse(z, bound)

    def check(_, back):
        if back != f:
            raise CheckFailed("bernstein_iso_inverse(bernstein_iso(f)) != f")
    return run, check


def _ct_product(choice, c, rng, ck, count):
    family, size, mu1, mu2, labels = choice
    rd = _datum(family, size)
    c1, c2 = (rng.randint(-SHIFT_RANGE, SHIFT_RANGE) for _ in range(2))
    m1 = shifted(mu1, central_shift(family, size, c1))
    m2 = shifted(mu2, central_shift(family, size, c2))

    def run(_):
        H = rd.affine_weyl().hecke()
        prod = H.bernstein_function(m1) * H.bernstein_function(m2)
        return center.constant_term(prod, labels)

    def check(_, ct):
        def make():
            f = (center.monomial_symmetric(rd, mu1)
                 * center.monomial_symmetric(rd, mu2))
            return ck.levi_image(family, size, labels, f.terms)
        want = ck.cached(("ct", choice), make)
        if hecke_canon(ct, central_shift(family, size, c1 + c2)) != want:
            raise CheckFailed("constant term of a product is not the product "
                              "of the Levi images")
    return run, check


def _hecke_product(choice, c, rng, ck, count):
    family, size = choice
    rd = _datum(family, size)
    nfin = rd.affine_weyl().weyl.size

    def element():
        return (tuple(rng.randint(-1, 1) for _ in range(size)),
                rng.randrange(nfin))

    xs = [(element(), rng.choice((-1, 1, 2))) for _ in range(3)]
    y = element()

    def run(_):
        W = rd.affine_weyl()
        H = W.hecke()
        a = H.from_terms({W.element(t, w): LaurentPoly.const(k)
                          for (t, w), k in xs})
        return a, a * H.t(W.element(*y))

    def check(_, res):
        a, prod = res
        W = AffineWeylGroup(rd)
        H = HeckeAlgebra(W)
        p = H.from_terms({W.element(x.trans, x.fin): cf
                          for x, cf in prod.terms.items()})
        back = H.multiply(p, H.t_inverse(W.element(*y)))
        if hecke_canon(back) != hecke_canon(a):
            raise CheckFailed("(a T_y) T_y^-1 != a")
    return run, check


def _adm_queries(choice, c, rng, ck, count):
    family, size, mu0 = choice
    rd = _datum(family, size)
    mu = shifted(mu0, central_shift(family, size, c))
    picks = [(rng.random(), rng.random()) for _ in range(ADM_QUERY_PAIRS)]

    def run(_):
        W = rd.affine_weyl()
        adm = sorted(W.admissible_set(mu), key=W.sort_key)
        out = []
        for a, b in picks:
            x, y = adm[int(a * len(adm))], adm[int(b * len(adm))]
            out.append((x == y, affine.bruhat_leq(x, y),
                        klpoly.r_polynomial(x, y)))
        return out

    def check(_, answers):
        for same, leq, r in answers:
            if same and r != LaurentPoly.const(1):
                raise CheckFailed("R_{x,x} != 1")
            if leq != bool(r):
                raise CheckFailed("R_{x,y} != 0 disagrees with x <= y")
    return run, check


def _probe(name, count):
    argv = PROBES[name]

    def run(_):
        try:
            rc, _out, err = call_cli(argv, count)
        except Exception as exc:  # the probe's outcome, not a bench error
            return None, f"{type(exc).__name__}: {exc}"
        return rc, err

    def check(_, res):
        rc, err = res
        if rc in (2, 3) and "Traceback" not in err:
            return
        problem = (f"raised {err}" if rc is None
                   else f"exit {rc}, expected 2 or 3")
        if name in KNOWN_DEFECTS:
            raise KnownDefect(f"{name}: {problem}")
        raise CheckFailed(f"{name}: {problem}")
    return run, check


# kind -> (choice, central shift, rng for further inputs, checker,
# counter) -> (run, check)
KINDS = {"cli_adm": _cli_adm, "cli_zmu": _cli_zmu, "cli_levi": _cli_levi,
         "transfer": _transfer, "scholze_gf4": _scholze,
         "iso_round_trip": _iso_round_trip, "ct_product": _ct_product,
         "hecke_product": _hecke_product, "adm_queries": _adm_queries}


def open_session():
    """Set up the session's shared contexts, as a long-lived process has."""
    for family, size in GROUPS:
        build_root_datum(family, size).affine_weyl().hecke()
    for (family, size), labels in LEVIS:
        levi_sub_datum(build_root_datum(family, size),
                       labels).affine_weyl().hecke()


def build(seed, rounds, count=lambda name, n: None, fresh=FRESH):
    rounds = -(-rounds // ROUNDS_MULTIPLE) * ROUNDS_MULTIPLE
    rng = random.Random(seed)
    open_session()
    ck = Checker()
    probe_names = sorted(PROBES)
    rng.shuffle(probe_names)
    issued = {kind: [] for kind in REPEAT_KINDS}  # fresh requests so far
    jobs = []
    probe_i = 0
    for _ in range(rounds):
        seq = [(kind, choice, rng.randint(-SHIFT_RANGE, SHIFT_RANGE),
                rng.randrange(2 ** 32), False)
               for kind, choices in fresh.items() for choice in choices]
        rng.shuffle(seq)
        for kind in REPEAT_KINDS:
            pos = rng.randrange(1, len(seq) + 1)
            earlier = issued[kind] + [r for r in seq[:pos]
                                      if r[0] == kind and not r[4]]
            if not earlier:  # the first of its kind comes later this round
                pos = 1 + next(i for i, r in enumerate(seq) if r[0] == kind)
                earlier = [seq[pos - 1]]
            seq.insert(pos, rng.choice(earlier)[:4] + (True,))
        for r in seq:
            if r[0] in issued and not r[4]:
                issued[r[0]].append(r)
        for _ in range(PROBES_PER_ROUND):
            seq.insert(rng.randrange(len(seq) + 1),
                       ("probe", probe_names[probe_i % len(probe_names)],
                        0, 0, False))
            probe_i += 1
        for kind, choice, c, param_seed, repeat in seq:
            if kind == "probe":
                run, check = _probe(choice, count)
                jobs.append(Job("probe", choice, run, check))
                continue
            run, check = KINDS[kind](choice, c, random.Random(param_seed),
                                     ck, count)
            jobs.append(Job(kind, kind + (" repeat" if repeat else ""),
                            run, check))
    return jobs
