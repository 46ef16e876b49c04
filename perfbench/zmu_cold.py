"""
Workload `zmu-cold`: Bernstein functions from a cold start.

Each job builds a fresh context, build_root_datum -> AffineWeylGroup(rd) ->
HeckeAlgebra(W), as every CLI run does, and computes v^l(t_mu) z_mu by the
theta route or the closed R-polynomial route.  Under cProfile this workload
is dominated by the kernel, laurent, hecke and affine layers, and never
touches series or deeplevel.

Every round holds the same multiset of (case, route) jobs; the seed permutes
them and draws a central shift of mu for GL and GSp, which changes the
input but not the work.  Each minuscule case runs once by each route per
round (GL(6) by the closed route only: its theta route alone takes over 5 s).
"""

from __future__ import annotations

import random

from iwahecke import LaurentPoly, build_root_datum, klpoly
from iwahecke.affine import AffineWeylGroup
from iwahecke.hecke import HeckeAlgebra
from iwahecke.rootdata import is_minuscule

from jobs import CheckFailed, Job, central_shift, shifted

# (family, matrix size, dominant mu), by measured pure-kernel cost at the
# commit that introduced this benchmark.
SMALL = [  # 1-20 ms
    ("GL", 3, (1, 0, 0)), ("GL", 3, (1, 1, 0)),
    ("GL", 4, (1, 0, 0, 0)), ("GL", 4, (1, 1, 0, 0)),
    ("GL", 2, (2, 0)), ("GL", 2, (3, 0)),
    ("GL", 3, (2, 1, 0)), ("GL", 3, (2, 0, 0)), ("GL", 3, (3, 1, 0)),
    ("Sp", 4, (1, 0)), ("Sp", 4, (1, 1)), ("SL", 3, (1, 1)),
    ("GSp", 4, (1, 1, 1)),
]
MEDIUM = [  # 0.05-0.5 s
    ("GL", 4, (2, 1, 0, 0)), ("GL", 4, (3, 1, 0, 0)), ("GL", 4, (2, 2, 0, 0)),
    ("GL", 5, (1, 1, 0, 0, 0)), ("GSp", 6, (1, 1, 1, 1)), ("Sp", 6, (1, 0, 0)),
]
LARGE = [  # 1.1-4.3 s
    ("Sp", 6, (1, 1, 0)), ("GL", 5, (2, 1, 0, 0, 0)),
    ("GL", 6, (1, 1, 0, 0, 0, 0)),
]
CLOSED_ROUTE_ONLY = {("GL", 6)}  # its theta route alone takes over 5 s
# Jobs per (case, route) per round.  The copies place p50 and p90 inside
# one case's cluster of times (GL(3) (2,1,0) and the 0.14-0.16 s medium
# cases), not on a gap between two cases, where the quantile would jump.
COPIES = {"small": 3, "medium": 2, "large": 1}
MEDIAN_CASE = ("GL", 3, (2, 1, 0))
MEDIAN_COPIES = 18
SHIFT_RANGE = 9

NOMINAL_ROUND_S = 14.4  # one round, pure kernel, at the introducing commit
MIN_ROUNDS = 2  # 176 jobs: p90 needs 100 jobs for ten samples beyond it


def routes(rd, mu, family, size):
    if not is_minuscule(rd, mu):
        return ("theta",)
    if (family, size) in CLOSED_ROUTE_ONLY:
        return ("closed",)
    return ("theta", "closed")


class Checker:
    """Verifies each job against a reference computed once per case by an
    independent route:

    * minuscule mu: the other route (theta <-> closed R-polynomial form);
    * otherwise: the first result is checked to be central with support
      equal to Adm(mu), and later results must equal it.

    Results are compared after undoing the central shift: z_{mu+c} is
    T_{t_c} z_mu, and t_c has length 0.
    """

    def __init__(self):
        self.refs = {}

    def check(self, case, route, shift, h):
        got = canonical(h, shift)
        key = (case, route)
        ref = self.refs.get(key)
        if ref is None:
            ref = self._reference(case, route, h, got)
            self.refs[key] = ref
        if got != ref:
            raise CheckFailed(f"{case} by {route} differs from its reference")

    def _reference(self, case, route, h, got):
        family, size, mu = case
        rd = build_root_datum(family, size)
        W = AffineWeylGroup(rd)
        if is_minuscule(rd, mu):
            if route == "closed":
                lt = W.translation(mu).length()
                other = HeckeAlgebra(W).bernstein_function(mu).scale(
                    LaurentPoly.v(lt))
            else:
                other = klpoly.closed_form_bernstein(W, mu)
            return canonical(other, (0,) * len(mu))
        if not h.algebra.is_central(h):
            raise CheckFailed(f"{case}: z_mu is not central")
        adm = {(x.trans, x.fin) for x in W.admissible_set(mu)}
        if set(got) != adm:
            raise CheckFailed(f"{case}: support differs from Adm(mu)")
        return got


def canonical(h, svec):
    """{(translation - svec, finite index): coefficient} of an element."""
    return {(tuple(a - b for a, b in zip(x.trans, svec)), x.fin): c
            for x, c in h.terms.items()}


def _job(case, size_class, route, shift, checker):
    family, size, mu0 = case
    svec = central_shift(family, size, shift)
    mu = shifted(mu0, svec)

    def run(_):
        rd = build_root_datum(family, size)
        W = AffineWeylGroup(rd)
        H = HeckeAlgebra(W)
        if route == "closed":
            return klpoly.closed_form_bernstein(W, mu)
        lt = W.translation(mu).length()
        return H.bernstein_function(mu).scale(LaurentPoly.v(lt))

    def check(_, h):
        checker.check(case, route, svec, h)

    return Job(size_class, f"{family}({size}) {mu0} {route}", run, check)


def build(seed, rounds, classes=("small", "medium", "large")):
    rng = random.Random(seed)
    pools = {"small": SMALL, "medium": MEDIUM, "large": LARGE}
    base = []
    for size_class in classes:
        for case in pools[size_class]:
            family, size, mu = case
            rd = build_root_datum(family, size)
            copies = (MEDIAN_COPIES if case == MEDIAN_CASE
                      else COPIES[size_class])
            for route in routes(rd, mu, family, size):
                base.extend([(case, size_class, route)] * copies)
    checker = Checker()
    jobs = []
    for _ in range(rounds):
        batch = list(base)
        rng.shuffle(batch)
        for case, size_class, route in batch:
            shift = rng.randint(-SHIFT_RANGE, SHIFT_RANGE)
            jobs.append(_job(case, size_class, route, shift, checker))
    return jobs
