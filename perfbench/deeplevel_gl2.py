"""
Workload `deeplevel-gl2`: the GL(2) deep-level family phi_n over F_q((t)).

Each job takes one matrix g of a reference corpus at (n, q) in {1,2} x {2,3},
computes phi_n(g), evaluates phi_n on K_n g K_n for `PAIRS` bi-invariance
pairs, and runs the change-of-level coset sum (q^4 products).  A fixed share
of the jobs sees g truncated to precision 2, so the precision-honest
INDETERMINATE path always runs.  Under cProfile the series (with ffield)
and deeplevel layers take almost all of the time; the kernel and hecke
layers take none.

The class mix is fixed per round: q=2 jobs are two thirds, so the median
falls among them and p90 among the q=3 jobs, away from the boundary between
the two cost classes.  The seed picks the corpus and the order in which
its matrices are used; each is used once per pass.
"""

from __future__ import annotations

import random

from iwahecke import GF, deeplevel
from iwahecke.deeplevel import IndeterminatePrecisionError
from iwahecke.series import Matrix2, TruncatedSeries

from jobs import CheckFailed, Job, Unchecked

CORPUS_SIZE = 300
TRUNCATED_PRECISION = 2
PAIRS = 2
KN_DEPTH = 6
# (q, n) -> (exact jobs, truncated jobs) per round
ROUND = {(2, 1): (10, 2), (2, 2): (10, 2), (3, 1): (5, 1), (3, 2): (5, 1)}

NOMINAL_ROUND_S = 0.22  # one round, pure kernel, at the introducing commit


def kn_element(field, n, rng):
    """1 + t^n M with M a random exact 2x2 matrix over O, depth KN_DEPTH."""
    def entry(diag):
        coeffs = [rng.randrange(field.q) for _ in range(KN_DEPTH)]
        s = TruncatedSeries(field, n, coeffs)
        return s + TruncatedSeries.one(field) if diag else s
    return Matrix2(entry(True), entry(False), entry(False), entry(True))


def _job(field, n, exact_g, truncated, pair_seed):
    g = exact_g.truncate(TRUNCATED_PRECISION) if truncated else exact_g

    def prepare():
        rng = random.Random(pair_seed)
        return [(kn_element(field, n, rng), kn_element(field, n, rng))
                for _ in range(PAIRS)]

    def run(pairs):
        try:
            phi = deeplevel.scholze_phi(n, g)
        except IndeterminatePrecisionError:
            return None
        moved = []
        for u, up in pairs:
            try:
                moved.append(deeplevel.scholze_phi(n, u * g * up))
            except IndeterminatePrecisionError:
                moved.append(None)
        try:
            compat = deeplevel.level_compatibility_check(n, g)
        except IndeterminatePrecisionError:
            compat = None
        return phi, moved, compat

    def check(_, result):
        if result is None:
            if not truncated:
                raise CheckFailed("exact matrix reported INDETERMINATE")
            raise Unchecked("INDETERMINATE row")
        phi, moved, compat = result
        if any(m is not None and m != phi for m in moved):
            raise CheckFailed(f"phi_{n} is not K_{n} bi-invariant here")
        if compat is False or (compat is None and not truncated):
            raise CheckFailed(f"change of level fails at n={n}")
        if truncated and deeplevel.scholze_phi(n, exact_g) != phi:
            raise CheckFailed("truncated phi differs from the exact phi")
        if not truncated and None in moved:
            raise CheckFailed("exact bi-invariance pair was indeterminate")

    kind = f"q={field.q} n={n} {'truncated' if truncated else 'exact'}"
    return Job(f"q{field.q}", kind, run, check, prepare)


def build(seed, rounds, plan=ROUND):
    rng = random.Random(seed)
    corpora = {}
    for q in sorted({q for q, _ in plan}):
        field = GF(q)
        corpora[q] = (field, deeplevel.build_reference_corpus(
            field, count=CORPUS_SIZE, seed=rng.randrange(2 ** 32)))
    base = []
    for (q, n), (exact, truncated) in sorted(plan.items()):
        base += [(q, n, False)] * exact + [(q, n, True)] * truncated
    order = {q: [] for q in corpora}
    jobs = []
    for _ in range(rounds):
        batch = list(base)
        rng.shuffle(batch)
        for q, n, truncated in batch:
            field, corpus = corpora[q]
            if not order[q]:  # every matrix once per pass, in seeded order
                order[q] = rng.sample(range(len(corpus)), len(corpus))
            g = corpus[order[q].pop()]
            jobs.append(_job(field, n, g, truncated, rng.randrange(2 ** 32)))
    return jobs
