"""
Tiny exact linear algebra over Z and Q used by the root-datum layer.

Everything here operates on tuples of Python ints; matrices are tuples of
row tuples.  Only the solution of a linear system over Q has Fraction
entries, each made by one division at the end.  Sizes are the rank of a
root datum (<= 8ish), so no attention is paid to asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

__all__ = ["hermite_basis", "reduce_mod_lattice", "solve_underdetermined",
           "dot"]


def dot(a, b) -> int:
    return sum(map(mul, a, b))


def hermite_basis(rows):
    """Row-style Hermite normal form basis of the lattice spanned by `rows`.

    Returns a list of linearly independent rows in echelon form: each has a
    positive pivot, pivot columns strictly increase, and entries above each
    pivot are reduced into [0, pivot).  The empty list spans the zero lattice.
    """
    basis = [list(r) for r in rows if any(r)]
    n = len(rows[0]) if rows else 0
    result = []
    col = 0
    while col < n and basis:
        # gcd-eliminate column `col` down to a single row
        live = [r for r in basis if r[col]]
        rest = [r for r in basis if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            for r in live[1:]:
                f = r[col] // piv[col]
                for j in range(n):
                    r[j] -= f * piv[j]
            live, extra = [r for r in live if r[col]], [r for r in live if not r[col]]
            rest.extend(extra)
        if live:
            piv = live[0]
            if piv[col] < 0:
                piv = [-x for x in piv]
            result.append(piv)
        basis = rest
        col += 1
    # reduce entries above pivots
    for i in reversed(range(len(result))):
        piv = result[i]
        pcol = next(j for j, x in enumerate(piv) if x)
        for r in result[:i]:
            f = r[pcol] // piv[pcol]
            if f:
                for j in range(len(r)):
                    r[j] -= f * piv[j]
    return [tuple(r) for r in result]


def reduce_mod_lattice(vec, hnf_rows):
    """Canonical representative of `vec` modulo the lattice with HNF basis rows."""
    v = list(vec)
    for row in hnf_rows:
        pcol = next(j for j, x in enumerate(row) if x)
        f = v[pcol] // row[pcol]
        if f:
            for j in range(len(v)):
                v[j] -= f * row[j]
    return tuple(v)


def solve_underdetermined(rows, target):
    """One exact solution x of (rows) @ x = target over Q, or None.

    `rows` has m rows of length n with m <= n; free variables are set to 0.
    Gauss-Jordan elimination runs over the integers: a row is cleared in a
    pivot column by scaling it by pivot / g and subtracting entry / g times
    the pivot row, g = gcd(pivot, entry), so every entry stays an integer.
    One division per pivot, its row's right-hand side over the pivot,
    makes the Fraction entries of x.

    >>> solve_underdetermined([[2, 1], [0, 3]], (1, 1))
    (Fraction(1, 3), Fraction(1, 3))
    >>> solve_underdetermined([[1, 1], [2, 2]], (1, 3)) is None
    True
    """
    m = len(rows)
    if m == 0:
        return ()
    n = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, target)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        prow = aug[r]
        pv = prow[c]
        for i, row in enumerate(aug):
            f = row[c]
            if i != r and f:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                aug[i] = [a * x - b * y for x, y in zip(row, prow)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    if any(row[n] for row in aug[r:]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(aug, pivots):
        x[c] = Fraction(row[n], row[c])
    return tuple(x)
