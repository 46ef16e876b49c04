"""
Tiny exact linear algebra over Z and Q used by the root-datum layer.

Everything here operates on tuples of Python ints (or Fractions); matrices
are tuples of row tuples.  Sizes are the rank of a root datum (<= 8ish), so
no attention is paid to asymptotics.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["hermite_basis", "reduce_mod_lattice", "solve_underdetermined",
           "dot"]


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


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
    """
    m = len(rows)
    if m == 0:
        return ()
    n = len(rows[0])
    aug = [[Fraction(rows[i][j]) for j in range(n)] + [Fraction(target[i])]
           for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n]:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return tuple(x)
