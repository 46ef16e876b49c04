"""
Tiny exact linear algebra over Z used by the root-datum and Hecke layers.

Everything here operates on tuples of Python ints; matrices are tuples of
row tuples.  Sizes are the rank of a root datum (<= 8ish), so no attention
is paid to asymptotics.
"""

from __future__ import annotations

from operator import mul

__all__ = ["hermite_basis", "reduce_mod_lattice", "dot"]


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
