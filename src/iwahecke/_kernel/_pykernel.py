"""
The kernel for extended affine Weyl group element arithmetic.

Elements are pairs ``(t, w)`` with ``t`` the translation coweight (a tuple of
ints) and ``w`` an index into the finite Weyl group tables.  These functions
are the innermost loops of everything downstream (Bruhat order, admissible
sets, R-polynomials, Hecke folds).  A generator acts in O(rank) through
tables built once per group; only `mul`, `inv` and `apply` read the full
action matrices.
"""

from __future__ import annotations

from operator import add, mul

__all__ = ["Kernel"]


class Kernel:
    """Affine Weyl element operations over precomputed finite-group tables.

    The `spec` bundle is built by :class:`iwahecke.affine.AffineWeylGroup`:

    * ``rank`` - lattice rank;
    * ``act`` - per finite element, its rank x rank action matrix (row tuples);
    * ``inv`` - per finite element, the index of its inverse;
    * ``word`` - per finite element, a reduced word in the finite simple
      reflections, 0-based;
    * ``roots`` - positive roots as character tuples;
    * ``root_sign`` - per finite element w, tuple over roots a of the sign
      (+1/-1) of w^{-1}(a);
    * ``gens`` - per affine generator: (vec, k, cvec, root_idx, flip, trans,
      fin, lrow, rrow, wvec, wtrans) where (vec, k) is the affine root paired
      in descent tests and cvec its coroot, signed like vec (the generator
      acts as t -> t - (<t, vec> + k) cvec); root_idx/flip drive the
      tie-break sign test; (trans, fin) is the reflection as a group
      element; and lrow/rrow/wvec/wtrans tabulate, per finite element u,
      s u, u s, u(vec) and u(trans) (wtrans is None when trans is zero).
    """

    def __init__(self, spec: dict):
        self.rank = spec["rank"]
        self.act = spec["act"]
        self.inv_table = spec["inv"]
        self.word = spec["word"]
        self.roots = spec["roots"]
        self.root_sign = spec["root_sign"]
        self.gens = gens = spec["gens"]
        # the fields each operation reads, so that a call unpacks only those
        self._left = tuple((g[0], g[1], g[2], g[7]) for g in gens)
        self._right = tuple((g[10], g[8]) for g in gens)
        self._ldesc = tuple((g[0], g[1], g[3], g[4]) for g in gens)
        self._rdesc = tuple((g[9], g[1], g[3], g[4]) for g in gens)
        # finite simple reflection i sits in generator slot i
        self._rrow = tuple(g[8] for g in gens)

    def apply(self, w: int, vec):
        return tuple(sum(row[j] * vec[j] for j in range(self.rank))
                     for row in self.act[w])

    def mul(self, t1, w1, t2, w2):
        """(t1 w1)(t2 w2) = (t1 + w1(t2), w1 w2)."""
        a1 = self.act[w1]
        n = self.rank
        t = tuple(t1[i] + sum(a1[i][j] * t2[j] for j in range(n))
                  for i in range(n))
        # w1 w2 by folding right multiplications over a word of w2
        rrow = self._rrow
        for i in self.word[w2]:
            w1 = rrow[i][w1]
        return t, w1

    def inv(self, t, w):
        wi = self.inv_table[w]
        ai = self.act[wi]
        n = self.rank
        ti = tuple(-sum(ai[i][j] * t[j] for j in range(n)) for i in range(n))
        return ti, wi

    def length(self, t, w) -> int:
        """Iwahori-Matsumoto length of t_t * w."""
        total = 0
        signs = self.root_sign[w]
        for a, sgn in zip(self.roots, signs):
            p = sum(x * y for x, y in zip(t, a))
            if sgn < 0:
                p -= 1
            total += p if p >= 0 else -p
        return total

    def lmul_gen(self, g: int, t, w):
        """s_g * (t, w) for an affine generator slot g."""
        vec, k, cvec, lrow = self._left[g]
        m = k + sum(map(mul, t, vec))
        if m:
            t = tuple([x - m * c for x, c in zip(t, cvec)])
        return t, lrow[w]

    def rmul_gen(self, t, w, g: int):
        """(t, w) * s_g."""
        wtrans, rrow = self._right[g]
        if wtrans is not None:
            t = tuple(map(add, t, wtrans[w]))
        return t, rrow[w]

    def left_descent(self, g: int, t, w) -> bool:
        """ell(s_g x) < ell(x), via the sign of x^{-1} on the affine root."""
        vec, k, ridx, flip = self._ldesc[g]
        m = k + sum(map(mul, t, vec))
        if m:
            return m < 0
        s = self.root_sign[w][ridx]
        return s > 0 if flip else s < 0

    def right_descent(self, t, w, g: int) -> bool:
        """ell(x s_g) < ell(x): the left descent test of x^{-1} =
        (-w^{-1}(t), w^{-1}), paired as <w^{-1}(t), vec> = <t, w(vec)>."""
        wvec, k, ridx, flip = self._rdesc[g]
        m = k - sum(map(mul, t, wvec[w]))
        if m:
            return m < 0
        s = self.root_sign[self.inv_table[w]][ridx]
        return s > 0 if flip else s < 0
