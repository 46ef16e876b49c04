"""
Pure-Python kernel for extended affine Weyl group element arithmetic.

Elements are pairs ``(t, w)`` with ``t`` the translation coweight (a tuple of
ints) and ``w`` an index into the finite Weyl group tables.  These functions
are the innermost loops of everything downstream (Bruhat order, admissible
sets, R-polynomials, Hecke folds), which is why they also exist as a compiled
twin in ``_speedups.pyx``; the two must stay behaviourally identical, see
``tests/test_kernel_parity.py``.
"""

from __future__ import annotations

__all__ = ["Kernel", "IMPL"]

IMPL = "python"


class Kernel:
    """Affine Weyl element operations over precomputed finite-group tables.

    The `spec` bundle is built by :class:`iwahecke.affine.AffineWeylGroup`:

    * ``rank`` - lattice rank;
    * ``act`` - per finite element, its rank x rank action matrix (row tuples);
    * ``inv`` - per finite element, the index of its inverse;
    * ``findex`` - dict: action matrix -> finite element index (read by the
      compiled kernel only);
    * ``word`` - per finite element, a reduced word in the finite simple
      reflections, 0-based (read by this kernel only);
    * ``roots`` - positive roots as character tuples;
    * ``root_sign`` - per finite element w, tuple over roots a of the sign
      (+1/-1) of w^{-1}(a);
    * ``gens`` - per affine generator: (vec, k, root_idx, flip, trans, fin,
      lrow, rrow) where (vec, k) is the affine root paired in descent tests,
      root_idx/flip drive the tie-break sign test, (trans, fin) is the
      reflection as a group element, and lrow/rrow tabulate left/right
      multiplication of finite parts by the reflection.
    """

    def __init__(self, spec: dict):
        self.rank = spec["rank"]
        self.act = spec["act"]
        self.inv_table = spec["inv"]
        self.word = spec["word"]
        self.roots = spec["roots"]
        self.root_sign = spec["root_sign"]
        self.gens = spec["gens"]
        # finite simple reflection i sits in generator slot i
        self._rrow = tuple(g[7] for g in self.gens)

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
        _, _, _, _, gt, gf, lrow, _ = self.gens[g]
        af = self.act[gf]
        n = self.rank
        nt = tuple(gt[i] + sum(af[i][j] * t[j] for j in range(n))
                   for i in range(n))
        return nt, lrow[w]

    def rmul_gen(self, t, w, g: int):
        """(t, w) * s_g."""
        _, _, _, _, gt, _, _, rrow = self.gens[g]
        aw = self.act[w]
        n = self.rank
        nt = tuple(t[i] + sum(aw[i][j] * gt[j] for j in range(n))
                   for i in range(n))
        return nt, rrow[w]

    def left_descent(self, g: int, t, w) -> bool:
        """ell(s_g x) < ell(x), via the sign of x^{-1} on the affine root."""
        vec, k, ridx, flip, _, _, _, _ = self.gens[g]
        m = k + sum(x * y for x, y in zip(t, vec))
        if m:
            return m < 0
        s = self.root_sign[w][ridx]
        return s > 0 if flip else s < 0

