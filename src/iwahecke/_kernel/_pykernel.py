"""
The kernel for extended affine Weyl group element arithmetic.

Elements are pairs ``(t, w)`` with ``t`` the translation coweight (a tuple of
ints) and ``w`` an index into the finite Weyl group tables.  These functions
are the innermost loops of everything downstream (Bruhat order, admissible
sets, R-polynomials, Hecke folds).  A generator acts in O(rank) through
the tables of :class:`iwahecke.weyl.IndexedWeyl`, which the finite
generator slots read in place; only the affine reflections get rows of
their own.  `mul` and `inv` fold a finite word one generator at a time
through `IndexedWeyl.fold`, with no action matrices, `apply` is
`IndexedWeyl.apply`, and the affine slot of a component takes its s_theta
from `IndexedWeyl.reflection_words`.
"""

from __future__ import annotations

from operator import add, itemgetter, mul

__all__ = ["Kernel"]


def _compose(table, keys) -> tuple:
    """(table[k] for k in keys) as a tuple, in one C-level call; `keys` runs
    over a finite Weyl group with a simple reflection, so has at least two
    entries (itemgetter of one key would return a bare value)."""
    return itemgetter(*keys)(table)


class Kernel:
    """Affine Weyl element operations over the finite Weyl group's tables.

    Generator slots: a slot is its affine simple reflection's label, laid
    out here alone.  Slot 0 is t_{theta^vee} s_theta for the first
    irreducible component, slot i in 1..m the finite s_i, which reads the
    rows ``weyl.lrow[i - 1]`` (s_i u) and ``weyl.rrow[i - 1]`` (u s_i) in
    place, and slot m + c the affine reflection of component c > 0;
    ``components`` lists each component's node labels.  A slot's affine
    root (vec, k), (a_i, 0) or (-theta, 1), is paired in the descent tests,
    and with its coroot cvec (signed like vec) the generator acts on the
    left as t -> t - (<t, vec> + k) cvec.  ``reflections[g]`` is slot g's
    reflection as a ``(trans, fin)`` group element.  One record per side,
    ``_left[g]`` or ``_right[g]``, serves a product and its descent test,
    which the Hecke fold (:meth:`iwahecke.hecke.HeckeAlgebra._step`)
    inlines, unpacking the record once per letter.
    """

    def __init__(self, weyl):
        rd = weyl.rd
        self.weyl = weyl
        self.inv_table = inv = weyl.inv
        self.word = weyl.word
        self.roots = rd.pos_roots
        self.root_image = images = weyl.root_image
        self.npos = npos = weyl.npos
        roots, coroots, root_id = weyl.roots, weyl.coroots, weyl.root_id
        zero = (0,) * rd.rank
        # component c's affine node is labelled 0, or m + c for c > 0; per
        # slot, the id r of its positive root theta or a_i, and the finite
        # index i of s_{i+1} (None for an affine slot)
        m = rd.n_simple
        self.components = tuple((m + c if c else 0, *[i + 1 for i in comp])
                                for c, comp in enumerate(rd.components))
        affine = [(root_id[theta], None) for theta, _ in rd.highest_roots]
        slots = affine[:1] + [
            (root_id[a], i) for i, a in enumerate(rd.simple_roots)] + affine[1:]
        self.reflections, self._left, self._right = [], [], []
        for r, i in slots:
            column = list(map(itemgetter(r), images))  # ids of u(alpha_r)
            if i is None:
                # u -> u s_theta, so that rrow[0] is s_theta itself
                rrow = tuple(range(weyl.size))
                for j in weyl.reflection_words[r]:
                    rrow = _compose(weyl.rrow[j], rrow)
                self.reflections.append((coroots[r], rrow[0]))
                lrow = _compose(inv, _compose(rrow, inv))  # (u^{-1} s)^{-1}
                # (t, u) s = (t + u(theta^vee), u s)
                wtrans = _compose(coroots, column)
            else:
                self.reflections.append((zero, weyl.gen_index[i]))
                lrow, rrow, wtrans = weyl.lrow[i], weyl.rrow[i], None
            # an affine slot pairs -theta, whose root ids are shifted by npos
            shift, k = (npos, 1) if i is None else (0, 0)
            vec, cvec = roots[r + shift], coroots[r + shift]
            # shifted[k] is roots[(k + shift) % (2 * npos)]
            shifted = roots[shift:] + roots[:shift]
            wvec = _compose(shifted, column)
            self._left.append((vec, k, cvec, lrow, r, i is None))
            self._right.append((wtrans, rrow, wvec, k, r, i is None))

    def apply(self, w: int, vec):
        """w(vec) on a coweight: `IndexedWeyl.apply`, which refuses a
        coweight of the wrong rank."""
        return self.weyl.apply(w, vec)

    def mul(self, t1, w1, t2, w2):
        """(t1 w1)(t2 w2) = (t1 + w1(t2), w1 w2): w1's word folded onto
        (t2, w2), plus t1."""
        t, w = self.weyl.fold(reversed(self.word[w1]), t2, w2)
        return tuple(map(add, t1, t)), w

    def inv(self, t, w):
        """(t w)^{-1} = (-w^{-1}(t), w^{-1}): w^{-1}'s word is w's reversed."""
        return self.weyl.fold(self.word[w], tuple([-x for x in t]), 0)

    def length(self, t, w) -> int:
        """Iwahori-Matsumoto length of t_t * w: per positive root a,
        |<t, a> - 1| where w^{-1}(a) is negative and |<t, a>| otherwise."""
        total = 0
        npos = self.npos
        images = self.root_image[self.inv_table[w]]
        for a, img in zip(self.roots, images):
            p = sum(map(mul, t, a))
            if img >= npos:
                p -= 1
            total += p if p >= 0 else -p
        return total

    def lmul_gen(self, g: int, t, w):
        """s_g * (t, w) for an affine generator slot g."""
        vec, k, cvec, lrow, _, _ = self._left[g]
        m = k + sum(map(mul, t, vec))
        if m:
            t = tuple([x - m * c for x, c in zip(t, cvec)])
        return t, lrow[w]

    def rmul_gen(self, t, w, g: int):
        """(t, w) * s_g."""
        wtrans, rrow, _, _, _, _ = self._right[g]
        if wtrans is not None:
            t = tuple(map(add, t, wtrans[w]))
        return t, rrow[w]

    def left_descent(self, g: int, t, w) -> bool:
        """ell(s_g x) < ell(x), via the sign of x^{-1} on the affine root."""
        vec, k, _, _, r, flip = self._left[g]
        m = k + sum(map(mul, t, vec))
        if m:
            return m < 0
        return (self.root_image[self.inv_table[w]][r] >= self.npos) != flip

    def right_descent(self, g: int, t, w) -> bool:
        """ell(x s_g) < ell(x): x^{-1}'s left test, paired as
        <w^{-1}(t), vec> = <t, w(vec)> through the slot's table of w(vec)."""
        _, _, wvec, k, r, flip = self._right[g]
        m = k - sum(map(mul, t, wvec[w]))
        if m:
            return m < 0
        return (self.root_image[w][r] >= self.npos) != flip
