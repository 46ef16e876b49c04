"""
The kernel for extended affine Weyl group element arithmetic.

Elements are pairs ``(t, w)`` with ``t`` the translation coweight (a tuple of
ints) and ``w`` an index into the finite Weyl group tables.  These functions
are the innermost loops of everything downstream (Bruhat order, admissible
sets, R-polynomials, Hecke folds).  A generator acts in O(rank) through
the tables of :class:`iwahecke.weyl.IndexedWeyl`, which the finite
generator slots read in place; only the affine reflections get rows of
their own.  `mul`, `inv` and `apply` fold a finite word one generator at a
time through `IndexedWeyl.fold`, with no action matrices, and the affine
slot of a component takes its s_theta from `IndexedWeyl.reflection_words`.
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

    Generator slots: the finite simple reflection s_i sits in slot i and
    reads the rows ``weyl.lrow[i]`` (s_i u) and ``weyl.rrow[i]`` (u s_i) in
    place.  After them come the affine reflections t_{theta^vee} s_theta,
    one per irreducible component in the order of ``rd.highest_roots``, each
    with rows of its own.  A slot's affine root (vec, k), (a_i, 0) or
    (-theta, 1), is paired in descent tests, and with its coroot cvec
    (signed like vec) the generator acts on the left as
    t -> t - (<t, vec> + k) cvec.  ``reflections[g]`` is the reflection of
    slot g as a ``(trans, fin)`` group element.  The Hecke fold
    (:meth:`iwahecke.hecke.HeckeAlgebra._step`) applies a letter to every
    term of an element at once, so it unpacks slot g's tuples ``_left[g]``
    and ``_ldesc[g]`` (or ``_right[g]`` and ``_rdesc[g]``) once per letter
    and inlines `lmul_gen` with `left_descent` (or `rmul_gen` with the
    right descent test, x^{-1}'s left one, read from ``_rdesc[g]``).
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
        # per slot, the id r of its positive root a_i or theta; the fields
        # each operation reads sit in a tuple of their own, so that a call
        # unpacks only those
        slots = [(root_id[a], False) for a in rd.simple_roots]
        slots += [(root_id[theta], True) for theta, _ in rd.highest_roots]
        self.reflections, self._left, self._right = [], [], []
        self._ldesc, self._rdesc = [], []
        for g, (r, affine) in enumerate(slots):
            column = list(map(itemgetter(r), images))  # ids of u(alpha_r)
            if affine:
                # u -> u s_theta, so that rrow[0] is s_theta itself
                rrow = tuple(range(weyl.size))
                for i in weyl.reflection_words[r]:
                    rrow = _compose(weyl.rrow[i], rrow)
                self.reflections.append((coroots[r], rrow[0]))
                lrow = _compose(inv, _compose(rrow, inv))  # (u^{-1} s)^{-1}
                # (t, u) s = (t + u(theta^vee), u s)
                wtrans = _compose(coroots, column)
            else:
                self.reflections.append((zero, weyl.gen_index[g]))
                lrow, rrow, wtrans = weyl.lrow[g], weyl.rrow[g], None
            # an affine slot pairs -theta, whose root ids are shifted by npos
            shift, k = (npos, 1) if affine else (0, 0)
            vec, cvec = roots[r + shift], coroots[r + shift]
            # shifted[k] is roots[(k + shift) % (2 * npos)]
            shifted = roots[shift:] + roots[:shift]
            wvec = _compose(shifted, column)
            self._left.append((vec, k, cvec, lrow))
            self._right.append((wtrans, rrow))
            self._ldesc.append((vec, k, r, affine))
            self._rdesc.append((wvec, k, r, affine))

    def apply(self, w: int, vec):
        """w(vec) on a coweight."""
        return self.weyl.fold(reversed(self.word[w]), tuple(vec), 0)[0]

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
        vec, k, r, flip = self._ldesc[g]
        m = k + sum(map(mul, t, vec))
        if m:
            return m < 0
        return (self.root_image[self.inv_table[w]][r] >= self.npos) != flip
