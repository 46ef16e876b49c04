"""
Indexed finite Weyl groups.

The finite Weyl group of a root datum is enumerated once, breadth-first from
the identity, each element told apart by how it permutes the roots (W_0 acts
faithfully on them).  Every element gets an index, an inverse, a reduced
word and its root images; no action matrix is stored.  The group is one set
of tables keyed by element index: per simple reflection s_i the rows
lrow[i][u] = s_i u and rrow[i][u] = u s_i, which the kernel reads in place,
and root_image[u], the ids of the roots u(alpha), a negative root's id
being at least npos.  `fold`, the one action of a word on a coweight and an
element (v -> v - <a_i, v> a_i^vee, u -> s_i u per letter; Casselman,
"Computation in Coxeter groups I", 2002), serves `apply` and the kernel.

Every table comes from the root closure's record of s_i(alpha) over the
positive roots (`RootDatum.root_reflections`), read once as one
permutation of the root ids per simple reflection, whose negative half
is s_i(-alpha) = -s_i(alpha); nothing here pairs a root with a coroot.  The
enumeration forms the root images of u s_i only for an ascent, as a bytes
string translated through that permutation, and sets u s_i and (u s_i) s_i
= u together.  The left rows and the inverses then follow in index order
from the element one level down, and `reflection_words`, the one source
of the reflections s_alpha, unwinds s_alpha = s_i s_{s_i alpha} s_i down
to a simple root.

>>> from iwahecke.rootdata import build_root_datum
>>> w = IndexedWeyl(build_root_datum("GL", 3))
>>> w.size
6
>>> w.length[w.longest]
3
>>> w.word[w.longest]   # canonical reduced word, 0-based indices
(0, 1, 0)
>>> w.apply(w.longest, (1, 2, 3))
(3, 2, 1)
"""

from __future__ import annotations

from collections import Counter
from math import prod
from operator import mul

from .rootdata import RootDatum, RootDatumError, _check_rank, _same_datum

__all__ = ["IndexedWeyl", "FiniteWeylElement", "weyl_order"]

_MAX_GROUP = 500_000


def weyl_order(rd: RootDatum) -> int:
    """|W_0| = prod (m_i + 1) over the exponents m_i, where #{i : m_i >= k}
    is the number of positive roots of height k (Kostant).

    >>> from iwahecke.rootdata import build_root_datum
    >>> weyl_order(build_root_datum("GL", 10))
    3628800
    """
    heights = Counter(sum(c) for c in rd.pos_root_coords)
    return prod((k + 1) ** (heights[k] - heights[k + 1]) for k in heights)


class IndexedWeyl:
    """Fully enumerated finite Weyl group with lookup tables."""

    def __init__(self, rd: RootDatum):
        size = weyl_order(rd)
        if size > _MAX_GROUP:
            raise RootDatumError("finite Weyl group too large")
        self.rd = rd
        m = rd.n_simple

        # Root ids: roots[k] (coroots[k]) is the k-th positive root (coroot)
        # for k < npos and the negative of root (coroot) k - npos above.
        # s_i^T permutes them, alpha -> alpha - <alpha, a_i^vee> a_i:
        # root_perm[i][k] is the id of s_i(roots[k]), as the root closure
        # recorded it (None for -a_i), and s_i(-alpha) = -s_i(alpha).
        self.npos = npos = len(rd.pos_roots)
        self.roots = tuple(rd.pos_roots) + tuple(
            tuple(-x for x in a) for a in rd.pos_roots)
        self.coroots = tuple(rd.pos_coroots) + tuple(
            tuple(-x for x in av) for av in rd.pos_coroots)
        self.root_id = root_id = {a: k for k, a in enumerate(self.roots)}
        reflections = rd.root_reflections
        root_perm = []
        for images in zip(*[reflections[a] for a in rd.pos_roots]):
            half = [k + npos if b is None else root_id[b]
                    for k, b in enumerate(images)]
            root_perm.append(half + [(k + npos) % (2 * npos) for k in half])

        # a word of s_alpha per positive root alpha, listed by height:
        # s_alpha = s_i s_{s_i alpha} s_i for the first simple a_i with
        # <alpha, a_i^vee> > 0, which lowers the height and so the id;
        # s_i sends the simple root a_i alone to its negative
        words = []
        for r in range(npos):
            for i, perm in enumerate(root_perm):
                if perm[r] == r + npos:
                    words.append((i,))
                    break
                if perm[r] < r:
                    words.append((i,) + words[perm[r]] + (i,))
                    break
        self.reflection_words = tuple(words)

        # breadth-first enumeration; level order gives the length function.
        # images[w] lists the ids of w^{-1}(alpha) = w^T(alpha) over the
        # positive roots alpha: a faithful key, since the Cartan matrix of
        # finite type is nondegenerate.  It is a bytes string, so that
        # images[u s_i] is images[u] translated through s_i's permutation in
        # one call: a group within _MAX_GROUP has fewer than 50 positive
        # roots, so every id fits in a byte.  Reaching w = u s_i from u sets
        # rrow[i][u] = w and rrow[i][w] = u, so a row entry still None when
        # its element leaves the frontier is an ascent, the only case that
        # forms an image; w records u and i.
        tables = [bytes(perm) + bytes(256 - 2 * npos) for perm in root_perm]
        images = [bytes(range(npos))]
        by_image = {images[0]: 0}
        length, parent, letter = [0], [0], [0]
        rrow = [[None] * size for _ in range(m)]
        frontier = [0]
        while frontier:
            new = []
            for u in frontier:
                img = images[u]
                for i, row in enumerate(rrow):
                    if row[u] is not None:
                        continue
                    p = img.translate(tables[i])
                    w = by_image.get(p)
                    if w is None:
                        w = by_image[p] = len(images)
                        images.append(p)
                        length.append(length[u] + 1)
                        parent.append(u)
                        letter.append(i)
                        new.append(w)
                    row[u] = w
                    row[w] = u
            frontier = new
        del by_image

        self.size = len(images)
        self.length = tuple(length)
        self.rrow = rrow = tuple(map(tuple, rrow))
        # for w = u s_j: s_i w = (s_i u) s_j and w^{-1} = s_j u^{-1}, both
        # one level down from w, so reached before it
        lrow = [[r[0]] * self.size for r in rrow]  # s_i e = e s_i
        inv = [0] * self.size
        for w in range(1, self.size):
            u, j = parent[w], letter[w]
            rj = rrow[j]
            for row in lrow:
                row[w] = rj[row[u]]
            inv[w] = lrow[j][inv[u]]
        self.inv = tuple(inv)
        self.lrow = lrow = tuple(map(tuple, lrow))
        self.gen_index = tuple(r[0] for r in rrow)
        self._simple = tuple(zip(rd.simple_roots, rd.simple_coroots, lrow))
        # w_0 is the one element of maximal length, so last in level order
        self.longest = self.size - 1

        # canonical reduced word: repeatedly strip the smallest left descent
        # (indices are in level order, so s_i w was reached before w)
        word = [()]
        for w in range(1, self.size):
            for i in range(m):
                u = lrow[i][w]
                if length[u] < length[w]:
                    word.append((i,) + word[u])
                    break
        self.word = tuple(word)

        # root_image[w][a] = images[w^{-1}][a] is the id of w(alpha_a), a
        # negative root exactly when the id is at least npos
        for u, img in enumerate(images):
            images[u] = tuple(img)
        self.root_image = tuple([images[u] for u in inv])

    def fold(self, letters, t, w):
        """s_{i_k} ... s_{i_1} (t, w) for letters i_1, ..., i_k in that
        order: t -> t - <a_i, t> a_i^vee on the coweight, w -> s_i w on
        the element.  The caller checks t's length."""
        simple = self._simple
        for i in letters:
            a, av, row = simple[i]
            m = sum(map(mul, t, a))
            if m:
                t = tuple([x - m * c for x, c in zip(t, av)])
            w = row[w]
        return t, w

    def apply(self, w: int, vec):
        """w(vec): the simple reflections of w's word, last letter first."""
        vec = tuple(vec)
        _check_rank(self.rd, vec)
        return self.fold(reversed(self.word[w]), vec, 0)[0]

    def mul(self, w1: int, w2: int) -> int:
        rrow = self.rrow
        for i in self.word[w2]:
            w1 = rrow[i][w1]
        return w1

    def element(self, w: int) -> "FiniteWeylElement":
        if not isinstance(w, int) or not 0 <= w < self.size:
            raise ValueError(f"finite Weyl group index {w!r} is not in "
                             f"range({self.size})")
        return FiniteWeylElement(self, w)


class FiniteWeylElement:
    """A finite Weyl group element: an index plus its lookup context."""

    __slots__ = ("group", "idx")

    def __init__(self, group: IndexedWeyl, idx: int):
        self.group = group
        self.idx = idx

    @property
    def word(self):
        """Canonical reduced word, 0-based simple reflection indices."""
        return self.group.word[self.idx]

    def length(self) -> int:
        return self.group.length[self.idx]

    def apply(self, vec):
        return self.group.apply(self.idx, vec)

    def __mul__(self, other):
        if not isinstance(other, FiniteWeylElement):
            return NotImplemented
        _same_datum(self.group.rd, other.group.rd)
        return FiniteWeylElement(self.group, self.group.mul(self.idx, other.idx))

    def inverse(self):
        return FiniteWeylElement(self.group, self.group.inv[self.idx])

    def __eq__(self, other):
        return (isinstance(other, FiniteWeylElement)
                and (other.group is self.group
                     or _same_datum(other.group.rd, self.group.rd))
                and other.idx == self.idx)

    def __hash__(self):
        return hash(self.idx)

    def __repr__(self):
        return f"FiniteWeylElement({'*'.join(f's{i + 1}' for i in self.word) or 'e'})"
