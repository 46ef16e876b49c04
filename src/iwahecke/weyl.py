"""
Indexed finite Weyl groups.

The finite Weyl group of a root datum is enumerated once, breadth-first from
the identity, each element told apart by how it permutes the roots (W_0 acts
faithfully on them).  Every element gets an index, a reduced word and its
root permutation; no action matrix is stored.  All group operations used
downstream (by the affine Weyl group and the Hecke algebra) then become
table lookups keyed by element index, which is what the kernel consumes,
and an element acts on a coweight by folding the simple reflections
v -> v - <a_i, v> a_i^vee over its word.

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

from .rootdata import RootDatum, RootDatumError

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
        if weyl_order(rd) > _MAX_GROUP:
            raise RootDatumError("finite Weyl group too large")
        self.rd = rd
        m = rd.n_simple

        # Root ids: roots[k] (coroots[k]) is the k-th positive root (coroot)
        # for k < npos and the negative of root (coroot) k - npos above.
        # s_i^T permutes them: alpha -> alpha - <alpha, a_i^vee> a_i.
        self.npos = npos = len(rd.pos_roots)
        self.roots = tuple(rd.pos_roots) + tuple(
            tuple(-x for x in a) for a in rd.pos_roots)
        self.coroots = tuple(rd.pos_coroots) + tuple(
            tuple(-x for x in av) for av in rd.pos_coroots)
        self._root_id = {a: k for k, a in enumerate(self.roots)}
        root_perm = [self._root_reflection(av, a)
                     for av, a in zip(rd.simple_coroots, rd.simple_roots)]

        # breadth-first enumeration; level order gives the length function.
        # bfs_word[w] is a reduced word of w, and images[w] lists the ids of
        # w^{-1}(alpha) = w^T(alpha) over the positive roots alpha: a
        # faithful key, since the Cartan matrix of finite type is
        # nondegenerate.
        images = [tuple(range(npos))]
        self._by_image = by_image = {images[0]: 0}
        length = [0]
        rmul = [[0] * m]
        bfs_word = [()]
        frontier = [0]
        while frontier:
            new = []
            for w in frontier:
                img = images[w]
                for i in range(m):
                    p = tuple(map(root_perm[i].__getitem__, img))
                    j = by_image.get(p)
                    if j is None:
                        j = len(images)
                        by_image[p] = j
                        images.append(p)
                        length.append(length[w] + 1)
                        rmul.append([0] * m)
                        bfs_word.append(bfs_word[w] + (i,))
                        new.append(j)
                    rmul[w][i] = j
            frontier = new

        self.size = len(images)
        self.length = tuple(length)
        self.rmul = rmul = tuple(tuple(r) for r in rmul)
        # w^{-1} is the product of the reversed word; s_i w = (w^{-1} s_i)^{-1}
        inv = []
        for bw in bfs_word:
            u = 0
            for i in reversed(bw):
                u = rmul[u][i]
            inv.append(u)
        self.inv = inv = tuple(inv)
        self.lmul = tuple(tuple(inv[rmul[inv[w]][i]] for i in range(m))
                          for w in range(self.size))
        self.gen_index = rmul[0]
        self.longest = max(range(self.size), key=lambda w: self.length[w])

        # canonical reduced word: repeatedly strip the smallest left descent
        # (indices are in level order, so s_i w was reached before w)
        word = [()]
        for w in range(1, self.size):
            for i in range(m):
                u = self.lmul[w][i]
                if self.length[u] < self.length[w]:
                    word.append((i,) + word[u])
                    break
        self.word = tuple(word)

        # root_sign[w][a]: is w^{-1}(alpha_a) positive?
        self.root_sign = tuple(tuple(1 if k < npos else -1 for k in img)
                               for img in images)
        # root_image[w][a] = images[w^{-1}][a] is the id of w(alpha_a)
        self.root_image = tuple(images[u] for u in inv)

    def _root_reflection(self, coroot, root):
        """Ids of alpha - <alpha, coroot> root over the roots alpha (the
        closure of the roots guarantees every image is a root)."""
        ids = []
        for a in self.roots:
            p = sum(x * y for x, y in zip(a, coroot))
            ids.append(self._root_id[tuple(x - p * y
                                           for x, y in zip(a, root))])
        return ids

    def apply(self, w: int, vec):
        """w(vec): the simple reflections of w's word, last letter first."""
        vec = tuple(vec)
        for i in reversed(self.word[w]):
            vec = self.rd.reflect(i, vec)
        return vec

    def mul(self, w1: int, w2: int) -> int:
        rmul = self.rmul
        for i in self.word[w2]:
            w1 = rmul[w1][i]
        return w1

    def reflection_index(self, coroot, root) -> int:
        """Index of the reflection with the given (co)root pair, keyed (as
        its own inverse) by its images of the positive roots."""
        key = self._root_reflection(coroot, root)[:self.npos]
        return self._by_image[tuple(key)]

    def element(self, w: int) -> "FiniteWeylElement":
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
        if not isinstance(other, FiniteWeylElement) or other.group is not self.group:
            return NotImplemented
        return FiniteWeylElement(self.group, self.group.mul(self.idx, other.idx))

    def inverse(self):
        return FiniteWeylElement(self.group, self.group.inv[self.idx])

    def __eq__(self, other):
        return (isinstance(other, FiniteWeylElement)
                and (other.group is self.group or other.group.rd == self.group.rd)
                and other.idx == self.idx)

    def __hash__(self):
        return hash(self.idx)

    def __repr__(self):
        return f"FiniteWeylElement({'*'.join(f's{i + 1}' for i in self.word) or 'e'})"
