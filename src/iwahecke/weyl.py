"""
Indexed finite Weyl groups.

The finite Weyl group of a root datum is enumerated once, breadth-first from
the identity, each element told apart by how it permutes the roots (W_0 acts
faithfully on them).  Every element gets an index, a reduced word, its root
permutation and its action matrix on the cocharacter lattice.  All group
operations used downstream (by the affine Weyl group and the Hecke algebra)
then become table lookups keyed by element index, which is what the kernel
consumes.

>>> from iwahecke.rootdata import build_root_datum
>>> w = IndexedWeyl(build_root_datum("GL", 3))
>>> w.size
6
>>> w.length[w.longest]
3
>>> w.word[w.longest]   # canonical reduced word, 0-based indices
(0, 1, 0)
"""

from __future__ import annotations

from .rootdata import RootDatum, RootDatumError

__all__ = ["IndexedWeyl", "FiniteWeylElement"]

_MAX_GROUP = 500_000


def _mat_apply(m, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def _reflect_right(m, coroot, root):
    """M s for the reflection s = 1 - coroot (x) root: the rank-1 update
    M - (M coroot) root."""
    mc = _mat_apply(m, coroot)
    return tuple(tuple(x - c * a for x, a in zip(row, root))
                 for row, c in zip(m, mc))


class IndexedWeyl:
    """Fully enumerated finite Weyl group with lookup tables."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        rank, m = rd.rank, rd.n_simple
        coroots, roots = rd.simple_coroots, rd.simple_roots
        ident = tuple(tuple(1 if i == j else 0 for j in range(rank))
                      for i in range(rank))
        self.gen_mats = tuple(_reflect_right(ident, coroots[i], roots[i])
                              for i in range(m))

        # s_i^T permutes the roots: alpha -> alpha - <alpha, a_i^vee> a_i.
        # Positive roots get ids 0..npos-1, their negatives npos..2npos-1.
        npos = len(rd.pos_roots)
        all_roots = tuple(rd.pos_roots) + tuple(
            tuple(-x for x in a) for a in rd.pos_roots)
        all_coroots = tuple(rd.pos_coroots) + tuple(
            tuple(-x for x in av) for av in rd.pos_coroots)
        root_id = {a: k for k, a in enumerate(all_roots)}
        root_perm = []
        for i in range(m):
            av, ai = coroots[i], roots[i]
            row = []
            for a in all_roots:
                p = sum(x * y for x, y in zip(a, av))
                b = tuple(x - p * y for x, y in zip(a, ai))
                if b not in root_id:  # pragma: no cover - closure guarantees this
                    raise RootDatumError(f"image {b} of a root is not a root")
                row.append(root_id[b])
            root_perm.append(row)

        # breadth-first enumeration; level order gives the length function.
        # bfs_word[w] is a reduced word of w, and images[w] lists the ids of
        # w^{-1}(alpha) = w^T(alpha) over the positive roots alpha: a
        # faithful key, since the Cartan matrix of finite type is
        # nondegenerate.  The action matrix of w s_i is built once, when it
        # is first reached.
        images = [tuple(range(npos))]
        by_image = {images[0]: 0}
        mats = [ident]
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
                        j = len(mats)
                        if j >= _MAX_GROUP:
                            raise RootDatumError("finite Weyl group too large")
                        by_image[p] = j
                        images.append(p)
                        mats.append(_reflect_right(mats[w], coroots[i], roots[i]))
                        length.append(length[w] + 1)
                        rmul.append([0] * m)
                        bfs_word.append(bfs_word[w] + (i,))
                        new.append(j)
                    rmul[w][i] = j
            frontier = new

        self.size = len(mats)
        self.mats = tuple(mats)
        self.index = {mat: j for j, mat in enumerate(mats)}
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
        word = [None] * self.size
        word[0] = ()
        for w in sorted(range(self.size), key=lambda w: self.length[w]):
            if w == 0:
                continue
            for i in range(m):
                u = self.lmul[w][i]
                if self.length[u] < self.length[w]:
                    word[w] = (i,) + word[u]
                    break
        self.word = tuple(word)

        # root_sign[w][a]: is w^{-1}(alpha_a) positive?
        self.root_sign = tuple(tuple(1 if k < npos else -1 for k in img)
                               for img in images)
        # Root ids: roots[k] (coroots[k]) is the k-th positive root (coroot)
        # for k < npos and the negative of root (coroot) k - npos above;
        # root_image[w][a] = images[w^{-1}][a] is the id of w(alpha_a).
        self.npos = npos
        self.roots = all_roots
        self.coroots = all_coroots
        self.root_image = tuple(images[u] for u in inv)

    def apply(self, w: int, vec):
        return _mat_apply(self.mats[w], vec)

    def mul(self, w1: int, w2: int) -> int:
        rmul = self.rmul
        for i in self.word[w2]:
            w1 = rmul[w1][i]
        return w1

    def reflection_index(self, coroot, root) -> int:
        """Index of the reflection with the given (co)root pair."""
        rank = self.rd.rank
        mat = tuple(tuple((1 if r == c else 0) - coroot[r] * root[c]
                          for c in range(rank)) for r in range(rank))
        return self.index[mat]

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

    @property
    def matrix(self):
        return self.group.mats[self.idx]

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
