"""
The extended affine Weyl group W~ = X_*(T) x| W_0 of a split reductive group.

Elements are written t_la * w (translation on the left).  W~ is quasi-Coxeter:
W~ = W_aff x| Omega, where W_aff is generated by the affine simple reflections
fixed by the base alcove (the dominant alcove adjacent to the origin) and
Omega is the stabilizer of that alcove, isomorphic to the cocharacter lattice
modulo the coroot lattice via the Kottwitz map.

Affine generator labels: the finite simple reflections are 1..m (matching
s_1, s_2, ... of the finite Weyl group); the extra reflection of the first
irreducible component is 0, and further components (only possible for custom
reducible data) get labels m+1, m+2, ...  A label is its kernel slot; the
kernel alone lays the slots out and owns both descent tests.

Every Bruhat ideal is one walk, `AffineWeylGroup.lower_closure`, built from
inversion sets: the elements one letter below x in a reduced word are the
s_beta x over the affine roots beta that x^{-1} makes negative, listed from
the pairings of x's translation with the positive roots.  Adm(mu) is the
ideal below the translations t_la, la in W_0 mu; a parahoric subgroup W_J
the ideal below its longest element, reached from the identity by adding
ascents in J on both sides, as is the top of any double coset W_J x W_J.
The walk reads the reflections s_alpha from the one word table
`IndexedWeyl.reflection_words`; elements act through `IndexedWeyl.fold`.
The test-side oracles are letter deletion from reduced words
(``interval_below_by_deletion``), breadth-first search over element
products (``parahoric_subgroup_by_products``) and the product set
W_J Adm(mu) W_J (``parahoric_admissible_set_by_products``), all in
``tests/oracles.py``.  Bruhat order and the R-polynomials of
:mod:`iwahecke.klpoly` peel the smallest-labelled left descent off y, read
from one cache per group, (t, w) -> (label, s t, s w).  Bruhat order needs
no memo of its own: by the lifting property each query is one loop down
y's descents.  Reduced words, Hecke words and Omega elements come from one
strip of smallest-labelled left descents, `AffineWeylGroup._strip`.  The
strip and the cache take each step from one place, `AffineWeylGroup._step`.

>>> from iwahecke.rootdata import build_root_datum
>>> W = build_root_datum("GL", 2).affine_weyl()
>>> t = W.translation((1, 0))
>>> t.length()
1
>>> word, omega = W.reduced_word(t)
>>> word
(0,)
>>> omega.grade
1
>>> len(W.admissible_set((1, 0)))
3
>>> sorted(x.length() for x in W.lower_closure([t]))
[0, 1]
"""

from __future__ import annotations

from operator import add, mul, sub

from ._kernel._pykernel import Kernel
from .intlinalg import dot
from .rootdata import (RootDatum, RootDatumError, _check_rank, _same_datum,
                       weyl_orbit)
from .weyl import IndexedWeyl

__all__ = ["AffineWeylGroup", "AffineWeylElement", "OmegaElement"]

# rd.affine_weyl() shares one context per datum value (builtin, config file
# or Levi), so tables and caches are built once.  It is only a cache: an
# element is a datum and a key, and two contexts on equal data interoperate.
_REGISTRY: dict = {}


def shared_group(rd: RootDatum) -> "AffineWeylGroup":
    grp = _REGISTRY.get(rd)
    if grp is None:
        grp = AffineWeylGroup(rd)
        _REGISTRY[rd] = grp
    return grp


class AffineWeylElement:
    """Element t_trans * w of an extended affine Weyl group."""

    __slots__ = ("group", "trans", "fin", "_len", "_hash")

    def __init__(self, group: "AffineWeylGroup", trans: tuple, fin: int):
        self.group = group
        self.trans = trans
        self.fin = fin
        self._len = None
        # every element ends up a dict key or set member, often many times
        self._hash = hash((trans, fin))

    @classmethod
    def _of_length(cls, group, trans: tuple, fin: int, length: int):
        """t_trans * w whose length is already known, carried so that
        `length()` never asks the kernel: the one writer of a carried
        length, for the walks, translations and folds that compute it."""
        x = cls(group, trans, fin)
        x._len = length
        return x

    @property
    def key(self):
        return (self.trans, self.fin)

    def length(self) -> int:
        if self._len is None:
            self._len = self.group.kernel.length(self.trans, self.fin)
        return self._len

    def __mul__(self, other):
        if not isinstance(other, AffineWeylElement):
            return NotImplemented
        g = self.group
        _same_datum(g.rd, other.group.rd)
        t, w = g.kernel.mul(self.trans, self.fin, other.trans, other.fin)
        return AffineWeylElement(g, t, w)

    def inverse(self) -> "AffineWeylElement":
        t, w = self.group.kernel.inv(self.trans, self.fin)
        return AffineWeylElement(self.group, t, w)

    def apply(self, vec) -> tuple:
        """Action on a coweight: x(v) = trans + w(v) affinely; here the
        linear part only (used for conjugating translations).  A coweight
        of the wrong rank is refused by `IndexedWeyl.apply`."""
        return self.group.kernel.apply(self.fin, vec)

    def is_translation(self) -> bool:
        return self.fin == 0

    def __eq__(self, other):
        return (isinstance(other, AffineWeylElement)
                and (other.group is self.group
                     or _same_datum(other.group.rd, self.group.rd))
                and other.trans == self.trans and other.fin == self.fin)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        w = self.group.weyl.word[self.fin]
        fin = "*".join(f"s{i + 1}" for i in w) if w else ""
        t = f"t{list(self.trans)}" if any(self.trans) else ""
        return f"<{t}{'*' if t and fin else ''}{fin or ('e' if not t else '')}>"


class OmegaElement:
    """Class of a translation coweight modulo the coroot lattice.

    These form the abelian group Omega of length-zero elements of W~; the
    group law is addition of class representatives.
    """

    __slots__ = ("group", "rep")

    def __init__(self, group: "AffineWeylGroup", rep: tuple):
        self.group = group
        self.rep = rep

    @property
    def grade(self):
        """Integer grade when Omega is 0 or Z (GL, Sp, GSp); else None."""
        return self.group.rd.omega_grade(self.rep)

    @property
    def element(self) -> AffineWeylElement:
        """The unique length-zero element of W~ in this class."""
        return self.group._omega_element(self.rep)

    def __add__(self, other):
        if not isinstance(other, OmegaElement):
            return NotImplemented
        rd = self.group.rd
        _same_datum(rd, other.group.rd)
        return OmegaElement(self.group, rd.kappa_reduce(
            tuple(a + b for a, b in zip(self.rep, other.rep))))

    def __neg__(self):
        rd = self.group.rd
        return OmegaElement(self.group, rd.kappa_reduce(
            tuple(-a for a in self.rep)))

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (isinstance(other, OmegaElement)
                and (other.group is self.group
                     or _same_datum(other.group.rd, self.group.rd))
                and other.rep == self.rep)

    def __hash__(self):
        return hash(self.rep)

    def __repr__(self):
        g = self.grade
        return f"Omega[{g if g is not None else self.rep}]"


class AffineWeylGroup:
    """Context object: tables, kernel and memo caches for one root datum.

    The memos are the descent steps `_steps` and the admissible sets
    `_adm`.  `_adm`, like the Hecke algebra's `z_mu` memo, holds one entry
    per class of mu modulo central coweights c (<c, a> = 0 for every root
    a), keyed by the pairings (<mu, a_i>)_i with the simple roots: the
    first mu met in its class, with its result (`_by_class`).  t_c is
    central in W~ and has length 0, so Adm(mu + c) = t_c Adm(mu) and
    z_{mu+c} = T_{t_c} z_mu, and every other member of the class is
    served by translating (`_translate`).  Their values are pure
    functions of their keys, so concurrent readers under the GIL can at
    worst redo an idempotent insert; results never depend on cache state.
    Bruhat answers and Omega elements are recomputed on each call.  The
    Hecke algebra and R-polynomial table are built on first use.
    """

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self.weyl = IndexedWeyl(rd)
        self.kernel = Kernel(self.weyl)
        self.gen_labels = tuple(range(len(self.kernel.reflections)))
        zero = (0,) * rd.rank
        self._zero = zero
        self._identity = AffineWeylElement(self, zero, 0)
        self._steps: dict = {}
        self._adm: dict = {}

    # -- constructors ---------------------------------------------------------

    @property
    def identity(self) -> AffineWeylElement:
        return self._identity

    def element(self, trans, fin: int = 0) -> AffineWeylElement:
        trans = tuple(trans)
        _check_rank(self.rd, trans)
        size = self.weyl.size
        if not isinstance(fin, int) or not 0 <= fin < size:
            raise ValueError(f"finite Weyl group index {fin!r} is not in "
                             f"range({size})")
        return AffineWeylElement(self, trans, fin)

    def translation(self, la) -> AffineWeylElement:
        return self.element(la, 0)

    def simple_reflection(self, label: int) -> AffineWeylElement:
        """The affine simple reflection with the given label (0..m, ...)."""
        return AffineWeylElement(self,
                                 *self.kernel.reflections[self._slot(label)])

    def from_word(self, word, omega: "OmegaElement | None" = None):
        """Evaluate an affine word (labels) times an optional Omega part."""
        k = self.kernel
        t, w = self._zero, 0
        for lab in word:
            t, w = k.rmul_gen(t, w, self._slot(lab))
        x = AffineWeylElement(self, t, w)
        if omega is not None:
            x = x * omega.element
        return x

    def _slot(self, label) -> int:
        """`label`, checked to be an exact int in `gen_labels`: a label is
        its kernel slot."""
        if type(label) is not int or not 0 <= label < len(self.gen_labels):
            raise RootDatumError(f"unknown reflection label {label!r}")
        return label

    # -- core operations --------------------------------------------------------

    def reduced_word(self, x: AffineWeylElement):
        """(word, omega) with x = (product of word) * omega, len(word) = l(x).

        The word is canonical: at each step the smallest-labelled left
        descent is stripped.
        """
        _same_datum(self.rd, x.group.rd)
        labels, t, _ = self._strip(x.trans, x.fin, x.length())
        return tuple(labels), OmegaElement(self, self.rd.kappa_reduce(t))

    def _strip(self, t, w, n):
        """(labels, t', w'): the labels of the n smallest-labelled left
        descents stripped off (t, w) in turn, first stripped first, and the
        element (t', w') left, of length l(t, w) - n."""
        labels = []
        for _ in range(n):
            label, t, w = self._step(t, w)
            labels.append(label)
        return labels, t, w

    def _step(self, t, w):
        """(label, s t, s w) for the smallest-labelled left descent s of the
        positive-length element (t, w): the one descent step, which `_strip`
        repeats and `_descent_step` caches."""
        k = self.kernel
        for label in self.gen_labels:
            if k.left_descent(label, t, w):
                return (label, *k.lmul_gen(label, t, w))
        raise AssertionError(  # pragma: no cover
            "positive-length element with no descent")

    def _omega_element(self, rep: tuple) -> AffineWeylElement:
        """The length-zero tail of t_rep, which lies in the class of rep."""
        _, t, w = self._strip(rep, 0, self.translation(rep).length())
        if self.rd.kappa_reduce(t) != rep:  # pragma: no cover
            raise AssertionError("Kottwitz reduction is inconsistent")
        return AffineWeylElement(self, t, w)

    def omega_of(self, vec) -> OmegaElement:
        return OmegaElement(self, self.rd.kappa_reduce(tuple(vec)))

    def _descent_step(self, t, w):
        """`_step`, cached, so that Bruhat order and the R-polynomial
        recursion scan each element for its descent once per context."""
        step = self._steps.get((t, w))
        if step is None:
            step = self._steps[(t, w)] = self._step(t, w)
        return step

    def bruhat_leq(self, x: AffineWeylElement, y: AffineWeylElement) -> bool:
        """Bruhat order on W~: within a common Omega-class, the subword order
        of W_aff; False across classes."""
        _same_datum(self.rd, x.group.rd, y.group.rd)
        return self._bruhat_leq(x.trans, x.fin, x.length(),
                                y.trans, y.fin, y.length())

    def _bruhat_leq(self, tx, wx, lx, ty, wy, ly) -> bool:
        """x <= y by the lifting property (Bjorner-Brenti, *Combinatorics
        of Coxeter Groups*, Prop. 2.2.7): for y's first descent s, x <= y
        iff sx <= sy when sx < x, and x <= sy otherwise.  Each step lowers
        l(y), so the loop runs at most l(y) times; once l(x) >= l(y),
        x <= y iff x == y."""
        k = self.kernel
        step = self._descent_step
        while lx < ly:
            label, ty, wy = step(ty, wy)
            if k.left_descent(label, tx, wx):
                tx, wx = k.lmul_gen(label, tx, wx)
                lx -= 1
            ly -= 1
        return tx == ty and wx == wy

    def admissible_set(self, mu) -> frozenset:
        """Adm(mu): the downward Bruhat closure of the translations t_la for
        la in the finite Weyl orbit of the dominant coweight mu, by
        `lower_closure`; t_c Adm(rep) when an earlier rep = mu - c of mu's
        class modulo central coweights holds the memo entry."""
        c, adm = self._adm_class(mu)
        return adm if c is None else frozenset(self._translate(adm, c))

    def _adm_class(self, mu):
        """`_by_class` on the Adm memo: (c, Adm(mu - c))."""
        return self._by_class(self._adm, mu, lambda rep: self.lower_closure(
            [AffineWeylElement(self, la, 0)
             for la in weyl_orbit(self.rd, rep)]))

    def _by_class(self, memo, mu, build):
        """(c, build(rep)) for the dominant coweight mu, with `memo` keyed
        by mu's pairings with the simple roots.  Their kernel is the lattice
        of central coweights, so the key names mu's class modulo central
        coweights; rep is the first mu met in that class, whose result the
        entry holds, and c = mu - rep, None when mu is rep.  The pairings
        are the dominance test, so a miss costs no more than that test; a
        wrong-rank or non-dominant mu is refused."""
        mu = tuple(mu)
        _check_rank(self.rd, mu)
        key = tuple([dot(mu, a) for a in self.rd.simple_roots])
        if min(key, default=0) < 0:
            raise RootDatumError(f"{mu} is not dominant")
        hit = memo.get(key)
        if hit is None:
            value = build(mu)
            memo[key] = (mu, value)
            return None, value
        rep, value = hit
        return (None if rep == mu else tuple(map(sub, mu, rep))), value

    def _translate(self, xs, c):
        """t_c x for each x = t_la w in xs, in order: t_{la+c} w, carrying
        l(x).  For a central coweight c, t_c is central in W~ and has length
        0 (Lusztig, "Affine Hecke algebras and their graded version", JAMS
        2, 1989, section 3), so l(t_c x) = l(x) and T_{t_c} T_x = T_{t_c x}.
        Each distinct la is moved once (z_mu for GL(5) (2,1,0,0,0) has 701
        terms over 30 translation parts)."""
        moved = {}
        make = AffineWeylElement._of_length
        for x in xs:
            t = moved.get(x.trans)
            if t is None:
                t = moved[x.trans] = tuple(map(add, x.trans, c))
            yield make(self, t, x.fin, x.length())

    def lower_closure(self, tops) -> frozenset:
        """{x : x <= y for some y in tops}, the Bruhat ideal generated by
        `tops`, each element carrying its length.  The one walk behind
        every Bruhat ideal of the package: Adm(mu), a parahoric subgroup
        W_J (the ideal below its longest element) and W_J Adm(mu) W_J (the
        ideal below the tops of the double cosets W_J t_la W_J).

        Deleting one letter of a reduced word of x = t_la w gives s_beta x,
        where beta runs over the l(x) positive affine roots with
        x^{-1} beta < 0 (the strong exchange property; Bjorner-Brenti,
        *Combinatorics of Coxeter Groups*, GTM 231, ch. 1).  They are read
        off the pairings p = <la, alpha> over the positive roots alpha, split
        as in `Kernel.length`: for p <= 0 the roots (alpha, k), k = 0..-p-1,
        and k = -p when w^{-1} alpha < 0; for p > 0 the roots (-alpha, k),
        k = 1..p-1, and k = p when w^{-1} alpha > 0.  Then
        s_beta x = t_{la - c alpha^vee} s_alpha w with c = p + k or p - k, so
        c runs over [p, 0) or [1, p), widened to take in 0 by the sign test.
        Each candidate costs an O(rank) translation update and a fold of
        s_alpha's word in `IndexedWeyl.reflection_words` through the left
        rows; nothing searches for a descent or replays a prefix.
        The count of candidates is l(x), stored on every element returned.
        """
        tops = list(tops)
        _same_datum(self.rd, *[y.group.rd for y in tops])
        weyl = self.weyl
        lrow, inv, images, npos = weyl.lrow, weyl.inv, weyl.root_image, weyl.npos
        pairs = tuple(zip(range(npos), self.rd.pos_roots, self.rd.pos_coroots,
                          weyl.reflection_words))
        # (t, w) -> l(t w), None until the element leaves the frontier
        seen = dict.fromkeys(y.key for y in tops)
        frontier = list(seen)
        while frontier:
            new = []
            for key in frontier:
                t, w = key
                img = images[inv[w]]
                n = 0
                for r, a, av, word in pairs:
                    p = sum(map(mul, t, a))
                    if p > 0:
                        cs = range(1, p) if img[r] >= npos else range(0, p)
                    elif img[r] >= npos:
                        cs = range(p, 1)
                    else:
                        cs = range(p, 0)
                    if not cs:
                        continue
                    n += len(cs)
                    sw = w
                    for i in word:
                        sw = lrow[i][sw]
                    for c in cs:
                        z = (tuple([u - c * v for u, v in zip(t, av)])
                             if c else t, sw)
                        if z not in seen:
                            seen[z] = None
                            new.append(z)
                seen[key] = n
            frontier = new
        make = AffineWeylElement._of_length
        return frozenset([make(self, t, w, n) for (t, w), n in seen.items()])

    def _double_coset_top(self, labels, t, w):
        """The key of the longest element of W_J (t, w) W_J, for J the affine
        simple reflections in `labels`: left and right ascents in J are
        added until there is none.  A J that takes a whole component of the
        affine diagram is refused, since W_J is then infinite and the ascents
        never stop; an unknown label is refused first."""
        labels = sorted({self._slot(lab) for lab in labels})
        k = self.kernel
        # J is finite type iff it omits a node of each affine component
        for nodes in k.components:
            if set(nodes).issubset(labels):
                raise RootDatumError(
                    f"J contains the whole affine diagram component {sorted(nodes)}")
        grown = True
        while grown:
            grown = False
            for g in labels:
                if not k.left_descent(g, t, w):
                    t, w = k.lmul_gen(g, t, w)
                    grown = True
                if not k.right_descent(g, t, w):
                    t, w = k.rmul_gen(t, w, g)
                    grown = True
        return t, w

    def kottwitz_image(self, x: AffineWeylElement) -> OmegaElement:
        rd = self.rd
        if x.group.rd is not rd:
            _same_datum(rd, x.group.rd)
        return OmegaElement(self, rd.kappa_reduce(x.trans))

    def critical_indices(self, w: AffineWeylElement) -> frozenset:
        """{ j in 1..n : w <= t_{e_j} } for GL(n) (Drinfeld critical indices)."""
        n = _gl_size(self.rd)
        if n is None:
            raise RootDatumError("critical indices are defined for GL(n) only")
        out = []
        for j in range(n):
            e_j = tuple(1 if i == j else 0 for i in range(n))
            if self.bruhat_leq(w, self.translation(e_j)):
                out.append(j + 1)
        return frozenset(out)

    def hecke(self):
        """The Iwahori-Hecke algebra over this group (cached)."""
        if not hasattr(self, "_hecke"):
            from .hecke import HeckeAlgebra
            self._hecke = HeckeAlgebra(self)
        return self._hecke

    def _rpolynomials(self):
        """The R-polynomial table over this group (cached)."""
        if not hasattr(self, "_rpoly"):
            from .klpoly import RPolynomials
            self._rpoly = RPolynomials(self)
        return self._rpoly

    # -- display ----------------------------------------------------------------

    def sort_key(self, x: AffineWeylElement):
        """Deterministic ordering: (length, translation, finite word)."""
        if x.group.rd is not self.rd:
            _same_datum(self.rd, x.group.rd)
        return (x.length(), x.trans, self.weyl.word[x.fin])

    def __repr__(self):
        return f"AffineWeylGroup({self.rd.family})"


def _gl_size(rd: RootDatum):
    """n when rd is structurally the standard GL(n) datum, else None."""
    n = rd.rank
    if rd.n_simple != n - 1:
        return None
    expected = tuple(
        tuple((1 if j == i else 0) - (1 if j == i + 1 else 0) for j in range(n))
        for i in range(n - 1))
    if rd.simple_roots == expected and rd.simple_coroots == expected:
        return n
    return None


# perfbench/session_mixed.py calls this module function by name
def bruhat_leq(x: AffineWeylElement, y: AffineWeylElement) -> bool:
    return x.group.bruhat_leq(x, y)
