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
reducible data) get labels m+1, m+2, ...

Every Bruhat ideal is one walk, `AffineWeylGroup.lower_closure`, built from
inversion sets: the elements one letter below x in a reduced word are the
s_beta x over the affine roots beta that x^{-1} makes negative, listed from
the pairings of x's translation with the positive roots.  Adm(mu) is the
ideal below the translations t_la, la in W_0 mu; a parahoric subgroup W_J
the ideal below its longest element, reached from the identity by adding
ascents in J on both sides, as is the top of any double coset W_J x W_J.
The test-side oracles are letter deletion from reduced words
(``interval_below_by_deletion``), breadth-first search over element
products (``parahoric_subgroup_by_products``) and the product set
W_J Adm(mu) W_J (``parahoric_admissible_set_by_products``), all in
``tests/oracles.py``.  Bruhat order and the R-polynomials of
:mod:`iwahecke.klpoly` peel the smallest-labelled left descent off y, read
from one cache per group, (t, w) -> (slot, s t, s w).

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

from operator import mul

from ._kernel._pykernel import Kernel
from .rootdata import (RootDatum, RootDatumError, _check_rank, _same_datum,
                       weyl_orbit)
from .weyl import FiniteWeylElement, IndexedWeyl

__all__ = [
    "AffineWeylGroup", "AffineWeylElement", "OmegaElement",
    "length", "multiply", "reduced_word", "bruhat_leq",
    "admissible_set", "kottwitz_image", "critical_indices",
]

# rd.affine_weyl() shares one context per datum value (builtin, config file
# or Levi), so tables and caches are built once.  It is only a cache: an
# element is a datum and a key, and two contexts on equal data interoperate.
_REGISTRY: dict = {}


class _Labels(dict):
    """Generator slot by label; an unknown label is a RootDatumError."""

    def __missing__(self, label):
        raise RootDatumError(f"unknown reflection label {label}")


def shared_group(rd: RootDatum) -> "AffineWeylGroup":
    grp = _REGISTRY.get(rd)
    if grp is None:
        grp = AffineWeylGroup(rd)
        _REGISTRY[rd] = grp
    return grp


class AffineWeylElement:
    """Element t_trans * w of an extended affine Weyl group."""

    __slots__ = ("group", "trans", "fin", "_len")

    def __init__(self, group: "AffineWeylGroup", trans: tuple, fin: int):
        self.group = group
        self.trans = trans
        self.fin = fin
        self._len = None

    @property
    def key(self):
        return (self.trans, self.fin)

    @property
    def finite(self) -> FiniteWeylElement:
        return FiniteWeylElement(self.group.weyl, self.fin)

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
        linear part only (used for conjugating translations)."""
        return self.group.kernel.apply(self.fin, vec)

    def is_translation(self) -> bool:
        return self.fin == 0

    def __eq__(self, other):
        return (isinstance(other, AffineWeylElement)
                and (other.group is self.group
                     or _same_datum(other.group.rd, self.group.rd))
                and other.trans == self.trans and other.fin == self.fin)

    def __hash__(self):
        return hash((self.trans, self.fin))

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

    All cached values (Bruhat answers, admissible sets, Omega elements) are
    pure functions of their keys, so concurrent readers under the GIL can at
    worst redo an idempotent insert; results never depend on cache state.
    """

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self.weyl = IndexedWeyl(rd)
        self.kernel = Kernel(self.weyl)
        # slot i is the finite reflection s_{i+1}, then one affine
        # reflection per irreducible component
        m = rd.n_simple
        labels = list(range(1, m + 1)) + [
            0 if c == 0 else m + c for c in range(len(rd.highest_roots))]
        self.gen_labels = tuple(labels)
        self.label_slot = _Labels((lab, s) for s, lab in enumerate(labels))
        self._gen_order = tuple(sorted(range(len(labels)),
                                       key=labels.__getitem__))
        zero = (0,) * rd.rank
        self._zero = zero
        self._identity = AffineWeylElement(self, zero, 0)
        self._bruhat: dict = {}
        self._steps: dict = {}
        self._adm: dict = {}
        self._omega_cache: dict = {}

    # -- constructors ---------------------------------------------------------

    @property
    def identity(self) -> AffineWeylElement:
        return self._identity

    def element(self, trans, fin: int = 0) -> AffineWeylElement:
        trans = tuple(trans)
        _check_rank(self.rd, trans)
        return AffineWeylElement(self, trans, self.weyl.element(fin).idx)

    def translation(self, la) -> AffineWeylElement:
        return self.element(la, 0)

    def simple_reflection(self, label: int) -> AffineWeylElement:
        """The affine simple reflection with the given label (0..m, ...)."""
        return AffineWeylElement(
            self, *self.kernel.reflections[self.label_slot[label]])

    def from_word(self, word, omega: "OmegaElement | None" = None):
        """Evaluate an affine word (labels) times an optional Omega part."""
        k = self.kernel
        t, w = self._zero, 0
        for lab in word:
            t, w = k.rmul_gen(t, w, self.label_slot[lab])
        x = AffineWeylElement(self, t, w)
        if omega is not None:
            x = x * omega.element
        return x

    # -- core operations --------------------------------------------------------

    def reduced_word(self, x: AffineWeylElement):
        """(word, omega) with x = (product of word) * omega, len(word) = l(x).

        The word is canonical: at each step the smallest-labelled left
        descent is stripped.
        """
        _same_datum(self.rd, x.group.rd)
        k = self.kernel
        t, w = x.trans, x.fin
        word = []
        for _ in range(x.length()):
            slot = self._first_descent(t, w)
            word.append(self.gen_labels[slot])
            t, w = k.lmul_gen(slot, t, w)
        om = OmegaElement(self, self.rd.kappa_reduce(t))
        if om.rep not in self._omega_cache:
            self._omega_cache[om.rep] = AffineWeylElement(self, t, w)
        return tuple(word), om

    def _first_descent(self, t, w) -> int:
        """Slot of the smallest-labelled left descent of a positive-length
        element (t, w)."""
        k = self.kernel
        for slot in self._gen_order:
            if k.left_descent(slot, t, w):
                return slot
        raise AssertionError(  # pragma: no cover
            "positive-length element with no descent")

    def _omega_element(self, rep: tuple) -> AffineWeylElement:
        el = self._omega_cache.get(rep)
        if el is None:
            # strip t_rep down to its length-zero tail
            _, om = self.reduced_word(self.translation(rep))
            el = self._omega_cache[rep]
            if om.rep != rep:  # pragma: no cover
                raise AssertionError("Kottwitz reduction is inconsistent")
        return el

    def omega_of(self, vec) -> OmegaElement:
        return OmegaElement(self, self.rd.kappa_reduce(tuple(vec)))

    def _descent_step(self, t, w):
        """(slot, s t, s w) for the smallest-labelled left descent s of the
        positive-length element (t, w); cached, so that the Bruhat and
        R-polynomial recursions scan each element for it once per context."""
        slot = self._first_descent(t, w)
        step = self._steps[(t, w)] = (slot, *self.kernel.lmul_gen(slot, t, w))
        return step

    def bruhat_leq(self, x: AffineWeylElement, y: AffineWeylElement) -> bool:
        """Bruhat order on W~: within a common Omega-class, the subword order
        of W_aff; False across classes."""
        _same_datum(self.rd, x.group.rd, y.group.rd)
        return self._bruhat_leq(x.trans, x.fin, x.length(),
                                y.trans, y.fin, y.length())

    def _bruhat_leq(self, tx, wx, lx, ty, wy, ly) -> bool:
        """x <= y by peeling y's cached first descent s: for sy < y,
        x <= y iff sx <= sy when sx < x, and x <= sy otherwise."""
        if tx == ty and wx == wy:
            return True
        if lx >= ly:
            return False
        key = (tx, wx, ty, wy)
        cached = self._bruhat.get(key)
        if cached is not None:
            return cached
        k = self.kernel
        slot, sty, swy = (self._steps.get((ty, wy))
                          or self._descent_step(ty, wy))
        if k.left_descent(slot, tx, wx):
            stx, swx = k.lmul_gen(slot, tx, wx)
            res = self._bruhat_leq(stx, swx, lx - 1, sty, swy, ly - 1)
        else:
            res = self._bruhat_leq(tx, wx, lx, sty, swy, ly - 1)
        self._bruhat[key] = res
        return res

    def admissible_set(self, mu) -> frozenset:
        """Adm(mu): the downward Bruhat closure of the translations t_la for
        la in the finite Weyl orbit of the dominant coweight mu, by
        `lower_closure`."""
        mu = tuple(mu)
        if not self.rd.is_dominant(mu):
            raise RootDatumError(f"{mu} is not dominant")
        cached = self._adm.get(mu)
        if cached is not None:
            return cached
        result = self.lower_closure([AffineWeylElement(self, la, 0)
                                     for la in weyl_orbit(self.rd, mu)])
        self._adm[mu] = result
        return result

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
        Each candidate costs an O(rank) translation update and a fold of a
        word of s_alpha; nothing searches for a descent or replays a prefix.
        The count of candidates is l(x), stored on every element returned.
        """
        tops = list(tops)
        _same_datum(self.rd, *[y.group.rd for y in tops])
        weyl = self.weyl
        lrow, inv, images, npos = weyl.lrow, weyl.inv, weyl.root_image, weyl.npos
        pairs = tuple(zip(range(npos), self.rd.pos_roots, self.rd.pos_coroots,
                          self._reflection_words()))
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
        elements = []
        for (t, w), n in seen.items():
            x = AffineWeylElement(self, t, w)
            x._len = n
            elements.append(x)
        return frozenset(elements)

    def _double_coset_top(self, labels, t, w):
        """The key of the longest element of W_J (t, w) W_J, for J the affine
        simple reflections in `labels`: left and right ascents in J are
        added until there is none.  The right test is the left one of the
        inverse.  A J that takes a whole component of the affine diagram
        is refused, since W_J is then infinite and the ascents never stop;
        an unknown label is refused first."""
        labels = sorted(set(labels))
        slots = [self.label_slot[lab] for lab in labels]
        # J is finite type iff it omits a node of each affine component
        m = self.rd.n_simple
        for c, comp in enumerate(self.rd.components):
            nodes = {i + 1 for i in comp} | {0 if c == 0 else m + c}
            if nodes <= set(labels):
                raise RootDatumError(
                    f"J contains the whole affine diagram component {sorted(nodes)}")
        k = self.kernel
        grown = True
        while grown:
            grown = False
            for g in slots:
                if not k.left_descent(g, t, w):
                    t, w = k.lmul_gen(g, t, w)
                    grown = True
                if not k.left_descent(g, *k.inv(t, w)):
                    t, w = k.rmul_gen(t, w, g)
                    grown = True
        return t, w

    def _reflection_words(self) -> list:
        """A word of simple reflection indices for s_alpha, per positive root
        alpha in `rd.pos_roots` order: s_alpha = s_i s_{s_i alpha} s_i for a
        simple a_i with <alpha, a_i^vee> > 0, which lowers the height."""
        rd = self.rd
        words = {a: (i,) for i, a in enumerate(rd.simple_roots)}
        for a in rd.pos_roots:  # listed by height
            if a not in words:
                for i, av in enumerate(rd.simple_coroots):
                    m = sum(map(mul, a, av))
                    if m > 0:
                        lower = tuple([x - m * y for x, y
                                       in zip(a, rd.simple_roots[i])])
                        words[a] = (i,) + words[lower] + (i,)
                        break
        return [words[a] for a in rd.pos_roots]

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


# -- operation-name wrappers ----------------------------------------------------


def length(x: AffineWeylElement) -> int:
    return x.length()


def multiply(x: AffineWeylElement, y: AffineWeylElement) -> AffineWeylElement:
    return x * y


def reduced_word(x: AffineWeylElement):
    return x.group.reduced_word(x)


def bruhat_leq(x: AffineWeylElement, y: AffineWeylElement) -> bool:
    return x.group.bruhat_leq(x, y)


def admissible_set(rd: RootDatum, mu) -> frozenset:
    return rd.affine_weyl().admissible_set(mu)


def kottwitz_image(x: AffineWeylElement) -> OmegaElement:
    return x.group.kottwitz_image(x)


def critical_indices(w: AffineWeylElement) -> frozenset:
    return w.group.critical_indices(w)
