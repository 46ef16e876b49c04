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
"""

from __future__ import annotations

from ._kernel._pykernel import Kernel
from .rootdata import RootDatum, RootDatumError, weyl_orbit
from .weyl import FiniteWeylElement, IndexedWeyl

__all__ = [
    "AffineWeylGroup", "AffineWeylElement", "OmegaElement",
    "length", "multiply", "reduced_word", "bruhat_leq",
    "admissible_set", "kottwitz_image", "critical_indices",
]

# One group per root datum value: equal-valued data loaded through different
# paths (builtin vs config file vs Levi) share all tables and caches, and
# element equality is value-based.
_REGISTRY: dict = {}


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
        if other.group is not g:
            raise ValueError("elements of different affine Weyl groups")
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
                and (other.group is self.group or other.group.rd == self.group.rd)
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
        if not isinstance(other, OmegaElement) or other.group is not self.group:
            return NotImplemented
        rd = self.group.rd
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
                and (other.group is self.group or other.group.rd == self.group.rd)
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
        w = self.weyl
        rank, m = rd.rank, rd.n_simple
        zero = (0,) * rank

        # Generator slots: the finite simple reflections, then one affine
        # reflection per irreducible component.  For each: the affine root
        # (vec, k) paired in descent tests with its coroot cvec (signed like
        # vec), the root id and flip of the tie-break sign test, the
        # reflection (trans, fin) as a group element, and per finite element
        # u the tables lrow[u] = s u, rrow[u] = u s, wvec[u] = u(vec) and
        # wtrans[u] = u(trans) (None for finite reflections, trans = 0).
        root_index = {a: i for i, a in enumerate(rd.pos_roots)}
        roots, coroots, images = w.roots, w.coroots, w.root_image
        npos = w.npos
        gens = []
        labels = []
        for i in range(m):
            r = root_index[rd.simple_roots[i]]
            gens.append((
                rd.simple_roots[i], 0, rd.simple_coroots[i], r, False,
                zero, w.gen_index[i],
                tuple(w.lmul[u][i] for u in range(w.size)),
                tuple(w.rmul[u][i] for u in range(w.size)),
                tuple(roots[img[r]] for img in images),
                None,
            ))
            labels.append(i + 1)
        for c, hr in enumerate(rd.highest_roots):
            theta, theta_vee = hr
            r = root_index[theta]
            fin = w.reflection_index(theta_vee, theta)
            gens.append((
                tuple(-x for x in theta), 1, tuple(-x for x in theta_vee), r,
                True, theta_vee, fin,
                tuple(w.mul(fin, u) for u in range(w.size)),
                tuple(w.mul(u, fin) for u in range(w.size)),
                tuple(roots[(img[r] + npos) % (2 * npos)] for img in images),
                tuple(coroots[img[r]] for img in images),
            ))
            labels.append(0 if c == 0 else m + c)

        self.kernel = Kernel({
            "inv": w.inv,
            "word": w.word,
            "roots": rd.pos_roots,
            "root_sign": w.root_sign,
            "gens": tuple(gens),
        })
        self.gen_labels = tuple(labels)
        self.label_slot = {lab: slot for slot, lab in enumerate(labels)}
        self._gen_order = tuple(sorted(range(len(gens)),
                                       key=lambda s: labels[s]))
        self._zero = zero
        self._identity = AffineWeylElement(self, zero, 0)
        self._bruhat: dict = {}
        self._adm: dict = {}
        self._omega_cache: dict = {}

    # -- constructors ---------------------------------------------------------

    @property
    def identity(self) -> AffineWeylElement:
        return self._identity

    def element(self, trans, fin: int = 0) -> AffineWeylElement:
        trans = tuple(trans)
        if len(trans) != self.rd.rank:
            raise ValueError("translation length differs from rank")
        return AffineWeylElement(self, trans, fin)

    def translation(self, la) -> AffineWeylElement:
        return self.element(la, 0)

    def simple_reflection(self, label: int) -> AffineWeylElement:
        """The affine simple reflection with the given label (0..m, ...)."""
        slot = self.label_slot[label]
        g = self.kernel.gens[slot]
        return AffineWeylElement(self, g[5], g[6])

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
        k = self.kernel
        t, w = x.trans, x.fin
        word = []
        for _ in range(x.length()):
            slot = self._first_descent(t, w)
            word.append(self.gen_labels[slot])
            t, w = k.lmul_gen(slot, t, w)
        om = OmegaElement(self, self.rd.kappa_reduce(t))
        self._omega_cache.setdefault(om.rep, AffineWeylElement(self, t, w))
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

    def bruhat_leq(self, x: AffineWeylElement, y: AffineWeylElement) -> bool:
        """Bruhat order on W~: within a common Omega-class, the subword order
        of W_aff; False across classes."""
        return self._bruhat_leq(x.trans, x.fin, x.length(),
                                y.trans, y.fin, y.length())

    def _bruhat_leq(self, tx, wx, lx, ty, wy, ly) -> bool:
        if tx == ty and wx == wy:
            return True
        if lx >= ly:
            return False
        key = (tx, wx, ty, wy)
        cached = self._bruhat.get(key)
        if cached is not None:
            return cached
        k = self.kernel
        slot = self._first_descent(ty, wy)
        sty, swy = k.lmul_gen(slot, ty, wy)
        if k.left_descent(slot, tx, wx):
            stx, swx = k.lmul_gen(slot, tx, wx)
            res = self._bruhat_leq(stx, swx, lx - 1, sty, swy, ly - 1)
        else:
            res = self._bruhat_leq(tx, wx, lx, sty, swy, ly - 1)
        self._bruhat[key] = res
        return res

    def admissible_set(self, mu) -> frozenset:
        """Adm(mu): the downward Bruhat closure of the translations t_la for
        la in the finite Weyl orbit of the dominant coweight mu.  Deleting
        letter i of x = s_1...s_k omega leaves s_1...s_{i-1} applied to
        the tail s_i...s_1 x that stripping left descents has reached."""
        mu = tuple(mu)
        if not self.rd.is_dominant(mu):
            raise RootDatumError(f"{mu} is not dominant")
        cached = self._adm.get(mu)
        if cached is not None:
            return cached
        k = self.kernel
        maximals = [self.translation(la) for la in weyl_orbit(self.rd, mu)]
        seen = set(maximals)
        frontier = list(maximals)
        while frontier:
            new = []
            for x in frontier:
                t, w = x.trans, x.fin
                prefix = []
                for _ in range(x.length()):
                    slot = self._first_descent(t, w)
                    t, w = k.lmul_gen(slot, t, w)
                    zt, zw = t, w
                    for s in reversed(prefix):
                        zt, zw = k.lmul_gen(s, zt, zw)
                    prefix.append(slot)
                    z = AffineWeylElement(self, zt, zw)
                    if z not in seen:
                        seen.add(z)
                        new.append(z)
            frontier = new
        result = frozenset(seen)
        self._adm[mu] = result
        return result

    def kottwitz_image(self, x: AffineWeylElement) -> OmegaElement:
        return OmegaElement(self, self.rd.kappa_reduce(x.trans))

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
    if x.group is not y.group:
        raise ValueError("elements of different affine Weyl groups")
    return x.group.bruhat_leq(x, y)


def admissible_set(rd: RootDatum, mu) -> frozenset:
    return rd.affine_weyl().admissible_set(mu)


def kottwitz_image(x: AffineWeylElement) -> OmegaElement:
    return x.group.kottwitz_image(x)


def critical_indices(w: AffineWeylElement) -> frozenset:
    return w.group.critical_indices(w)
