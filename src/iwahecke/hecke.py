"""
The Iwahori-Hecke algebra of an extended affine Weyl group, over Z[v, 1/v]
with q = v^2.

T-basis: {T_x} for x in W~, with the Iwahori-Matsumoto relations

    T_s T_x = T_{sx}                     if l(sx) > l(x),
    T_s T_x = (q-1) T_x + q T_{sx}       if l(sx) < l(x),
    T_w T_x = T_{wx}                     if l(wx) = l(w) + l(x),

for affine simple reflections s and length-zero elements of Omega.  The
Bernstein elements theta_la (la any coweight) are normalized by
theta_la = v^{-l(t_la)} T_{t_la} for dominant la, and the Bernstein function
of a dominant mu is z_mu = sum of theta_la over the finite Weyl orbit of mu;
z_mu is central.

Both are computed as right folds.  For any dominant lam2 with la + lam2
dominant, theta_la = v^{-<la, 2 rho>} T_{t_{la+lam2}} T_{t_lam2}^{-1}, and
T_{t_lam2}^{-1} is applied along a reduced word of t_lam2.  z_mu takes one
lam2 for its whole orbit, so the orbit sum of the T_{t_{la+lam2}} is folded
once.

Every product with generators, T_x h and h T_x^{-1} included, is one fold
over a whole word.  The fold packs each Laurent coefficient into one int
(Kronecker substitution, v -> 2^b), runs every letter on raw (trans, fin,
length) keys, where q^{+-1} is a shift and accumulating is int addition,
and unpacks once at the end.  T_s only raises v-exponents and T_s^{-1}
only lowers them, so the digits need no offset, and a letter at most
triples the sum of |coefficients|, so b = bitlength(that sum * 3^letters)
+ 1 bits per signed digit never overflow.

>>> from iwahecke.rootdata import build_root_datum
>>> H = build_root_datum("GL", 2).affine_weyl().hecke()
>>> s = H.W.simple_reflection(1)
>>> H.t_inverse(s)
HeckeElement((-1 + v^-2)*T<e> + (v^-2)*T<s1>)
>>> H.t(s) * H.t_inverse(s) == H.unit()
True
>>> H.theta((0, 1))
HeckeElement((-v + v^-1)*T<t[1, 0]*s1> + (v^-1)*T<t[0, 1]>)
>>> H.theta((1, 0)) * H.theta((0, 1)) == H.theta((1, 1))
True
"""

from __future__ import annotations

from math import gcd
from operator import add, mul

from .affine import AffineWeylElement, AffineWeylGroup
from .intlinalg import dot, solve_underdetermined
from .laurent import ONE, LaurentPoly, accumulate
from .rootdata import RootDatumError, weyl_orbit

__all__ = [
    "HeckeAlgebra", "HeckeElement",
    "t_multiply", "t_inverse", "theta", "bernstein_function",
    "is_central", "parahoric_descent",
]


class HeckeElement:
    """Finitely supported map W~ -> Z[v, 1/v] in the T-basis."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "HeckeAlgebra", terms: dict):
        self.algebra = algebra
        self.terms = {x: c for x, c in terms.items() if c}

    def coeff(self, x: AffineWeylElement) -> LaurentPoly:
        return self.terms.get(x, LaurentPoly())

    def support(self) -> frozenset:
        return frozenset(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, HeckeElement)
                and (other.algebra is self.algebra
                     or other.algebra.W.rd == self.algebra.W.rd)
                and other.terms == self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        out = dict(self.terms)
        for x, c in self._rebind(other).terms.items():
            accumulate(out, x, c)
        return HeckeElement(self.algebra, out)

    def _rebind(self, other: "HeckeElement") -> "HeckeElement":
        """other, its terms rebound into this element's group when it comes
        from another context on an equal root datum."""
        if other.algebra is self.algebra:
            return other
        W = self.algebra.W
        if other.algebra.W.rd != W.rd:
            raise ValueError("elements of different Hecke algebras")
        terms = {}
        for x, c in other.terms.items():
            y = AffineWeylElement(W, x.trans, x.fin)
            y._len = x._len
            terms[y] = c
        return HeckeElement(self.algebra, terms)

    def __neg__(self):
        return HeckeElement(self.algebra,
                            {x: -c for x, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return self.algebra.multiply(self, self._rebind(other))
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "HeckeElement":
        if isinstance(c, int):
            c = LaurentPoly.const(c)
        return HeckeElement(self.algebra,
                            {x: c * p for x, p in self.terms.items()})

    def items_sorted(self):
        W = self.algebra.W
        return sorted(self.terms.items(), key=lambda kv: W.sort_key(kv[0]))

    def __repr__(self):
        if not self.terms:
            return "HeckeElement(0)"
        bits = [f"({c})*T{x!r}" for x, c in self.items_sorted()]
        return "HeckeElement(" + " + ".join(bits) + ")"


class HeckeAlgebra:
    """T-basis arithmetic bound to one affine Weyl group context."""

    def __init__(self, W: AffineWeylGroup):
        self.W = W
        self._theta: dict = {}
        self._z: dict = {}
        self._tinv: dict = {}

    # -- construction -------------------------------------------------------

    def zero(self) -> HeckeElement:
        return HeckeElement(self, {})

    def unit(self) -> HeckeElement:
        return HeckeElement(self, {self.W.identity: ONE})

    def t(self, x: AffineWeylElement, coeff=ONE) -> HeckeElement:
        if isinstance(coeff, int):
            coeff = LaurentPoly.const(coeff)
        return HeckeElement(self, {x: coeff})

    def from_terms(self, terms: dict) -> HeckeElement:
        return HeckeElement(self, dict(terms))

    # -- generator folds ------------------------------------------------------

    def lmul_gen(self, label: int, h: HeckeElement) -> HeckeElement:
        """T_s * h for the affine simple reflection with this label."""
        return self._fold(h, (self.W.label_slot[label],), True, False)

    def rmul_gen(self, h: HeckeElement, label: int) -> HeckeElement:
        """h * T_s."""
        return self._fold(h, (self.W.label_slot[label],), False, False)

    def _fold(self, h, slots, left, inverse):
        """T_{s_k} ... T_{s_1} h (left) or h T_{s_1} ... T_{s_k} (right) for
        the reflections in kernel slots s_1, ..., s_k, or the same with every
        T_s replaced by T_s^{-1}.  With sy = s y or y s: T_s maps an ascent
        T_y to T_{sy} and a descent to q T_{sy} + (q-1) T_y; T_s^{-1} maps a
        descent to T_{sy} and an ascent to q^{-1} T_{sy} + (q^{-1}-1) T_y.

        The word runs on raw keys (trans, fin, length), each coefficient
        Kronecker-packed into one int, converted in once and out once.  T_s
        only raises v-exponents and T_s^{-1} only lowers them, so digit i of
        the packed int, in base 2^b with signed digits, is the coefficient
        of v^(base + stride * i): base is the least exponent of h and the
        stride 1, or 2 when all exponents of h have one parity (base the
        greatest and the stride negative, for T_s^{-1}).  Then q^{+-1} is a
        shift by 2 / |stride| digits, the q^{+-1} - 1 term is that shift
        minus the value, and accumulating is int addition.
        """
        W = self.W
        k = W.kernel
        images, inv_table, npos = k.root_image, k.inv_table, k.npos
        exps = [e for c in h.terms.values() for e in c.c]
        base = (max if inverse else min)(exps, default=0)
        # A letter maps a term c T_y to c T_sy, or to (q^{+-1} - 1) c T_y +
        # q^{+-1} c T_sy, so it at most triples the sum of |coefficients|
        # over the whole element.  That sum, and so every digit, stays below
        # l1 * 3^len(slots) < 2^(b-1): no digit overflows into the next.
        l1 = sum([abs(n) for c in h.terms.values() for n in c.c.values()])
        b = (l1 * 3 ** len(slots)).bit_length() + 1
        stride = 2 if len({e & 1 for e in exps}) < 2 else 1
        if inverse:
            stride = -stride
        cur: dict = {}
        for y, c in h.terms.items():
            p = 0
            for e, n in c.c.items():
                p += n << b * ((e - base) // stride)
            cur[(y.trans, y.fin, y.length())] = p
        shift = 2 * b // abs(stride)
        for slot in slots:
            out: dict = {}
            get = out.get
            if left:
                vec, k0, cvec, lrow = k._left[slot]
                r, flip = k._ldesc[slot][2:]
            else:
                wtrans, rrow = k._right[slot]
                wvecs, k0, r, flip = k._rdesc[slot]
            for key, p in cur.items():
                if not p:
                    continue
                t, w, ln = key
                if left:
                    m = k0 + sum(map(mul, t, vec))
                    if m:
                        down = m < 0
                        t = tuple([x - m * c for x, c in zip(t, cvec)])
                    else:
                        down = (images[inv_table[w]][r] >= npos) != flip
                    w = lrow[w]
                else:
                    m = k0 - sum(map(mul, t, wvecs[w]))
                    down = m < 0 if m else (images[w][r] >= npos) != flip
                    if wtrans is not None:
                        t = tuple(map(add, t, wtrans[w]))
                    w = rrow[w]
                sx = (t, w, ln - 1 if down else ln + 1)
                if down == inverse:
                    out[sx] = get(sx, 0) + p
                else:
                    far = p << shift
                    out[key] = get(key, 0) + far - p
                    out[sx] = get(sx, 0) + far
            cur = out
        # unpack the balanced digits, least significant first
        full = 1 << b
        half, mask = full >> 1, full - 1
        terms = {}
        for (t, w, ln), p in cur.items():
            if not p:
                continue
            c, e = {}, base
            while p:
                d = p & mask
                if d >= half:
                    d -= full
                if d:
                    c[e] = d
                p = (p - d) >> b
                e += stride
            x = AffineWeylElement(W, t, w)
            x._len = ln
            terms[x] = LaurentPoly(c)
        return HeckeElement(self, terms)

    def lmul_omega(self, om: AffineWeylElement, h: HeckeElement):
        """T_om * h for om of length zero."""
        return self._omega_fold(h, om, left=True)

    def rmul_omega(self, h: HeckeElement, om: AffineWeylElement):
        """h * T_om for om of length zero."""
        return self._omega_fold(h, om, left=False)

    def _omega_fold(self, h, om, left):
        if om.length():
            raise ValueError(f"{om!r} does not have length zero")
        out = {}
        for y, c in h.terms.items():
            z = om * y if left else y * om
            z._len = y.length()  # l(om y) = l(y om) = l(y)
            out[z] = c
        return HeckeElement(self, out)

    # -- products ------------------------------------------------------------

    def t_times(self, x: AffineWeylElement, h: HeckeElement) -> HeckeElement:
        """T_x * h: T_omega h folded by the reduced word of x in one pass."""
        W = self.W
        word, om = W.reduced_word(x)
        return self._fold(self.lmul_omega(om.element, h),
                          [W.label_slot[lab] for lab in reversed(word)],
                          True, False)

    def multiply(self, a: HeckeElement, b: HeckeElement) -> HeckeElement:
        out: dict = {}
        for x, c in a.terms.items():
            for y, p in self.t_times(x, b).terms.items():
                accumulate(out, y, c * p)
        return HeckeElement(self, out)

    def t_inverse(self, x: AffineWeylElement) -> HeckeElement:
        """The inverse of the basis element T_x."""
        cached = self._tinv.get(x.key)
        if cached is None:
            cached = self._tinv[x.key] = self._rmul_t_inverse(self.unit(), x)
        return cached

    def _rmul_t_inverse(self, h: HeckeElement, x: AffineWeylElement):
        """h * T_x^{-1}: with x = s_1...s_k * omega reduced, T_x^{-1} =
        T_{omega^{-1}} T_{s_k}^{-1} ... T_{s_1}^{-1}, folded in one pass."""
        W = self.W
        word, om = W.reduced_word(x)
        return self._fold(self.rmul_omega(h, om.element.inverse()),
                          [W.label_slot[lab] for lab in reversed(word)],
                          False, True)

    # -- Bernstein elements ----------------------------------------------------

    def theta(self, lam) -> HeckeElement:
        """theta_lam, for an arbitrary coweight lam.

        Dominant lam: v^{-l(t_lam)} T_{t_lam}.  In general theta_lam =
        theta_{lam1} * theta_{lam2}^{-1} for any decomposition lam = lam1 -
        lam2 into dominant coweights; the result is independent of the
        decomposition.  T_{t_lam1} is right-folded by T_s^{-1} along t_lam2.
        """
        lam = tuple(lam)
        cached = self._theta.get(lam)
        if cached is None:
            cached = self._theta_for(lam, None)
            self._theta[lam] = cached
        return cached

    def _theta_for(self, lam, lam2) -> HeckeElement:
        rd = self.W.rd
        vpow = LaurentPoly.v(-dot(lam, rd.two_rho))
        if lam2 is None:
            if rd.is_dominant(lam):
                return self.t(self.W.translation(lam), vpow)
            lam2 = _dominant_cover(
                rd, [max(0, -dot(lam, a)) for a in rd.simple_roots])
        lam1 = tuple(a + b for a, b in zip(lam, lam2))
        if not (rd.is_dominant(lam1) and rd.is_dominant(lam2)):
            raise RootDatumError("decomposition is not dominant")
        return self._rmul_t_inverse(self.t(self.W.translation(lam1), vpow),
                                    self.W.translation(lam2))

    def bernstein_function(self, mu) -> HeckeElement:
        """z_mu = sum of theta_la over the finite Weyl orbit of dominant mu.

        One lam2 serves the whole orbit: <lam2, a_i> >= -<la, a_i> for every
        la in it, so z_mu = (sum_la v^{-<la, 2 rho>} T_{t_{la+lam2}})
        T_{t_lam2}^{-1}, one right fold.  When the whole orbit is dominant
        (a central mu, or a torus) lam2 = 0 and nothing is folded.
        """
        mu = tuple(mu)
        rd = self.W.rd
        if not rd.is_dominant(mu):
            raise RootDatumError(f"{mu} is not dominant")
        cached = self._z.get(mu)
        if cached is None:
            orbit = sorted(weyl_orbit(rd, mu))
            need = [max(0, -min(dot(la, a) for la in orbit))
                    for a in rd.simple_roots]
            fold = any(need)
            lam2 = _dominant_cover(rd, need) if fold else (0,) * rd.rank
            cached = HeckeElement(self, {
                self.W.translation(tuple(a + b for a, b in zip(la, lam2))):
                LaurentPoly.v(-dot(la, rd.two_rho)) for la in orbit})
            if fold:
                cached = self._rmul_t_inverse(cached, self.W.translation(lam2))
            self._z[mu] = cached
        return cached

    # -- centrality and descent ---------------------------------------------

    def omega_generators(self):
        """Length-zero elements generating Omega (images of the basis e_k)."""
        W = self.W
        seen, out = set(), []
        for k in range(W.rd.rank):
            e_k = tuple(1 if i == k else 0 for i in range(W.rd.rank))
            om = W.omega_of(e_k)
            if om.rep not in seen:
                seen.add(om.rep)
                out.append(om.element)
        return out

    def is_central(self, h: HeckeElement) -> bool:
        for label in self.W.gen_labels:
            if self.lmul_gen(label, h) != self.rmul_gen(h, label):
                return False
        for om in self.omega_generators():
            if self.lmul_omega(om, h) != self.rmul_omega(h, om):
                return False
        return True

    def parahoric_subgroup(self, labels) -> list:
        """Elements of the finite subgroup W_J generated by the affine simple
        reflections in `labels`; raises unless J is of finite type."""
        labels = sorted(set(labels))
        W = self.W
        gens = [W.simple_reflection(lab) for lab in labels]
        # J is finite type iff it omits a node of each affine component
        m = W.rd.n_simple
        for c, comp in enumerate(W.rd.components):
            nodes = {i + 1 for i in comp} | {0 if c == 0 else m + c}
            if nodes <= set(labels):
                raise RootDatumError(
                    f"J contains the whole affine diagram component {sorted(nodes)}")
        seen = {W.identity}
        frontier = [W.identity]
        while frontier:
            new = []
            for x in frontier:
                for s in gens:
                    y = x * s
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
            frontier = new
        return sorted(seen, key=W.sort_key)

    def parahoric_descent(self, h: HeckeElement, labels):
        """(h * sum_{w in W_J} T_w, P_J) with P_J the Poincare polynomial.

        The normalized change-of-level map to the parahoric attached to J is
        the first component divided by P_J; the factor is returned separately
        to keep all arithmetic in Z[v, 1/v].
        """
        wj = self.parahoric_subgroup(labels)
        sum_t = HeckeElement(self, {x: ONE for x in wj})
        poincare = LaurentPoly()
        for x in wj:
            poincare = poincare + LaurentPoly({2 * x.length(): 1})
        return self.multiply(h, sum_t), poincare


# -- decomposition helper -------------------------------------------------------


def _dominant_cover(rd, need) -> tuple:
    """A lattice vector lam2 with <lam2, a_i> >= need[i] >= 0 for every simple
    root a_i (so dominant), preferring small <lam2, 2 rho>."""
    # exact fundamental-coweight combination when it is integral
    sol = solve_underdetermined([list(a) for a in rd.simple_roots], need)
    if sol is not None and all(x.denominator == 1 for x in sol):
        return tuple(int(x) for x in sol)
    # small-rank exhaustive search
    if rd.rank <= 4:
        radius = max(need) + 1
        best, best_h = None, None
        from itertools import product
        for cand in product(range(-radius, radius + 1), repeat=rd.rank):
            if all(dot(cand, a) >= c for a, c in zip(rd.simple_roots, need)):
                hgt = dot(cand, rd.two_rho)
                if best is None or hgt < best_h:
                    best, best_h = cand, hgt
        if best is not None:
            return tuple(best)
    # always-valid fallback: clear denominators of the rational solution
    if sol is not None:
        d = 1
        for x in sol:
            d = d * x.denominator // gcd(d, x.denominator)
        return tuple(int(x * d) for x in sol)
    raise RootDatumError("no dominant decomposition found")  # pragma: no cover


# -- operation-name wrappers ----------------------------------------------------


def t_multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    return a * b


def t_inverse(x: AffineWeylElement) -> HeckeElement:
    return x.group.hecke().t_inverse(x)


def theta(W, lam) -> HeckeElement:
    return _algebra(W).theta(lam)


def bernstein_function(W, mu) -> HeckeElement:
    return _algebra(W).bernstein_function(mu)


def is_central(h: HeckeElement) -> bool:
    return h.algebra.is_central(h)


def parahoric_descent(h: HeckeElement, labels):
    return h.algebra.parahoric_descent(h, labels)


def _algebra(W) -> HeckeAlgebra:
    if isinstance(W, HeckeAlgebra):
        return W
    return W.hecke()
