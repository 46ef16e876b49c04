"""
The Iwahori-Hecke algebra of an extended affine Weyl group, over Z[v, 1/v]
with q = v^2; an element is a CoefficientMap (laurent.py) keyed by W~.

T-basis: {T_x} for x in W~, with the Iwahori-Matsumoto relations

    T_s T_x = T_{sx}                     if l(sx) > l(x),
    T_s T_x = (q-1) T_x + q T_{sx}       if l(sx) < l(x),
    T_w T_x = T_{wx}                     if l(wx) = l(w) + l(x),

for affine simple reflections s and length-zero elements of Omega.  The
Bernstein elements theta_la (la any coweight) are normalized by
theta_la = v^{-l(t_la)} T_{t_la} for dominant la, and the Bernstein function
of a dominant mu is z_mu = sum of theta_la over the finite Weyl orbit of mu;
z_mu is central.

Both come from one orbit sum.  For lams = [lam], or the finite Weyl orbit
of mu, one dominant lam2 has la + lam2 dominant for every la in lams, and
sum_la theta_la = (sum_la v^{-<la, 2 rho>} T_{t_{la+lam2}}) T_{t_lam2}^{-1},
with T_{t_lam2}^{-1} applied along a reduced word of t_lam2: one right fold.

Every product in the T-basis is one fold.  The fold takes h and a list of
multipliers (word, Omega part, c) on one side, and returns the sum of
c T_word T_om h (or c h T_om T_word).  It packs each Laurent coefficient
of h into one int (Kronecker substitution, v -> 2^b), maps the packing
through each Omega part once, runs every letter on raw (trans, fin,
length) keys, where q^{+-1} is a shift and accumulating is int addition,
multiplies by c as packed ints after the word, and unpacks once at the
end.  Packing and unpacking run once per distinct coefficient: terms with
one coefficient object share its packed int, and terms with one packed int
share one decoded LaurentPoly (z_mu for GL(5) (2,1,0,0,0) has 701 terms
and 21 distinct coefficients).  T_s only raises v-exponents and T_s^{-1}
only lowers them, so the digits need no offset, and a letter at most
triples the sum of |coefficients|, so b = bitlength(l1(h) l1(c's)
3^(longest word)) + 1 bits per signed digit never overflow.  An Omega part T_om is a map of raw
keys, (t, w) -> om (t, w) or (t, w) om with the length kept.  multiply
(a, b) folds b by one multiplier per term of a, T_x h and h T_x^{-1} by
one whole word.

is_central tests T_s h = h T_s for the affine simple reflections alone,
which decides centrality (see its docstring).  It packs h once and, per
generator, folds T_s h - h T_s into one int dict with the fold's letter
step (digits below 6 * sum of |coefficients|).

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

from collections import Counter
from heapq import heappop, heappush
from operator import add, mul

from .affine import AffineWeylElement, AffineWeylGroup
from .intlinalg import dot, hermite_basis, reduce_mod_lattice
from .laurent import ONE, CoefficientMap, LaurentPoly, per_coefficient
from .rootdata import _check_rank, _same_datum, weyl_orbit

__all__ = ["HeckeAlgebra", "HeckeElement"]


class HeckeElement(CoefficientMap):
    """Finitely supported map W~ -> Z[v, 1/v] in the T-basis."""

    __slots__ = ()
    algebra = CoefficientMap.context  # the context slot, under its name here

    def _datum(self):
        return self.context.W.rd

    def _key(self, x: AffineWeylElement):
        if x.group is self.context.W:
            return x
        _same_datum(self._datum(), x.group.rd)
        return x

    def support(self) -> frozenset:
        return frozenset(self.terms)

    # bound here, as the benchmark tracer patches them in the class __dict__
    __add__ = CoefficientMap.__add__
    scale = CoefficientMap.scale

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return self.algebra.multiply(self, other)
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

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
        self._z: dict = {}

    # -- construction -------------------------------------------------------

    def zero(self) -> HeckeElement:
        return HeckeElement._make(self, {})

    def unit(self) -> HeckeElement:
        return HeckeElement._make(self, {self.W.identity: ONE})

    def t(self, x: AffineWeylElement, coeff=ONE) -> HeckeElement:
        return HeckeElement(self, {x: coeff})

    def from_terms(self, terms: dict) -> HeckeElement:
        return HeckeElement(self, terms)

    # -- the fold ---------------------------------------------------------------

    def lmul_gen(self, label: int, h: HeckeElement) -> HeckeElement:
        """T_s * h for the affine simple reflection with this label."""
        return self._fold(h, True, False,
                          [((self.W._slot(label),), None, ONE)])

    def rmul_gen(self, h: HeckeElement, label: int) -> HeckeElement:
        """h * T_s."""
        return self._fold(h, False, False,
                          [((self.W._slot(label),), None, ONE)])

    def _fold(self, h, left, inverse, mults) -> HeckeElement:
        """The sum over the multipliers (slots, om, c) of c T_{s_k} ...
        T_{s_1} T_om h (left) or c h T_om T_{s_1} ... T_{s_k} (right), for
        the reflections in kernel slots s_1, ..., s_k and a raw length-zero
        om = (t, w) or None; with every T_s replaced by T_s^{-1} when
        `inverse`.

        The words run on raw keys (trans, fin, length), each coefficient
        Kronecker-packed into one int.  h is packed once and mapped through
        each Omega part once; each word's result is multiplied by its packed
        c and added into one dict, unpacked once.  T_s only raises
        v-exponents and T_s^{-1} only lowers them, so digit i of a packed
        int, in base 2^b with signed digits, is the coefficient of
        v^(base + stride * i): base is the least exponent (the greatest,
        and the stride negative, for T_s^{-1}), and the stride 2 when the
        exponents of h and those of the c's each have one parity, else 1.
        Then q^{+-1} is a shift by 2 / |stride| digits, the q^{+-1} - 1 term
        is that shift minus the value, and accumulating is int addition.
        With h's digits from its own base and the c's from theirs, digit i
        of the sum is the coefficient of v^(base_h + base_c + stride * i).
        """
        _same_datum(self.W.rd, h.algebra.W.rd)
        exps, l1 = _measure(h.terms.values())
        cexps, cl1 = _measure([c for _, _, c in mults])
        pick = max if inverse else min
        base, cbase = pick(exps, default=0), pick(cexps, default=0)
        # A letter maps a term c T_y to c T_sy, or to (q^{+-1} - 1) c T_y +
        # q^{+-1} c T_sy, so it at most triples the sum of |coefficients|
        # over the whole element.  That sum over every word's result, each
        # times its c, and so every digit of the sum and of each partial
        # sum, stays below l1(h) l1(c's) 3^(longest word) < 2^(b-1).
        longest = max([len(slots) for slots, _, _ in mults], default=0)
        b = (l1 * cl1 * 3 ** longest).bit_length() + 1
        stride = min(_stride(exps), _stride(cexps))
        if inverse:
            stride = -stride
        shift = 2 * b // abs(stride)
        images = {None: _pack(h, base, stride, b)}
        pack = per_coefficient(lambda c: _pack_poly(c, cbase, stride, b))
        out: dict = {}
        for slots, om, c in mults:
            cur = images.get(om)
            if cur is None:
                cur = images[om] = self._omega_fold(images[None], om, left)
            for slot in slots:
                cur = self._step(cur, slot, left, inverse, shift, {})
            pc = pack(c)
            if pc == 1 and not out:
                # an empty word leaves cur the cached Omega image
                out = cur if slots else dict(cur)
                continue
            get = out.get
            for key, p in cur.items():
                if p:
                    out[key] = get(key, 0) + p * pc
        return self._unpack(out, base + cbase, stride, b)

    def _step(self, cur, slot, left, inverse, shift, out):
        """Add T_s cur (left) or cur T_s (right), or the same with T_s^{-1},
        into out, for the reflection s in kernel slot `slot` and packed
        dicts cur and out; q^{+-1} is a shift by `shift` bits.  With sy =
        s y or y s: T_s maps an ascent T_y to T_{sy} and a descent to
        q T_{sy} + (q-1) T_y; T_s^{-1} maps a descent to T_{sy} and an
        ascent to q^{-1} T_{sy} + (q^{-1}-1) T_y."""
        k = self.W.kernel
        images, inv_table, npos = k.root_image, k.inv_table, k.npos
        get = out.get
        if left:
            vec, k0, cvec, lrow, r, flip = k._left[slot]
        else:
            wtrans, rrow, wvecs, k0, r, flip = k._right[slot]
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
        return out

    def _unpack(self, cur, base, stride, b) -> HeckeElement:
        """The element of a packed dict: digit i of each int, in base 2^b
        with signed digits, is the coefficient of v^(base + stride * i).
        Each distinct int is decoded once, and the terms that carry it share
        one LaurentPoly.  The z zero digits below the lowest nonzero one go
        in one shift: with signed digits they are zero exactly when the low
        z * b bits are."""
        W = self.W
        full = 1 << b
        half, mask = full >> 1, full - 1
        terms, polys = {}, {}
        make = AffineWeylElement._of_length
        for (t, w, ln), p in cur.items():
            if not p:
                continue
            lp = polys.get(p)
            if lp is None:
                z = ((p & -p).bit_length() - 1) // b
                r = p >> z * b
                c, e = {}, base + z * stride
                while r:
                    d = r & mask
                    if d >= half:
                        d -= full
                    if d:
                        c[e] = d
                    r = (r - d) >> b
                    e += stride
                lp = polys[p] = LaurentPoly.__new__(LaurentPoly)
                lp.c = c  # nonzero int digits: no constructor check needed
            terms[make(W, t, w, ln)] = lp
        return HeckeElement._make(self, terms)

    def _omega_fold(self, cur, om, left):
        """cur with every raw key (t, w, length) multiplied by the raw
        length-zero om = (t, w) on the left or the right, one kernel product
        per key, values kept: l(om y) = l(y om) = l(y), so the length is
        unchanged."""
        ot, ow = om
        if not ow and not any(ot):
            return cur
        kmul = self.W.kernel.mul
        if left:
            return {(*kmul(ot, ow, t, w), ln): c
                    for (t, w, ln), c in cur.items()}
        return {(*kmul(t, w, ot, ow), ln): c for (t, w, ln), c in cur.items()}

    def lmul_omega(self, om: AffineWeylElement, h: HeckeElement):
        """T_om * h for om of length zero."""
        return self._omega_product(h, om, True)

    def rmul_omega(self, h: HeckeElement, om: AffineWeylElement):
        """h * T_om for om of length zero."""
        return self._omega_product(h, om, False)

    def _omega_product(self, h, om, left):
        _same_datum(self.W.rd, h.algebra.W.rd, om.group.rd)
        if om.length():
            raise ValueError(f"{om!r} does not have length zero")
        return self._fold(h, left, False, [((), om.key, ONE)])

    # -- products ------------------------------------------------------------

    def _letters(self, x: AffineWeylElement):
        """(kernel slots of the reduced word of x = s_1...s_k om, last letter
        first; the raw key of om)."""
        slots, t, w = self.W._strip(x.trans, x.fin, x.length())
        slots.reverse()
        return slots, (t, w)

    def t_times(self, x: AffineWeylElement, h: HeckeElement) -> HeckeElement:
        """T_x * h: T_omega h folded by the reduced word of x in one pass."""
        _same_datum(self.W.rd, x.group.rd)
        return self._fold(h, True, False, [(*self._letters(x), ONE)])

    def multiply(self, a: HeckeElement, b: HeckeElement) -> HeckeElement:
        """a * b: b folded by T_x, times c, for each term c T_x of a."""
        _same_datum(self.W.rd, a.algebra.W.rd)
        return self._fold(b, True, False, [(*self._letters(x), c)
                                           for x, c in a.terms.items()])

    def t_inverse(self, x: AffineWeylElement) -> HeckeElement:
        """The inverse of the basis element T_x."""
        _same_datum(self.W.rd, x.group.rd)
        return self._rmul_t_inverse(self.unit(), x)

    def _rmul_t_inverse(self, h: HeckeElement, x: AffineWeylElement):
        """h * T_x^{-1}: with x = s_1...s_k * omega reduced, T_x^{-1} =
        T_{omega^{-1}} T_{s_k}^{-1} ... T_{s_1}^{-1}, folded in one pass."""
        slots, om = self._letters(x)
        return self._fold(h, False, True,
                          [(slots, self.W.kernel.inv(*om), ONE)])

    # -- Bernstein elements ----------------------------------------------------

    def theta(self, lam) -> HeckeElement:
        """theta_lam, for an arbitrary coweight lam: v^{-l(t_lam)} T_{t_lam}
        for dominant lam, else theta_{lam1} theta_{lam2}^{-1} for dominant
        lam1 = lam + lam2 and lam2, which does not depend on lam2."""
        lam = tuple(lam)
        _check_rank(self.W.rd, lam)
        return self._theta_sum([lam])

    def bernstein_function(self, mu) -> HeckeElement:
        """z_mu = sum of theta_la over the finite Weyl orbit of dominant mu.

        The memo holds one z per class of mu modulo central coweights c,
        keyed by (<mu, a_i>)_i over the simple roots (`AffineWeylGroup.
        _by_class`): that of the first mu met in the class.  Any other
        member is z_{rep+c} = T_{t_c} z_rep, each T_{t_la w} of z_rep moved
        to T_{t_{la+c} w} with its coefficient, as t_c is central of length
        0."""
        W = self.W
        c, z = W._by_class(self._z, mu, lambda rep: self._theta_sum(
            sorted(weyl_orbit(W.rd, rep))))
        if c is None:
            return z
        return HeckeElement._make(self, dict(zip(W._translate(z.terms, c),
                                                 z.terms.values())))

    def _theta_sum(self, lams) -> HeckeElement:
        """sum of theta_la over la in lams.  One lam2 serves them all:
        <lam2, a_i> >= -<la, a_i> for every la, so the sum is (sum_la
        v^{-<la, 2 rho>} T_{t_{la+lam2}}) T_{t_lam2}^{-1}, one right fold.
        When every la is dominant lam2 = 0 and nothing is folded.  lam2 is
        not memoized: the z_mu memo serves a whole class modulo the center,
        so a fold, and its one cover search, runs only on a class miss."""
        rd = self.W.rd
        need = [max(0, -min(dot(la, a) for la in lams))
                for a in rd.simple_roots]
        fold = any(need)
        lam2 = _dominant_cover(rd, need) if fold else (0,) * rd.rank
        exps = [-dot(la, rd.two_rho) for la in lams]
        vs = {e: LaurentPoly.v(e) for e in set(exps)}  # one per distinct value
        h = HeckeElement._make(self, {
            self.W.translation(tuple(map(add, la, lam2))): vs[e]
            for la, e in zip(lams, exps)})
        if fold:
            h = self._rmul_t_inverse(h, self.W.translation(lam2))
        return h

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
        """T_s h == h T_s for every affine simple reflection s.

        That decides centrality (Lusztig, "Affine Hecke algebras and their
        graded version", JAMS 2, 1989), so Omega needs no test:
        1. t_la lies in W_aff for la in the coroot lattice, so h commutes
           with theta_la; W_0 acts faithfully there, so h is in Z[v,1/v][X].
        2. Commuting with the finite T_s then makes h W_0-invariant, and
           Z[v, 1/v][X]^{W_0} is the center.

        h is packed once (digits from its least exponent, as in `_fold`).
        Per generator slot, T_s h - h T_s is accumulated in one int dict,
        the right product folded from the negated packing.
        """
        _same_datum(self.W.rd, h.algebra.W.rd)
        exps, l1 = _measure(h.terms.values())
        base = min(exps, default=0)
        stride = _stride(exps)
        # T_s h and h T_s each at most triple the sum of |coefficients|, so
        # every digit of the commutator stays below 6 * l1 < 2^(b-1)
        b = (6 * l1).bit_length() + 1
        cur = _pack(h, base, stride, b)
        neg = {key: -p for key, p in cur.items()}
        shift = 2 * b // stride
        for slot in self.W.gen_labels:
            out = self._step(cur, slot, True, False, shift, {})
            self._step(neg, slot, False, False, shift, out)
            if any(out.values()):
                return False
        return True

    def parahoric_subgroup(self, labels) -> list:
        """Elements of the finite subgroup W_J generated by the affine simple
        reflections in `labels`, sorted: the Bruhat ideal below its longest
        element; raises unless J is of finite type."""
        W = self.W
        w_j = W._double_coset_top(labels, *W.identity.key)
        return sorted(W.lower_closure([AffineWeylElement(W, *w_j)]),
                      key=W.sort_key)

    def parahoric_descent(self, h: HeckeElement, labels):
        """(h * sum_{w in W_J} T_w, P_J) with P_J the Poincare polynomial.

        The normalized change-of-level map to the parahoric attached to J is
        the first component divided by P_J; the factor is returned separately
        to keep all arithmetic in Z[v, 1/v].
        """
        wj = self.parahoric_subgroup(labels)
        sum_t = HeckeElement._make(self, {x: ONE for x in wj})
        poincare = LaurentPoly(Counter([2 * x.length() for x in wj]))
        return self.multiply(h, sum_t), poincare


# -- packed coefficients ------------------------------------------------------


def _measure(coeffs):
    """The v-exponents of the Laurent polynomials `coeffs`, and the sum of
    the absolute values of all their coefficients (their L1 norm)."""
    cs = [c.c for c in coeffs]
    return ([e for c in cs for e in c],
            sum([abs(n) for c in cs for n in c.values()]))


def _stride(exps) -> int:
    """2 when all the exponents have one parity, else 1."""
    return 2 if len({e & 1 for e in exps}) < 2 else 1


def _pack_poly(c: LaurentPoly, base, stride, b) -> int:
    """c as one int: the coefficient of v^e is digit (e - base) / stride,
    in base 2^b with signed digits."""
    p = 0
    for e, n in c.c.items():
        p += n << b * ((e - base) // stride)
    return p


def _pack(h, base, stride, b) -> dict:
    """h as {(trans, fin, length): packed coefficient}, each distinct
    coefficient object packed once."""
    pack = per_coefficient(lambda c: _pack_poly(c, base, stride, b))
    return {(y.trans, y.fin, y.length()): pack(c) for y, c in h.terms.items()}


# -- decomposition helper -------------------------------------------------------


def _dominant_cover(rd, need) -> tuple:
    """The dominant lam2 of least <lam2, 2 rho> with <lam2, a_i> >= need[i]
    for every simple root a_i; of those, the one whose y = (<lam2, a_i>)_i
    is lexicographically least.

    With 2 rho = sum_i k_i a_i, <lam2, 2 rho> = sum_i k_i y_i, and y runs
    over the lattice L of all (<lam, a_i>)_i.  The HNF of the rows
    (<e_j, a_1>, ..., <e_j, a_m>, e_j) reduces (y, 0) to the class of y in
    Z^m / L in its first m entries, and to (0, -lam2) when y lies in L,
    lam2 the HNF-reduced lift of y.  So the least y = need + s is a
    shortest path from the class of need to class 0 with steps e_i of cost
    k_i: Gomory's group relaxation, exact here since lam2 is unbounded.
    Z^m / L is trivial for GL, GSp and adjoint data, so there the first
    reduction ends it.

    >>> from iwahecke.rootdata import build_root_datum
    >>> _dominant_cover(build_root_datum("Sp", 6), (1, 1, 1))
    (3, 2, 1)
    """
    m, rank = rd.n_simple, rd.rank
    k = [sum(c[i] for c in rd.pos_root_coords) for i in range(m)]
    hnf = hermite_basis([col + (0,) * j + (1,) + (0,) * (rank - 1 - j)
                         for j, col in enumerate(zip(*rd.simple_roots))])
    pad = (0,) * rank
    # Dijkstra over the classes, keyed by (height, y): the first y popped
    # in class 0 is the least
    heap, seen = [(dot(k, need), tuple(need))], set()
    while True:
        hgt, y = heappop(heap)
        r = reduce_mod_lattice(y + pad, hnf)
        cls = r[:m]
        if not any(cls):
            return tuple(-x for x in r[m:])
        if cls not in seen:
            seen.add(cls)
            for i, ki in enumerate(k):
                heappush(heap, (hgt + ki, y[:i] + (y[i] + 1,) + y[i + 1:]))
