"""
Kazhdan-Lusztig R-polynomials on the extended affine Weyl group, and the
closed-form expression they give for minuscule Bernstein functions.

R-polynomials are the structure constants of T-basis inverses:
(T_{y^{-1}})^{-1} = q^{-l(y)} sum_x (-1)^{l(x)+l(y)} R_{x,y}(q) T_x.  They are
computed here by the left-multiplication recursion: R_{x,x} = 1, cross
Omega-classes R vanishes, and for an affine simple s with sy < y,

    R_{x,y} = R_{sx,sy}                       if sx < x,
    R_{x,y} = (q-1) R_{x,sy} + q R_{sx,sy}    if sx > x.

The descent s of y is its smallest-labelled one, from
``AffineWeylGroup._descent_step``, which owns the group's descent-step
cache ((t, w) -> (slot, s t, s w)) and serves `bruhat_leq` too: each y is
scanned for a descent once per context, however many x it is paired
with.  The memo is keyed on the pair (x, y) and shared by every y.  The
second line is q (A + B) - A, formed once per distinct pair of operand
objects: the R-sum memo keeps each sum with its operands, and one object
per distinct sum value, so equal R values are one object (for the closed
form of GL(6) (1,1,0,0,0,0) it holds 15 sums and 13 values against 2,033
pairs).  Each group owns one table, as it owns its Hecke algebra.

For minuscule dominant mu the Bernstein function has the closed form

    q^{l(t_mu)/2} z_mu
        = (-1)^{l(t_mu)} sum_{x in Adm(mu)} (-1)^{l(x)} R_{x, t_{la(x)}}(q) T_x

where x = t_{la(x)} w is the translation/finite normal form.  This is the
independent oracle against the theta-sum route in :mod:`iwahecke.hecke`: it
never folds, by T_s^{-1} or otherwise, and the R-sum memo is its own.
Adm(mu) comes from the inversion sets of its elements
(:meth:`AffineWeylGroup.admissible_set`), which also carry their lengths;
l(t_la) is computed once per translation, and the conversion to v and the
sign once per distinct R value.  The group's Adm memo holds one entry per
class of mu modulo central coweights c, keyed by (<mu, a_i>)_i over the
simple roots: that of the first mu met in the class, rep.  The sum runs
over Adm(rep), so for mu = rep + c the R memo hits, and is translated:
t_c is central of length 0, so R_{t_c x, t_c y} = R_{x,y}, l(t_mu) =
l(t_rep) and z_{rep+c} = T_{t_c} z_rep.  In the Drinfeld case GL(n),
mu = (1,0^{n-1}) every coefficient collapses to (1-q)^{l(t_mu)-l(x)}.

R-polynomials here are plain :class:`~iwahecke.laurent.LaurentPoly` values in
the variable q (nonnegative exponents only); converting into the Hecke
coefficient ring Z[v,1/v] doubles exponents.
"""

from __future__ import annotations

from .affine import AffineWeylElement, AffineWeylGroup
from .hecke import HeckeElement
from .laurent import ONE, ZERO, LaurentPoly, per_coefficient
from .rootdata import RootDatumError, _same_datum, is_minuscule

__all__ = ["RPolynomials", "r_polynomial", "closed_form_bernstein",
           "q_poly_to_v"]


def q_poly_to_v(p: LaurentPoly) -> LaurentPoly:
    """Reinterpret a polynomial in q as a Laurent polynomial in v (q = v^2)."""
    return p.subs_v_power(2)


class RPolynomials:
    """Memoized R-polynomial computation over one affine Weyl group."""

    def __init__(self, W: AffineWeylGroup):
        self.W = W
        self._memo: dict = {}
        # the R-sum memo: (q-1) A + q B per distinct pair of operand
        # objects, keyed by their ids, each entry (A, B, sum) keeping both
        # alive, so an id in a key is never reused; and one object per
        # distinct sum value, so equal R values are one object
        self._sums: dict = {}
        self._values: dict = {ZERO: ZERO, ONE: ONE}

    def r(self, x: AffineWeylElement, y: AffineWeylElement) -> LaurentPoly:
        _same_datum(self.W.rd, x.group.rd, y.group.rd)
        return self._r(x.trans, x.fin, x.length(), y.trans, y.fin, y.length())

    def _r(self, tx, wx, lx, ty, wy, ly) -> LaurentPoly:
        if tx == ty and wx == wy:
            return ONE
        if lx >= ly:
            return ZERO
        key = (tx, wx, ty, wy)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        W = self.W
        k = W.kernel
        slot, sty, swy = W._descent_step(ty, wy)
        stx, swx = k.lmul_gen(slot, tx, wx)
        if k.left_descent(slot, tx, wx):
            res = self._r(stx, swx, lx - 1, sty, swy, ly - 1)
        else:
            res = self._sum(self._r(tx, wx, lx, sty, swy, ly - 1),
                            self._r(stx, swx, lx + 1, sty, swy, ly - 1))
        self._memo[key] = res
        return res

    def _sum(self, pa: LaurentPoly, pb: LaurentPoly) -> LaurentPoly:
        """(q-1) A + q B = q (A + B) - A, once per pair of objects."""
        hit = self._sums.get((id(pa), id(pb)))
        if hit is not None:
            return hit[2]
        res = (pa + pb).shift(1) - pa
        res = self._values.setdefault(res, res)
        self._sums[id(pa), id(pb)] = (pa, pb, res)
        return res

    def closed_form_bernstein(self, mu) -> HeckeElement:
        """The right-hand side of the minuscule closed formula, equal to
        v^{l(t_mu)} z_mu; raises unless mu is dominant and minuscule.  It
        is summed over Adm(rep) for the rep of mu's class in the Adm memo,
        then translated by mu - rep."""
        W = self.W
        mu = tuple(mu)
        if not is_minuscule(W.rd, mu):
            raise RootDatumError(f"{mu} is not minuscule")
        lt = W.translation(mu).length()
        k = W.kernel
        lengths = {}  # l(t_la) per translation part of Adm(rep)
        to_v = per_coefficient(q_poly_to_v)  # once per distinct R value
        neg = per_coefficient(lambda c: -c)
        terms = {}
        shift, adm = W._adm_class(mu)
        for x in adm:
            la = x.trans
            ll = lengths.get(la)
            if ll is None:
                ll = lengths[la] = k.length(la, 0)
            lx = x.length()
            c = to_v(self._r(la, x.fin, lx, la, 0, ll))
            terms[x] = neg(c) if (lt + lx) % 2 else c
        if shift is not None:
            terms = dict(zip(W._translate(terms, shift), terms.values()))
        return HeckeElement._make(W.hecke(), terms)


def r_polynomial(x: AffineWeylElement, y: AffineWeylElement) -> LaurentPoly:
    """R_{x,y} as a polynomial in q (module-level convenience wrapper)."""
    return x.group._rpolynomials().r(x, y)


def closed_form_bernstein(W: AffineWeylGroup, mu) -> HeckeElement:
    return W._rpolynomials().closed_form_bernstein(mu)
