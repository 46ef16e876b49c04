"""
Kazhdan-Lusztig R-polynomials on the extended affine Weyl group, and the
closed-form expression they give for minuscule Bernstein functions.

R-polynomials are the structure constants of T-basis inverses:
(T_{y^{-1}})^{-1} = q^{-l(y)} sum_x (-1)^{l(x)+l(y)} R_{x,y}(q) T_x.  They are
computed here by the left-multiplication recursion: R_{x,x} = 1, cross
Omega-classes R vanishes, and for an affine simple s with sy < y,

    R_{x,y} = R_{sx,sy}                       if sx < x,
    R_{x,y} = (q-1) R_{x,sy} + q R_{sx,sy}    if sx > x.

The descent s of y is its smallest-labelled one, read from the group's
descent-step cache (``AffineWeylGroup._steps``, (t, w) -> (slot, s t, s w)),
which `bruhat_leq` fills and reads too: each y is scanned for a descent
once per context, however many x it is paired with.  The memo is keyed on
the pair (x, y) and shared by every y.  The second line is formed by
shifting exponents, not by Laurent-polynomial products.

For minuscule dominant mu the Bernstein function has the closed form

    q^{l(t_mu)/2} z_mu
        = (-1)^{l(t_mu)} sum_{x in Adm(mu)} (-1)^{l(x)} R_{x, t_{la(x)}}(q) T_x

where x = t_{la(x)} w is the translation/finite normal form.  This is the
independent oracle against the theta-sum route in :mod:`iwahecke.hecke`: it
never folds by T_s^{-1}.  Adm(mu) comes from the inversion sets of its
elements (:meth:`AffineWeylGroup.admissible_set`), which also carry their
lengths, and l(t_la) is computed once per translation.  In the Drinfeld
case GL(n), mu = (1,0^{n-1}) every coefficient collapses to
(1-q)^{l(t_mu)-l(x)}.

R-polynomials here are plain :class:`~iwahecke.laurent.LaurentPoly` values in
the variable q (nonnegative exponents only); converting into the Hecke
coefficient ring Z[v,1/v] doubles exponents.
"""

from __future__ import annotations

from .affine import AffineWeylElement, AffineWeylGroup
from .hecke import HeckeElement
from .laurent import LaurentPoly
from .rootdata import RootDatumError, _same_datum, is_minuscule

__all__ = ["RPolynomials", "r_polynomial", "closed_form_bernstein",
           "q_poly_to_v"]

_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})


def q_poly_to_v(p: LaurentPoly) -> LaurentPoly:
    """Reinterpret a polynomial in q as a Laurent polynomial in v (q = v^2)."""
    return p.subs_v_power(2)


class RPolynomials:
    """Memoized R-polynomial computation over one affine Weyl group."""

    def __init__(self, W: AffineWeylGroup):
        self.W = W
        self._memo: dict = {}

    def r(self, x: AffineWeylElement, y: AffineWeylElement) -> LaurentPoly:
        _same_datum(self.W.rd, x.group.rd, y.group.rd)
        return self._r(x.trans, x.fin, x.length(), y.trans, y.fin, y.length())

    def _r(self, tx, wx, lx, ty, wy, ly) -> LaurentPoly:
        if tx == ty and wx == wy:
            return _ONE
        if lx >= ly:
            return _ZERO
        key = (tx, wx, ty, wy)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        W = self.W
        k = W.kernel
        slot, sty, swy = W._steps.get((ty, wy)) or W._descent_step(ty, wy)
        stx, swx = k.lmul_gen(slot, tx, wx)
        if k.left_descent(slot, tx, wx):
            res = self._r(stx, swx, lx - 1, sty, swy, ly - 1)
        else:
            # (q-1) A + q B, by shifting exponents
            a = self._r(tx, wx, lx, sty, swy, ly - 1).c
            b = self._r(stx, swx, lx + 1, sty, swy, ly - 1).c
            out = {e + 1: n for e, n in a.items()}
            for e, n in b.items():
                out[e + 1] = out.get(e + 1, 0) + n
            for e, n in a.items():
                out[e] = out.get(e, 0) - n
            res = LaurentPoly(out)
        self._memo[key] = res
        return res

    def closed_form_bernstein(self, mu) -> HeckeElement:
        """The right-hand side of the minuscule closed formula, equal to
        v^{l(t_mu)} z_mu; raises unless mu is dominant and minuscule."""
        W = self.W
        mu = tuple(mu)
        if not is_minuscule(W.rd, mu):
            raise RootDatumError(f"{mu} is not minuscule")
        lt = W.translation(mu).length()
        k = W.kernel
        lengths = {}  # l(t_la) per translation part of Adm(mu)
        terms = {}
        for x in W.admissible_set(mu):
            la = x.trans
            ll = lengths.get(la)
            if ll is None:
                ll = lengths[la] = k.length(la, 0)
            lx = x.length()
            c = q_poly_to_v(self._r(la, x.fin, lx, la, 0, ll))
            terms[x] = -c if (lt + lx) % 2 else c
        return W.hecke().from_terms(terms)


def r_polynomial(x: AffineWeylElement, y: AffineWeylElement) -> LaurentPoly:
    """R_{x,y} as a polynomial in q (module-level convenience wrapper)."""
    return _table(x.group).r(x, y)


def closed_form_bernstein(W: AffineWeylGroup, mu) -> HeckeElement:
    return _table(W).closed_form_bernstein(mu)


def _table(W: AffineWeylGroup) -> RPolynomials:
    if not hasattr(W, "_rpoly"):
        W._rpoly = RPolynomials(W)
    return W._rpoly
