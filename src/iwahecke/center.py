"""
The Bernstein isomorphism between Weyl-invariant functions on the cocharacter
lattice and the center of the Iwahori-Hecke algebra, in both directions, plus
the constant-term homomorphism to standard Levi subgroups.

A symmetric function is a finite-Weyl-invariant CoefficientMap from coweights
to Z[v, 1/v]; the monomial basis is indexed by dominant coweights.
The forward isomorphism sends e^la to theta_la, so the monomial function of
mu to the Bernstein function z_mu; it is computed as sum_mu f(mu) z_mu over
the dominant support, from the algebra's cached z_mu.  The inverse is
computed by exact triangular elimination, subtracting f(mu) z_mu: the
translation elements in the support of a central element are, at each
maximal length, reachable only from the matching z_mu, whose T_{t_la}
coefficient is exactly v^{-l(t_la)} for every la in the orbit of mu.  One
step, adding c z_mu, serves both directions.

The elimination is its own certificate of centrality.  If the residue
empties, z = sum_mu f(mu) z_mu, and every z_mu is central (Lusztig 1989);
so no centrality test runs on an input that inverts.  Subtracting f(mu) z_mu
clears the translations of the orbit W_0 mu only when z has equal
coefficients on them, and creates no other translation of their length; a
dominant mu met a second time is therefore refused (the repeat guard), as a
non-central z could otherwise cycle.  That, a residue with no translation
element, or a support height above the bound ends the elimination.  Only
then is z tested for centrality, so every non-central z raises "element is
not central", whatever its height, and a central one HeightBoundError.
"""

from __future__ import annotations

from operator import add

from .hecke import HeckeElement
from .laurent import (ONE, CoefficientMap, LaurentPoly, _convolve, accumulate,
                      per_coefficient)
from .rootdata import (RootDatum, RootDatumError, _check_rank, _same_datum,
                       levi_sub_datum, weyl_orbit)

__all__ = [
    "SymmetricFunction", "NotCentralError", "HeightBoundError",
    "monomial_symmetric", "bernstein_iso", "bernstein_iso_inverse",
    "constant_term", "levi_image",
]


class NotCentralError(ValueError):
    pass


class HeightBoundError(ValueError):
    pass


class SymmetricFunction(CoefficientMap):
    """W_0-invariant finitely supported map coweight -> Z[v, 1/v]."""

    __slots__ = ()
    rd = CoefficientMap.context  # the context slot, under its name here

    def __init__(self, rd: RootDatum, terms: dict):
        super().__init__(rd, terms)
        for la, c in self.terms.items():
            for i in range(rd.n_simple):
                if self.terms.get(rd.reflect(i, la)) != c:
                    raise RootDatumError(
                        f"support is not Weyl-invariant at {la}")

    def _key(self, la):
        _check_rank(self.rd, la)
        return tuple(la)

    @staticmethod
    def from_dominant(rd: RootDatum, dominant_terms: dict) -> "SymmetricFunction":
        """Build from coefficients on dominant representatives."""
        out: dict = {}
        for mu, c in CoefficientMap(rd, dominant_terms).terms.items():
            mu = tuple(mu)
            if not rd.is_dominant(mu):
                raise RootDatumError(f"{mu} is not dominant")
            for la in weyl_orbit(rd, mu):
                out[la] = c
        return SymmetricFunction._make(rd, out)

    def dominant_support(self):
        return sorted(la for la in self.terms if self.rd.is_dominant(la))

    # bound here, as the benchmark tracer patches it in the class __dict__
    __add__ = CoefficientMap.__add__

    def __mul__(self, other):
        """Group-algebra convolution e^la * e^nu = e^{la+nu} (or scaling)."""
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        if not isinstance(other, SymmetricFunction):
            return NotImplemented
        _same_datum(self.rd, other.rd)
        return SymmetricFunction._make(self.rd, _convolve(
            self.terms, other.terms, lambda la, nu: tuple(map(add, la, nu))))

    __rmul__ = __mul__

    def __repr__(self):
        bits = [f"({c})*e{list(la)}" for la, c in sorted(self.terms.items())]
        return "SymmetricFunction(" + (" + ".join(bits) or "0") + ")"


def monomial_symmetric(rd: RootDatum, mu) -> SymmetricFunction:
    """The orbit-indicator sum of the dominant coweight mu."""
    return SymmetricFunction.from_dominant(rd, {tuple(mu): ONE})


def bernstein_iso(f: SymmetricFunction, W=None) -> HeckeElement:
    """sum_la f(la) theta_la, landing in the center of the Hecke algebra.

    f is constant on Weyl orbits, so this is sum_mu f(mu) z_mu over its
    dominant support, each z_mu from the algebra's memo (the same z_mu that
    bernstein_iso_inverse subtracts).
    """
    if W is None:
        W = f.rd.affine_weyl()
    _same_datum(W.rd, f.rd)
    H = W.hecke()
    out: dict = {}
    for mu in f.dominant_support():
        _add_zmu(out, H, mu, f.terms[mu])
    return HeckeElement._make(H, out)


def _add_zmu(out: dict, H, mu, c):
    """out += c z_mu, z_mu from H's memo, one product per distinct
    coefficient; 1 z_mu into an empty out copies the cached terms."""
    zmu = H.bernstein_function(mu).terms
    if not out and c == ONE:
        out.update(zmu)
        return
    times_c = per_coefficient(lambda p: c * p)
    for x, p in zmu.items():
        accumulate(out, x, times_c(p))


def bernstein_iso_inverse(z: HeckeElement,
                          height_bound: int) -> SymmetricFunction:
    """The unique symmetric f with bernstein_iso(f) = z.

    `height_bound` caps <mu+, 2 rho> over the extracted dominant support;
    exceeding it raises HeightBoundError ("bound too small").  A non-central
    z raises NotCentralError("element is not central"), whatever its height.

    The elimination certifies centrality: when the residue empties, z is a
    sum of central z_mu.  It stops early on a dominant mu met a second time
    (the translations of W_0 mu carried unequal coefficients, so the
    elimination could otherwise cycle), on a residue with no translation
    element, or on the height bound; only then does `is_central` run, to
    tell NotCentralError from HeightBoundError.
    """
    H = z.algebra
    try:
        out = _eliminate(H, z, height_bound)
    except (NotCentralError, HeightBoundError):
        if not H.is_central(z):
            raise NotCentralError("element is not central") from None
        raise
    return SymmetricFunction.from_dominant(H.W.rd, out)


def _eliminate(H, z: HeckeElement, height_bound: int) -> dict:
    """{dominant mu: f(mu)} with z = sum_mu f(mu) z_mu, by subtracting
    f(mu) z_mu for the longest translation left in the residue."""
    rd = H.W.rd
    work = dict(z.terms)
    out: dict = {}
    while work:
        best = None
        for x in work:
            if x.is_translation():
                if best is None or x.length() > best.length():
                    best = x
        if best is None:
            raise NotCentralError(
                "support has no translation element; not in the center")
        mu = rd.dominant_rep(best.trans)
        if mu in out:
            raise NotCentralError(
                f"orbit of {mu} met twice; not in the center")
        lt = best.length()
        if lt > height_bound:
            raise HeightBoundError(
                f"support height {lt} exceeds bound {height_bound}")
        c = work[best].shift(lt)  # strip the v^{-l(t_mu)} of theta_mu
        out[mu] = c
        _add_zmu(work, H, mu, -c)
    return out


def constant_term(z: HeckeElement, levi_labels) -> HeckeElement:
    """The constant-term homomorphism from the center of the Hecke algebra of
    G to that of the standard Levi L given by 1-based simple-root labels.

    Computed on the invariant-function side: invert the Bernstein isomorphism
    for G and take the Levi image of the result.  No context is passed on;
    for L = G the image lies in the algebra of G's datum, as for any Levi.
    """
    bound = max((x.length() for x in z.terms if x.is_translation()),
                default=0)
    return levi_image(bernstein_iso_inverse(z, bound), levi_labels)


def levi_image(f: SymmetricFunction, levi_labels) -> HeckeElement:
    """c^G_L(bernstein_iso(f)) without leaving the invariant-function side:
    f viewed as a W(L)-invariant function, taken by the Bernstein
    isomorphism for the standard Levi L given by 1-based simple-root labels
    (sorted and deduplicated by levi_sub_datum).  L = G is no special case:
    all labels give G's datum itself, whose shared context is G's.
    """
    lrd = levi_sub_datum(f.rd, levi_labels)
    lf = SymmetricFunction._make(lrd, f.terms)  # W(L)-invariance is inherited
    return bernstein_iso(lf)
