"""
The Bernstein isomorphism between Weyl-invariant functions on the cocharacter
lattice and the center of the Iwahori-Hecke algebra, in both directions, plus
the constant-term homomorphism to standard Levi subgroups.

A symmetric function is a finitely supported, finite-Weyl-invariant map from
coweights to Z[v, 1/v]; the monomial basis is indexed by dominant coweights.
The forward isomorphism sends e^la to theta_la, so the monomial function of
mu to the Bernstein function z_mu; it is computed as sum_mu f(mu) z_mu over
the dominant support, from the algebra's cached z_mu.  The inverse is
computed by exact triangular elimination: the translation elements in the
support of a central element are, at each maximal length, reachable only
from the matching z_mu, whose T_{t_mu} coefficient is exactly v^{-l(t_mu)}.
"""

from __future__ import annotations

from .hecke import HeckeElement
from .laurent import ONE, LaurentPoly, accumulate
from .rootdata import (RootDatum, RootDatumError, _check_rank, _same_datum,
                       levi_sub_datum, weyl_orbit)

__all__ = [
    "SymmetricFunction", "NotCentralError", "HeightBoundError",
    "monomial_symmetric", "bernstein_iso", "bernstein_iso_inverse",
    "constant_term",
]


class NotCentralError(ValueError):
    pass


class HeightBoundError(ValueError):
    pass


class SymmetricFunction:
    """W_0-invariant finitely supported map coweight -> Z[v, 1/v]."""

    __slots__ = ("rd", "terms")

    def __init__(self, rd: RootDatum, terms: dict, check: bool = True):
        self.rd = rd
        self.terms = {tuple(la): c for la, c in terms.items() if c}
        if check:
            self._validate()

    def _validate(self):
        for la, c in self.terms.items():
            _check_rank(self.rd, la)
            for i in range(self.rd.n_simple):
                if self.terms.get(self.rd.reflect(i, la)) != c:
                    raise RootDatumError(
                        f"support is not Weyl-invariant at {la}")

    @staticmethod
    def from_dominant(rd: RootDatum, dominant_terms: dict) -> "SymmetricFunction":
        """Build from coefficients on dominant representatives."""
        out: dict = {}
        for mu, c in dominant_terms.items():
            mu = tuple(mu)
            if not rd.is_dominant(mu):
                raise RootDatumError(f"{mu} is not dominant")
            for la in weyl_orbit(rd, mu):
                out[la] = c
        return SymmetricFunction(rd, out, check=False)

    def coeff(self, la) -> LaurentPoly:
        la = tuple(la)
        _check_rank(self.rd, la)
        return self.terms.get(la, LaurentPoly())

    def dominant_support(self):
        return sorted(la for la in self.terms if self.rd.is_dominant(la))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, SymmetricFunction)
                and _same_datum(other.rd, self.rd)
                and other.terms == self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, SymmetricFunction):
            return NotImplemented
        _same_datum(self.rd, other.rd)
        out = dict(self.terms)
        for la, c in other.terms.items():
            accumulate(out, la, c)
        return SymmetricFunction(self.rd, out, check=False)

    def __neg__(self):
        return SymmetricFunction(self.rd,
                                 {la: -c for la, c in self.terms.items()},
                                 check=False)

    def __sub__(self, other):
        if not isinstance(other, SymmetricFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Group-algebra convolution e^la * e^nu = e^{la+nu} (or scaling)."""
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        if not isinstance(other, SymmetricFunction):
            return NotImplemented
        _same_datum(self.rd, other.rd)
        out: dict = {}
        for la, c in self.terms.items():
            for nu, d in other.terms.items():
                accumulate(out, tuple(a + b for a, b in zip(la, nu)), c * d)
        return SymmetricFunction(self.rd, out, check=False)

    __rmul__ = __mul__

    def scale(self, c) -> "SymmetricFunction":
        if isinstance(c, int):
            c = LaurentPoly.const(c)
        return SymmetricFunction(self.rd,
                                 {la: c * p for la, p in self.terms.items()},
                                 check=False)

    def to_json_obj(self):
        """Dominant-representative serialization: a sorted list of
        {"coweight": [...], "coeff": {v-exponent: int}} entries."""
        out = []
        for la in self.dominant_support():
            coeff = self.terms[la]
            out.append({"coweight": list(la),
                        "coeff": {str(e): c for e, c in sorted(coeff.c.items())}})
        return out

    @staticmethod
    def from_json_obj(rd: RootDatum, obj) -> "SymmetricFunction":
        terms = {}
        for entry in obj:
            coeff = LaurentPoly({int(e): c
                                 for e, c in entry["coeff"].items()})
            terms[tuple(entry["coweight"])] = coeff
        return SymmetricFunction.from_dominant(rd, terms)

    def __repr__(self):
        bits = [f"({c})*e{list(la)}" for la, c in sorted(self.terms.items())]
        return "SymmetricFunction(" + (" + ".join(bits) or "0") + ")"


def monomial_symmetric(rd: RootDatum, mu) -> SymmetricFunction:
    """The orbit-indicator sum of the dominant coweight mu."""
    mu = tuple(mu)
    if not rd.is_dominant(mu):
        raise RootDatumError(f"{mu} is not dominant")
    return SymmetricFunction(rd, {la: ONE for la in weyl_orbit(rd, mu)},
                             check=False)


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
        c = f.terms[mu]
        for x, p in H.bernstein_function(mu).terms.items():
            accumulate(out, x, c * p)
    return HeckeElement(H, out)


def bernstein_iso_inverse(z: HeckeElement,
                          height_bound: int) -> SymmetricFunction:
    """The unique symmetric f with bernstein_iso(f) = z.

    `height_bound` caps <mu+, 2 rho> over the extracted dominant support;
    exceeding it raises HeightBoundError ("bound too small").  A non-central
    z raises NotCentralError.
    """
    H = z.algebra
    W = H.W
    rd = W.rd
    if not H.is_central(z):
        raise NotCentralError("element is not central")
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
        lt = best.length()
        if lt > height_bound:
            raise HeightBoundError(
                f"support height {lt} exceeds bound {height_bound}")
        c = work[best].shift(lt)  # strip the v^{-l(t_mu)} of theta_mu
        out[mu] = c
        for x, p in H.bernstein_function(mu).scale(c).terms.items():
            accumulate(work, x, -p)
    return SymmetricFunction.from_dominant(rd, out)


def constant_term(z: HeckeElement, levi_labels) -> HeckeElement:
    """The constant-term homomorphism from the center of the Hecke algebra of
    G to that of the standard Levi L given by 1-based simple-root labels.

    Computed on the invariant-function side: invert the Bernstein isomorphism
    for G, view the result as a W(L)-invariant function, and apply the
    Bernstein isomorphism for L.
    """
    H = z.algebra
    rd = H.W.rd
    levi_labels = sorted(set(levi_labels))
    bound = max((x.length() for x in z.terms if x.is_translation()),
                default=0)
    f = bernstein_iso_inverse(z, bound)
    if levi_labels == list(range(1, rd.n_simple + 1)):
        return bernstein_iso(f, H.W)  # L = G
    lrd = levi_sub_datum(rd, levi_labels)
    lf = SymmetricFunction(lrd, f.terms)  # W(L)-invariance is inherited
    return bernstein_iso(lf)
