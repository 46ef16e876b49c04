"""
Transfer of central elements to inner forms with anisotropic adjoint group,
and base change of symmetric functions.

For such inner forms (the D^x-type targets) the target Hecke algebra is the
group algebra of the Kottwitz quotient Omega, so transferred functions are
graded by Omega.  Two independent routes are implemented:

* :func:`normalized_transfer` works on the invariant-function side: a
  W-invariant f goes to m |-> sum over {la : kappa(la) = m} of
  f(la) * v^{<la, 2 rho>}.  The exponent is the delta_B^{-1/2} factor under
  the convention delta_B(la(pi)) = q^{-<la, 2 rho>} fixed here once for the
  whole package (upper-triangular Borel);
* :func:`kottwitz_fiber_integrate` integrates a central Hecke element over
  the fibers of the Kottwitz homomorphism, the volume of I x I at Iwahori
  level being q^{l(x)}.

That the two routes agree is the headline identity of this module, checked
in the acceptance suite together with the Grassmannian point-count identity
for GL(n).
"""

from __future__ import annotations

from .affine import OmegaElement
from .center import SymmetricFunction
from .hecke import HeckeElement
from .intlinalg import dot
from .laurent import LaurentPoly, accumulate
from .rootdata import RootDatumError, _same_datum

__all__ = ["GradedFunction", "normalized_transfer", "kottwitz_fiber_integrate",
           "grassmannian_count", "base_change"]


class GradedFunction:
    """Finitely supported map Omega -> Z[v, 1/v], keyed by Kottwitz classes."""

    __slots__ = ("rd", "terms")

    def __init__(self, rd, terms: dict):
        self.rd = rd
        self.terms = {}
        for om, c in terms.items():
            rep = om.rep if isinstance(om, OmegaElement) else rd.kappa_reduce(om)
            accumulate(self.terms, rep, c)

    def coeff(self, grade) -> LaurentPoly:
        """Coefficient at a class tuple, or at an integer grade when Omega is
        0 or Z; an integer grade names no class of any other Omega, so it is
        a ValueError there."""
        if isinstance(grade, int):
            if not self.rd.omega_is_free_cyclic:
                raise ValueError(
                    f"integer grade {grade} on {self.rd.family}, whose Omega "
                    "is not 0 or Z: give a class tuple")
            for rep, c in self.terms.items():
                if self.rd.omega_grade(rep) == grade:
                    return c
            return LaurentPoly()
        return self.terms.get(self.rd.kappa_reduce(grade), LaurentPoly())

    def grades(self):
        """Sorted list of (grade-or-rep, coefficient)."""
        out = []
        for rep, c in self.terms.items():
            g = self.rd.omega_grade(rep)
            out.append((g if g is not None else rep, c))
        return sorted(out, key=lambda t: (0, t[0]) if isinstance(t[0], int)
                      else (1, t[0]))

    def __eq__(self, other):
        return (isinstance(other, GradedFunction)
                and _same_datum(other.rd, self.rd)
                and other.terms == self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def scale(self, c) -> "GradedFunction":
        if isinstance(c, int):
            c = LaurentPoly.const(c)
        return GradedFunction(self.rd,
                              {rep: c * p for rep, p in self.terms.items()})

    def __repr__(self):
        bits = [f"{g}: {c}" for g, c in self.grades()]
        return "GradedFunction{" + ", ".join(bits) + "}"


def normalized_transfer(f: SymmetricFunction) -> GradedFunction:
    """Transfer a W-invariant function to the Omega-graded algebra of an
    inner form with anisotropic adjoint group."""
    rd = f.rd
    out: dict = {}
    for la, c in f.terms.items():
        rep = rd.kappa_reduce(la)
        accumulate(out, rep, c * LaurentPoly.v(dot(la, rd.two_rho)))
    return GradedFunction(rd, out)


def kottwitz_fiber_integrate(z: HeckeElement) -> GradedFunction:
    """Integrate a Hecke element over Kottwitz fibers: the double coset of x
    has volume q^{l(x)} at Iwahori level."""
    rd = z.algebra.W.rd
    out: dict = {}
    for x, c in z.terms.items():
        rep = rd.kappa_reduce(x.trans)
        accumulate(out, rep, c * LaurentPoly.q(x.length()))
    return GradedFunction(rd, out)


def grassmannian_count(n: int, m: int) -> LaurentPoly:
    """#Gr(m,n)(F_q) as a polynomial in q: the Gaussian binomial [n, m]_q.

    Computed by the q-Pascal recurrence [n,m] = [n-1,m-1] + q^m [n-1,m].
    The result is returned in the package coefficient ring (q = v^2).
    """
    if not 0 < m < n:
        raise ValueError("need 0 < m < n")
    one = LaurentPoly.const(1)
    prev = [one]  # row n'=0: [0,0]
    for np in range(1, n + 1):
        row = [one]
        for mp in range(1, np):
            left = prev[mp - 1]
            right = prev[mp] if mp < len(prev) else LaurentPoly()
            row.append(left + LaurentPoly.q(mp) * right)
        row.append(one)
        prev = row
    return prev[m]


def base_change(f: SymmetricFunction, r: int) -> SymmetricFunction:
    """Base change from level q^r down to level q: e^la -> e^{r la} on the
    support and v -> v^r on coefficients (split-torus norm)."""
    if r < 1:
        raise RootDatumError("base change degree must be >= 1")
    if r == 1:
        return f
    out = {tuple(r * x for x in la): c.subs_v_power(r)
           for la, c in f.terms.items()}
    return SymmetricFunction(f.rd, out, check=False)
