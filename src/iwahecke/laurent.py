"""
Exact integer Laurent polynomials in one variable ``v``.

This is the coefficient ring of the whole package.  The Hecke algebra
parameter is ``q = v**2``, so half-integral powers of ``q`` (which occur in
normalizations like ``q**(l/2)``) are honest monomials here and no rational
arithmetic is ever needed.

>>> q = LaurentPoly.q()
>>> (q - 1) * (q + 1)
LaurentPoly({4: 1, 0: -1})
>>> print((q - 1) * (q + 1))
v^4 - 1
>>> LaurentPoly.v(-3) * LaurentPoly.v(3)
LaurentPoly({0: 1})
"""

from __future__ import annotations

from operator import add

from .rootdata import _same_datum

__all__ = ["LaurentPoly", "ZERO", "ONE", "Q", "QM1", "accumulate",
           "per_coefficient", "CoefficientMap"]


class LaurentPoly:
    """Finitely supported map exponent-of-v -> integer, no zero values stored.

    The constructor takes coefficients that are exactly ints (a bool, a
    float or a Fraction raises TypeError), and arithmetic takes an exact int
    or a LaurentPoly as the other operand.  Internal arithmetic whose dicts
    are already clean sets `c` on a bare instance, unchecked.

    >>> LaurentPoly({0: 2.5})
    Traceback (most recent call last):
    TypeError: coefficient 2.5 is not an int
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {}
        if coeffs:
            for e, n in coeffs.items():
                if type(n) is not int:
                    raise TypeError(f"coefficient {n!r} is not an int")
                if n:
                    self.c[e] = n

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(n: int) -> "LaurentPoly":
        return LaurentPoly({0: n})

    @staticmethod
    def v(exp: int = 1) -> "LaurentPoly":
        return LaurentPoly({exp: 1})

    @staticmethod
    def q(exp: int = 1) -> "LaurentPoly":
        """q = v^2."""
        return LaurentPoly({2 * exp: 1})

    # -- ring structure ----------------------------------------------------

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.c == ({0: other} if other else {})
        if isinstance(other, LaurentPoly):
            return self.c == other.c
        return NotImplemented

    def __hash__(self):
        # a constant hashes like the int it compares equal to, zero like 0
        if self.c.keys() <= {0}:
            return hash(self.c.get(0, 0))
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        res = LaurentPoly.__new__(LaurentPoly)
        res.c = _merge(self.c, other.c)
        return res

    __radd__ = __add__

    def __neg__(self):
        res = LaurentPoly.__new__(LaurentPoly)
        res.c = {e: -n for e, n in self.c.items()}
        return res

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        if len(a) > len(b):
            a, b = b, a
        res = LaurentPoly.__new__(LaurentPoly)
        res.c = _convolve(a, b, add)
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v^k."""
        res = LaurentPoly.__new__(LaurentPoly)
        res.c = {e + k: n for e, n in self.c.items()}
        return res

    # -- queries -----------------------------------------------------------

    def degree(self):
        """Largest exponent of v (None for the zero polynomial)."""
        return max(self.c) if self.c else None

    def coeff(self, exp: int) -> int:
        return self.c.get(exp, 0)

    def is_even(self) -> bool:
        """True iff only even powers of v occur, i.e. the value lies in Z[q, 1/q]."""
        return all(e % 2 == 0 for e in self.c)

    def even_odd_parts(self):
        """Split as E + v*O with E, O even; returns (E, O) as polynomials in v."""
        even = {e: n for e, n in self.c.items() if e % 2 == 0}
        odd = {e - 1: n for e, n in self.c.items() if e % 2}
        return LaurentPoly(even), LaurentPoly(odd)

    def subs_v_power(self, r: int) -> "LaurentPoly":
        """The substitution v -> v^r (so q -> q^r)."""
        if r < 1:
            raise ValueError("r must be >= 1")
        return LaurentPoly({e * r: n for e, n in self.c.items()})

    def eval_q(self, q_value):
        """Evaluate at a numeric q; requires an even polynomial.

        The result is exact (integer or Fraction depending on q_value and
        on negative exponents).
        """
        from fractions import Fraction

        if not self.is_even():
            raise ValueError("odd powers of v present; value is not a "
                             "polynomial in q (half-power of q remains)")
        total = 0
        for e, n in self.c.items():
            k = e // 2
            if k >= 0:
                total += n * q_value ** k
            else:
                total += Fraction(n, q_value ** (-k))
        if isinstance(total, Fraction) and total.denominator == 1:
            return int(total)
        return total

    # -- display -----------------------------------------------------------

    def __repr__(self):
        return f"LaurentPoly({self.c!r})"

    def __str__(self):
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c, reverse=True):
            n = self.c[e]
            if e == 0:
                term = str(abs(n))
            else:
                vpow = "v" if e == 1 else f"v^{e}"
                term = vpow if abs(n) == 1 else f"{abs(n)}*{vpow}"
            sign = "-" if n < 0 else "+"
            parts.append((sign, term))
        sign0, term0 = parts[0]
        out = ("-" if sign0 == "-" else "") + term0
        for sign, term in parts[1:]:
            out += f" {sign} {term}"
        return out


def accumulate(out: dict, key, c):
    """out[key] += c in a sparse dict: absent means zero, zeros are dropped.

    The one rule for sparse sums: `_merge` and `_convolve` (the sums and
    products of `LaurentPoly`, `CoefficientMap` and `SymmetricFunction`)
    and the coefficient sums of `center` and `transfer` go through it, so
    no cancelled coefficient is ever stored.

    >>> d = {}
    >>> accumulate(d, "x", LaurentPoly.v(1))
    >>> accumulate(d, "x", -LaurentPoly.v(1))
    >>> d
    {}
    """
    cur = out.get(key)
    s = c if cur is None else cur + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _merge(a: dict, b: dict) -> dict:
    """The sparse sum of a and b: a copied, then b accumulated into it.
    `LaurentPoly` and `CoefficientMap` add through it."""
    out = dict(a)
    for key, c in b.items():
        accumulate(out, key, c)
    return out


def _convolve(a: dict, b: dict, plus) -> dict:
    """The sparse product of a and b: a[k] * b[l] accumulated at
    plus(k, l), a the outer loop.  `LaurentPoly` multiplies through it
    (exponents add) and `SymmetricFunction` (coweights add).

    >>> _convolve({1: 1, 0: 1}, {1: 1, 0: -1}, add)
    {2: 1, 0: -1}
    """
    out: dict = {}
    for k, c in a.items():
        for l, d in b.items():
            accumulate(out, plus(k, l), c * d)
    return out


def per_coefficient(f):
    """f, computed once per distinct coefficient object it is called on.

    The per-call map is keyed by identity and holds each argument, so no
    id is reused while the map lives; a LaurentPoly is never mutated after
    construction, so one result may serve every term that shares the
    argument.  Bernstein functions have few distinct coefficients (GL(5)
    (2,1,0,0,0): 21 among 701 terms).

    >>> calls = []
    >>> neg = per_coefficient(lambda p: calls.append(p) or -p)
    >>> p = LaurentPoly.v(1)
    >>> neg(p) is neg(p), len(calls)
    (True, 1)
    """
    seen = {}

    def once(c):
        hit = seen.get(id(c))
        if hit is None:
            hit = seen[id(c)] = (c, f(c))
        return hit[1]

    return once


class CoefficientMap:
    """Finitely supported map key -> nonzero LaurentPoly on one root datum.

    A value is a `context` (what its keys belong to: a Hecke algebra, or the
    root datum itself) and its `terms`.  The public constructor applies the
    coefficient rule: an int becomes a LaurentPoly, zeros are dropped, any
    other coefficient raises TypeError.  `_make` takes clean terms as they
    are.  `==`, `+` and `-` raise ValueError on different root data.

    >>> from iwahecke.rootdata import build_root_datum
    >>> rd = build_root_datum("GL", 2)
    >>> f = CoefficientMap(rd, {"a": 2, "b": 0})
    >>> g = CoefficientMap(rd, {"a": LaurentPoly.const(2)})
    >>> f.terms, f == g, hash(f) == hash(g), bool(f - g)
    ({'a': LaurentPoly({0: 2})}, True, True, False)
    >>> CoefficientMap(rd, {"a": 2.5})
    Traceback (most recent call last):
    TypeError: coefficient 2.5 is not an int or a LaurentPoly
    """

    __slots__ = ("context", "terms")

    def __init__(self, context, terms: dict):
        self.context = context
        self.terms = out = {}
        for key, c in terms.items():
            accumulate(out, self._key(key), _coefficient(c))

    @classmethod
    def _make(cls, context, terms: dict):
        self = cls.__new__(cls)
        self.context, self.terms = context, terms
        return self

    def _key(self, key):  # a key from outside, checked, in its stored form
        return key

    def coeff(self, key) -> LaurentPoly:
        return self.terms.get(self._key(key), LaurentPoly())

    def _datum(self):
        return self.context

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, type(self))
                and _same_datum(other._datum(), self._datum())
                and other.terms == self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        _same_datum(self._datum(), other._datum())
        return self._make(self.context, _merge(self.terms, other.terms))

    def __neg__(self):
        return self._map(lambda p: -p)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        """c times this value; a monic monomial v^k shifts exponents."""
        c = _coefficient(c)
        if len(c.c) == 1:
            (k, n), = c.c.items()
            if n == 1:
                return self._map(lambda p: p.shift(k))
        # Z[v, 1/v] has no zero divisors: only c = 0 makes a product zero
        if not c:
            return self._make(self.context, {})
        return self._map(lambda p: c * p)

    def _map(self, f):
        """f applied to every coefficient, once per distinct object."""
        f = per_coefficient(f)
        return self._make(self.context,
                          {key: f(p) for key, p in self.terms.items()})


def _coefficient(c) -> LaurentPoly:
    """c as a coefficient of a CoefficientMap: an int becomes a constant."""
    p = _coerce(c)
    if p is NotImplemented:
        raise TypeError(f"coefficient {c!r} is not an int or a LaurentPoly")
    return p


def _coerce(x):
    """x as a LaurentPoly when it is one or exactly an int (not a bool),
    else NotImplemented, so that a binary operator raises TypeError."""
    if isinstance(x, LaurentPoly):
        return x
    if type(x) is int:
        return LaurentPoly({0: x})
    return NotImplemented


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
Q = LaurentPoly.q()
QM1 = Q - 1
