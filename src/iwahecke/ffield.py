"""
Small finite fields GF(p^r).

Elements are ints in [0, q).  A prime field GF(p) computes with them
directly, `% p`, and has no tables.  For r > 1 an element's base-p digits
(little-endian) are its polynomial's coefficients over GF(p), and add and
mul are lookups in q x q tables, neg in a table of q entries.  add goes
digit by digit, and neg is read off it.  mul fills each row from the
products by powers of x, modulo the first monic x^r + low whose
multiplication table has no zero divisor, as GF(p)[x] / (m) is a field
exactly when m is irreducible.  The tables are built with the field, so
such q are capped where that build still takes well under a second.  Both
kinds of field share one `sub`, a + (-b), and one `inv`, a^(q-2).  The
deep-level evaluators need q in {2, 3, 4, 9} and similar.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["GF"]

_MAX_Q = 4096
# the largest q = p^r, r > 1, whose tables GF builds: GF(2^8) takes about
# 0.1 s on a 2-core x86-64 VM (Python 3.11), GF(2^10) 2.8 s
_MAX_TABLE_Q = 256


def GF(p: int, r: int = 1) -> "_Field":
    """The field of p^r elements, one object per field: GF(p), GF(p, 1)
    and GF(p=p) are the same object, so two fields are equal only when
    they are identical.  p and r must be ints, not bools or floats that
    equal one: the cache would take GF(2.0) for GF(2)."""
    if type(p) is not int or type(r) is not int:
        raise ValueError(f"GF needs int p and r, got {p!r} and {r!r}")
    return _field(p, r)


@lru_cache(maxsize=None)
def _field(p: int, r: int) -> "_Field":
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1 or p ** r > _MAX_Q:
        raise ValueError(f"GF({p}^{r}) is out of supported range")
    if r == 1:
        return _PrimeField(p)
    if p ** r > _MAX_TABLE_Q:
        raise ValueError(f"GF({p}^{r}) is too large: fields with r > 1 "
                         f"use q x q tables and stop at q = {_MAX_TABLE_Q}")
    return _Field(p, r)


def _field_of_size(q: int) -> "_Field":
    """GF(p, r) for q = p^r.  The range is checked first, as trial
    division takes time linear in q."""
    if not 2 <= q <= _MAX_Q:
        raise ValueError(f"q = {q} is out of supported range 2..{_MAX_Q}")
    p = next(d for d in range(2, q + 1) if q % d == 0)  # least, so prime
    m, r = q, 0
    while m % p == 0:
        m, r = m // p, r + 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return GF(p, r)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class _Field:
    """GF(p^r), r > 1, by add, mul and neg tables.

    An element's base-p digits, little-endian, are the coefficients of a
    polynomial of degree < r over GF(p), taken modulo the monic `modulus`
    x^r + low(x); the attribute holds low's r coefficients.
    """

    def __init__(self, p: int, r: int):
        self.p = p
        self.r = r
        self.q = p ** r
        self._build_tables()

    def _build_tables(self):
        """add digit by digit, neg off it, then mul row by row, for the first
        low, in the order of the int its digits spell, whose quotient
        GF(p)[x] / (x^r + low) has no zero divisor, and so is a field: a
        reducible modulus f g has a factor f of degree <= r/2, whose row
        holds the zero f g off column 0."""
        p, r, q = self.p, self.r, self.q
        digit = [p ** i for i in range(r)]
        add = self.add_table = [
            [sum((a // w + b // w) % p * w for w in digit) for b in range(q)]
            for a in range(q)]
        neg = self.neg_table = [row.index(0) for row in add]
        lowest = [0] * q  # the place of b's lowest nonzero digit
        for b in range(p, q):
            lowest[b] = lowest[b // p] + 1 if b % p == 0 else 0

        def row(a, low):
            # a x^k for k < r: a shifted up one digit, its top digit c
            # folded back as -c low, as x^r = -low
            shifts = [a]
            for _ in range(1, r):
                c, v = divmod(shifts[-1], digit[-1])
                v *= p
                for _ in range(c):
                    v = add[v][neg[low]]
                shifts.append(v)
            out = [0] * q  # a b = a (b - p^k) + a x^k, k = lowest[b]
            for b in range(1, q):
                k = lowest[b]
                out[b] = add[out[b - digit[k]]][shifts[k]]
            return out

        low = next(low for low in range(q) if all(
            row(a, low).count(0) == 1 for a in range(1, p ** (r // 2 + 1))))
        self.modulus = tuple(low // w % p for w in digit)
        self.mul_table = [row(a, low) for a in range(q)]

    # -- public ops ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        """a^(q-2), which is a^(-1) as a^(q-1) = 1 for a != 0; 0 has no
        inverse."""
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.pow(a, self.q - 2)

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            a, n = self.inv(a), -n
        out = 1
        while n:
            if n & 1:
                out = self.mul_table[out][a]
            a = self.mul_table[a][a]
            n >>= 1
        return out

    def norm_to_prime(self, a: int) -> int:
        """Norm GF(p^r) -> GF(p): a -> a^(1 + p + ... + p^(r-1))."""
        return self.pow(a, (self.q - 1) // (self.p - 1))

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"GF({self.p}^{self.r})" if self.r > 1 else f"GF({self.p})"


class _PrimeField(_Field):
    """GF(p): the ints 0..p-1 with arithmetic mod p, and no tables."""

    def __init__(self, p: int):
        self.p = self.q = p
        self.r = 1

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            a, n = self.inv(a), -n
        return pow(a, n, self.p)
