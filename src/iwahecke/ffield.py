"""
Small finite fields GF(p^r).

Elements are ints in [0, q).  A prime field GF(p) computes with them
directly, `% p`, and has no tables.  For r > 1 an element's base-p digits
(little-endian) are its polynomial's coefficients over GF(p), modulo the
first monic x^r + low whose quotient has no zero divisor, as GF(p)[x] / (m)
is a field exactly when m is irreducible.  Such a field keeps O(q) data:
the byte tables that split an element into its digits, the digits of x^s
for r <= s < 2r - 1, and the log, exp and Zech-log lists of one generator
of its units.  The 2r - 1 digit planes of a product, of the q elements
at once or of the sub-slots of one `series.product_grid` multiply, are
folded by x^r = -low in one place, `_fold`; the field's own add, neg, mul
and pow are a few list lookups.  An element fills one byte slot of the
folded planes, so q stops at 256 for r > 1.
Both kinds of field share one `sub`, a + (-b), and one `inv`, a^(q-2).
The deep-level evaluators need q in {2, 3, 4, 9} and similar.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import cache, lru_cache
from itertools import accumulate

__all__ = ["GF"]

_ORDER = sys.byteorder

_MAX_Q = 4096
# the largest q = p^r, r > 1: series.product_grid holds an element of such
# a field in one byte slot, and its digit tables cover the 256 byte values
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
    # the bounds first, as trial division takes time in sqrt(p) and p ** r
    # time and memory in r; r >= _MAX_Q.bit_length() gives p^r > _MAX_Q
    if p > _MAX_Q or r >= _MAX_Q.bit_length():
        raise ValueError(f"GF({p}^{r}) is out of supported range")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1 or p ** r > _MAX_Q:
        raise ValueError(f"GF({p}^{r}) is out of supported range")
    if r == 1:
        return _PrimeField(p)
    if p ** r > _MAX_TABLE_Q:
        raise ValueError(f"GF({p}^{r}) is too large: for r > 1 an element "
                         f"is one byte slot, so q stops at {_MAX_TABLE_Q}")
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
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


class _Field:
    """GF(p^r), r > 1, on the base-p digits of its elements.

    An element's base-p digits, little-endian, are the coefficients of a
    polynomial of degree < r over GF(p), taken modulo the monic `modulus`
    x^r + low(x); the attribute holds low's r coefficients.  `digits` and
    `fold` serve `_fold` and `series.product_grid`; mul, neg and pow read
    the exp list at a sum of logs, and add at log a plus the Zech log of
    log b - log a.
    """

    def __init__(self, p: int, r: int):
        self.p, self.r, self.q = p, r, p ** r
        self._build_tables()

    def _build_tables(self):
        """The field's O(q) data.  `digits[d]` takes a byte to its digit
        d, for bytes.translate, and `fold[d]` holds digit d of each x^s,
        r <= s < 2r - 1, modulo x^r + low, for the first low, in the order
        of the int its digits spell, whose quotient GF(p)[x] / (x^r + low)
        has no zero divisor, and so is a field: a reducible modulus f g has
        a factor f of degree <= r/2, whose row of products a b, formed by
        `_fold` for every b at once, holds the zero f g off column 0.  The
        row of a generator g of the q - 1 units walks its powers, the exp
        list, and log inverts it; `_zech[k]` is log(1 + g^k).  log 0 points
        past the powers into zeros, so a product or sum that is 0 reads 0
        there."""
        p, r, q = self.p, self.r, self.q
        self.digits = [bytes(c // p ** d % p for c in range(256))
                       for d in range(r)]

        every = [int.from_bytes(bytes(range(q)).translate(t), _ORDER)
                 for t in self.digits]  # the digit planes of 0, 1, ..., q-1

        def row(a):  # a b for every element b, as q bytes; each digit
            # product is reduced before the sum, as r (p-1)^2 can pass 255
            return self._fold([_mod(sum(
                _mod(t[a] * every[s - i], p, q) for i, t in enumerate(
                    self.digits) if 0 <= s - i < r), p, q)
                for s in range(2 * r - 1)], q)

        for low in range(q):
            self.modulus = tuple(t[low] for t in self.digits)
            x_r = [-c % p for c in self.modulus]  # x^r = -low
            # x^(s+1) = x x^s: x^s shifted up a digit, its top one folded
            self.fold = list(zip(*accumulate(range(r - 2), lambda x_s, _: [
                (a + x_s[-1] * b) % p for a, b in zip([0] + x_s[:-1], x_r)],
                initial=x_r)))
            if all(row(a).count(0) == 1 for a in range(1, p ** (r // 2 + 1))):
                break
        for g in range(p, q):  # below p, the order divides p - 1
            times_g = row(g)
            exp = list(accumulate(range(q - 2), lambda e, _: times_g[e],
                                  initial=1))
            if len(set(exp)) == q - 1:
                break
        # log[e] is the k with exp[k] = e, as exp holds 1..q-1 once each
        log = self._log = [2 * q - 2] + sorted(range(q - 1),
                                               key=exp.__getitem__)
        self._exp = exp + exp + [0] * (2 * q - 1)
        self._zech = [log[e - e % p + (e + 1) % p] for e in exp]

    def _fold(self, planes, n: int) -> bytes:
        """The n element slots, one byte each, of a product over GF(p^r)
        from its 2r - 1 digit planes P_s = sum over i + j = s of X_i Y_j,
        each an int of n 1-byte slots below p: the planes s >= r fold into
        the r below as x^s = sum_d fold[d][s - r] x^d, a slot reaching at
        most (p-1) + (r-1)(p-1)^2 <= 156 for q <= 256, each of the r
        planes is reduced mod p again, and a slot's element is
        sum_d p^d plane_d, below q with no carry."""
        p, high = self.p, planes[self.r:]
        out = 0
        for d, x_d in enumerate(self.fold):
            out += p ** d * _mod(planes[d] + sum(map(operator.mul, x_d, high)),
                                 p, n)
        return out.to_bytes(n, _ORDER)

    # -- public ops ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """a + b = g^(log a) (1 + g^(log b - log a))."""
        if not a or not b:
            return a or b
        log = self._log
        return self._exp[log[a] + self._zech[log[b] - log[a]]]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        return self._exp[self._log[a] + self._log[self.p - 1]]

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        """a^(q-2), which is a^(-1) as a^(q-1) = 1 for a != 0; 0 has no
        inverse."""
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.pow(a, self.q - 2)

    def pow(self, a: int, n: int) -> int:
        """a^n for every int n; 0 to a negative power is a
        ZeroDivisionError."""
        return self._exp[self._log[a] * n % (self.q - 1)] if a else 0 ** n

    def norm_to_prime(self, a: int) -> int:
        """Norm GF(p^r) -> GF(p): a -> a^(1 + p + ... + p^(r-1))."""
        return self.pow(a, (self.q - 1) // (self.p - 1))

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"GF({self.p}^{self.r})" if self.r > 1 else f"GF({self.p})"


@cache
def _residues(p: int) -> bytes:
    """The table taking a byte to its residue mod p, for bytes.translate."""
    return bytes(c % p for c in range(256))


def _mod(v: int, p: int, n: int) -> int:
    """The int v of n 1-byte slots with each slot reduced mod p."""
    return int.from_bytes(v.to_bytes(n, _ORDER).translate(_residues(p)),
                          _ORDER)


class _PrimeField(_Field):
    """GF(p): the ints 0..p-1 with arithmetic mod p, and no tables."""

    def __init__(self, p: int):
        self.p, self.q, self.r = p, p, 1

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
