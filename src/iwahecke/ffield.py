"""
Small finite fields GF(p^r).

Elements are ints in [0, q).  A prime field GF(p) computes with them
directly, `% p`, and has no tables.  For r > 1 an element encodes its
polynomial coefficients base p (little-endian) over GF(p), modulo a monic
irreducible found by search; add and mul are lookups in q x q tables and
neg in a table of q entries, all built with the field, so such q are
capped where that build still takes well under a second.  Both kinds of
field share one `sub`, a + (-b), and one `inv`, a^(q-2).  The deep-level
evaluators need q in {2, 3, 4, 9} and similar.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["GF"]

_MAX_Q = 4096
# the largest q = p^r, r > 1, whose tables GF builds: GF(2^8) takes about
# 0.4 s on a 2-core x86-64 VM (Python 3.11), GF(2^10) 9 s
_MAX_TABLE_Q = 256


def GF(p: int, r: int = 1) -> "_Field":
    """The field of p^r elements, one object per field: GF(p), GF(p, 1)
    and GF(p=p) are the same object, so two fields are equal only when
    they are identical."""
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
    """GF(p^r), r > 1, by add, mul and neg tables."""

    def __init__(self, p: int, r: int):
        self.p = p
        self.r = r
        self.q = p ** r
        self.modulus = self._find_irreducible()
        self._build_tables()

    # polynomials over GF(p) as little-endian coefficient tuples
    def _poly_mul_mod(self, a, b):
        p, r = self.p, self.r
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
        # reduce modulo the monic irreducible
        m = self.modulus
        for i in range(len(out) - 1, r - 1, -1):
            c = out[i]
            if c:
                out[i] = 0
                for j in range(r):
                    out[i - r + j] = (out[i - r + j] - c * m[j]) % p
        return tuple(out[:r]) + (0,) * (r - len(out[:r]))

    def _find_irreducible(self):
        p, r = self.p, self.r
        # monic x^r + lower; irreducible iff no monic factor of degree <= r/2
        def polys(deg):
            for n in range(p ** deg):
                coeffs = []
                m = n
                for _ in range(deg):
                    coeffs.append(m % p)
                    m //= p
                yield tuple(coeffs) + (1,)

        def divides(d, f):
            f = list(f)
            while len(f) >= len(d) and any(f):
                while f and f[-1] == 0:
                    f.pop()
                if len(f) < len(d):
                    break
                c = f[-1]
                shift = len(f) - len(d)
                for i, x in enumerate(d):
                    f[shift + i] = (f[shift + i] - c * x) % p
            return not any(f)

        for cand in polys(r):
            if cand[0] == 0:
                continue  # divisible by x
            if all(not divides(d, cand)
                   for deg in range(1, r // 2 + 1) for d in polys(deg)):
                return cand[:r]  # store the low coefficients of the monic
        raise AssertionError("no irreducible polynomial found")

    def _encode(self, coeffs) -> int:
        n = 0
        for c in reversed(coeffs):
            n = n * self.p + (c % self.p)
        return n

    def _decode(self, n: int):
        out = []
        for _ in range(self.r):
            out.append(n % self.p)
            n //= self.p
        return tuple(out)

    def _build_tables(self):
        q = self.q
        self.add_table = [[0] * q for _ in range(q)]
        self.mul_table = [[0] * q for _ in range(q)]
        for a in range(q):
            pa = self._decode(a)
            for b in range(a, q):
                pb = self._decode(b)
                s = self._encode([(x + y) % self.p for x, y in zip(pa, pb)])
                self.add_table[a][b] = self.add_table[b][a] = s
                m = self._encode(self._poly_mul_mod(pa, pb))
                self.mul_table[a][b] = self.mul_table[b][a] = m
        p = self.p
        self.neg_table = [self._encode([-x % p for x in self._decode(a)])
                          for a in range(q)]

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

    def units(self):
        return range(1, self.q)

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
