"""
Formal Laurent series over a finite field with explicit precision tracking.

This models the local field F_q((t)) of the deep-level evaluators: a series
is either *exact* (a genuine Laurent polynomial, known at every order) or
tracked up to an absolute precision `prec` (coefficients of t^k known for
k < prec only).  Every arithmetic operation propagates the correct precision;
valuation queries answer True/False when decidable and None when the tracked
precision cannot decide, so callers (the evaluators) can fail loudly rather
than guess.

Representation invariants: `coeffs` has no leading or trailing zeros and
covers t^val .. t^(val + len - 1); a series with no known-nonzero coefficient
has val=None (exact -> the true zero; inexact -> zero modulo t^prec).

Arithmetic is dense over a prime field GF(p) (`field.r == 1`), whose
elements are the ints 0..p-1: a sum adds the two aligned coefficient
windows as ints and reduces mod p once, and a product is one big-int
multiply by Kronecker substitution, reduced mod p once per coefficient.
Over GF(p^r) with r > 1 the same loops look sums and products up in the
field's `add_table` and `mul_table`.  The precision rule is the same for
both: a sum is known below the smaller precision, and a product below
min(val a + prec b, val b + prec a), an unknown zero O(t^k) counting k as
its valuation.

`product_grid(xs, ys, xs2, ys2)` gives the two-term bilinear form
x * y + x2 * y2 at every pair of indices at once, as rows (without xs2
and ys2, every product x * y).  Over GF(p) it is one Kronecker multiply
per product for the whole grid: each x sits in its own block of slots,
wide enough for any product, the ys sit at strides of len(xs) blocks, so
block i + j len(xs) of the big product holds cell (i, j); the factors of
both products sit at their offsets from the smallest valuation of their
side, so the two big products add slot by slot.  Each cell equals
x * y + x2 * y2, precision included, and is read straight from its slots.
A 2x2 `Matrix2` product is one such grid.

>>> from iwahecke.ffield import GF
>>> f = GF(3)
>>> a = TruncatedSeries(f, 0, [1, 1, 1], prec=3)    # 1 + t + t^2 + O(t^3)
>>> b = TruncatedSeries.monomial(f, 2)              # t^2, exact
>>> a + b
<1*t^0 + 1*t^1 + 2*t^2 + O(t^3)>
>>> a * b
<1*t^2 + 1*t^3 + 1*t^4 + O(t^5)>
>>> (a - a).valuation() is None                     # zero modulo t^3 only
True
>>> product_grid([a, b], [b, a]) == [[a * b, a * a], [b * b, b * a]]
True
>>> product_grid([a], [b], [b], [a]) == [[a * b + b * a]]
True
>>> f4 = GF(2, 2)                                   # the table path
>>> c = TruncatedSeries(f4, 0, [1, 2])              # 1 + x t, x^2 = x + 1
>>> c * c
<1*t^0 + 3*t^2>
"""

from __future__ import annotations

import functools
import itertools
import sys
from array import array

__all__ = ["TruncatedSeries", "Matrix2", "product_grid"]


class TruncatedSeries:
    __slots__ = ("field", "val", "coeffs", "prec")

    def __init__(self, field, val, coeffs, prec=None):
        """The series sum of coeffs[k] t^(val + k), known below `prec`
        (None: exact).  One scan keeps the window from the first to the
        last nonzero coefficient below `prec`."""
        self.field = field
        coeffs = tuple(coeffs)
        end = len(coeffs)
        if prec is not None and val + end > prec:
            end = max(0, prec - val)
        while end and not coeffs[end - 1]:
            end -= 1
        start = 0
        while start < end and not coeffs[start]:
            start += 1
        if start < end:
            self.val = val + start
            self.coeffs = coeffs[start:end]
        else:
            self.val = None
            self.coeffs = ()
        self.prec = prec

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(field, prec=None) -> "TruncatedSeries":
        return TruncatedSeries(field, 0, (), prec)

    @staticmethod
    def one(field, prec=None) -> "TruncatedSeries":
        return TruncatedSeries(field, 0, (1,), prec)

    @staticmethod
    def monomial(field, k: int, coeff: int = 1, prec=None) -> "TruncatedSeries":
        return TruncatedSeries(field, k, (coeff,), prec)

    @property
    def exact(self) -> bool:
        return self.prec is None

    def truncate(self, prec: int) -> "TruncatedSeries":
        newp = prec if self.prec is None else min(self.prec, prec)
        return TruncatedSeries(self.field, self.val or 0, self.coeffs, newp)

    # -- queries -------------------------------------------------------------

    def coeff_at(self, k: int):
        """Coefficient of t^k, or None when k is beyond tracked precision."""
        if self.prec is not None and k >= self.prec:
            return None
        if self.val is None:
            return 0
        if k < self.val or k >= self.val + len(self.coeffs):
            return 0
        return self.coeffs[k - self.val]

    def val_ge(self, k: int):
        """Is val >= k?  True/False, or None when undecidable at precision."""
        if self.val is not None:
            return self.val >= k
        if self.prec is None:
            return True  # exact zero
        return True if self.prec >= k else None

    def resolve_val_below(self, bound: int):
        """('lt', v) when the valuation v < bound is pinned; 'ge' when
        val >= bound is certain; None when precision cannot decide."""
        if self.val is not None:
            return ("lt", self.val) if self.val < bound else "ge"
        if self.prec is None or self.prec >= bound:
            return "ge"
        return None

    def valuation(self):
        """Exact valuation: int, 'inf' for the exact zero, None undecidable."""
        if self.val is not None:
            return self.val
        return "inf" if self.prec is None else None

    def is_known_zero(self) -> bool:
        return self.val is None and self.prec is None

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if other.field is not self.field:
            raise ValueError("series over different fields")

    def _add(self, other, negate):
        """self + other, or self - other when `negate`: the two coefficient
        windows are aligned and combined slot by slot."""
        self._check(other)
        f = self.field
        prec = _min_prec(self.prec, other.prec)
        va, vb = self.val, other.val
        a, b = self.coeffs, other.coeffs
        if vb is None:
            if va is None:
                return TruncatedSeries(f, 0, (), prec)
            vb = va  # an empty window may sit anywhere
        elif va is None:
            va = vb
        prime = f.r == 1
        if negate:  # over GF(p), p - y is reduced with the sum below
            b = [f.p - y for y in b] if prime else [f.neg_table[y] for y in b]
        if vb < va:
            a, va, b, vb = b, vb, a, va
        out = list(a)
        off = vb - va
        out += [0] * (off + len(b) - len(out))
        if prime:
            for k, y in enumerate(b, off):
                out[k] += y
            p = f.p
            out = [c % p for c in out]
        else:
            add_t = f.add_table
            for k, y in enumerate(b, off):
                out[k] = add_t[out[k]][y]
        return TruncatedSeries(f, va, out, prec)

    def __add__(self, other):
        return self._add(other, False)

    def __sub__(self, other):
        return self._add(other, True)

    def __neg__(self):
        f = self.field
        if f.r == 1:
            p = f.p
            out = [-c % p for c in self.coeffs]
        else:
            neg = f.neg_table
            out = [neg[c] for c in self.coeffs]
        return TruncatedSeries(f, self.val or 0, out, self.prec)

    def __mul__(self, other):
        self._check(other)
        f = self.field
        if self.is_known_zero() or other.is_known_zero():
            return TruncatedSeries(f, 0, ())  # exactly zero times anything
        prec = _mul_prec(self, other)
        if self.val is None or other.val is None:
            # a factor with no known coefficient: product has none either
            return TruncatedSeries(f, 0, (), prec)
        a, b = self.coeffs, other.coeffs
        if f.r == 1:
            out = _kronecker(a, b, f.p)
        else:
            out = [0] * (len(a) + len(b) - 1)
            add_t, mul_t = f.add_table, f.mul_table
            for i, x in enumerate(a):
                if x:
                    row = mul_t[x]
                    for k, y in enumerate(b, i):
                        out[k] = add_t[out[k]][row[y]]
        return TruncatedSeries(f, self.val + other.val, out, prec)

    def scale(self, c: int) -> "TruncatedSeries":
        f = self.field
        if c == 0:
            return TruncatedSeries(f, 0, ())  # exact: 0 * unknown = 0
        if f.r == 1:
            p = f.p
            out = [c * x % p for x in self.coeffs]
        else:
            row = f.mul_table[c]
            out = [row[x] for x in self.coeffs]
        return TruncatedSeries(f, self.val or 0, out, self.prec)

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and other.field is self.field and other.val == self.val
                and other.coeffs == self.coeffs and other.prec == self.prec)

    def __hash__(self):
        return hash((self.val, self.coeffs, self.prec))

    def __repr__(self):
        if self.val is None:
            body = "0"
        else:
            body = " + ".join(f"{c}*t^{self.val + i}"
                              for i, c in enumerate(self.coeffs) if c)
        tail = "" if self.prec is None else f" + O(t^{self.prec})"
        return f"<{body}{tail}>"


_ORDER = sys.byteorder
# (exclusive bound, width in bytes, array typecode) for each slot width
_SLOTS = sorted((1 << 8 * array(code).itemsize, array(code).itemsize, code)
                for code in "BHIQ")


def _slot(top: int):
    """(width in bytes, array typecode) of the narrowest slot holding top."""
    for bound, width, code in _SLOTS:
        if top < bound:
            return width, code
    raise OverflowError("coefficient too large for an 8-byte slot")


def _kronecker(a, b, p: int) -> list:
    """The product of two coefficient sequences over GF(p), by Kronecker
    substitution (Harvey, J. Symb. Comp. 2009): each sequence is packed
    into one int, one slot per coefficient, the two ints are multiplied
    once, and the slots of the product are read back and reduced mod p.

    A slot must hold a raw coefficient of the product, at most
    min(len a, len b) (p-1)^2, so it is the narrowest of 1, 2, 4 and 8
    bytes that does; 8 bytes hold it for any p that GF allows.
    """
    width, code = _slot(min(len(a), len(b)) * (p - 1) ** 2)
    x = int.from_bytes(array(code, a), _ORDER) * \
        int.from_bytes(array(code, b), _ORDER)
    slots = array(code, x.to_bytes(width * (len(a) + len(b) - 1), _ORDER))
    return [c % p for c in slots]


def product_grid(xs, ys, xs2=None, ys2=None) -> list:
    """The bilinear form x * y + x2 * y2 at every pair of indices, as
    rows: product_grid(xs, ys, xs2, ys2)[i][j] == xs[i] * ys[j] +
    xs2[i] * ys2[j], val, coeffs and prec alike.  Without xs2 and ys2
    the cells are the products xs[i] * ys[j].

    Over GF(p) one Kronecker multiply per product forms every cell.  On
    each side a factor is packed at its offset val - base from the
    smallest known valuation `base` of that side, so the two products of
    a cell land in the same slots, and the two big products are added.
    Each x takes its own block of slots, wide enough for any product, and
    the ys sit at strides of len(xs) blocks, so block i + j len(xs) holds
    cell (i, j) and no two cells meet in a slot.  A slot holds at most
    min(len x, len y) (p-1)^2 from each product, as in `_kronecker`, so
    twice that for the pair.  The slots are reduced mod p once, and a
    cell is read straight from the slots its factors can reach: the
    constructor keeps the first to the last nonzero one below the cell's
    precision, the smaller of its two products' precisions by the rule
    of `*` (an exact-zero factor makes its product exact).  Over GF(p^r),
    r > 1, each cell is formed by `*` and `+`.
    """
    if not xs or not ys:
        return [[] for _ in xs]
    f = xs[0].field
    if xs2 is None and ys2 is None:  # x * y + 0 * 0
        zero = TruncatedSeries.zero(f)
        xs2, ys2 = [zero] * len(xs), [zero] * len(ys)
    elif xs2 is None or ys2 is None or len(xs2) != len(xs) \
            or len(ys2) != len(ys):
        raise ValueError("the two product grids differ in shape")
    if f.r > 1:  # `*` and `+` check the fields
        return [[x * y + x2 * y2 for y, y2 in zip(ys, ys2)]
                for x, x2 in zip(xs, xs2)]
    if any(s.field is not f for s in itertools.chain(xs, ys, xs2, ys2)):
        raise ValueError("series over different fields")
    p = f.p
    base_x, rows, lx, lx2 = _side(xs, xs2)
    base_y, cols, ly, ly2 = _side(ys, ys2)
    block = max(0, max(hi for _, hi, *_ in rows)
                + max(hi for _, hi, *_ in cols) - 1)
    stride = len(xs) * block
    m, m2 = min(lx, ly), min(lx2, ly2)
    width, code = _slot((m + m2) * (p - 1) ** 2)
    total = 0
    for xs_, ys_, m_ in ((xs, ys, m), (xs2, ys2, m2)):
        if m_:  # else a side has no known coefficient: the product is 0
            total += _packed(xs_, base_x, block, width, code) * \
                _packed(ys_, base_y, stride, width, code)
    raw = total.to_bytes(width * len(ys) * stride, _ORDER)
    slots = raw.translate(_residues(p)) if width == 1 else \
        [c % p for c in array(code, raw)]
    base = base_x + base_y
    grid = []
    for i, (lo_x, hi_x, v, r, v2, r2) in enumerate(rows):
        row = []
        for j, (lo_y, hi_y, w, s, w2, s2) in enumerate(cols):
            prec = min(v + s, w + r, v2 + s2, w2 + r2)
            at = i * block + j * stride
            row.append(TruncatedSeries(
                f, base + lo_x + lo_y,
                slots[at + lo_x + lo_y:at + hi_x + hi_y - 1]
                if hi_x and hi_y else (),
                None if prec == _INF else prec))
        grid.append(row)
    return grid


def _side(side, side2):
    """One side of a grid: the smallest known valuation `base`; at each
    index the slots [lo, hi) its two factors take when packed at their
    offsets val - base ((0, 0) when neither has a known coefficient)
    and their `_prec_ends`; and the longest factor of each list."""
    vals = [s.val for s in itertools.chain(side, side2) if s.val is not None]
    base = min(vals) if vals else 0
    out = []
    for s, s2 in zip(side, side2):
        lo, hi = _INF, 0
        for t in (s, s2):
            if t.val is not None:
                lo = min(lo, t.val - base)
                hi = max(hi, t.val - base + len(t.coeffs))
        out.append((lo if hi else 0, hi) + _prec_ends(s) + _prec_ends(s2))
    return (base, out, max(len(s.coeffs) for s in side),
            max(len(s.coeffs) for s in side2))


def _packed(series, base, step, width, code) -> int:
    """One int holding the coefficients of series[k] from slot
    k step + (val - base) on, in slots of `width` bytes."""
    total = 0
    for k, s in enumerate(series):
        if s.val is not None:
            total |= int.from_bytes(array(code, s.coeffs), _ORDER) << \
                8 * width * (k * step + s.val - base)
    return total


@functools.cache
def _residues(p: int) -> bytes:
    """The table taking a byte to its residue mod p, for bytes.translate."""
    return bytes(c % p for c in range(256))


def _min_prec(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


_INF = float("inf")


def _prec_ends(s: TruncatedSeries):
    """(v, r) with x * y known below min(v_x + r_y, v_y + r_x): r is the
    precision, inf when exact, and v the valuation, an unknown zero
    O(t^k) counting k.  So the exact zero, O(t^inf), makes every product
    with it exact."""
    r = _INF if s.prec is None else s.prec
    return (r if s.val is None else s.val), r


def _mul_prec(x: TruncatedSeries, y: TruncatedSeries):
    """The precision of x * y from the factors' val and prec alone:
    min(val x + prec y, val y + prec x), an unknown-zero factor O(t^k)
    counting k as its valuation; None when the product is exact."""
    if x.prec is None and y.prec is None:
        return None
    vx, rx = _prec_ends(x)
    vy, ry = _prec_ends(y)
    prec = min(vx + ry, vy + rx)
    return None if prec == _INF else prec


class Matrix2:
    """A 2x2 matrix of truncated series (the deep-level GL_2 model)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    @property
    def field(self):
        return self.a.field

    @property
    def entries(self):
        return (self.a, self.b, self.c, self.d)

    @staticmethod
    def identity(field, prec=None) -> "Matrix2":
        one = TruncatedSeries.one(field, prec)
        zero = TruncatedSeries.zero(field, prec)
        return Matrix2(one, zero, zero, one)

    def __mul__(self, other):
        if not isinstance(other, Matrix2):
            return NotImplemented
        (a, b), (c, d) = product_grid([self.a, self.c], [other.a, other.b],
                                      [self.b, self.d], [other.c, other.d])
        return Matrix2(a, b, c, d)

    def __add__(self, other):
        return Matrix2(self.a + other.a, self.b + other.b,
                       self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        return Matrix2(self.a - other.a, self.b - other.b,
                       self.c - other.c, self.d - other.d)

    def scale(self, s: TruncatedSeries) -> "Matrix2":
        return Matrix2(s * self.a, s * self.b, s * self.c, s * self.d)

    def det(self) -> TruncatedSeries:
        return self.a * self.d - self.b * self.c

    def trace(self) -> TruncatedSeries:
        return self.a + self.d

    def truncate(self, prec: int) -> "Matrix2":
        return Matrix2(*(e.truncate(prec) for e in self.entries))

    def __eq__(self, other):
        return isinstance(other, Matrix2) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Matrix2[{self.a}, {self.b}; {self.c}, {self.d}]"
