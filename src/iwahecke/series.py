"""
Formal Laurent series over a finite field with explicit precision tracking.

This models the local field F_q((t)) of the deep-level evaluators: a series
is either *exact* (a genuine Laurent polynomial, known at every order) or
tracked up to an absolute precision `prec` (coefficients of t^k known for
k < prec only).  Every arithmetic operation propagates the correct precision;
valuation queries answer True/False when decidable and None when the tracked
precision cannot decide, so callers (the evaluators) can fail loudly rather
than guess.

Representation invariants: `coeffs` is a tuple of field elements, the ints
0..q-1, with no leading or trailing zeros, and covers t^val ..
t^(val + len - 1); a series with no known-nonzero coefficient has val=None
(exact -> the true zero; inexact -> zero modulo t^prec).  The constructor,
`monomial` and `scale` refuse any other coefficient with ValueError, since
a Kronecker slot would carry it into its neighbour, and the constructor,
`zero`, `one`, `monomial` and `truncate` refuse a `val` or `prec` that is
not an int; arithmetic builds its results without those checks, their
coefficients being elements and their exponents ints by construction.

A sum aligns the two coefficient windows and combines them slot by slot:
over a prime field GF(p) (`field.r == 1`), whose elements are the ints
0..p-1, as ints reduced mod p once, and over GF(p^r) with r > 1 by the
field's `add`, coefficient by coefficient.  A difference first negates
the second window by `_negated`, the one negation rule, which `-` uses
too.  A sum is known below the smaller precision.

Every product is a cell of `product_grid(xs, ys, xs2, ys2)`, which gives
the two-term bilinear form x * y + x2 * y2 at every pair of indices at
once, as rows (without xs2 and ys2, every product x * y): `*` is a 1x1
grid, `scale(c)` a 1x1 grid against the exact constant c, a 2x2
`Matrix2` product a 2x2 grid and its determinant the one cell
a d + (-b) c.  So the zero rules and the precision rule of a product are
written once: a product is known below min(val a + prec b, val b +
prec a), an unknown zero O(t^k) counting k as its valuation, and the
exact zero makes every product with it exact.

The grid lays its products out as one Kronecker substitution (Harvey, J.
Symb. Comp. 2009): each x sits in its own block of slots, wide enough
for any product, the ys sit at strides of len(xs) blocks, so block
i + j len(xs) of the big product holds cell (i, j); the factors of both
products sit at their offsets from the smallest valuation of their side,
so the two big products add slot by slot.  Over every field the slots
are one big-int multiply per product, reduced mod p once.  Over GF(p^r)
the substitution nests: each slot is 2r - 1 sub-slots, digit d of its
element, a base-p digit, in sub-slot d, so the one multiply leaves the
product plane sum_{i+j=s} X_i Y_j of the digit planes in sub-slot s,
and the planes, read back as every (2r - 1)-th sub-slot, are folded by
x^r = -low and recombined into one element a byte
(`ffield._Field._fold`).  A cell is a window of the slots cut at
its precision.  When a slot fits in one byte, as a GF(p^r) element
always does, the reduced slots are one `bytes` object, and a cell is a
slice of it with its zero bytes stripped from both ends; only the
pairing of a row with a column, the precision rule and the cell object
itself are left to Python.

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
>>> f4 = GF(2, 2)                                   # three sub-slots
>>> c = TruncatedSeries(f4, 0, [1, 2])              # 1 + x t, x^2 = x + 1
>>> c * c
<1*t^0 + 3*t^2>
"""

from __future__ import annotations

import sys
from array import array
from operator import add, sub

from .ffield import _ORDER, _residues

__all__ = ["TruncatedSeries", "Matrix2", "product_grid"]


class TruncatedSeries:
    __slots__ = ("field", "val", "coeffs", "prec")

    def __init__(self, field, val, coeffs, prec=None):
        """The series sum of coeffs[k] t^(val + k), known below `prec`
        (None: exact).  Each coefficient is an element of `field`, an int
        in range(q), and val and prec are ints; anything else is a
        ValueError."""
        coeffs = tuple(coeffs)
        _check_elements(field, coeffs)
        _check_exponent(val)
        if prec is not None:
            _check_exponent(prec)
        self._fill(field, val, coeffs, prec)

    def _fill(self, field, val, coeffs: tuple, prec):
        """The constructor without its range check, for coefficients in
        range by construction: one scan keeps the window from the first to
        the last nonzero coefficient below `prec`."""
        self.field = field
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
        _check_exponent(prec)
        return _series(self.field, self.val or 0, self.coeffs,
                       _min_prec(self.prec, prec))

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
        """Is val >= k?  The one precision question of the deep level.
        True or False when precision decides it; a False answer pins the
        valuation, `.val`, below k.  None only for an unknown zero O(t^p)
        with p < k, whose valuation could lie on either side of k."""
        if self.val is not None:
            return self.val >= k
        if self.prec is None:
            return True  # exact zero
        return True if self.prec >= k else None

    def valuation(self):
        """Exact valuation: int, 'inf' for the exact zero, None undecidable."""
        if self.val is not None:
            return self.val
        return "inf" if self.prec is None else None

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if other.field is not self.field:
            raise ValueError("series over different fields")

    def _add(self, other, negate):
        """self + other, or self - other when `negate`: the two coefficient
        windows are aligned and combined slot by slot."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        f = self.field
        prec = _min_prec(self.prec, other.prec)
        va, vb = self.val, other.val
        a, b = self.coeffs, other.coeffs
        if vb is None:
            if va is None:
                return _series(f, 0, (), prec)
            vb = va  # an empty window may sit anywhere
        elif va is None:
            va = vb
        if negate:
            b = _negated(f, b)
        if vb < va:
            a, va, b, vb = b, vb, a, va
        out = list(a)
        off = vb - va
        out += [0] * (off + len(b) - len(out))
        if f.r == 1:
            for k, y in enumerate(b, off):
                out[k] += y
            p = f.p
            out = [c % p for c in out]
        else:
            out[off:off + len(b)] = map(f.add, out[off:off + len(b)], b)
        return _series(f, va, out, prec)

    def __add__(self, other):
        return self._add(other, False)

    def __sub__(self, other):
        return self._add(other, True)

    def __neg__(self):
        return _series(self.field, self.val or 0,
                       _negated(self.field, self.coeffs), self.prec)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return product_grid((self,), (other,))[0][0]

    def scale(self, c: int) -> "TruncatedSeries":
        """self times the field element c, exactly zero when c is 0."""
        _check_elements(self.field, (c,))
        return product_grid((self,), (_series(self.field, 0, (c,)),))[0][0]

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


def _series(field, val, coeffs, prec=None) -> TruncatedSeries:
    """TruncatedSeries(field, val, coeffs, prec) for coefficients in range
    by construction, such as the results of arithmetic: no range check."""
    s = object.__new__(TruncatedSeries)
    s._fill(field, val, tuple(coeffs), prec)
    return s


def _negated(field, coeffs) -> list:
    """-c for each coefficient c: -c % p over GF(p), the field's `neg`
    over GF(p^r)."""
    if field.r == 1:
        p = field.p
        return [-c % p for c in coeffs]
    return list(map(field.neg, coeffs))


def _check_elements(field, values) -> None:
    """ValueError unless every value, a coefficient, a scalar or a torus
    entry, is an element of `field`, an int in range(q): a larger one would
    overflow its Kronecker slot into the next coefficient, a negative one
    cannot be packed at all, and a float or str is no element."""
    q = field.q
    for c in values:
        if type(c) is not int or not 0 <= c < q:
            raise ValueError(f"{c!r} is not an element of {field}")


def _check_exponent(k) -> None:
    """ValueError unless k, a valuation or a precision, is an int."""
    if type(k) is not int:
        raise ValueError(f"exponent {k!r} is not an int")


# (exclusive bound, width in bytes, array typecode) for each slot width
_SLOTS = sorted((1 << 8 * array(code).itemsize, array(code).itemsize, code)
                for code in "BHIQ")


def _slot(top: int):
    """(width in bytes, array typecode) of the narrowest slot holding top."""
    for bound, width, code in _SLOTS:
        if top < bound:
            return width, code
    raise OverflowError("coefficient too large for an 8-byte slot")


def product_grid(xs, ys, xs2=None, ys2=None) -> list:
    """The bilinear form x * y + x2 * y2 at every pair of indices, as
    rows: product_grid(xs, ys, xs2, ys2)[i][j] == xs[i] * ys[j] +
    xs2[i] * ys2[j], val, coeffs and prec alike.  Without xs2 and ys2
    the cells are the products xs[i] * ys[j].  This is the only code
    that forms a product of series.

    The products lie in one flat list of slots, laid out as a Kronecker
    substitution.  On each side a factor sits at its offset val - base
    from the smallest known valuation `base` of that side, so the two
    products of a cell land in the same slots and add.  Each x takes its
    own block of slots, wide enough for any product, and the ys sit at
    strides of len(xs) blocks, so block i + j len(xs) holds cell (i, j)
    and no two cells meet in a slot.  One big-int multiply per product
    fills the slots, over every field: each list of factors is written
    into one zeroed buffer of slots and read as one int.  Over GF(p^r),
    r > 1, `_packed` spreads each slot into 2r - 1 sub-slots, digit d of
    its element in sub-slot d, so the substitution nests: sub-slot s of
    a product slot holds the product plane sum_{i+j=s} X_i Y_j of the
    digit planes X_i, Y_j, and no two planes meet.  Over GF(p) a slot is
    its one sub-slot.  A sub-slot holds at most r min(len x, len y)
    (p-1)^2 from each product, so twice that for the pair, and the
    sub-slots are reduced mod p once.  Over GF(p^r) the planes are read
    back as every (2r - 1)-th sub-slot, and the field's `_fold` folds
    those above x^(r-1) by x^r = -low and recombines the digits into the
    elements, one byte a slot.  Without xs2 and ys2 there is one
    product, not a second one against zeros.

    A cell's precision is the smaller of its two products' precisions,
    each min(val x + prec y, val y + prec x) with an unknown zero O(t^k)
    counting k as its valuation (an exact-zero factor makes its product
    exact; a row and a column of exact factors make an exact cell), and
    its window is the exponents its factors can reach, cut at that
    precision.  With 1-byte slots, as GF(p^r)'s always are, the reduced
    slots are one `bytes` object: a window is a slice of it whose zero
    slots are stripped from both ends, and the cell is filled in place,
    with no call and no constructor scan.  Otherwise the slots are a
    list, and the constructor's scan trims each window.
    """
    if not xs or not ys:
        return [[] for _ in xs]
    f = xs[0].field
    if xs2 is None and ys2 is None:  # x * y alone
        pairs = ((xs, ys),)
    elif xs2 is None or ys2 is None or len(xs2) != len(xs) \
            or len(ys2) != len(ys):
        raise ValueError("the two product grids differ in shape")
    else:
        pairs = ((xs, ys), (xs2, ys2))
    base_x, rows, top_x, lx = _side(f, xs, xs2)
    base_y, cols, top_y, ly = _side(f, ys, ys2)
    block = max(0, top_x + top_y - 1)
    stride = len(xs) * block
    p, n = f.p, len(ys) * stride
    k = 2 * f.r - 1  # sub-slots per slot; sub-slot s holds product plane s
    ms = [min(a, b) for a, b in zip(lx, ly)]
    # a sub-slot sums at most r min(len x, len y) (p-1)^2 from each product
    width, code = _slot(sum(ms) * f.r * (p - 1) ** 2)
    total = 0
    for (xs_, ys_), m in zip(pairs, ms):
        if m:  # else a side has no known coefficient: the product is 0
            total += int.from_bytes(
                _packed(f, xs_, base_x, block, width, code), _ORDER) * \
                int.from_bytes(
                    _packed(f, ys_, base_y, stride, width, code), _ORDER)
    raw = total.to_bytes(width * k * n, _ORDER)
    if width == 1:
        slots, one_byte = raw.translate(_residues(p)), True
    else:
        slots, one_byte = [c % p for c in array(code, raw)], False
    if k > 1:
        slots, one_byte = f._fold([int.from_bytes(slots[s::k], _ORDER)
                                   for s in range(k)], n), True
    new = object.__new__
    grid = []
    for i, (lo_x, hi_x, v, r, v2, r2, ex) in enumerate(rows):
        row = []
        at = i * block - base_x - base_y  # slot at + e holds t^e of cell j
        for lo_y, hi_y, w, s, w2, s2, ey in cols:
            lo, hi = lo_x + lo_y, hi_x + hi_y - 1
            if ex and ey:
                prec = None
            else:
                prec = min(v + s, w + r, v2 + s2, w2 + r2)
                if prec == _INF:
                    prec = None
                elif prec < hi:  # the window ends at the precision
                    hi = prec
            if hi < lo:  # no slot: a negative end would count from the end
                hi = lo
            if one_byte:
                cell = new(TruncatedSeries)
                cell.field, cell.prec = f, prec
                tail = slots[at + lo:at + hi].rstrip(b"\0")
                if tail:
                    head = tail.lstrip(b"\0")
                    cell.val = lo + len(tail) - len(head)
                    cell.coeffs = tuple(head)
                else:
                    cell.val, cell.coeffs = None, ()
            else:
                cell = _series(f, lo, slots[at + lo:at + hi], prec)
            row.append(cell)
            at += stride
        grid.append(row)
    return grid


def _side(field, side, side2):
    """One side of a grid, in one pass over its indices: at each index
    the exponents [lo, hi) its factors' known coefficients reach
    ([_FAR, -_FAR) when neither has one, so that every window of the
    index is empty), the valuation and precision of each factor for the
    precision rule (an unknown zero O(t^k) counting k as its valuation,
    inf for an exact precision and for a missing second factor) and
    whether both are exact; the smallest known valuation `base` (0 when
    there is none); the largest hi - base; and the longest factor of
    each list.  A factor over another field is a ValueError."""
    out = []
    base, top, long, long2 = _FAR, -_FAR, 0, 0
    for k, s in enumerate(side):
        if s.field is not field:
            raise ValueError("series over different fields")
        v, r, n = s.val, s.prec, len(s.coeffs)
        if r is None:
            r = _INF
        if v is None:  # an unknown zero O(t^r) counts r as its valuation
            v, lo, hi = r, _FAR, -_FAR
        else:
            lo, hi = v, v + n
        v2 = r2 = _INF
        if side2 is not None:
            s2 = side2[k]
            if s2.field is not field:
                raise ValueError("series over different fields")
            v2, r2, n2 = s2.val, s2.prec, len(s2.coeffs)
            if r2 is None:
                r2 = _INF
            if v2 is None:
                v2 = r2
            else:
                if v2 < lo:
                    lo = v2
                if v2 + n2 > hi:
                    hi = v2 + n2
                if n2 > long2:
                    long2 = n2
        out.append((lo, hi, v, r, v2, r2, r == r2 == _INF))
        if lo < base:
            base = lo
        if hi > top:
            top = hi
        if n > long:
            long = n
    if base == _FAR:
        return 0, out, 0, (long, long2)
    return base, out, top - base, (long, long2)


def _packed(field, series, base, step, width, code) -> bytearray:
    """One zeroed buffer of len(series) steps of slots of `width` bytes
    (array typecode `code`) holding the coefficients of series[k] from
    slot k step + (val - base) on.  Over GF(p^r), r > 1, each slot is
    2r - 1 sub-slots of `width` bytes, digit d of its element in the low
    byte of sub-slot d and zeros elsewhere: the elements, below 256, are
    written one byte a slot, and for each d one `translate` by the
    field's `digits[d]` and one strided slice assignment place digit d
    of every element."""
    k = 2 * field.r - 1
    one = width == 1 or k > 1  # one byte a slot, before the spread
    buf = bytearray((1 if one else width) * step * len(series))
    slots = buf if one else memoryview(buf).cast(code)
    at = -base
    for s in series:
        v = s.val
        if v is not None:
            c = s.coeffs
            slots[at + v:at + v + len(c)] = c if one else array(code, c)
        at += step
    if k == 1:
        return buf
    out = bytearray(width * k * len(buf))
    for d, t in enumerate(field.digits):  # a sub-slot's low byte is first
        out[d * width::k * width] = buf.translate(t)
    return out


def _min_prec(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


_INF = float("inf")
_FAR = sys.maxsize  # past every exponent: an empty index's [lo, hi)


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
        if not isinstance(other, Matrix2):
            return NotImplemented
        return Matrix2(*map(add, self.entries, other.entries))

    def __sub__(self, other):
        if not isinstance(other, Matrix2):
            return NotImplemented
        return Matrix2(*map(sub, self.entries, other.entries))

    def scale(self, s: TruncatedSeries) -> "Matrix2":
        return Matrix2(*product_grid((s,), self.entries)[0])

    def det(self) -> TruncatedSeries:
        return product_grid((self.a,), (self.d,), (-self.b,), (self.c,))[0][0]

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
