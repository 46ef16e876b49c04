import random
import time
from functools import lru_cache

import pytest

from iwahecke import ffield
from iwahecke.ffield import GF, _Field, _field, _field_of_size
from iwahecke.laurent import LaurentPoly
from iwahecke.series import Matrix2, TruncatedSeries, _slot, product_grid

from oracles import (field_tables_by_schoolbook, series_add, series_mul,
                     series_neg, series_scale, series_sub)


def mono(f, k, c=1, prec=None):
    return TruncatedSeries.monomial(f, k, c, prec)


def test_gf_basic():
    f4 = GF(2, 2)
    f9 = GF(3, 2)
    assert f4.q == 4 and f9.q == 9
    with pytest.raises(ValueError):
        GF(4)
    for F in (GF(2), GF(3), f4, f9):
        for a in F.elements():
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
        # multiplicative group has order q - 1
        for a in range(1, F.q):
            assert F.pow(a, F.q - 1) == 1


def test_gf_associativity_distributivity():
    F = GF(3, 2)
    rng = random.Random(0)
    for _ in range(100):
        a, b, c = (rng.randrange(F.q) for _ in range(3))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_gf_prime_field_without_tables():
    # GF(p) computes mod p and builds no q x q tables, so the largest
    # prime below the range limit comes at once
    start = time.perf_counter()
    F = GF(4093)
    assert time.perf_counter() - start < 0.5
    assert not hasattr(F, "add_table") and not hasattr(F, "mul_table")
    rng = random.Random(4093)
    for _ in range(300):
        a, b, c = (rng.randrange(F.q) for _ in range(3))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(F.sub(a, b), b) == a and F.add(a, F.neg(a)) == 0
        for x in (F.add(a, b), F.sub(a, b), F.neg(a), F.mul(a, b),
                  F.pow(a, b)):
            assert 0 <= x < F.q
        if a:
            assert F.mul(a, F.inv(a)) == 1
            assert F.pow(a, F.q - 1) == 1
            assert F.mul(F.pow(a, -3), F.pow(a, 3)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_table_field_size_cap(monkeypatch):
    # fields with r > 1 stop at q = 256, and a larger q is refused before
    # any table is built (GF(2^10) takes 2.8 s; GF(2^12) has 16 times the
    # entries, and its two q x q tables would hold over 1 GB)
    built = []
    monkeypatch.setattr(_Field, "_build_tables",
                        lambda self: built.append(self.q))
    make = _field.__wrapped__  # past the cache: these fields have no tables
    assert make(2, 8).q == 256 and built == [256]
    for p, r in ((2, 9), (17, 2), (3, 6), (2, 12)):
        with pytest.raises(ValueError, match="too large"):
            make(p, r)
    assert built == [256]


def test_field_tables_match_polynomial_arithmetic():
    # every field with tables: its modulus is the first monic irreducible
    # by trial division, and each table entry the polynomial sum, product
    # or negative, the product schoolbook, modulo it
    fields = [(p, r) for p in (2, 3, 5, 7, 11, 13) for r in range(2, 9)
              if p ** r <= 256]
    assert len(fields) == 16
    assert [(p, r) for p, r in fields if field_tables_by_schoolbook(p, r) != (
        GF(p, r).modulus, GF(p, r).add_table, GF(p, r).mul_table,
        GF(p, r).neg_table)] == []


def test_gf_refuses_a_p_or_r_that_is_not_an_int(monkeypatch):
    # GF(2.0) and GF(2) are one cache key, so an accepted GF(2.0) would
    # answer every later GF(2) with q == 2.0: it is refused before the
    # cache, here a fresh one, is read
    monkeypatch.setattr(ffield, "_field",
                        lru_cache(maxsize=None)(_field.__wrapped__))
    for args in ((2.0,), (3, 2.0), (True,), (2, True)):
        with pytest.raises(ValueError, match="GF needs int p and r"):
            GF(*args)
    F = GF(2)
    assert F.q == 2 and type(F.q) is int and _field_of_size(2) is F


def test_one_object_per_field():
    # every spelling of a field gives one object, so series built over any
    # of them combine: fields are equal only when identical
    for q, (p, r) in ((2, (2, 1)), (3, (3, 1)), (4, (2, 2)), (9, (3, 2))):
        f = GF(p, r)
        assert f is _field_of_size(q) is GF(p=p, r=r)
        if r == 1:
            assert f is GF(p) is GF(p=p)
    assert GF(2) is not GF(2, 2) and GF(2) != GF(3)
    two = TruncatedSeries.one(GF(2)) + TruncatedSeries.one(_field_of_size(2))
    assert two.field is GF(2, 1) and two.valuation() == "inf"


def test_gf_norm():
    for F in (GF(2, 2), GF(3, 2)):
        for a in range(1, F.q):
            n = F.norm_to_prime(a)
            assert 1 <= n < F.p  # lands in the prime field, nonzero
        # norm is multiplicative
        for a in range(1, F.q):
            for b in range(1, F.q):
                assert F.norm_to_prime(F.mul(a, b)) == \
                    (F.norm_to_prime(a) * F.norm_to_prime(b)) % F.p
        # norm is surjective onto F_p^x
        assert ({F.norm_to_prime(a) for a in range(1, F.q)}
                == set(range(1, F.p)))


def test_series_normalization():
    f = GF(3)
    s = TruncatedSeries(f, 2, [0, 0, 1, 2, 0])
    assert s.val == 4 and s.coeffs == (1, 2)
    z = TruncatedSeries(f, 5, [0, 0])
    assert z.val is None and z.exact
    zp = TruncatedSeries(f, 0, [], prec=3)
    assert zp.val is None and not zp.exact


def test_coefficients_outside_the_field_refused():
    # over GF(3), (200 + t)^2 came out as 1 + 2t, by `*` and by the grid,
    # because 200^2 overflows a 1-byte slot into the next coefficient; the
    # right answer is 1 + t + t^2.  A negative coefficient ended in
    # OverflowError, and GF(4)'s scale(-1) multiplied by 3, scale(4)
    # raised IndexError
    f3, f4 = GF(3), GF(2, 2)
    for coeffs in ([200, 1], [1, -1], [3], [1.5]):
        with pytest.raises(ValueError, match="not an element of GF"):
            TruncatedSeries(f3, 0, coeffs)
    with pytest.raises(ValueError, match="not an element of GF"):
        TruncatedSeries.monomial(f4, 2, 4)
    x = TruncatedSeries(f4, 0, [1, 2])
    for c in (-1, 4):
        with pytest.raises(ValueError, match="not an element of GF"):
            x.scale(c)
    assert [x.scale(c) for c in range(4)] == [series_scale(x, c)
                                               for c in range(4)]
    y = TruncatedSeries(f3, 0, [2, 1])  # 200 = 2 mod 3
    assert (y * y).coeffs == (1, 1, 1)
    assert product_grid([y], [y]) == [[y * y]]


def test_exponents_other_than_ints_refused():
    # val 0.5 gave <1*t^0.5 + 1*t^1.5> as a product, prec 1.5 or
    # truncate(1.5) ended in TypeError from a tuple index, and zero(f, 1.5)
    # was O(t^1.5)
    f = GF(3)
    x = TruncatedSeries(f, 0, [1, 1])
    for val, prec in ((0.5, None), (0, 1.5), (True, None), (0, "3"),
                      (None, None)):
        with pytest.raises(ValueError, match="is not an int"):
            TruncatedSeries(f, val, [1], prec)
        with pytest.raises(ValueError, match="is not an int"):
            TruncatedSeries.monomial(f, val, 1, prec)
    for make in (TruncatedSeries.zero, TruncatedSeries.one):
        with pytest.raises(ValueError, match="is not an int"):
            make(f, 1.5)
    for prec in (1.5, None, 2.0):
        with pytest.raises(ValueError, match="is not an int"):
            x.truncate(prec)
    assert _state(TruncatedSeries(f, -2, [1], 3)) == (-2, (1,), 3)
    assert _state(x.truncate(1)) == (0, (1,), 1)


def test_series_add_mul_exact():
    f = GF(2)
    one = TruncatedSeries.one(f)
    t = mono(f, 1)
    s = one + t
    assert (s * s).coeffs == (1, 0, 1)  # 1 + t^2 over F_2
    assert (s - s).valuation() == "inf"
    assert (t * TruncatedSeries.zero(f)).valuation() == "inf"


def test_series_precision_rules():
    f = GF(3)
    a = TruncatedSeries(f, 0, [1, 1, 1], prec=3)    # 1 + t + t^2 + O(t^3)
    b = mono(f, 2)                                   # exact t^2
    s = a + b
    assert s.prec == 3 and s.coeff_at(2) == 2
    assert s.coeff_at(3) is None
    p = a * b   # val 2, prec = 2 + 3
    assert p.prec == 5 and p.coeff_at(4) == 1 and p.coeff_at(5) is None
    # multiplying by an exact unit keeps relative precision
    u = mono(f, 0, 2)
    q = a * u
    assert q.prec == 3 and q.coeff_at(0) == 2


def test_series_zero_at_precision_propagation():
    f = GF(2)
    zp = TruncatedSeries(f, 0, [], prec=4)      # O(t^4)
    t = mono(f, 1)
    prod = zp * t
    assert prod.val is None and prod.prec == 5
    s = zp + mono(f, 2)
    assert s.coeff_at(2) == 1 and s.prec == 4


def test_val_queries():
    f = GF(2)
    s = mono(f, 3)
    assert s.val_ge(3) and not s.val_ge(4)
    assert s.valuation() == 3
    z = TruncatedSeries.zero(f)
    assert z.valuation() == "inf"
    zp = TruncatedSeries(f, 0, [], prec=2)
    assert zp.valuation() is None
    assert zp.val_ge(2) and zp.val_ge(3) is None
    assert s.val_ge(5) is False and s.val == 3
    assert s.val_ge(2) is True
    assert zp.val_ge(2) is True
    assert zp.val_ge(3) is None


def test_truncate():
    f = GF(3)
    s = TruncatedSeries(f, 0, [1, 2, 1, 2])
    t = s.truncate(2)
    assert t.prec == 2 and t.coeffs == (1, 2)
    assert t.coeff_at(2) is None


def test_matrix_ops():
    f = GF(3)
    g = Matrix2(mono(f, 1), TruncatedSeries.zero(f),
                TruncatedSeries.zero(f), mono(f, 0, 2))
    h = Matrix2.identity(f)
    assert (g * h) == g and (h * g) == g
    assert g.det().valuation() == 1
    assert g.trace().coeff_at(0) == 2
    # associativity on random exact matrices
    rng = random.Random(1)

    def rmat():
        return Matrix2(*(TruncatedSeries(f, rng.randint(-1, 1),
                                         [rng.randrange(3) for _ in range(4)])
                         for _ in range(4)))
    for _ in range(20):
        a, b, c = rmat(), rmat(), rmat()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a
        assert (a - b).entries == tuple(
            x - y for x, y in zip(a.entries, b.entries))


def test_foreign_operands_raise_type_error():
    """+, - and * of a series or a Matrix2 with an int, a float, None or a
    LaurentPoly, in either order, raise TypeError (the operand returns
    NotImplemented); series over two fields keep their ValueError."""
    f = GF(3)
    a = TruncatedSeries(f, 0, [1, 2])
    m = Matrix2.identity(f)
    ops = (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y)
    for own in (a, m):
        for other in (1, 2.5, None, LaurentPoly.v(1)):
            for op in ops:
                with pytest.raises(TypeError):
                    op(own, other)
                with pytest.raises(TypeError):
                    op(other, own)
    b = TruncatedSeries(GF(5), 0, [1])
    for op in ops:
        with pytest.raises(ValueError, match="different fields"):
            op(a, b)


def test_exact_zero_annihilates():
    # 0 * x is exactly zero even when x is only known to finite precision
    f = GF(2)
    zero = TruncatedSeries.zero(f)
    fuzzy = TruncatedSeries(f, 0, [1, 1], prec=2)
    assert (zero * fuzzy).valuation() == "inf"
    assert (fuzzy * zero).valuation() == "inf"
    assert fuzzy.scale(0).valuation() == "inf"


def _random_series(f, rng):
    """Exact zeros, unknown zeros O(t^k), negative valuations, exact and
    inexact series with interior zeros."""
    kind = rng.random()
    if kind < 0.1:
        return TruncatedSeries.zero(f)
    if kind < 0.2:
        return TruncatedSeries(f, 0, [], rng.randrange(-3, 7))
    coeffs = [rng.randrange(f.q) for _ in range(rng.randrange(1, 9))]
    prec = None if rng.random() < 0.5 else rng.randrange(-2, 12)
    return TruncatedSeries(f, rng.randrange(-3, 4), coeffs, prec)


def _state(s):
    return s.val, s.coeffs, s.prec


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_dense_arithmetic_matches_table_oracle(p, r):
    # the prime-field windows and Kronecker product, and the GF(p^r)
    # table loops, against one coefficient at a time through the tables
    f = GF(p, r)
    rng = random.Random(100 * p + r)
    kinds = set()
    for _ in range(600):
        a, b = _random_series(f, rng), _random_series(f, rng)
        kinds.add((a.val is None, a.exact, b.val is None, b.exact))
        c = rng.randrange(f.q)
        assert _state(a + b) == _state(series_add(a, b))
        assert _state(a - b) == _state(series_sub(a, b))
        assert _state(a * b) == _state(series_mul(a, b))
        assert _state(-a) == _state(series_neg(a))
        assert _state(a.scale(c)) == _state(series_scale(a, c))
    assert len(kinds) == 16  # every pairing of zero/nonzero, exact/inexact


def test_kronecker_slot_widths():
    # all-(p-1) inputs make the largest raw coefficients, min(len) (p-1)^2;
    # these products of two series cross from 1- to 2-, 4- and 8-byte
    # slots (4093 is the largest prime the field allows)
    widths = set()
    for p, n in [(2, 255), (2, 256), (3, 64), (17, 1), (257, 2), (4093, 300)]:
        a = [p - 1] * n
        b = [p - 1] * (n + 3)
        raw = [0] * (2 * n + 2)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                raw[i + j] += x * y
        f = GF(p)
        xy = TruncatedSeries(f, 0, a) * TruncatedSeries(f, 0, b)
        assert _state(xy) == (0, tuple(c % p for c in raw), None), (p, n)
        widths.add(_slot(n * (p - 1) ** 2)[0])
    assert widths == {1, 2, 4, 8}


def _grid_states(xs, ys):
    return [[_state(xy) for xy in row] for row in product_grid(xs, ys)]


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_product_grid_matches_products(p, r):
    # every cell of the one-multiply grid against `*` and the table oracle:
    # exact zeros, unknown zeros O(t^k), negative valuations and mixed
    # precisions in one grid
    f = GF(p, r)
    rng = random.Random(200 * p + r)
    kinds = set()
    for _ in range(40):
        xs = [_random_series(f, rng) for _ in range(rng.randrange(1, 8))]
        ys = [_random_series(f, rng) for _ in range(rng.randrange(1, 8))]
        kinds |= {(x.val is None, x.exact, y.val is None, y.exact)
                  for x in xs for y in ys}
        assert _grid_states(xs, ys) == [[_state(x * y) for y in ys]
                                        for x in xs]
        assert _grid_states(xs, ys) == [[_state(series_mul(x, y))
                                         for y in ys] for x in xs]
    assert len(kinds) == 16  # every pairing of zero/nonzero, exact/inexact
    assert product_grid([], xs) == [] and product_grid(xs, []) == [[]] * len(xs)
    with pytest.raises(ValueError):
        product_grid(xs, [TruncatedSeries.one(GF(7))])


def test_product_grid_slot_widths():
    # all-(p-1) factors make the largest raw coefficients, min(maxlen)
    # (p-1)^2; these grids use 1-, 2-, 4- and 8-byte slots
    widths = set()
    for p, n in [(2, 200), (2, 256), (17, 1), (257, 2), (4093, 300)]:
        f = GF(p)
        xs = [TruncatedSeries(f, -2, [p - 1] * n),
              TruncatedSeries(f, 1, [p - 1], prec=n),
              TruncatedSeries.zero(f, prec=3)]
        ys = [TruncatedSeries(f, 0, [p - 1] * (n + 3), prec=n + 1),
              TruncatedSeries(f, 5, [1, 0, p - 1])]
        widths.add(_slot(n * (p - 1) ** 2)[0])
        assert _grid_states(xs, ys) == [[_state(series_mul(x, y))
                                         for y in ys] for x in xs], p
    assert widths == {1, 2, 4, 8}


FIELDS = pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (5, 1), (2, 2),
                                         (3, 2)],
                                 ids=["GF(2)", "GF(3)", "GF(5)", "GF(4)",
                                      "GF(9)"])


@FIELDS
def test_product_grid_sums_match_series_ops(p, r):
    # every cell of the two-term grid against x * y + x2 * y2, by `*` and
    # `+` and by the table oracle: exact zeros, unknown zeros O(t^k),
    # negative valuations and mixed precisions in one grid, and cells whose
    # two products start at different valuations
    f = GF(p, r)
    rng = random.Random(300 * p + r)
    kinds, staggered = set(), 0
    for _ in range(60):
        xs = [_random_series(f, rng) for _ in range(rng.randrange(1, 6))]
        ys = [_random_series(f, rng) for _ in range(rng.randrange(1, 6))]
        xs2 = [_random_series(f, rng) for _ in xs]
        ys2 = [_random_series(f, rng) for _ in ys]
        grid = product_grid(xs, ys, xs2, ys2)
        for x, x2, row in zip(xs, xs2, grid):
            for y, y2, cell in zip(ys, ys2, row):
                kinds.add(tuple(s.val is None for s in (x, y, x2, y2)))
                if None not in (x.val, y.val, x2.val, y2.val):
                    staggered += x.val + y.val != x2.val + y2.val
                assert _state(cell) == _state(x * y + x2 * y2)
                assert _state(cell) == _state(series_add(
                    series_mul(x, y), series_mul(x2, y2)))
    assert len(kinds) == 16 and staggered > 20
    with pytest.raises(ValueError):
        product_grid(xs, ys, xs2, ys2[:-1] + [TruncatedSeries.one(GF(7))])
    with pytest.raises(ValueError):
        product_grid(xs, ys, xs2 + xs2, ys2)
    with pytest.raises(ValueError):
        product_grid(xs, ys, xs2)


def test_product_grid_sum_slot_width():
    # all-(p-1) factors make each product's raw coefficient reach
    # min(len) (p-1)^2, which fits one byte here, but the two products of
    # a cell add up to twice that, which does not
    for p, n in [(2, 200), (3, 40), (7, 4), (11, 2)]:
        assert _slot(n * (p - 1) ** 2)[0] == 1
        assert _slot(2 * n * (p - 1) ** 2)[0] == 2
        f = GF(p)
        full = TruncatedSeries(f, 0, [p - 1] * n)
        xs = [full, TruncatedSeries(f, -1, [p - 1] * n, prec=n)]
        ys = [full, TruncatedSeries(f, 2, [p - 1] * n)]
        grid = product_grid(xs, ys, xs, ys)
        assert [[_state(c) for c in row] for row in grid] == \
            [[_state(series_add(series_mul(x, y), series_mul(x, y)))
              for y in ys] for x in xs], p


@FIELDS
def test_matrix2_product_matches_entrywise(p, r):
    # g * h is one two-term grid; each entry against the table oracle's
    # x * y + x2 * y2 over the same random entries as above
    f = GF(p, r)
    rng = random.Random(400 * p + r)

    def rmat():
        return Matrix2(*(_random_series(f, rng) for _ in range(4)))
    for _ in range(150):
        g, h = rmat(), rmat()
        want = [series_add(series_mul(g.a, h.a), series_mul(g.b, h.c)),
                series_add(series_mul(g.a, h.b), series_mul(g.b, h.d)),
                series_add(series_mul(g.c, h.a), series_mul(g.d, h.c)),
                series_add(series_mul(g.c, h.b), series_mul(g.d, h.d))]
        assert [_state(e) for e in (g * h).entries] == \
            [_state(e) for e in want]
        # det is the one cell a d + (-b) c, scale a 1x4 grid
        s = _random_series(f, rng)
        assert _state(g.det()) == _state(series_sub(series_mul(g.a, g.d),
                                                    series_mul(g.b, g.c)))
        assert [_state(e) for e in g.scale(s).entries] == \
            [_state(series_mul(s, e)) for e in g.entries]


def _cell_state(s):
    return s.val, s.coeffs, type(s.coeffs) is tuple, s.prec, hash(s)


@pytest.mark.parametrize(
    "p,r,n,width",
    [(2, 1, 1, 1), (3, 1, 1, 1), (17, 1, 1, 2), (257, 1, 1, 4),
     (4093, 1, 130, 8), (2, 2, 1, None), (3, 2, 1, None)],
    ids=["2-1-1", "3-1-1", "17-1-2", "257-1-4", "4093-130-8", "GF(4)",
         "GF(9)"])
def test_product_grid_cell_edges(p, r, n, width):
    # cells that cancel to an exact zero and to a zero below their
    # precision, cells whose first or last slot reduces to 0, and windows
    # cut by precision in the middle and at their first slot, with
    # unknown-zero factors O(t^k); every factor is multiplied by the exact
    # L = -(1 + ... + t^(n-1)), which keeps each of these shapes and, over
    # GF(p), widens the slots to `width` bytes (GF(p^r) fills its slots
    # from the field's tables, and p - 1 is -1 there too)
    f = GF(p, r)
    T, e = TruncatedSeries, p - 1  # e = -1
    L = T(f, 0, [e] * n)

    def s(val, coeffs, prec=None):
        x = T(f, val, coeffs) * L
        return x if prec is None else x.truncate(prec)
    a, b, ones = s(0, [1, 1]), s(0, [1, 2 % p]), s(0, [1] * 6)
    cut, unknown = s(0, [1], 3), T(f, 0, [], 3)  # 1 + ... + O(t^3), O(t^3)
    rows = [(a, a), (a.truncate(1), a.truncate(1)), (a, s(0, [1])),
            (a, s(1, [1])), (ones, T(f, 0, [], 2)), (s(3, [1] * 6), unknown)]
    cols = [(b, -b), (a, s(0, [e])), (a, s(1, [e])), (cut, s(0, [1]))]
    xs, xs2 = zip(*rows)
    ys, ys2 = zip(*cols)
    grid = product_grid(xs, ys, xs2, ys2)
    m = min(max(len(x.coeffs) for x in xs), max(len(y.coeffs) for y in ys))
    m2 = min(max(len(x.coeffs) for x in xs2),
             max(len(y.coeffs) for y in ys2))
    if width is not None:
        assert _slot((m + m2) * (p - 1) ** 2)[0] == width
    for (x, x2), row in zip(rows, grid):
        for (y, y2), cell in zip(cols, row):
            want = series_add(series_mul(x, y), series_mul(x2, y2))
            assert _cell_state(cell) == _cell_state(x * y + x2 * y2)
            assert _cell_state(cell) == _cell_state(want)

    def window(i, j):  # [lo, hi): the exponents the cell's products reach
        (x, x2), (y, y2) = rows[i], cols[j]
        known = [(u, v) for u, v in ((x, y), (x2, y2))
                 if None not in (u.val, v.val)]
        return (min(u.val + v.val for u, v in known),
                max(u.val + v.val + len(u.coeffs) + len(v.coeffs) - 1
                    for u, v in known))
    # the shapes occur: exact zero, and a zero known below t^1 only
    assert (grid[0][0].val, grid[0][0].prec) == (None, None)
    assert (grid[1][0].val, grid[1][0].prec) == (None, 1)
    # 1 + 1 * -1 and t + t * -1 = 0: the first and last slots reduce to 0
    assert grid[2][1].val > window(2, 1)[0]
    cell = grid[3][2]
    assert cell.val + len(cell.coeffs) < window(3, 2)[1]
    # O(t^2) * 1 cuts the window of ones * cut in the middle, at t^2
    lo, hi = window(4, 3)
    assert lo == 0 and grid[4][3].prec == 2 < hi
    assert grid[4][3].val == 0 and len(grid[4][3].coeffs) == 2
    # O(t^3) * 1 cuts the window of t^3 (...) * cut at its first slot
    assert grid[5][3].prec == window(5, 3)[0] == 3
    assert grid[5][3].val is None
    # cell (0, 0) an exact zero, then known below t^7 although the sides'
    # smallest valuations add up to 8: its window ends before slot 0
    zero, t3, t5 = T.zero(f), s(3, [1]), s(5, [1])
    for xs, ys in (([zero, t3], [zero, t5, zero]),
                   ([T(f, 0, [], 2), t3], [t5, T(f, 0, [], 1), zero])):
        assert [[_cell_state(c) for c in row] for row in product_grid(
            xs, ys)] == [[_cell_state(series_mul(x, y)) for y in ys]
                         for x in xs]
