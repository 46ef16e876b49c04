import operator
import random
import re
from fractions import Fraction

import pytest

from iwahecke.laurent import ONE, Q, QM1, ZERO, LaurentPoly


def rand_poly(rng, span=4, terms=4):
    return LaurentPoly({rng.randint(-span, span): rng.randint(-5, 5)
                        for _ in range(terms)})


def test_constants():
    assert ZERO == 0 and not ZERO
    assert ONE == 1
    assert Q == LaurentPoly({2: 1})
    assert QM1 == Q - 1


def test_no_zero_coefficients_stored():
    p = LaurentPoly({3: 0, 1: 2})
    assert p.c == {1: 2}
    assert (p - p).c == {}
    # a coefficient that cancels in a sum or a product leaves no key
    v = LaurentPoly.v()
    assert ((v + 1) + (-v)).c == {0: 1}
    for prod in ((v + 1) * (v - 1), (v - 1) * (v + 1)):
        assert prod.c == {2: 1, 0: -1}  # v^1: 1 - 1
    assert ((v + 1) * (v * v - v + 1)).c == {3: 1, 0: 1}


def test_coefficients_are_exact_ints():
    """The constructor refuses a coefficient that is not exactly an int, and
    arithmetic refuses such an operand, on either side."""
    for bad in (2.5, True, False, Fraction(1, 2), "x"):
        msg = re.escape(f"coefficient {bad!r} is not an int")
        with pytest.raises(TypeError, match=msg):
            LaurentPoly({0: bad})
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(ONE, bad)
            with pytest.raises(TypeError):
                op(bad, ONE)
    with pytest.raises(TypeError, match="coefficient True is not an int"):
        LaurentPoly.const(True)
    assert LaurentPoly({0: 2, 1: 0}) + 3 == LaurentPoly.const(5)


def test_ring_axioms_random():
    rng = random.Random(42)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO


def test_v_powers_and_shift():
    assert LaurentPoly.v(-3) * LaurentPoly.v(3) == ONE
    assert LaurentPoly.q(2) == LaurentPoly({4: 1})
    p = Q + 1
    assert p.shift(2) == LaurentPoly({4: 1, 2: 1})


def test_pow():
    assert (Q - 1) ** 0 == ONE
    assert (Q - 1) ** 3 == (Q - 1) * (Q - 1) * (Q - 1)
    with pytest.raises(ValueError):
        Q ** -1


def test_even_odd_split_and_parity():
    p = LaurentPoly({2: 1, 0: -1})
    assert p.is_even()
    m = LaurentPoly({3: 2, 0: 1})
    assert not m.is_even()
    even, odd = m.even_odd_parts()
    assert even == ONE and odd == 2 * Q
    assert even + LaurentPoly.v(1) * odd == m


def test_eval_q():
    p = Q * Q + Q + 1
    assert p.eval_q(3) == 13
    neg = LaurentPoly.q(-1)
    from fractions import Fraction
    assert neg.eval_q(4) == Fraction(1, 4)
    with pytest.raises(ValueError):
        LaurentPoly.v(1).eval_q(2)


def test_str_and_repr():
    assert str(ZERO) == "0"
    assert str(Q - 1) == "v^2 - 1"
    assert str(LaurentPoly({-1: 1, 1: 1})) == "v + v^-1"
    assert eval(repr(Q + 3)) == Q + 3


def test_hash_consistency():
    rng = random.Random(7)
    for _ in range(50):
        a = rand_poly(rng)
        b = LaurentPoly(dict(a.c))
        assert a == b and hash(a) == hash(b)
    # a constant equals its int, so it hashes like it: one set element
    for n in (-3, 0, 5):
        assert len({LaurentPoly.const(n), n}) == 1
    assert len({ZERO, 0, LaurentPoly()}) == 1
