import gc
import random

import pytest

from iwahecke.affine import AffineWeylGroup, bruhat_leq
from iwahecke.klpoly import (RPolynomials, closed_form_bernstein,
                             q_poly_to_v, r_polynomial)
from iwahecke.laurent import LaurentPoly
from iwahecke.rootdata import (RootDatumError, build_root_datum,
                               is_minuscule, weyl_orbit)

from oracles import random_element
from test_kernel_tables import (CENTRAL_CASES, central_case, central_ids,
                                central_shifts, class_memo_refusals)

Q = LaurentPoly({1: 1})  # the variable q of R-polynomials


@pytest.fixture(scope="module")
def W2(gl2):
    return gl2.affine_weyl()


@pytest.fixture(scope="module")
def W3(gl3):
    return gl3.affine_weyl()


def test_r_examples(W2):
    t10 = W2.translation((1, 0))
    om = t10 * W2.simple_reflection(1)
    assert r_polynomial(t10, t10) == 1
    assert r_polynomial(om, t10) == Q - 1
    assert r_polynomial(W2.identity, t10) == 0  # different Omega classes


def test_r_and_bruhat_refuse_other_root_data(W2, W3, gl3):
    x2, x3 = W2.translation((1, 0)), W3.translation((1, 0, 0))
    calls = [lambda: r_polynomial(x2, x3), lambda: r_polynomial(x3, x2),
             lambda: RPolynomials(W3).r(x3, x2),
             lambda: W3.bruhat_leq(x3, x2), lambda: W3.bruhat_leq(x2, x3),
             lambda: bruhat_leq(x3, x2)]  # the benchmark's module function
    for call in calls:
        with pytest.raises(ValueError, match="different root data"):
            call()
    # the same datum in a context of its own answers as the shared one
    other = AffineWeylGroup(gl3)
    assert other is not W3
    y_other = other.translation((1, 0, 0))
    for x in W3.admissible_set((1, 0, 0)):
        x_other = other.element(x.trans, x.fin)
        want = r_polynomial(x, x3)
        assert r_polynomial(x_other, x3) == r_polynomial(x, y_other) == want
        leq = W3.bruhat_leq(x, x3)
        assert leq == bool(want)
        assert (W3.bruhat_leq(x_other, x3) == bruhat_leq(x_other, x3)
                == other.bruhat_leq(x, y_other) == leq)


def test_r_vanishes_unless_leq(W3):
    rng = random.Random(0)
    for _ in range(40):
        x = random_element(W3, rng, coord_span=1)
        y = random_element(W3, rng, coord_span=1)
        r = r_polynomial(x, y)
        if not W3.bruhat_leq(x, y):
            assert r == 0


def test_r_degree_and_leading_coefficient(W3):
    rng = random.Random(1)
    checked = 0
    while checked < 30:
        x = random_element(W3, rng, coord_span=1)
        y = random_element(W3, rng, coord_span=1)
        if not W3.bruhat_leq(x, y) or y.length() > 6:
            continue
        checked += 1
        r = r_polynomial(x, y)
        d = y.length() - x.length()
        assert max(r.c) == d
        assert r.coeff(d) == 1


def test_r_at_q_equal_one(W3):
    rng = random.Random(2)
    for _ in range(30):
        x = random_element(W3, rng, coord_span=1)
        y = random_element(W3, rng, coord_span=1)
        if x != y and W3.bruhat_leq(x, y):
            r = r_polynomial(x, y)
            assert sum(r.c.values()) == 0  # r(1) = 0


def test_r_independent_of_descent_choice(W3):
    # redo the recursion with every valid left descent and compare
    table = RPolynomials(W3)

    def r_all_choices(x, y):
        if x == y:
            return LaurentPoly({0: 1})
        if x.length() >= y.length():
            return LaurentPoly()
        vals = set()
        for lab in W3.gen_labels:
            s = W3.simple_reflection(lab)
            sy = s * y
            if sy.length() > y.length():
                continue
            sx = s * x
            if sx.length() < x.length():
                v = r_all_choices(sx, sy)
            else:
                v = (Q - 1) * r_all_choices(x, sy) + Q * r_all_choices(sx, sy)
            vals.add(v)
        assert len(vals) == 1
        return vals.pop()

    rng = random.Random(3)
    checked = 0
    while checked < 10:
        x = random_element(W3, rng, coord_span=1)
        y = random_element(W3, rng, coord_span=1)
        if y.length() > 4:
            continue
        checked += 1
        assert table.r(x, y) == r_all_choices(x, y)


def test_closed_form_examples(W2, W3):
    H2 = W2.hecke()
    assert closed_form_bernstein(W2, (0, 0)) == H2.unit()
    vz = closed_form_bernstein(W2, (1, 0))
    om = W2.translation((1, 0)) * W2.simple_reflection(1)
    q = LaurentPoly.q()
    assert vz.coeff(W2.translation((1, 0))) == 1
    assert vz.coeff(W2.translation((0, 1))) == 1
    assert vz.coeff(om) == 1 - q
    # GL(3) Drinfeld: every coefficient is (1-q)^(l(t_mu) - l(x))
    vz3 = closed_form_bernstein(W3, (1, 0, 0))
    assert len(vz3.terms) == 7
    for x, c in vz3.terms.items():
        assert c == (1 - q) ** (2 - x.length())


def test_closed_form_requires_minuscule(W2):
    with pytest.raises(RootDatumError):
        closed_form_bernstein(W2, (2, 0))


def test_cross_oracle_small(W2, W3, gsp4):
    cases = [(W2, (1, 0)), (W2, (1, 1)), (W3, (1, 0, 0)), (W3, (1, 1, 0)),
             (gsp4.affine_weyl(), (1, 1, 1))]
    for W, mu in cases:
        lt = W.translation(mu).length()
        theta_route = W.hecke().bernstein_function(mu).scale(
            LaurentPoly.v(lt))
        assert closed_form_bernstein(W, mu) == theta_route


def test_q_poly_to_v():
    assert q_poly_to_v(Q - 1) == LaurentPoly.q() - 1


def test_cross_oracle_gl6_fundamental():
    # a larger smoke case: GL(6), mu = omega_1 (|Adm| = 2^6 - 1)
    W = build_root_datum("GL", 6).affine_weyl()
    mu = (1, 0, 0, 0, 0, 0)
    lt = W.translation(mu).length()
    assert lt == 5
    vz = W.hecke().bernstein_function(mu).scale(LaurentPoly.v(lt))
    assert vz == closed_form_bernstein(W, mu)
    assert len(vz.terms) == 63


def test_cross_oracle_gl5_omega2():
    # the largest two-route case in the suite: 131 admissible elements, and
    # (unlike the Drinfeld cases) coefficients that are not powers of (1-q),
    # so the agreement exercises nontrivial R-polynomials
    W = build_root_datum("GL", 5).affine_weyl()
    mu = (1, 1, 0, 0, 0)
    lt = W.translation(mu).length()
    assert lt == 6
    vz = W.hecke().bernstein_function(mu).scale(LaurentPoly.v(lt))
    assert vz == closed_form_bernstein(W, mu)
    assert len(vz.terms) == 131
    assert vz.support() == W.admissible_set(mu)
    q = LaurentPoly.q()
    coeffs = set(vz.terms.values())
    powers = {(1 - q) ** k for k in range(lt + 1)}
    assert not coeffs <= powers


def test_cross_oracle_gsp8_siegel():
    # the theta route folds over the least cover of need (1,1,1,1), of
    # length 50
    W = build_root_datum("GSp", 8).affine_weyl()
    mu = (1, 1, 1, 1, 1)
    lt = W.translation(mu).length()
    vz = W.hecke().bernstein_function(mu).scale(LaurentPoly.v(lt))
    assert vz == closed_form_bernstein(W, mu)
    assert len(vz.terms) == 633


def test_r_sum_memo_keeps_its_operands():
    """The R-sum memo is keyed by the ids of its operands: after `_memo` is
    cleared and collected and new polynomials take the freed memory, R
    values recomputed on the same table equal those of a fresh table."""
    W = AffineWeylGroup(build_root_datum("GL", 3))
    table = RPolynomials(W)
    mu = (2, 1, 0)
    ys = [W.translation(la) for la in weyl_orbit(W.rd, mu)]
    pairs = [(x, y) for x in sorted(W.admissible_set(mu), key=W.sort_key)
             for y in ys]
    for x, y in pairs:
        table.r(x, y)
    assert table._sums
    table._memo.clear()
    gc.collect()
    fresh_polys = [LaurentPoly({e: 1, e + 1: -2}) for e in range(2000)]
    got = [table.r(x, y) for x, y in pairs]
    assert got == [RPolynomials(W).r(x, y) for x, y in pairs]
    assert len(fresh_polys) == 2000


@pytest.mark.parametrize("case", CENTRAL_CASES, ids=central_ids)
def test_closed_form_of_a_central_shift_is_translated(case):
    """For minuscule mu and central c, the closed form at mu + c is summed
    over Adm(mu) off the group's memo entry, so the R memo hits, then
    translated: equal to a fresh context's, every element carrying the
    kernel's length; one Adm entry per class modulo central coweights,
    however many shifts; refusals keep their type and message."""
    rd, mus, basis = central_case(case)
    W = AffineWeylGroup(rd)
    table = RPolynomials(W)
    k = W.kernel
    for mu in [mu for mu in mus if is_minuscule(rd, mu)]:
        table.closed_form_bernstein(mu)
        pairs = len(table._memo)
        for nu in central_shifts(mu, basis):
            h = table.closed_form_bernstein(nu)
            fresh = RPolynomials(AffineWeylGroup(rd))
            assert h == fresh.closed_form_bernstein(nu), nu
            assert all(x._len == k.length(x.trans, x.fin) for x in h.terms)
        assert len(table._memo) == pairs
        one = RPolynomials(AffineWeylGroup(rd))
        for nu in central_shifts(mu, basis[:1], range(11)):
            one.closed_form_bernstein(nu)
        assert len(one.W._adm) == 1
    for bad, msg in class_memo_refusals(rd, mus):
        with pytest.raises(RootDatumError) as err:
            table.closed_form_bernstein(bad)
        assert type(err.value) is RootDatumError and str(err.value) == msg
