import operator
import random

import pytest

from iwahecke.affine import AffineWeylGroup
from iwahecke.hecke import HeckeAlgebra
from iwahecke.intlinalg import dot
from iwahecke.laurent import ONE, Q, QM1, LaurentPoly
from iwahecke.rootdata import RootDatumError, build_root_datum

from oracles import hecke_json, random_element, random_hecke_element
from test_kernel_tables import (CENTRAL_CASES, central_case, central_ids,
                                central_shifts, class_memo_refusals)


@pytest.fixture(scope="module")
def H2(gl2):
    return gl2.affine_weyl().hecke()


@pytest.fixture(scope="module")
def H3(gl3):
    return gl3.affine_weyl().hecke()


def test_quadratic_relation(H2):
    s1 = H2.W.simple_reflection(1)
    sq = H2.t(s1) * H2.t(s1)
    assert sq == H2.t(H2.W.identity, Q) + H2.t(s1, QM1)


def test_unit(H2):
    rng = random.Random(0)
    for _ in range(10):
        a = random_hecke_element(H2, rng)
        assert H2.unit() * a == a
        assert a * H2.unit() == a


def test_sums_across_root_data_rejected(H2, H3, gl3):
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="different root data"):
            op(H2.unit(), H3.unit())
    # the same datum in a context of its own still adds and multiplies, to
    # the value, and the CLI output, of the same operation in one context
    other = AffineWeylGroup(gl3).hecke()
    assert other is not H3
    assert H3.unit() + other.unit() == H3.unit().scale(2)
    assert not H3.unit() - other.unit()
    for la, nu in [((1, 0, 0), (1, 0, 0)), ((0, 0, 1), (1, -1, 0))]:
        a, b = H3.theta(la), H3.theta(nu)
        for x, y in ((a, b), (a, other.theta(nu)), (other.theta(la), b)):
            got = x * y
            assert got == a * b
            assert hecke_json(got) == hecke_json(a * b)
        s1 = H3.t(H3.W.simple_reflection(1))
        mixed, single = s1 + other.theta(nu), s1 + b
        assert mixed == single
        assert hecke_json(mixed) == hecke_json(single)


def test_sum_with_negative_is_empty(H2, H3):
    rng = random.Random(9)
    for H in (H2, H3):
        for _ in range(10):
            h = random_hecke_element(H, rng)
            assert (h + (-h)).terms == {} and (h - h).terms == {}


def test_scale_by_monomial_shifts_exponents(H3):
    # a monic v^k shifts every exponent; any other scalar multiplies; both
    # give the product's terms in its order, lengths carried
    z = H3.bernstein_function((2, 1, 0))
    assert all(x._len is not None for x in z.terms)
    for c in (LaurentPoly.v(7), LaurentPoly.v(-3), LaurentPoly.v(0), 1, -1,
              3, 0, LaurentPoly.v(2) * 5, LaurentPoly.v(2) - 1):
        got = z.scale(c)
        poly = LaurentPoly.const(c) if isinstance(c, int) else c
        want = {x: poly * p for x, p in z.terms.items() if poly}
        assert list(got.terms) == list(want)
        assert [repr(p) for p in got.terms.values()] == [
            repr(p) for p in want.values()]
        assert all(x._len is not None for x in got.terms)


def test_scalar_product_is_scale(H3):
    z = H3.bernstein_function((1, 0, 0))
    v = LaurentPoly.v(1)
    assert z * 2 == 2 * z == z.scale(2)
    assert z * v == v * z == z.scale(v)


def test_translation_product(H2):
    # non length-additive translation product: two independent derivations
    W = H2.W
    a = H2.t(W.translation((1, 0)))
    b = H2.t(W.translation((0, 1)))
    om = W.translation((1, 0)) * W.simple_reflection(1)
    expected = (H2.t(W.translation((1, 1)), Q)
                + H2.t(W.translation((2, 0)) * W.simple_reflection(1), QM1))
    assert a * b == expected
    gen_route = (H2.t(W.simple_reflection(0)) * H2.t(om)
                 * H2.t(W.simple_reflection(1)) * H2.t(om))
    assert gen_route == expected


def test_dominant_translation_products_are_length_additive(H3):
    W = H3.W
    for la, nu in [((1, 0, 0), (1, 1, 0)), ((2, 1, 0), (1, 1, 1))]:
        s = tuple(a + b for a, b in zip(la, nu))
        assert (H3.t(W.translation(la)) * H3.t(W.translation(nu))
                == H3.t(W.translation(s)))


def test_associativity_random(H2, H3):
    rng = random.Random(1)
    for H in (H2, H3):
        for _ in range(12):
            a = random_hecke_element(H, rng, size=2)
            b = random_hecke_element(H, rng, size=2)
            c = random_hecke_element(H, rng, size=2)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_t_inverse_examples(H2):
    W = H2.W
    assert H2.t_inverse(W.identity) == H2.unit()
    s = W.simple_reflection(1)
    assert H2.t_inverse(s) == H2.t(s, LaurentPoly.q(-1)) + \
        H2.t(W.identity, LaurentPoly.q(-1) - 1)
    om = W.translation((1, 0)) * s
    assert H2.t_inverse(om) == H2.t(om.inverse())


def test_t_inverse_round_trip(H2, H3):
    rng = random.Random(2)
    for H in (H2, H3):
        count = 0
        while count < 25:
            x = random_element(H.W, rng)
            if x.length() > 4:
                continue
            count += 1
            assert H.t_inverse(x) * H.t(x) == H.unit()
            assert H.t(x) * H.t_inverse(x) == H.unit()


def test_theta_examples(H2):
    W = H2.W
    assert H2.theta((0, 0)) == H2.unit()
    assert H2.theta((1, 1)) == H2.t(W.translation((1, 1)))
    assert H2.theta((1, 0)) * H2.theta((0, 1)) == H2.theta((1, 1))


def test_theta_multiplicative_grid(H2):
    grid = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    rng = random.Random(3)
    pairs = rng.sample([(u, v) for u in grid for v in grid], 40)
    for la, nu in pairs:
        s = tuple(a + b for a, b in zip(la, nu))
        assert H2.theta(la) * H2.theta(nu) == H2.theta(s)


def test_theta_independent_of_decomposition(H3):
    # two different dominant decompositions la = lam1 - lam2 of one coweight,
    # each v^{-<la, 2 rho>} T_{t_lam1} T_{t_lam2}^{-1} from public products
    W = H3.W
    la = (0, 1, -1)
    vpow = LaurentPoly.v(-dot(la, W.rd.two_rho))

    def by_cover(lam2):
        lam1 = tuple(a + b for a, b in zip(la, lam2))
        assert W.rd.is_dominant(lam1) and W.rd.is_dominant(lam2)
        return (H3.t(W.translation(lam1), vpow)
                * H3.t_inverse(W.translation(lam2)))

    one = by_cover((1, 0, 0))         # lam2 = omega_1
    two = by_cover((2, 1, 1))         # a fatter dominant cover
    assert one == two
    assert H3.theta(la) == one


def test_bernstein_function_examples(H2):
    W = H2.W
    assert H2.bernstein_function((0, 0)) == H2.unit()
    vz = H2.bernstein_function((1, 0)).scale(LaurentPoly.v(1))
    om = W.translation((1, 0)) * W.simple_reflection(1)
    assert vz == H2.from_terms({
        W.translation((1, 0)): ONE,
        W.translation((0, 1)): ONE,
        om: ONE - Q,
    })
    with pytest.raises(RootDatumError):
        H2.bernstein_function((0, 1))


def test_drinfeld_coefficients(H3):
    # GL(n), mu = (1,0^{n-1}): coefficient of T_x is (1-q)^{l(t_mu)-l(x)}
    for n in (2, 3, 4):
        H = build_root_datum("GL", n).affine_weyl().hecke()
        mu = (1,) + (0,) * (n - 1)
        lt = n - 1
        vz = H.bernstein_function(mu).scale(LaurentPoly.v(lt))
        adm = H.W.admissible_set(mu)
        assert vz.support() == adm
        for x, c in vz.terms.items():
            assert c == (1 - Q) ** (lt - x.length())


def test_int_coefficients_are_laurent_polynomials(H2):
    # from_terms and t take an int coefficient as the constant polynomial,
    # so products, centrality and scaling see the same element
    x = H2.W.translation((1, 0))
    h = H2.from_terms({x: 1})
    assert h == H2.t(x) and hash(h) == hash(H2.t(x))
    assert h * h == H2.t(x) * H2.t(x)
    assert not H2.is_central(h)
    assert H2.is_central(H2.from_terms({H2.W.identity: 2}))
    assert h.scale(2) == H2.t(x, 2) == H2.t(x, LaurentPoly.const(2))


def test_is_central(H3):
    assert H3.is_central(H3.unit())
    assert not H3.is_central(H3.t(H3.W.simple_reflection(1)))
    assert H3.is_central(H3.bernstein_function((1, 0, 0)))
    assert H3.is_central(H3.bernstein_function((2, 1, 0)))


def test_parahoric_descent_examples(H2):
    W = H2.W
    s1 = W.simple_reflection(1)
    h, p = H2.parahoric_descent(H2.unit(), [])
    assert h == H2.unit() and p == ONE
    h, p = H2.parahoric_descent(H2.unit(), [1])
    assert h == H2.unit() + H2.t(s1) and p == 1 + Q
    z = H2.bernstein_function((1, 0))
    hz, pj = H2.parahoric_descent(z, [1])
    # central h: (sum T) * h * (sum T) = P_J * (h * sum T)
    sum_t = H2.from_terms({W.identity: ONE, s1: ONE})
    assert sum_t * hz == hz.scale(pj)
    # support lands inside Adm(mu) * W_J
    adm = W.admissible_set((1, 0))
    closure = {x * w for x in adm for w in (W.identity, s1)}
    assert hz.support() <= closure


def test_parahoric_descent_rejects_affine_type(H2, H3):
    with pytest.raises(RootDatumError):
        H2.parahoric_descent(H2.unit(), [0, 1])
    with pytest.raises(RootDatumError):
        H3.parahoric_descent(H3.unit(), [0, 1, 2])
    # proper subsets are fine in GL(3)
    h, p = H3.parahoric_descent(H3.unit(), [1, 2])
    assert p.coeff(0) == 1 and len(h.terms) == 6


def test_sp4_descent_poincare(sp4):
    H = sp4.affine_weyl().hecke()
    _, p = H.parahoric_descent(H.unit(), [1, 2])
    # W(C_2) has Poincare polynomial (1+q)^2 (1+q^2)
    assert p == (1 + Q) * (1 + Q) * (1 + Q * Q)


# -- the z_mu memo, one entry per class modulo central coweights ------------


@pytest.mark.parametrize("case", CENTRAL_CASES, ids=central_ids)
def test_bernstein_function_of_a_central_shift_is_translated(case):
    """z_{mu+c} = T_{t_c} z_mu for central c, served off mu's memo entry:
    equal to a fresh context's fold, every element carrying the kernel's
    length; one memo entry per class modulo central coweights, however
    many shifts; refusals keep their type and message."""
    rd, mus, basis = central_case(case)
    H = HeckeAlgebra(AffineWeylGroup(rd))
    k = H.W.kernel
    for mu in mus:
        H.bernstein_function(mu)
        for nu in central_shifts(mu, basis):
            z = H.bernstein_function(nu)
            fresh = HeckeAlgebra(AffineWeylGroup(rd)).bernstein_function(nu)
            assert z == fresh, nu
            assert all(x._len == k.length(x.trans, x.fin) for x in z.terms)
        one = HeckeAlgebra(AffineWeylGroup(rd))
        for nu in central_shifts(mu, basis[:1], range(11)):
            one.bernstein_function(nu)
        assert len(one._z) == 1
    classes = {tuple(dot(mu, a) for a in rd.simple_roots) for mu in mus}
    assert len(H._z) == len(classes)
    for bad, msg in class_memo_refusals(rd, mus):
        with pytest.raises(RootDatumError) as err:
            H.bernstein_function(bad)
        assert type(err.value) is RootDatumError and str(err.value) == msg
