import random

import pytest

from iwahecke.center import (SymmetricFunction, bernstein_iso,
                             monomial_symmetric)
from iwahecke.laurent import ONE, Q, LaurentPoly
from iwahecke.rootdata import RootDatumError, weyl_orbit
from iwahecke.transfer import (GradedFunction, base_change,
                               grassmannian_count, kottwitz_fiber_integrate,
                               normalized_transfer)

v = LaurentPoly.v


def test_normalized_transfer_examples(gl2):
    f = monomial_symmetric(gl2, (0, -1))  # e^{(-1,0)} + e^{(0,-1)}
    tf = normalized_transfer(f)
    assert tf.coeff(-1) == v(1) + v(-1)
    assert tf.coeff(0) == 0
    assert normalized_transfer(
        SymmetricFunction(gl2, {(0, 0): ONE})).coeff(0) == ONE
    assert normalized_transfer(monomial_symmetric(gl2, (1, 1))).coeff(2) == ONE


def test_transfer_representative_independence(gl3):
    # summing over the orbit in any enumeration order gives the same result
    mu = (1, 1, 0)
    f = monomial_symmetric(gl3, mu)
    tf = normalized_transfer(f)
    total = LaurentPoly()
    for la in sorted(weyl_orbit(gl3, mu), reverse=True):
        total = total + v(sum(a * b for a, b in zip(la, gl3.two_rho)))
    assert tf.coeff(2) == total


def test_fiber_integrate_examples(gl2):
    H = gl2.affine_weyl().hecke()
    assert kottwitz_fiber_integrate(H.unit()).coeff(0) == ONE
    x = gl2.affine_weyl().translation((1, 0))
    assert kottwitz_fiber_integrate(H.t(x)).coeff(1) == Q
    vz = H.bernstein_function((1, 0)).scale(v(1))
    assert kottwitz_fiber_integrate(vz).coeff(1) == Q + 1


def test_scale_by_zero_is_the_zero_function(gl2):
    zero = GradedFunction(gl2, {})
    tf = normalized_transfer(monomial_symmetric(gl2, (1, 0)))
    assert tf.scale(0) == zero
    assert tf.scale(LaurentPoly()).terms == {}
    H = gl2.affine_weyl().hecke()
    assert kottwitz_fiber_integrate(H.unit()).scale(0) == zero


def test_graded_function_accumulates_keys_of_one_class(gl2):
    # (1, 0) and (0, 1) both lie in the Kottwitz class of grade 1
    assert GradedFunction(gl2, {(1, 0): 1, (0, 1): 1}).coeff(1) == 2
    assert GradedFunction(gl2, {(1, 0): 1, (0, 1): -1}).terms == {}


def test_graded_function_coeff_reduces_class_tuples(gl2):
    # the constructor stores the class of (1, 0) as its reduced rep (0, 1)
    g = GradedFunction(gl2, {(1, 0): 1})
    assert g.coeff((1, 0)) == g.coeff([0, 1]) == g.coeff(1) == 1
    assert g.coeff((1, 1)) == 0
    with pytest.raises(RootDatumError, match="differs from rank"):
        g.coeff((1, 0, 0))


def test_two_routes_agree(gl2, gl3, gl4):
    from oracles import dominant_minuscule_in_box
    for rd, extra in [(gl2, [(2, 1)]), (gl3, []), (gl4, [])]:
        W = rd.affine_weyl()
        for mu in dominant_minuscule_in_box(rd) + extra:
            f = monomial_symmetric(rd, mu)
            assert kottwitz_fiber_integrate(bernstein_iso(f, W)) == \
                normalized_transfer(f), mu


def test_grassmannian_examples():
    assert grassmannian_count(2, 1) == Q + 1
    assert grassmannian_count(3, 1) == Q * Q + Q + 1
    assert grassmannian_count(4, 2) == Q ** 4 + Q ** 3 + 2 * Q ** 2 + Q + 1
    with pytest.raises(ValueError):
        grassmannian_count(3, 0)
    with pytest.raises(ValueError):
        grassmannian_count(3, 3)


def test_grassmannian_against_product_formula():
    # independent route: [n,m]_q = prod (q^n - q^i) / prod (q^m - q^i) at
    # integer q, checked for several prime powers
    for n in range(2, 7):
        for m in range(1, n):
            poly = grassmannian_count(n, m)
            for q in (2, 3, 4, 5, 7, 9):
                num = den = 1
                for i in range(m):
                    num *= q ** n - q ** i
                    den *= q ** m - q ** i
                assert poly.eval_q(q) == num // den


def test_grassmannian_symmetry():
    for n in range(2, 7):
        for m in range(1, n):
            assert grassmannian_count(n, m) == grassmannian_count(n, n - m)


def test_base_change_examples(gl2):
    f = monomial_symmetric(gl2, (1, 0))
    assert base_change(f, 1) == f
    b = base_change(f, 2)
    assert b.terms == {(2, 0): ONE, (0, 2): ONE}
    f0 = SymmetricFunction(gl2, {(0, 0): ONE})
    assert base_change(f0, 5) == f0


def test_base_change_rescales_coefficients(gl2):
    f = monomial_symmetric(gl2, (1, 0)).scale(Q - 1)
    b = base_change(f, 3)
    assert b.coeff((3, 0)) == LaurentPoly.q(3) - 1


def test_base_change_homomorphism_and_composition(gl3):
    rng = random.Random(0)
    mus = [(1, 0, 0), (1, 1, 0), (2, 1, 0), (0, 0, 0)]
    for mu, nu in [(a, b) for a in mus for b in mus][:8]:
        f, g = monomial_symmetric(gl3, mu), monomial_symmetric(gl3, nu)
        for r in (2, 3):
            assert base_change(f * g, r) == base_change(f, r) * base_change(g, r)
    f = monomial_symmetric(gl3, (1, 1, 0))
    assert base_change(base_change(f, 2), 3) == base_change(f, 6)


def test_graded_function_nonint_grades():
    from iwahecke.rootdata import load_root_datum
    from conftest import DATA
    pgl2 = load_root_datum(DATA / "pgl2.cfg")
    f = monomial_symmetric(pgl2, (1,))
    tf = normalized_transfer(f)
    # Omega = Z/2 has no integer grading; classes label the grades
    grades = tf.grades()
    assert grades == [((1,), v(1) + v(-1))]


@pytest.mark.parametrize("config, key", [("pgl2.cfg", (1,)),
                                         ("gl2xgl2.cfg", (1, 0, 0, 0))])
def test_integer_grade_refused_where_omega_is_not_cyclic(config, key):
    # Omega is Z/2 on PGL(2) and Z^2 on GL(2) x GL(2): no integer grade
    # names a class, so one is refused instead of reading 0
    from iwahecke.rootdata import load_root_datum
    from conftest import DATA
    rd = load_root_datum(DATA / config)
    g = GradedFunction(rd, {key: ONE})
    assert not rd.omega_is_free_cyclic
    assert g.coeff(key) == ONE
    for grade in (0, 1):
        with pytest.raises(ValueError, match="integer grade"):
            g.coeff(grade)


def test_integer_grades_on_cyclic_omega(gl3, sp4):
    assert GradedFunction(gl3, {(1, 1, 0): ONE}).coeff(2) == ONE
    assert GradedFunction(gl3, {(1, 1, 0): ONE}).coeff(1) == 0
    assert GradedFunction(sp4, {(1, 0): ONE}).coeff(0) == ONE
