"""
Cross-module invariants beyond the acceptance criteria: stronger group-law
properties, centrality over the full GL(4)/Sp(4) grids, the degenerate-Omega
transfer identities, and frozen cardinalities of admissible sets.
"""

import random
from itertools import product

from iwahecke.center import bernstein_iso, monomial_symmetric
from iwahecke.laurent import ONE, LaurentPoly
from iwahecke.rootdata import build_root_datum, load_root_datum
from iwahecke.transfer import kottwitz_fiber_integrate, normalized_transfer

from conftest import DATA
from oracles import random_element


def test_length_invariant_under_omega_conjugation_both_sides(gl3):
    W = gl3.affine_weyl()
    rng = random.Random(8)
    omegas = [W.omega_of(v).element
              for v in [(1, 0, 0), (2, 0, 0), (-1, 0, 0), (0, 0, 0)]]
    for _ in range(30):
        x = random_element(W, rng)
        for om in omegas:
            for om2 in omegas:
                assert (om * x * om2).length() == x.length()


def test_exhaustive_inverse_round_trip_gl2(gl2):
    # every element of length <= 4 with Kottwitz grade in a small window
    from oracles import all_elements_up_to_length
    W = gl2.affine_weyl()
    H = W.hecke()
    for x in all_elements_up_to_length(W, 4, omega_grades=(-1, 0, 1)):
        if x.length() > 4:
            continue
        inv = H.t_inverse(x)
        assert inv * H.t(x) == H.unit()


def test_centrality_gl4_sp4_height6():
    # dominant mu with <mu, 2 rho> <= 6, modulo center for GL(4)
    rd = build_root_datum("GL", 4)
    H = rd.affine_weyl().hecke()
    mus = [mu for mu in product(range(4, -1, -1), repeat=4)
           if rd.is_dominant(mu) and mu[-1] == 0
           and sum(a * b for a, b in zip(mu, rd.two_rho)) <= 6]
    assert len(mus) >= 5
    for mu in mus:
        assert H.is_central(H.bernstein_function(mu)), mu

    sp4 = build_root_datum("Sp", 4)
    Hs = sp4.affine_weyl().hecke()
    mus = [mu for mu in product(range(4, -1, -1), repeat=2)
           if sp4.is_dominant(mu)
           and sum(a * b for a, b in zip(mu, sp4.two_rho)) <= 6]
    assert (1, 1) in mus and (1, 0) in mus
    for mu in mus:
        assert Hs.is_central(Hs.bernstein_function(mu)), mu


def test_descent_central_projector_identity_gl3(gl3):
    H = gl3.affine_weyl().hecke()
    z = H.bernstein_function((1, 0, 0))
    for labels in ([1], [2], [1, 2], [0, 2]):
        hz, pj = H.parahoric_descent(z, labels)
        wj = H.parahoric_subgroup(labels)
        sum_t = H.from_terms({x: ONE for x in wj})
        assert sum_t * hz == hz.scale(pj)


def test_transfer_routes_degenerate_omega():
    # Sp(4): Omega trivial, so both routes collapse to one global identity
    sp4 = build_root_datum("Sp", 4)
    W = sp4.affine_weyl()
    for mu in [(1, 0), (1, 1), (2, 1)]:
        f = monomial_symmetric(sp4, mu)
        assert kottwitz_fiber_integrate(bernstein_iso(f, W)) == \
            normalized_transfer(f), mu
    # PGL(2): Omega = Z/2 (torsion classes as grades)
    pgl2 = load_root_datum(DATA / "pgl2.cfg")
    Wp = pgl2.affine_weyl()
    for mu in [(1,), (2,), (3,)]:
        f = monomial_symmetric(pgl2, mu)
        assert kottwitz_fiber_integrate(bernstein_iso(f, Wp)) == \
            normalized_transfer(f), mu


def test_transfer_routes_non_minuscule_gl2(gl2):
    W = gl2.affine_weyl()
    for mu in [(2, 0), (3, 1), (2, -1)]:
        f = monomial_symmetric(gl2, mu)
        assert kottwitz_fiber_integrate(bernstein_iso(f, W)) == \
            normalized_transfer(f), mu


ADM_SIZES = {
    ("GL", 2, (1, 0)): 3,
    ("GL", 3, (1, 0, 0)): 7,
    ("GL", 3, (1, 1, 0)): 7,
    ("GL", 4, (1, 0, 0, 0)): 15,
    ("GL", 4, (1, 1, 0, 0)): 33,
    ("GL", 4, (1, 1, 1, 0)): 15,
    ("GL", 5, (1, 0, 0, 0, 0)): 31,
    ("GL", 5, (1, 1, 0, 0, 0)): 131,
    ("GL", 5, (1, 1, 1, 0, 0)): 131,
    ("GSp", 4, (1, 1, 1)): 13,
}


def test_admissible_set_cardinalities_frozen():
    # frozen regression values; the GL(n) single-box cases also satisfy the
    # closed count 2^n - 1, and the (GL4, omega_2) and Siegel GSp(4) values
    # match the published local-model stratum counts
    for (fam, n, mu), size in ADM_SIZES.items():
        W = build_root_datum(fam, n).affine_weyl()
        assert len(W.admissible_set(mu)) == size, (fam, n, mu)
    for n in (2, 3, 4, 5):
        mu = (1,) + (0,) * (n - 1)
        W = build_root_datum("GL", n).affine_weyl()
        assert len(W.admissible_set(mu)) == 2 ** n - 1


def test_zmu_coefficients_depend_only_on_central_shift(gl3):
    # z_{mu + c} = z_mu * T_{t_c} for central c: same coefficients after
    # translating the support
    W = gl3.affine_weyl()
    H = W.hecke()
    mu = (1, 1, 0)
    c = (1, 1, 1)
    z = H.bernstein_function(mu)
    z_shift = H.bernstein_function(tuple(a + b for a, b in zip(mu, c)))
    t_c = W.translation(c)
    assert z_shift == z * H.t(t_c)


def test_bernstein_center_is_commutative_sampled(gl3):
    H = gl3.affine_weyl().hecke()
    zs = [H.bernstein_function(mu)
          for mu in [(1, 0, 0), (1, 1, 0), (2, 1, 0)]]
    for a in zs:
        for b in zs:
            assert a * b == b * a


def test_reducible_product_datum():
    # GL(2) x GL(2): two affine diagram components, labels {1, 0} and {2, 3}
    rd = load_root_datum(DATA / "gl2xgl2.cfg")
    assert len(rd.components) == 2
    W = rd.affine_weyl()
    assert sorted(W.gen_labels) == [0, 1, 2, 3]
    # the two affine reflections act on disjoint coordinate blocks
    s0 = W.simple_reflection(0)
    s3 = W.simple_reflection(3)
    assert s0.trans[:2] == (1, -1) and s0.trans[2:] == (0, 0)
    assert s3.trans[:2] == (0, 0) and s3.trans[2:] == (1, -1)
    # lengths add across the factors
    mu = (1, 0, 1, 0)
    assert W.translation(mu).length() == 2
    adm = W.admissible_set(mu)
    assert len(adm) == 9  # 3 x 3, the product of two Drinfeld GL(2) sets

    # cross-oracle Bernstein function on the product
    from iwahecke.klpoly import closed_form_bernstein
    H = W.hecke()
    vz = H.bernstein_function(mu).scale(LaurentPoly.v(2))
    assert vz == closed_form_bernstein(W, mu)
    assert vz.support() == adm
    # coefficients factor as products of the GL(2) Drinfeld coefficients
    q = LaurentPoly.q()
    for x, c in vz.terms.items():
        assert c == (1 - q) ** (2 - x.length())

    # parahoric finite-type check is per component: one node of each affine
    # component may be dropped, but no component may be taken whole
    import pytest
    from iwahecke.rootdata import RootDatumError
    _, p = H.parahoric_descent(H.unit(), [1, 2])
    assert p == (1 + LaurentPoly.q()) ** 2
    H.parahoric_descent(H.unit(), [0, 3])
    for bad in ([0, 1], [2, 3], [0, 1, 2], [1, 2, 3]):
        with pytest.raises(RootDatumError):
            H.parahoric_descent(H.unit(), bad)


def test_hyperspecial_descent_gives_double_coset_indicator():
    # change of level to the maximal parahoric K = finite Weyl group: for
    # minuscule mu the normalized Bernstein function descends to the plain
    # indicator of the K-double coset of t_mu, with every T-coefficient 1
    for fam, n, mu in [("GL", 2, (1, 0)), ("GL", 3, (1, 0, 0)),
                       ("GL", 3, (1, 1, 0)), ("GL", 4, (1, 1, 0, 0)),
                       ("GSp", 4, (1, 1, 1))]:
        rd = build_root_datum(fam, n)
        W = rd.affine_weyl()
        H = W.hecke()
        lt = W.translation(mu).length()
        vz = H.bernstein_function(mu).scale(LaurentPoly.v(lt))
        finite = list(range(1, rd.n_simple + 1))
        desc, _ = H.parahoric_descent(vz, finite)
        wj = H.parahoric_subgroup(finite)
        coset = {u * W.translation(mu) * v for u in wj for v in wj}
        assert desc.support() == coset, (fam, n, mu)
        assert all(c == ONE for c in desc.terms.values()), (fam, n, mu)
