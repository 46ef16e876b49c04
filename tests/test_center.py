import operator
import random
from itertools import product

import pytest

from iwahecke.affine import AffineWeylGroup
from iwahecke.center import (HeightBoundError, NotCentralError,
                             SymmetricFunction, _eliminate, bernstein_iso,
                             bernstein_iso_inverse, constant_term,
                             levi_image, monomial_symmetric)
from iwahecke.hecke import HeckeAlgebra
from iwahecke.laurent import ONE, LaurentPoly
from iwahecke.rootdata import (RootDatum, RootDatumError, build_root_datum,
                               levi_sub_datum, weyl_orbit)
from iwahecke.transfer import base_change

from oracles import bernstein_iso_by_theta, is_central_by_products
from test_kernel_tables import ADM_MUS, CONFIGS, GROUPS, _datum, _ids


@pytest.fixture(scope="module")
def H3(gl3):
    return gl3.affine_weyl().hecke()


def dominant_box(rd, lo, hi, height=None):
    out = []
    for mu in product(range(hi, lo - 1, -1), repeat=rd.rank):
        if rd.is_dominant(mu):
            if height is None or rd.affine_weyl().translation(mu).length() <= height:
                out.append(mu)
    return sorted(set(out))


def test_monomial_examples(gl2, gl3):
    assert monomial_symmetric(gl3, (0, 0, 0)).terms == {(0, 0, 0): ONE}
    assert monomial_symmetric(gl2, (1, 0)).terms == {(1, 0): ONE, (0, 1): ONE}
    assert monomial_symmetric(gl2, (1, 1)).terms == {(1, 1): ONE}
    with pytest.raises(RootDatumError):
        monomial_symmetric(gl2, (0, 1))


def test_symmetric_function_validation(gl2):
    with pytest.raises(RootDatumError):
        SymmetricFunction(gl2, {(1, 0): ONE})  # orbit incomplete
    f = SymmetricFunction(gl2, {(1, 0): ONE, (0, 1): ONE})
    assert f == monomial_symmetric(gl2, (1, 0))


def test_symmetric_function_coeff_checks_rank(gl2):
    f = monomial_symmetric(gl2, (1, 0))
    assert f.coeff([0, 1]) == 1 and f.coeff((1, 1)) == 0
    with pytest.raises(RootDatumError, match="differs from rank"):
        f.coeff((1, 0, 0))


def test_sums_across_root_data_rejected(gl2, gl3):
    f2 = monomial_symmetric(gl2, (1, 0))
    f3 = monomial_symmetric(gl3, (1, 0, 0))
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="different root data"):
            op(f2, f3)
    # an equal datum that is another object still adds and multiplies
    same = RootDatum("GL(2) copy", gl2.rank, gl2.simple_roots,
                     gl2.simple_coroots)
    assert same is not gl2 and same == gl2
    assert f2 + monomial_symmetric(same, (1, 0)) == f2.scale(2)
    assert f2 * monomial_symmetric(same, (1, 0)) == f2 * f2


def test_symmetric_product_stores_no_cancelled_term(gl2):
    # x = e^(1,0), y = e^(0,1): (1 + x + y)(x + y - 2 x y) has x y
    # coefficient -2 + 1 + 1, so no (1, 1) key is stored
    f = SymmetricFunction.from_dominant(gl2, {(0, 0): 1, (1, 0): 1})
    g = SymmetricFunction.from_dominant(gl2, {(1, 0): 1, (1, 1): -2})
    expect = SymmetricFunction.from_dominant(
        gl2, {(1, 0): 1, (2, 0): 1, (2, 1): -2})
    for prod in (f * g, g * f):
        assert prod.terms == expect.terms
        assert (1, 1) not in prod.terms


def test_scalar_product_is_scale(gl2):
    f = monomial_symmetric(gl2, [1, 0])  # any sequence names a coweight
    v = LaurentPoly.v(1)
    assert f * 2 == 2 * f == f.scale(2)
    assert f * v == v * f == f.scale(v)


def test_iso_sends_monomial_to_bernstein(gl3, H3):
    f = monomial_symmetric(gl3, (1, 1, 0))
    assert bernstein_iso(f) == H3.bernstein_function((1, 1, 0))
    c = SymmetricFunction(gl3, {(0, 0, 0): LaurentPoly.const(7)})
    assert bernstein_iso(c) == H3.unit().scale(7)


def test_iso_is_algebra_homomorphism(gl3):
    mus = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 0)]
    for mu, nu in [(a, b) for a in mus for b in mus][:12]:
        f, g = monomial_symmetric(gl3, mu), monomial_symmetric(gl3, nu)
        assert bernstein_iso(f * g) == bernstein_iso(f) * bernstein_iso(g)


# pairs (mu, nu) of dominant coweights per group; bernstein_iso(f) *
# bernstein_iso(g) runs the packed product on the larger groups
ISO_PAIRS = {
    ("Sp", 6): [((1, 0, 0), (1, 0, 0)), ((1, 0, 0), (1, 1, 0))],
    ("GL", 5): [((1, 0, 0, 0, 0), (1, 1, 0, 0, 0)),
                ((1, 0, 0, 0, 0), (0, 0, 0, 0, -1)),
                ((1, 1, 0, 0, 0), (1, 1, 0, 0, 0))],
    ("GSp", 6): [((1, 0, 0, 0), (1, 1, 0, 0)), ((0, 0, 0, -1), (1, 0, 0, 0)),
                 ((1, 1, 1, 1), (1, 0, 0, 0))],
}


@pytest.mark.parametrize("group", list(ISO_PAIRS),
                         ids=lambda g: f"{g[0]}{g[1]}")
def test_iso_is_algebra_homomorphism_larger_groups(group):
    rd = build_root_datum(*group)
    W = AffineWeylGroup(rd)  # a context of its own: no cached z_mu
    for mu, nu in ISO_PAIRS[group]:
        f, g = monomial_symmetric(rd, mu), monomial_symmetric(rd, nu)
        assert (bernstein_iso(f, W) * bernstein_iso(g, W)
                == bernstein_iso(f * g, W)), (mu, nu)


def test_iso_injective_on_grid(gl2):
    seen = {}
    for mu in dominant_box(gl2, -1, 1):
        z = bernstein_iso(monomial_symmetric(gl2, mu))
        assert z not in seen
        seen[z] = mu


def test_inverse_round_trip_height4(gl3):
    rng = random.Random(0)
    mus = dominant_box(gl3, -1, 2, height=4)
    # single monomials
    for mu in mus:
        f = monomial_symmetric(gl3, mu)
        assert bernstein_iso_inverse(bernstein_iso(f), 4) == f
    # random combinations
    for _ in range(10):
        picks = rng.sample(mus, 3)
        f = SymmetricFunction(gl3, {})
        for mu in picks:
            c = LaurentPoly({rng.randint(-1, 1): rng.randint(-2, 2) or 1})
            f = f + monomial_symmetric(gl3, mu).scale(c)
        assert bernstein_iso_inverse(bernstein_iso(f), 4) == f


def test_inverse_of_products(gl3, H3):
    z = H3.bernstein_function((1, 0, 0)) * H3.bernstein_function((1, 1, 0))
    f = bernstein_iso_inverse(z, 8)
    assert bernstein_iso(f) == z
    assert f == (monomial_symmetric(gl3, (1, 0, 0))
                 * monomial_symmetric(gl3, (1, 1, 0)))


def test_inverse_errors(gl3, H3):
    with pytest.raises(NotCentralError):
        bernstein_iso_inverse(H3.t(H3.W.simple_reflection(1)), 5)
    z = H3.bernstein_function((1, 1, 0))
    with pytest.raises(HeightBoundError):
        bernstein_iso_inverse(z, 1)


def _perturbations(W, z, rng):
    """(what, x) pairs: a support translation, a support non-translation, a
    random element and an Omega generator, each to add c T_x to z at."""
    sup = sorted(z.terms, key=W.sort_key)
    trans = [x for x in sup if x.is_translation()]
    other = [x for x in sup if not x.is_translation()]
    rank = W.rd.rank
    rand = W.element(tuple(rng.randint(-1, 1) for _ in range(rank)),
                     rng.randrange(len(W.kernel.inv_table)))
    out = [("translation", rng.choice(trans)), ("random", rand)]
    if other:
        out.append(("non-translation", rng.choice(other)))
    out += [("omega", om) for om in W.hecke().omega_generators()]
    return out


@pytest.mark.parametrize("family,n", [("GL", 2), ("GL", 3), ("Sp", 4),
                                      ("GSp", 4)], ids=str)
def test_inverse_decides_centrality_like_the_product_oracle(family, n):
    """The elimination certifies centrality: on central inputs it returns
    the function, on every other input it raises the one message."""
    rd = build_root_datum(family, n)
    W = AffineWeylGroup(rd)
    H = W.hecke()
    mus = dominant_box(rd, -1, 2, height=4)
    rng = random.Random(f"{family}{n}")
    kinds = set()
    for _ in range(5):
        f = SymmetricFunction(rd, {})
        for mu in rng.sample(mus, 2):
            c = LaurentPoly({rng.randint(-2, 2): rng.choice((-2, -1, 1, 2))})
            f = f + monomial_symmetric(rd, mu).scale(c)
        z = bernstein_iso(f, W)
        assert bernstein_iso_inverse(z, 100) == f
        for what, x in _perturbations(W, z, rng):
            bumped = z + H.t(x, LaurentPoly({rng.randint(-1, 1): 1}))
            central = is_central_by_products(H, bumped)
            kinds.add((what, central))
            if central:
                g = bernstein_iso_inverse(bumped, 100)
                assert bernstein_iso(g, W) == bumped, (what, x)
            else:
                with pytest.raises(NotCentralError) as err:
                    bernstein_iso_inverse(bumped, 100)
                assert str(err.value) == "element is not central", (what, x)
    assert {("translation", False), ("random", False)} <= kinds


def test_inverse_repeat_guard(gl3, H3):
    """z_mu with one orbit translation's coefficient bumped: subtracting
    f(mu) z_mu cannot clear the whole orbit, so mu comes up again."""
    W = H3.W
    for mu in [(1, 0, 0), (2, 1, 0)]:
        z = H3.bernstein_function(mu)
        for la in sorted(weyl_orbit(gl3, mu)):
            x = W.translation(la)
            bumped = z + H3.t(x, LaurentPoly.v(-x.length()))
            with pytest.raises(NotCentralError, match="met twice"):
                _eliminate(H3, bumped, 100)
            with pytest.raises(NotCentralError) as err:
                bernstein_iso_inverse(bumped, 100)
            assert str(err.value) == "element is not central"


def test_inverse_error_order_below_support_height(gl3, H3):
    """Below the support height a central input raises HeightBoundError and
    a non-central one NotCentralError, as centrality is decided first."""
    z = H3.bernstein_function((1, 1, 0))
    s1 = H3.t(H3.W.simple_reflection(1))
    bumped = z + H3.t(H3.W.translation((1, 1, 0)))
    for bound in (0, 1):
        with pytest.raises(HeightBoundError,
                           match="support height 2 exceeds bound"):
            bernstein_iso_inverse(z, bound)
        for h in (z + s1, bumped, s1):
            with pytest.raises(NotCentralError) as err:
                bernstein_iso_inverse(h, bound)
            assert str(err.value) == "element is not central"


def test_central_inverse_never_tests_centrality(gl3, H3, monkeypatch):
    def refuse(self, h):
        raise AssertionError("is_central ran on a central input")

    z = H3.bernstein_function((1, 0, 0)) * H3.bernstein_function((1, 1, 0))
    levi = constant_term(z, [1])
    monkeypatch.setattr(HeckeAlgebra, "is_central", refuse)
    f = bernstein_iso_inverse(z, 8)
    assert f == (monomial_symmetric(gl3, (1, 0, 0))
                 * monomial_symmetric(gl3, (1, 1, 0)))
    assert constant_term(z, [1]) == levi
    with pytest.raises(AssertionError, match="is_central ran"):
        bernstein_iso_inverse(z + H3.t(H3.W.simple_reflection(1)), 8)


def test_constant_term_examples(gl3, H3):
    z = H3.bernstein_function((1, 0, 0))
    levi = levi_sub_datum(gl3, [1])
    HL = levi.affine_weyl().hecke()
    assert constant_term(z, [1]) == (HL.bernstein_function((1, 0, 0))
                                     + HL.bernstein_function((0, 0, 1)))
    assert constant_term(z, [1, 2]) == z            # L = G
    assert constant_term(H3.unit(), [1]) == HL.unit()


def test_constant_term_multiplicative(gl3, H3):
    a = H3.bernstein_function((1, 0, 0))
    b = H3.bernstein_function((1, 1, 0))
    for labels in ([1], [2], []):
        assert constant_term(a * b, labels) == \
            constant_term(a, labels) * constant_term(b, labels)


def test_constant_term_to_torus_recovers_function(gl3, H3):
    # L = maximal torus: the image in C[Lambda] is the symmetric function
    z = H3.bernstein_function((1, 1, 0))
    ct = constant_term(z, [])
    torus = levi_sub_datum(gl3, [])
    WT = torus.affine_weyl()
    f = bernstein_iso_inverse(z, 8)
    for la, c in f.terms.items():
        assert ct.coeff(WT.translation(la)) == c
    assert len(ct.terms) == len(f.terms)


def test_constant_term_transitivity(gl4):
    # c^G_T = c^L_T after c^G_L, exercised through GL(4) > GL(2)xGL(2) > T
    H4 = gl4.affine_weyl().hecke()
    z = H4.bernstein_function((1, 0, 0, 0))
    mid = constant_term(z, [1, 3])
    assert constant_term(mid, []) == constant_term(z, [])


@pytest.mark.parametrize("case", GROUPS + CONFIGS, ids=_ids)
def test_levi_image_matches_constant_term(case):
    # the Levi image of f, taken without the elimination, against the
    # constant term of bernstein_iso(f), which inverts it first, and against
    # one theta_la per coweight on the Levi; for every single label, the
    # torus and L = G
    rd = _datum(case)
    W = rd.affine_weyl()
    labels = [[], list(range(1, rd.n_simple + 1))]
    labels += [[i] for i in range(1, rd.n_simple + 1)]
    fs = [monomial_symmetric(rd, mu) for mu in ADM_MUS[case]]
    fs.append(base_change(fs[0], 2))
    for f in fs:
        z = bernstein_iso(f, W)
        for levi in labels:
            WL = (W if len(levi) == rd.n_simple
                  else AffineWeylGroup(levi_sub_datum(rd, levi)))
            got = levi_image(f, levi)
            assert got == constant_term(z, levi), (f, levi)
            assert got == bernstein_iso_by_theta(f, WL), (f, levi)


@pytest.mark.parametrize("case", [("GL", 3), ("GSp", 4), "gl2xgl2.cfg",
                                  "pgl2.cfg"], ids=_ids)
def test_levi_of_all_labels_from_a_private_context(case):
    # L = G is reached through its datum, as any Levi is: z and f live on a
    # private context, not the shared one, and all labels give back z and
    # bernstein_iso(f) on that context
    rd = _datum(case)
    W = AffineWeylGroup(rd)
    labels = list(range(1, rd.n_simple + 1))
    for mu in ADM_MUS[case]:
        f = monomial_symmetric(rd, mu)
        z = bernstein_iso(f, W)
        assert constant_term(z, labels) == z, mu
        assert levi_image(f, labels) == bernstein_iso(f, W), mu


def test_levi_of_all_labels_leaves_g_its_own_name(monkeypatch):
    # a Levi of all labels registered first must not lend its name to G's
    # shared context: levi_sub_datum gives back G's datum itself
    import iwahecke.affine as affine
    monkeypatch.setattr(affine, "_REGISTRY", {})
    rd = build_root_datum("GL", 3)
    f = monomial_symmetric(rd, (1, 0, 0))
    image = levi_image(f, [1, 2])
    W = build_root_datum("GL", 3).affine_weyl()
    assert repr(W) == "AffineWeylGroup(GL(3))" and W.rd.family == "GL(3)"
    assert levi_sub_datum(rd, [2, 1, 2]) is rd
    assert image == bernstein_iso(f)


def test_central_and_torus_bernstein_functions_need_no_fold(gl3, H3):
    # every orbit element dominant: z_mu is the single theta_mu
    W = H3.W
    assert H3.bernstein_function((1, 1, 1)) == H3.t(W.translation((1, 1, 1)))
    torus = levi_sub_datum(gl3, [])
    HT = torus.affine_weyl().hecke()
    for la in [(1, 0, -1), (0, 2, 1)]:
        assert HT.bernstein_function(la) == HT.t(HT.W.translation(la))
    z = H3.bernstein_function((2, 1, 0))
    f = SymmetricFunction(torus, bernstein_iso_inverse(z, 8).terms)
    assert constant_term(z, []) == bernstein_iso_by_theta(
        f, AffineWeylGroup(torus))


@pytest.mark.parametrize("family,n,levi", [
    ("GL", 3, None), ("GL", 3, [1]), ("GL", 3, []), ("GL", 4, [1, 3]),
    ("GSp", 4, None), ("GSp", 4, [2]), ("Sp", 4, None),
], ids=str)
def test_iso_matches_theta_by_theta_sum(family, n, levi):
    rd = build_root_datum(family, n)
    if levi is not None:
        rd = levi_sub_datum(rd, levi)
    mus = dominant_box(rd, -1, 2)
    rng = random.Random(f"{family}{n}{levi}")
    for _ in range(4):
        f = SymmetricFunction(rd, {})
        for mu in rng.sample(mus, 3):
            c = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3) or 1})
            f = f + monomial_symmetric(rd, mu).scale(c)
        got = bernstein_iso(f, AffineWeylGroup(rd))
        assert got == bernstein_iso_by_theta(f, AffineWeylGroup(rd))
