import random

import pytest

from iwahecke.affine import (AffineWeylGroup, admissible_set, bruhat_leq,
                             critical_indices, kottwitz_image, length,
                             multiply, reduced_word)
from iwahecke.intlinalg import dot
from iwahecke.rootdata import RootDatumError, build_root_datum, load_root_datum

from conftest import DATA
from oracles import (admissible_set_subwords, all_elements_up_to_length,
                     bruhat_leq_subwords, random_element,
                     shortest_word_length)
from test_kernel_tables import (CENTRAL_CASES, central_case, central_ids,
                                central_shifts, class_memo_refusals)


@pytest.fixture(scope="module")
def W2(gl2):
    return gl2.affine_weyl()


@pytest.fixture(scope="module")
def W3(gl3):
    return gl3.affine_weyl()


# -- length ----------------------------------------------------------------


def test_length_examples(W2):
    assert length(W2.translation((1, 0))) == 1
    om = W2.translation((1, 0)) * W2.simple_reflection(1)
    assert length(om) == 0
    assert kottwitz_image(om).grade == 1


def test_length_basic_translation():
    for n in (2, 3, 4, 5):
        W = build_root_datum("GL", n).affine_weyl()
        mu = (1,) + (0,) * (n - 1)
        assert W.translation(mu).length() == n - 1


def test_length_matches_shortest_word(W2, W3):
    # exhaustive up to length 4, bounded Omega window
    for W in (W2, W3):
        elements = all_elements_up_to_length(W, 4, omega_grades=(-1, 0, 1, 2))
        for x in elements:
            if x.length() <= 4:
                assert shortest_word_length(W, x, cap=5) == x.length()


def test_length_inverse_and_omega_conjugation(W3):
    rng = random.Random(1)
    om = W3.omega_of((1, 0, 0)).element
    omi = om.inverse()
    for _ in range(40):
        x = random_element(W3, rng)
        assert x.inverse().length() == x.length()
        assert (om * x * omi).length() == x.length()
        y = random_element(W3, rng)
        assert (x * y).length() <= x.length() + y.length()


# -- multiplication ----------------------------------------------------------


def test_multiply_examples(W2):
    t10 = W2.translation((1, 0))
    assert multiply(t10, W2.identity) == t10
    assert multiply(t10, W2.translation((0, 1))) == W2.translation((1, 1))
    s1 = W2.simple_reflection(1)
    assert s1 * t10 == W2.translation((0, 1)) * s1


def test_group_axioms(W3):
    rng = random.Random(2)
    for _ in range(50):
        x, y, z = (random_element(W3, rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * x.inverse() == W3.identity
        assert x.inverse() * x == W3.identity


def test_cross_group_multiplication_rejected(W2, W3):
    with pytest.raises(ValueError):
        multiply(W2.identity, W3.identity)


def test_multiplication_across_contexts_on_equal_data(gl3):
    A, B = AffineWeylGroup(gl3), AffineWeylGroup(gl3)
    x = A.translation((1, 0, 0)) * B.translation((1, 0, 0))
    assert x == A.translation((2, 0, 0)) and x.group is A
    s0, s1 = A.simple_reflection(0), B.simple_reflection(1)
    assert (s0 * s1).key == (A.simple_reflection(0)
                             * A.simple_reflection(1)).key


def test_element_refuses_finite_index_out_of_range(W3):
    n = W3.weyl.size
    for fin in (-1, n, 99):
        with pytest.raises(ValueError, match="finite Weyl group index"):
            W3.element((0, 0, 0), fin)
    w0 = W3.element((0, 0, 0), W3.weyl.longest)
    assert w0 == w0 * W3.identity and w0.length() == 3


def test_unknown_generator_label_is_a_root_datum_error(W3):
    H = W3.hecke()
    calls = [lambda: W3.simple_reflection(7),
             lambda: W3.from_word([1, 9]),
             lambda: H.lmul_gen(5, H.unit()),
             lambda: H.rmul_gen(H.unit(), -1),
             lambda: H.parahoric_subgroup([1, 4])]
    for call in calls:
        with pytest.raises(RootDatumError, match="unknown reflection label"):
            call()
    # a label is an exact int: a float, a string or a bool is refused too
    for bad in (1.5, "1", True):
        calls = [lambda: W3.simple_reflection(bad),
                 lambda: W3.from_word([1, bad]),
                 lambda: H.lmul_gen(bad, H.unit()),
                 lambda: H.rmul_gen(H.unit(), bad),
                 lambda: H.parahoric_subgroup([1, bad])]
        for call in calls:
            with pytest.raises(RootDatumError,
                               match="unknown reflection label"):
                call()


def test_canonical_words_on_a_reducible_datum():
    """GL(2) x GL(2), the one datum here with an affine label m + c (3):
    pinned canonical words and Omega parts of elements across both
    factors, and each simple reflection's word of one letter."""
    W = load_root_datum(DATA / "gl2xgl2.cfg").affine_weyl()
    s = W.simple_reflection
    cases = [  # (translation, letters after it, word, Omega element)
        ((1, 0, 1, 0), (), (0, 3), ((1, 0, 1, 0), (1, 2))),
        ((2, 0, 0, 1), (), (0, 1, 2), ((1, 1, 1, 0), (2,))),
        ((2, 0, 0, 1), (1, 2), (0, 2, 3), ((1, 1, 1, 0), (2,))),
        ((0, 1, 1, 0), (1, 2), (1, 0), ((1, 0, 1, 0), (1, 2))),
    ]
    for trans, tail, word, (om_trans, om_tail) in cases:
        x = W.translation(trans)
        for lab in tail:
            x = x * s(lab)
        om_element = W.translation(om_trans)
        for lab in om_tail:
            om_element = om_element * s(lab)
        got, om = W.reduced_word(x)
        assert got == word
        assert om.rep == W.rd.kappa_reduce(om_trans)
        assert om.element == om_element and om_element.length() == 0
        assert W.from_word(word, om) == x
    for lab in (0, 1, 2, 3):
        word, om = W.reduced_word(s(lab))
        assert word == (lab,) and om.rep == (0, 0, 0, 0)


# -- reduced words ------------------------------------------------------------


def test_reduced_word_identity(W2):
    word, om = reduced_word(W2.identity)
    assert word == () and om.grade == 0


def test_reduced_word_t10(W2):
    word, om = reduced_word(W2.translation((1, 0)))
    assert len(word) == 1 and om.grade == 1


def test_reduced_word_round_trip(W2, W3):
    rng = random.Random(3)
    for W in (W2, W3):
        for _ in range(60):
            x = random_element(W, rng)
            word, om = W.reduced_word(x)
            assert len(word) == x.length()
            assert W.from_word(word, om) == x


def test_one_descent_step_behind_strip_and_cache(gl3, gsp4):
    """`_step` takes the smallest-labelled left descent s and gives
    (label, s t, s w); the strip repeats it, the cache returns it, and a
    reduced word starts with its label.  Private contexts, as the cache
    grows."""
    rng = random.Random(5)
    for W in (AffineWeylGroup(gl3), AffineWeylGroup(gsp4)):
        k = W.kernel
        for _ in range(40):
            x = random_element(W, rng)
            if not x.length():
                continue
            t, w = x.trans, x.fin
            step = W._step(t, w)
            label = min(lab for lab in W.gen_labels
                        if k.left_descent(lab, t, w))
            assert step == (label, *k.lmul_gen(label, t, w))
            assert W.simple_reflection(label) * x == W.element(*step[1:])
            assert W._strip(t, w, 1) == ([label], *step[1:])
            assert W._descent_step(t, w) == step
            assert W._steps[(t, w)] == step
            assert W.reduced_word(x)[0][0] == label


def test_omega_element_properties(W3):
    om1 = W3.omega_of((1, 0, 0))
    om2 = W3.omega_of((0, 1, 0))
    assert om1 == om2  # same Kottwitz class
    assert (om1 + om2).grade == 2
    assert (-om1).grade == -1
    assert om1.element.length() == 0


# -- Bruhat order --------------------------------------------------------------


def test_bruhat_examples(W2):
    t10 = W2.translation((1, 0))
    om = t10 * W2.simple_reflection(1)
    assert bruhat_leq(t10, t10)
    assert bruhat_leq(om, t10)
    assert not bruhat_leq(W2.identity, t10)  # Omega classes differ


def test_bruhat_against_subword_oracle(W2, W3):
    rng = random.Random(4)
    for W in (W2, W3):
        for _ in range(60):
            x = random_element(W, rng, coord_span=1)
            y = random_element(W, rng, coord_span=1)
            if y.length() > 6:
                continue
            assert bruhat_leq(x, y) == bruhat_leq_subwords(W, x, y)


def test_bruhat_partial_order(W3):
    rng = random.Random(5)
    els = [random_element(W3, rng, coord_span=1) for _ in range(25)]
    for x in els:
        assert bruhat_leq(x, x)
        for y in els:
            if bruhat_leq(x, y) and bruhat_leq(y, x):
                assert x == y
            if bruhat_leq(x, y) and x != y:
                assert x.length() < y.length()
            for z in els:
                if bruhat_leq(x, y) and bruhat_leq(y, z):
                    assert bruhat_leq(x, z)


# -- admissible sets --------------------------------------------------------------


def test_admissible_examples(W2, W3):
    adm = W2.admissible_set((1, 0))
    t10 = W2.translation((1, 0))
    om = t10 * W2.simple_reflection(1)
    assert adm == {t10, W2.translation((0, 1)), om}
    adm3 = W3.admissible_set((1, 0, 0))
    assert len(adm3) == 7
    assert all(kottwitz_image(x) == kottwitz_image(W3.translation((1, 0, 0)))
               for x in adm3)
    assert W3.admissible_set((0, 0, 0)) == {W3.identity}
    assert admissible_set(W3.rd, (1, 0, 0)) == adm3


def test_admissible_matches_subword_closure(W2, W3, gsp4):
    for W, mu in [(W2, (1, 0)), (W2, (2, 0)), (W3, (1, 0, 0)),
                  (W3, (1, 1, 0)), (gsp4.affine_weyl(), (1, 1, 1))]:
        assert W.admissible_set(mu) == admissible_set_subwords(W, mu)


def test_admissible_downward_closed_with_translation_maxima(W3):
    mu = (1, 1, 0)
    adm = W3.admissible_set(mu)
    from iwahecke.rootdata import weyl_orbit
    maxima = {W3.translation(la) for la in weyl_orbit(W3.rd, mu)}
    for x in adm:
        above = [y for y in adm if x != y and bruhat_leq(x, y)]
        if not above:
            assert x in maxima
    for x in adm:
        for y in adm:
            if bruhat_leq(y, x):
                assert y in adm


def test_admissible_requires_dominant(W2):
    with pytest.raises(RootDatumError):
        W2.admissible_set((0, 1))


# -- Kottwitz homomorphism ------------------------------------------------------


def test_kottwitz_examples(W2, W3):
    assert kottwitz_image(W2.translation((1, 0))).grade == 1
    assert kottwitz_image(W2.identity).grade == 0
    assert kottwitz_image(W3.translation((1, 1, 1))).grade == 3


def test_kottwitz_homomorphism(W3):
    rng = random.Random(6)
    for _ in range(40):
        x, y = random_element(W3, rng), random_element(W3, rng)
        assert kottwitz_image(x * y) == kottwitz_image(x) + kottwitz_image(y)
    # trivial on W_aff: all affine simple reflections
    for lab in W3.gen_labels:
        assert kottwitz_image(W3.simple_reflection(lab)).grade == 0


# -- critical indices -------------------------------------------------------------


def test_critical_indices_examples(W2):
    t_e1 = W2.translation((1, 0))
    assert 1 in critical_indices(t_e1)
    om = t_e1 * W2.simple_reflection(1)
    assert critical_indices(om) == {1, 2}
    assert critical_indices(W2.translation((1, 1))) == frozenset()


def test_critical_indices_gl_only(sp4):
    W = sp4.affine_weyl()
    with pytest.raises(RootDatumError):
        critical_indices(W.identity)


def test_critical_indices_adm_membership(W3):
    # S(w) nonempty exactly on Adm((1,0,0))
    adm = W3.admissible_set((1, 0, 0))
    elements = all_elements_up_to_length(W3, 2, omega_grades=(1,))
    for x in elements:
        assert (len(critical_indices(x)) > 0) == (x in adm)


# -- the Adm memo, one entry per class modulo central coweights --------------


@pytest.mark.parametrize("case", CENTRAL_CASES, ids=central_ids)
def test_admissible_set_of_a_central_shift_is_translated(case):
    """Adm(mu + c) = t_c Adm(mu) for central c, served off mu's memo entry:
    equal to a fresh context's, every element carrying the kernel's length;
    one memo entry per class modulo central coweights, however many
    shifts; refusals keep their type and message."""
    rd, mus, basis = central_case(case)
    W = AffineWeylGroup(rd)
    k = W.kernel
    for mu in mus:
        W.admissible_set(mu)
        for nu in central_shifts(mu, basis):
            adm = W.admissible_set(nu)
            assert adm == AffineWeylGroup(rd).admissible_set(nu), nu
            assert all(x._len == k.length(x.trans, x.fin) for x in adm)
        one = AffineWeylGroup(rd)
        for nu in central_shifts(mu, basis[:1], range(11)):
            one.admissible_set(nu)
        assert len(one._adm) == 1
    classes = {tuple(dot(mu, a) for a in rd.simple_roots) for mu in mus}
    assert len(W._adm) == len(classes)
    for bad, msg in class_memo_refusals(rd, mus):
        with pytest.raises(RootDatumError) as err:
            W.admissible_set(bad)
        assert type(err.value) is RootDatumError and str(err.value) == msg
