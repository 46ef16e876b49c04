import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from iwahecke.deeplevel import (DiagonalTorusPoint,
                                IndeterminatePrecisionError,
                                build_reference_corpus,
                                drinfeld_propp_value, ell_invariant,
                                gl2_level_index, k_invariant, kn_coset_reps,
                                level_compatibility_check, load_corpus,
                                matrix_from_text,
                                random_kn_element, save_corpus, scholze_phi,
                                scholze_z)
from iwahecke.ffield import GF, _field_of_size
from iwahecke.laurent import LaurentPoly
from iwahecke.rootdata import build_root_datum
from iwahecke.series import Matrix2, TruncatedSeries

from oracles import (all_elements_up_to_length, bruhat_leq_subwords,
                     k_by_entries, level_compatibility_by_cosets,
                     level_compatibility_by_products, phi_by_entries,
                     random_kn_element_by_sum)

F2 = GF(2)
F3 = GF(3)
CORPUS = {2: Path("src/iwahecke/data/scholze_corpus_q2.txt"),
          3: Path("src/iwahecke/data/scholze_corpus_q3.txt")}


def mono(f, k, c=1):
    return TruncatedSeries.monomial(f, k, c)


def zero(f):
    return TruncatedSeries.zero(f)


def diag(f, a, b):
    return Matrix2(a, zero(f), zero(f), b)


def antidiag(f, a, b):
    return Matrix2(zero(f), a, b, zero(f))


# -- invariants ----------------------------------------------------------------


def test_ell_examples():
    assert ell_invariant(diag(F2, mono(F2, 1), mono(F2, 0))) == "inf"
    assert ell_invariant(diag(F2, mono(F2, 1), mono(F2, 1))) == 0
    assert ell_invariant(antidiag(F2, mono(F2, 1), mono(F2, 0))) == 0


def test_ell_indeterminate():
    g = diag(F2, mono(F2, 1).truncate(1), mono(F2, 0).truncate(1))
    with pytest.raises(IndeterminatePrecisionError):
        ell_invariant(g)


def test_field_of_size_is_gf_of_its_prime_power():
    for q, p, r in ((2, 2, 1), (3, 3, 1), (4, 2, 2), (8, 2, 3), (9, 3, 2),
                    (25, 5, 2), (4093, 4093, 1)):
        assert _field_of_size(q) is GF(p, r), q


def test_k_examples():
    assert k_invariant(Matrix2.identity(F2)) == 0
    assert k_invariant(diag(F2, mono(F2, 2), mono(F2, 3))) == 2
    assert k_invariant(Matrix2.identity(F2).scale(mono(F2, -1))) == -1
    with pytest.raises(ValueError):
        k_invariant(Matrix2(zero(F2), zero(F2), zero(F2), zero(F2)))


def test_k_refuses_an_unknown_zero_below_the_known_entries():
    # g = [[t, 0], [O(t^-1), 1]]: the known entries give k = 0, but c may
    # have valuation -1.  Its exact completions disagree on phi_2 (c = t^-1
    # gives k = -1 and 3, c = 0 gives k = 0 and 9), so both refuse.
    f = F2
    c = TruncatedSeries.zero(f, prec=-1)
    g = Matrix2(mono(f, 1), zero(f), c, mono(f, 0))
    msg = "an unresolved entry could have smaller valuation"
    with pytest.raises(IndeterminatePrecisionError, match=msg):
        k_invariant(g)
    with pytest.raises(IndeterminatePrecisionError, match=msg):
        scholze_phi(2, g)
    assert scholze_phi(2, Matrix2(g.a, g.b, mono(f, -1), g.d)) == 3
    assert scholze_phi(2, Matrix2(g.a, g.b, zero(f), g.d)) == 9


def test_k_of_unknown_zeros_is_indeterminate_not_the_zero_matrix():
    o3 = TruncatedSeries.zero(F2, prec=3)
    with pytest.raises(IndeterminatePrecisionError,
                       match="all entries vanish at precision"):
        k_invariant(Matrix2(o3, o3, o3, o3))


def test_k_unit_invariance():
    rng = random.Random(0)
    g = antidiag(F3, mono(F3, 1), mono(F3, 0, 2))
    for _ in range(25):
        u = random_kn_element(F3, 1, rng)
        assert k_invariant(g * u) == k_invariant(g)
        assert k_invariant(u * g) == k_invariant(g)


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2), (3, 2)],
                         ids=["GF(2)", "GF(3)", "GF(4)", "GF(9)"])
def test_random_kn_element_matches_matrix_sum(p, r):
    # same draws, same matrix as 1 + M formed by a Matrix2 sum
    f = GF(p, r)
    for n in (1, 2, 3):
        rng, ref = random.Random(n), random.Random(n)
        for depth in (1, 4, 8):
            for _ in range(20):
                assert (random_kn_element(f, n, rng, depth)
                        == random_kn_element_by_sum(f, n, ref, depth))
        assert rng.random() == ref.random()


# -- the three-case formula -----------------------------------------------------


@pytest.mark.parametrize("field", [F2, F3])
def test_phi_reference_cases(field):
    q = field.q
    g_anti = antidiag(field, mono(field, 1), mono(field, 0))
    assert scholze_phi(1, g_anti) == -1 - q           # trace in pi*O
    g_diag = diag(field, mono(field, 1), mono(field, 0))
    for n in (1, 2, 3):
        assert scholze_phi(n, g_diag) == 1 + q ** (2 * n - 1)
    g_off = diag(field, mono(field, 2), mono(field, -1))
    assert scholze_phi(1, g_off) == 0                 # trace not integral


def test_phi_case2_finite_ell():
    # g = diag(1 + t, u) with det val 1... build l(g) = 1 < n + k for n = 2
    f = F2
    a = mono(f, 0) + mono(f, 1)          # 1 + t
    g = diag(f, a, mono(f, 1))           # det = t + t^2, val 1; tr = 1+t unit
    # 1 - g = diag(t, 1 + t): det val = 1
    assert scholze_phi(2, g) == 1 - 2 ** 2


def test_phi_negative_k_support():
    # k(g) = -1 on the support of phi_2 but not phi_1
    f = F3
    g = Matrix2(mono(f, 1), mono(f, -1), zero(f), mono(f, 0))
    assert scholze_phi(1, g) == 0                    # g not in B_0
    v = scholze_phi(2, g)                            # n + k = 1
    assert v == 1 + 3 ** (2 * 1 - 1)


def test_phi_rejects_val_det_not_one():
    f = F3
    g = diag(f, mono(f, 0), mono(f, 0, 2))          # det valuation 0
    assert scholze_phi(1, g) == 0
    g = Matrix2(mono(f, 0), mono(f, -1), mono(f, 0), mono(f, 0))
    assert g.det().valuation() == -1                # via a k(g) = -1 entry
    assert scholze_phi(2, g) == 0


def test_phi_precision_policy():
    f = F2
    g = diag(f, mono(f, 1), mono(f, 0)).truncate(1)
    with pytest.raises(IndeterminatePrecisionError):
        scholze_phi(1, g)  # det unresolved at order 1
    # at precision 12 everything in the corpus resolves at n in {1,2}
    for g in build_reference_corpus(f, 40):
        scholze_phi(1, g.truncate(12))
        scholze_phi(2, g.truncate(12))


def _o(k):
    """O(t^k) over F_3: an unknown zero known to precision k."""
    return TruncatedSeries.zero(F3, prec=k)


# inputs that reach each undecided case split past support condition 1
UNRESOLVED_SPLITS = [
    # det g = t + O(t^2), but tr g = O(t^-1) may not be integral
    (1, Matrix2(_o(-1), mono(F3, 1), mono(F3, 0, 2), mono(F3, 3)),
     "tr(g) valuation unresolved"),
    # det g = t and tr g = 1 + t, but b = O(t^-2) may lie outside B_{1-n}
    (2, Matrix2(mono(F3, 1), _o(-2), zero(F3), mono(F3, 0)),
     "entry valuation unresolved"),
    # det g = t + O(t^2) and tr g = O(t^0) is integral, but may be a unit
    (1, Matrix2(_o(0), mono(F3, 1), mono(F3, 0, 2), mono(F3, 2)),
     "tr(g) unresolved at order 0"),
]


@pytest.mark.parametrize("n,g,message", UNRESOLVED_SPLITS,
                         ids=["trace-valuation", "entry-valuation",
                              "trace-order-0"])
def test_phi_refuses_each_unresolved_case_split(n, g, message):
    with pytest.raises(IndeterminatePrecisionError,
                       match=f"^{re.escape(message)}$"):
        scholze_phi(n, g)


def test_level_index_values():
    assert gl2_level_index(1, 2) == 6
    assert gl2_level_index(1, 3) == 48
    assert gl2_level_index(2, 2) == 96


def test_level_index_by_enumeration_q2_n2():
    # order of GL_2(F_2[t]/t^2) counted directly
    f = F2
    count = 0
    for quad in product(range(4), repeat=4):
        def lift(x):
            return TruncatedSeries(f, 0, [x & 1, x >> 1])
        m = Matrix2(*(lift(x) for x in quad))
        d = m.det()
        if d.coeff_at(0) == 1:
            count += 1
    assert count == gl2_level_index(2, 2)


def test_z_normalization():
    g = diag(F2, mono(F2, 1), mono(F2, 0))
    assert scholze_z(1, g) == Fraction(1 * (1 + 2), 6)


# -- bi-invariance and change of level -------------------------------------------


@pytest.mark.parametrize("field,n", [(F2, 1), (F3, 1), (F2, 2)])
def test_bi_invariance_sampled(field, n):
    rng = random.Random(42)
    mats = [g.truncate(12) for g in build_reference_corpus(field, 25)]
    for g in mats:
        phi = scholze_phi(n, g)
        for _ in range(4):
            u = random_kn_element(field, n, rng)
            up = random_kn_element(field, n, rng)
            assert scholze_phi(n, u * g * up) == phi


def test_coset_reps_count():
    assert sum(1 for _ in kn_coset_reps(F2, 1)) == 16
    assert sum(1 for _ in kn_coset_reps(F3, 1)) == 81


def test_level_compatibility_reference_points():
    g_anti = antidiag(F2, mono(F2, 1), mono(F2, 0))
    g_diag = diag(F2, mono(F2, 1), mono(F2, 0))
    g_off = diag(F2, mono(F2, 2), mono(F2, -1))
    assert level_compatibility_check(1, g_anti)
    assert level_compatibility_check(1, g_diag)
    assert level_compatibility_check(1, g_off)  # 0 = 0


def _outcome(check, n, g):
    try:
        return check(n, g)
    except IndeterminatePrecisionError as exc:
        return str(exc)


def _corpus(q, precision):
    """The bundled corpus for q = 2, 3; a generated one for q = 4, 5."""
    if q in CORPUS:
        return load_corpus(CORPUS[q], GF(q), precision)
    field = GF(2, 2) if q == 4 else GF(q)
    return [g if precision is None else g.truncate(precision)
            for g in build_reference_corpus(field)]


def _shapes_off_the_corpora(f):
    """Exact g the corpora lack: det g exactly 0 (twice), val det g = 0,
    val det g = -1, val det g = 2 (a zero t^1 coefficient), and an entry
    of valuation -3, below -n for n = 1, 2."""
    u = f.q - 1
    return [Matrix2(mono(f, 0), mono(f, 0), mono(f, 0), mono(f, 0)),
            diag(f, mono(f, 1), zero(f)),
            Matrix2(mono(f, 0), mono(f, 1), zero(f), mono(f, 0, u)),
            Matrix2(mono(f, -1), zero(f), mono(f, 2), mono(f, 0)),
            diag(f, mono(f, 1), mono(f, 1, u)),
            Matrix2(mono(f, 1), mono(f, -3), zero(f), mono(f, 0, u))]


# every 4th matrix of the q=2 corpus, every 10th of the q=3 one, every 20th
# and 40th of generated q=4, 5 ones: the full-product oracle is q^4
# products per check
@pytest.mark.parametrize("precision,q,stride", [
    (precision, q, stride) for q, stride in [(2, 4), (3, 10)]
    for precision in (None, 2, 3, 12)] + [
    (precision, q, stride) for q, stride in [(4, 20), (5, 40)]
    for precision in (None, 2)])
def test_level_compatibility_matches_full_products(q, stride, precision):
    mats = _corpus(q, precision)[::stride]
    if precision is None:
        mats += _shapes_off_the_corpora(mats[0].field)
    seen = set()
    for g in mats:
        for n in (1, 2):
            got = _outcome(level_compatibility_check, n, g)
            assert got == _outcome(level_compatibility_by_products, n, g)
            seen.add(type(got))
    # truncation to O(t^2) leaves some rows undecided, and the rest decided
    assert seen == ({bool, str} if precision == 2 else {bool})


def test_exact_det_gk_agrees_with_det_g_through_order_1():
    # the coset sum gives every coset the determinant det g: det(g k) =
    # det g det k with det k in 1 + t^n O, so support condition 1 reads
    # the same answers from both.  Below order 1 only the valuations agree
    # (val det g = 0, n = 1 moves the t^1 coefficient), and condition 1
    # reads no coefficient there
    for q in (2, 3, 4, 5):
        f = GF(2, 2) if q == 4 else GF(q)
        for g in _shapes_off_the_corpora(f):
            det = g.det()
            for n in (1, 2):
                for k in kn_coset_reps(f, n):
                    dk = (g * k).det()
                    assert dk.val_ge(1) == det.val_ge(1)
                    if det.val_ge(1):
                        assert dk.coeff_at(1) == det.coeff_at(1)
                    else:
                        assert dk.val == det.val


def _completion(e, rng, depth=4):
    """An exact series that agrees with `e` below its precision."""
    lo = e.prec if e.val is None else e.val
    return TruncatedSeries(e.field, lo, [e.coeff_at(k)
                                         for k in range(lo, e.prec)]
                           + [rng.randrange(e.field.q) for _ in range(depth)])


def test_level_compatibility_decides_truncated_g_by_det_g():
    # g = [[O(t^2), t^-3 + O(t^-2)], [t^3 + t^4 + O(t^6), t^-1 + O(t^0)]]:
    # det g = 1 + O(t) fails support condition 1, so does det(g' k) for
    # every completion g' of g and every k in K_n, and the sum is True.
    # Some det(g k) formed from the truncated entries is O(t^0), so the
    # product per coset cannot decide it
    g = Matrix2(TruncatedSeries(F2, 0, [], 2), TruncatedSeries(F2, -3, [1], -2),
                TruncatedSeries(F2, 3, [1, 1], 6),
                TruncatedSeries(F2, -1, [1], 0))
    rng = random.Random(5)
    completions = [Matrix2(*(_completion(e, rng) for e in g.entries))
                   for _ in range(8)]
    for n in (1, 2):
        assert level_compatibility_check(n, g) is True
        assert (_outcome(level_compatibility_by_products, n, g)
                == "det(g) valuation unresolved")
        for h in completions:
            assert level_compatibility_check(n, h) is True
            assert level_compatibility_by_products(n, h) is True


def _value_or_error(f, *args):
    """f(*args), or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _reference_inputs(q, stride):
    """Every `stride`-th matrix of the q corpus at precision None and 0..4,
    from a different offset at each precision, then the shapes off the
    corpora and the undecided case splits over the same field."""
    mats = []
    for offset, precision in enumerate((None, 0, 1, 2, 3, 4)):
        mats += _corpus(q, precision)[offset::stride]
    f = mats[0].field
    unknown_zero_c = Matrix2(mono(F2, 1), zero(F2),
                             TruncatedSeries.zero(F2, prec=-1), mono(F2, 0))
    return mats + _shapes_off_the_corpora(f) + [
        g for g in [h for _, h, _ in UNRESOLVED_SPLITS] + [unknown_zero_c]
        if g.field is f]


# the coset sum against one full product g k per representative: q^4
# products a check, so the larger fields take sparser strides
@pytest.mark.parametrize("q,stride", [(2, 12), (3, 30), (4, 100), (5, 200)])
def test_level_compatibility_matches_coset_by_coset_reference(q, stride):
    # the reference visits `kn_coset_reps` in order and reads phi_{n+1}
    # from each g k's entries, so where a coset is undecided both raise
    # the message of the first undecided coset
    seen = set()
    for g in _reference_inputs(q, stride):
        for n in (1, 2, 3):
            got = _value_or_error(level_compatibility_check, n, g)
            assert got == _value_or_error(level_compatibility_by_cosets, n,
                                          g), (n, g)
            seen.add(got if type(got) is tuple else type(got))
    assert bool in seen and any(type(x) is tuple for x in seen)


@pytest.mark.parametrize("q,stride", [(2, 2), (3, 3), (4, 4), (5, 5)])
def test_phi_and_k_match_the_per_entry_reference(q, stride):
    f = GF(2, 2) if q == 4 else GF(q)
    o3 = TruncatedSeries.zero(f, prec=3)
    mats = _reference_inputs(q, stride) + [
        Matrix2(zero(f), zero(f), zero(f), zero(f)),
        Matrix2(o3, o3, o3, o3)]
    seen = set()
    for g in mats:
        got = _value_or_error(k_invariant, g)
        assert got == _value_or_error(k_by_entries, g.entries), g
        seen.add(got if type(got) is tuple else int)
        for n in (1, 2, 3):
            assert (_value_or_error(scholze_phi, n, g)
                    == _value_or_error(phi_by_entries, n, g, g.det())), (n, g)
    assert {(ValueError, "k(g) is undefined for the zero matrix"),
            (IndeterminatePrecisionError, "all entries vanish at precision"),
            int} <= seen


def test_det_one_minus_g_keeps_product_precision():
    # a = d = 1 + O(t^2), b = c = 0: (1-a)(1-d) is known to O(t^4), where
    # 1 - tr g + det g would be known to O(t^2) only
    for f in (F2, F3):
        one = TruncatedSeries.one(f, prec=2)
        g = diag(f, one, one)
        with pytest.raises(IndeterminatePrecisionError, match=r"O\(t\^4\)"):
            ell_invariant(g)
        # a = d = 1 + t^2 + O(t^3): the product pins val det(1-g) = 4, and
        # 1 - tr g + det g = O(t^3) would leave it undecided
        a = (mono(f, 0) + mono(f, 2)).truncate(3)
        assert ell_invariant(diag(f, a, a)) == 4


def test_level_compatibility_independent_of_representatives():
    # replace each representative k by k * (random element of K_{n+1})
    f = F2
    rng = random.Random(3)
    g = antidiag(f, mono(f, 1), mono(f, 0))
    total = Fraction(0)
    for k in kn_coset_reps(f, 1):
        total += scholze_z(2, g * (k * random_kn_element(f, 2, rng)))
    assert total == scholze_z(1, g)


# -- corpus I/O -------------------------------------------------------------------


def test_corpus_round_trip(tmp_path):
    mats = build_reference_corpus(F3, 30)
    path = tmp_path / "c.txt"
    save_corpus(path, mats)
    back = load_corpus(path, F3)
    assert back == mats
    trunc = load_corpus(path, F3, precision=5)
    assert all((not m.a.exact) and m.a.prec == 5 for m in trunc)


@pytest.mark.parametrize("q", sorted(CORPUS))
def test_bundled_corpus_regenerates_byte_for_byte(q, tmp_path):
    path = tmp_path / f"scholze_corpus_q{q}.txt"
    save_corpus(path, build_reference_corpus(GF(q)))
    assert path.read_bytes() == CORPUS[q].read_bytes()


def test_corpus_text_errors():
    with pytest.raises(ValueError):
        matrix_from_text("z | z | z", F2)
    with pytest.raises(ValueError):
        matrix_from_text("0:7 | z | z | z", F2)


# -- pro-p Drinfeld ---------------------------------------------------------------


def test_drinfeld_reference_cases():
    W2 = build_root_datum("GL", 2).affine_weyl()
    om = W2.translation((1, 0)) * W2.simple_reflection(1)
    t = DiagonalTorusPoint(F3, (1, 1))
    assert drinfeld_propp_value(t, om) == Fraction(1, 1 - 3)
    t_e1 = W2.translation((1, 0))
    t_bad = DiagonalTorusPoint(F3, (1, 2))
    assert drinfeld_propp_value(t_bad, t_e1) == 0
    s1 = W2.simple_reflection(1)
    assert drinfeld_propp_value(t, s1) == 0  # off Adm


def test_drinfeld_support_is_admissible_set():
    W = build_root_datum("GL", 3).affine_weyl()
    adm = W.admissible_set((1, 0, 0))
    t = DiagonalTorusPoint(F2, (1, 1, 1))
    for x in all_elements_up_to_length(W, 2, omega_grades=(1,)):
        val = drinfeld_propp_value(t, x)
        assert (val != 0) == (x in adm)


def test_drinfeld_closed_expression_all_cases():
    # n <= 3, p in {2, 3}, r in {1, 2}: every (w, t) against the formula
    # with S(w) recomputed through the subword Bruhat oracle
    for n, p, r in [(2, 2, 1), (2, 3, 1), (2, 2, 2), (3, 2, 1), (3, 3, 1),
                    (2, 3, 2), (3, 2, 2)]:
        q = p ** r
        field = GF(p, r)
        W = build_root_datum("GL", n).affine_weyl()
        mu = (1,) + (0,) * (n - 1)
        adm = W.admissible_set(mu)
        for w in adm:
            crit = frozenset(
                j + 1 for j in range(n)
                if bruhat_leq_subwords(
                    W, w, W.translation(tuple(1 if i == j else 0
                                              for i in range(n)))))
            assert crit == W.critical_indices(w)
            s = len(crit)
            for entries in product(range(1, field.q), repeat=n):
                t = DiagonalTorusPoint(field, entries)
                val = drinfeld_propp_value(t, w)
                # N_r(t) in the diagonal subtorus T_S: every norm off S is 1
                if all(x == 1 for j, x in enumerate(t.norms(), 1)
                       if j not in crit):
                    expected = Fraction((-1) ** n * (p - 1) ** (n - s),
                                        (1 - q) ** (n + 1 - s))
                    assert val == expected
                else:
                    assert val == 0


def test_propp_pushforward_to_iwahori_is_z_mu():
    # pushed forward from the pro-p Iwahori to the Iwahori level, the
    # Drinfeld function of mu = (1, 0^(n-1)) is v^l(t_mu) z_mu at v^2 = q:
    # at each w of its support, sum over t in T(F_q) is w's coefficient
    checked = 0
    for n, p, r in [(2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2), (3, 2, 1),
                    (3, 2, 2), (3, 3, 1), (3, 3, 2), (4, 2, 1), (4, 3, 1)]:
        field = GF(p, r)
        W = build_root_datum("GL", n).affine_weyl()
        mu = (1,) + (0,) * (n - 1)
        vz = W.hecke().bernstein_function(mu).scale(
            LaurentPoly.v(W.translation(mu).length()))
        torus = [DiagonalTorusPoint(field, e)
                 for e in product(range(1, field.q), repeat=n)]
        for w, coeff in vz.terms.items():
            pushed = sum(drinfeld_propp_value(t, w) for t in torus)
            assert pushed == coeff.eval_q(p ** r), (n, p, r, w)
            checked += 1
    assert checked == 70


def test_drinfeld_validation():
    # n, p and r are read off t; w must lie in GL(n) for n = t's rank
    t = DiagonalTorusPoint(F3, (1, 1))
    W3 = build_root_datum("GL", 3).affine_weyl()
    with pytest.raises(ValueError, match=r"GL\(2\), the torus point's "
                                         r"rank, not of GL\(3\) \(rank 3\)"):
        drinfeld_propp_value(t, W3.identity)
    W_sp = build_root_datum("Sp", 4).affine_weyl()
    with pytest.raises(ValueError, match=r"not of Sp\(4\) \(rank 2\)"):
        drinfeld_propp_value(t, W_sp.identity)
    with pytest.raises(ValueError):
        DiagonalTorusPoint(F3, (1, 0))


def test_torus_point_is_an_immutable_value():
    """Equality and hash read the field and the entries; no attribute can be
    assigned or deleted."""
    t = DiagonalTorusPoint(F3, (1, 2))
    same = DiagonalTorusPoint(F3, (1, 2))
    assert t == same and hash(t) == hash(same) and len({t, same}) == 1
    assert t != DiagonalTorusPoint(F3, (2, 1))
    assert t != DiagonalTorusPoint(GF(5), (1, 2)) and t != (F3, (1, 2))
    assert t.norms() == (1, 2)
    for name in ("field", "entries", "new"):
        with pytest.raises(AttributeError):
            setattr(t, name, F2)
    with pytest.raises(AttributeError):
        del t.entries
    assert t.field is F3 and t.entries == (1, 2)
    with pytest.raises(ValueError):
        DiagonalTorusPoint(F3, (1, 3))  # out of field range

def test_phi_over_gf4():
    # q = 4 (non-prime prime power): the evaluators are generic in the field
    f4 = GF(2, 2)
    g = diag(f4, mono(f4, 1), mono(f4, 0))
    for n in (1, 2):
        assert scholze_phi(n, g) == 1 + 4 ** (2 * n - 1)
    h = antidiag(f4, mono(f4, 1, 3), mono(f4, 0, 2))
    assert scholze_phi(1, h) == -1 - 4
    assert gl2_level_index(1, 4) == (16 - 1) * (16 - 4)
    assert level_compatibility_check(1, g)
