import random
from itertools import combinations, product

import pytest

import iwahecke.rootdata as rootdata
from iwahecke.intlinalg import dot
from iwahecke.rootdata import (RootDatum, RootDatumError, build_root_datum,
                               is_minuscule, levi_sub_datum, load_root_datum,
                               weyl_orbit)

from conftest import DATA
from oracles import smith_omega_grading
from test_kernel_tables import CONFIGS, GROUPS, _datum, _ids


def test_gl_two_rho(gl2, gl3):
    assert gl2.two_rho == (1, -1)
    assert gl3.two_rho == (2, 0, -2)


def test_sl2_shape():
    sl2 = build_root_datum("SL", 2)
    assert sl2.rank == 1
    assert len(sl2.simple_coroots) == 1
    assert sl2.two_rho == (2,)


def test_rejects_bad_rank():
    with pytest.raises(RootDatumError):
        build_root_datum("GL", 0)
    with pytest.raises(RootDatumError):
        build_root_datum("SL", 1)
    with pytest.raises(RootDatumError):
        build_root_datum("Sp", 3)
    with pytest.raises(RootDatumError):
        build_root_datum("E", 8)


@pytest.mark.parametrize("family,n,count", [
    ("GL", 101, 10100), ("SL", 101, 10100), ("GL", 200, 39800),
    ("Sp", 142, 10082), ("GSp", 142, 10082),
    ("GL", 10 ** 9, 10 ** 18 - 10 ** 9),
])
def test_oversized_family_refused_before_root_closure(monkeypatch, family, n,
                                                      count):
    # the closure of GL(200) would take about a minute, then fail with the
    # wrong reason
    def no_closure(*args):
        raise AssertionError("the root closure ran")
    monkeypatch.setattr("iwahecke.rootdata._close_roots", no_closure)
    with pytest.raises(RootDatumError) as exc:
        build_root_datum(family, n)
    assert str(exc.value) == (f"{family}({n}) has {count} roots, more than "
                              "the 10000 the root closure allows")


def test_root_count_guard_boundary(monkeypatch):
    # GL(100) has 9,900 roots and Sp(140) 9,800: both reach the closure
    closed = []

    def no_roots(simple_roots, simple_coroots):
        closed.append((len(simple_roots), len(simple_coroots[0])))
        return {}, {}
    monkeypatch.setattr("iwahecke.rootdata._close_roots", no_roots)
    built = [build_root_datum(family, n).family for family, n in (
        ("GL", 100), ("SL", 100), ("Sp", 140), ("GSp", 140))]
    assert built == ["GL(100)", "SL(100)", "Sp(140)", "GSp(140)"]
    assert closed == [(99, 100), (99, 99), (70, 70), (70, 71)]


def test_positive_roots_are_nonneg_combinations():
    for case in GROUPS + CONFIGS:
        rd = _datum(case)
        assert len(rd.pos_root_coords) == len(rd.pos_roots), case
        heights = []
        for a, coords in zip(rd.pos_roots, rd.pos_root_coords):
            assert len(coords) == rd.n_simple
            assert all(type(x) is int and x >= 0 for x in coords), (case, a)
            assert a == tuple(
                sum(c * ai[k] for c, ai in zip(coords, rd.simple_roots))
                for k in range(rd.rank)), (case, a)
            heights.append(sum(coords))
        assert heights == sorted(heights), case
        assert rd.two_rho == tuple(sum(col) for col in zip(*rd.pos_roots))


def test_cartan_matrix_values(gl3, sp4):
    assert gl3.cartan_matrix == ((2, -1), (-1, 2))
    # type C_2: one long root
    assert sorted(sum(r, ()) for r in [sp4.cartan_matrix])[0]
    c = sp4.cartan_matrix
    assert {c[0][1], c[1][0]} == {-1, -2}


def test_weyl_orbit_examples(gl2, gl3):
    assert weyl_orbit(gl2, (1, 0)) == {(1, 0), (0, 1)}
    assert len(weyl_orbit(gl3, (1, 0, 0))) == 3
    assert weyl_orbit(gl2, (1, 1)) == {(1, 1)}


def test_weyl_orbit_closed_under_reflections(gl3, sp4):
    rng = random.Random(5)
    for rd in (gl3, sp4):
        for _ in range(10):
            mu = tuple(rng.randint(-2, 2) for _ in range(rd.rank))
            orbit = weyl_orbit(rd, mu)
            for la in orbit:
                for i in range(rd.n_simple):
                    assert rd.reflect(i, la) in orbit
            assert sum(1 for la in orbit if rd.is_dominant(la)) == 1


def test_pair_two_rho_examples(gl2, gl3):
    # <la, 2 rho> is dot(la, rd.two_rho)
    assert dot((1, 0), gl2.two_rho) == 1
    assert dot((1, 0, 0), gl3.two_rho) == 2
    assert dot((0, 0, 0), gl3.two_rho) == 0


def test_pair_two_rho_linear(gl4):
    rng = random.Random(11)
    for _ in range(20):
        a = tuple(rng.randint(-3, 3) for _ in range(4))
        b = tuple(rng.randint(-3, 3) for _ in range(4))
        s = tuple(x + y for x, y in zip(a, b))
        two_rho = gl4.two_rho
        assert dot(s, two_rho) == dot(a, two_rho) + dot(b, two_rho)


def test_is_minuscule(gl2, gl3, gl4):
    assert is_minuscule(gl4, (1, 1, 0, 0))
    assert not is_minuscule(gl2, (2, 0))
    assert is_minuscule(gl3, (1, 0, 0))
    with pytest.raises(RootDatumError):
        is_minuscule(gl2, (0, 1))  # not dominant


def test_coweight_of_wrong_length_refused(gl3):
    calls = [lambda: gl3.is_dominant((1, 0)),
             lambda: is_minuscule(gl3, (1, 1, 0, 5)),
             lambda: gl3.dominant_rep((1, 1, 0, 5)),
             lambda: gl3.dominant_rep(()),
             lambda: weyl_orbit(gl3, (1, 0))]
    for call in calls:
        with pytest.raises(RootDatumError,
                           match="coweight length differs from rank"):
            call()


WRONG_LENGTH_CALLS = {
    "reflect": lambda rd, la: rd.reflect(0, la),
    "omega_grade": lambda rd, la: rd.omega_grade(la),
    "kappa_reduce": lambda rd, la: rd.kappa_reduce(la),
}


@pytest.mark.parametrize("name", list(WRONG_LENGTH_CALLS))
def test_pairings_refuse_coweight_of_wrong_length(gl3, name):
    call = WRONG_LENGTH_CALLS[name]
    for la in ((1, 0), (1, 1, 0, 5), ()):
        with pytest.raises(RootDatumError,
                           match="coweight length differs from rank"):
            call(gl3, la)
    call(gl3, (1, 0, 0))  # the right length still passes


def test_minuscule_orbit_pairings(gl4):
    for mu in [(1, 0, 0, 0), (1, 1, 0, 0)]:
        for la in weyl_orbit(gl4, mu):
            assert all(abs(dot(la, a)) <= 1 for a in gl4.pos_roots)


def test_dominant_rep(gl3):
    rng = random.Random(3)
    for _ in range(30):
        mu = tuple(rng.randint(-3, 3) for _ in range(3))
        rep = gl3.dominant_rep(mu)
        assert gl3.is_dominant(rep)
        assert rep in weyl_orbit(gl3, mu)
        assert rep == tuple(sorted(mu, reverse=True))


def test_gsp4_structure(gsp4):
    assert gsp4.rank == 3
    assert len(gsp4.pos_roots) == 4
    assert is_minuscule(gsp4, (1, 1, 1))
    assert dot((1, 1, 1), gsp4.two_rho) == 3
    assert gsp4.omega_grade((1, 1, 1)) == 1  # similitude valuation


def test_omega_quotients(gl3, sp4):
    assert gl3.omega_is_free_cyclic
    assert gl3.omega_grade((2, 1, 1)) == 4
    assert sp4.omega_is_free_cyclic
    assert sp4.omega_grade((3, 2)) == 0
    assert gl3.kappa_reduce((2, 1, 1)) == (0, 0, 4)


def test_datum_is_an_immutable_value():
    """Equality and hash read rank, simple roots and simple coroots, not the
    display name; no attribute can be assigned or deleted, since a datum
    keys the shared group contexts, while the cached properties still fill."""
    rd = build_root_datum("GL", 3)
    copy = RootDatum("GL(3) copy", rd.rank, rd.simple_roots, rd.simple_coroots)
    assert copy == rd and hash(copy) == hash(rd) and copy.family != rd.family
    assert rd != build_root_datum("SL", 3) and rd != build_root_datum("GL", 2)
    assert rd != rd.simple_roots
    for name in ("rank", "family", "components", "new"):
        with pytest.raises(AttributeError):
            setattr(rd, name, 1)
    with pytest.raises(AttributeError):
        del rd.rank
    assert rd.components == ((0, 1),) and "components" in vars(rd)
    assert rd.rank == 3 and rd.affine_weyl() is rd.affine_weyl()


def test_datum_from_four_fields_builds_a_working_group(monkeypatch):
    """The four defining fields are the whole datum: a GL(3) built from
    them has its positive roots and, in an empty group registry, builds the
    group that GL(3) then shares, with the 25 elements of Adm((2, 1, 0))."""
    monkeypatch.setattr("iwahecke.affine._REGISTRY", {})
    gl3 = build_root_datum("GL", 3)
    copy = RootDatum("GL(3) copy", 3, gl3.simple_roots, gl3.simple_coroots)
    W = copy.affine_weyl()
    assert W.rd is copy and gl3.affine_weyl() is W
    assert len(W.admissible_set((2, 1, 0))) == 25
    assert copy.pos_roots == gl3.pos_roots


def test_derived_fields_are_not_arguments():
    # a derived field passed in could disagree with the equality key, and
    # the group registry keys on that
    gl3 = build_root_datum("GL", 3)
    fields = (gl3.family, gl3.rank, gl3.simple_roots, gl3.simple_coroots)
    with pytest.raises(TypeError):
        RootDatum(*fields, gl3.pos_roots[::-1])
    for name in ("pos_roots", "pos_coroots", "two_rho", "pos_root_coords",
                 "root_reflections", "cartan_matrix"):
        with pytest.raises(TypeError):
            RootDatum(*fields, **{name: getattr(gl3, name)})


def test_custom_config_matches_builtin(gsp4):
    rd = load_root_datum(DATA / "gsp4.cfg")
    assert rd.simple_roots == gsp4.simple_roots
    assert rd.simple_coroots == gsp4.simple_coroots
    assert rd.two_rho == gsp4.two_rho


def test_custom_config_torsion_omega():
    pgl2 = load_root_datum(DATA / "pgl2.cfg")
    assert pgl2.rank == 1
    # X_* / coroot lattice = Z/2: no integer grading
    assert not pgl2.omega_is_free_cyclic
    assert pgl2.kappa_reduce((3,)) == (1,)


def _cfg(tmp_path, rank, roots, coroots):
    path = tmp_path / "datum.cfg"
    path.write_text(f"rank {rank}\nsimple_roots\n" + "\n".join(roots)
                    + "\nend\nsimple_coroots\n" + "\n".join(coroots) + "\nend\n")
    return path


def test_closure_cap_refusal_names_both_reasons(tmp_path, monkeypatch):
    # A_3 is of finite type, with 12 roots: under a cap of 10 the closure
    # cannot tell it from an infinite one, and its refusal says so
    monkeypatch.setattr(rootdata, "_MAX_ROOTS", 10)
    path = _cfg(tmp_path, 3, ["1 0 0", "0 1 0", "0 0 1"],
                ["2 -1 0", "-1 2 -1", "0 -1 2"])
    with pytest.raises(RootDatumError) as info:
        load_root_datum(path)
    assert str(info.value) == (
        "root closure exceeds 10 roots: the Cartan matrix is not of finite "
        "type, or its root system is larger than the package allows")
    monkeypatch.undo()
    assert len(load_root_datum(path).pos_roots) == 6


def test_config_validation(tmp_path):
    with pytest.raises(RootDatumError, match=r"<a_0\^vee, a_0> = 1 != 2"):
        load_root_datum(_cfg(tmp_path, 1, ["1"], ["1"]))
    # <a_0^vee, a_0> = 4: rejected before any closure
    with pytest.raises(RootDatumError, match=r"<a_0\^vee, a_0> = 4 != 2"):
        load_root_datum(_cfg(tmp_path, 2, ["2 -2", "-2 2"], ["1 -1", "-1 1"]))
    # affine A_1^(1): Cartan matrix ((2, -2), (-2, 2)), an infinite closure
    with pytest.raises(RootDatumError, match="not of finite type"):
        load_root_datum(_cfg(tmp_path, 2, ["1 0", "0 1"], ["2 -2", "-2 2"]))
    # <a_0^vee, a_1> = 0 but <a_1^vee, a_0> = -1
    with pytest.raises(RootDatumError, match="asymmetric zero pattern"):
        load_root_datum(_cfg(tmp_path, 2, ["1 0", "0 1"], ["2 0", "-1 2"]))
    # a_1 = -a_0: the same affine Cartan matrix, but the dependent simple
    # roots close up to just {a_0, -a_0}
    with pytest.raises(RootDatumError, match="linearly dependent"):
        load_root_datum(_cfg(tmp_path, 1, ["1", "-1"], ["2", "-2"]))
    # a negative rank, and a key or block given twice, which would
    # overwrite the first value or append to its rows
    path = tmp_path / "bad.cfg"
    for text, match in [
            ("rank -1\n", r"bad rank '-1'"),
            ("rank -1\nsimple_roots\nend\nsimple_coroots\nend\n",
             r"bad rank '-1'"),
            ("rank x\n", r"bad rank 'x'"),
            ("rank 1\nrank 2\n", r"repeated config key 'rank'"),
            ("name a\nrank 1\nname b\n", r"repeated config key 'name'"),
            ("rank 1\nsimple_roots\n2\nend\nsimple_roots\n2\nend\n",
             r"repeated config key 'simple_roots'"),
            ("rank 1\nsimple_coroots\nend\nsimple_coroots\nend\n",
             r"repeated config key 'simple_coroots'"),
            ("rank 1\nsimple_roots 1\n", r"unknown config key 'simple_roots'"),
            ("rank 1\nlevel 2\nlevel 3\n", r"unknown config key 'level'")]:
        path.write_text(text)
        with pytest.raises(RootDatumError, match=match):
            load_root_datum(path)
    # a rank-0 datum, the trivial torus, still loads
    path.write_text("rank 0\nsimple_roots\nend\nsimple_coroots\nend\n")
    assert load_root_datum(path).rank == 0


def test_levi_sub_datum(gl3):
    levi = levi_sub_datum(gl3, [1])
    assert levi.rank == 3
    assert levi.pos_roots == (gl3.simple_roots[0],)
    torus = levi_sub_datum(gl3, [])
    assert torus.pos_roots == ()
    assert torus.two_rho == (0, 0, 0)
    with pytest.raises(RootDatumError):
        levi_sub_datum(gl3, [5])


def test_gl1_torus():
    gl1 = build_root_datum("GL", 1)
    assert gl1.pos_roots == ()
    assert weyl_orbit(gl1, (4,)) == {(4,)}
    assert gl1.omega_grade((4,)) == 4


def _check_grading(rd, rng):
    free_cyclic, grade = smith_omega_grading(rd)
    assert rd.omega_is_free_cyclic == free_cyclic, rd
    for _ in range(20):
        v = tuple(rng.randint(-6, 6) for _ in range(rd.rank))
        assert rd.omega_grade(v) == grade(v), (rd, v)


@pytest.mark.parametrize("case", GROUPS + CONFIGS, ids=_ids)
def test_omega_grade_matches_smith_reference(case):
    rd = _datum(case)
    rng = random.Random(_ids(case))
    _check_grading(rd, rng)
    labels = range(1, rd.n_simple + 1)
    for k in range(rd.n_simple):
        for sub in combinations(labels, k):
            _check_grading(levi_sub_datum(rd, sub), rng)


@pytest.mark.parametrize("root, coroot, form", [
    ("1 0", "2 1", (1, -2)),  # torsion-free although the HNF pivot is 2
    ("1 0", "2 0", None),     # Omega = Z/2 + Z
    ("1 1", "1 1", (1, -1)),
], ids=["coroot21", "coroot20", "coroot11"])
def test_omega_grade_hand_made_lattices(tmp_path, root, coroot, form):
    rd = load_root_datum(_cfg(tmp_path, 2, [root], [coroot]))
    free_cyclic, grade = smith_omega_grading(rd)
    assert rd.omega_is_free_cyclic == free_cyclic == (form is not None)
    for v in product(range(-3, 4), repeat=2):
        want = None if form is None else dot(v, form)
        assert rd.omega_grade(v) == grade(v) == want
