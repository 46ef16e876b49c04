import pytest

from iwahecke.cli import main
from iwahecke.rootdata import RootDatumError, build_root_datum, load_root_datum
from iwahecke.weyl import _MAX_GROUP, IndexedWeyl, weyl_order

from conftest import DATA


@pytest.mark.parametrize("family,n,order", [
    ("GL", 2, 2), ("GL", 3, 6), ("GL", 4, 24), ("GL", 5, 120),
    ("SL", 3, 6), ("Sp", 4, 8), ("GSp", 4, 8),
])
def test_group_order(family, n, order):
    w = IndexedWeyl(build_root_datum(family, n))
    assert w.size == order


def test_longest_element_gl3(gl3):
    w = IndexedWeyl(gl3)
    assert w.length[w.longest] == 3
    assert w.word[w.longest] == (0, 1, 0)
    # longest element reverses coordinates
    assert w.apply(w.longest, (1, 2, 3)) == (3, 2, 1)


def test_words_are_reduced_and_consistent(gl4):
    w = IndexedWeyl(gl4)
    for idx in range(w.size):
        word = w.word[idx]
        assert len(word) == w.length[idx]
        acc = 0
        for i in word:
            acc = w.mul(acc, w.gen_index[i])
        assert acc == idx


def test_inverse_table(sp4):
    w = IndexedWeyl(sp4)
    for idx in range(w.size):
        assert w.mul(idx, w.inv[idx]) == 0
        assert w.length[w.inv[idx]] == w.length[idx]


def test_root_sign_counts_inversions(gl3):
    # l(w) = #{positive roots a : w^{-1}(a) < 0} for w^{-1}, i.e. the number
    # of -1 entries in row w equals l(w)
    w = IndexedWeyl(gl3)
    for idx in range(w.size):
        assert sum(1 for s in w.root_sign[idx] if s < 0) == w.length[idx]


def test_finite_element_wrapper(gl3):
    w = IndexedWeyl(gl3)
    e = w.element(0)
    s = w.element(w.gen_index[0])
    assert (s * s) == e
    assert s.inverse() == s
    assert s.length() == 1
    assert s.word == (0,)
    assert s.apply((1, 0, 0)) == (0, 1, 0)


@pytest.mark.parametrize("case", [
    ("GL", 1), ("GL", 2), ("GL", 3), ("GL", 4), ("GL", 5), ("GL", 6),
    ("GL", 7), ("SL", 4), ("Sp", 6), ("Sp", 8), ("GSp", 6),
    "gsp4.cfg", "gl2xgl2.cfg", "pgl2.cfg",
], ids=str)
def test_weyl_order_from_root_heights(case):
    rd = (load_root_datum(DATA / case) if isinstance(case, str)
          else build_root_datum(*case))
    assert weyl_order(rd) == IndexedWeyl(rd).size


def test_oversized_weyl_group_refused_before_enumeration(monkeypatch,
                                                         capsys):
    assert weyl_order(build_root_datum("GL", 10)) == 3628800 > _MAX_GROUP
    # with the cap just below |W_0(GL(5))| = 120 the guard must refuse
    # GL(5), which an enumeration would finish without complaint
    monkeypatch.setattr("iwahecke.weyl._MAX_GROUP", 119)
    monkeypatch.setattr("iwahecke.affine._REGISTRY", {})  # no cached GL(5)
    with pytest.raises(RootDatumError, match="too large"):
        IndexedWeyl(build_root_datum("GL", 5))
    assert IndexedWeyl(build_root_datum("GL", 4)).size == 24
    assert main(["adm", "--group", "GL:5", "--mu", "1,0,0,0,0"]) == 3
    assert "finite Weyl group too large" in capsys.readouterr().err
