import re
from functools import partial

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
            acc = w.rrow[i][acc]
        assert acc == idx


def test_inverse_table(sp4):
    W = sp4.affine_weyl()
    w, zero = W.weyl, W.identity.trans
    for idx in range(w.size):
        assert W.kernel.mul(zero, idx, zero, w.inv[idx]) == (zero, 0)
        assert w.length[w.inv[idx]] == w.length[idx]


def test_root_sign_counts_inversions(gl3):
    # l(w) = #{positive roots a : w(a) < 0}, i.e. the number of negative
    # root ids (those at least npos) in row w of the root images equals l(w)
    w = IndexedWeyl(gl3)
    for idx in range(w.size):
        assert (sum(1 for k in w.root_image[idx] if k >= w.npos)
                == w.length[idx])


@pytest.mark.parametrize("vec", [(7,), (1, 2, 3)], ids=["short", "long"])
def test_apply_refuses_a_coweight_of_the_wrong_length(vec):
    W = build_root_datum("GL", 2).affine_weyl()
    actions = [x.apply for x in (W.identity, W.simple_reflection(1),
                                 W.element((0, 0), 1))]
    actions += [partial(W.weyl.apply, u) for u in range(W.weyl.size)]
    for apply in actions:
        with pytest.raises(RootDatumError, match="length differs from rank"):
            apply(vec)
        assert len(apply((1, 2))) == 2


@pytest.mark.parametrize("bad", [-1, 6, 99, 1.0, "0", None])
def test_finite_index_out_of_range_refused(gl3, bad):
    # AffineWeylGroup.element is the one owner of the finite-index check
    W = gl3.affine_weyl()
    with pytest.raises(ValueError, match=rf"finite Weyl group index "
                                         rf"{re.escape(repr(bad))} is not in "
                                         rf"range\(6\)"):
        W.element((0, 0, 0), bad)
    assert W.element((0, 0, 0), 5).length() == W.weyl.length[5]


@pytest.mark.parametrize("case", [
    ("GL", 1), ("GL", 2), ("GL", 3), ("GL", 4), ("GL", 5), ("GL", 6),
    ("GL", 7), ("SL", 4), ("Sp", 6), ("Sp", 8), ("GSp", 6),
    "gsp4.cfg", "gl2xgl2.cfg", "pgl2.cfg",
], ids=str)
def test_weyl_order_from_root_heights(case):
    rd = (load_root_datum(DATA / case) if isinstance(case, str)
          else build_root_datum(*case))
    w = IndexedWeyl(rd)
    assert weyl_order(rd) == w.size
    # indices are in breadth-first level order, and w_0, the last, is the
    # one element of maximal length
    top = w.length[w.longest]
    assert [u for u in range(w.size) if w.length[u] >= top] == [w.size - 1]


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
