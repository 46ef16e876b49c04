"""
One rule for every operation on two operands.  An element is a root datum
and a key; a context (an `AffineWeylGroup`, its Hecke algebra) is only a
cache.  Each row of the table is one operation: its left operand comes from
the shared GL(2) context, its right operand is built from a coweight in one
of four ways:

* in the same context;
* in a fresh `AffineWeylGroup` on an equal GL(2) datum that is another
  object: the result is the same-context one, Hecke elements down to the
  CLI's JSON;
* on Sp(4), another datum of the same rank: the one ValueError;
* from a coweight of the wrong length: RootDatumError.

A second table builds each coefficient-map type from one coefficient: every
public constructor takes an int as its constant LaurentPoly, drops zeros
and refuses any other type.
"""

import re

import pytest

from iwahecke.affine import AffineWeylGroup
from iwahecke.center import (SymmetricFunction, bernstein_iso,
                             monomial_symmetric)
from iwahecke.hecke import HeckeElement
from iwahecke.klpoly import RPolynomials
from iwahecke.laurent import ONE, LaurentPoly
from iwahecke.rootdata import RootDatumError, build_root_datum
from iwahecke.transfer import GradedFunction

from oracles import hecke_json

LA = (1, 0)  # dominant on GL(2) and on Sp(4)


# right operands, from a context and a coweight


def _translation(W, la):
    return W.translation(la)


def _far_translation(W, la):
    # off the support of z_(1,0), and its key is no key of a GL(2) z_(1,0)
    return W.translation(tuple(7 * x for x in la))


def _omega(W, la):
    return W.omega_of(la)


def _omega_element(W, la):
    return W.omega_of(la).element


def _z(W, la):
    return W.hecke().bernstein_function(la)


def _sym(W, la):
    return monomial_symmetric(W.rd, la)


def _graded(W, la):
    return GradedFunction(W.rd, {la: ONE})


def _ts(W):
    return W.hecke().t(W.simple_reflection(1))


# operation, suffixed by the argument the right operand fills when it has
# two -> (right operand, the operation on the context W and that operand)
ROWS = {
    "AffineWeylElement.__mul__": (
        _translation, lambda W, y: W.translation(LA) * y),
    "AffineWeylElement.__eq__": (
        _translation, lambda W, y: W.translation(LA) == y),
    "OmegaElement.__add__": (_omega, lambda W, y: W.omega_of(LA) + y),
    "OmegaElement.__sub__": (_omega, lambda W, y: W.omega_of(LA) - y),
    "OmegaElement.__eq__": (_omega, lambda W, y: W.omega_of(LA) == y),
    "AffineWeylGroup.kottwitz_image": (
        _translation, lambda W, x: W.kottwitz_image(x)),
    "AffineWeylGroup.sort_key": (_translation, lambda W, x: W.sort_key(x)),
    "AffineWeylGroup.lower_closure": (
        _translation, lambda W, y: W.lower_closure([W.identity, y])),
    "bruhat_leq.x": (
        _omega_element, lambda W, x: W.bruhat_leq(x, W.translation(LA))),
    "bruhat_leq.y": (
        _translation, lambda W, y: W.bruhat_leq(_omega_element(W, LA), y)),
    "RPolynomials.r.x": (
        _omega_element, lambda W, x: RPolynomials(W).r(x, W.translation(LA))),
    "RPolynomials.r.y": (
        _translation, lambda W, y: RPolynomials(W).r(_omega_element(W, LA), y)),
    "HeckeElement.__add__": (_z, lambda W, h: _ts(W) + h),
    "HeckeElement.__sub__": (_z, lambda W, h: _ts(W) - h),
    "HeckeElement.__mul__": (_z, lambda W, h: _ts(W) * h),
    "HeckeElement.__eq__": (_z, lambda W, h: _z(W, LA) == h),
    "HeckeElement.coeff": (_translation, lambda W, x: _z(W, LA).coeff(x)),
    "HeckeElement.coeff.off_support": (
        _far_translation, lambda W, x: _z(W, LA).coeff(x)),
    "HeckeAlgebra.t": (_translation, lambda W, x: W.hecke().t(x)),
    "HeckeAlgebra.from_terms": (
        _translation, lambda W, x: W.hecke().from_terms({x: ONE})),
    "HeckeAlgebra.lmul_gen": (_z, lambda W, h: W.hecke().lmul_gen(0, h)),
    "HeckeAlgebra.rmul_gen": (_z, lambda W, h: W.hecke().rmul_gen(h, 1)),
    "HeckeAlgebra.t_times.x": (
        _translation, lambda W, x: W.hecke().t_times(x, _ts(W))),
    "HeckeAlgebra.t_times.h": (
        _z, lambda W, h: W.hecke().t_times(W.simple_reflection(0), h)),
    "HeckeAlgebra.t_inverse": (
        _translation, lambda W, x: W.hecke().t_inverse(x)),
    "HeckeAlgebra.multiply.a": (
        _z, lambda W, a: W.hecke().multiply(a, _ts(W))),
    "HeckeAlgebra.multiply.b": (
        _z, lambda W, b: W.hecke().multiply(_ts(W), b)),
    "HeckeAlgebra.is_central": (_z, lambda W, h: W.hecke().is_central(h)),
    "HeckeAlgebra.lmul_omega.om": (
        _omega_element, lambda W, om: W.hecke().lmul_omega(om, _ts(W))),
    "HeckeAlgebra.lmul_omega.h": (
        _z, lambda W, h: W.hecke().lmul_omega(_omega_element(W, LA), h)),
    "HeckeAlgebra.rmul_omega.om": (
        _omega_element, lambda W, om: W.hecke().rmul_omega(_ts(W), om)),
    "HeckeAlgebra.rmul_omega.h": (
        _z, lambda W, h: W.hecke().rmul_omega(h, _omega_element(W, LA))),
    "HeckeAlgebra.parahoric_descent": (
        _z, lambda W, h: W.hecke().parahoric_descent(h, [1])),
    "SymmetricFunction.__add__": (_sym, lambda W, f: _sym(W, LA) + f),
    "SymmetricFunction.__sub__": (_sym, lambda W, f: _sym(W, (1, 1)) - f),
    "SymmetricFunction.__mul__": (_sym, lambda W, f: _sym(W, LA) * f),
    "SymmetricFunction.__eq__": (_sym, lambda W, f: _sym(W, LA) == f),
    "bernstein_iso.f": (_sym, lambda W, f: bernstein_iso(f, W)),
    "GradedFunction.__init__": (
        _omega, lambda W, om: GradedFunction(W.rd, {om: ONE})),
    "GradedFunction.__add__": (_graded, lambda W, g: _graded(W, LA) + g),
    "GradedFunction.__sub__": (_graded, lambda W, g: _graded(W, (1, 1)) - g),
    "GradedFunction.__eq__": (_graded, lambda W, g: _graded(W, LA) == g),
}

KINDS = ("same-context", "equal-datum", "different-datum", "wrong-length")


@pytest.fixture(scope="module")
def contexts():
    W = build_root_datum("GL", 2).affine_weyl()
    equal = AffineWeylGroup(build_root_datum("GL", 2))
    assert equal is not W and equal.rd is not W.rd and equal.rd == W.rd
    return W, equal, build_root_datum("Sp", 4).affine_weyl()


def _canon(value):
    """The value as the CLI writes a Hecke element, else itself."""
    if isinstance(value, HeckeElement):
        return hecke_json(value)
    if isinstance(value, tuple):
        return tuple(map(_canon, value))
    return value


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ROWS)
def test_two_operand_rule(name, kind, contexts):
    W, equal, other = contexts
    build, op = ROWS[name]
    if kind == "wrong-length":
        with pytest.raises(RootDatumError, match="differs from rank"):
            op(W, build(W, LA + (0,)))
        return
    if kind == "different-datum":
        operand = build(other, LA)
        with pytest.raises(ValueError, match="different root data"):
            op(W, operand)
        return
    want = op(W, build(W, LA))
    if isinstance(want, bool):
        assert want  # every comparison in the table holds in one context
    if kind == "equal-datum":
        got = op(W, build(equal, LA))
        assert got == want
        assert _canon(got) == _canon(want)


# the three coefficient-map types, each from a GL(2) context and one
# coefficient c, with int coefficients allowed in every public constructor
VALUES = {
    "HeckeElement": lambda W, c: HeckeElement(
        W.hecke(), {W.identity: c, W.translation(LA): c}),
    "HeckeAlgebra.from_terms": lambda W, c: W.hecke().from_terms(
        {W.translation(LA): c}),
    "SymmetricFunction": lambda W, c: SymmetricFunction(
        W.rd, {LA: c, (0, 1): c}),
    "SymmetricFunction.from_dominant": lambda W, c:
        SymmetricFunction.from_dominant(W.rd, {LA: c, (1, 1): 0}),
    "GradedFunction": lambda W, c: GradedFunction(W.rd, {LA: c, (2, 1): 0}),
}


@pytest.mark.parametrize("name", VALUES)
def test_coefficient_rule(name, contexts):
    """An int coefficient is its constant LaurentPoly, equal and of equal
    hash; a zero is dropped; any other type, a bool too, is a TypeError."""
    W = contexts[0]
    make = VALUES[name]
    for n in (1, -2):
        got, want = make(W, n), make(W, LaurentPoly.const(n))
        assert got == want and hash(got) == hash(want)
        assert all(type(c) is LaurentPoly for c in got.terms.values())
        assert got.scale(3) == want.scale(LaurentPoly.const(3))
    assert not make(W, 0) and make(W, 0) == make(W, LaurentPoly())
    for bad in (2.5, "x", True):
        with pytest.raises(TypeError, match="not an int or a LaurentPoly"):
            make(W, bad)
        with pytest.raises(TypeError, match="not an int or a LaurentPoly"):
            make(W, 1).scale(bad)
        # the rule holds one level down: no LaurentPoly carries a bad value
        msg = re.escape(f"coefficient {bad!r} is not an int")
        with pytest.raises(TypeError, match=msg):
            make(W, LaurentPoly({0: bad}))
