"""
iwahecke: exact computation of Bernstein (test) functions in Iwahori-Hecke
algebras of split reductive p-adic groups.

The package computes central elements z_mu of Iwahori-Hecke algebras by two
independent algorithms (the Bernstein presentation and the Kazhdan-Lusztig
R-polynomial closed form), mu-admissible sets, the Bernstein isomorphism and
constant terms, transfer to anisotropic inner forms, base change, and the
explicit deep-level GL_2 and pro-p Iwahori evaluators.

Entry points: build a root datum, take its affine Weyl group, take the Hecke
algebra:

>>> from iwahecke import build_root_datum
>>> rd = build_root_datum("GL", 2)
>>> H = rd.affine_weyl().hecke()
>>> z = H.bernstein_function((1, 0))

Importing the package imports none of its submodules: each exported name
and each submodule is imported on first access (PEP 562), so a run that
only builds Hecke algebras never loads the deep-level or transfer layers.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "_kernel": ("default_impl",),
    "affine": ("AffineWeylElement", "AffineWeylGroup", "OmegaElement"),
    "center": ("HeightBoundError", "NotCentralError", "SymmetricFunction",
               "bernstein_iso", "bernstein_iso_inverse", "constant_term",
               "monomial_symmetric"),
    "deeplevel": ("DiagonalTorusPoint", "IndeterminatePrecisionError",
                  "drinfeld_propp_value", "ell_invariant", "gl2_level_index",
                  "k_invariant", "level_compatibility_check", "scholze_phi",
                  "scholze_z"),
    "ffield": ("GF",),
    "hecke": ("HeckeAlgebra", "HeckeElement"),
    "intlinalg": (),
    "klpoly": ("RPolynomials", "closed_form_bernstein", "r_polynomial"),
    "laurent": ("LaurentPoly",),
    "rootdata": ("RootDatum", "RootDatumError", "build_root_datum",
                 "is_minuscule", "levi_sub_datum", "load_root_datum",
                 "weyl_orbit"),
    "series": ("Matrix2", "TruncatedSeries"),
    "transfer": ("GradedFunction", "base_change", "grassmannian_count",
                 "kottwitz_fiber_integrate", "normalized_transfer"),
    "weyl": ("IndexedWeyl",),
}
_OWNER = {name: mod for mod, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(mod for mod in _EXPORTS if not mod.startswith("_"))

__all__ = sorted(_SUBMODULES.union(_OWNER))


def __getattr__(name):
    if name in _SUBMODULES:  # the import binds it as a package attribute
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()).union(__all__))
