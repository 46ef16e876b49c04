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
"""

from ._kernel import default_impl
from .affine import (AffineWeylElement, AffineWeylGroup, OmegaElement,
                     admissible_set, bruhat_leq, critical_indices,
                     kottwitz_image)
from .center import (HeightBoundError, NotCentralError, SymmetricFunction,
                     bernstein_iso, bernstein_iso_inverse, constant_term,
                     monomial_symmetric)
from .deeplevel import (DiagonalTorusPoint, IndeterminatePrecisionError,
                        drinfeld_propp_value, ell_invariant, gl2_level_index,
                        k_invariant, level_compatibility_check, scholze_phi,
                        scholze_z)
from .ffield import GF
from .hecke import HeckeAlgebra, HeckeElement, bernstein_function, is_central
from .klpoly import RPolynomials, closed_form_bernstein, r_polynomial
from .laurent import LaurentPoly
from .rootdata import (RootDatum, RootDatumError, build_root_datum,
                       is_minuscule, levi_sub_datum, load_root_datum,
                       pair_two_rho, weyl_orbit)
from .series import Matrix2, TruncatedSeries
from .transfer import (GradedFunction, base_change, grassmannian_count,
                       kottwitz_fiber_integrate, normalized_transfer)
from .weyl import FiniteWeylElement, IndexedWeyl

__version__ = "0.1.0"
