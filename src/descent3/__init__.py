"""Exact 3-isogeny descent on the Mordell curves y^2 = x^3 + 16D.

For squarefree D = 4m^3 - 27n^2 with gcd(2m, 3n) = 1, the class number of
Q(sqrt(D)) is divisible by 3, and the unramified cubic extensions of that
field drive the arithmetic of E_D: y^2 = x^3 + 16D and its 3-isogenous
partner E_D': y^2 = x^3 - 432D.  This package enumerates the cubic form
classes of discriminant D, finds the rational points their monic
representatives induce, bounds ranks through the Selmer groups of the two
isogenies, and classifies the genus-1 curves G(x, y) = z^3 attached to the
classes, including certified violations of the Hasse principle.

All arithmetic is exact (integers and fractions); nothing is floated.
"""

# report.py writes the version into each provenance, so it is set before
# the submodules are imported
__version__ = "0.2.1"

from .arith import factorize, iroot, is_squarefree
from .cubicforms import (BinaryCubicForm, MonicSearch, QuadraticForm, act,
                         disc, enumerate_classes, equivalent, hessian,
                         is_irreducible, monic_representative, reduce,
                         syzygy_pair)
from .errors import (DescentError, InconsistencyError, ValidationError)
from .genus1 import (Genus1Verdict, HomogeneousSpace, LocalWitness,
                     global_search, hasse_verdict, locally_solvable)
from .mordell import (CurvePoint, MordellCurve, add, in_lambda_image,
                      lambda_dual, lambda_map, lambda_preimage, mul_scalar,
                      psi, psi_prime, search_monic_points, span_dim_mod_3,
                      span_dim_mod_lambda, syzygy_point)
from .quadfield import QuadElem, is_cube, same_cubic_field, virtual_unit
from .report import (AnalysisReport, ClassGroup, build_report,
                     class_group_imaginary, conditional_rank_sha3,
                     r3_from_fields, rank_bounds, report_from_json,
                     report_to_csv, report_to_json, selmer_ranks)
from .seeds import DiscriminantSeed, disc_value, honda_divisible_by_3, make_seed, scan

__all__ = [n for n in dir() if not n.startswith("_")]
