"""Numerical verification and exploration of Schwarz-Pick type derivative
bounds for pluriharmonic mappings on the unit polydisk."""

from .multiindex import as_index, degree, enumerate_indices, factorial, unit_index
from .mapping import (BlaschkeProduct, ColonnaMap, ComposedMap, MapFormatError,
                      PluriharmonicMap, PolydiskAutomorphism, SeriesMap, derivative_exact,
                      load_map, map_from_dict, map_to_dict, random_bounded_map, save_map,
                      sup_bound_l1)
from .quadrature import (QuadratureSpec, abs_cos_integral, cauchy_derivative,
                         extract_coefficient, extract_coefficients, torus_trapezoid)
from .bounds import (BoundReport, HypothesisError, JacobianPair, certified_sup_bound,
                     direction_max, jacobian_pair, make_report, require_certified, rhs_colonna,
                     rhs_gradient, rhs_growth, rhs_polydisk, rhs_ruscheweyh, rhs_szasz,
                     verify_coefficient_bound, verify_derivative_bound,
                     verify_gradient_bound, verify_growth_bound,
                     verify_homogeneous_bound, verify_l2_bound)
from .search import SharpnessResult, reevaluate, sharpness_ratio, sharpness_search

__version__ = "0.1.0"
