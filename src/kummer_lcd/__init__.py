"""Linear complementary dual evaluation codes on Kummer-type curves.

Exact finite-field arithmetic, divisor and Riemann-Roch machinery,
Weierstrass semigroup generating sets, explicit non-special divisors of
degrees g and g-1, and the LCD code constructions built from them, all at
desk scale with brute-force cross checks.
"""

from .gf import (FieldElement, FieldSpec, GF, ParseError, format_element,
                 format_element_pretty, parse_element, solve_additive)
from .curves import (Divisor, KummerCurve, Place, builtin_curve,
                     curve_from_spec, format_divisor, gcd_divisor,
                     hermitian_curve, hermitian_quotient_curve,
                     lifted_hermitian_curve, lmd_divisor, load_curve_spec,
                     norm_trace_curve, parse_divisor, parse_place)
from .functions import (FunctionElement, RRBasis, ell, format_function,
                        index_of_specialty, is_nonspecial, parse_function,
                        principal_divisor, riemann_roch_basis, valuation_ok)
from .semigroup import (enumerate_nonspecial_degree_g, floor_identity_checks,
                        gamma_plus_multi, gap_set_single, is_nonspecial_gns,
                        lub_closure_membership, nonspecial_degree_g,
                        nonspecial_degree_g_minus_1, semigroup_membership_oracle,
                        semigroup_multiplicity)
from .codes import (LcdCertificate, LinearCode, MinDistanceResult, build_code,
                    construction_divisors, dual, dual_partner_divisor,
                    evaluation_matrix, hull, hull_dimension_by_rank, is_lcd,
                    is_self_orthogonal, lcd_construct_maxcur,
                    maxcur_family_check, min_distance, one_point_hull_probe,
                    verify_hull_theorem)

__version__ = "0.1.0"
