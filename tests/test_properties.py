"""Property tests on randomly drawn Kummer curves, beyond the six bundled ones.

A drawn spec is a prime p, an extension degree k, a set of r roots in
GF(p^k), and an exponent m coprime to r and to p. The divisor G lives on the
ramified places and Pinf, with degree in the window 2g - 2 < deg G < n.
"""

import math

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from kummer_lcd import (GF, Divisor, KummerCurve, Place, build_code, dual, ell,
                        hull, hull_dimension_by_rank)

# field sizes up to 27 keep a drawn curve at a few hundred points
FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much])


@st.composite
def curves(draw):
    p, k = draw(st.sampled_from(FIELDS))
    field = GF(p ** k)
    indices = draw(st.lists(st.integers(0, field.order - 1), min_size=1,
                            max_size=min(field.order, 4), unique=True))
    r = len(indices)
    m = draw(st.sampled_from([m for m in range(2, 8) if math.gcd(m, r) == 1 and m % p]))
    return KummerCurve(field, [field.elements()[i] for i in indices], m)


@st.composite
def curves_with_divisor(draw):
    curve = draw(curves())
    g, n = curve.genus, len(curve.affine_places())
    assume(2 * g - 1 < n)
    degree = draw(st.integers(2 * g - 1, n - 1))
    ram = [draw(st.integers(-curve.m, 2 * curve.m)) for _ in range(curve.r)]
    coeffs = {Place.ramified(i): c for i, c in enumerate(ram, start=1)}
    coeffs[Place.infinity()] = degree - sum(ram)
    return curve, Divisor(coeffs)


@SETTINGS
@given(curves_with_divisor())
def test_dimension_is_ell_above_2g_minus_2(case):
    curve, G = case
    code = build_code(curve, curve.standard_D(), G)
    assert code.k == ell(curve, G) == G.degree + 1 - curve.genus


@SETTINGS
@given(curves_with_divisor())
def test_dual_is_an_involution(case):
    curve, G = case
    code = build_code(curve, curve.standard_D(), G)
    once = dual(code)
    assert once.k == code.n - code.k
    assert dual(once) == code


@SETTINGS
@given(curves_with_divisor())
def test_hull_routes_agree(case):
    curve, G = case
    code = build_code(curve, curve.standard_D(), G)
    assert hull(code).k == hull_dimension_by_rank(code)
