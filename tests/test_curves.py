import itertools
import json
import random

import pytest
from hypothesis import given

from kummer_lcd import (Divisor, GF, KummerCurve, Place, builtin_curve,
                        curve_from_spec, format_divisor, gcd_divisor,
                        lmd_divisor, load_curve_spec, parse_divisor,
                        parse_place, solve_additive)
from kummer_lcd.gf import FieldSpec
from test_properties import SETTINGS, curves


def test_make_curve_examples(h2, c1):
    assert (h2.r, h2.m, h2.genus) == (2, 3, 1)
    assert (c1.r, c1.m, c1.genus) == (2, 5, 2)
    rational = KummerCurve(GF(4), [0], 3)
    assert rational.genus == 0


def test_make_curve_rejections():
    F = GF(16)
    with pytest.raises(ValueError):
        KummerCurve(F, [0, 1], 4)  # gcd(2, 4) != 1
    with pytest.raises(ValueError):
        KummerCurve(F, [0, 0], 3)  # duplicate roots
    with pytest.raises(ValueError):
        KummerCurve(F, [GF(4).generator, 0], 3)  # root from another field
    with pytest.raises(ValueError):
        KummerCurve(GF(4), [0, 1], 2)  # m divisible by the characteristic


def test_rational_point_counts(h2, h3, h4, c1, c2, nt):
    assert len(h2.rational_points()) == 9
    assert len(c1.rational_points()) == 33
    assert len(c2.rational_points()) == 129
    assert len(nt.rational_points()) == 33
    # Hermitian family attains q^3 + 1 over GF(q^2)
    for curve, q in ((h2, 2), (h3, 3), (h4, 4)):
        assert len(curve.rational_points()) == q ** 3 + 1


def lhs(curve, b):
    """prod_i (b - alpha_i) in FieldElement arithmetic, apart from the curve's table."""
    out = curve.field.one
    for alpha in curve.alphas:
        out = out * (b - alpha)
    return out


def test_rational_points_match_a_scan_over_all_pairs(family):
    # the O(q^2) scan the fiber lookup replaced, as the second route
    for curve in family:
        elements = curve.field.elements()
        scan = [Place.affine(a, b) for a in elements[1:] for b in elements
                if lhs(curve, b) == a ** curve.m]
        want = (Place.infinity(),) + curve.ramified_places() + tuple(scan)
        assert curve.rational_points() == want, curve.label


def test_affine_points_satisfy_equation(family):
    for curve in family:
        for p in curve.affine_places():
            assert curve.is_on_curve(p.a, p.b)


@SETTINGS
@given(curves())
def test_drawn_curves_test_every_pair_against_the_product(curve):
    elements = curve.field.elements()
    on = [(a, b) for a in elements for b in elements if curve.is_on_curve(a, b)]
    assert on == [(a, b) for a in elements for b in elements
                  if a and lhs(curve, b) == a ** curve.m]
    assert curve.rational_points() == ((Place.infinity(),) + curve.ramified_places()
                                       + tuple(Place.affine(a, b) for a, b in on))
    zero = elements[0]
    assert curve.is_on_curve(zero, zero) is False
    assert all(curve.is_on_curve(a, b) is True for a, b in on)


def test_is_on_curve_refuses_an_element_of_another_field(h2):
    point, other = h2.affine_places()[0], GF(8).one
    for a, b in ((other, point.b), (point.a, other), (other, other)):
        with pytest.raises(ValueError, match="different field"):
            h2.is_on_curve(a, b)
    # an equal field built apart is the same field
    twin = KummerCurve(FieldSpec(2, 2), h2.alphas, h2.m)
    assert twin.is_on_curve(point.a, point.b)


def test_point_order_is_deterministic(h2):
    pts = h2.rational_points()
    assert pts[0] == Place.infinity()
    assert pts[1:3] == (Place.ramified(1), Place.ramified(2))
    spec = h2.field
    keys = [(spec.enum_index(p.a), spec.enum_index(p.b)) for p in pts[3:]]
    assert keys == sorted(keys)


def test_divisor_of_x(h2, c1):
    d = h2.divisor_of_x()
    assert d == parse_divisor(h2, "1*P1+1*P2-2*Pinf")
    assert d.degree == 0
    assert c1.divisor_of_x() == parse_divisor(c1, "1*P1+1*P2-2*Pinf")


def test_divisor_of_y_minus_alpha(h2, c1):
    assert h2.divisor_of_y_minus_alpha(1) == parse_divisor(h2, "3*P1-3*Pinf")
    assert h2.divisor_of_y_minus_alpha(1).degree == 0
    assert c1.divisor_of_y_minus_alpha(2) == parse_divisor(c1, "5*P2-5*Pinf")
    with pytest.raises(ValueError):
        h2.divisor_of_y_minus_alpha(3)


def test_gcd_lmd(h2):
    G = parse_divisor(h2, "3*Pinf+1*P1")
    H = parse_divisor(h2, "1*P1+2*P2-1*Pinf")
    assert gcd_divisor(G, H) == parse_divisor(h2, "1*P1-1*Pinf")
    assert lmd_divisor(G, H) == parse_divisor(h2, "1*P1+2*P2+3*Pinf")
    assert gcd_divisor(G, G) == G
    assert gcd_divisor(G, H) + lmd_divisor(G, H) == G + H


def test_gcd_lmd_random_properties(h3):
    rng = random.Random(3)
    places = list(h3.ramified_places()) + [h3.infinity()]
    for _ in range(200):
        A = Divisor({p: rng.randint(-4, 4) for p in places})
        B = Divisor({p: rng.randint(-4, 4) for p in places})
        assert gcd_divisor(A, B) == gcd_divisor(B, A)
        assert lmd_divisor(A, B) == lmd_divisor(B, A)
        assert gcd_divisor(A, A) == A
        assert gcd_divisor(A, B) + lmd_divisor(A, B) == A + B
        if A <= B:
            assert A.degree <= B.degree


def test_standard_D_degrees(h2, c1, c2):
    assert h2.standard_D().degree == 6
    assert c1.standard_D().degree == 30
    assert c2.standard_D().degree == 126


def test_divisor_order_and_degree():
    P1, P2 = Place.ramified(1), Place.ramified(2)
    A = Divisor({P1: 1})
    B = Divisor({P1: 2, P2: 1})
    assert A <= B and not B <= A
    assert A.degree <= B.degree
    assert (B - B).is_zero()
    assert (2 * A)[P1] == 2


def test_divisor_text_roundtrip(h2, c2):
    for curve, text in ((h2, "3*Pinf+1*P1"), (h2, "1*P1+2*P2-1*Pinf"),
                        (c2, "58*P1+62*P2-1*Pinf"), (h2, "0")):
        d = parse_divisor(curve, text)
        assert parse_divisor(curve, format_divisor(d)) == d
    affine = h2.affine_places()[0]
    d = Divisor({affine: -1, Place.ramified(1): 2})
    assert parse_divisor(h2, format_divisor(d)) == d


def test_parse_place(h2):
    assert parse_place(h2, "Pinf") == Place.infinity()
    assert parse_place(h2, "P2") == Place.ramified(2)
    p = parse_place(h2, "P(a,a)")
    assert p.is_affine() and p in h2.rational_points()
    with pytest.raises(ValueError):
        parse_place(h2, "P(a,1)")  # not on the curve
    with pytest.raises(ValueError):
        parse_place(h2, "P9")


def test_curve_spec_roundtrip(tmp_path, c1):
    spec = {
        "p": 2, "k": 4, "modulus": [1, 1, 0, 0, 1], "m": 5,
        "alphas": [[0, 0, 0, 0], [1, 0, 0, 0]], "label": "curve1-q4",
    }
    assert curve_from_spec(spec) == c1
    path = tmp_path / "c.json"
    path.write_text(json.dumps(spec))
    assert load_curve_spec(str(path)) == c1


def test_builtin_names(h3, nt):
    assert builtin_curve("hermitian-q3") == h3
    assert builtin_curve("norm-trace-q2-r3") == nt
    with pytest.raises(ValueError):
        builtin_curve("nope")


def test_builtin_curve_is_one_instance_per_name(h3):
    for name in ("hermitian-q2", "hermitian-q3", "curve1-q4", "curve2-q2-r3", "norm-trace-q2-r3"):
        assert builtin_curve(name) is builtin_curve(name)
    # the family builders still make a new, equal curve on each call
    assert builtin_curve("hermitian-q3") == h3 and builtin_curve("hermitian-q3") is not h3


# the families' additive polynomials written out by hand, the second route to
# the one builder that derives them from exponents
def _hermitian_poly(q):
    poly = [0] * (q + 1)
    poly[1] = 1
    poly[q] = 1
    return poly


def _quotient_poly(q):
    poly = [0] * (q // 2 + 1)
    e = 1
    while e <= q // 2:
        poly[e] = 1
        e *= 2
    return poly


def _norm_trace_poly(q, r):
    poly = [0] * (q ** (r - 1) + 1)
    for i in range(r):
        poly[q ** i] = 1
    return poly


_HAND_WRITTEN = (
    [(f"hermitian-q{q}", q ** 2, _hermitian_poly(q), q + 1) for q in (2, 3, 4, 5, 7, 8, 9, 16)]
    + [(f"curve1-q{q}", q ** 2, _quotient_poly(q), q + 1) for q in (4, 8, 16)]
    + [(f"curve2-q{q}-r{r}", q ** (2 * r), _hermitian_poly(q), q ** r + 1)
       for q, r in ((2, 3), (2, 5), (3, 3))]
    + [(f"norm-trace-q{q}-r{r}", q ** r, _norm_trace_poly(q, r), (q ** r - 1) // (q - 1))
       for q, r in ((2, 3), (2, 4), (3, 3), (4, 2), (5, 2))])


@pytest.mark.parametrize("name, order, poly, m", _HAND_WRITTEN, ids=[c[0] for c in _HAND_WRITTEN])
def test_builtin_families_match_their_hand_written_polynomials(name, order, poly, m):
    field = GF(order)
    alphas = sorted(solve_additive(field, poly), key=field.enum_index)
    assert len(alphas) == len(poly) - 1
    want = KummerCurve(field, alphas, m, name)
    curve = builtin_curve(name)
    assert curve == want
    assert (curve.label, curve.alphas) == (want.label, want.alphas)
