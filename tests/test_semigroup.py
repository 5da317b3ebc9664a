import itertools
import math
import re

import numpy as np
import pytest

from kummer_lcd import (GF, Divisor, KummerCurve, Place, builtin_curve, ell,
                        enumerate_nonspecial_degree_g,
                        floor_identity_checks, gamma_plus_multi,
                        gap_set_single, hermitian_curve, is_nonspecial_gns,
                        lub_closure_membership, nonspecial_degree_g,
                        nonspecial_degree_g_minus_1, parse_divisor,
                        semigroup_membership_oracle, semigroup_multiplicity)
from kummer_lcd import semigroup
from kummer_lcd.functions import _ell_fast
from kummer_lcd.semigroup import MAX_BOX_CELLS, _gamma_in_box, _semigroup_box
from test_functions import term_sum_ell


def jump_count_oracle(curve, places, alpha):
    """The dimension-jump criterion counted out: ell(A) for A = sum_j alpha_j P_ij,
    then ell(A - P_ij) for each j, l + 1 term-sum counts in all."""
    ram = [0] * curve.r
    for i, a in zip(places, alpha):
        ram[i - 1] = a
    base = term_sum_ell(curve, ram, 0)
    for i in places:
        ram[i - 1] -= 1
        dropped = term_sum_ell(curve, ram, 0)
        ram[i - 1] += 1
        if base != dropped + 1:
            return False
    return True


def fold_box(curve, l, bound):
    """H(P_1..P_l) on exactly [0, bound]^l by the definition: starting from
    M = {0}, one pass M <- M | lub(M, gamma) over the generators leaves every
    lub of a set of generators in M."""
    grid = np.zeros((bound + 1,) * l, dtype=bool)
    grid[(0,) * l] = True
    for gen in _gamma_in_box(curve, l, bound):
        lub = grid
        for axis, g in enumerate(gen):  # max(a_i, g_i) folds slices 0..g_i onto g_i
            if g:
                lub = np.moveaxis(lub, axis, 0).copy()
                lub[g] = lub[:g + 1].any(axis=0)
                lub[:g] = False
                lub = np.moveaxis(lub, 0, axis)
        grid |= lub
    return grid


def box_matches_fold(curve, l, bound):
    grid = _semigroup_box(curve, l, bound)[(slice(bound + 1),) * l]
    return np.array_equal(grid, fold_box(curve, l, bound))


def test_gap_set_hermitian(h2, h3):
    # H(P) = <q, q+1> at every rational point of the Hermitian curve
    assert gap_set_single(h2) == {1}
    gaps3 = gap_set_single(h3)
    semigroup = sorted(set(range(0, 13)) - gaps3)
    generated = {3 * i + 4 * j for i in range(5) for j in range(4) if 3 * i + 4 * j <= 12}
    assert set(semigroup) == generated
    assert semigroup_multiplicity(h3) == 3


def test_gap_count_equals_genus(family):
    for curve in family:
        assert len(gap_set_single(curve)) == curve.genus


def test_gap_set_rational_curve():
    from kummer_lcd import GF, KummerCurve
    assert gap_set_single(KummerCurve(GF(4), [0], 3)) == frozenset()


def test_gamma_plus_values(h2, h3):
    assert gamma_plus_multi(h2, 2) == {(1, 1)}
    assert gamma_plus_multi(h3, 2) == {(5, 1), (1, 5), (2, 2)}
    # only j with nonnegative composition count survives for the full tuple
    assert gamma_plus_multi(h3, 3) == {(1, 1, 1)}
    with pytest.raises(ValueError):
        gamma_plus_multi(h3, 4)
    with pytest.raises(ValueError):
        gamma_plus_multi(h3, 1)


def test_membership_oracle_examples(h2):
    assert semigroup_membership_oracle(h2, (1, 2), (1, 1))
    assert semigroup_membership_oracle(h2, (1, 2), (0, 0))
    assert not semigroup_membership_oracle(h2, (1, 2), (1, 0))
    # 1/x realizes the pole vector (1, 1)
    from kummer_lcd import FunctionElement, principal_divisor
    inv_x = FunctionElement.monomial(h2, -1)
    assert principal_divisor(inv_x) == parse_divisor(h2, "-1*P1-1*P2+2*Pinf")


def test_membership_oracle_counts_the_dimension_jumps(family):
    for curve in family:
        for l in (1, 2):
            for places in itertools.permutations(range(1, curve.r + 1), l):
                for alpha in itertools.product(range(3 * curve.m + 1), repeat=l):
                    assert (semigroup_membership_oracle(curve, places, alpha)
                            == jump_count_oracle(curve, places, alpha)), (curve.label, places, alpha)


@pytest.mark.parametrize("route", [semigroup_membership_oracle, lub_closure_membership])
@pytest.mark.parametrize("places, alpha, message", [
    ((0, 1), (1, 1), "ramified index 0 out of range 1..3"),
    ((1, 4), (1, 1), "ramified index 4 out of range 1..3"),
    ((2, 2), (1, 1), "places must be distinct"),
    ((1, 2), (1,), "alpha and places must have the same length"),
    ((1, 2), (1, -1), "alpha entries must be nonnegative"),
    ((1, 2), (1.5, 2), "place indices and alpha entries must be integers, got (1, 2) and (1.5, 2)"),
    ([1, 2], [1.5, 2], "place indices and alpha entries must be integers, got (1, 2) and (1.5, 2)"),
    ((1.0, 2), (1, 2), "place indices and alpha entries must be integers"),
    (5, (1,), "place indices and alpha entries must be integers, got 5 and (1,)"),
    ((1,), 5, "place indices and alpha entries must be integers, got (1,) and 5"),
    # a query failing two checks gets the message of the first
    ((4, 4), (1, 1), "places must be distinct"),
    ((1, 4), (1,), "ramified index 4 out of range 1..3"),
    ((1, 2), (-1,), "alpha and places must have the same length"),
])
def test_membership_routes_refuse_a_bad_query(h3, route, places, alpha, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        route(h3, places, alpha)


def test_membership_routes_take_numpy_integers(h3):
    places, alpha = np.array([1, 2]), np.array([2, 2])
    assert semigroup_membership_oracle(h3, places, alpha) == lub_closure_membership(
        h3, places, alpha) == jump_count_oracle(h3, (1, 2), (2, 2))
    places, alpha = (True, np.int16(3)), [np.uint8(5), False]
    assert semigroup_membership_oracle(h3, places, alpha) == lub_closure_membership(
        h3, places, alpha) == jump_count_oracle(h3, (1, 3), (5, 0))


def test_lub_closure_refuses_a_tuple_size_it_cannot_answer(monkeypatch, h2):
    monkeypatch.setattr(semigroup, "_BOXES", {})
    assert semigroup_membership_oracle(h2, (), ())
    with pytest.raises(ValueError, match=re.escape("tuple size 0 outside the supported range 1..2")):
        lub_closure_membership(h2, (), ())
    r5 = KummerCurve(GF(7), [0, 1, 2, 3, 4], 3)
    assert lub_closure_membership(r5, (1, 2, 3, 4), (1, 1, 1, 1))
    with pytest.raises(ValueError, match=re.escape("tuple size 5 outside the supported range 1..4")):
        lub_closure_membership(r5, (1, 2, 3, 4, 5), (1, 1, 1, 1, 1))
    # y(y + 1) = x^3 over GF(2) shares (r, m) with hermitian-q2, so the field
    # does not bound l: both answer from the grid the oracle agrees with
    gf2 = KummerCurve(GF(2), [0, 1], 3)
    for curve in (gf2, h2):
        assert lub_closure_membership(curve, (1, 2), (1, 1))
        assert semigroup_membership_oracle(curve, (1, 2), (1, 1))


def test_lub_closure_answers_tuples_that_fill_the_field(monkeypatch):
    # r = q roots fill GF(q) and q < m, so the window 1..r - floor(r/m) runs up to l = q
    cases = 0
    for q in (2, 3, 4, 5, 7):
        field = GF(q)
        for m in range(q + 1, q + 5):
            if math.gcd(q, m) != 1:
                continue
            curve = KummerCurve(field, field.elements(), m)
            monkeypatch.setattr(semigroup, "_BOXES", {})
            for l in range(1, q + 1):
                places = tuple(range(q - l + 1, q + 1))
                bound = round(1000 ** (1 / l)) - 1  # about a thousand points a box
                # descending, so the first query builds the whole box
                for alpha in itertools.product(range(bound, -1, -1), repeat=l):
                    assert (lub_closure_membership(curve, places, alpha)
                            == semigroup_membership_oracle(curve, places, alpha)), (
                        q, m, places, alpha)
            cases += 1
    assert cases == 15


def test_lub_closure_examples(h2, h3):
    assert lub_closure_membership(h2, (1, 2), (0, 0))
    assert lub_closure_membership(h3, (1, 2, 3), (1, 1, 1))
    # (2,2,2) is a lub of embedded pair generators without being a generator
    assert lub_closure_membership(h3, (1, 2, 3), (2, 2, 2))
    assert (2, 2, 2) not in gamma_plus_multi(h3, 3)
    assert not lub_closure_membership(h3, (1, 2, 3), (1, 1, 2))


def test_lub_oracle_agree_small_boxes(h2, h3):
    for curve in (h2, h3):
        for l in range(1, curve.r + 1):
            places = tuple(range(1, l + 1))
            for alpha in itertools.product(range(0, curve.m + 2), repeat=l):
                assert (lub_closure_membership(curve, places, alpha)
                        == semigroup_membership_oracle(curve, places, alpha))


def test_lub_closure_refuses_boxes_above_the_cap(monkeypatch):
    monkeypatch.setattr(semigroup, "_BOXES", {})
    curve = hermitian_curve(3)
    cells = (10**4 + 1) ** 3
    with pytest.raises(ValueError, match=f"{cells} cells, above the cap of {MAX_BOX_CELLS}"):
        lub_closure_membership(curve, (1, 2, 3), (10**4,) * 3)
    assert not semigroup._BOXES  # refused before any grid is built
    assert lub_closure_membership(curve, (1, 2, 3), (2, 2, 2))
    assert list(semigroup._BOXES) == [(3, 4, 3)]


def test_lub_closure_answers_do_not_depend_on_query_order(monkeypatch, h4):
    # bounds 2..12 on l = 3 make the cached grid grow, then serve restrictions
    points = [(4, 1, 0), (9, 5, 4), (12, 12, 12), (5, 5, 5), (8, 8, 1), (10, 2, 6),
              (2, 2, 2), (12, 0, 3), (6, 6, 6), (11, 7, 9), (1, 1, 2), (7, 4, 12)]
    places = (1, 2, 3)

    def answers(order, empty_each_time):
        # each order starts from an empty cache; a fresh build empties it per query
        boxes = {}
        monkeypatch.setattr(semigroup, "_BOXES", boxes)
        result = {}
        for alpha in order:
            if empty_each_time:
                boxes.clear()
            result[alpha] = lub_closure_membership(h4, places, alpha)
        return result

    ascending = sorted(points, key=max)
    up = answers(ascending, False)
    down = answers(ascending[::-1], False)
    grid = _semigroup_box(h4, 3, 12)  # the grid the descending order built first
    fresh = answers(points, True)
    assert up == down == fresh
    assert any(up.values()) and not all(up.values())
    assert grid.shape == (13, 13, 13)
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0, 0, 1] = True


def test_attained_coordinates_grid_equals_the_fold(family, monkeypatch):
    boxes = 0
    for curve in family:
        # an empty cache, bounds ascending: each box is built, not restricted
        monkeypatch.setattr(semigroup, "_BOXES", {})
        for l in range(1, curve.r - curve.r // curve.m + 1):
            for bound in range(curve.m, 2 * curve.m + 1):
                if (bound + 1) ** l <= 1 << 16:
                    assert box_matches_fold(curve, l, bound), (curve.label, l, bound)
                    grid = semigroup._BOXES[(curve.r, curve.m, l)]
                    assert grid.shape == (bound + 1,) * l
                    boxes += 1
    assert boxes == 111


def test_curves_with_equal_r_and_m_share_the_semigroup_caches(monkeypatch, h2):
    monkeypatch.setattr(semigroup, "_BOXES", {})
    # y^3 + y = x^4 over GF(9) and y(y - 1)(y - 2) = x^4 over GF(5): r = 3, m = 4
    h3, other = builtin_curve("hermitian-q3"), KummerCurve(GF(5), [0, 1, 2], 4)
    assert h3.field != other.field and (h3.r, h3.m) == (other.r, other.m)
    assert gap_set_single(h3) is gap_set_single(other)
    for l in (1, 2, 3):
        places = tuple(range(1, l + 1))
        for curve in (h3, other):
            for alpha in itertools.product(range(9), repeat=l):
                assert (lub_closure_membership(curve, places, alpha)
                        == semigroup_membership_oracle(curve, places, alpha))
        assert _semigroup_box(h3, l, 8) is _semigroup_box(other, l, 8)
    assert sorted(semigroup._BOXES) == [(3, 4, 1), (3, 4, 2), (3, 4, 3)]
    # another (r, m) gets its own grid
    grid = _semigroup_box(h2, 2, 8)
    assert sorted(semigroup._BOXES) == [(2, 3, 2), (3, 4, 1), (3, 4, 2), (3, 4, 3)]
    assert grid is not _semigroup_box(h3, 2, 8) and gap_set_single(h2) != gap_set_single(h3)


def test_gns_examples(h3):
    assert is_nonspecial_gns(h3, parse_divisor(h3, "1*P1+2*P2"))
    assert not is_nonspecial_gns(h3, parse_divisor(h3, "1*P1+1*P2+1*P3"))
    # coefficient at the single-place semigroup threshold m - floor(m/r)
    assert not is_nonspecial_gns(h3, parse_divisor(h3, "3*P1"))
    with pytest.raises(ValueError):
        is_nonspecial_gns(h3, parse_divisor(h3, "1*P1"))  # degree != g


def test_gns_agrees_with_ell(h3, nt):
    for curve in (h3, nt):
        g = curve.genus
        for comp in itertools.product(range(g + 1), repeat=curve.r):
            if sum(comp) != g:
                continue
            A = Divisor({Place.ramified(i + 1): c for i, c in enumerate(comp)})
            assert is_nonspecial_gns(curve, A) == (ell(curve, A) == 1)


def test_degree_g_recipes(family):
    expected = {
        "hermitian-q2": "1*P1",
        "hermitian-q3": "1*P1+2*P2",
        "hermitian-q4": "1*P1+2*P2+3*P3",
        "curve1-q4": "2*P1",
        "curve2-q2-r3": "4*P1",
        "norm-trace-q2-r3": "1*P1+3*P2+5*P3",
    }
    for curve in family:
        A = nonspecial_degree_g(curve)
        assert A == parse_divisor(curve, expected[curve.label])
        assert A.degree == curve.genus
        assert ell(curve, A) == 1


def test_degree_g_closed_form_when_r_below_m(family):
    for curve in family:
        assert curve.r < curve.m
        closed = Divisor({Place.ramified(j): j * curve.m // curve.r
                          for j in range(1, curve.r)})
        assert nonspecial_degree_g(curve) == closed


def test_custom_assignment(h3):
    A = nonspecial_degree_g(h3, assignment=[3, 1])
    assert A == parse_divisor(h3, "1*P3+2*P1")
    assert ell(h3, A) == 1
    with pytest.raises(ValueError):
        nonspecial_degree_g(h3, assignment=[1, 1])
    with pytest.raises(ValueError):
        nonspecial_degree_g(h3, assignment=[1])


def test_enumerate_counts(h2, h3, nt):
    assert len(enumerate_nonspecial_degree_g(h2)) == 2
    assert len(enumerate_nonspecial_degree_g(h3)) == 6
    assert len(enumerate_nonspecial_degree_g(nt)) == 24


def test_classification_matches_brute_force(h2, h3, nt):
    # r > m: the recipe gives two places the same multiplicity (s_1 = 2)
    r5 = KummerCurve(GF(7), [0, 1, 2, 3, 4], 3)
    r7 = KummerCurve(GF(11), list(range(7)), 3)
    assert (r5.genus, r7.genus) == (4, 6)
    assert len(enumerate_nonspecial_degree_g(r5)) == 30
    assert len(enumerate_nonspecial_degree_g(r7)) == 210
    for curve in (h2, h3, nt, r5, r7):
        g = curve.genus
        brute = set()
        for comp in itertools.product(range(g + 1), repeat=curve.r):
            if sum(comp) != g:
                continue
            if _ell_fast(curve, list(comp), 0) == 1:
                brute.add(Divisor({Place.ramified(i + 1): c
                                   for i, c in enumerate(comp)}))
        assert brute == enumerate_nonspecial_degree_g(curve)


def test_degree_g_minus_1(h2, c1):
    d = nonspecial_degree_g_minus_1(h2, Place.infinity())
    assert d == parse_divisor(h2, "1*P1-1*Pinf")
    assert ell(h2, d) == 0
    d = nonspecial_degree_g_minus_1(c1, Place.ramified(2))
    assert d == parse_divisor(c1, "2*P1-1*P2")
    assert ell(c1, d) == 0
    assert d.degree == c1.genus - 1
    with pytest.raises(ValueError):
        nonspecial_degree_g_minus_1(h2, Place.ramified(1))  # in the support


def test_degree_g_minus_1_all_admissible_points(family):
    for curve in family:
        A = nonspecial_degree_g(curve)
        for P in curve.rational_points():
            if A[P] != 0:
                continue
            B = nonspecial_degree_g_minus_1(curve, P)
            assert B.degree == curve.genus - 1
            assert ell(curve, B) == 0


def test_monotone_nonspecialness_grown_at_infinity(family):
    for curve in family:
        A = nonspecial_degree_g(curve)
        g = curve.genus
        for c in range(0, max(0, g - 1)):
            B = A + Divisor.of(Place.infinity(), c)
            if B.degree <= 2 * g - 2:
                assert ell(curve, B) == B.degree + 1 - g


def test_floor_identities():
    assert floor_identity_checks(2, 3)
    assert floor_identity_checks(4, 7)
    with pytest.raises(ValueError):
        floor_identity_checks(2, 4)


def test_floor_identities_sweep():
    for r in range(1, 31):
        for m in range(1, 31):
            if math.gcd(r, m) == 1:
                assert floor_identity_checks(r, m)
