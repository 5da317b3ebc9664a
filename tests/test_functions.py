import math
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummer_lcd import (Divisor, FunctionElement, Place, build_code, builtin_curve, ell,
                        format_function, index_of_specialty, is_nonspecial, parse_divisor,
                        parse_function, principal_divisor, riemann_roch_basis,
                        valuation_ok)
from kummer_lcd.codes import evaluation_matrix
from kummer_lcd.curves import RAMIFIED
from kummer_lcd.functions import (_basis_rows, _component_sizes, _ell_fast, _strip_root,
                                  _term_bounds, _times_roots)
from kummer_lcd.gf import GF, _pdivmod, _pmul
from kummer_lcd.codes import LinearCode


def term_sum_ell(curve, ram, inf):
    """ell(G) for G = sum_i ram[i] P_i + inf Pinf, term by term: the t-component
    has size sum_i floor((g_i + t) / m) + floor((inf - r t) / m) + 1, summed
    over all of ram for each t, and ell adds the positive sizes."""
    m, r = curve.m, curve.r
    sizes = (sum((g + t) // m for g in ram) + (inf - r * t) // m + 1 for t in range(m))
    return sum(size for size in sizes if size > 0)


# (r, m) coprime with r * m <= 400; the size profile reads only r and m
COPRIME_SHAPES = [(r, m) for r in range(1, 201) for m in range(2, 400 // r + 1)
                  if math.gcd(r, m) == 1]


@st.composite
def floor_sum_divisors(draw):
    r, m = draw(st.sampled_from(COPRIME_SHAPES))
    coefficient = st.one_of(st.just(0), st.integers(-3 * m, 3 * m))
    ram = draw(st.lists(coefficient, min_size=r, max_size=r))
    return SimpleNamespace(r=r, m=m), ram, draw(st.integers(-3 * r * m, 3 * r * m))


@settings(max_examples=300, deadline=None)
@given(floor_sum_divisors(), st.randoms(use_true_random=False))
def test_ell_fast_matches_the_term_sum(case, rnd):
    curve, ram, inf = case
    expected = term_sum_ell(curve, ram, inf)
    assert _ell_fast(curve, ram, inf) == expected
    # zero coefficients add nothing and the order of the places does not matter
    nonzero = [g for g in ram if g]
    rnd.shuffle(nonzero)
    assert _component_sizes(curve, nonzero, inf) == _component_sizes(curve, ram, inf)
    m, r = curve.m, curve.r
    assert list(_term_bounds(curve, ram, inf)) == [
        (t, [(g + t) // m for g in ram], size) for t in range(m)
        if (size := sum((g + t) // m for g in ram) + (inf - r * t) // m + 1) > 0]


def test_valuation_x2_over_y(h2):
    f = FunctionElement.monomial(h2, 2, alpha_exps=(-1, 0))
    assert f.valuation(Place.ramified(1)) == -1
    assert f.valuation(Place.ramified(2)) == 2
    assert f.valuation(Place.infinity()) == -1
    assert principal_divisor(f) == parse_divisor(h2, "-1*P1+2*P2-1*Pinf")


def test_valuation_constant_and_inverse_x(h2):
    one = FunctionElement.one(h2)
    for p in h2.rational_points():
        assert one.valuation(p) == 0
    inv_x = FunctionElement.monomial(h2, -1)
    assert inv_x.valuation(Place.infinity()) == 2
    assert principal_divisor(inv_x) == -h2.divisor_of_x()


def test_principal_divisors_have_degree_zero(family):
    for curve in family:
        assert principal_divisor(FunctionElement.monomial(curve, 1)).degree == 0
        assert principal_divisor(
            FunctionElement.monomial(curve, 0, alpha_exps=(1,) + (0,) * (curve.r - 1))
        ).degree == 0
        assert (principal_divisor(FunctionElement.monomial(curve, 1))
                == curve.divisor_of_x())


def test_principal_divisor_refuses_the_zero_function(h2):
    with pytest.raises(ValueError, match="the zero function has no divisor"):
        principal_divisor(FunctionElement.zero(h2))


def test_principal_divisor_refuses_more_than_one_x_power(h2):
    f = FunctionElement.one(h2) + FunctionElement.monomial(h2, 1)
    with pytest.raises(ValueError, match="only single-term functions"):
        principal_divisor(f)


def test_principal_divisor_refuses_a_numerator_with_an_affine_zero(h2):
    # y + a vanishes at y = a, which is no root of h2
    a = h2.field.generator
    assert a not in h2.alphas
    f = FunctionElement.monomial(h2, 0, y_poly=[a, 1])
    with pytest.raises(ValueError, match=r"numerator is not a product of the \(y - alpha_i\)"):
        principal_divisor(f)


def test_zero_function_valuation_rejected(h2):
    with pytest.raises(ValueError):
        FunctionElement.zero(h2).valuation(Place.infinity())


def test_evaluate_golden_entries(h2):
    # entries from the printed generator tables
    spec = h2.field
    a = spec.generator
    point = Place.affine(a, a)
    assert FunctionElement.monomial(h2, 2, alpha_exps=(-1, 0)).evaluate(point) == a
    assert FunctionElement.one(h2).evaluate(point) == spec.one
    assert FunctionElement.monomial(h2, -1).evaluate(point) == a ** 2


def test_evaluate_requires_affine(h2):
    with pytest.raises(ValueError):
        FunctionElement.one(h2).evaluate(Place.infinity())


def test_rr_basis_dimensions(h2, c1):
    basis = riemann_roch_basis(h2, parse_divisor(h2, "3*Pinf+1*P1"))
    assert basis.dimension == 4
    texts = {format_function(f) for f in basis.functions}
    assert texts == {
        "x^0*([1,0]*y^0)", "x^0*([1,0]*y^1)", "x^1*([1,0]*y^0)",
        "x^2*([1,0]*y^0)/((y-[0,0])^1)",
    }
    assert riemann_roch_basis(h2, Divisor.zero()).dimension == 1
    assert riemann_roch_basis(c1, parse_divisor(c1, "4*Pinf+12*P1-1*P2")).dimension == 14


def test_ell_examples(h2, h4):
    P1 = Place.ramified(1)
    assert ell(h2, Divisor.of(P1)) == 1
    assert index_of_specialty(h2, Divisor.of(P1)) == 0
    assert is_nonspecial(h2, Divisor.of(P1))
    # x^2/y lies in L((q-1)(P1 + Pinf)) for every Hermitian curve, so that
    # divisor always has ell >= 2; at q = 4 its degree equals the genus and
    # the same membership certifies a special divisor
    for curve, q in ((h2, 2), (h4, 4)):
        A = Divisor({P1: q - 1, Place.infinity(): q - 1})
        f = FunctionElement.monomial(curve, 2, alpha_exps=(-1,) + (0,) * (curve.r - 1))
        assert valuation_ok(curve, f, A)
        assert ell(curve, A) >= 2
    A4 = Divisor({P1: 3, Place.infinity(): 3})
    assert A4.degree == h4.genus
    assert not is_nonspecial(h4, A4)


def test_ell_negative_degree_is_zero(family):
    for curve in family:
        assert ell(curve, Divisor.of(Place.infinity(), -1)) == 0
        assert ell(curve, -2 * Divisor.of(Place.ramified(1))) == 0


def test_riemann_roch_identity_sweep(family):
    rng = random.Random(11)
    for curve in family:
        g = curve.genus
        places = list(curve.ramified_places()) + [curve.infinity()]
        seen = 0
        while seen < 200:
            D = Divisor({p: rng.randint(-3, 3 * g + 3) for p in places})
            if D.degree > 2 * g - 2:
                assert ell(curve, D) == D.degree + 1 - g
                seen += 1


def test_monotonicity_sweep(family):
    rng = random.Random(13)
    for curve in family:
        places = list(curve.ramified_places()) + [curve.infinity()]
        for _ in range(200):
            A = Divisor({p: rng.randint(-3, 6) for p in places})
            B = A + Divisor({p: rng.randint(0, 3) for p in places})
            assert A <= B
            assert ell(curve, A) <= ell(curve, B)


def test_basis_functions_respect_divisor(family):
    rng = random.Random(17)
    for curve in family:
        places = list(curve.ramified_places()) + [curve.infinity()]
        for _ in range(10):
            G = Divisor({p: rng.randint(-2, 2 * curve.genus + 2) for p in places})
            basis = riemann_roch_basis(curve, G)
            for f in basis.functions:
                assert valuation_ok(curve, f, G)


def test_basis_independence_at_standard_D(h2, c1):
    for curve, text in ((h2, "3*Pinf+1*P1"), (c1, "2*P1+15*P2")):
        G = parse_divisor(curve, text)
        basis = riemann_roch_basis(curve, G)
        points = curve.affine_places()
        rows = evaluation_matrix(curve, basis.functions, points)
        code = LinearCode.from_rows(curve.field, rows, points)
        assert code.k == basis.dimension


def test_affine_simple_zero_constraints(h2):
    point = h2.affine_places()[0]
    A = Divisor.of(Place.ramified(1))
    assert ell(h2, A - Divisor.of(point)) == 0
    G = parse_divisor(h2, "3*Pinf+1*P1") - Divisor.of(point)
    assert ell(h2, G) == 3  # deg 3 > 2g - 2, so exactly deg + 1 - g
    basis = riemann_roch_basis(h2, G)
    assert all(f.evaluate(point).is_zero() for f in basis.functions)


def test_basis_size_cap(h2, monkeypatch):
    from kummer_lcd import functions
    from kummer_lcd.codes import MAX_CODE_LENGTH
    assert functions.MAX_RR_DIMENSION >= MAX_CODE_LENGTH
    monkeypatch.setattr(functions, "MAX_RR_DIMENSION", 10)
    assert riemann_roch_basis(h2, parse_divisor(h2, "10*Pinf")).dimension == 10
    # the cap reads the size before the simple zeros are imposed
    zero = h2.affine_places()[0]
    G = parse_divisor(h2, "10*Pinf") - Divisor.of(zero)
    with pytest.raises(ValueError, match="ell = 11 .* MAX_RR_DIMENSION = 10"):
        riemann_roch_basis(h2, G + Divisor.of(Place.infinity()))
    assert riemann_roch_basis(h2, G).dimension == 9
    with pytest.raises(ValueError, match="MAX_RR_DIMENSION"):
        ell(h2, G + Divisor.of(Place.infinity()))


def test_ell_with_simple_zeros_meets_only_the_count_cap(h2, monkeypatch):
    from kummer_lcd import functions
    # the t = 0 numerators reach degree 1025 + 3 (a component of size 4), but
    # ell builds no numerator: it counts the free columns of the row reduction
    zero = Divisor.of(h2.affine_places()[0])
    G = parse_divisor(h2, "3075*P1-3075*P2+10*Pinf") - zero
    with pytest.raises(ValueError, match="numerator of degree 1028 "):
        riemann_roch_basis(h2, G)
    assert ell(h2, G) == G.degree + 1 - h2.genus == 9
    assert is_nonspecial(h2, G)
    monkeypatch.setattr(functions, "MAX_RR_DIMENSION", 10)
    assert ell(h2, parse_divisor(h2, "10*Pinf") - zero) == 9
    with pytest.raises(ValueError, match="ell = 11 basis functions .* MAX_RR_DIMENSION = 10"):
        ell(h2, parse_divisor(h2, "11*Pinf") - zero)


def test_build_code_with_simple_zeros_meets_the_count_cap(h3, monkeypatch):
    from kummer_lcd import functions
    monkeypatch.setattr(functions, "MAX_RR_DIMENSION", 10)
    affine = h3.affine_places()
    zeros, places = affine[:2], affine[2:14]
    # 13*Pinf has ell = 11 monomials before the two zeros cut it to 9
    G = parse_divisor(h3, "13*Pinf") - Divisor({p: 1 for p in zeros})
    assert G.degree < len(places)
    with pytest.raises(ValueError, match="ell = 11 basis functions .* MAX_RR_DIMENSION = 10"):
        build_code(h3, places, G)
    assert build_code(h3, places, parse_divisor(h3, "12*Pinf") - Divisor.of(zeros[0])).k == 9


@pytest.mark.parametrize("index", [0, -1, 3])
def test_a_ramified_index_out_of_range_is_refused(h2, index):
    # a place built without the factory, so Place.ramified's own check is skipped
    place = Place(RAMIFIED, index)
    message = f"ramified index {index} out of range 1..2"
    with pytest.raises(ValueError, match=message):
        ell(h2, Divisor.of(place, 5))
    with pytest.raises(ValueError, match=message):
        riemann_roch_basis(h2, Divisor.of(place, 5))
    with pytest.raises(ValueError, match=message):
        build_code(h2, h2.standard_D(), Divisor({place: 4, Place.infinity(): 1}))
    with pytest.raises(ValueError, match=message):
        FunctionElement.monomial(h2, 1).valuation(place)


def times_roots_by_factors(num, alphas, counts):
    """Second route for _times_roots: num times one (y - alpha_i) at a time."""
    num = list(num)
    for alpha, count in zip(alphas, counts):
        for _ in range(count):
            num = _pmul(num, [-alpha, alpha.spec.one])
    return num


def test_lift_matches_the_factor_by_factor_route(family):
    # every exponent 0..3p^2 of every root of the bundled curves, alone and
    # after a numerator with a zero coefficient
    for curve in family:
        spec = curve.field
        p = spec.p
        for alpha in curve.alphas:
            for num in ([spec.one], [spec.generator, spec.zero, spec.one]):
                for e in range(3 * p * p + 1):
                    assert (list(_times_roots(num, [alpha], [e]))
                            == times_roots_by_factors(num, [alpha], [e])), (curve.label, e)


@pytest.mark.parametrize("name, text, zeros", [
    ("hermitian-q2", "10*Pinf", 1), ("hermitian-q3", "13*Pinf", 2),
    ("hermitian-q3", "1*P1+2*P2+8*P3", 3), ("curve1-q4", "2*P1-1*P2+15*Pinf", 2),
    ("curve1-q4", "4*Pinf", 5), ("hermitian-q3", "2*Pinf", 0)])
def test_basis_rows_keeps_the_free_columns_np_delete_leaves(name, text, zeros):
    # the free columns were np.delete(np.arange(monomials), pivots) before a
    # boolean mask kept them; 4*Pinf on curve1-q4 has more zeros than monomials
    curve = builtin_curve(name)
    G = parse_divisor(curve, text) - Divisor({p: 1 for p in curve.affine_places()[:zeros]})
    components, reduced, pivots, free, _ = _basis_rows(curve, G)
    monomials = sum(size for *_, size in components)
    assert free.dtype == np.arange(1).dtype
    assert free.tolist() == np.delete(np.arange(monomials), pivots).tolist()
    assert len(pivots) == (min(zeros, monomials) if zeros else 0)


def basis_by_monomials(curve, G):
    """Second route for riemann_roch_basis: each function is assembled
    monomial by monomial from the RREF of the values at the simple zeros, and
    each numerator is lifted by one (y - alpha_i) at a time before
    FunctionElement sees it."""
    components, reduced, pivots, free, _ = _basis_rows(curve, G)
    spec = curve.field
    monomials = [(t, n_t, size, k) for t, n_t, size in components for k in range(size)]
    functions = []
    for f in free:
        terms = {}
        for i, c in [(f, spec.one)] + [(p, -spec.unpack(c)) for p, c
                                       in zip(pivots, reduced[:, f].tolist()) if c]:
            t, n_t, size, k = monomials[i]
            terms.setdefault(t, ([spec.zero] * size, n_t))[0][k] = c
        functions.append(FunctionElement(curve, {
            t: (times_roots_by_factors(num, curve.alphas, [max(0, -n) for n in n_t]),
                [max(0, n) for n in n_t]) for t, (num, n_t) in terms.items()}))
    return tuple(functions)


def test_numerator_degree_cap(h2, monkeypatch):
    from kummer_lcd import functions
    # on hermitian-q2 (m = 3), g*P1 - g*P2 with 3 | g has one nonempty
    # component, t = 0, of size 1 and numerator degree g / 3
    assert riemann_roch_basis(h2, parse_divisor(h2, "3072*P1-3072*P2")).dimension == 1
    for text, degree in (("3075*P1-3075*P2", 1025), ("6000*P1-6000*P2", 2000),
                         ("99999999999999999999*P1-99999999999999999999*P2", 10 ** 20 // 3)):
        with pytest.raises(ValueError) as err:
            riemann_roch_basis(h2, parse_divisor(h2, text))
        assert str(err.value) == (f"a numerator of degree {degree} is above the cap "
                                  "MAX_RR_DIMENSION = 1024")
    # the degree counts the component's own size as well
    monkeypatch.setattr(functions, "MAX_RR_DIMENSION", 10)
    assert riemann_roch_basis(h2, parse_divisor(h2, "24*P1-24*P2+8*Pinf")).dimension == 8
    with pytest.raises(ValueError, match="numerator of degree 11 .* MAX_RR_DIMENSION = 10"):
        riemann_roch_basis(h2, parse_divisor(h2, "27*P1-27*P2+8*Pinf"))


def test_a_numerator_past_the_cap_is_refused_before_any_product(h2):
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        FunctionElement.monomial(builtin_curve("hermitian-q2"), 0, [10**9, 0])
    assert time.perf_counter() - start < 1
    assert str(err.value) == ("a numerator of degree 1000000000 is above the cap "
                              "MAX_RR_DIMENSION = 1024")
    # a sum lifts both numerators to the common denominator, under the same cap
    f, g = (FunctionElement.monomial(h2, 0, exps) for exps in ([-1100, 0], [0, -1100]))
    with pytest.raises(ValueError, match="numerator of degree 1100 .* MAX_RR_DIMENSION = 1024"):
        f + g
    # at the cap the products are formed: in characteristic 2 the lifted
    # numerators add up to (alpha_1 - alpha_2)^1024, a constant, so f + g is
    # that over ((y - alpha_1)(y - alpha_2))^1024, of valuation m * 2048 at Pinf
    f, g = (FunctionElement.monomial(h2, 0, exps) for exps in ([-1024, 0], [0, -1024]))
    assert (f + g).valuation(Place.infinity()) == 3 * 2048


def strip_by_division(poly, root, spec, limit):
    """Second route for _strip_root: one division by (y - root) at a time."""
    count = 0
    while poly and (limit is None or count < limit):
        quo, rem = _pdivmod(poly, [-root, spec.one])
        if rem:
            break
        poly, count = quo, count + 1
    return count, list(poly)


@pytest.mark.parametrize("q", [4, 9])
def test_strip_root_matches_division(q):
    spec = GF(q)
    elements = spec.elements()
    rng = random.Random(q)
    polys = [[elements[rng.randrange(q)] for _ in range(rng.randrange(1, 7))]
             for _ in range(40)]
    # products with (y - root)^e, so some divisions go through
    for _ in range(20):
        root = elements[rng.randrange(q)]
        factor = [-root, spec.one]
        poly = [elements[rng.randrange(1, q)]]
        for _ in range(rng.randrange(4)):
            poly = _pmul(poly, factor)
        polys.append(poly)
    # monomials c * y^k, k = 0..5
    polys += [[spec.zero] * k + [elements[rng.randrange(1, q)]] for k in range(6)]
    for poly in polys:
        for root in (spec.zero, spec.one, elements[-1]):
            for limit in (None, 0, 1, 2, 3, 10):
                count, quo = _strip_root(poly, root, limit)
                assert (count, list(quo)) == strip_by_division(poly, root, spec, limit)


def test_strip_root_on_a_monomial_needs_no_division(h2, monkeypatch):
    from kummer_lcd import functions
    spec = h2.field
    poly = [spec.zero] * 5 + [spec.one]
    monkeypatch.setattr(functions, "_pdivmod", None)
    assert _strip_root(poly, spec.zero) == (5, [spec.one])
    assert _strip_root(poly, spec.zero, 3) == (3, poly[3:])
    assert _strip_root(poly, spec.zero, 0) == (0, poly)
    assert _strip_root(poly, spec.one, 2) == (0, poly)


def test_unsupported_affine_coefficients_rejected(h2):
    point = h2.affine_places()[0]
    with pytest.raises(ValueError):
        riemann_roch_basis(h2, Divisor.of(point, 1))
    with pytest.raises(ValueError):
        riemann_roch_basis(h2, Divisor.of(point, -2))


def test_function_linear_ops_and_text_roundtrip(h2):
    a = h2.field.generator
    f = FunctionElement.monomial(h2, 2, alpha_exps=(-1, 0))
    g = FunctionElement.monomial(h2, 0, y_poly=[0, 1])
    combo = f * a + g - f
    assert parse_function(h2, format_function(combo)) == combo
    assert (combo - combo).is_zero()
    point = h2.affine_places()[2]
    assert combo.evaluate(point) == a * f.evaluate(point) + g.evaluate(point) - f.evaluate(point)


def test_negative_exponent_moves_into_the_numerator(h2, c1):
    # (y - alpha_i)^-e in the denominator is (y - alpha_i)^e in the numerator
    for curve in (h2, c1):
        spec = curve.field
        num = (spec.generator, spec.zero, spec.one)
        for t in range(curve.m):
            for exps in [(-1, 0), (0, -2), (-2, 3), (1, -1)]:
                f = FunctionElement(curve, {t: (num, exps)})
                want = FunctionElement.monomial(curve, t, alpha_exps=[-e for e in exps],
                                                y_poly=num)
                assert f == want and all(d >= 0 for d in f.terms[t][1])


def test_constructor_coerces_and_checks_its_terms(h2):
    spec = h2.field
    # integer coefficients are coerced into the curve's field
    f = FunctionElement(h2, {0: ((1, 0, 1), (0, 0))})
    assert f == FunctionElement.monomial(h2, 0, y_poly=[spec.one, spec.zero, spec.one])
    assert format_function(f) == "x^0*([1,0]*y^0 + [1,0]*y^2)"
    foreign = GF(9).one
    bad_terms = [
        ((foreign,), (0, 0)),  # an element of another field
        ((1,), (0,)),  # too few denominator exponents
        ((1,), (1, 0, 5)),  # too many
        ((1,), (1.5, 0)),  # not an integer
    ]
    for num, dens in bad_terms:
        with pytest.raises(ValueError):
            FunctionElement(h2, {0: (num, dens)})
    with pytest.raises(ValueError, match="x-exponent"):
        FunctionElement(h2, {1.5: ((1,), (0, 0))})
    with pytest.raises(ValueError):
        FunctionElement.monomial(h2, 1.5)
    with pytest.raises(ValueError):
        FunctionElement.monomial(h2, 0, y_poly=[foreign])
    with pytest.raises(ValueError):
        FunctionElement.monomial(h2, 0, alpha_exps=(1,))


def test_monomial_x_power_reduction(c1):
    # x^5 = y^2 + y on this curve, so x^5 / y^2 is (y + 1) / y
    f = FunctionElement.monomial(c1, 5, alpha_exps=(-2, 0))
    (t, (num, dens)), = f.terms.items()
    assert t == 0
    assert dens == (1, 0)
