"""Property tests on randomly drawn Kummer curves, beyond the six bundled ones.

A drawn spec is a prime p, an extension degree k, a set of r roots in
GF(p^k), and an exponent m coprime to r and to p. The divisor G lives on the
ramified places and Pinf, with degree in the window 2g - 2 < deg G < n.
Semigroup points lie in a box [0, b]^l with b <= 3m, on drawn curves, on the
six bundled ones, and, for the dimension-jump oracle against the full size
profile, on a stand-in with only r, m <= 40. The text forms of
elements, divisors and functions must parse back to equal objects. An exact
minimum distance lies between the Goppa and Singleton bounds. An L(G) basis
with simple zeros matches the monomial-by-monomial route of test_functions.
"""

import itertools
import math
from types import SimpleNamespace

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from kummer_lcd import (GF, Divisor, FunctionElement, KummerCurve, Place,
                        build_code, builtin_curve, dual, ell, format_divisor,
                        format_element, format_function, gamma_plus_multi, gap_set_single,
                        hull, hull_dimension_by_rank, is_nonspecial_gns,
                        lub_closure_membership, min_distance, nonspecial_degree_g,
                        parse_divisor, parse_element, parse_function, principal_divisor,
                        riemann_roch_basis, semigroup, semigroup_membership_oracle)
from kummer_lcd.functions import _component_sizes, _times_roots
from test_functions import basis_by_monomials, times_roots_by_factors
from test_semigroup import box_matches_fold, jump_count_oracle

# field sizes up to 27 keep a drawn curve at a few hundred points
FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]

# the six curves of conftest's family, by their builtin names
BUNDLED = ["hermitian-q2", "hermitian-q3", "hermitian-q4", "curve1-q4", "curve2-q2-r3",
           "norm-trace-q2-r3"]

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
def divisors(draw, curve):
    """A G on the ramified places and Pinf with 2g - 2 < deg G < n."""
    g, n = curve.genus, len(curve.affine_places())
    assume(2 * g - 1 < n)
    degree = draw(st.integers(2 * g - 1, n - 1))
    ram = [draw(st.integers(-curve.m, 2 * curve.m)) for _ in range(curve.r)]
    coeffs = {Place.ramified(i): c for i, c in enumerate(ram, start=1)}
    coeffs[Place.infinity()] = degree - sum(ram)
    return Divisor(coeffs)


@st.composite
def curves_with_divisor(draw):
    curve = draw(curves())
    return curve, draw(divisors(curve))


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


@SETTINGS
@given(curves_with_divisor())
def test_min_distance_lies_between_goppa_and_singleton(case):
    curve, G = case
    code = build_code(curve, curve.standard_D(), G)
    assume(0 < code.k and curve.field.order ** code.k <= 1 << 14)
    result = min_distance(code)
    assert result.exact and result.designed_bound == code.n - G.degree
    assert code.n - G.degree <= result.d <= code.n - code.k + 1


@SETTINGS
@given(curves(), st.data())
def test_lub_closure_agrees_with_the_oracle(curve, data):
    l = data.draw(st.integers(1, curve.r - curve.r // curve.m))
    places = tuple(sorted(data.draw(st.sets(st.integers(1, curve.r),
                                            min_size=l, max_size=l))))
    bound = data.draw(st.integers(0, 2 * curve.m))
    point = st.tuples(*[st.integers(0, bound)] * l)
    for alpha in data.draw(st.lists(point, min_size=1, max_size=6)):
        assert (lub_closure_membership(curve, places, alpha)
                == semigroup_membership_oracle(curve, places, alpha))


@SETTINGS
@given(curves(), st.data())
def test_membership_oracle_agrees_with_the_jump_count(curve, data):
    for l in range(1, curve.r + 1):
        places = tuple(data.draw(st.permutations(range(1, curve.r + 1)))[:l])
        point = st.tuples(*[st.integers(0, 3 * curve.m)] * l)
        for alpha in data.draw(st.lists(point, min_size=1, max_size=6)):
            assert (semigroup_membership_oracle(curve, places, alpha)
                    == jump_count_oracle(curve, places, alpha))


@SETTINGS
@given(st.integers(1, 40), st.integers(1, 40), st.data())
def test_the_oracle_reads_the_size_profile_at_the_jumped_components(r, m, data):
    # the oracle and the size profile read nothing of a curve but r and m
    curve = SimpleNamespace(r=r, m=m)
    l = data.draw(st.integers(1, r))
    places = tuple(data.draw(st.permutations(range(1, r + 1)))[:l])
    point = st.tuples(*[st.integers(0, 3 * m)] * l)
    for alpha in data.draw(st.lists(point, min_size=1, max_size=6)):
        sizes = _component_sizes(curve, alpha, 0)
        assert (semigroup_membership_oracle(curve, places, alpha)
                == all(sizes[-a % m] >= 1 for a in alpha)), (r, m, places, alpha)


def _primes_above(r, m):
    """The two smallest primes p > r with p not dividing m."""
    primes = (p for p in itertools.count(r + 1)
              if all(p % d for d in range(2, p)) and m % p)
    return next(primes), next(primes)


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 9), st.data())
def test_semigroup_answers_do_not_depend_on_the_field(r, m, data):
    # the same r roots 0..r-1 over two prime fields: one (r, m), two curves
    assume(math.gcd(r, m) == 1)
    pair = [KummerCurve(GF(p), range(r), m) for p in _primes_above(r, m)]
    window = r - r // m

    def answers(curve):
        A = nonspecial_degree_g(curve)
        return (gap_set_single(curve),
                [gamma_plus_multi(curve, l) for l in range(2, window + 1)],
                A, is_nonspecial_gns(curve, A))

    first, second = map(answers, pair)
    assert first == second and first[3]
    if not window:
        return
    l = data.draw(st.integers(1, window))
    places = tuple(data.draw(st.permutations(range(1, r + 1)))[:l])
    # at most 2^14 cells a box
    point = st.tuples(*[st.integers(0, min(3 * m, int(2 ** (14 / l)) - 1))] * l)
    alphas = data.draw(st.lists(point, min_size=1, max_size=6))
    for curve in pair:
        # the grid cache is keyed by (r, m, l): each curve builds its own
        semigroup._BOXES.clear()
        for alpha in alphas:
            assert (lub_closure_membership(curve, places, alpha)
                    == semigroup_membership_oracle(curve, places, alpha)), (
                curve.label, places, alpha)


@SETTINGS
@given(st.sampled_from(BUNDLED), st.data())
def test_lub_closure_agrees_with_the_oracle_on_bundled_curves(label, data):
    curve = builtin_curve(label)
    l = data.draw(st.integers(1, curve.r - curve.r // curve.m))
    places = tuple(data.draw(st.permutations(range(1, curve.r + 1)))[:l])
    point = st.tuples(*[st.integers(0, 3 * curve.m)] * l)
    for alpha in data.draw(st.lists(point, min_size=1, max_size=6)):
        assert (lub_closure_membership(curve, places, alpha)
                == semigroup_membership_oracle(curve, places, alpha)), (label, places, alpha)


@SETTINGS
@given(curves(), st.data())
def test_semigroup_box_equals_the_fold(curve, data):
    top = min(curve.r, curve.r - curve.r // curve.m)
    l = data.draw(st.integers(1, top))
    for bound in sorted(data.draw(st.lists(st.integers(0, 2 * curve.m), min_size=1,
                                           max_size=3))):
        assert box_matches_fold(curve, l, bound)


@SETTINGS
@given(curves(), st.data())
def test_principal_divisor_adds_the_divisors_of_x_and_each_root(curve, data):
    """(x^e prod (y - alpha_i)^(c_i)) = e (x) + sum_i c_i (y - alpha_i)."""
    for _ in range(data.draw(st.integers(1, 5))):
        e = data.draw(st.integers(-2 * curve.m, 2 * curve.m))
        c = data.draw(st.lists(st.integers(-3, 3), min_size=curve.r, max_size=curve.r))
        expected = e * curve.divisor_of_x()
        for i, c_i in enumerate(c, start=1):
            expected = expected + c_i * curve.divisor_of_y_minus_alpha(i)
        assert principal_divisor(FunctionElement.monomial(curve, e, c)) == expected


@SETTINGS
@given(curves(), st.data())
def test_element_text_round_trip(curve, data):
    elements = curve.field.elements()
    x = elements[data.draw(st.integers(0, len(elements) - 1))]
    assert parse_element(curve.field, format_element(x)) == x


@SETTINGS
@given(curves(), st.data())
def test_divisor_text_round_trip(curve, data):
    places = (list(curve.ramified_places()) + [Place.infinity()]
              + list(curve.affine_places()))
    chosen = data.draw(st.lists(st.sampled_from(places), max_size=6, unique=True))
    D = Divisor({P: data.draw(st.integers(-9, 9)) for P in chosen})
    assert parse_divisor(curve, format_divisor(D)) == D
    assert parse_divisor(curve, format_divisor(Divisor.zero())) == Divisor.zero()


@SETTINGS
@given(curves(), st.data())
def test_function_text_round_trip(curve, data):
    elements = curve.field.elements()
    f = FunctionElement.zero(curve)
    for _ in range(data.draw(st.integers(1, 3))):
        x_exp = data.draw(st.integers(-2 * curve.m, 2 * curve.m))
        alpha_exps = data.draw(st.lists(st.integers(-3, 3), min_size=curve.r,
                                        max_size=curve.r))
        y_poly = data.draw(st.lists(st.sampled_from(elements), min_size=1, max_size=3))
        f = f + FunctionElement.monomial(curve, x_exp, alpha_exps, y_poly)
    assert parse_function(curve, format_function(f)) == f
    zero = FunctionElement.zero(curve)
    assert parse_function(curve, format_function(zero)) == zero


@st.composite
def divisors_with_simple_zeros(draw):
    """A drawn curve and G with coefficients in [-3m, 3m] at the P_i, so
    some n_t,i are negative, and 1-3 simple zeros."""
    curve = draw(curves())
    m, affine = curve.m, curve.affine_places()
    assume(affine)
    coeffs = {Place.ramified(i): draw(st.integers(-3 * m, 3 * m))
              for i in range(1, curve.r + 1)}
    coeffs[Place.infinity()] = draw(st.integers(-m, 4 * m))
    zeros = draw(st.lists(st.sampled_from(affine), min_size=1, max_size=3, unique=True))
    return curve, Divisor(coeffs) - Divisor({p: 1 for p in zeros})


@SETTINGS
@given(divisors_with_simple_zeros())
def test_basis_matches_the_monomial_by_monomial_route(case):
    curve, G = case
    basis = riemann_roch_basis(curve, G)
    assert basis.functions == basis_by_monomials(curve, G)
    assert ell(curve, G) == basis.dimension


@SETTINGS
@given(curves(), st.data())
def test_lift_matches_the_factor_by_factor_route_on_drawn_curves(curve, data):
    # exponents 0..3p^2 at every root, times a drawn numerator
    p, elements = curve.field.p, curve.field.elements()
    counts = data.draw(st.lists(st.integers(0, 3 * p * p), min_size=curve.r, max_size=curve.r))
    num = data.draw(st.lists(st.sampled_from(elements[1:]), min_size=1, max_size=3))
    assert list(_times_roots(num, curve.alphas, counts)) == times_roots_by_factors(
        num, curve.alphas, counts)
