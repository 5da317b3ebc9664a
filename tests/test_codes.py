import dataclasses
import itertools
import json
import math
import pickle
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from kummer_lcd import (Divisor, FunctionElement, GF, LinearCode, Place, build_code,
                        construction_divisors, dual, dual_partner_divisor,
                        ell, evaluation_matrix, format_divisor, hull,
                        hull_dimension_by_rank, is_lcd, is_self_orthogonal, lcd_construct_maxcur,
                        maxcur_family_check, min_distance,
                        nonspecial_degree_g, one_point_hull_probe,
                        parse_divisor, riemann_roch_basis,
                        verify_hull_theorem)
from kummer_lcd import codes
from kummer_lcd.codes import MAX_MINDIST_BUDGET, _kernel
from kummer_lcd.curves import AFFINE, builtin_curve, gcd_divisor, hermitian_curve
from kummer_lcd.gf import format_element_pretty
from test_properties import SETTINGS, curves_with_divisor, divisors

ROOT = Path(__file__).resolve().parent.parent


def full_enumeration_min_weight(code):
    """Second route: the least weight over all q^k messages, formed in full.

    This is the enumeration the projective search replaced: each word is k
    gathers and k sums over all n columns, in batches of 2^16 messages.
    """
    spec = code.field
    N = spec.order
    kern = _kernel(spec)
    gen = code.matrix

    if spec.p == 2:
        add = np.bitwise_xor
    else:
        values = np.arange(N, dtype=np.int64)
        table = kern.add(values[:, None], values[None, :])

        def add(u, v):
            return table[u, v]

    total = N ** code.k
    best = code.n + 1
    batch = 1 << 16
    for start in range(0, total, batch):
        idx = np.arange(start, min(start + batch, total), dtype=np.int64)
        words = np.zeros((len(idx), code.n), dtype=np.int64)
        rest = idx.copy()
        for i in range(code.k):
            digit = rest % N
            rest //= N
            words = add(words, kern.mul(digit[:, None], gen[i][None, :]))
        weights = np.count_nonzero(words, axis=1)
        if start == 0:
            weights = weights[1:]
        if len(weights):
            best = min(best, int(weights.min()))
    return best


def head_loop_min_weight(code):
    """Second route: the least weight over the messages whose first nonzero
    digit is 1, one word sum per head message.

    This is the enumeration the comparison of heads with the tail replaced.
    ``tail`` holds every combination of rows s..k-1 of R, the generator on
    its non-pivot columns, grown while q times its cells fit in 2^21; each
    message on the head rows 0..s-1 gives one vector, added to the whole
    table, and the nonzero digits of the sum are counted.
    """
    q = code.field.order
    kern = _kernel(code.field)
    add = kern.add
    gen = code.matrix
    k, n = gen.shape
    rest = np.delete(gen, (gen != 0).argmax(axis=1), axis=1)

    def least(words, weights) -> int:
        return int(((words != 0).sum(axis=0, dtype=np.intp) + weights).min())

    scalars = np.arange(q, dtype=kern.dtype)
    tail = np.zeros((n - k, 1), dtype=kern.dtype)
    tail_weight = np.zeros(1, dtype=np.intp)
    best = n + 1
    s = k
    while s > 2 and q * tail.shape[1] * max(1, n - k) <= 1 << 21:
        s -= 1
        size = tail.shape[1]
        multiples = kern.mul(rest[s][:, None, None], scalars[None, :, None])
        tail = add(tail[:, None, :], multiples).reshape(n - k, q * size)
        tail_weight = ((scalars != 0)[:, None] + tail_weight).ravel()
        best = min(best, least(tail[:, size:2 * size], tail_weight[size:2 * size]))
    for lead in range(s):
        for digits in itertools.product(range(q), repeat=s - 1 - lead):
            head, weight = rest[lead], 1
            for row, c in zip(rest[lead + 1:s], digits):
                if c:
                    head = add(head, kern.mul(c, row))
                    weight += 1
            best = min(best, weight + least(add(tail, head[:, None]), tail_weight))
    return best


def low_weight_min_weight(code):
    """Second route to the witness scan: the least weight over the messages
    of weight 1 and 2 whose first nonzero digit is 1, each word G_i + c * G_j
    formed in full with the kernel's add, one pair at a time."""
    kern = _kernel(code.field)
    gen = code.matrix
    scalars = np.arange(1, code.field.order)
    best = int(np.count_nonzero(gen, axis=1).min())
    for i, j in itertools.combinations(range(code.k), 2):
        words = kern.add(gen[i][None, :], kern.mul(scalars[:, None], gen[j][None, :]))
        best = min(best, int(np.count_nonzero(words, axis=1).min()))
    return best


def product_is_dual(code, other):
    """Second route to duality: G * H^T = 0 and k + k_H = n, the check that
    the comparison with the canonical form of the dual replaced."""
    return (not _kernel(code.field).dot_t(code.matrix, other.matrix).any()
            and code.k + other.k == code.n)


def product_is_self_orthogonal(code):
    return not _kernel(code.field).dot_t(code.matrix, code.matrix).any()


def stacked_nullspace_hull(code):
    """Second route: the hull as the kernel of C-dual stacked on C.

    This is the route the Gram-matrix hull replaced: two nullspaces over all
    n columns, where the Gram route solves a k x k system.
    """
    kern = _kernel(code.field)
    gen = code.matrix
    basis = kern.nullspace(np.vstack([kern.nullspace(gen), gen]))
    return codes._code_from_packed(code.field, basis, code.column_labels)


def _pretty_rows(code):
    return [[format_element_pretty(x) for x in row] for row in code.generator]


def test_build_code_golden_matrix(h2):
    from kummer_lcd.codes import evaluation_matrix
    from kummer_lcd.functions import riemann_roch_basis
    from kummer_lcd.reference_checks import (HERMITIAN_Q2_COLUMNS,
                                             HERMITIAN_Q2_G_TABLE,
                                             _golden_places,
                                             _hermitian_q2_functions)
    places = _golden_places(h2, HERMITIAN_Q2_COLUMNS)
    fns = _hermitian_q2_functions(h2)
    rows = evaluation_matrix(h2, [fns[n] for n, _ in HERMITIAN_Q2_G_TABLE], places)
    printed = [[format_element_pretty(h2.field.unpack(v)) for v in row]
               for row in rows.tolist()]
    assert printed == [row for _, row in HERMITIAN_Q2_G_TABLE]
    # the same rows span C(D, G)
    G = parse_divisor(h2, "3*Pinf+1*P1")
    code = build_code(h2, places, G)
    assert code.k == 4
    assert LinearCode.from_rows(h2.field, rows, places).generator == code.generator


def test_build_code_second_table(h2):
    from kummer_lcd.codes import evaluation_matrix
    from kummer_lcd.reference_checks import (HERMITIAN_Q2_COLUMNS,
                                             HERMITIAN_Q2_H_TABLE,
                                             _golden_places,
                                             _hermitian_q2_functions)
    places = _golden_places(h2, HERMITIAN_Q2_COLUMNS)
    fns = _hermitian_q2_functions(h2)
    rows = evaluation_matrix(h2, [fns[n] for n, _ in HERMITIAN_Q2_H_TABLE], places)
    printed = [[format_element_pretty(h2.field.unpack(v)) for v in row]
               for row in rows.tolist()]
    assert printed == [row for _, row in HERMITIAN_Q2_H_TABLE]


def per_point_basis(curve, G):
    """Second route for riemann_roch_basis: the monomials of G's ramified and
    infinite part from the floor formulas, then each simple zero imposed by
    one elimination step over FunctionElements, point by point. This is the
    elimination the shared row reduction of the monomial values replaced."""
    m, r = curve.m, curve.r
    ram = [G[Place.ramified(i)] for i in range(1, r + 1)]
    functions = []
    for t in range(m):
        n_t = [(c + t) // m for c in ram]
        for k in range(sum(n_t) + (G[Place.infinity()] - r * t) // m + 1):
            functions.append(FunctionElement.monomial(
                curve, t, alpha_exps=[-n for n in n_t], y_poly=[0] * k + [1]))
    for point in sorted((P for P in G.support if P.kind == AFFINE),
                        key=lambda P: P.sort_key()):
        values = [f.evaluate(point) for f in functions]
        pivot = next((i for i, v in enumerate(values) if not v.is_zero()), None)
        if pivot is None:
            continue
        inv = values[pivot].inverse()
        functions = [f if values[i].is_zero() else f - (values[i] * inv) * functions[pivot]
                     for i, f in enumerate(functions) if i != pivot]
    return tuple(functions)


def assert_matches_function_route(curve, places, G):
    """build_code against the second route: the FunctionElement basis of
    riemann_roch_basis, evaluated by evaluation_matrix and row reduced."""
    code = build_code(curve, places, G)
    basis = riemann_roch_basis(curve, G)
    other = LinearCode.from_rows(curve.field,
                                 evaluation_matrix(curve, basis.functions, places), places)
    label = (curve.label, format_divisor(G))
    assert code == other, label
    assert code.k == other.k == basis.dimension, label


def test_direct_basis_matches_function_route_one_point(family):
    # every one-point G with -1 <= deg G < n, at Pinf and at each ramified place
    for curve in family:
        places = curve.affine_places()
        for P in (Place.infinity(),) + curve.ramified_places():
            for degree in range(-1, len(places)):
                assert_matches_function_route(curve, places, Divisor.of(P, degree))


def test_direct_basis_matches_function_route_with_simple_zeros(family):
    rng = random.Random(7)
    for curve in family:
        affine = curve.affine_places()
        for zeros in (1, 2, 3):
            for _ in range(4):
                picked = rng.sample(affine, zeros)
                places = [p for p in affine if p not in picked]
                ram = [rng.randint(-curve.m, 2 * curve.m) for _ in range(curve.r)]
                degree = rng.randint(-1, len(places) - 1)
                coeffs = {p: -1 for p in picked}
                coeffs.update({Place.ramified(i): c for i, c in enumerate(ram, start=1)})
                coeffs[Place.infinity()] = degree + zeros - sum(ram)
                assert_matches_function_route(curve, places, Divisor(coeffs))
                G = Divisor(coeffs)
                assert riemann_roch_basis(curve, G).functions == per_point_basis(curve, G)


@st.composite
def curves_with_divisor_and_zeros(draw):
    """A drawn case with 0-3 affine places moved from D into G as simple zeros."""
    curve, G = draw(curves_with_divisor())
    affine = curve.affine_places()
    picked = draw(st.lists(st.sampled_from(affine), max_size=3, unique=True))
    places = [p for p in affine if p not in picked]
    return curve, places, G - Divisor({p: 1 for p in picked})


@SETTINGS
@given(curves_with_divisor_and_zeros())
def test_direct_basis_matches_function_route_on_drawn_curves(case):
    assert_matches_function_route(*case)
    curve, _, G = case
    assert riemann_roch_basis(curve, G).functions == per_point_basis(curve, G)


def test_build_code_repetition(h2):
    code = build_code(h2, h2.standard_D(), Divisor.zero())
    assert (code.n, code.k) == (6, 1)
    assert all(x == h2.field.one for x in code.generator[0])
    assert min_distance(code).d == 6


def test_build_code_rejections(h2):
    D = h2.standard_D()
    with pytest.raises(ValueError):
        build_code(h2, D, Divisor.of(D.support[0], 0) + parse_divisor(h2, "7*Pinf"))
    with pytest.raises(ValueError):
        build_code(h2, D, Divisor.of(D.support[0], -1) + parse_divisor(h2, "3*Pinf"))
    with pytest.raises(ValueError):
        build_code(h2, Divisor.of(Place.ramified(1)), Divisor.zero())


def test_build_code_names_an_off_curve_place(h2):
    places, G = h2.standard_D().support, parse_divisor(h2, "3*Pinf")
    off_curve = Place.affine(h2.field.one, h2.field.one)
    with pytest.raises(ValueError) as err:
        build_code(h2, places[:2] + (off_curve,) + places[2:], G)
    assert str(err.value) == "P([1,0],[1,0]) does not lie on hermitian-q2"


def test_build_code_refuses_an_affine_place_with_a_zero(h2):
    # Place.affine refuses a = 0; the constructor does not check it
    places = h2.standard_D().support
    zero_a = Place(AFFINE, a=h2.field.zero, b=places[0].b)
    with pytest.raises(ValueError) as err:
        build_code(h2, places[:3] + (zero_a,), parse_divisor(h2, "2*Pinf"))
    assert str(err.value) == "P([0,0],[0,1]) does not lie on hermitian-q2"


def test_build_code_refuses_g_overlapping_d(h2):
    places, G = h2.standard_D().support, parse_divisor(h2, "3*Pinf")
    off_curve = Place.affine(h2.field.one, h2.field.one)
    overlap = "supports of G and D must be disjoint"
    with pytest.raises(ValueError, match=overlap):
        build_code(h2, h2.standard_D(), G - Divisor.of(places[2]))
    # the first failing place of D decides the message
    with pytest.raises(ValueError, match=overlap):
        build_code(h2, (places[0], off_curve) + places[1:], G - Divisor.of(places[0]))
    with pytest.raises(ValueError, match="does not lie on"):
        build_code(h2, (places[0], off_curve) + places[1:], G - Divisor.of(places[2]))
    with pytest.raises(ValueError, match="does not lie on"):
        build_code(h2, (places[0], off_curve) + places[1:], G + Divisor.of(off_curve))


def test_standard_D_is_one_divisor_on_the_curves_own_places(h3):
    D, places = h3.standard_D(), h3.affine_places()
    assert D is h3.standard_D() and places is h3.affine_places()
    assert D.support == places == h3.rational_points()[h3.r + 1:]
    assert all(D[p] == 1 for p in places) and D.degree == len(places)
    # the logs kept with the curve are those of any sequence of the same places
    kept, fresh = h3.place_logs(places), h3.place_logs(list(places))
    assert kept is h3.place_logs(places) and len(kept) == len(fresh) == 3
    assert not any(x.flags.writeable for x in kept)
    assert all(np.array_equal(x, y) for x, y in zip(kept, fresh))


@pytest.mark.parametrize("name, G_text", [
    ("hermitian-q3", "10*Pinf"), ("hermitian-q4", "8*P1+9*P2+7*P3+4*P4+2*Pinf"),
    ("curve1-q4", "4*Pinf+12*P1-1*P2"), ("hermitian-q2", "0")])
def test_a_place_sequence_equal_to_the_standard_D_gives_an_equal_code(name, G_text):
    curve = builtin_curve(name)
    G, places = parse_divisor(curve, G_text), curve.affine_places()
    want = build_code(curve, curve.standard_D(), G)
    for D in (places, list(places), Divisor({p: 1 for p in places})):
        got = build_code(curve, D, G)
        assert got == want and got.provenance.D == curve.standard_D()
        assert got.column_labels == places


def test_an_explicit_D_lists_no_points():
    # the standard D is recognised by identity, so a curve whose points were
    # never listed is not made to list them by a D of a few of its places
    curve = hermitian_curve(3)
    elements = curve.field.elements()
    places = [Place.affine(a, b) for a in elements[1:3] for b in elements
              if curve.is_on_curve(a, b)]
    assert len(places) == 6
    code = build_code(curve, places, parse_divisor(curve, "3*Pinf"))
    rows = evaluation_matrix(curve, riemann_roch_basis(curve, Divisor.of(Place.infinity(), 3))
                             .functions, places)
    assert code == LinearCode.from_rows(curve.field, rows, places)
    assert not curve.is_standard_D(places) and "_points" not in vars(curve)
    assert curve.is_standard_D(curve.standard_D()) and curve.is_standard_D(curve.affine_places())


def test_no_D_is_refused_whether_or_not_the_standard_D_was_built():
    # before the standard D is built, its cache is absent: None is not taken for it
    G = Divisor.of(Place.infinity(), 5)
    for build_first in (False, True):
        curve = hermitian_curve(3)
        if build_first:
            curve.standard_D()
        assert not curve.is_standard_D(None)
        functions = riemann_roch_basis(curve, G).functions
        with pytest.raises(TypeError):
            build_code(curve, None, G)
        with pytest.raises(TypeError):
            evaluation_matrix(curve, functions, None)
        assert ("_points" in vars(curve)) == build_first


def test_place_logs_refuse_a_place_that_is_not_affine(h2):
    affine = h2.affine_places()
    for places in ([Place.infinity()], [affine[0], Place.ramified(1)]):
        with pytest.raises(ValueError, match="evaluation is defined at affine places only"):
            h2.place_logs(places)


def test_the_standard_D_refuses_what_a_place_sequence_refuses(h2):
    D, G, places = h2.standard_D(), parse_divisor(h2, "3*Pinf"), h2.affine_places()
    off_curve = Place.affine(h2.field.one, h2.field.one)
    cases = [
        # an overlap decides before the degree: deg G = 8 >= n = 6 here
        (G + parse_divisor(h2, "6*Pinf") - Divisor.of(places[4]),
         "supports of G and D must be disjoint"),
        (G - Divisor.of(places[0]) - Divisor.of(places[5]), "supports of G and D must be disjoint"),
        (G + Divisor.of(places[3], 2), "supports of G and D must be disjoint"),
        # an off-curve simple zero meets no place of D: the basis refuses it
        (G - Divisor.of(off_curve), "P([1,0],[1,0]) does not lie on hermitian-q2"),
        (G + Divisor.of(off_curve, 2), "affine coefficients other than -1 are not supported "
                                       "(got 2 at P([1,0],[1,0]))"),
        (G + parse_divisor(h2, "3*Pinf"), "deg G = 6 must be below n = 6"),
    ]
    for bad, message in cases:
        for same in (D, places, list(places), Divisor({p: 1 for p in places})):
            with pytest.raises(ValueError) as err:
                build_code(h2, same, bad)
            assert str(err.value) == message, (bad, same)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_off_curve_indices_match_is_on_curve(q):
    # every (a, b) of the field, a = 0 included, against prod_i (b - alpha_i)
    # formed in FieldElement arithmetic
    curve = hermitian_curve(q)
    elements = curve.field.elements()
    on = [(a, b) for a in elements for b in elements if curve.is_on_curve(a, b)]
    want = [(a, b) for a in elements for b in elements
            if a and math.prod(b - alpha for alpha in curve.alphas) == a ** curve.m]
    assert on == want
    assert on == [(p.a, p.b) for p in curve.affine_places()]


def test_exponents_past_int64_give_the_code_of_their_residues(h4):
    # 5N*P1 - 5N*P2 is the divisor of h^N, h = (y - alpha_1) / (y - alpha_2),
    # and h^15 = 1 on D, so N and N mod 15 give the same code
    D = h4.standard_D()
    for N in (2 ** 61 + 7, 2 ** 59 + 3, 2 ** 64 + 1):
        G, residue = (parse_divisor(h4, f"{5 * e}*P1-{5 * e}*P2+10*Pinf")
                      for e in (N, N % 15))
        assert build_code(h4, D, G) == build_code(h4, D, residue)


@SETTINGS
@given(curves_with_divisor(), st.integers(0, 2 ** 70))
def test_a_principal_shift_past_int64_leaves_the_code(case, extra):
    # N m (P1 - P2) is the divisor of h^N, h = (y - alpha_1) / (y - alpha_2),
    # and h^N is 1 at every affine place once (q - 1) | N
    curve, G = case
    assume(curve.r >= 2)
    shift = (curve.field.units * (2 ** 63 + extra)) * curve.m
    shifted = G + Divisor({Place.ramified(1): shift, Place.ramified(2): -shift})
    D = curve.standard_D()
    assert build_code(curve, D, shifted) == build_code(curve, D, G)


def test_build_code_length_cap(h2, monkeypatch):
    D, G = h2.standard_D(), parse_divisor(h2, "3*Pinf")
    assert D.degree == 6
    monkeypatch.setattr(codes, "MAX_CODE_LENGTH", 6)
    assert build_code(h2, D, G).n == 6
    monkeypatch.setattr(codes, "MAX_CODE_LENGTH", 5)
    with pytest.raises(ValueError, match="n = 6 .* MAX_CODE_LENGTH = 5"):
        build_code(h2, D, G)
    # refused before any place is checked: an off-curve place gives the same error
    off_curve = Place.affine(h2.field.one, h2.field.one)
    with pytest.raises(ValueError, match="MAX_CODE_LENGTH"):
        build_code(h2, D.support + (off_curve,), G)


def test_from_rows_takes_packed_elements_in_range(h2):
    spec, places = h2.field, h2.affine_places()[:3]
    code = LinearCode.from_rows(spec, [[0, 1, 3], [0, 2, 2]], places)
    assert code.matrix.tolist() == [[0, 1, 0], [0, 0, 1]]
    # the row is scaled by the inverse of its leading entry
    lead = spec.unpack(3)
    code = LinearCode.from_rows(spec, np.array([[3, 2, 1]]), places)
    assert code.matrix.tolist() == [[1, (spec.unpack(2) / lead).n, (spec.one / lead).n]]
    empty = LinearCode.from_rows(spec, [], places)
    assert (empty.k, empty.n) == (0, 3)
    for rows in ([[0, 1, -1]], [[0, 4, 1]], np.array([[0, 1, 2]]) - 3,
                 [[spec.one, spec.zero, spec.one]], [[0.0, 1.0, 1.0]]):
        with pytest.raises(ValueError, match="packed elements"):
            LinearCode.from_rows(spec, rows, places)
    with pytest.raises(ValueError, match="row length"):
        LinearCode.from_rows(spec, [[0, 1]], places)


def test_code_equality_is_field_labels_and_matrix(h2):
    D = h2.standard_D()
    built = build_code(h2, D, parse_divisor(h2, "3*Pinf+1*P1"))
    bare = LinearCode.from_rows(h2.field, built.matrix, D.support)
    assert built.provenance is not None and bare.provenance is None
    assert bare == built and hash(bare) == hash(built)
    assert not built.matrix.flags.writeable
    assert built.generator == tuple(tuple(map(h2.field.unpack, row))
                                    for row in built.matrix.tolist())
    assert built.generator is built.generator
    relabelled = LinearCode.from_rows(h2.field, built.matrix, D.support[::-1])
    assert relabelled != built and relabelled.generator == built.generator
    # an RREF matrix with entries below 4 stays the same over GF(8)
    wider = LinearCode.from_rows(GF(8), built.matrix, D.support)
    assert np.array_equal(wider.matrix, built.matrix) and wider != built
    assert dual(built) != built and built != "C(D, G)"


def test_every_route_gives_a_read_only_packed_matrix(h2):
    # __hash__ hashes matrix.tobytes(), so equal codes hash alike only while
    # every route stores the same element width
    spec, D = h2.field, h2.standard_D()
    built = build_code(h2, D, parse_divisor(h2, "3*Pinf+1*P1"))
    # the code again, from unreduced rows: row 0 plus row 1, then row 1 times 2
    rows = built.matrix.tolist()
    rows[0] = [(x + y).n for x, y in zip(built.generator[0], built.generator[1])]
    rows[1] = [(spec.unpack(2) * x).n for x in built.generator[1]]
    small = hull(build_code(h2, D, parse_divisor(h2, "3*Pinf")))
    scaled = [[(spec.unpack(3) * x).n for x in small.generator[0]]]
    full = [[int(i == j) for j in range(D.degree)] for i in range(D.degree)]
    same = [
        [built, LinearCode.from_rows(spec, rows, D.support), dual(dual(built))]
        + [LinearCode.from_rows(spec, np.array(rows, dtype=t), D.support)
           for t in (np.int64, np.uint8)],
        [dual(built), build_code(h2, D, parse_divisor(h2, "1*P1+2*P2-1*Pinf"))],
        [small, LinearCode.from_rows(spec, np.array(scaled, dtype=np.uint8), D.support)],
        [dual(LinearCode.from_rows(spec, full, D.support)),
         LinearCode.from_rows(spec, [], D.support), hull(dual(built))],
    ]
    assert _kernel(spec).dtype == np.uint8
    for group in same:
        for code in group:
            assert code.matrix.dtype == _kernel(spec).dtype and not code.matrix.flags.writeable
            assert code == group[0] and hash(code) == hash(group[0])


def test_dual_dimensions_and_involution(h2):
    D = h2.standard_D()
    C = build_code(h2, D, parse_divisor(h2, "3*Pinf+1*P1"))
    Cd = dual(C)
    assert (C.k, Cd.k) == (4, 2)
    assert dual(Cd).generator == C.generator
    CH = build_code(h2, D, parse_divisor(h2, "1*P1+2*P2-1*Pinf"))
    assert Cd.generator == CH.generator


def test_dual_of_full_space(h2):
    D = h2.standard_D()
    full = LinearCode.from_rows(
        h2.field,
        [[h2.field.one.n if i == j else h2.field.zero.n for j in range(6)] for i in range(6)],
        D.support)
    z = dual(full)
    assert z.k == 0
    assert hull(z).k == 0
    assert dual(z).k == 6


def test_codes_pickle_with_their_arrays(h3):
    # a dual and a hull build their arrays on first read; a pickled code
    # carries its array and comes back equal, read-only
    code = build_code(h3, h3.standard_D(), Divisor.of(Place.infinity(), 20))
    for original in (code, dual(code), hull(code)):
        copy = pickle.loads(pickle.dumps(original))
        assert copy == original and copy.k == original.k
        assert copy.provenance == original.provenance and not copy.matrix.flags.writeable


def test_hull_examples(h2, c1):
    D = h2.standard_D()
    C = build_code(h2, D, parse_divisor(h2, "3*Pinf+1*P1"))
    assert hull(C).k == 0
    assert is_lcd(C)
    CG = build_code(c1, c1.standard_D(), parse_divisor(c1, "4*Pinf+12*P1-1*P2"))
    CH = build_code(c1, c1.standard_D(), parse_divisor(c1, "2*P1+15*P2"))
    assert CG.k + CH.k == 30
    assert dual(CG).generator == CH.generator


def test_hull_two_routes_agree(h2, h3):
    rng = random.Random(5)
    for curve in (h2, h3):
        n = curve.standard_D().degree
        for alpha in range(1, min(n, 8)):
            C = build_code(curve, curve.standard_D(),
                           Divisor.of(Place.infinity(), alpha))
            assert hull(C).k == hull_dimension_by_rank(C)


def test_gram_hull_matches_stacked_route_on_bundled_curves(family):
    # every one-point G with deg G < n, from the zero code (deg G = -1) up
    for curve in family:
        D = curve.standard_D()
        for degree in range(-1, D.degree):
            code = build_code(curve, D, Divisor.of(Place.infinity(), degree))
            assert hull(code) == stacked_nullspace_hull(code), (curve.label, degree)


def test_hull_is_computed_once_per_code(h2):
    D, G = h2.standard_D(), parse_divisor(h2, "3*Pinf")
    code = build_code(h2, D, G)
    first = hull(code)
    assert hull(code) is first and first.k == 1
    assert first == stacked_nullspace_hull(code)
    assert not first.matrix.flags.writeable
    with pytest.raises(ValueError):
        first.matrix[0, 0] = 0
    again = build_code(h2, D, G)
    assert again is not code and again == code
    assert hull(again) is not first and hull(again) == first


def test_gram_hull_edge_cases(h3):
    spec, places = h3.field, h3.affine_places()[:7]
    one, zero = spec.one.n, spec.zero.n
    empty = build_code(h3, h3.standard_D(), Divisor.of(Place.infinity(), -1))
    assert empty.k == 0 and hull(empty) == stacked_nullspace_hull(empty)
    assert hull(empty).k == 0 and hull(empty).n == 24
    full = LinearCode.from_rows(
        spec, [[one if i == j else zero for j in range(7)] for i in range(7)], places)
    assert full.k == 7 and hull(full).k == 0
    assert hull(full) == stacked_nullspace_hull(full)
    # 1 + 1 + 1 = 0 in characteristic 3, and the two rows share no support
    rows = [[one, one, one, zero, zero, zero, zero],
            [zero, zero, zero, one, one, one, zero]]
    self_orth = LinearCode.from_rows(spec, rows, places)
    assert is_self_orthogonal(self_orth)
    assert hull(self_orth) == self_orth == stacked_nullspace_hull(self_orth)


@SETTINGS
@given(curves_with_divisor())
def test_gram_hull_matches_stacked_route_on_drawn_curves(case):
    curve, G = case
    code = build_code(curve, curve.standard_D(), G)
    assert hull(code) == stacked_nullspace_hull(code)


def test_self_orthogonal_toy_code(h2):
    spec = h2.field
    one, zero = spec.one.n, spec.zero.n
    rows = [[one, zero, one, zero], [zero, one, zero, one]]
    labels = h2.affine_places()[:4]
    C = LinearCode.from_rows(spec, rows, labels)
    assert is_self_orthogonal(C)
    assert hull(C).generator == C.generator
    assert hull(C).k == C.k


@SETTINGS
@given(curves_with_divisor())
def test_self_orthogonality_matches_the_product(case):
    curve, G = case
    code = build_code(curve, curve.standard_D(), G)
    assert is_self_orthogonal(hull(code)) and product_is_self_orthogonal(hull(code))
    for c in (code, dual(code)):
        assert is_self_orthogonal(c) == product_is_self_orthogonal(c)


def hull_report(curve, G, H):
    D = curve.standard_D()
    return verify_hull_theorem(build_code(curve, D, G), build_code(curve, D, H))


def test_verify_hull_theorem_hermitian(h2):
    report = hull_report(h2, parse_divisor(h2, "3*Pinf+1*P1"),
                         parse_divisor(h2, "1*P1+2*P2-1*Pinf"))
    assert report["hull_trivial"] and report["gcd_degree"] == 0
    assert report["gcd_degree_is_g_minus_1"] and report["gcd_nonspecial"]
    assert report["hull_matches_gcd_code"]


def test_verify_hull_theorem_example1(c1):
    report = hull_report(c1, parse_divisor(c1, "4*Pinf+12*P1-1*P2"),
                         parse_divisor(c1, "2*P1+15*P2"))
    assert report["gcd"] == "2*P1-1*P2"
    assert report["gcd_degree"] == c1.genus - 1
    assert report["hull_trivial"]


def test_verify_hull_theorem_nontrivial_hull(h2):
    # one-point divisor in the window: the hull equals C(D, gcd) with gcd
    # of nonnegative degree, exercising the non-LCD branch
    G = Divisor.of(Place.infinity(), 1)
    H = dual_partner_divisor(h2, G)
    report = hull_report(h2, G, H)
    assert report["gcd_nonspecial"]
    assert report["hull_dimension"] == 1
    assert report["hull_matches_gcd_code"]


def test_verify_hull_theorem_wrong_partner(h2):
    with pytest.raises(ValueError, match="wrong partner divisor"):
        hull_report(h2, parse_divisor(h2, "3*Pinf+1*P1"), parse_divisor(h2, "1*P1+2*P2"))
    # the dual of a built code has no provenance to read G or H off
    code = build_code(h2, h2.standard_D(), parse_divisor(h2, "3*Pinf+1*P1"))
    with pytest.raises(ValueError, match="both codes must come from build_code"):
        verify_hull_theorem(code, dual(code))


def test_duality_routes_agree_on_construction_partners(h2, h3, h4, c1, c2):
    # H = K - G is the dual; H - Pinf is a subcode of it, one dimension
    # short, and H - Pinf + P1 has its dimension but is not orthogonal
    inf, P1 = Divisor.of(Place.infinity()), Divisor.of(Place.ramified(1))
    checked = Counter()
    for kind, curve in (("hermitian", h2), ("hermitian", h3), ("hermitian", h4),
                        ("curve1", c1), ("curve2", c2)):
        D = curve.standard_D()
        for G in construction_divisors(kind, curve):
            code = build_code(curve, D, G)
            H = dual_partner_divisor(curve, G)
            for name, partner in (("H", H), ("H-Pinf", H - inf), ("H-Pinf+P1", H - inf + P1)):
                if not 0 <= partner.degree < D.degree:
                    continue
                code_H = build_code(curve, D, partner)
                want, where = name == "H", (curve.label, format_divisor(G), name)
                assert (dual(code) == code_H) is want, where
                assert product_is_dual(code, code_H) is want, where
                checked[name] += 1
    assert checked == {"H": 8, "H-Pinf": 8, "H-Pinf+P1": 8}


@SETTINGS
@given(curves_with_divisor(), st.data())
def test_duality_routes_agree_on_drawn_curves(case, data):
    curve, G = case
    D = curve.standard_D()
    code = build_code(curve, D, G)
    other = build_code(curve, D, data.draw(divisors(curve)))
    partner = dual(code)
    assert dual(code) == partner and product_is_dual(code, partner)
    assert (dual(code) == other) == product_is_dual(code, other)


@pytest.mark.parametrize("shift", ["move", "drop"])
def test_a_wrong_partner_certificate_reports_no_duality(h3, monkeypatch, shift):
    # move one unit of H from Pinf to P1 (same k_H, not orthogonal), or drop
    # one unit at Pinf (k_H one short); both codes are still built
    inf, P1 = Divisor.of(Place.infinity()), Divisor.of(Place.ramified(1))
    wrong = codes._partner_total(h3) - inf + (P1 if shift == "move" else Divisor.zero())
    constructions = construction_divisors("hermitian", h3)
    monkeypatch.setattr(codes, "_partner_total", lambda curve: wrong)
    build = codes.build_code
    built = []

    def recorded(curve, D, G):
        built.append(G)
        return build(curve, D, G)

    monkeypatch.setattr(codes, "build_code", recorded)
    for G in constructions:
        built.clear()
        code, cert = lcd_construct_maxcur(h3, G)
        assert cert.H == wrong - G and built == [G, cert.H]
        code_H = build(h3, h3.standard_D(), cert.H)
        assert code_H.k == code.n - code.k - (shift == "drop")
        assert cert.checks["duality_verified"] is False and cert.lcd is False
        assert cert.checks["hull_trivial"]


def test_dual_partner_examples(h2, c1):
    G = parse_divisor(h2, "3*Pinf+1*P1")
    H = dual_partner_divisor(h2, G)
    assert H == parse_divisor(h2, "1*P1+2*P2-1*Pinf")
    assert dual_partner_divisor(h2, H) == G
    G1 = parse_divisor(c1, "4*Pinf+12*P1-1*P2")
    assert dual_partner_divisor(c1, G1) == parse_divisor(c1, "2*P1+15*P2")


def test_dual_partner_family_check(nt, h2):
    assert maxcur_family_check(h2) == "maximal"
    assert maxcur_family_check(nt) is None  # GF(8) is not a square order
    with pytest.raises(ValueError):
        dual_partner_divisor(nt, Divisor.zero())


def test_a_certificate_runs_the_family_check_once(h3, monkeypatch):
    calls = []
    check = codes.maxcur_family_check

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(codes, "maxcur_family_check", counted)
    G = construction_divisors("hermitian", h3)[0]
    code, cert = lcd_construct_maxcur(h3, G)
    assert cert.lcd and len(calls) == 1
    # the public partner keeps its own check
    assert codes.dual_partner_divisor(h3, G) == cert.H and len(calls) == 2
    # an affine place in G is refused with the same message on both routes
    affine = G + Divisor.of(h3.affine_places()[0])
    for route in (lcd_construct_maxcur, codes.dual_partner_divisor):
        with pytest.raises(ValueError) as err:
            route(h3, affine)
        assert str(err.value) == "G must be supported on ramified places and Pinf"


def test_lcd_construct_curve1(c1):
    (G,) = construction_divisors("curve1", c1)
    assert G == parse_divisor(c1, "2*P1+15*P2")
    code, cert = lcd_construct_maxcur(c1, G)
    assert code.k == 16 and cert.lcd and cert.family == "maximal"
    assert cert.gcdGH == parse_divisor(c1, "2*P1-1*P2")


def test_lcd_construct_curve2(c2):
    (G,) = construction_divisors("curve2", c2)
    assert G == parse_divisor(c2, "4*P1+9*Pinf")
    code, cert = lcd_construct_maxcur(c2, G)
    assert (code.n, code.k) == (126, 10)
    assert cert.lcd
    assert cert.gcdGH == parse_divisor(c2, "4*P1-1*Pinf")


@pytest.mark.parametrize("q", [2, 3, 4])
def test_lcd_construct_hermitian_corollary(q, request):
    curve = {2: "h2", 3: "h3", 4: "h4"}[q]
    curve = request.getfixturevalue(curve)
    for G in construction_divisors("hermitian", curve):
        code, cert = lcd_construct_maxcur(curve, G)
        assert code.k == q * q
        assert cert.lcd


def table_divisors(kind, q, r=None):
    """Second route: the per-construction formulas the rule replaced.

    hermitian: sum_{i<q} i P_i + (q^2 - 1) P, P = P_q or Pinf. curve1: 2j
    multiplicities and q^2 - 1 on P_{q/2}. curve2: q^(r-1) j multiplicities
    and (q^r + 1)(q - 1) at Pinf.
    """
    if kind == "hermitian":
        base = Divisor({Place.ramified(i): i for i in range(1, q)})
        return [base + Divisor.of(Place.ramified(q), q * q - 1),
                base + Divisor.of(Place.infinity(), q * q - 1)]
    if kind == "curve1":
        G = Divisor({Place.ramified(j): 2 * j for j in range(1, (q - 2) // 2 + 1)})
        return [G + Divisor.of(Place.ramified(q // 2), q * q - 1)]
    G = Divisor({Place.ramified(j): q ** (r - 1) * j for j in range(1, q)})
    return [G + Divisor.of(Place.infinity(), (q ** r + 1) * (q - 1))]


@pytest.mark.parametrize("kind,name,q,r", [
    *(("hermitian", f"hermitian-q{q}", q, None) for q in (2, 3, 4, 5, 7, 8, 9)),
    ("curve1", "curve1-q4", 4, None), ("curve1", "curve1-q8", 8, None),
    *(("curve2", f"curve2-q{q}-r3", q, 3) for q in (2, 3, 4))])
def test_construction_rule_reproduces_the_formulas(kind, name, q, r):
    curve = builtin_curve(name)
    divisors = construction_divisors(kind, curve)
    assert divisors == table_divisors(kind, q, r)
    A = nonspecial_degree_g(curve)
    for G in divisors:
        (P,) = [P for P in G.support if G[P] != A[P]]
        assert gcd_divisor(G, dual_partner_divisor(curve, G)) == A - Divisor.of(P)


def test_construction_divisors_refuses_an_unknown_kind(h2):
    with pytest.raises(ValueError, match="unknown construction 'curve3'"):
        construction_divisors("curve3", h2)


def test_lcd_construct_remark_family():
    # y^2 + y = x^27 over GF(64): 129 points is the Lewittes count 2*64 + 1,
    # inside the window Q+1 <= m <= Q^2/2 - gcd(2,Q) + 1 but not maximal-form
    from kummer_lcd import GF, KummerCurve, nonspecial_degree_g
    curve = KummerCurve(GF(64), [0, 1], 27, label="remark-m27")
    assert len(curve.rational_points()) == 129 and curve.genus == 13
    assert maxcur_family_check(curve) is None
    assert maxcur_family_check(curve, allow_remark_family=True) == "lewittes-remark"
    G = nonspecial_degree_g(curve) + Divisor.of(Place.infinity(), 27)
    code, cert = lcd_construct_maxcur(curve, G, allow_remark_family=True)
    assert cert.lcd and cert.family == "lewittes-remark"
    assert (code.n, code.k) == (126, 28)
    # without the flag the family hypothesis fails and nothing is asserted
    code, cert = lcd_construct_maxcur(curve, G)
    assert code is None and not cert.lcd
    assert cert.checks == {"family_supported": False}


def test_lcd_construct_failing_hypothesis_flags(h2):
    # deg G above the window: no exception, certificate carries the failure
    G = parse_divisor(h2, "5*P1+1*P2")  # deg 6 = n
    code, cert = lcd_construct_maxcur(h2, G)
    assert not cert.lcd
    assert not cert.checks["degree_window"]


@pytest.mark.parametrize("G_text, k", [("3*Pinf", 2), ("0*Pinf", 1), ("-1*Pinf", None)])
def test_lcd_construct_partner_above_the_length_is_a_false_flag(h3, G_text, k):
    # deg G <= 2g - 2 = 4 puts deg H = 2g - 2 + n - deg G at n = 24 or above:
    # C(D, H) is not built, and C(D, G) only when 0 <= deg G
    G = parse_divisor(h3, G_text)
    code, cert = lcd_construct_maxcur(h3, G)
    assert cert.H.degree >= 24 and not cert.lcd
    assert (code.k if code else None) == k
    assert not any(cert.checks[name] for name in
                   ("degree_window", "duality_verified", "hull_trivial"))


def test_dimension_law_over_recipe(family):
    for curve in family:
        A = nonspecial_degree_g(curve)
        n = curve.standard_D().degree
        g = curve.genus
        for extra in (g - 1, g + 1, min(2 * g + 3, n - 1 - g)):
            G = A + Divisor.of(Place.infinity(), extra)
            if 2 * g - 2 < G.degree < n:
                code = build_code(curve, curve.standard_D(), G)
                assert code.k == G.degree + 1 - g


def test_min_distance_frozen_values(h2):
    # brute-force oracle over all messages fixed these values: 2 and 4
    D = h2.standard_D()
    C = build_code(h2, D, parse_divisor(h2, "3*Pinf+1*P1"))
    CH = build_code(h2, D, parse_divisor(h2, "1*P1+2*P2-1*Pinf"))
    rC, rH = min_distance(C), min_distance(CH)
    assert (rC.d, rC.exact, rC.designed_bound) == (2, True, 2)
    assert (rH.d, rH.exact, rH.designed_bound) == (4, True, 4)
    assert rC.d + rH.d == 6


def test_min_distance_brute_oracle(h2):
    # independent enumeration over message tuples, field-element arithmetic
    D = h2.standard_D()
    CH = build_code(h2, D, parse_divisor(h2, "1*P1+2*P2-1*Pinf"))
    els = h2.field.elements()
    best = None
    for msg in itertools.product(els, repeat=CH.k):
        if all(x.is_zero() for x in msg):
            continue
        word = [sum((m * CH.generator[i][j] for i, m in enumerate(msg)),
                    h2.field.zero) for j in range(CH.n)]
        w = sum(1 for x in word if not x.is_zero())
        best = w if best is None else min(best, w)
    assert best == min_distance(CH).d == 4


def test_min_distance_budget_flag(h2):
    C = build_code(h2, h2.standard_D(), parse_divisor(h2, "3*Pinf+1*P1"))
    res = min_distance(C, budget=4)
    assert res.d is None and not res.exact and res.designed_bound == 2


def test_min_distance_exact_is_read_off_the_route():
    assert "exact" not in {f.name for f in dataclasses.fields(codes.MinDistanceResult)}
    assert codes.MinDistanceResult(d=3, designed_bound=3, route="enumeration").exact
    assert not codes.MinDistanceResult(d=None, designed_bound=3).exact


def test_designed_distance_bound(family):
    for curve in family:
        A = nonspecial_degree_g(curve)
        G = A + Divisor.of(Place.infinity(), curve.genus + 1)
        code = build_code(curve, curve.standard_D(), G)
        res = min_distance(code, budget=1 << 12)
        if res.exact:
            assert res.d >= res.designed_bound


def test_column_permutation_invariance(h2):
    rng = random.Random(23)
    G = parse_divisor(h2, "3*Pinf+1*P1")
    places = list(h2.affine_places())
    base = build_code(h2, places, G)
    shuffled = places[:]
    rng.shuffle(shuffled)
    permuted = build_code(h2, shuffled, G)
    assert permuted.column_labels == tuple(shuffled)
    assert (base.k, min_distance(base).d, hull(base).k) == \
           (permuted.k, min_distance(permuted).d, hull(permuted).k)


def test_one_point_hull_probe(h2):
    assert one_point_hull_probe(h2, 3) >= 1
    assert all(one_point_hull_probe(h2, alpha) > 0 for alpha in range(1, 6))
    assert one_point_hull_probe(h2, 0) in (0, 1)  # repetition code, degenerate


def _small_codes(curve, max_words):
    """C(D, G) for one-point and multi-point G with q^k <= max_words."""
    D = curve.standard_D()
    A = nonspecial_degree_g(curve)
    out = []
    for G in ([Divisor.of(Place.infinity(), a) for a in range(D.degree)]
              + [A + Divisor.of(Place.infinity(), j) for j in range(-1, 3)]):
        if 0 <= G.degree < D.degree:
            k = ell(curve, G)
            if 0 < k and curve.field.order ** k <= max_words:
                out.append(build_code(curve, D, G))
    return out


def _random_codes(q, rng, count=8, max_words=1 << 12):
    """Codes over GF(q) from sparse random rows: varied pivots, zero columns."""
    spec = GF(q)
    elements = spec.elements()
    label = Place.affine(spec.one, spec.one)
    out = []
    while len(out) < count:
        n = rng.randint(1, 14)
        k = rng.randint(1, n)
        rows = [[rng.choice(elements).n if rng.random() < 0.6 else spec.zero.n
                 for _ in range(n)] for _ in range(k)]
        code = LinearCode.from_rows(spec, rows, (label,) * n)
        if 0 < code.k and q ** code.k <= max_words:
            out.append(code)
    return out


def test_min_distance_matches_full_enumeration_on_bundled_curves(family):
    for curve in family:
        small = _small_codes(curve, 1 << 16)
        assert small, curve.label
        for code in small:
            want = full_enumeration_min_weight(code)
            assert min_distance(code).d == codes._min_weight_enum(code) == want, \
                (curve.label, code.provenance.G)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_min_distance_matches_full_enumeration_on_random_codes(q):
    for code in _random_codes(q, random.Random(q)):
        assert min_distance(code).d == full_enumeration_min_weight(code)


@pytest.mark.parametrize("q", [2, 4, 7, 9, 16])
def test_head_loop_matches_full_enumeration(q, monkeypatch, family):
    # a 64-cell cap stops the table early, so most rows are head rows; sums
    # still come from the kernel, whose own table cap is not patched (the
    # digit-wise sum is compared with the table in test_kernels.py)
    monkeypatch.setattr(codes, "_MINDIST_TABLE_CELLS", 64)
    cases = _random_codes(q, random.Random(100 + q), max_words=1 << 14)
    cases += [code for curve in family if curve.field.order == q
              for code in _small_codes(curve, 1 << 14)]
    for code in cases:
        assert min_distance(code).d == codes._min_weight_enum(code) == \
            full_enumeration_min_weight(code)


def _edge_codes(q, rng):
    """Codes over GF(q) with k = 1, with n = k and with zero columns."""
    spec = GF(q)
    label = Place.affine(spec.one, spec.one)

    def code(rows):
        return LinearCode.from_rows(spec, np.array(rows, dtype=np.int64).reshape(len(rows), -1),
                                   (label,) * len(rows[0]))

    def row(n):
        return [rng.randrange(1, q) for _ in range(n)]

    out = [code([row(rng.randint(1, 20))]), code([[0, 0] + row(5) + [0]]),
           code([[1, 0], [0, 1]])]
    # a zero column at each end and inside, on a code of dimension up to 4
    k = max(1, min(4, int(math.log(1 << 14, q))))
    out.append(code([[0] + row(4) + [0] + row(6) + [0] for _ in range(k)]))
    return out


@pytest.mark.parametrize("cap", [None, 64])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 512, 729])
def test_min_distance_matches_the_head_loop(q, cap, monkeypatch):
    # under a 64-cell cap the tail, the head table and each comparison block
    # stop early, so heads meet the tail in several blocks and the rows above
    # the head table run in the Python loop
    if cap is not None:
        monkeypatch.setattr(codes, "_MINDIST_TABLE_CELLS", cap)
    rng = random.Random(9000 + q)
    cases = _edge_codes(q, rng)
    cases += _random_codes(q, rng, count=4, max_words=max(q, 1 << 12))
    assert any(code.k == 1 for code in cases) and any(code.k == code.n for code in cases)
    for code in cases:
        want = head_loop_min_weight(code)
        assert min_distance(code).d == want, (code, code.matrix.tolist())
        if q ** code.k <= 1 << 12:
            assert want == full_enumeration_min_weight(code)


@pytest.mark.parametrize("q", [2, 9])
def test_min_distance_counts_agreements_past_255(q):
    # the weight-1 word agrees with -head on all 298 non-pivot columns, a
    # count that would wrap to 42 in uint8; the other words weigh 299 or 300
    spec = GF(q)
    rows = [[1] + [0] * 299, [0, 1] + [1] * 298]
    code = LinearCode.from_rows(spec, rows, (Place.affine(spec.one, spec.one),) * 300)
    assert code.matrix.tolist() == rows
    assert min_distance(code).d == head_loop_min_weight(code) == 1


def test_min_distance_table_stays_under_the_cap(h3, monkeypatch):
    # uncapped, this [24, 6] code over GF(9) holds 9^4 x 18 table cells; its
    # d = 16 is on the Goppa bound, so min_distance would take the witness
    # route, and the enumeration is called directly
    code = build_code(h3, h3.standard_D(), Divisor.of(Place.infinity(), 8))
    assert code.k == 6
    cap = 1 << 12
    monkeypatch.setattr(codes, "_MINDIST_TABLE_CELLS", cap)
    tracemalloc.start()
    try:
        d = codes._min_weight_enum(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == 16 == min_distance(code).d
    # 64 KiB: the tail, a block of heads and its comparison array hold at
    # most cap cells each, and a sum-table index 8 bytes a cell
    assert peak < 4 * cap * 4


@SETTINGS
@given(curves_with_divisor())
def test_min_distance_matches_full_enumeration_on_drawn_curves(case):
    curve, G = case
    code = build_code(curve, curve.standard_D(), G)
    assume(0 < code.k and curve.field.order ** code.k <= 1 << 14)
    result = min_distance(code)
    assert result.d == full_enumeration_min_weight(code) == codes._min_weight_enum(code)
    # the witness route is taken exactly when a word on the Goppa bound has
    # a message of weight 1 or 2
    witness = low_weight_min_weight(code) == code.n - G.degree
    assert result.route == ("goppa-witness" if witness else "enumeration")


def test_min_distance_budget_gate_boundary(h4):
    # d = 52 is one above the Goppa bound 51, so no witness exists and the
    # enumeration decides; the 4 + 6 * 15 = 94 word scan fits both budgets
    code = build_code(h4, h4.standard_D(), parse_divisor(h4, "3*P1+1*P4+5*P3"))
    words = h4.field.order ** code.k
    exact = min_distance(code, budget=words)
    assert exact.exact and exact.route == "enumeration"
    assert exact.d == full_enumeration_min_weight(code) == 52
    gated = min_distance(code, budget=words - 1)
    assert gated.d is None and not gated.exact and gated.route is None
    assert gated.designed_bound == exact.designed_bound == code.n - 9 == 51


@pytest.mark.parametrize("G, d, route", [("8*P2", 52, "goppa-witness"),
                                         ("3*P1+1*P4+5*P3", 52, "enumeration")])
def test_min_distance_routes_are_pinned(h4, G, d, route):
    code = build_code(h4, h4.standard_D(), parse_divisor(h4, G))
    result = min_distance(code)
    assert (result.d, result.exact, result.route) == (d, True, route)
    assert (low_weight_min_weight(code) == result.designed_bound) == (route == "goppa-witness")


@pytest.mark.parametrize("cap", [None, 64])
@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 25, 27])
def test_witness_scan_matches_the_pair_oracle(q, cap, monkeypatch):
    # a 64-cell cap puts one pair in each block of the ratio count
    if cap is not None:
        monkeypatch.setattr(codes, "_MINDIST_TABLE_CELLS", cap)
    rng = random.Random(7000 + q)
    cases = _edge_codes(q, rng) + _random_codes(q, rng, count=6, max_words=q ** 14)
    for code in cases:
        weight, (i, j, c) = codes._witness_scan(code)
        assert weight == low_weight_min_weight(code), (code, code.matrix.tolist())
        kern = _kernel(code.field)
        word = kern.add(code.matrix[i], kern.mul(c, code.matrix[j]))
        assert np.count_nonzero(word) == weight and (i == j) == (c == 0)


def test_witness_scan_stays_under_the_cap(monkeypatch):
    # the q = 5 construction code, [120, 25] over GF(25): a word on the
    # bound has weight 1, so the full scan runs without its stop; uncapped,
    # its 300 pairs x 95 columns take one block of about 490 kB
    curve = builtin_curve("hermitian-q5")
    code = build_code(curve, curve.standard_D(), construction_divisors("hermitian", curve)[0])
    assert (code.n, code.k) == (120, 25)
    cap = 1 << 17
    monkeypatch.setattr(codes, "_MINDIST_TABLE_CELLS", cap)
    tracemalloc.start()
    try:
        weight, _ = codes._witness_scan(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert weight == low_weight_min_weight(code) == 86
    # a block holds cap / 32 ratios of at most 32 bytes each; the logs and
    # the zero mask of R, 25 x 95 cells, come on top at up to 32 bytes a cell
    assert peak < cap + 32 * code.k * (code.n - code.k)


def test_the_pairs_are_those_of_triu_indices():
    for k in range(13):
        pairs = codes._pairs(k)
        want = np.triu_indices(k, 1)
        assert all(got.dtype == w.dtype and np.array_equal(got, w)
                   for got, w in zip(pairs, want)), k


@pytest.mark.parametrize("q", [2, 9, 16, 25])
def test_the_non_pivot_columns_are_those_np_delete_leaves(q):
    rng = random.Random(8000 + q)
    for code in _edge_codes(q, rng) + _random_codes(q, rng, count=6, max_words=q ** 14):
        gen = code.matrix
        want = np.delete(gen, (gen != 0).argmax(axis=1), axis=1)
        got = codes._non_pivot_columns(gen)
        assert got.dtype == want.dtype and np.array_equal(got, want), gen.tolist()


# (weight, message) of the witness scan on each code of the mindist-enum
# pool, as it stood when the scan still called np.triu_indices and np.delete
POOL_WITNESSES = {
    "md-c1-k4/0": (25, (0, 0, 0)), "md-c1-k4/1": (25, (0, 0, 0)),
    "md-c1-k4/2": (25, (0, 0, 0)), "md-c1-k4/3": (25, (0, 0, 0)),
    "md-c1-k4/4": (25, (0, 0, 0)), "md-c1-k4/5": (25, (0, 0, 0)),
    "md-c1-k4/6": (25, (0, 0, 0)), "md-c1-k4/7": (25, (0, 1, 4)),
    "md-c1-k4/8": (25, (0, 1, 4)), "md-c1-k4/9": (25, (0, 0, 0)),
    "md-c1-k4/10": (25, (0, 0, 0)), "md-c1-k4/11": (25, (0, 0, 0)),
    "md-c1-k4/12": (25, (0, 0, 0)), "md-c1-k4/13": (25, (0, 1, 4)),
    "md-c1-k4/14": (25, (0, 0, 0)), "md-c1-k4/15": (25, (0, 0, 0)),
    "md-c1-k5/0": (24, (0, 0, 0)), "md-c1-k5/1": (24, (1, 1, 0)),
    "md-c1-k5/2": (24, (1, 1, 0)), "md-c1-k5/3": (24, (1, 1, 0)),
    "md-c1-k5/4": (24, (1, 1, 0)), "md-c1-k5/5": (24, (1, 1, 0)),
    "md-h3-k5/0": (17, (2, 2, 0)), "md-h3-k5/1": (17, (1, 1, 0)),
    "md-h3-k5/2": (17, (1, 1, 0)), "md-h3-k5/3": (17, (0, 1, 2)),
    "md-h3-k5/4": (17, (0, 1, 3)), "md-h3-k5/5": (17, (0, 2, 4)),
    "md-h3-k5/6": (17, (0, 1, 3)), "md-h3-k5/7": (17, (1, 1, 0)),
    "md-h3-k5/8": (17, (0, 0, 0)), "md-h3-k5/9": (17, (1, 1, 0)),
    "md-h3-k5/10": (17, (0, 0, 0)), "md-h3-k5/11": (17, (1, 1, 0)),
    "md-h3-k5/12": (17, (2, 2, 0)), "md-h3-k5/13": (17, (1, 1, 0)),
    "md-h3-k5/14": (17, (0, 1, 4)), "md-h3-k5/15": (17, (0, 1, 3)),
    "md-h3-k6/0": (16, (0, 0, 0)), "md-h3-k6/1": (16, (0, 0, 0)),
    "md-h3-k6/2": (16, (2, 2, 0)), "md-h3-k6/3": (16, (0, 0, 0)),
    "md-h3-k6/4": (16, (0, 1, 1)), "md-h3-k6/5": (16, (0, 0, 0)),
    "md-h3-k6/6": (16, (0, 0, 0)), "md-h3-k6/7": (16, (0, 0, 0)),
    "md-h4-k4/0": (52, (0, 1, 6)), "md-h4-k4/1": (52, (0, 1, 10)),
    "md-h4-k4/2": (52, (0, 1, 5)), "md-h4-k4/3": (52, (0, 1, 5)),
    "md-h4-k4/4": (52, (2, 2, 0)), "md-h4-k4/5": (51, (0, 1, 5)),
    "md-h4-k4/6": (52, (0, 1, 2)), "md-h4-k4/7": (51, (0, 3, 4)),
    "md-h4-k4/8": (52, (0, 1, 11)), "md-h4-k4/9": (51, (0, 0, 0)),
    "md-h4-k4/10": (52, (0, 0, 0)), "md-h4-k4/11": (52, (0, 1, 3)),
    "md-h4-k4/12": (52, (0, 1, 10)), "md-h4-k4/13": (52, (0, 0, 0)),
    "md-h4-k4/14": (52, (0, 0, 0)), "md-h4-k4/15": (51, (0, 2, 12)),
}


def test_witness_scan_keeps_its_witness_on_every_mindist_pool_code():
    """So no pool task proves d from a different witness than it did."""
    golden = json.loads((ROOT / "perfbench" / "golden" / "mindist-enum.json").read_text())
    got = {}
    for pool in golden["pools"].values():
        for task in pool:
            argv = task["argv"]
            curve = builtin_curve(argv[argv.index("--curve") + 1])
            G = parse_divisor(curve, argv[argv.index("--G") + 1])
            code = build_code(curve, curve.standard_D(), G)
            got[task["key"].split("/", 1)[1]] = codes._witness_scan(code, code.n - G.degree)
    assert got == POOL_WITNESSES


def test_a_witness_that_fails_its_recheck_raises(h4, monkeypatch):
    code = build_code(h4, h4.standard_D(), parse_divisor(h4, "8*P2"))
    weight, message = codes._witness_scan(code, 52)
    assert weight == 52
    monkeypatch.setattr(codes, "_witness_scan", lambda code, stop: (weight - 1, message))
    with pytest.raises(RuntimeError, match="re-check"):
        min_distance(code)
    # a "dual" row e_l at a column l where the witness is nonzero
    kern, (i, j, c) = _kernel(h4.field), message
    word = kern.add(code.matrix[i], kern.mul(c, code.matrix[j]))
    unit = np.eye(code.n, dtype=code.matrix.dtype)[[int(word.nonzero()[0][0])]]
    monkeypatch.setattr(codes, "_null_basis", lambda kern, gen: unit)
    monkeypatch.setattr(codes, "_witness_scan", lambda code, stop: (weight, message))
    with pytest.raises(RuntimeError, match="re-check"):
        min_distance(code)


def test_a_word_below_the_goppa_bound_raises(h4):
    # a provenance whose G is two degrees short of the code's own puts the
    # bound at 54, above the generator row of weight 53
    code = build_code(h4, h4.standard_D(), parse_divisor(h4, "8*P2"))
    short = codes.CodeProvenance(h4, code.provenance.D, parse_divisor(h4, "6*P2"))
    forged = codes._code_from_packed(h4.field, code.matrix, code.column_labels, short)
    with pytest.raises(RuntimeError, match="weight 53 lies below the Goppa bound 54"):
        min_distance(forged)


def test_min_distance_refuses_a_budget_above_the_cap(h2):
    code = build_code(h2, h2.standard_D(), parse_divisor(h2, "3*Pinf+1*P1"))
    assert min_distance(code, budget=MAX_MINDIST_BUDGET).d == 2
    with pytest.raises(ValueError, match="MAX_MINDIST_BUDGET"):
        min_distance(code, budget=MAX_MINDIST_BUDGET + 1)
