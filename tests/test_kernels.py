"""Second routes for the packed-int matrix kernel in ``gf``.

The scalar row reduction below is the one-entry-at-a-time routine the kernel
replaced, kept here as the oracle. Its arithmetic goes through the
coefficient-tuple field of ``test_gf``, so it shares no table with the kernel
or with ``FieldElement``, which both read the field's exp/log tables.
``log_rref`` is the kernel's per-pivot elimination before the product table,
and ``trailing_rref`` the one before the fused pass: it swaps and rescales
the pivot row first, then adds each row's multiple of it over m[:, col:].
``added_rref`` is the fused pass on packed rows, which odd fields ran before
lanes, and ``gather_dot_t`` the product they formed before digit planes.
All four are kept as vectorised second routes.
"""

import functools
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kummer_lcd import (GF, Divisor, FunctionElement, KummerCurve, LinearCode,
                        Place, build_code, dual, is_self_orthogonal,
                        riemann_roch_basis)
from kummer_lcd import codes, gf
from kummer_lcd.codes import _kernel, evaluation_matrix
from kummer_lcd.curves import hermitian_curve
from test_gf import TupleField
from test_properties import SETTINGS, curves_with_divisor

FIELD_SIZES = [2, 4, 7, 9, 16, 25, 27, 49, 64, 81]
ROOT = Path(__file__).resolve().parent.parent


class ScalarOps:
    """Packed-int arithmetic routed through coefficient tuples, each result
    computed once per operand pair."""

    def __init__(self, spec):
        f = self.field = TupleField(spec)
        self.add = functools.cache(lambda a, b: f.packed(f.add(f.digits(a), f.digits(b))))
        self.mul = functools.cache(lambda a, b: f.packed(f.mul(f.digits(a), f.digits(b))))
        self.neg = functools.cache(lambda a: f.packed(f.neg(f.digits(a))))
        self.inv = functools.cache(lambda a: f.packed(f.inverse(f.digits(a))))


def scalar_rref(ops, rows):
    """Reduced row echelon form of a copy of rows: (rows, pivots)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    n = len(mat[0])
    pivots = []
    rank = 0
    for col in range(n):
        pivot_row = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = ops.inv(mat[rank][col])
        row = mat[rank]
        for j in range(col, n):
            row[j] = ops.mul(row[j], inv)
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                factor = ops.neg(mat[i][col])
                for j in range(col, n):
                    if row[j]:
                        mat[i][j] = ops.add(mat[i][j], ops.mul(factor, row[j]))
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return mat[:rank], pivots


def log_rref(kern, mat):
    """Reduced row echelon form of a copy of mat: every pivot row is scaled
    through the logs and each row's multiple of it is exp[log f + log row]."""
    m = np.array(mat, dtype=kern.dtype)
    rows, n = m.shape
    pivots = []
    rank = 0
    for col in range(n):
        if rank == rows:
            break
        found = m[rank:, col].nonzero()[0]
        if not found.size:
            continue
        pivot = rank + int(found[0])
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        row_log = kern.log[m[rank, col:]]
        m[rank, col:] = row = kern.exp[row_log + (kern.units - row_log[0])]
        factors = kern.neg[m[:, col]]
        factors[rank] = 0
        m[:, col:] = kern.add(m[:, col:], kern.mul(factors[:, None], row))
        pivots.append(col)
        rank += 1
    return m[:rank], pivots


def trailing_rref(kern, mat):
    """Reduced row echelon form of a copy of mat: the pivot row is swapped up
    and scaled to a lead of 1, then one pass over m[:, col:] adds each row's
    multiple of it (the pivot row's own factor is 0), from ``prod`` on the
    same rule as ``rref``."""
    m = np.array(mat, dtype=kern.dtype)
    rows, n = m.shape
    table = kern.prod if 2 * rows > kern.units else None
    pivots = []
    rank = 0
    for col in range(n):
        if rank == rows:
            break
        found = m[rank:, col].nonzero()[0]
        if not found.size:
            continue
        pivot = rank + int(found[0])
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        row = m[rank, col:]
        if row[0] != 1:
            row_log = kern.log[row]
            m[rank, col:] = row = kern.exp[row_log + (kern.units - row_log[0])]
        factors = kern.neg[m[:, col]]
        factors[rank] = 0
        if table is None:
            products = kern.mul(factors[:, None], row)
        else:
            products = table.take(row, axis=1).take(factors, axis=0)
        m[:, col:] = kern.add(m[:, col:], products)
        pivots.append(col)
        rank += 1
    return m[:rank], pivots


def added_rref(kern, mat):
    """Reduced row echelon form of a copy of mat, kept packed: the fused pass
    of ``rref`` with each pivot's multiples added by ``kern.add`` over
    m[:, col:], for an odd field under the table cap a gather in its q^2-cell
    sum table; the factors and multiples come from ``prod`` on the same rule."""
    m = np.array(mat, dtype=kern.dtype)
    rows, n = m.shape
    spec = kern.spec
    table = kern.prod if 2 * rows > kern.units else None
    pivots = []
    for col in range(n):
        rank = len(pivots)
        if rank == rows:
            break
        column = m[:, col]
        found = column[rank:].nonzero()[0]
        if not found.size:
            continue
        pivot = rank + int(found[0])
        inv = spec.exp[kern.units - spec.log[column[pivot]]]
        if table is None:
            factors = kern.exp[kern.log[column] + spec.log[spec.neg[inv]]]
        else:
            factors = table[spec.neg[inv]].take(column)
        factors[pivot] = spec._add(inv, spec.neg[1])
        row = m[pivot, col:]
        products = (kern.mul(factors[:, None], row) if table is None
                    else table.take(row, axis=0).T.take(factors, axis=0))
        m[:, col:] = kern.add(m[:, col:], products)
        if pivot != rank:
            held = m[rank, col:].copy()
            m[rank, col:], m[pivot, col:] = m[pivot, col:], held
        pivots.append(col)
    return m[:len(pivots)], pivots


def gather_dot_t(kern, a, b):
    """a . b^T: every product exp[log a + log b] gathered, rows of a in chunks
    under ``_DOT_CHUNK_CELLS``, and summed one term at a time by ``kern.add``."""
    out = np.zeros((len(a), len(b)), dtype=kern.dtype)
    log_a, log_b = kern.log[a], kern.log[b]
    step = max(1, gf._DOT_CHUNK_CELLS // max(1, b.size))
    for i in range(0, len(a), step):
        products = kern.exp[log_a[i:i + step, None, :] + log_b]
        out[i:i + step] = functools.reduce(kern.add, np.moveaxis(products, 2, 0), out[i:i + step])
    return out


def scalar_nullspace(ops, rows, n):
    reduced, pivots = scalar_rref(ops, rows)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [0] * n
        vec[free] = 1
        for i, col in enumerate(pivots):
            vec[col] = ops.neg(reduced[i][free])
        basis.append(vec)
    return scalar_rref(ops, basis)[0]


def scalar_dot(ops, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = ops.add(acc, ops.mul(a, b))
    return acc


def random_matrices(q, rng):
    """(label, rows, n): empty, zero, full, rank-deficient, tall and wide cases."""
    def rand(rows, n):
        return [[rng.randrange(q) for _ in range(n)] for _ in range(rows)]

    ops = ScalarOps(GF(q))
    base = rand(3, 9)
    combos = []
    for _ in range(4):
        c = [rng.randrange(q) for _ in base]
        row = [0] * 9
        for coeff, b in zip(c, base):
            row = [ops.add(x, ops.mul(coeff, y)) for x, y in zip(row, b)]
        combos.append(row)
    sparse = [[x if rng.random() < 0.3 else 0 for x in row] for row in rand(7, 8)]
    return [("empty", [], 6), ("zero", [[0] * 5 for _ in range(4)], 5),
            ("square", rand(6, 6), 6), ("rank-deficient", base + combos, 9),
            ("tall", rand(12, 5), 5), ("wide", rand(4, 11), 11),
            ("sparse", sparse, 8), ("one-row", rand(1, 7), 7)]


def as_array(rows, n):
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


def deficient_matrices(q, rng, shapes, rank):
    """(label, rows, n) of each shape, with rank at most rank + 2: zero
    columns, a first lead of 2 that a row swap brings up, random leads."""
    kern = _kernel(GF(q))
    out = []
    for rows, n in shapes:
        basis = as_array([[rng.randrange(q) for _ in range(n)] for _ in range(rank)], n)
        coeffs = as_array([[rng.randrange(q) for _ in range(rank)] for _ in range(rows)], rank)
        mat = kern.dot_t(coeffs, basis.T)
        mat[:, [0, 5, n // 2]] = 0
        mat[0, 1], mat[1, 1] = 0, 2
        out.append((f"{rows}x{n}", mat.tolist(), n))
    return out


def table_route_cases(q, rng):
    """random_matrices plus, up to GF(256), a case with 2 * rows >= q, the
    shapes ``rref`` eliminates from the product table."""
    rows = q // 2 + 3
    tall = deficient_matrices(q, rng, [(rows, rows + 5)], rows - 4) if q <= 256 else []
    return random_matrices(q, rng) + tall


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_kernel_arithmetic_matches_field_elements(q):
    spec = GF(q)
    kern, ops = _kernel(spec), ScalarOps(spec)
    rng = random.Random(q)
    values = np.arange(q, dtype=np.int64)
    a = values if q <= 16 else np.array(rng.sample(range(q), 16))
    b = values if q <= 16 else np.array(rng.sample(range(q), 16))
    added = kern.add(a[:, None], b[None, :])
    multiplied = kern.mul(a[:, None], b[None, :])
    for i, x in enumerate(a.tolist()):
        for j, y in enumerate(b.tolist()):
            assert added[i, j] == ops.add(x, y)
            assert multiplied[i, j] == ops.mul(x, y)
    assert kern.neg.tolist() == [ops.neg(x) for x in range(q)]
    # the kernel has no inverse of its own: rref scales by exp[units - log]
    assert all(kern.exp[kern.units - kern.log[x]] == ops.inv(x) for x in range(1, q))


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_rref_and_nullspace_match_scalar_oracle(q):
    spec = GF(q)
    kern, ops = _kernel(spec), ScalarOps(spec)
    rng = random.Random(1000 + q)
    for label, rows, n in random_matrices(q, rng):
        reduced, pivots = kern.rref(as_array(rows, n))
        want_rows, want_pivots = scalar_rref(ops, rows)
        assert pivots == want_pivots, label
        assert reduced.tolist() == want_rows, label
        null = kern.nullspace(as_array(rows, n))
        assert null.tolist() == scalar_nullspace(ops, rows, n), label


@pytest.mark.parametrize("q, dtype", [(4, np.uint8), (25, np.uint8), (27, np.uint8),
                                      (243, np.uint8), (256, np.uint8), (729, np.uint16),
                                      (2 ** 11, np.uint16)])
def test_narrow_elements_match_the_oracles(q, dtype):
    # from GF(25) on, a sum-table index a * q + b passes 255, so it must be
    # formed wider than a uint8 element; GF(729) and GF(2^11) hold uint16
    spec = GF(q)
    kern, ops = _kernel(spec), ScalarOps(spec)
    assert kern.dtype == kern.exp.dtype == kern.neg.dtype == dtype
    top = np.full(q, q - 1, dtype=dtype)
    values = np.arange(q, dtype=dtype)
    assert kern.add(top, values).tolist() == [ops.add(q - 1, x) for x in range(q)]
    assert kern.mul(top, values).tolist() == [ops.mul(q - 1, x) for x in range(q)]
    rng = random.Random(9000 + q)
    # the scalar oracle computes each product and sum once, which GF(2^11)
    # makes slow on the larger shapes
    shapes = [(20, 30), (30, 20)] if q <= 256 else [(10, 14)]
    for label, rows, n in random_matrices(q, rng) + deficient_matrices(q, rng, shapes, 6):
        mat = as_array(rows, n)
        reduced, pivots = kern.rref(mat)
        want_rows, want_pivots = scalar_rref(ops, rows)
        assert reduced.dtype == dtype, label
        assert pivots == want_pivots and reduced.tolist() == want_rows, label
        assert np.array_equal(reduced, log_rref(kern, mat)[0]), label
        null = kern.nullspace(mat)
        assert null.dtype == dtype, label
        assert null.tolist() == scalar_nullspace(ops, rows, n), label


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_rref_does_not_modify_its_input(q):
    mat = as_array(random_matrices(q, random.Random(q))[2][1], 6)
    before = mat.copy()
    _kernel(GF(q)).rref(mat)
    assert (mat == before).all()


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_dot_t_matches_scalar_dot(q):
    spec = GF(q)
    kern, ops = _kernel(spec), ScalarOps(spec)
    rng = random.Random(2000 + q)
    for rows_a, rows_b, n in ((3, 5, 7), (1, 1, 1), (0, 4, 3), (6, 2, 13)):
        a = [[rng.randrange(q) for _ in range(n)] for _ in range(rows_a)]
        b = [[rng.randrange(q) for _ in range(n)] for _ in range(rows_b)]
        got = kern.dot_t(as_array(a, n), as_array(b, n))
        assert got.shape == (rows_a, rows_b)
        assert got.tolist() == [[scalar_dot(ops, u, v) for v in b] for u in a]


@pytest.mark.parametrize("q", [9, 25, 27, 81, 243, 729])
def test_digit_wise_sum_matches_the_sum_table(q, monkeypatch):
    # a kernel built under a zero table cap adds digit by digit, the only
    # route for odd fields above the cap; the cached kernel gathers from its
    # q^2-cell table
    spec = GF(q)
    table = _kernel(spec)
    monkeypatch.setattr(gf, "_ADD_TABLE_CELLS", 0)
    digits = gf._Kernel(spec)
    assert digits.add == digits._digit_add and table.add != table._digit_add
    values = np.arange(q, dtype=np.int32)
    assert np.array_equal(digits.add(values[:, None], values[None, :]),
                          table.add(values[:, None], values[None, :]))
    rng = random.Random(3000 + q)
    for label, rows, n in table_route_cases(q, rng):
        mat = as_array(rows, n)
        (got, got_pivots), (want, want_pivots) = digits.rref(mat), table.rref(mat)
        assert got_pivots == want_pivots and np.array_equal(got, want), label
        assert np.array_equal(digits.nullspace(mat), table.nullspace(mat)), label
        other = as_array([[rng.randrange(q) for _ in range(n)] for _ in range(3)], n)
        assert np.array_equal(digits.dot_t(mat, other), table.dot_t(mat, other)), label


@pytest.mark.parametrize("q", [4, 16, 64, 256, 2 ** 11])
def test_log_products_match_the_product_table(q, monkeypatch):
    # a kernel built under a zero table cap multiplies through the logs, the
    # only route above the cap (GF(2^11) is there even unpatched); the cached
    # kernel gathers each pivot row's multiples from its q x q table
    spec = GF(q)
    table = _kernel(spec)
    monkeypatch.setattr(gf, "_ADD_TABLE_CELLS", 0)
    logs = gf._Kernel(spec)
    assert logs.prod is None and (table.prod is None) == (q == 2 ** 11)
    if table.prod is not None:
        values = np.arange(q)
        assert np.array_equal(table.prod, logs.mul(values[:, None], values[None, :]))
    rng = random.Random(7000 + q)
    for label, rows, n in table_route_cases(q, rng):
        mat = as_array(rows, n)
        (got, got_pivots), (want, want_pivots) = logs.rref(mat), table.rref(mat)
        assert got_pivots == want_pivots and np.array_equal(got, want), label
        assert np.array_equal(want, log_rref(table, mat)[0]), label
        assert np.array_equal(logs.nullspace(mat), table.nullspace(mat)), label


@pytest.mark.parametrize("q", [9, 16, 25, 64, 81, 256])
def test_large_shapes_match_scalar_oracle(q):
    spec = GF(q)
    kern, ops = _kernel(spec), ScalarOps(spec)
    shapes = [(40, 70), (70, 40)]
    for label, rows, n in deficient_matrices(q, random.Random(8000 + q), shapes, 25):
        mat = as_array(rows, n)
        reduced, pivots = kern.rref(mat)
        want_rows, want_pivots = scalar_rref(ops, rows)
        assert pivots[0] == 1 and len(pivots) < len(rows), label
        assert pivots == want_pivots and reduced.tolist() == want_rows, label
        assert np.array_equal(reduced, log_rref(kern, mat)[0]), label


def test_the_tables_are_built_on_first_use_not_at_import_or_in_bench_setup():
    """Importing the package and perfbench's setup (fields, curves, points)
    build no kernel; the first ``_kernel(spec)`` call builds its tables."""
    script = ("import sys\n"
              "sys.path.insert(0, 'perfbench')\n"
              "import run\n"
              "run.prepare_environment()\n"
              "from kummer_lcd import GF, gf\n"
              "for workload in run.workloads.WORKLOADS:\n"
              "    run.setup(workload)\n"
              "print(gf._kernel.cache_info().currsize)\n"
              "print(gf._kernel(GF(64)).prod.shape)\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n(64, 64)\n", "")


def test_odd_fields_above_the_table_cap_add_digit_by_digit():
    # GF(3^7): q^2 = 4 782 969 cells is above the 2^21 cap
    spec = GF(3 ** 7)
    kern, ops = _kernel(spec), ScalarOps(spec)
    assert kern.add == kern._digit_add
    rng = random.Random(7)
    a = np.array([rng.randrange(spec.order) for _ in range(64)])
    b = np.array([rng.randrange(spec.order) for _ in range(64)])
    assert kern.add(a, b).tolist() == [ops.add(x, y) for x, y in zip(a.tolist(), b.tolist())]


def test_orthogonality_checks_match_scalar_dot(h3):
    spec = h3.field
    ops = ScalarOps(spec)
    places = h3.affine_places()[:6]
    one, zero = spec.one.n, spec.zero.n
    self_orth = LinearCode.from_rows(spec, [[one, zero, one, zero, one, zero]], places)
    # 1 + 1 + 1 = 0 in characteristic 3
    assert is_self_orthogonal(self_orth)
    C = build_code(h3, h3.standard_D(), Divisor.of(Place.infinity(), 9))
    gen = C.matrix.tolist()
    want = all(scalar_dot(ops, u, v) == 0 for u in gen for v in gen)
    assert is_self_orthogonal(C) == want
    assert not _kernel(spec).dot_t(C.matrix, dual(C).matrix).any()


def _evaluation_divisors(curve):
    """Multi-point divisors with positive, negative and simple-zero parts."""
    g, r = curve.genus, curve.r
    out = [Divisor.of(Place.infinity(), 2 * g + 2)]
    G = Divisor({Place.ramified(1): curve.m + 1, Place.infinity(): 2 * g})
    if r > 1:
        G = G + Divisor.of(Place.ramified(r), -1)
    out.append(G)
    out.append(G + Divisor.of(curve.affine_places()[0], -1))
    return out


def _assert_rows_match(curve, G):
    functions = riemann_roch_basis(curve, G).functions
    places = [p for p in curve.affine_places() if G[p] == 0]
    got = evaluation_matrix(curve, functions, places)
    assert got.tolist() == [[f.evaluate(p).n for p in places] for f in functions]
    return places


def test_evaluation_matrix_matches_evaluate_on_bundled_curves(family):
    for curve in family:
        for G in _evaluation_divisors(curve):
            _assert_rows_match(curve, G)


@SETTINGS
@given(curves_with_divisor(), st.randoms(use_true_random=False))
def test_evaluation_matrix_matches_evaluate_on_drawn_curves(case, rng):
    # evaluation_matrix shares build_code's evaluator, so FunctionElement.evaluate
    # is its independent check: on basis functions, and on sums of monomials
    # with numerators, denominators and several x-powers
    curve, G = case
    places = _assert_rows_match(curve, G)
    elements = curve.field.elements()
    functions = [sum((FunctionElement.monomial(
        curve, rng.randint(-2 * curve.m, 2 * curve.m), [rng.randint(-2, 2) for _ in curve.alphas],
        [rng.choice(elements) for _ in range(3)]) for _ in range(3)), FunctionElement.zero(curve))
        for _ in range(4)]
    got = evaluation_matrix(curve, functions, places)
    assert got.tolist() == [[f.evaluate(p).n for p in places] for f in functions]


def test_evaluation_matrix_at_places_with_b_zero():
    # (0 - 1)(0 - 6) = 6 = 3^3 in GF(7), so P(a, 0) lies on the curve for
    # a in {3, 5, 6}; every bundled curve has 0 as a root and no such place
    curve = KummerCurve(GF(7), [1, 6], 3, label="gf7-roots-1-6")
    zero = curve.field.zero
    for G in _evaluation_divisors(curve):
        places = _assert_rows_match(curve, G)
        assert any(p.b == zero for p in places)
    # basis terms x^t * y^j with j > 0 vanish there, the others do not
    basis = riemann_roch_basis(curve, Divisor.of(Place.infinity(), 6)).functions
    on_b_zero = [p for p in curve.affine_places() if p.b == zero]
    rows = evaluation_matrix(curve, basis, on_b_zero)
    for f, row in zip(basis, rows.tolist()):
        (num, _), = f.terms.values()
        assert all((x == zero.n) == (len(num) > 1) for x in row)


@pytest.mark.parametrize("q", [3 ** 7, 2 ** 11])
def test_evaluation_matrix_matches_evaluate_above_the_table_cap(q):
    # neither field has a product table: dot_t sums from the logs alone
    spec = GF(q)
    assert _kernel(spec).prod is None
    curve = KummerCurve(spec, [0, 1], 5, label=f"gf{q}-roots-0-1")
    G = Divisor({Place.ramified(1): 7, Place.infinity(): 2 * curve.genus + 3})
    functions = riemann_roch_basis(curve, G).functions
    rng = random.Random(q)
    elements = spec.elements()
    functions = list(functions) + [sum((FunctionElement.monomial(
        curve, rng.randint(-10, 10), [rng.randint(-2, 2), rng.randint(-2, 2)],
        [rng.choice(elements) for _ in range(4)]) for _ in range(3)), FunctionElement.zero(curve))
        for _ in range(4)]
    places = curve.affine_places()[:40]
    got = evaluation_matrix(curve, functions, places)
    assert got.dtype == _kernel(spec).dtype
    assert got.tolist() == [[f.evaluate(p).n for p in places] for f in functions]


def test_evaluation_matrix_rejects_what_evaluate_rejects(h2):
    with pytest.raises(ValueError):
        evaluation_matrix(h2, riemann_roch_basis(h2, Divisor.zero()).functions,
                          [Place.infinity()])
    # x^2 / y at an off-curve place with b = 0
    f = FunctionElement.monomial(h2, 2, alpha_exps=(-1, 0))
    off_curve = Place.affine(h2.field.one, h2.alphas[0])
    with pytest.raises(ZeroDivisionError):
        f.evaluate(off_curve)
    with pytest.raises(ZeroDivisionError):
        evaluation_matrix(h2, [f], [off_curve])


# row lengths around 31, 255 and 2047 terms, on fields past the table cap
# (GF(3^10), GF(3^7), GF(5^6)) and under it (GF(3^5))
SUM_LENGTHS = {3 ** 10: 31, 3 ** 7: 255, 5 ** 6: 255, 3 ** 5: 2047}


@pytest.mark.parametrize("q", sorted(SUM_LENGTHS) + [3, 9, 25, 49, 81])
def test_lane_sums_match_scalar_oracle(q):
    spec = GF(q)
    kern, ops = _kernel(spec), ScalarOps(spec)
    if q in SUM_LENGTHS:
        size = SUM_LENGTHS[q]
        lengths = (size - 1, size, size + 1, 2 * size + 1)
    else:
        lengths = (spec.p - 1, spec.p, 2 * spec.p + 1, 700)
    rng = random.Random(4000 + q)
    for length in (0, 1) + lengths:
        # q - 1 has every digit p - 1: its digit sums reach length * (p - 1)
        rows = [[q - 1] * length, [rng.randrange(q) for _ in range(length)]]
        want = []
        for row in rows:
            acc = 0
            for x in row:
                acc = ops.add(acc, x)
            want.append(acc)
        mat = as_array(rows, length)
        # dot_t against a row of ones sums the values of each row
        ones = as_array([[1] * length], length)
        assert kern.dot_t(mat, ones)[:, 0].tolist() == want, length
        assert kern.dot_t(mat[:1], mat[:1]).tolist() == [[scalar_dot(ops, rows[0], rows[0])]]


def rref_inputs(q, rng):
    """(label, rows, n) of random_matrices plus k = 0, k = n and pivots away
    from the front (leading and interior zero columns)."""
    cases = random_matrices(q, rng)
    late = [[0, 0, 0] + [rng.randrange(q) for _ in range(3)] + [0]
            + [rng.randrange(q) for _ in range(2)] for _ in range(3)]
    identity = [[int(i == j) for j in range(5)] for i in range(5)]
    return cases + [("no-rows", [], 4), ("identity", identity, 5),
                    ("late-pivots", late, 9)]


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_null_basis_of_an_rref_matches_nullspace(q):
    kern = _kernel(GF(q))
    rng = random.Random(5000 + q)
    for label, rows, n in rref_inputs(q, rng):
        mat = as_array(rows, n)
        reduced, pivots = kern.rref(mat)
        read_off = (reduced != 0).argmax(axis=1)
        assert read_off.tolist() == pivots, label
        want = kern.nullspace(mat)
        assert np.array_equal(kern.rref(kern.null_basis(reduced, read_off))[0], want), label
        assert not kern.dot_t(kern.null_basis(reduced, pivots), mat).any(), label


def delete_null_basis(kern, reduced, pivots):
    """The null basis with its free columns from np.delete, as it was formed
    before a boolean mask picked them: the oracle of ``null_basis``."""
    n = reduced.shape[1]
    free = np.delete(np.arange(n), pivots)
    basis = np.zeros((free.size, n), dtype=kern.dtype)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = kern.neg[reduced[:, free]].T
    return basis


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_null_basis_equals_the_delete_formula(q):
    kern = _kernel(GF(q))
    rng = random.Random(5500 + q)
    cases = [(label, *kern.rref(as_array(rows, n))) for label, rows, n in rref_inputs(q, rng)]
    cases += [("no-pivots", np.zeros((0, 6), dtype=kern.dtype), []),
              ("all-pivots", np.eye(6, dtype=kern.dtype), list(range(6))),
              ("no-columns", np.zeros((0, 0), dtype=kern.dtype), [])]
    for label, reduced, pivots in cases:
        # the pivots as rref lists them and as _null_basis reads them off
        for read in (pivots, (reduced != 0).argmax(axis=1) if reduced.size else []):
            got, want = kern.null_basis(reduced, read), delete_null_basis(kern, reduced, read)
            assert got.dtype == want.dtype and np.array_equal(got, want), label


@given(st.data())
def test_null_basis_of_a_drawn_rref_equals_the_delete_formula(data):
    q = data.draw(st.sampled_from(FIELD_SIZES))
    k, n = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 9))
    rows = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                              min_size=k, max_size=k))
    kern = _kernel(GF(q))
    reduced, pivots = kern.rref(as_array(rows, n))
    assert np.array_equal(kern.null_basis(reduced, pivots),
                          delete_null_basis(kern, reduced, pivots))


@pytest.mark.parametrize("q", [2, 9, 16, 25])
def test_dual_reads_pivots_off_the_stored_rref(q):
    spec = GF(q)
    kern = _kernel(spec)
    rng = random.Random(6000 + q)
    # high rate, k > n - k: full rank, and rank-deficient rows
    high_rate = [("high-rate", [[rng.randrange(q) for _ in range(14)] for _ in range(11)], 14)]
    high_rate += deficient_matrices(q, rng, [(14, 16)], 10) if q > 2 else []
    for label, rows, n in rref_inputs(q, rng) + high_rate:
        code = LinearCode.from_rows(spec, as_array(rows, n), [f"c{i}" for i in range(n)])
        want = two_elimination_nullspace(kern, code.matrix)
        assert np.array_equal(dual(code).matrix, want), label
        assert dual(code).k == n - code.k, label
        assert codes.hull_dimension_by_rank(code) == codes.hull(code).k, label


def two_elimination_nullspace(kern, mat):
    """The kernel of mat as the RREF of the null basis of its RREF."""
    return kern.rref(kern.null_basis(*kern.rref(mat)))[0]


def fused_cases(q, rng):
    """rref_inputs plus a matrix with no columns and, above GF(2), rank-deficient
    matrices with 2 * rows on each side of q - 1, the switch between the logs
    and ``prod``: zero and late columns, a swap at column 1 whose lead is 2."""
    half = (q - 1) // 2
    shapes = [(rows, rows + 6) for rows in sorted({max(2, half), half + 1})]
    deficient = (deficient_matrices(q, rng, shapes, max(1, half - 2)) if q > 2 else [])
    return rref_inputs(q, rng) + [("no-columns", [[]] * 3, 0)] + deficient


def assert_fused_matches_trailing(kern, mat, label):
    got, got_pivots = kern.rref(mat)
    want, want_pivots = trailing_rref(kern, mat)
    assert got.dtype == want.dtype and got.shape == want.shape, label
    assert got_pivots == want_pivots and np.array_equal(got, want), label
    null = kern.nullspace(mat)
    assert null.dtype == kern.dtype, label
    assert np.array_equal(null, two_elimination_nullspace(kern, mat)), label


@pytest.mark.parametrize("route", ["table", "logs"])
@pytest.mark.parametrize("q", FIELD_SIZES + [256])
def test_fused_rref_matches_the_trailing_block_route(q, route, monkeypatch):
    # the cached kernel takes the factors and products from prod once
    # 2 * rows > q - 1; under a zero table cap both go through the logs
    spec = GF(q)
    if route == "logs":
        monkeypatch.setattr(gf, "_ADD_TABLE_CELLS", 0)
    kern = gf._Kernel(spec) if route == "logs" else _kernel(spec)
    assert (kern.prod is None) == (route == "logs")
    rng = random.Random(11000 + q)
    cases = fused_cases(q, rng)
    if q > 4:
        # the last two: column 0 zero, then a swap to a lead of 2 at column 1,
        # one on each side of the switch
        assert all(rows[0][:2] == [0, 0] and rows[1][1] == 2 for _, rows, _ in cases[-2:])
        assert {2 * len(rows) > q - 1 for _, rows, _ in cases[-2:]} == {False, True}
    for label, rows, n in cases:
        assert_fused_matches_trailing(kern, as_array(rows, n), label)


@st.composite
def ranked_matrices(draw, fields=tuple(FIELD_SIZES + [256])):
    """(q, matrix): a field, a shape of up to 40 x 30, and a rank, with some
    columns cleared and the rows shuffled, so leads, swaps and late pivots vary."""
    q = draw(st.sampled_from(fields))
    rows, n = draw(st.integers(0, 40)), draw(st.integers(0, 30))
    rank = draw(st.integers(0, min(rows, n)))

    def draw_array(shape):
        cells = draw(st.lists(st.integers(0, q - 1), min_size=shape[0] * shape[1],
                              max_size=shape[0] * shape[1]))
        return np.array(cells, dtype=np.int64).reshape(shape)

    mat = _kernel(GF(q)).dot_t(draw_array((rows, rank)), draw_array((n, rank)))
    mat[:, draw(st.lists(st.integers(0, max(0, n - 1)), max_size=n // 2))] = 0
    return q, mat[draw(st.permutations(range(rows)))]


@SETTINGS
@given(ranked_matrices(), st.booleans())
def test_fused_rref_matches_the_trailing_block_route_on_drawn_matrices(case, logs):
    q, mat = case
    if logs:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gf, "_ADD_TABLE_CELLS", 0)
            kern = gf._Kernel(GF(q))
    else:
        kern = _kernel(GF(q))
    assert_fused_matches_trailing(kern, mat, (q, mat.shape, logs))


@SETTINGS
@given(ranked_matrices())
def test_lazy_duals_and_hulls_match_the_eager_routes(case):
    # drawn codes of every rate, their lazy duals, and those duals held as
    # eager codes, whose hulls run on their own side
    q, mat = case
    spec, kern = GF(q), _kernel(GF(q))
    labels = [f"c{i}" for i in range(mat.shape[1])]
    code = LinearCode.from_rows(spec, mat, labels)
    lazy = dual(code)
    assert lazy.k == code.n - code.k
    assert np.array_equal(lazy.matrix, two_elimination_nullspace(kern, code.matrix))
    for c in (code, lazy, LinearCode.from_rows(spec, lazy.matrix, labels)):
        dimension = codes.hull(c).k
        assert dimension == codes.hull_dimension_by_rank(c) == codes.hull(dual(c)).k
        gen = c.matrix
        # the Gram route on the RREF generator, whatever the rate
        want = kern.dot_t(kern.nullspace(kern.dot_t(gen, gen)), gen.T)
        assert codes.hull(c).matrix.shape[0] == dimension == len(want)
        assert np.array_equal(codes.hull(c).matrix, want)


def test_nullspace_runs_one_elimination(monkeypatch):
    kern = _kernel(GF(16))
    rref = gf._Kernel.rref
    shapes = counted_rrefs(monkeypatch)
    mat = as_array(deficient_matrices(16, random.Random(16), [(12, 20)], 7)[0][1], 20)
    null = kern.nullspace(mat)
    assert shapes == [(12, 20)] and null.shape == (20 - len(rref(kern, mat)[1]), 20)
    # the two-elimination route reduces the null basis a second time
    shapes.clear()
    assert np.array_equal(two_elimination_nullspace(kern, mat), null)
    assert len(shapes) == 2


def counted_rrefs(monkeypatch) -> list:
    """The shapes of the matrices every later ``_Kernel.rref`` call reduces."""
    shapes = []
    rref = gf._Kernel.rref

    def counted(self, mat):
        shapes.append(np.shape(mat))
        return rref(self, mat)

    monkeypatch.setattr(gf._Kernel, "rref", counted)
    return shapes


@pytest.mark.parametrize("G", [3, 20])
def test_dual_runs_one_elimination_on_the_code_rows(G, monkeypatch):
    # hermitian-q3: [24, 2] and [24, 18], so the n - k dual rows differ from k
    curve = hermitian_curve(3)
    code = build_code(curve, curve.standard_D(), Divisor.of(Place.infinity(), G))
    assert code.k != code.n - code.k
    shapes = counted_rrefs(monkeypatch)
    the_dual = dual(code)
    assert the_dual.k == code.n - code.k and shapes == []
    # the nullspace of the k rows, or the RREF of the n - k null basis rows
    assert the_dual.matrix.shape == (code.n - code.k, code.n)
    assert shapes == [(min(code.k, code.n - code.k), code.n)]


@pytest.mark.parametrize("G", [3, 20])
def test_hull_dimension_runs_one_elimination_on_the_smaller_gram(G, monkeypatch):
    curve = hermitian_curve(3)
    code = build_code(curve, curve.standard_D(), Divisor.of(Place.infinity(), G))
    shapes = counted_rrefs(monkeypatch)
    side = min(code.k, code.n - code.k)
    dimension = codes.hull(code).k
    assert shapes == [(side, side)]
    # a dual shares the hull of its code: no elimination at all
    assert codes.hull(dual(code)) is codes.hull(code) and len(shapes) == 1
    assert dimension == codes.hull_dimension_by_rank(code)


# every odd field of FIELD_SIZES, and five more layouts: GF(121) and
# GF(169) 8 bits a digit, GF(125) 5, GF(243) 3 in a uint16 and GF(729) 3 in
# a uint32
LANE_FIELDS = [q for q in FIELD_SIZES if q % 2] + [121, 125, 169, 243, 729]
# (lane bits, word dtype, pivots between two renormalisations)
LANE_LAYOUTS = {7: (16, np.uint16, 10921), 9: (8, np.uint16, 126), 25: (8, np.uint16, 62),
                27: (5, np.uint16, 14), 49: (8, np.uint16, 41), 81: (4, np.uint16, 6),
                121: (8, np.uint16, 24), 125: (5, np.uint16, 6), 169: (8, np.uint16, 20),
                243: (3, np.uint16, 2), 729: (3, np.uint32, 2)}


@pytest.mark.parametrize("q", LANE_FIELDS)
def test_lane_layouts_follow_p_and_k(q):
    spec = GF(q)
    lanes = _kernel(spec).lanes
    bits, dtype, every = LANE_LAYOUTS[q]
    p, k = spec.p, spec.k
    assert lanes.enc.dtype == lanes.norm.dtype == lanes.prod.dtype == lanes.exp.dtype == dtype
    assert lanes.every == every and len(lanes.dec) == 1 << bits * k
    # every + 1 elements fill a lane with digits p - 1 to at most 2^bits - 1; one more passes it
    assert (every + 1) * (p - 1) <= (1 << bits) - 1 < (every + 2) * (p - 1)
    values = np.arange(q)
    digits = [values // p ** i % p for i in range(k)]
    assert lanes.enc.tolist() == sum(d << bits * i for i, d in enumerate(digits)).tolist()
    # the fullest word: every lane at 2^bits - 1
    full = sum(((1 << bits) - 1) << bits * i for i in range(k))
    assert lanes.dec[full] == sum(((1 << bits) - 1) % p * p ** i for i in range(k))
    assert np.array_equal(lanes.dec[lanes.enc], values)
    assert np.array_equal(lanes.norm, lanes.enc[lanes.dec])


def test_fields_without_a_product_table_have_no_lanes():
    assert _kernel(GF(3 ** 7)).lanes is None and _kernel(GF(3 ** 7)).prod is None
    assert all(_kernel(GF(q)).lanes is None for q in (2, 4, 16, 256))


def lane_cases(q, rng):
    """rref_inputs, a matrix with no columns, and rank-deficient matrices with
    more pivots than the lane layout has adds between two renormalisations:
    one with 2 * rows > q - 1 (factors and multiples from ``prod``), and,
    where a shape under half of q still crosses, one from the logs. GF(7)
    renormalises every 10921 pivots."""
    every, half = LANE_LAYOUTS[q][2], (q - 1) // 2
    crossing = []
    if every < 150:
        rows = max(every + 8, half + 2)
        crossing.append(((rows, rows + 10), every + 5))
    if every + 4 <= half:
        crossing.append(((every + 4, every + 14), every + 2))
    return rref_inputs(q, rng) + [("no-columns", [[]] * 3, 0)] + [
        case for shape, rank in crossing for case in deficient_matrices(q, rng, [shape], rank)]


def assert_lanes_match_packed(kern, mat, label):
    got, got_pivots = kern.rref(mat)
    for want, want_pivots in (added_rref(kern, mat), trailing_rref(kern, mat)):
        assert got.dtype == want.dtype == kern.dtype and got.shape == want.shape, label
        assert got_pivots == want_pivots and np.array_equal(got, want), label
    return got_pivots


@pytest.mark.parametrize("route", ["lanes", "digits"])
@pytest.mark.parametrize("q", LANE_FIELDS)
def test_lane_rref_matches_the_packed_routes(q, route, monkeypatch):
    # the cached kernel reduces in lanes; under a zero table cap the kernel
    # has neither prod nor lanes, multiplies through the logs and adds digit
    # by digit, as every odd field above the cap does
    spec = GF(q)
    if route == "digits":
        monkeypatch.setattr(gf, "_ADD_TABLE_CELLS", 0)
    kern = gf._Kernel(spec) if route == "digits" else _kernel(spec)
    assert (kern.lanes is None) == (kern.prod is None) == (route == "digits")
    rng = random.Random(12000 + q)
    every = LANE_LAYOUTS[q][2]
    routes = set()
    for label, rows, n in lane_cases(q, rng):
        mat = as_array(rows, n)
        pivots = assert_lanes_match_packed(kern, mat, label)
        if len(pivots) > every:
            routes.add(2 * len(rows) > q - 1)
        assert np.array_equal(kern.nullspace(mat), two_elimination_nullspace(kern, mat)), label
    # renormalisation is crossed from prod, and from the logs where a shape allows it
    want = set() if every >= 150 else {True} if every + 4 > (q - 1) // 2 else {True, False}
    assert routes == want


@SETTINGS
@given(ranked_matrices(tuple(LANE_FIELDS)))
def test_lane_rref_matches_the_packed_route_on_drawn_matrices(case):
    q, mat = case
    assert_lanes_match_packed(_kernel(GF(q)), mat, (q, mat.shape))


DOT_SHAPES = [(3, 5, 7), (1, 1, 1), (0, 4, 3), (4, 0, 3), (3, 4, 0), (0, 0, 0),
              (6, 2, 13), (9, 11, 40)]


@pytest.mark.parametrize("q", LANE_FIELDS + [3 ** 7])
def test_plane_dot_t_matches_the_gather_product(q, monkeypatch):
    # GF(3^7) has no product table; digit planes need none
    spec = GF(q)
    kern, k, p = _kernel(spec), spec.k, spec.p
    rng = np.random.default_rng(13000 + q)
    cases = [(rng.integers(0, q, (ra, n)), rng.integers(0, q, (rb, n))) for ra, rb, n in DOT_SHAPES]
    # digits p - 1 everywhere: the largest sums a product of planes forms
    cases.append((np.full((5, 40), q - 1), np.full((7, 40), q - 1)))
    want = [gather_dot_t(kern, a, b) for a, b in cases]
    # default blocks; then, at n = 40, rows of a two at a time in blocks of
    # 2k rows of b, and the inner dimension in pieces of 3, as for rows too
    # long to sum exactly
    for cells, exact in ((None, None), (2 * k * k * 40, None), (None, 3 * k * (p - 1) ** 2 + 1)):
        with monkeypatch.context() as patch:
            if cells:
                patch.setattr(gf, "_PLANE_CELLS", cells)
            if exact:
                patch.setattr(gf, "_EXACT_FLOAT", exact)
            for (a, b), product in zip(cases, want):
                got = kern.dot_t(a, b)
                assert got.dtype == kern.dtype and np.array_equal(got, product), (a.shape, b.shape)
                # a transposed view, as the hull passes it
                assert np.array_equal(kern.dot_t(b, np.ascontiguousarray(a.T).T), product.T)
