"""Evaluation codes C(D, G), duals, hulls, LCD certificates, minimum distance.

All matrix work goes through the kernel of ``gf`` (``_kernel``), on numpy
arrays of packed elements. ``build_code`` takes the values of an L(G) basis
from ``functions``, which evaluates it in the log domain straight from the
exponents, and ``evaluation_matrix`` evaluates any functions through the same
evaluator. A ``LinearCode`` is its packed RREF array, built on first read
for a dual or a hull, whose dimension is known at once; ``evaluation_matrix``
and ``LinearCode.from_rows`` speak packed arrays too, and ``FieldElement``
rows appear only when ``LinearCode.generator`` is read, for printing.
``build_code`` tests an explicit D with ``curve.is_on_curve``; the standard D
(one per curve) is the curve's own point list. The dual has dimension n - k,
and its matrix comes from one elimination on min(k, n - k) rows. Duality is
decided, never assumed from a formula: an RREF basis is unique, so C(D, H)
is the dual of C(D, G) exactly when ``dual(C(D, G)) == C(D, H)``.

The hull dimension is the nullity of one Gram matrix B * B^T, B a basis of
the smaller of C and C-dual (Massey's criterion: for a full-rank B,
Hull = { xB : x B B^T = 0 }, and Hull(C) = Hull(C-dual)). The route through
two stacked n x n nullspaces gives the same canonical basis and is kept in
the tests as the second route. A code computes its hull once and keeps it,
and its dual shares it.

``min_distance`` tries two routes in turn, each while its count of words
fits the budget. For a code from ``build_code``, C(D, G) with deg G < n,
every nonzero word weighs at least n - deg G (the Goppa bound), so a word of
that weight among the messages of weight 1 and 2 on the pivot rows proves d,
once re-checked. Otherwise, and for a code with no provenance, the
enumeration of one message per 1-dimensional subspace gives d.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .curves import (AFFINE, Divisor, KummerCurve, Place, format_divisor,
                     gcd_divisor)
from .functions import _basis_rows, _monomial_logs, is_nonspecial
from .gf import FieldSpec, _kernel
from .semigroup import nonspecial_degree_g

__all__ = [
    "CodeProvenance",
    "LcdCertificate",
    "LinearCode",
    "MinDistanceResult",
    "build_code",
    "construction_divisors",
    "dual",
    "dual_partner_divisor",
    "evaluation_matrix",
    "hull",
    "hull_dimension_by_rank",
    "is_lcd",
    "is_self_orthogonal",
    "lcd_construct_maxcur",
    "maxcur_family_check",
    "min_distance",
    "one_point_hull_probe",
    "verify_hull_theorem",
]

# longest code build_code accepts: Hermitian q <= 9 (n = 720) fits, q = 11
# (n = 1320) does not
MAX_CODE_LENGTH = 1 << 10
DEFAULT_MINDIST_BUDGET = 1 << 24
# largest budget min_distance accepts, so no call enumerates more than 2^32
# messages
MAX_MINDIST_BUDGET = 1 << 32

# cells of the largest table min_distance holds at once: the combinations of
# the tail rows on the non-pivot columns and a head vector added to them
_MINDIST_TABLE_CELLS = 1 << 21


# ---------------------------------------------------------------------------
# code objects

@dataclass(frozen=True)
class CodeProvenance:
    """The (curve, D, G) that ``build_code`` built a code from, and nothing
    else: ``min_distance`` reads the Goppa bound n - deg G off it."""
    curve: KummerCurve
    D: Divisor
    G: Divisor


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A linear code, stored as its generator in reduced row echelon form.

    ``matrix`` is the read-only k x n array of packed elements. A code from
    ``from_rows`` or ``build_code`` holds it from the start; one from ``dual``
    or ``hull`` knows k at once and builds it the first time it is read.
    Codes are equal when their fields, column labels and matrices are; the
    provenance is not compared. Only ``build_code`` sets a provenance, so a
    code that has one is C(D, G) for its (curve, D, G). ``generator`` and the
    hull are built on first use, and a dual shares the hull of the code it
    was taken from.
    """
    field: FieldSpec
    k: int
    column_labels: tuple
    # returns the packed RREF on the first read of ``matrix``
    _build: Callable[[], np.ndarray] = dataclass_field(repr=False)
    provenance: Optional[CodeProvenance] = None
    # the code this one is the dual of: Hull(C-dual) = Hull(C)
    _dual_of: Optional["LinearCode"] = dataclass_field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.column_labels)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        packed = self._build()
        packed.setflags(write=False)
        return packed

    @functools.cached_property
    def generator(self) -> tuple:
        """The generator as k rows of ``FieldElement``, built on first use."""
        return tuple(tuple(map(self.field.unpack, row)) for row in self.matrix.tolist())

    @functools.cached_property
    def _hull(self) -> "LinearCode":
        if self._dual_of is not None:
            return self._dual_of._hull
        kern, gen = _kernel(self.field), self.matrix
        dual_side = 2 * self.k > self.n
        basis = _null_basis(kern, gen) if dual_side else gen
        null = kern.nullspace(kern.dot_t(basis, basis))

        def build():
            rows = kern.dot_t(null, basis.T)
            return kern.rref(rows)[0] if dual_side else rows

        return LinearCode(self.field, len(null), self.column_labels, build)

    @staticmethod
    def from_rows(spec: FieldSpec, rows, column_labels) -> "LinearCode":
        """The code spanned by rows, a k x n array-like of packed elements,
        with no provenance.

        Raises ValueError when a row's length is not the number of column
        labels or an entry lies outside [0, q).
        """
        n = len(column_labels)
        mat = np.asarray(rows)
        if not mat.size:
            mat = mat.reshape(len(mat), n)
        if mat.ndim != 2 or mat.shape[1] != n:
            raise ValueError("row length does not match the column labels")
        if mat.size and (mat.dtype.kind not in "iu" or mat.min() < 0
                         or mat.max() >= spec.order):
            raise ValueError(f"entries must be packed elements of {spec!r}, "
                             f"integers in [0, {spec.order})")
        reduced, _ = _kernel(spec).rref(mat)
        return _code_from_packed(spec, reduced, column_labels)

    def __eq__(self, other):
        if not isinstance(other, LinearCode):
            return NotImplemented
        return (self.field == other.field and self.column_labels == other.column_labels
                and self.k == other.k and np.array_equal(self.matrix, other.matrix))

    def __hash__(self):
        return hash((self.field, self.column_labels, self.matrix.tobytes()))

    def __repr__(self):
        return f"LinearCode[{self.n},{self.k}] over {self.field!r}"

    def __reduce__(self):
        # pickled with its array, not the function that builds it
        return _code_from_packed, (self.field, self.matrix, self.column_labels, self.provenance)


def _code_from_packed(spec: FieldSpec, packed: np.ndarray, column_labels,
                      provenance: Optional[CodeProvenance] = None) -> LinearCode:
    return LinearCode(spec, len(packed), tuple(column_labels), lambda: packed, provenance)


def _null_basis(kern, gen: np.ndarray) -> np.ndarray:
    """The unreduced basis of the dual read off an RREF generator."""
    return kern.null_basis(gen, (gen != 0).argmax(axis=1) if gen.size else [])


def evaluation_matrix(curve: KummerCurve, functions: Sequence,
                      places: Sequence[Place]) -> np.ndarray:
    """Function values at the given affine places, unreduced.

    One row per function, as an array of packed elements in the kernel's
    dtype (``spec.unpack`` gives each ``FieldElement``). Each term
    x^t * N(y) / prod_i (y - alpha_i)^(d_i) of a function contributes
    sum_j c_j exp(L_j), with L_j the ``functions`` log of x^t y^j / prod_i
    (y - alpha_i)^(d_i) at the place and c_j the coefficients of N. The
    matrix is one ``dot_t`` of the block-diagonal matrix of every function's
    nonzero coefficients with the values of their monomials. Raises ValueError
    at a place that is not affine and ZeroDivisionError where a denominator
    vanishes.
    """
    logs = _monomial_logs(curve, [(t, dens, len(num)) for f in functions
                                  for t, (num, dens) in f.terms.items()], places)
    kern = _kernel(curve.field)
    owner = np.array([i for i, f in enumerate(functions) for num, _ in f.terms.values()
                      for _ in num], dtype=np.intp)
    coeffs = np.array([c.n for f in functions for num, _ in f.terms.values() for c in num],
                      dtype=kern.dtype)
    used = coeffs.nonzero()[0]
    # block diagonal: row i holds function i's nonzero coefficients, one
    # column per monomial
    blocks = np.zeros((len(functions), len(used)), dtype=kern.dtype)
    blocks[owner[used], np.arange(len(used))] = coeffs[used]
    return kern.dot_t(blocks, kern.exp[logs[used]].T)


def _resolve_D(curve: KummerCurve, D) -> Tuple[Divisor, tuple]:
    """Accept a Divisor (canonical column order) or an explicit place sequence.
    The curve's standard D, or its own tuple of affine places, is taken as it
    stands: the standard D with ``affine_places()`` as its columns."""
    if curve.is_standard_D(D):
        return curve.standard_D(), curve.affine_places()
    if isinstance(D, Divisor):
        places = D.support
        if any(D[p] != 1 for p in places):
            raise ValueError("D must be a sum of distinct places, coefficient 1 each")
    else:
        places = tuple(D)
        if len(set(places)) != len(places):
            raise ValueError("D repeats a place")
        D = Divisor({p: 1 for p in places})
    if any(p.kind != AFFINE for p in places):
        raise ValueError("D must consist of affine places")
    return D, places


def build_code(curve: KummerCurve, D, G: Divisor) -> LinearCode:
    """C(D, G): the values of an L(G) basis at the points of D, row reduced.

    The rows are the values at D of the L(G) basis that ``functions``
    reads off the row reduction of the monomial values at G's simple zeros
    (affine places with coefficient -1). The code carries
    ``CodeProvenance(curve, D, G)``; no other constructor sets one. A D of
    more than ``MAX_CODE_LENGTH`` places raises ValueError.
    """
    D, places = _resolve_D(curve, D)
    n = len(places)
    if n > MAX_CODE_LENGTH:
        raise ValueError(f"code length n = {n} is above the cap "
                         f"MAX_CODE_LENGTH = {MAX_CODE_LENGTH}")
    if curve.is_standard_D(places):
        # the curve's own points, found on it once; only G's affine places can meet them
        if any(D[place] for place in G.support if place.kind == AFFINE):
            raise ValueError("supports of G and D must be disjoint")
    else:
        # the first failing place of D decides the message
        for place in places:
            if not curve.is_on_curve(place.a, place.b):
                raise ValueError(f"{place} does not lie on {curve.label}")
            if G[place]:
                raise ValueError("supports of G and D must be disjoint")
    if G.degree >= n:
        raise ValueError(f"deg G = {G.degree} must be below n = {n}")
    rows = _basis_rows(curve, G, places)[-1]
    code = LinearCode.from_rows(curve.field, rows, places)
    if code.k != len(rows):
        raise RuntimeError(
            "evaluation lost rank; this cannot happen while deg G < n")
    return _code_from_packed(curve.field, code.matrix, places, CodeProvenance(curve, D, G))


def dual(code: LinearCode) -> LinearCode:
    """Euclidean dual, of dimension n - k, sharing the hull of ``code``.

    Its matrix is built on first read, from one elimination on the smaller
    side: the ``nullspace`` of the k generator rows when k <= n - k, else the
    RREF of the n - k rows of the null basis read off them. Both give the
    unique canonical basis of the right kernel of the generator.
    """
    kern = _kernel(code.field)

    def build():
        gen = code.matrix
        if 2 * code.k > code.n:
            return kern.rref(_null_basis(kern, gen))[0]
        return kern.nullspace(gen)

    return LinearCode(code.field, code.n - code.k, code.column_labels, build,
                      _dual_of=code)


def hull(code: LinearCode) -> LinearCode:
    """C intersect C-dual: its dimension at once, its matrix on first read.

    For a full-rank basis B of C or of C-dual, whose hulls are the same, xB
    lies in the hull exactly when x B B^T = 0 (Massey's criterion), so the
    dimension is the nullity of B B^T, one elimination on the smaller side.
    With B the RREF generator G (k <= n - k), the hull has the basis N * G,
    N the RREF kernel basis of G G^T, already in RREF: on the pivot columns
    of G it equals N, and each row starts at the pivot of G that its leading
    1 in N selects. With B the null basis read off G, N * B is row reduced
    once. A code computes its hull once, and its dual shares it.
    """
    return code._hull


def hull_dimension_by_rank(code: LinearCode) -> int:
    """Second route: dim C + dim C-dual - rank of the stacked generators."""
    kern, gen = _kernel(code.field), code.matrix
    dual_gen = _null_basis(kern, gen)
    _, pivots = kern.rref(np.vstack([gen, dual_gen]))
    return code.k + len(dual_gen) - len(pivots)


def is_lcd(code: LinearCode) -> bool:
    return hull(code).k == 0


def is_self_orthogonal(code: LinearCode) -> bool:
    """C lies in C-dual exactly when Hull(C) = C."""
    return hull(code).k == code.k


# ---------------------------------------------------------------------------
# hull theorem verification and the maximal-family LCD construction

def verify_hull_theorem(code_G: LinearCode, code_H: LinearCode) -> dict:
    """Check numerically that Hull(C(D,G)) = C(D, gcd(G, H)) for C(D,G) and
    C(D,H) from ``build_code``, read off their provenance and columns.

    Requires ``dual(C(D,G)) == C(D,H)``; anything else means H is not the
    dual partner and raises ValueError, as does a code with no provenance.
    """
    if code_G.provenance is None or code_H.provenance is None:
        raise ValueError("both codes must come from build_code")
    if dual(code_G) != code_H:
        raise ValueError("C(D,H) is not the dual of C(D,G); wrong partner divisor")
    curve, G, H = code_G.provenance.curve, code_G.provenance.G, code_H.provenance.G
    g = curve.genus
    n = code_G.n
    A = gcd_divisor(G, H)
    hull_code = hull(code_G)
    gcd_nonspecial = is_nonspecial(curve, A)
    gcd_code = build_code(curve, code_G.column_labels, A)
    report = {
        "n": n,
        "dim_G": code_G.k,
        "dim_H": code_H.k,
        "duality_verified": True,
        "degree_window": 2 * g - 2 < G.degree < n,
        "gcd": format_divisor(A),
        "gcd_degree": A.degree,
        "gcd_degree_is_g_minus_1": A.degree == g - 1,
        "gcd_nonspecial": gcd_nonspecial,
        "hull_dimension": hull_code.k,
        "hull_matches_gcd_code": hull_code == gcd_code,
        "hull_trivial": hull_code.k == 0,
    }
    return report


def maxcur_family_check(curve: KummerCurve, allow_remark_family: bool = False):
    """Classify the curve for the dual-partner formula.

    Returns "maximal" when the constant field has square order Q^2, the
    defining roots form an additive subgroup of size r with 1 < r <= Q,
    m = Q + 1, and the point count attains Q^2 + 1 + 2gQ. With the remark
    family allowed, accepts Q + 1 <= m <= Q^2/2 - gcd(2, Q) + 1 with the
    point count attaining the Lewittes bound r*Q^2 + 1. Returns None if
    neither applies.
    """
    N = curve.field.order
    Q = math.isqrt(N)
    if Q * Q != N:
        return None
    roots = set(curve.alphas)
    zero = curve.field.zero
    if zero not in roots:
        return None
    if any(x + y not in roots for x in roots for y in roots):
        return None
    r = curve.r
    if not 1 < r <= Q:
        return None
    count = len(curve.rational_points())
    if curve.m == Q + 1 and count == N + 1 + 2 * curve.genus * Q:
        return "maximal"
    if allow_remark_family:
        upper = Q * Q // 2 - math.gcd(2, Q) + 1
        if Q + 1 <= curve.m <= upper and count == r * N + 1:
            return "lewittes-remark"
    return None


def _partner_total(curve: KummerCurve) -> Divisor:
    """K = (2g + r - 2) Pinf + sum_i (N - 2) P_i, N the field size."""
    N = curve.field.order
    return Divisor([(Place.infinity(), 2 * curve.genus + curve.r - 2)]
                   + [(Place.ramified(i), N - 2) for i in range(1, curve.r + 1)])


def dual_partner_divisor(curve: KummerCurve, G: Divisor,
                         allow_remark_family: bool = False) -> Divisor:
    """H = K - G, K = (2g + r - 2) Pinf + sum_i (N - 2) P_i, N the field size.

    Valid on the maximal family (and, behind the flag, the Lewittes remark
    family); C(D, H) is then the Euclidean dual of C(D, G) for the standard D.
    """
    if maxcur_family_check(curve, allow_remark_family) is None:
        raise ValueError(
            f"{curve.label} is outside the supported dual-partner families")
    return _partner(curve, G)


def _partner(curve: KummerCurve, G: Divisor) -> Divisor:
    """K - G for a curve already in a supported family."""
    for place in G.support:
        if place.kind == AFFINE:
            raise ValueError("G must be supported on ramified places and Pinf")
    return _partner_total(curve) - G


@dataclass(frozen=True)
class LcdCertificate:
    """Hypotheses and recomputed conclusions for one LCD construction run."""
    G: Divisor
    H: Optional[Divisor]
    gcdGH: Optional[Divisor]
    checks: dict
    family: Optional[str]

    @property
    def lcd(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


def lcd_construct_maxcur(curve: KummerCurve, G: Divisor,
                         allow_remark_family: bool = False):
    """Build C(standard_D, G) plus a certificate that it is LCD.

    Every hypothesis (family membership, degree windows, gcd of degree g - 1
    and non-special) and every conclusion (``dual(C(D, G)) == C(D, H)``,
    trivial hull) is recomputed; a failing hypothesis comes back as a False
    flag rather than an exception, with no LCD claim. C(D, G) and C(D, H)
    are built only when deg G, and then deg H, lie in [0, n); otherwise
    duality is not verified.
    On a supported family, a G with an affine place in its support raises
    ValueError, as in dual_partner_divisor: it is invalid input, not a flag.
    """
    family = maxcur_family_check(curve, allow_remark_family)
    checks = {"family_supported": family is not None}
    if family is None:
        return None, LcdCertificate(G=G, H=None, gcdGH=None, checks=checks,
                                    family=None)
    H = _partner(curve, G)
    A = gcd_divisor(G, H)
    g = curve.genus
    D = curve.standard_D()
    n = D.degree
    checks["degree_window"] = (2 * g - 2 < G.degree < n) and (2 * g - 2 < H.degree < n)
    checks["gcd_degree_is_g_minus_1"] = A.degree == g - 1
    checks["gcd_nonspecial"] = is_nonspecial(curve, A)
    code = build_code(curve, D, G) if 0 <= G.degree < n else None
    code_H = build_code(curve, D, H) if code is not None and 0 <= H.degree < n else None
    checks["duality_verified"] = code_H is not None and dual(code) == code_H
    checks["hull_trivial"] = code is not None and hull(code).k == 0
    return code, LcdCertificate(G=G, H=H, gcdGH=A, checks=checks, family=family)


def construction_divisors(kind: str, curve: KummerCurve) -> list:
    """The divisors G of the bundled LCD constructions: A + (K[P] + 1) P.

    A is the non-special divisor of degree g from ``nonspecial_degree_g``, K
    the partner total of ``dual_partner_divisor`` and P a place A misses, so
    gcd(G, K - G) = A - P has degree g - 1. P is the last ramified place or
    Pinf for hermitian (both variants returned), the last ramified place for
    curve1 and Pinf for curve2.
    """
    last, inf = Place.ramified(curve.r), Place.infinity()
    drop = {"hermitian": (last, inf), "curve1": (last,), "curve2": (inf,)}
    if kind not in drop:
        raise ValueError(f"unknown construction {kind!r}")
    A, K = nonspecial_degree_g(curve), _partner_total(curve)
    return [A + Divisor.of(P, K[P] + 1) for P in drop[kind]]


# ---------------------------------------------------------------------------
# minimum distance

@dataclass(frozen=True)
class MinDistanceResult:
    """``route`` names what proved an exact d: "goppa-witness" or
    "enumeration"; it is None when d is not exact, and ``exact`` reads it."""
    d: Optional[int]
    designed_bound: Optional[int]
    route: Optional[str] = None

    @property
    def exact(self) -> bool:
        return self.route is not None


def min_distance(code: LinearCode, budget: int = DEFAULT_MINDIST_BUDGET) -> MinDistanceResult:
    """Exact minimum weight from a witness at the Goppa bound or by message
    enumeration, each route within a workload budget.

    A code from ``build_code`` is C(D, G) with deg G < n, so every nonzero
    word weighs at least n - deg G, the Goppa bound, reported as the designed
    bound. First, while k + C(k, 2)(q - 1) <= budget, ``_witness_scan`` reads
    the words of the messages of weight 1 and 2 on the pivot rows; one on
    the bound proves d = n - deg G, once ``_check_witness`` has formed it
    again and confirmed its weight and its zero product with the dual basis
    (a failed check raises RuntimeError). Otherwise, when q^k <= budget, the
    enumeration visits one message per 1-dimensional subspace, the one whose
    first nonzero digit is 1: (q^k - 1)/(q - 1) words, since scalar
    multiples share a weight. The RREF generator copies a message onto its k
    pivot columns, so a word weighs as much as its message plus message . R,
    R the generator on its n - k non-pivot columns, which both routes keep
    by a boolean mask; the witness scan reads the pairs i < j in row-major
    order off the mask i < j too, with no numpy index helper, whose fixed
    cost outweighs the scan at small k. A code with no
    provenance has no bound and only the enumeration. Past both routes, d is
    None, flagged inexact. A budget above ``MAX_MINDIST_BUDGET`` raises
    ValueError.
    """
    if budget > MAX_MINDIST_BUDGET:
        raise ValueError(f"budget {budget} is above the cap "
                         f"MAX_MINDIST_BUDGET = 2^32 = {MAX_MINDIST_BUDGET}")
    if code.k == 0:
        raise ValueError("the zero code has no minimum distance")
    q, k = code.field.order, code.k
    designed = None
    if code.provenance is not None:
        designed = code.n - code.provenance.G.degree
        if k + math.comb(k, 2) * (q - 1) <= budget:
            weight, message = _witness_scan(code, designed)
            if weight <= designed:
                _check_witness(code, weight, message, designed)
                return MinDistanceResult(d=designed, designed_bound=designed,
                                         route="goppa-witness")
    if q ** k > budget:
        return MinDistanceResult(d=None, designed_bound=designed)
    return MinDistanceResult(d=_min_weight_enum(code), designed_bound=designed,
                             route="enumeration")


def _witness_scan(code: LinearCode, stop: int = 0) -> Tuple[int, Tuple[int, int, int]]:
    """Least weight over the messages of weight 1 and 2 whose first nonzero
    digit is 1, and one message (i, j, c) that reaches it: the word
    G_i + c * G_j, with j = i and c = 0 for a message of weight 1. Stops at
    the first block whose least weight is at most ``stop``.

    With R the generator on its w = n - k non-pivot columns, G_i weighs
    1 + w less the zeros of R_i, and G_i + c * G_j (i < j, c != 0) weighs
    2 + w less its zeros on R: the columns where R_i = R_j = 0, and the
    columns where c = -R_i / R_j. That ratio is a difference of logs mod q - 1, so one
    ``bincount`` of the pairs in a block counts the zeros of every c at once.
    A ratio costs up to 32 bytes at once (int32 logs, masks, the intp index
    that ``bincount`` takes, int64 counts), so a block holds at most
    ``_MINDIST_TABLE_CELLS`` / 32 of them: about as many bytes as the
    enumeration's tables of one-byte cells.
    """
    kern, gen = _kernel(code.field), code.matrix
    k, n = gen.shape
    width, units = n - k, kern.units
    rest = _non_pivot_columns(gen)
    zero = rest == 0
    row_zeros = zero.sum(axis=1)
    lead = int(row_zeros.argmax())
    best = 1 + width - int(row_zeros[lead]), (lead, lead, 0)
    if best[0] <= stop:
        return best
    # logs of -R and of R, narrow: their difference mod q - 1 is log c
    neg_log = kern.log[kern.neg[rest]].astype(np.int32)
    row_log = kern.log[rest].astype(np.int32)
    bins = units + 1
    first, second = _pairs(k)
    step = max(1, _MINDIST_TABLE_CELLS // (32 * max(width, bins)))
    for start in range(0, len(first), step):
        i, j = first[start:start + step], second[start:start + step]
        ratio = neg_log[i] - row_log[j]
        ratio %= units
        # bin ``units`` of each pair takes the columns where R_i or R_j is 0
        zero_i, zero_j = zero[i], zero[j]
        ratio[zero_i | zero_j] = units
        ratio += (np.arange(len(i), dtype=np.int32) * bins)[:, None]
        counts = np.bincount(ratio.ravel(), minlength=len(i) * bins).reshape(len(i), bins)
        scalar = counts[:, :units].argmax(axis=1)
        agree = counts[np.arange(len(i)), scalar] + (zero_i & zero_j).sum(axis=1)
        at = int(agree.argmax())
        weight = 2 + width - int(agree[at])
        if weight < best[0]:
            best = weight, (int(i[at]), int(j[at]), int(kern.exp[scalar[at]]))
            if weight <= stop:
                break
    return best


def _pairs(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of 0..k-1 in row-major order, as np.triu_indices(k, 1)
    lists them, read off the mask i < j."""
    return (np.arange(k)[:, None] < np.arange(k)).nonzero()


def _non_pivot_columns(gen: np.ndarray) -> np.ndarray:
    """An RREF generator on its n - k non-pivot columns, in order."""
    free = np.ones(gen.shape[1], dtype=bool)
    free[(gen != 0).argmax(axis=1)] = False
    return gen.compress(free, axis=1)


def _check_witness(code: LinearCode, weight: int, message: Tuple[int, int, int],
                   bound: int) -> None:
    """Form the word of ``message`` again with the kernel's add and mul, and
    raise RuntimeError unless it weighs ``weight``, lies in the code by a
    zero product with the null basis read off the generator, and does not
    fall below the Goppa bound."""
    kern, gen = _kernel(code.field), code.matrix
    i, j, c = message
    word = kern.add(gen[i], kern.mul(c, gen[j]))
    if (np.count_nonzero(word) != weight
            or kern.dot_t(word[None, :], _null_basis(kern, gen)).any()):
        raise RuntimeError(f"the witness G_{i} + {c} * G_{j} fails its re-check")
    if weight < bound:
        raise RuntimeError(f"a word of weight {weight} lies below the Goppa bound "
                           f"{bound}")


def _min_weight_enum(code: LinearCode) -> int:
    """Least weight over the messages whose first nonzero digit is 1.

    A message is a head on rows 0..s-1 and a tail on rows s..k-1 of R, and
    head . R + tail . R vanishes at a column exactly where tail . R equals
    -head . R. So a word weighs as much as its message plus n - k, less the
    columns where the two agree: the loop compares words and never adds
    them, and counts the agreements in int16 (n <= 1024).

    ``tail`` holds, one per column, every combination of rows s..k-1 of R,
    grown one row at a time while it fits in ``_MINDIST_TABLE_CELLS``; block
    1 of each step holds the words whose leading 1 sits at row s. ``heads``
    grows the same way from rows s-1, s-2, ..., u of -R while it fits under
    the cap too, and block 1 of the step at row u holds the negated heads
    that lead there. Each digit vector of the rows above u is one Python
    iteration, whose vector is added to all of ``heads``. Heads meet the
    tail in blocks whose comparison array also fits under the cap.
    """
    q = code.field.order
    kern = _kernel(code.field)
    gen = code.matrix
    k, n = gen.shape
    width = n - k
    rest = _non_pivot_columns(gen)
    neg_rest = kern.neg[rest]
    scalars = np.arange(q, dtype=kern.dtype)

    def grow(table, weight, row):
        """The table of c * row + t for c in GF(q), t in table: block c is
        table plus c * row; the weights count the nonzero digits."""
        multiples = kern.mul(row[:, None, None], scalars[None, :, None])
        table = kern.add(table[:, None, :], multiples).reshape(width, q * table.shape[1])
        return table, ((scalars != 0)[:, None] + weight).ravel()

    def least(tail, tail_weight, heads, head_weight) -> int:
        """Least weight of a word whose head and tail are columns of heads
        and tail."""
        step = max(1, _MINDIST_TABLE_CELLS // (max(1, width) * tail.shape[1]))
        out = n + 1
        for i in range(0, heads.shape[1], step):
            agree = (tail[:, None, :] == heads[:, i:i + step, None]).sum(axis=0, dtype=np.int16)
            out = min(out, int(((tail_weight - agree).min(axis=1) + head_weight[i:i + step]).min()))
        return width + out

    def fits(table) -> bool:
        return q * table.shape[1] * max(1, width) <= _MINDIST_TABLE_CELLS

    zero = np.zeros((width, 1), dtype=kern.dtype), np.zeros(1, dtype=np.int16)
    tail, tail_weight = zero
    best = n + 1
    s = k
    # the tail takes at most the last ceil(k / 2) rows, and the heads the
    # rest: both tables then stay small next to the q^k / (q - 1) words
    while s > k // 2 and fits(tail):
        s -= 1
        size = tail.shape[1]
        tail, tail_weight = grow(tail, tail_weight, rest[s])
        best = min(best, least(tail[:, size:2 * size], tail_weight[size:2 * size], *zero))
    heads, head_weight = zero
    u = s
    while u > 0 and fits(heads):
        u -= 1
        size = heads.shape[1]
        heads, head_weight = grow(heads, head_weight, neg_rest[u])
        best = min(best, least(tail, tail_weight, heads[:, size:2 * size],
                               head_weight[size:2 * size]))
    for lead in range(u):
        for digits in itertools.product(range(q), repeat=u - 1 - lead):
            head, weight = neg_rest[lead], 1
            for row, c in zip(neg_rest[lead + 1:u], digits):
                if c:
                    head = kern.add(head, kern.mul(c, row))
                    weight += 1
            best = min(best, least(tail, tail_weight, kern.add(heads, head[:, None]),
                                   head_weight + weight))
    return best


def one_point_hull_probe(curve: KummerCurve, alpha: int) -> int:
    """Hull dimension of C(standard_D, alpha * Pinf)."""
    D = curve.standard_D()
    if not 0 <= alpha < D.degree:
        raise ValueError("alpha must satisfy 0 <= alpha < n")
    code = build_code(curve, D, Divisor.of(Place.infinity(), alpha))
    return hull(code).k
