"""Weierstrass semigroups at the totally ramified places, their minimal
generating sets, and the explicit non-special divisors of degrees g and g-1.

For tuples of ramified places the minimal generating set has a closed form
driven by floor counts in r and m. Membership in the semigroup can be decided
two independent ways: through least upper bounds of generators, and through
the dimension-jump criterion ell(A) = ell(A - P_j) + 1 for every j. L(A)
splits into m components whose sizes are floor sums (``functions``), and
dropping one pole at P_j changes only the component t = -alpha_j mod m, by
one; so the criterion reads those l component sizes alone. The test suite
checks the two routes agree box-exhaustively. alpha is 0 or a lub of generators
iff each alpha_i > 0 is attained by a generator gamma <= alpha, gamma_i = alpha_i:
(=>) the generators of a lub lie below it, and alpha_i is the largest gamma_i;
(<=) one attaining generator per i gives a lub <= alpha reaching every alpha_i.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Optional, Sequence

import numpy as np

from .curves import AFFINE, RAMIFIED, Divisor, KummerCurve, Place

__all__ = [
    "enumerate_nonspecial_degree_g",
    "floor_identity_checks",
    "gamma_plus_multi",
    "gap_set_single",
    "is_nonspecial_gns",
    "lub_closure_membership",
    "nonspecial_degree_g",
    "nonspecial_degree_g_minus_1",
    "semigroup_membership_oracle",
    "semigroup_multiplicity",
]

# _semigroup_box refuses to build boxes (bound + 1)^l with more cells (16 MB).
MAX_BOX_CELLS = 1 << 24
# gamma_plus_multi refuses generating sets with more vectors, counted first
MAX_GENERATORS = 1 << 18
# H(P_1..P_l) on a box, by (r, m, l): the semigroups depend on r and m alone
_BOXES: dict = {}


def gap_set_single(curve: KummerCurve) -> frozenset:
    """Gap set of any single ramified place; its size equals the genus."""
    return _gaps(curve.r, curve.m)


@functools.cache
def _gaps(r: int, m: int) -> frozenset:
    return frozenset(m * k + j for j in range(1, m - m // r)
                     for k in range(r - 1 - (r * j) // m))


def semigroup_multiplicity(curve: KummerCurve) -> int:
    """Least nonzero pole number at a ramified place."""
    gaps = gap_set_single(curve)
    return next(v for v in itertools.count(1) if v not in gaps)


def _max_tuple_size(curve: KummerCurve) -> int:
    return curve.r - curve.r // curve.m


def gamma_plus_multi(curve: KummerCurve, l: int) -> set:
    """Minimal-generating vectors for a tuple of l distinct ramified places.

    Valid for 2 <= l <= r - floor(r/m); outside that window the closed form
    is not established and the call is refused, as is a set counted above
    MAX_GENERATORS vectors.
    """
    m, r = curve.m, curve.r
    if not 2 <= l <= _max_tuple_size(curve):
        raise ValueError(
            f"tuple size {l} outside the supported range 2..{_max_tuple_size(curve)}")
    totals = [(j, total) for j in range(1, m - m // r) if (total := r - l - (r * j) // m) >= 0]
    count = sum(math.comb(total + l - 1, l - 1) for _, total in totals)
    if count > MAX_GENERATORS:
        raise ValueError(f"the generating set for {l} places has {count} vectors, "
                         f"above the cap MAX_GENERATORS = {MAX_GENERATORS}")
    return {tuple(m * s + j for s in comp) for j, total in totals
            for comp in _compositions(total, l)}


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _check_query(curve: KummerCurve, places: Sequence[int], alpha: Sequence[int]) -> tuple:
    """alpha as a tuple of ints, once places and alpha pass every check.

    The checks run in a fixed order on whole tuples, so the first failing
    check gives the message."""
    try:
        places, alpha = tuple(places), tuple(alpha)
        places, alpha = tuple(map(operator.index, places)), tuple(map(operator.index, alpha))
    except TypeError:
        raise ValueError(f"place indices and alpha entries must be integers, "
                         f"got {places} and {alpha}") from None
    if len(set(places)) != len(places):
        raise ValueError("places must be distinct")
    if places and not (1 <= min(places) and max(places) <= curve.r):
        for i in places:
            curve.ramified_index(i)
    if len(alpha) != len(places):
        raise ValueError("alpha and places must have the same length")
    if alpha and min(alpha) < 0:
        raise ValueError("alpha entries must be nonnegative")
    return alpha


def semigroup_membership_oracle(curve: KummerCurve, places: Sequence[int],
                                alpha: Sequence[int]) -> bool:
    """Dimension-jump membership test for alpha in H(P_i1, ..., P_il).

    alpha belongs to the semigroup iff dropping any one chosen place from
    A = sum_j alpha_j P_ij lowers ell by exactly one. Dropping P_ij changes
    only the component t = -alpha_j mod m of L(A), whose size
    1 + sum_i floor((alpha_i + t) / m) + floor(-r t / m) falls by one, so ell
    falls exactly when that size is at least one: l floor sums, O(l^2).
    """
    alpha = _check_query(curve, places, alpha)
    m, r = curve.m, curve.r
    for t in [-a % m for a in alpha]:
        size = 1 + (-r * t) // m
        for a in alpha:
            size += (a + t) // m
        if size < 1:
            return False
    return True


def _gamma_in_box(curve: KummerCurve, l: int, bound: int) -> list:
    """Nonzero minimal generators (all sub-tuples embedded) within a box.

    Entries come from single-place semigroups on every coordinate subset of
    size one, and from the closed-form vectors for larger subsets; vectors
    with any entry beyond `bound` cannot sit below a queried box element.
    """
    gens = []
    for size in range(1, l + 1):
        if size == 1:
            gaps = gap_set_single(curve)
            pieces = [(v,) for v in range(1, bound + 1) if v not in gaps]
        else:
            pieces = [vec for vec in gamma_plus_multi(curve, size) if max(vec) <= bound]
        for positions in itertools.combinations(range(l), size):
            for vec in pieces:
                out = [0] * l
                for pos, value in zip(positions, vec):
                    out[pos] = value
                gens.append(tuple(out))
    return gens


def _semigroup_box(curve: KummerCurve, l: int, bound: int) -> np.ndarray:
    """H(P_1..P_l) on [0, B]^l for some B >= bound, as a read-only boolean grid
    whose restriction to [0, bound]^l is H there. alpha is in H iff each alpha_i > 0
    is attained (module docstring): axis i keeps alpha_i = 0 and the generators'
    prefix ORs along every other axis. A box to build above MAX_BOX_CELLS is refused.
    """
    key = (curve.r, curve.m, l)
    grid = _BOXES.get(key)
    if grid is not None and grid.shape[0] > bound:
        return grid
    if (bound + 1) ** l > MAX_BOX_CELLS:
        raise ValueError(f"box [0, {bound}]^{l} has {(bound + 1) ** l} cells, "
                         f"above the cap of {MAX_BOX_CELLS}")
    gens = np.array(_gamma_in_box(curve, l, bound), dtype=np.intp).reshape(-1, l)
    grid = np.ones((bound + 1,) * l, dtype=bool)
    attained = np.empty_like(grid)
    for i in range(l):
        attained[...] = False
        attained[tuple(gens.T)] = True
        for j in set(range(l)) - {i}:
            np.logical_or.accumulate(attained, axis=j, out=attained)
        attained[(slice(None),) * i + (0,)] = True
        grid &= attained
    grid.flags.writeable = False
    _BOXES[key] = grid
    return grid


def lub_closure_membership(curve: KummerCurve, places: Sequence[int],
                           alpha: Sequence[int]) -> bool:
    """Membership via least upper bounds of minimal generators, for 1 <= l <= r - floor(r/m)."""
    alpha = _check_query(curve, places, alpha)
    l = len(places)
    if not 1 <= l <= _max_tuple_size(curve):
        raise ValueError(
            f"tuple size {l} outside the supported range 1..{_max_tuple_size(curve)}")
    return bool(_semigroup_box(curve, l, max(alpha))[alpha])


def is_nonspecial_gns(curve: KummerCurve, A: Divisor) -> bool:
    """Generating-set test: an effective degree-g divisor on ramified places
    is non-special when no nonzero minimal generator sits below it."""
    if not A.is_effective():
        raise ValueError("A must be effective")
    if A.degree != curve.genus:
        raise ValueError(f"A must have degree g = {curve.genus}")
    support = A.support
    if any(p.kind != RAMIFIED for p in support):
        raise ValueError("A must be supported on ramified places")
    if len(support) > _max_tuple_size(curve):
        raise ValueError("support too large for the closed-form generators")
    alpha = tuple(A[p] for p in support)
    if not alpha:
        return curve.genus == 0
    return not any(all(gv <= av for gv, av in zip(gen, alpha))
                   for gen in _gamma_in_box(curve, len(alpha), max(alpha)))


# ---------------------------------------------------------------------------
# explicit non-special divisors of degree g and g - 1

def _recipe_counts(curve: KummerCurve):
    """(s, top): s[j] places receive coefficient j, for 1 <= j <= top."""
    m, r = curve.m, curve.r
    top = m - 1 - m // r
    # s[j] = l_j - l_(j+1) with l_j = r - floor(rj / m), and s[top] = l_top - 1
    s = {j: (r * (j + 1)) // m - (r * j) // m for j in range(1, top)}
    if top >= 1:
        s[top] = r - (r * top) // m - 1
    return s, top


def nonspecial_degree_g(curve: KummerCurve,
                        assignment: Optional[Sequence[int]] = None) -> Divisor:
    """The effective non-special divisor of degree g on ramified places.

    The default assignment gives ascending multiplicities to ascending place
    indices. A custom assignment lists the place indices consumed in that
    order and must be injective.
    """
    s, top = _recipe_counts(curve)
    slots = [j for j in range(1, top + 1) for _ in range(s[j])]
    if assignment is None:
        assignment = list(range(1, len(slots) + 1))
    assignment = list(assignment)
    if len(assignment) != len(slots):
        raise ValueError(f"assignment must list {len(slots)} distinct places")
    if len(set(assignment)) != len(assignment):
        raise ValueError("assignment repeats a place")
    for i in assignment:
        curve.ramified_index(i)
    if sum(slots) != curve.genus:
        raise AssertionError("multiplicity pattern does not sum to the genus")
    return Divisor({Place.ramified(i): j for j, i in zip(slots, assignment)})


def enumerate_nonspecial_degree_g(curve: KummerCurve) -> set:
    """Every divisor the recipe can produce: nonspecial_degree_g(curve, a) over
    every injective assignment a."""
    size = sum(_recipe_counts(curve)[0].values())
    return {nonspecial_degree_g(curve, a)
            for a in itertools.permutations(range(1, curve.r + 1), size)}


def nonspecial_degree_g_minus_1(curve: KummerCurve, P: Place,
                                assignment: Optional[Sequence[int]] = None) -> Divisor:
    """A - P for the degree-g divisor A and any rational P outside supp A."""
    A = nonspecial_degree_g(curve, assignment)
    if A[P] != 0:
        raise ValueError(f"{P} lies in the support of the degree-g divisor")
    if P.kind == RAMIFIED:
        curve.ramified_index(P.index)
    elif P.kind == AFFINE and not curve.is_on_curve(P.a, P.b):
        raise ValueError(f"{P} does not lie on {curve.label}")
    return A - Divisor.of(P)


def floor_identity_checks(r: int, m: int) -> bool:
    """Floor-jump and floor-sum identities behind the degree count.

    (1) For 1 <= j <= m - 2 the difference floor(r(j+1)/m) - floor(rj/m)
        exceeds floor(r/m) by one exactly at j in {floor(km/t) : 1 <= k < t},
        t = r mod m. (At j = m - 1 the difference always jumps, which the
        degree count never uses.)
    (2) sum_{k=1}^{t-1} floor(km/t) = (m-1)(t-1)/2.
    """
    if math.gcd(r, m) != 1:
        raise ValueError("r and m must be coprime")
    t = r % m
    jump_set = {(k * m) // t for k in range(1, t)} if t else set()
    return (all((r * (j + 1)) // m - (r * j) // m == r // m + (j in jump_set)
                for j in range(1, m - 1))
            and (not t or sum((k * m) // t for k in range(1, t)) == (m - 1) * (t - 1) // 2))
