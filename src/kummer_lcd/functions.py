"""Riemann-Roch spaces on Kummer-type curves, exactly and at desk scale.

A function is stored in the canonical shape

    f = sum_{t=0}^{m-1} x^t * N_t(y) / prod_i (y - alpha_i)^{d_{t,i}}

with each y-part in lowest terms, the numerators N_t polynomials in the
curve's field under ``gf``'s polynomial helpers. This shape is closed under
the curve relation x^m = prod (y - alpha_i), which rewrites any power of x
into the window 0 <= t < m at the cost of shifting the (y - alpha_i)
exponents.

The key structural fact used everywhere: at each ramified place the term
x^t * h(y) has valuation congruent to t mod m, and at the infinite place
congruent to -r*t mod m. Since gcd(r, m) = 1 these are pairwise distinct for
t = 0..m-1, so a sum lies in L(G) exactly when every term does. That turns
L(G) for G supported on ramified places and Pinf into a direct sum of spaces
of bounded-degree polynomials in y over fixed denominators, computed below by
floor formulas. This module is the one place that knows that basis shape:
``_monomial_logs`` evaluates its monomials at affine places, and
``_basis_rows`` row-reduces their values at G's simple zeros (affine
coefficient -1) for ``ell``, ``riemann_roch_basis`` and ``codes.build_code``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import accumulate, zip_longest
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .curves import AFFINE, INFINITY, RAMIFIED, Divisor, KummerCurve, Place
from .gf import (FieldElement, ParseError, _kernel, _parse_int, _pdivmod, _peval, _pmul,
                 _ptrim, _split_top, format_element, parse_element)

__all__ = [
    "FunctionElement",
    "RRBasis",
    "ell",
    "format_function",
    "index_of_specialty",
    "is_nonspecial",
    "parse_function",
    "principal_divisor",
    "riemann_roch_basis",
    "valuation_ok",
]


# most monomials _basis_rows evaluates, codes.MAX_CODE_LENGTH, and largest
# numerator degree of a basis function; it bounds the polynomial arithmetic,
# quadratic in the y-degree, of building the basis
MAX_RR_DIMENSION = 1 << 10


def _strip_root(poly: Sequence[FieldElement], root: FieldElement,
                limit: Optional[int] = None) -> Tuple[int, Sequence[FieldElement]]:
    """Divide poly by (y - root) while it divides, at most limit times:
    (count, quotient)."""
    # y divides a trimmed poly once per low zero coefficient, and no other
    # y - root divides a trimmed monomial c * y^k
    if poly and poly[-1] and (not root or not any(poly[:-1])):
        low = 0 if root else next(k for k, c in enumerate(poly) if c)
        count = min(low, len(poly) if limit is None else limit)
        return count, (list(poly[count:]) if count else poly)
    count = 0
    while poly and (limit is None or count < limit):
        quo, rem = _pdivmod(poly, [-root, root.spec.one])
        if rem:
            break
        poly, count = quo, count + 1
    return count, poly


def _check_degree(degree: int) -> None:
    if degree > MAX_RR_DIMENSION:
        raise ValueError(f"a numerator of degree {degree} is above the cap "
                         f"MAX_RR_DIMENSION = {MAX_RR_DIMENSION}")


def _binomial_mod(n: int, k: int, p: int) -> int:
    """C(n, k) mod p, digit by base-p digit (Lucas's theorem)."""
    out = 1
    while out and k:
        out = out * math.comb(n % p, k % p) % p
        n, k = n // p, k // p
    return out


def _times_roots(num: Sequence[FieldElement], alphas: Sequence[FieldElement],
                 counts: Sequence[int]) -> Sequence[FieldElement]:
    """num * prod_i (y - alpha_i)^counts[i], each power expanded at once from
    its binomial coefficients mod p; a product whose degree would pass
    MAX_RR_DIMENSION raises ValueError before any factor is multiplied in."""
    if any(counts):
        _check_degree(len(num) - 1 + sum(counts))
    for alpha, e in zip(alphas, counts):
        if e:
            # the power comes first: _pmul skips its zero coefficients
            num = _pmul([(-alpha) ** (e - j) * _binomial_mod(e, j, alpha.spec.p)
                         for j in range(e + 1)], num)
    return num


class FunctionElement:
    """A function in canonical x-power shape, tied to its curve."""

    __slots__ = ("curve", "terms")

    def __init__(self, curve: KummerCurve, terms: Dict[int, Tuple[tuple, tuple]]):
        # terms: t -> (numerator coefficients, one denominator exponent per
        # root); coefficients are coerced into the curve's field, and a
        # negative exponent moves its factor into the numerator
        self.curve = curve
        spec = curve.field
        normalized: Dict[int, Tuple[tuple, tuple]] = {}
        for t, (num, dens) in terms.items():
            if not isinstance(t, int) or not 0 <= t < curve.m:
                raise ValueError("x-exponent out of the canonical window")
            dens = list(dens)
            if len(dens) != curve.r or not all(isinstance(d, int) for d in dens):
                raise ValueError(f"need {curve.r} integer denominator exponents, got {dens}")
            num = _ptrim([spec.element(c) for c in num])
            if not num:
                continue
            num = _times_roots(num, curve.alphas, [max(0, -d) for d in dens])
            for i, alpha in enumerate(curve.alphas):
                dens[i] = max(dens[i], 0)
                stripped, num = _strip_root(num, alpha, dens[i])
                dens[i] -= stripped
            normalized[t] = (tuple(num), tuple(dens))
        self.terms = normalized

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(curve: KummerCurve) -> "FunctionElement":
        return FunctionElement(curve, {})

    @staticmethod
    def one(curve: KummerCurve) -> "FunctionElement":
        return FunctionElement.monomial(curve, 0)

    @staticmethod
    def monomial(curve: KummerCurve, x_exp: int,
                 alpha_exps: Optional[Sequence[int]] = None,
                 y_poly: Optional[Sequence] = None) -> "FunctionElement":
        """x^x_exp * prod (y - alpha_i)^alpha_exps[i] * y_poly(y).

        Any integer x_exp is reduced into [0, m) through x^m = prod(y - alpha_i).
        """
        exps = alpha_exps if alpha_exps is not None else [0] * curve.r
        t = x_exp % curve.m
        shift = (x_exp - t) // curve.m
        num = y_poly if y_poly is not None else [curve.field.one]
        return FunctionElement(curve, {t: (num, [-e - shift for e in exps])})

    # -- predicates and linear structure ---------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FunctionElement") -> "FunctionElement":
        if self.curve != other.curve:
            raise ValueError("functions live on different curves")
        spec = self.curve.field
        terms: Dict[int, Tuple[tuple, tuple]] = dict(self.terms)
        for t, (num2, dens2) in other.terms.items():
            if t not in terms:
                terms[t] = (num2, dens2)
                continue
            num1, dens1 = terms[t]
            dens = tuple(max(d1, d2) for d1, d2 in zip(dens1, dens2))
            lifts = [_times_roots(num, self.curve.alphas, [d - e for e, d in zip(own, dens)])
                     for num, own in ((num1, dens1), (num2, dens2))]
            num = zip_longest(*lifts, fillvalue=spec.zero)
            terms[t] = (tuple(x + y for x, y in num), dens)
        return FunctionElement(self.curve, terms)

    def __neg__(self) -> "FunctionElement":
        return self * (-self.curve.field.one)

    def __sub__(self, other: "FunctionElement") -> "FunctionElement":
        return self + (-other)

    def __mul__(self, scalar) -> "FunctionElement":
        scalar = self.curve.field.element(scalar)
        if scalar.is_zero():
            return FunctionElement.zero(self.curve)
        terms = {t: (tuple(x * scalar for x in num), dens)
                 for t, (num, dens) in self.terms.items()}
        return FunctionElement(self.curve, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, FunctionElement)
                and self.curve == other.curve and self.terms == other.terms)

    def __repr__(self):
        return format_function(self)

    # -- evaluation and valuations ---------------------------------------------

    def evaluate(self, place: Place) -> FieldElement:
        """Value at an affine place; denominators cannot vanish there."""
        if place.kind != AFFINE:
            raise ValueError("evaluation is defined at affine places only")
        spec = self.curve.field
        a, b = place.a, place.b
        total = spec.zero
        for t, (num, dens) in self.terms.items():
            value = _peval(num, b)
            for alpha, d in zip(self.curve.alphas, dens):
                if d:
                    factor = b - alpha
                    if factor.is_zero():
                        raise ZeroDivisionError(
                            "denominator vanishes; the place is not on the curve")
                    value = value * (factor ** d).inverse()
            total = total + (a ** t) * value
        return total

    def __call__(self, place: Place) -> FieldElement:
        return self.evaluate(place)

    def valuation(self, place: Place) -> int:
        """Exact valuation at ramified places and Pinf.

        At an affine place the result is 0 (no zero) or 1 meaning "at least
        one"; exact vanishing orders at unramified points are not computed.
        """
        if self.is_zero():
            raise ValueError("the zero function has no valuation")
        curve = self.curve
        m, r = curve.m, curve.r
        if place.kind == RAMIFIED:
            # the order of the t-term at P_i is t + m * ord_(y - alpha_i)
            i = curve.ramified_index(place.index) - 1
            return min(t + m * (_strip_root(num, curve.alphas[i])[0] - dens[i])
                       for t, (num, dens) in self.terms.items())
        if place.kind == INFINITY:
            return min(-r * t + m * (sum(dens) - (len(num) - 1))
                       for t, (num, dens) in self.terms.items())
        return 0 if not self.evaluate(place).is_zero() else 1


def principal_divisor(f: FunctionElement) -> Divisor:
    """Divisor of a monomial-shaped function x^e * prod (y - alpha_i)^(c_i).

    Such functions never vanish at affine places, so the divisor is exact and
    supported on the ramified places and Pinf. Anything else is rejected.
    """
    if f.is_zero():
        raise ValueError("the zero function has no divisor")
    if len(f.terms) != 1:
        raise ValueError("only single-term functions have exact divisors here")
    curve = f.curve
    (poly, _), = f.terms.values()
    for alpha in curve.alphas:
        poly = _strip_root(poly, alpha)[1]
    if len(poly) != 1:
        raise ValueError("numerator is not a product of the (y - alpha_i)")
    return Divisor({P: f.valuation(P) for P in curve.ramified_places() + (Place.infinity(),)})


# ---------------------------------------------------------------------------
# Riemann-Roch spaces

@dataclass(frozen=True)
class RRBasis:
    divisor: Divisor
    functions: tuple
    dimension: int


def _split_divisor(curve: KummerCurve, G: Divisor):
    """Coefficients of G at ramified places / Pinf, plus affine -1 places."""
    ram = [0] * curve.r
    inf = 0
    simple_zeros = []
    for place, c in G.items():
        if place.kind == RAMIFIED:
            ram[curve.ramified_index(place.index) - 1] = c
        elif place.kind == INFINITY:
            inf = c
        else:
            if c != -1:
                raise ValueError(
                    "affine coefficients other than -1 are not supported "
                    f"(got {c} at {place})")
            if not curve.is_on_curve(place.a, place.b):
                raise ValueError(f"{place} does not lie on {curve.label}")
            simple_zeros.append(place)
    simple_zeros.sort(key=lambda p: p.sort_key())
    return ram, inf, simple_zeros


def _component_sizes(curve: KummerCurve, ram: Sequence[int], inf: int) -> list:
    """size[t] = sum_i floor((g_i + t) / m) + floor((inf - r t) / m) + 1 for
    t = 0..m-1, G with coefficients g_i in ram at ramified places (zeros may
    be left out) and inf at Pinf: the t-component of L(G) has dimension
    max(size[t], 0). With g_i = m d_i + rho_i, 0 <= rho_i < m, the floor sum
    is sum_i d_i + #{i : rho_i >= m - t}, one histogram of the rho_i and one
    running sum over t, so the profile costs O(r + m)."""
    m, r = curve.m, curve.r
    base, hist = 1, [0] * m
    for g in ram:
        if g:
            d, rho = divmod(g, m)
            base += d
            hist[rho] += 1
    return [base + above + (inf - r * t) // m
            for t, above in enumerate(accumulate([0] + hist[:0:-1]))]


def _term_bounds(curve: KummerCurve, ram: Sequence[int], inf: int):
    """(t, n_t, size) for each nonempty t-component of L(G), G with coefficients
    ram at P_1..P_r and inf at Pinf: its basis is x^t y^k / prod_i (y - alpha_i)^(n_it),
    k < size."""
    m = curve.m
    for t, size in enumerate(_component_sizes(curve, ram, inf)):
        if size > 0:
            yield t, [(g + t) // m for g in ram], size


def _monomial_logs(curve: KummerCurve, components, places: Sequence[Place]) -> np.ndarray:
    """Logs of x^t y^k / prod_i (y - alpha_i)^(d_i) at affine places P(a, b),
    one row per (t, d, size) in components and k < size: (t log a + k log b
    - sum_i d_i log(b - alpha_i)) mod (q - 1), and 2(q - 1), the log of 0,
    where b = 0 < k. A d_i < 0 needs b != alpha_i, as on the curve; a d_i > 0
    there raises ZeroDivisionError, and a place that is not affine ValueError.
    """
    log_a, log_b, log_diffs = curve.place_logs(places)
    if not components or not places:
        return np.zeros((sum(size for *_, size in components), len(places)), dtype=np.intp)
    units = curve.field.units
    t, d, size = zip(*components)
    vanishing = log_diffs == 2 * units
    if vanishing.any() and any(row[i] > 0 for i in np.flatnonzero(vanishing.any(axis=1))
                               for row in d):
        raise ZeroDivisionError("denominator vanishes; the place is not on the curve")
    # exponents are reduced mod q - 1 as Python ints: an n_t,i past 2^63 fits
    t, size = np.array(t, dtype=np.intp), np.array(size, dtype=np.intp)
    d = np.array([[e % units for e in row] for row in d], dtype=np.intp)
    k = np.arange(size.sum()) - (size.cumsum() - size).repeat(size)
    logs = ((t[:, None] * log_a - d @ log_diffs).repeat(size, axis=0)
            + k[:, None] * log_b) % units
    b_zero = log_b == 2 * units
    if b_zero.any():
        logs[np.ix_(k > 0, b_zero)] = 2 * units
    return logs


def _basis_rows(curve: KummerCurve, G: Divisor, places: Sequence[Place] = ()):
    """(components, R, pivots, free, rows): with m_0, m_1, ... the monomials of
    the ``_term_bounds`` components of G off its simple zeros and (R, pivots)
    the RREF of their values there, L(G) has the basis m_f - sum_p R[p, f] m_p
    over the free columns f, whose values at places are the rows. More than
    ``MAX_RR_DIMENSION`` monomials raise ValueError before any is evaluated;
    the dimension self-test runs on the number of free columns, which a
    boolean mask keeps off the pivots, as in ``null_basis``. With no
    simple zeros R has no rows, every column is free and nothing is reduced."""
    ram, inf, zeros = _split_divisor(curve, G)
    components = list(_term_bounds(curve, ram, inf))
    if (count := sum(size for *_, size in components)) > MAX_RR_DIMENSION:
        raise ValueError(f"ell = {count} basis functions is above the cap "
                         f"MAX_RR_DIMENSION = {MAX_RR_DIMENSION}")
    kern, n = _kernel(curve.field), len(places)
    values = kern.exp[_monomial_logs(curve, components,
                                     tuple(places) + tuple(zeros) if zeros else places)]
    reduced, pivots, free = values[:, n:].T, [], np.ones(len(values), dtype=bool)
    if zeros:
        reduced, pivots = kern.rref(reduced)
        free[pivots] = False
    free = free.nonzero()[0]
    _check_dimension(curve, G, len(free))
    rows = values[free, :n]
    if pivots and n:
        rows = kern.add(rows, kern.dot_t(kern.neg[reduced[:, free]].T, values[pivots, :n].T))
    return components, reduced, pivots, free, rows


def riemann_roch_basis(curve: KummerCurve, G: Divisor) -> RRBasis:
    """An explicit basis of L(G) = { f : (f) >= -G }.

    G may carry arbitrary integers at ramified places and Pinf, and -1 at
    affine places (a required simple zero, imposed as a linear constraint).
    The construction is validated on the spot against the exact dimension
    count deg G + 1 - genus whenever deg G > 2g - 2. More than
    ``MAX_RR_DIMENSION`` monomials, or a component whose numerators reach a
    degree above it, raise ValueError before any function is built.
    """
    components, reduced, pivots, _, _ = _basis_rows(curve, G)
    # the numerator of a t-component takes the factor (y - alpha_i) -n_t,i times
    _check_degree(max((size - 1 + sum(max(0, -n) for n in n_t)
                       for _, n_t, size in components), default=0))
    spec = curve.field
    coeffs = _kernel(spec).null_basis(reduced, pivots)
    terms = [{} for _ in coeffs]
    for (t, n_t, size), block in zip(components, np.split(
            coeffs, list(accumulate(size for *_, size in components))[:-1], axis=1)):
        lift = _times_roots([spec.one], curve.alphas, [max(0, -n) for n in n_t])
        dens = [max(0, n) for n in n_t]
        for function, row in zip(terms, block.tolist()):
            if num := _ptrim([spec.unpack(c) for c in row]):
                function[t] = (_pmul(num, lift), dens)
    functions = tuple(FunctionElement(curve, function) for function in terms)
    return RRBasis(divisor=G, functions=functions, dimension=len(functions))


def _check_dimension(curve: KummerCurve, G: Divisor, dim: int) -> None:
    """Riemann's theorem as a self-test: deg G > 2g - 2 forces dim = deg G + 1 - g."""
    g = curve.genus
    if G.degree > 2 * g - 2 and dim != G.degree + 1 - g:
        raise RuntimeError(
            f"L-space dimension self-test failed on {curve.label}: "
            f"deg G = {G.degree}, genus {g}, got {dim}")


def _ell_fast(curve: KummerCurve, ram: Sequence[int], inf: int) -> int:
    return sum(size for size in _component_sizes(curve, ram, inf) if size > 0)


def ell(curve: KummerCurve, G: Divisor) -> int:
    """dim L(G); closed form unless G constrains affine points."""
    ram, inf, simple_zeros = _split_divisor(curve, G)
    if not simple_zeros:
        return _ell_fast(curve, ram, inf)
    return len(_basis_rows(curve, G)[3])


def index_of_specialty(curve: KummerCurve, G: Divisor) -> int:
    return ell(curve, G) - (G.degree + 1 - curve.genus)


def valuation_ok(curve: KummerCurve, f: FunctionElement, G: Divisor) -> bool:
    """Membership test f in L(G) at the ramified places and Pinf.

    Sufficient for exactness when f never vanishes at constrained affine
    points, which holds for every monomial-shaped function.
    """
    if f.is_zero():
        return True
    for i in range(1, curve.r + 1):
        place = Place.ramified(i)
        if f.valuation(place) < -G[place]:
            return False
    return f.valuation(Place.infinity()) >= -G[Place.infinity()]


def is_nonspecial(curve: KummerCurve, G: Divisor) -> bool:
    return index_of_specialty(curve, G) == 0


# ---------------------------------------------------------------------------
# text form: "x^t*(poly)/(den)" terms joined by " + "

def format_function(f: FunctionElement) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for t in sorted(f.terms):
        num, dens = f.terms[t]
        monos = [f"{format_element(c)}*y^{k}"
                 for k, c in enumerate(num) if not c.is_zero()]
        text = f"x^{t}*(" + " + ".join(monos) + ")"
        den_parts = [f"(y-{format_element(alpha)})^{d}"
                     for alpha, d in zip(f.curve.alphas, dens) if d > 0]
        if den_parts:
            text += "/(" + "*".join(den_parts) + ")"
        parts.append(text)
    return " + ".join(parts)


# a term x^t*(numerator)/(denominator) and a denominator factor (y-alpha)^d
_TERM = re.compile(r"x\^(\d+)(?:\*\(([^()]*)\))?(?:/\(((?:[^()]|\([^()]*\))*)\))?", re.S)
_FACTOR = re.compile(r"\(y-([^()]*)\)\^(.*)", re.S)


def parse_function(curve: KummerCurve, text: str) -> FunctionElement:
    """Parse the canonical text form produced by format_function."""
    s = text.strip()
    if s == "0":
        return FunctionElement.zero(curve)
    spec = curve.field
    total = FunctionElement.zero(curve)
    for part in _split_top(s, r" \+ ")[::2]:
        term = _TERM.fullmatch(part.strip())
        if not term:
            raise ParseError(f"bad function term {part.strip()!r}")
        t_text, num_text, den_text = term.groups()
        num = [spec.one]
        if num_text is not None:
            coeffs: Dict[int, FieldElement] = {}
            for mono in _split_top(num_text, r" \+ ")[::2]:
                mono = mono.strip()
                coeff_text, _, power_text = mono.rpartition("*y^")
                if not coeff_text:
                    raise ParseError(f"bad polynomial term {mono!r}")
                power = _parse_int(power_text, f"bad polynomial term {mono!r}")
                if power < 0 or power in coeffs:
                    raise ParseError(f"bad polynomial term {mono!r}: negative or repeated power")
                coeffs[power] = parse_element(spec, coeff_text)
            num = [coeffs.get(k, spec.zero) for k in range(max(coeffs) + 1)]
        exps = [0] * curve.r
        for factor in _split_top(den_text, r"\*")[::2] if den_text is not None else ():
            bad = f"bad denominator factor {factor.strip()!r}"
            match = _FACTOR.fullmatch(factor.strip())
            if not match:
                raise ParseError(bad)
            alpha = parse_element(spec, match.group(1))
            if alpha not in curve.alphas:
                raise ParseError(f"{alpha} is not a root of the curve")
            if (exp := _parse_int(match.group(2), bad)) < 0:
                raise ParseError(f"{bad}: negative exponent")
            exps[curve.alphas.index(alpha)] += exp
        total = total + FunctionElement(curve, {int(t_text): (tuple(num), tuple(exps))})
    return total
