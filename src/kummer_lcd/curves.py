"""Kummer-type curves prod_i (y - alpha_i) = x^m, their rational places, and
divisor arithmetic (degree, partial order, gcd, lmd).

Places are rational only: the r totally ramified places P_i over y = alpha_i,
the unique place Pinf over y = infinity, and the affine points P_(a,b) with
a != 0. Ramified indexing follows the order of the alphas sequence; affine
points are ordered by the field enumeration order of a, then b, and
generator-matrix columns inherit that order. The defining product is formed
in one place, a table of prod_i (b - alpha_i) at every packed b, built on
first need: the point list and ``is_on_curve`` (so ``build_code``) read it.
"""

from __future__ import annotations

import functools
import json
import math
import re
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .gf import (MAX_FIELD_SIZE, FieldElement, FieldSpec, GF, ParseError, _kernel,
                 _parse_int, _split_top, format_element, parse_element, solve_additive)

__all__ = [
    "Divisor",
    "KummerCurve",
    "Place",
    "builtin_curve",
    "curve_from_spec",
    "format_divisor",
    "gcd_divisor",
    "hermitian_curve",
    "hermitian_quotient_curve",
    "lifted_hermitian_curve",
    "lmd_divisor",
    "load_curve_spec",
    "norm_trace_curve",
    "parse_divisor",
    "parse_place",
]

# largest r * N of a curve, with r roots over GF(N): it bounds the root
# search of the additive families, the table of the defining product at every
# y (r * N products, built by the point listing or the first on-curve check)
# and the point listing, which finds at most r places above each x
# (hermitian q <= 64). It caps r * m too, as the gap set, the degree-g
# recipe and the L(G) components loop over m; every family has m < N.
MAX_CURVE_WORK = 1 << 18

RAMIFIED = "ramified"
INFINITY = "infinity"
AFFINE = "affine"


class Place:
    """A rational place: Ramified(i), Infinity, or Affine(a, b) with a != 0."""

    __slots__ = ("kind", "index", "a", "b", "_hash")

    def __init__(self, kind: str, index: int = 0, a: Optional[FieldElement] = None,
                 b: Optional[FieldElement] = None):
        self.kind = kind
        self.index = index
        self.a = a
        self.b = b
        # hashes the packed ints, so equal places (equal keys) hash alike
        self._hash = hash((kind, a.n, b.n) if kind == AFFINE else (kind, index))

    @staticmethod
    def ramified(index: int) -> "Place":
        if index < 1:
            raise ValueError("ramified places are indexed from 1")
        return Place(RAMIFIED, index=index)

    @staticmethod
    def infinity() -> "Place":
        return Place(INFINITY)

    @staticmethod
    def affine(a: FieldElement, b: FieldElement) -> "Place":
        if a.is_zero():
            raise ValueError("affine places require a != 0")
        return Place(AFFINE, a=a, b=b)

    def is_affine(self) -> bool:
        return self.kind == AFFINE

    def label(self) -> str:
        if self.kind == RAMIFIED:
            return f"P{self.index}"
        if self.kind == INFINITY:
            return "Pinf"
        return f"P({format_element(self.a)},{format_element(self.b)})"

    def sort_key(self):
        if self.kind == RAMIFIED:
            return (0, self.index, 0)
        if self.kind == AFFINE:
            spec = self.a.spec
            return (1, spec.enum_index(self.a), spec.enum_index(self.b))
        return (2, 0, 0)

    def _key(self):
        if self.kind == AFFINE:
            return (self.kind, self.a, self.b)
        return (self.kind, self.index)

    def __eq__(self, other):
        return isinstance(other, Place) and self._key() == other._key()

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.label()


class Divisor:
    """A sparse integer combination of places."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Union[Mapping, Iterable, None] = None):
        data: Dict[Place, int] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
            for place, c in items:
                c = int(c)
                if c:
                    data[place] = data.get(place, 0) + c
                    if not data[place]:
                        del data[place]
        self._coeffs = data

    @staticmethod
    def zero() -> "Divisor":
        return Divisor()

    @staticmethod
    def of(place: Place, coefficient: int = 1) -> "Divisor":
        return Divisor({place: coefficient})

    def __getitem__(self, place: Place) -> int:
        return self._coeffs.get(place, 0)

    def items(self):
        return tuple(sorted(self._coeffs.items(), key=lambda pc: pc[0].sort_key()))

    @property
    def support(self) -> tuple:
        return tuple(sorted(self._coeffs, key=lambda p: p.sort_key()))

    @property
    def degree(self) -> int:
        return sum(self._coeffs.values())

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self._coeffs.values())

    def __add__(self, other: "Divisor") -> "Divisor":
        data = dict(self._coeffs)
        for place, c in other._coeffs.items():
            data[place] = data.get(place, 0) + c
        return Divisor(data)

    def __neg__(self) -> "Divisor":
        return Divisor({p: -c for p, c in self._coeffs.items()})

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def __mul__(self, n: int) -> "Divisor":
        return Divisor({p: n * c for p, c in self._coeffs.items()})

    __rmul__ = __mul__

    def __le__(self, other: "Divisor") -> bool:
        places = set(self._coeffs) | set(other._coeffs)
        return all(self[p] <= other[p] for p in places)

    def __ge__(self, other: "Divisor") -> bool:
        return other.__le__(self)

    def __eq__(self, other):
        return isinstance(other, Divisor) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self):
        return format_divisor(self)


def gcd_divisor(a: Divisor, b: Divisor) -> Divisor:
    """Placewise minimum; absent places count as coefficient 0."""
    places = set(a._coeffs) | set(b._coeffs)
    return Divisor({p: min(a[p], b[p]) for p in places})


def lmd_divisor(a: Divisor, b: Divisor) -> Divisor:
    """Placewise maximum, so gcd + lmd = a + b."""
    places = set(a._coeffs) | set(b._coeffs)
    return Divisor({p: max(a[p], b[p]) for p in places})


class KummerCurve:
    """The function field of prod_{i=1..r} (y - alpha_i) = x^m with (r, m) = 1.

    The constant field is the full field of evaluation (so all listed places
    are rational). Standard valuations: v_{P_i}(x) = 1, v_{P_i}(y - alpha_i) = m,
    v_inf(x) = -r, v_inf(y) = -m; genus (m-1)(r-1)/2.
    """

    def __init__(self, field: FieldSpec, alphas: Sequence, m: int, label: str = ""):
        self.field = field
        coerced = tuple(field.element(a) for a in alphas)
        if len(set(coerced)) != len(coerced):
            raise ValueError("duplicate roots in the defining product")
        if not coerced:
            raise ValueError("at least one root is required")
        _check_curve_work(len(coerced), field.order)
        self.alphas = coerced
        self.r = len(coerced)
        self.m = int(m)
        if self.m < 1:
            raise ValueError("exponent m must be positive")
        _check_curve_work(self.r, self.m, "m")
        if math.gcd(self.r, self.m) != 1:
            raise ValueError(f"gcd(r, m) = gcd({self.r}, {self.m}) != 1")
        if self.m % field.p == 0:
            raise ValueError(
                "the exponent m must be coprime to the characteristic; "
                "ramification would be wild and the genus formula fails")
        self.label = label or f"kummer-r{self.r}-m{self.m}-gf{field.order}"

    @property
    def genus(self) -> int:
        return (self.m - 1) * (self.r - 1) // 2

    def ramified_index(self, i: int, error: type = ValueError) -> int:
        """i, the index of P_i; outside 1..r it raises error, which the
        parsers set to ParseError so that the CLI exits 2."""
        if not 1 <= i <= self.r:
            raise error(f"ramified index {i} out of range 1..{self.r}")
        return i

    def ramified_places(self) -> tuple:
        return tuple(Place.ramified(i) for i in range(1, self.r + 1))

    def infinity(self) -> Place:
        return Place.infinity()

    @functools.cached_property
    def _lhs(self) -> list:
        """_lhs[b] = prod_i (b - alpha_i), packed, for every packed b."""
        return [math.prod(b - alpha for alpha in self.alphas).n
                for b in map(self.field.unpack, range(self.field.order))]

    def is_on_curve(self, a: FieldElement, b: FieldElement) -> bool:
        """a != 0 and _lhs[b] = a^m; an element of another field raises ValueError."""
        spec = self.field
        if a.spec is not spec or b.spec is not spec:
            a, b = spec.element(a), spec.element(b)
        return a.n != 0 and self._lhs[b.n] == spec.exp[spec.log[a.n] * self.m % spec.units]

    @functools.cached_property
    def _points(self) -> tuple:
        points = [Place.infinity()]
        points.extend(self.ramified_places())
        # the b with prod (b - alpha_i) = c, for each packed c, in field order
        fibers: dict = {}
        for b in self.field.elements():
            fibers.setdefault(self._lhs[b.n], []).append(b)
        for a in self.field.elements()[1:]:
            points.extend(Place.affine(a, b) for b in fibers.get((a ** self.m).n, ()))
        return tuple(points)

    def rational_points(self) -> tuple:
        """All rational places: Pinf, P_1..P_r, then affine by (a, b) order."""
        return self._points

    def affine_places(self) -> tuple:
        """The affine places in point-list order: one tuple per curve."""
        return self._affine_places

    @functools.cached_property
    def _affine_places(self) -> tuple:
        return self._points[self.r + 1:]

    def divisor_of_x(self) -> Divisor:
        """(x) = sum_i P_i - r * Pinf."""
        data = {Place.ramified(i): 1 for i in range(1, self.r + 1)}
        data[Place.infinity()] = -self.r
        return Divisor(data)

    def divisor_of_y_minus_alpha(self, i: int) -> Divisor:
        """(y - alpha_i) = m * P_i - m * Pinf."""
        self.ramified_index(i)
        return Divisor({Place.ramified(i): self.m, Place.infinity(): -self.m})

    def standard_D(self) -> Divisor:
        """The sum of every affine place, the evaluation divisor throughout:
        one instance per curve, whose support is ``affine_places()``."""
        return self._standard_D

    @functools.cached_property
    def _standard_D(self) -> Divisor:
        return Divisor({p: 1 for p in self.affine_places()})

    def is_standard_D(self, D) -> bool:
        """Whether D is this curve's ``standard_D()`` or its ``affine_places()``
        tuple, by identity with the ones already built; neither is built here,
        so the points are not listed."""
        cached = vars(self)
        return any(D is cached[key] for key in ("_standard_D", "_affine_places")
                   if key in cached)

    def place_logs(self, places: Sequence[Place]) -> tuple:
        """(log a, log b, log(b - alpha_i)) at affine places P(a, b): np.intp
        arrays of shapes (n,), (n,) and (r, n) in the kernel's log table, where
        2(q - 1) is the log of 0. For the curve's own ``affine_places()``
        tuple, the logs kept with the curve, read-only. Raises ValueError at a
        place that is not affine."""
        if self.is_standard_D(places):
            return self._affine_logs
        if any(p.kind != AFFINE for p in places):
            raise ValueError("evaluation is defined at affine places only")
        return self._logs(places)

    def _logs(self, places: Sequence[Place]) -> tuple:
        kern = _kernel(self.field)
        a, b = np.array([(p.a.n, p.b.n) for p in places], dtype=kern.dtype).reshape(-1, 2).T
        diffs = kern.add(b, kern.neg[[alpha.n for alpha in self.alphas]][:, None])
        return kern.log[a], kern.log[b], kern.log[diffs]

    @functools.cached_property
    def _affine_logs(self) -> tuple:
        logs = self._logs(self.affine_places())
        for array in logs:
            array.setflags(write=False)
        return logs

    def _key(self):
        return (self.field, self.alphas, self.m)

    def __eq__(self, other):
        return isinstance(other, KummerCurve) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"KummerCurve({self.label!r}, r={self.r}, m={self.m}, genus={self.genus})"


# ---------------------------------------------------------------------------
# curve families used by the bundled constructions

def _check_curve_work(r: int, size: int, name: str = "N") -> None:
    if r * size > MAX_CURVE_WORK:
        raise ValueError(f"r * {name} = {r} * {size} = {r * size} is above the cap "
                         f"MAX_CURVE_WORK = {MAX_CURVE_WORK}")


def _admit(q: int, e: int, roots: Callable[[], int]) -> None:
    """Refuse a curve over GF(q^e) before any field table: first an e that
    alone puts q^e past MAX_FIELD_SIZE (q >= 2 gives q^e >= 2^e), before q^e
    is formed, then roots() * q^e above MAX_CURVE_WORK. roots() is asked only
    for 1 < q^e <= MAX_FIELD_SIZE; GF and FieldSpec refuse any other order
    with their own reason."""
    if q > 1 and e >= MAX_FIELD_SIZE.bit_length():
        raise ValueError(f"field size {q}^{e} exceeds the supported desk scale")
    if 0 < e < MAX_FIELD_SIZE.bit_length() and 1 < q ** e <= MAX_FIELD_SIZE:
        _check_curve_work(roots(), q ** e)


def _additive_curve(label: str, q: int, e: int, terms: Callable[[], tuple]) -> KummerCurve:
    """prod (y - alpha) = x^m over GF(q^e), alpha running over the roots of
    F(y) = sum of y^j for j in exponents, (exponents, m) = terms(), in field
    order. The curve has r = deg F roots. terms() is formed only once q and e
    have passed the field-size cap, so a family may put q^e in it."""
    _admit(q, e, lambda: max(terms()[0]))
    field = GF(q ** e)
    exponents, m = terms()
    poly = [0] * (max(exponents) + 1)
    for j in exponents:
        poly[j] = 1
    roots = solve_additive(field, poly)
    if len(roots) != len(poly) - 1:
        raise ValueError(
            f"additive polynomial for {label} has {len(roots)} roots in "
            f"{field!r}, expected {len(poly) - 1}")
    return KummerCurve(field, sorted(roots, key=field.enum_index), m, label=label)


def hermitian_curve(q: int) -> KummerCurve:
    """y^q + y = x^(q+1) over GF(q^2)."""
    return _additive_curve(f"hermitian-q{q}", q, 2, lambda: ((1, q), q + 1))


def hermitian_quotient_curve(q: int) -> KummerCurve:
    """y^(q/2) + y^(q/4) + ... + y = x^(q+1) over GF(q^2), for 4 | q."""
    if q % 4 != 0 or q & (q - 1):
        raise ValueError("this family needs q a power of 2 with 4 | q")
    return _additive_curve(f"curve1-q{q}", q, 2,
                           lambda: ([2 ** i for i in range(q.bit_length() - 1)], q + 1))


def lifted_hermitian_curve(q: int, r: int) -> KummerCurve:
    """y^q + y = x^(q^r + 1) over GF(q^(2r)), r odd."""
    if r % 2 == 0:
        raise ValueError("this family needs r odd")
    return _additive_curve(f"curve2-q{q}-r{r}", q, 2 * r, lambda: ((1, q), q ** r + 1))


def norm_trace_curve(q: int, r: int) -> KummerCurve:
    """y^(q^(r-1)) + ... + y^q + y = x^((q^r - 1)/(q - 1)) over GF(q^r)."""
    return _additive_curve(f"norm-trace-q{q}-r{r}", q, r,
                           lambda: ([q ** i for i in range(r)], (q ** r - 1) // (q - 1)))


# parameters are positive, as lcd-check's --q and --r must be: a zero is no
# family's name
_POSITIVE = r"0*([1-9]\d*)"
_BUILTIN_PATTERNS = (
    (re.compile(rf"^hermitian-q{_POSITIVE}$"), lambda m: hermitian_curve(int(m.group(1)))),
    (re.compile(rf"^curve1-q{_POSITIVE}$"),
     lambda m: hermitian_quotient_curve(int(m.group(1)))),
    (re.compile(rf"^curve2-q{_POSITIVE}-r{_POSITIVE}$"),
     lambda m: lifted_hermitian_curve(int(m.group(1)), int(m.group(2)))),
    (re.compile(rf"^norm-trace-q{_POSITIVE}-r{_POSITIVE}$"),
     lambda m: norm_trace_curve(int(m.group(1)), int(m.group(2)))),
)


@functools.cache
def builtin_curve(name: str) -> KummerCurve:
    """The bundled curve of a name like hermitian-q2 or curve2-q2-r3, one
    instance per name; the family builders make a new curve on each call.

    A name that matches no family is a ParseError; parameters that a family
    refuses are a ValueError that gives the family's reason."""
    for pattern, build in _BUILTIN_PATTERNS:
        match = pattern.match(name)
        if match:
            return build(match)
    raise ParseError(f"unknown builtin curve {name!r}")


# ---------------------------------------------------------------------------
# curve-spec files

def _ints(value) -> bool:
    return isinstance(value, list) and all(type(c) is int for c in value)


# what each curve-spec key must hold; a missing modulus or label takes its default
_SPEC_VALUES = {
    "p": ("an integer", lambda v: type(v) is int),
    "k": ("an integer", lambda v: type(v) is int),
    "m": ("an integer", lambda v: type(v) is int),
    "alphas": ("a list of integers, element texts or integer lists",
               lambda v: isinstance(v, list) and all(type(a) in (int, str) or _ints(a)
                                                     for a in v)),
    "modulus": ("a list of integers", lambda v: v is None or _ints(v)),
    "label": ("a string", lambda v: isinstance(v, str)),
}


def curve_from_spec(spec: Mapping) -> KummerCurve:
    """Build a curve from the JSON curve-spec schema.

    Schema: {"p": int, "k": int, "modulus": [c0..ck] (optional), "m": int,
             "alphas": [alpha, ...], "label": str (optional)}, where an alpha
    is an int, element text such as "a^2", or a coefficient list [c0..].
    A missing key, a value of the wrong type, or a modulus that is not k + 1
    entries long or (for p > 1) not monic, is a ParseError naming the key.
    """
    if not isinstance(spec, Mapping):
        raise ParseError("malformed curve spec: not a JSON object")
    spec = {"modulus": None, "label": "", **spec}
    for key, (kind, valid) in _SPEC_VALUES.items():
        if key not in spec:
            raise ParseError(f"malformed curve spec: missing key {key!r}")
        if not valid(spec[key]):
            raise ParseError(f"malformed curve spec: {key!r} must be {kind}")
    p, k, modulus = spec["p"], spec["k"], spec["modulus"]
    if k > 0 and modulus is not None:
        if len(modulus) != k + 1:
            raise ParseError(f"malformed curve spec: 'modulus' must have k + 1 = {k + 1} entries")
        # a p below 2 is no characteristic, and FieldSpec says so
        if p > 1 and modulus[-1] % p != 1:
            raise ParseError("malformed curve spec: 'modulus' must be monic: "
                             "its last entry must be 1 mod p")
    _admit(p, k, lambda: len(spec["alphas"]))
    field = FieldSpec(p, k, modulus)
    try:
        alphas = [field.element(a) for a in spec["alphas"]]
    except ValueError as exc:
        raise ParseError(f"malformed curve spec: 'alphas': {exc}") from exc
    return KummerCurve(field, alphas, spec["m"], label=spec["label"])


def load_curve_spec(path: str) -> KummerCurve:
    """The curve of a JSON spec file; a file that cannot be opened, decoded as
    UTF-8 or parsed (nesting too deep included) raises ParseError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return curve_from_spec(data)


# ---------------------------------------------------------------------------
# text forms

def format_divisor(d: Divisor) -> str:
    """Canonical text: ramified, affine, then Pinf, e.g. 1*P1+2*P2-1*Pinf."""
    if d.is_zero():
        return "0"
    parts = []
    for place, c in d.items():
        term = f"{abs(c)}*{place.label()}"
        if not parts:
            parts.append(("-" if c < 0 else "") + term)
        else:
            parts.append(("-" if c < 0 else "+") + term)
    return "".join(parts)


def parse_place(curve: KummerCurve, text: str) -> Place:
    s = text.strip()
    if s in ("Pinf", "P_inf", "Pinfinity"):
        return Place.infinity()
    match = re.match(r"^P(\d+)$", s)
    if match:
        return Place.ramified(curve.ramified_index(int(match.group(1)), ParseError))
    match = re.match(r"^P\((.+)\)$", s)
    if not match:
        raise ParseError(f"bad place {text!r}")
    coords = _split_top(match.group(1), ",")
    if len(coords) != 3:
        raise ParseError(f"bad affine place {text!r}")
    a, b = (parse_element(curve.field, c) for c in coords[::2])
    if not curve.is_on_curve(a, b):
        raise ValueError(f"point {text} does not lie on {curve.label}")
    return Place.affine(a, b)


def parse_divisor(curve: KummerCurve, text: str) -> Divisor:
    """Parse forms like 3*Pinf+1*P1-2*P2 or P1+P([0,1],[1,1])."""
    s = text.strip()
    if s == "0":
        return Divisor.zero()
    terms, sign, pieces = [], 1, _split_top(s, "[+-]")
    for cut, term in zip(["+"] + pieces[1::2], pieces[::2]):
        # a run of signs multiplies out, as in +-1*P1; a trailing sign is dropped
        sign *= -1 if cut == "-" else 1
        term = term.strip()
        if term:
            coeff_text, place_text = term.split("*", 1) if "*" in term else ("1", term)
            coeff = _parse_int(coeff_text.strip(), f"bad divisor coefficient in {term!r}")
            terms.append((parse_place(curve, place_text), sign * coeff))
            sign = 1
    return Divisor(terms)  # sums the coefficients of a repeated place
