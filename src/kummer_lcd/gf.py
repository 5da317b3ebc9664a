"""Exact arithmetic in small finite fields GF(p^k).

An element has one representation: its packed base-p integer
n = sum_i c_i p^i, where c_0..c_(k-1) are its coefficients in the power basis
of a pinned monic irreducible modulus, so serialized values stay stable
across runs and machines. Each field builds all its tables when it is
constructed: one interned ``FieldElement`` per value, generator-power tables
(exp/log) for products, inverses, powers and the canonical element order
``0, g^0, g^1, ...``, negatives, and a Zech-log table for sums when p is odd
(an XOR when p = 2). Every table has O(q) entries. Coefficient tuples appear
only in the text forms.

A polynomial is a little-endian list of ``FieldElement``, and this module has
the one set of helpers for it (``_ptrim``, ``_pmul``, ``_pdivmod``,
``_peval``), each reading the field from its operands: the irreducibility
test of a modulus divides over GF(p)'s elements, ``solve_additive`` and
``FunctionElement.evaluate`` call ``_peval``, and ``functions`` keeps its
numerators in them; ``curves`` forms its defining product once, in a table.

All matrix work goes through one kernel, ``_Kernel``: numpy arrays of field
elements packed as base-p integers (``FieldElement.n``), uint8 while
q <= 256 and uint16 above; an index formed from them is widened to np.intp
before it can overflow. A product is one gather in the field's extended
exp/log tables. A sum is XOR when p = 2; for odd p it is one gather in a
q x q sum table while q^2 <= 2^21, and digit-wise addition mod p above
that. Row reduction is one fused pass per pivot, which eliminates the pivot
column and scales the pivot row together, and a nullspace is one row
reduction. Under the table cap an odd field row reduces in narrow lanes
(uint16, or uint32 for GF(3^6)), adding encoded multiples with one integer
add and renormalising every (2^bits - p) // (p - 1) pivots. Every field sum
along an axis is a product G * H^T (``dot_t``): an XOR reduction of the
gathered products for p = 2, and for odd p one float64 product of digit
planes, exact while k * n * (p - 1)^2 < 2^53. The kernel row reduces, takes
nullspaces and forms G * H^T; it reads only the ``FieldSpec`` tables, so
``functions`` and ``codes`` share it.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DEFAULT_MODULI",
    "FieldElement",
    "FieldSpec",
    "GF",
    "ParseError",
    "format_element",
    "format_element_pretty",
    "parse_element",
    "solve_additive",
]

MAX_FIELD_SIZE = 1 << 16


class ParseError(ValueError):
    """A text form (element, divisor, function, ...) failed to parse."""


def _split_top(text: str, sep: str) -> list:
    """re.split(f"({sep})", text), cutting only at the matches of the regex
    sep that lie outside () and []: [piece, cut, piece, ..., cut, piece]."""
    pieces, depth, start = [], 0, 0
    for match in re.finditer(r"[(\[]|[)\]]|" + sep, text):
        cut = match.group()
        if cut in "([":
            depth += 1
        elif cut in ")]":
            depth -= 1
        elif not depth:
            pieces += [text[start:match.start()], cut]
            start = match.end()
    return pieces + [text[start:]]


def _parse_int(text: str, message: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(message) from exc


def _least_factor(n: int) -> int:
    """The least factor d >= 2 of n, sought below 2^16 at most: n itself
    when there is none, which is exact for n < 2^32."""
    bound = min(math.isqrt(max(n, 0)), MAX_FIELD_SIZE)
    return next((d for d in range(2, bound + 1) if n % d == 0), n)


def _prime_factors(n: int) -> list:
    """The distinct prime factors of 1 <= n < 2^32, ascending."""
    out = []
    while n > 1:
        out.append(d := _least_factor(n))
        while n % d == 0:
            n //= d
    return out


# ---------------------------------------------------------------------------
# polynomials: little-endian lists of FieldElement, the field read from the
# coefficients (field construction, solve_additive and functions share them)

def _ptrim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _pmul(a: Sequence[FieldElement], b: Sequence[FieldElement]) -> list:
    if not a or not b:
        return []
    out = [a[0].spec.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return _ptrim(out)


def _pdivmod(a: Sequence[FieldElement], b: Sequence[FieldElement]):
    """(quotient, remainder) of a by b, the remainder trimmed and shorter than b."""
    b = _ptrim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = b[-1].inverse()
    rem = _ptrim(list(a))
    quo = [inv_lead.spec.zero] * max(0, len(rem) - len(b) + 1)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = rem[-1] * inv_lead
        quo[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] = rem[shift + i] - factor * c
        _ptrim(rem)
    return quo, rem


def _peval(a: Sequence[FieldElement], y: FieldElement) -> FieldElement:
    acc = y.spec.zero
    for coeff in reversed(a):
        acc = acc * y + coeff
    return acc


def _matrix_pow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    """m^e mod p for a square int64 matrix m with entries below p."""
    out = np.eye(len(m), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ m % p
        m = m @ m % p
        e >>= 1
    return out


def _monic(p: int, d: int):
    """Monic polynomials of degree d over GF(p) as int tuples, in counting
    order of their low coefficients read as base-p digits."""
    for code in range(p ** d):
        yield tuple(code // p ** i % p for i in range(d)) + (1,)


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= k // 2."""
    k = len(modulus) - 1
    if k == 1:
        # GF(p) itself is built through this case, so it must not touch GF(p)
        return True
    prime = GF(p).unpack
    a = [prime(c) for c in modulus]
    return all(_pdivmod(a, [prime(c) for c in divisor])[1]
               for d in range(1, k // 2 + 1) for divisor in _monic(p, d))


# Pinned moduli (little-endian, monic) for the (p, k) pairs the bundled
# curves use. The class of t is a primitive element for every entry; this is
# asserted by the test suite. Additional fields fall back to a deterministic
# search.
DEFAULT_MODULI = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 1): (0, 1),
    (3, 2): (2, 1, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (5, 1): (0, 1),
    (5, 2): (2, 4, 1),
    (7, 1): (0, 1),
    (7, 2): (3, 6, 1),
    (11, 1): (0, 1),
    (13, 1): (0, 1),
}


def _default_modulus(p: int, k: int) -> tuple:
    if (p, k) in DEFAULT_MODULI:
        return DEFAULT_MODULI[(p, k)]
    # the first monic irreducible of degree k in counting order; one exists
    # for every degree
    return next(cand for cand in _monic(p, k) if _is_irreducible(cand, p))


class FieldSpec:
    """The field GF(p^k) with a pinned modulus and multiplicative generator.

    Construction builds every table, indexed by packed elements, and nothing
    changes afterwards. ``log`` sends g^i to i and 0 to 2(q - 1); ``exp`` is
    the power table repeated twice and then padded with zeros, so
    ``exp[log[a] + log[b]]`` is a * b for every pair, zero included, with no
    reduction mod q - 1. ``neg`` holds the negatives. A sum is an XOR for
    p = 2 and a * (1 + b / a) through the Zech-log table log(1 + g^i) for odd p.

    The tables come from GF(p)-linear algebra on digit vectors: multiplying by
    c is the k x k matrix M_c = sum_i c_i T^i, T the companion matrix of the
    modulus. The generator g is the least packed value with M_g^((q - 1) / l)
    != I for every prime l dividing q - 1, so t when k > 1 and t generates.
    Its powers come by doubling: the digit rows of g^0 .. g^(n-1) times
    M_(g^n)^T mod p are those of g^n .. g^(2n-1), and M_(g^n) is squared after
    each step.
    """

    def __init__(self, p: int, k: int = 1, modulus: Optional[Sequence[int]] = None):
        # 2^k > MAX_FIELD_SIZE once k reaches its bit length, so p^k is formed
        # only while it is small, and before p is tested for primality
        if p > 1 and k > 0 and (k >= MAX_FIELD_SIZE.bit_length() or p ** k > MAX_FIELD_SIZE):
            raise ValueError(f"field size {p}^{k} exceeds the supported desk scale")
        if not (p >= 2 and _least_factor(p) == p):
            raise ValueError(f"characteristic {p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.order = p ** k
        self.units = self.order - 1
        # a default modulus is irreducible: pinned, or found by the same test
        if modulus is not None:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            if not _is_irreducible(modulus, p):
                raise ValueError(f"modulus {list(modulus)} is reducible over GF({p})")
        self.modulus = _default_modulus(p, k) if modulus is None else modulus
        self._hash = hash((p, k, self.modulus))
        self._build_tables(self._generator_matrix())

    # -- construction helpers ------------------------------------------------

    def _generator_matrix(self) -> np.ndarray:
        """M_g for the first packed value g with M_g^((q - 1) / l) != I for every
        prime l dividing q - 1."""
        p, k = self.p, self.k
        # T multiplies by t: t^j goes to t^(j+1), and t^(k-1) to -(m_0 .. m_(k-1))
        companion = np.eye(k, k, -1, dtype=np.int64)
        companion[:, -1] = [-c % p for c in self.modulus[:-1]]
        t_powers = np.array([_matrix_pow(companion, i, p) for i in range(k)])
        exponents = [self.units // l for l in _prime_factors(self.units)]
        # the packed values below p form GF(p), which holds no generator once
        # k > 1, so t = p comes first, then t + 1, ... in counting order
        for n in range(p if k > 1 else 1, self.order):
            gen = np.tensordot(self._digits(n), t_powers, axes=1) % p
            if all((_matrix_pow(gen, e, p) != t_powers[0]).any() for e in exponents):
                return gen
        raise AssertionError("no generator found; field construction is broken")

    def _build_tables(self, gen: np.ndarray) -> None:
        p, q, units = self.p, self.order, self.units
        # digit rows of g^0 .. g^(n-1); the rows times M_(g^n)^T are g^n .. g^(2n-1)
        powers, step = np.eye(1, self.k, dtype=np.int64), gen
        while len(powers) < units:
            powers = np.vstack([powers, powers @ step.T % p])
            step = step @ step % p
        powers = (powers[:units] @ p ** np.arange(self.k)).tolist()
        log = [2 * units] * q
        for i, packed in enumerate(powers):
            log[packed] = i
        exp = powers + powers + [0] * (2 * units + 1)
        # -1 = g^((q - 1) / 2) for odd p; -x = x for p = 2
        half = units // 2 if p > 2 else 0
        self.log, self.exp = log, exp
        self.neg = [exp[log[n] + half] for n in range(q)]
        if p == 2:
            self._add = operator.xor
        else:
            # 1 + x only changes the lowest digit of x
            self._zech = [log[n - n % p + (n + 1) % p] for n in powers]
            self._add = self._zech_add
        self._by_packed = [FieldElement(self, n) for n in range(q)]
        self._elements = (self._by_packed[0],) + tuple(self._by_packed[n] for n in powers)
        self.zero, self.one = self._by_packed[0], self._by_packed[1]
        self.generator = self._by_packed[exp[1]]

    def _zech_add(self, a: int, b: int) -> int:
        """a + b = a * (1 + b / a) for packed a, b and odd p."""
        if not a:
            return b
        if not b:
            return a
        log = self.log
        la = log[a]
        # a negative index reads zech[(log b - log a) mod (q - 1)]; a zero
        # sum has Zech log 2(q - 1), whose exp entry is 0
        return self.exp[la + self._zech[log[b] - la]]

    # -- packed-integer view (base-p digits) ----------------------------------

    def _digits(self, n: int) -> tuple:
        coeffs = []
        for _ in range(self.k):
            coeffs.append(n % self.p)
            n //= self.p
        return tuple(coeffs)

    def unpack(self, n: int) -> "FieldElement":
        return self._by_packed[n]

    def elements(self) -> tuple:
        """All p^k elements: zero first, then g^0, g^1, ..., g^(p^k - 2)."""
        return self._elements

    def enum_index(self, x) -> int:
        """Position of x in elements(); pins point and column orderings."""
        n = x.n
        return 0 if n == 0 else self.log[n] + 1

    # -- public element factory ----------------------------------------------

    def element(self, value) -> "FieldElement":
        """Coerce an element, an int (prime-subfield constant), a str or a coeff
        sequence; an element of another field raises ValueError."""
        if isinstance(value, FieldElement):
            if value.spec is not self and value.spec != self:
                raise ValueError("element belongs to a different field")
            return self._by_packed[value.n]
        if isinstance(value, str):
            return parse_element(self, value)
        if isinstance(value, int):
            return self._by_packed[value % self.p]
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.k:
            raise ValueError(f"too many coefficients for GF({self.p}^{self.k})")
        return self._by_packed[sum(c * self.p ** i for i, c in enumerate(coeffs))]

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


class FieldElement:
    """An element of a FieldSpec, stored as its packed base-p integer ``n``.

    Each field interns one instance per value; ``coeffs`` is a read-only view
    of the k power-basis coefficients.
    """

    __slots__ = ("spec", "n")

    def __init__(self, spec: FieldSpec, n: int):
        self.spec = spec
        self.n = n

    @property
    def coeffs(self) -> tuple:
        return self.spec._digits(self.n)

    def is_zero(self) -> bool:
        return not self.n

    def __bool__(self):
        return self.n != 0

    def _operand(self, other):
        """The packed value of other, or None when it is not an element or int."""
        if isinstance(other, FieldElement):
            if other.spec is not self.spec and other.spec != self.spec:
                raise ValueError("operands belong to different fields")
            return other.n
        if isinstance(other, int):
            return other % self.spec.p
        return None

    def __add__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        spec = self.spec
        return spec._by_packed[spec._add(self.n, b)]

    __radd__ = __add__

    def __neg__(self):
        spec = self.spec
        return spec._by_packed[spec.neg[self.n]]

    def __sub__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        spec = self.spec
        return spec._by_packed[spec._add(self.n, spec.neg[b])]

    def __rsub__(self, other):
        a = self._operand(other)
        if a is None:
            return NotImplemented
        spec = self.spec
        return spec._by_packed[spec._add(a, spec.neg[self.n])]

    def __mul__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        spec = self.spec
        log = spec.log
        return spec._by_packed[spec.exp[log[self.n] + log[b]]]

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if not self.n:
            raise ZeroDivisionError("inversion of zero")
        spec = self.spec
        return spec._by_packed[spec.exp[spec.units - spec.log[self.n]]]

    def __truediv__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return self * self.spec._by_packed[b].inverse()

    def __pow__(self, e: int):
        spec = self.spec
        if not self.n:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return spec.one if e == 0 else spec.zero
        return spec._by_packed[spec.exp[spec.log[self.n] * e % spec.units]]

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.n == other.n and (self.spec is other.spec or self.spec == other.spec)
        if isinstance(other, int):
            return self.n == other % self.spec.p
        return NotImplemented

    def __hash__(self):
        return hash(self.n)

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"{self.spec!r}:{format_element(self)}"


@functools.cache
def GF(q: int) -> FieldSpec:
    """The field with q = p^k elements under its default modulus, one instance
    per q; ``FieldSpec(p, k, modulus)`` takes any other modulus."""
    p = _least_factor(q)
    if p == q > MAX_FIELD_SIZE:
        # the search stops at 2^16, so q may as well be a product of larger primes
        raise ValueError(f"field size {q} exceeds MAX_FIELD_SIZE = {MAX_FIELD_SIZE} "
                         "and has no factor below 2^16")
    k = round(math.log(q, p)) if q > 1 else 0
    if k < 1 or p ** k != q:
        raise ValueError(f"{q} is not a prime power")
    return FieldSpec(p, k)


def solve_additive(spec: FieldSpec, poly_coeffs: Sequence, c=None) -> set:
    """All y with F(y) = c, by a scan over the field that sums, at each
    y = g^i, only the nonzero terms c_e y^e of F, as exp[log c_e + e i].

    F is any univariate polynomial given by little-endian coefficients; the
    intended use is linearized F, whose fibers are kernel cosets."""
    coeffs = [spec.element(v) for v in poly_coeffs]
    target = (spec.zero if c is None else spec.element(c)).n
    log, exp, units = spec.log, spec.exp, spec.units
    terms = [(e, log[a.n]) for e, a in enumerate(coeffs) if a]
    roots = {spec.unpack(exp[i]) for i in range(units) if functools.reduce(
        spec._add, [exp[lc + e * i % units] for e, lc in terms], 0) == target}
    return roots | ({spec.zero} if (coeffs[0].n if coeffs else 0) == target else set())


# ---------------------------------------------------------------------------
# text forms

def format_element(x: FieldElement) -> str:
    """Canonical text form: little-endian power-basis coefficients."""
    return "[" + ",".join(str(c) for c in x.coeffs) + "]"


def format_element_pretty(x: FieldElement) -> str:
    """Generator-power form (0, 1, a, a^j); decimal for prime fields."""
    spec = x.spec
    if spec.k == 1:
        return str(x.n)
    if x.is_zero():
        return "0"
    e = spec.enum_index(x) - 1
    if e == 0:
        return "1"
    if e == 1:
        return "a"
    return f"a^{e}"


def parse_element(spec: FieldSpec, text: str) -> FieldElement:
    """Parse the bracket form or the aliases 0, 1, a, a^j."""
    s, bad = text.strip(), f"bad field element {text!r}"
    if s.startswith("[") and s.endswith("]"):
        body = s[1:-1].strip()
        coeffs = [_parse_int(t.strip(), bad) for t in body.split(",")] if body else []
        if len(coeffs) != spec.k:
            raise ParseError(
                f"field element {text!r} needs exactly {spec.k} coefficients")
        return spec.element(coeffs)
    if s == "a":
        return spec.generator
    if s.startswith("a^"):
        return spec.generator ** _parse_int(s[2:], bad)
    return spec.element(_parse_int(s, bad))


# ---------------------------------------------------------------------------
# the matrix kernel: exact arithmetic on numpy arrays of packed elements

# cells of the largest intermediate array G * H^T builds at once: the cube
# of products for p = 2, and the float64 digit planes of one block for odd p
_DOT_CHUNK_CELLS = 1 << 16
_PLANE_CELLS = 1 << 18
# largest q^2-cell table the kernel builds, for products, odd-p sums and
# lane products; larger fields multiply through the logs and add digit by digit
_ADD_TABLE_CELLS = 1 << 21
# float64 holds every integer below 2^53, so a product of digit planes is
# exact while its sums stay below it
_EXACT_FLOAT = 1 << 53


class _Lanes(NamedTuple):
    """Narrow lanes for odd p: ``enc[n]`` holds digit i of n in bits
    [bits * i, bits * (i + 1)) of a uint16, or of a uint32 when 16 bits leave
    no room for one add. ``dec`` sends every word to the packed element whose
    digit i is lane i mod p, and ``norm`` is enc of dec. ``prod`` and ``exp``
    are the kernel's product tables encoded. A lane holds at most p - 1 after
    ``norm`` and gains at most p - 1 per added element, so ``every`` adds fit
    between two renormalisations: (2^bits - p) // (p - 1) of them."""
    enc: np.ndarray
    dec: np.ndarray
    norm: np.ndarray
    prod: np.ndarray
    exp: np.ndarray
    every: int


class _Kernel:
    """Vectorised GF(p^k) arithmetic, row reduction and products.

    ``dtype`` is the narrowest unsigned type that holds the packed elements:
    uint8 for q <= 256, uint16 up to 2^16. Every array of elements the kernel,
    ``codes`` and ``functions`` build has it. Logs are np.intp, which indexes
    without a conversion and holds the exponent sums of evaluation.
    ``log``, ``exp`` and ``neg`` are the field's own tables as arrays, so
    ``exp[log[a] + log[b]]`` is a * b for every pair, zero included, with no
    reduction mod q - 1 and no mask. While q^2 <= ``_ADD_TABLE_CELLS``,
    ``prod[a, b]`` is a * b, and ``rref`` gathers a pivot's factors and
    every multiple of its row from it; above the cap ``prod`` is None.
    ``rref`` reads its scalars from the lists of ``spec``. ``add`` is XOR for
    p = 2, a gather in the q^2-cell table of sums for odd p under the same
    cap, and the digit-wise sum above it: the int64 ``spread[n]`` has digit i
    of n at bit ``bits * i``, so two of them add each digit in its own lane
    with no carry, and shift, mask and mod p read it. An odd field under the
    cap also has ``lanes`` (see ``_Lanes``): 8 bits a digit for k = 2 (every
    126 adds for GF(9), 62 for GF(25), 41 for GF(49)), 4 for GF(81) (every
    6), and 3 in a uint32 for GF(3^6) (every 2); every other kernel has None.
    ``planes[i, n]`` is digit i of n as a float64, which ``dot_t`` reads.
    """

    def __init__(self, spec: FieldSpec):
        p, q = spec.p, spec.order
        self.spec, self.p = spec, p
        self.units = spec.units
        self.dtype = np.dtype(np.uint8 if q <= 256 else np.uint16)
        self.log = np.array(spec.log, dtype=np.intp)
        self.exp = np.array(spec.exp, dtype=self.dtype)
        self.neg = np.array(spec.neg, dtype=self.dtype)
        self.weights = [p ** i for i in range(spec.k)]
        values = np.arange(q, dtype=np.int64)
        tabled = q * q <= _ADD_TABLE_CELLS
        self.prod = self.mul(values[:, None], values[None, :]) if tabled else None
        self.lanes = None
        if p == 2:
            self.add = np.bitwise_xor
            return
        self.bits = min(62, 63 // spec.k)
        self.spread = self._encode(values, self.bits)
        self.planes = (values // np.reshape(self.weights, (-1, 1)) % p).astype(np.float64)
        if tabled:
            sums = self._digit_add(values[:, None], values[None, :]).ravel()
            # a narrow a times q would wrap: the index is formed in np.intp
            self.add = lambda a, b: sums[np.multiply(a, q, dtype=np.intp) + b]
            self.lanes = self._lane_tables(values)
        else:
            self.add = self._digit_add

    def _lane_tables(self, values) -> _Lanes:
        p, k = self.p, len(self.weights)
        bits, dtype = 16 // k, np.uint16
        if (1 << bits) - p < p - 1:
            # GF(3^6): 2 bits a digit hold no add; the decode table has 2^18 words
            bits, dtype = 21 // k, np.uint32
        enc = self._encode(values, bits).astype(dtype)
        dec = self._digits(np.arange(1 << bits * k, dtype=dtype), bits)
        return _Lanes(enc, dec, enc[dec], enc[self.prod], enc[self.exp],
                      ((1 << bits) - p) // (p - 1))

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]]

    def _encode(self, values, bits: int):
        """Each packed value with its digit i at bit bits * i."""
        return sum(values // w % self.p << bits * i for i, w in enumerate(self.weights))

    def _digits(self, lanes, bits: int):
        """The packed element whose digit i is lane i of lanes, mod p."""
        mask = (1 << bits) - 1
        return sum((lanes >> bits * i & mask) % self.p * w
                   for i, w in enumerate(self.weights)).astype(self.dtype)

    def _digit_add(self, a, b):
        return self._digits(self.spread[a] + self.spread[b], self.bits)

    def rref(self, mat) -> Tuple[np.ndarray, list]:
        """Reduced row echelon form of a copy of mat: (rank x n rows, pivots),
        one pass per pivot: with inv the inverse of the pivot entry, row i gains
        -m[i, col] * inv times the pivot row, and the pivot row inv - 1 times
        itself (a lead of 1). It XORs whole rows for p = 2 and adds m[:, col:]
        for odd p. With ``prod`` and at least q / 2 rows, the factors come from
        its row -inv and the multiples of the pivot row from its q rows;
        otherwise both from the logs. With ``lanes`` the matrix stays encoded:
        each pivot decodes its column and row, adds the encoded multiples with
        one integer add, and the columns right of it are renormalised after
        every ``lanes.every`` pivots. A swap copies two rows after the pass.
        A matrix with no rows comes back at once."""
        m = np.array(mat, dtype=self.dtype)
        rows, n = m.shape
        if not rows:
            return m, []
        spec, lanes = self.spec, self.lanes
        # the q multiples cost q rows of gathers, the logs about two per row of m
        table = self.prod if 2 * rows > self.units else None
        multiples, exp = table, self.exp
        if lanes is not None:
            m, exp, left = lanes.enc[m], lanes.exp, lanes.every
            multiples = None if table is None else lanes.prod
        pivots = []
        for col in range(n):
            rank = len(pivots)
            if rank == rows:
                break
            column = m[:, col] if lanes is None else lanes.dec.take(m[:, col])
            found = column[rank:].nonzero()[0]
            if not found.size:
                continue
            pivot = rank + int(found[0])
            inv = spec.exp[self.units - spec.log[column[pivot]]]
            if table is None:
                factors = self.exp[self.log[column] + spec.log[spec.neg[inv]]]
            else:
                factors = table[spec.neg[inv]].take(column)
            factors[pivot] = spec._add(inv, spec.neg[1])
            row = m[pivot, 0 if self.p == 2 else col:]
            if lanes is not None:
                row = lanes.dec.take(row)
            # prod is symmetric: its rows at the entries of row are its columns there
            products = (exp[self.log[factors][:, None] + self.log[row]] if table is None
                        else multiples.take(row, axis=0).T.take(factors, axis=0))
            if self.p == 2:
                m ^= products
            elif lanes is None:
                m[:, col:] = self.add(m[:, col:], products)
            else:
                m[:, col:] += products
                left -= 1
                if not left:
                    m[:, col + 1:] = lanes.norm.take(m[:, col + 1:])
                    left = lanes.every
            if pivot != rank:
                held = m[rank, col:].copy()
                m[rank, col:], m[pivot, col:] = m[pivot, col:], held
            pivots.append(col)
        m = m[:len(pivots)]
        return (m if lanes is None else lanes.dec.take(m)), pivots

    def null_basis(self, reduced: np.ndarray, pivots) -> np.ndarray:
        """Unreduced basis e_f - sum_p R[p, f] e_p (f free) of { v : R . v = 0 }, R an RREF.
        The free columns are those a boolean mask keeps off the pivots, in
        order: at a few pivots the mask costs a fraction of ``np.delete``."""
        n = reduced.shape[1]
        free = np.ones(n, dtype=bool)
        free[pivots] = False
        free = free.nonzero()[0]
        basis = np.zeros((free.size, n), dtype=self.dtype)
        basis[np.arange(free.size), free] = 1
        basis[:, pivots] = self.neg[reduced[:, free]].T
        return basis

    def nullspace(self, mat) -> np.ndarray:
        """Canonical (row reduced) basis of { v : mat . v = 0 }: the null basis
        of mat's RREF with its columns reversed, reversed on both axes, leads
        with a 1 at a free column and is nonzero elsewhere on pivots only."""
        reduced, pivots = self.rref(np.asarray(mat)[:, ::-1])
        return self.null_basis(reduced, pivots)[::-1, ::-1]

    def dot_t(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The matrix a . b^T, the kernel's one route for sums along an axis.
        For p = 2, the XOR reduction of the products gathered from the logs
        of a and b, rows of a in chunks under ``_DOT_CHUNK_CELLS``. For odd p,
        digit i of a . b^T is sum_j A_ij . B_j^T mod p, with B_j digit j of b
        and A_ij digit i of a * t^j: one float64 product of the stacked digit
        planes, exact while k * n * (p - 1)^2 < 2^53, so longer rows are cut
        into pieces that keep it. Rows of b are taken in blocks, and within
        each rows of a in chunks, whose digit planes stay under
        ``_PLANE_CELLS`` cells."""
        out = np.zeros((len(a), len(b)), dtype=self.dtype)
        n, k = a.shape[1], len(self.weights)
        if self.p == 2:
            log_a, log_b = self.log[a], self.log[b]
            step = max(1, _DOT_CHUNK_CELLS // max(1, b.size))
            for i in range(0, len(a), step):
                products = self.exp[log_a[i:i + step, None, :] + log_b]
                out[i:i + step] = np.bitwise_xor.reduce(products, axis=2)
            return out
        p = self.p
        width = max(1, (_EXACT_FLOAT - 1) // (k * (p - 1) ** 2))
        # t^j is the packed p^j
        shifts = np.reshape(self.weights, (-1, 1))
        block, step = (max(1, _PLANE_CELLS // (c * max(1, n))) for c in (k, k * k))
        for j in range(0, len(b), block):
            # digit j of b, as (j, column, row)
            right = self.planes.take(b[j:j + block].T, axis=1)
            for i in range(0, len(a), step):
                # digit i of a * t^j, as (i, row, j, column)
                left = self.planes.take(self.mul(a[i:i + step, None, :], shifts), axis=1)
                digits = sum(np.tensordot(left[..., s:s + width], right[:, s:s + width])
                             .astype(np.int64) % p for s in range(0, max(1, n), width)) % p
                out[i:i + step, j:j + block] = sum(w * d for w, d in zip(self.weights, digits))
        return out


@functools.lru_cache(maxsize=None)
def _kernel(spec: FieldSpec) -> _Kernel:
    return _Kernel(spec)
