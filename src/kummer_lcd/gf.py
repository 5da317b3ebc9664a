"""Exact arithmetic in small finite fields GF(p^k).

An element has one representation: its packed base-p integer
n = sum_i c_i p^i, where c_0..c_(k-1) are its coefficients in the power basis
of a pinned monic irreducible modulus, so serialized values stay stable
across runs and machines. Each field builds all its tables when it is
constructed: one interned ``FieldElement`` per value, generator-power tables
(exp/log) for products, inverses, powers and the canonical element order
``0, g^0, g^1, ...``, negatives, and a Zech-log table for sums when p is odd
(an XOR when p = 2). Every table has O(q) entries. Coefficient tuples appear
only in the text forms and while the generator and the tables are found.
"""

from __future__ import annotations

import operator
import re
from typing import Optional, Sequence

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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial helpers over the prime field (little-endian coefficient lists)

def _ptrim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pdivmod(a: Sequence[int], b: Sequence[int], p: int):
    b = _ptrim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], -1, p)
    rem = list(a)
    _ptrim(rem)
    quo = [0] * max(0, len(rem) - len(b) + 1)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = (rem[-1] * inv_lead) % p
        quo[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
        _ptrim(rem)
    return quo, rem


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= k // 2."""
    k = len(modulus) - 1
    if k == 1:
        return True
    for d in range(1, k // 2 + 1):
        for code in range(p ** d):
            divisor = []
            c = code
            for _ in range(d):
                divisor.append(c % p)
                c //= p
            divisor.append(1)
            _, rem = _pdivmod(modulus, divisor, p)
            if not rem:
                return False
    return True


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
    # first monic irreducible of degree k in counting order of the low coeffs
    for code in range(p ** k):
        cand = []
        c = code
        for _ in range(k):
            cand.append(c % p)
            c //= p
        cand.append(1)
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise ValueError(f"no irreducible modulus found for GF({p}^{k})")


class FieldSpec:
    """The field GF(p^k) with a pinned modulus and multiplicative generator.

    Construction builds every table, indexed by packed elements, and nothing
    changes afterwards. ``log`` sends g^i to i and 0 to 2(q - 1); ``exp`` is
    the power table repeated twice and then padded with zeros, so
    ``exp[log[a] + log[b]]`` is a * b for every pair, zero included, with no
    reduction mod q - 1. ``neg`` holds the negatives. A sum is an XOR for
    p = 2 and a * (1 + b / a) through the Zech-log table log(1 + g^i) for odd p.
    """

    def __init__(self, p: int, k: int = 1, modulus: Optional[Sequence[int]] = None):
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        if p ** k > MAX_FIELD_SIZE:
            raise ValueError(f"field size {p}^{k} exceeds the supported desk scale")
        self.p = p
        self.k = k
        self.order = p ** k
        self.units = self.order - 1
        if modulus is None:
            modulus = _default_modulus(p, k)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not _is_irreducible(modulus, p):
            raise ValueError(f"modulus {list(modulus)} is reducible over GF({p})")
        self.modulus = modulus
        self._hash = hash((p, k, modulus))
        # reduction vectors: t^(k+i) mod modulus for i = 0 .. k-2
        red = []
        cur = [(-c) % p for c in modulus[:-1]]
        red.append(tuple(cur))
        for _ in range(k - 2):
            nxt = [0] + cur[:-1]
            top = cur[-1]
            if top:
                for i in range(k):
                    nxt[i] = (nxt[i] + top * red[0][i]) % p
            red.append(tuple(nxt))
            cur = nxt
        self._red = red
        self._build_tables(self._find_generator())

    # -- construction helpers ------------------------------------------------

    def _coerce_coeffs(self, value) -> tuple:
        """Coefficients of an element, an int or a coefficient sequence."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise ValueError("element belongs to a different field")
            return value.coeffs
        if isinstance(value, int):
            return (value % self.p,) + (0,) * (self.k - 1)
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.k:
            raise ValueError(f"too many coefficients for GF({self.p}^{self.k})")
        coeffs += [0] * (self.k - len(coeffs))
        return tuple(coeffs)

    def _tuple_mul(self, a: tuple, b: tuple) -> tuple:
        p, k = self.p, self.k
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] = (conv[i + j] + x * y) % p
        out = conv[:k]
        for i in range(k, 2 * k - 1):
            c = conv[i]
            if c:
                rv = self._red[i - k]
                for j in range(k):
                    out[j] = (out[j] + c * rv[j]) % p
        return tuple(out)

    def _tuple_pow(self, a: tuple, e: int) -> tuple:
        result = (1,) + (0,) * (self.k - 1)
        base = a
        while e:
            if e & 1:
                result = self._tuple_mul(result, base)
            base = self._tuple_mul(base, base)
            e >>= 1
        return result

    def _order_of(self, coeffs: tuple) -> int:
        if not any(coeffs):
            return 0
        one = (1,) + (0,) * (self.k - 1)
        order = self.units
        for q in _prime_factors(self.units):
            while order % q == 0 and self._tuple_pow(coeffs, order // q) == one:
                order //= q
        return order

    def _find_generator(self) -> tuple:
        if self.k >= 2:
            t = (0, 1) + (0,) * (self.k - 2)
            if self._order_of(t) == self.units:
                return t
        for packed in range(1, self.order):
            cand = self._digits(packed)
            if self._order_of(cand) == self.units:
                return cand
        raise AssertionError("no generator found; field construction is broken")

    def _build_tables(self, gen: tuple) -> None:
        p, q, units = self.p, self.order, self.units
        powers = []
        cur = (1,) + (0,) * (self.k - 1)
        for _ in range(units):
            powers.append(self._pack(cur))
            cur = self._tuple_mul(cur, gen)
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
        self.generator = self._by_packed[self._pack(gen)]

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

    def _pack(self, coeffs: tuple) -> int:
        return sum(c * self.p ** i for i, c in enumerate(coeffs))

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
        """Coerce an int (prime-subfield constant), str, or coeff sequence."""
        if isinstance(value, str):
            return parse_element(self, value)
        if isinstance(value, int):
            return self._by_packed[value % self.p]
        return self._by_packed[self._pack(self._coerce_coeffs(value))]

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


def GF(q: int, modulus: Optional[Sequence[int]] = None) -> FieldSpec:
    """Field with q = p^k elements; instances are cached per (q, modulus)."""
    key = (q, None if modulus is None else tuple(modulus))
    spec = _GF_CACHE.get(key)
    if spec is None:
        factors = _prime_factors(q)
        if len(factors) != 1:
            raise ValueError(f"{q} is not a prime power")
        p = factors[0]
        k = 0
        n = q
        while n > 1:
            n //= p
            k += 1
        if p ** k != q:
            raise ValueError(f"{q} is not a prime power")
        spec = FieldSpec(p, k, modulus)
        _GF_CACHE[key] = spec
    return spec


_GF_CACHE: dict = {}


def solve_additive(spec: FieldSpec, poly_coeffs: Sequence, c=None) -> set:
    """All y with F(y) = c, by exhaustive scan over the field.

    F is any univariate polynomial given by little-endian coefficients; the
    intended use is linearized F, whose fibers are kernel cosets.
    """
    coeffs = [spec.element(v) if not isinstance(v, FieldElement) else v
              for v in poly_coeffs]
    for v in coeffs:
        if v.spec != spec:
            raise ValueError("coefficient from a different field")
    target = spec.zero if c is None else spec.element(c)
    out = set()
    for y in spec.elements():
        acc = spec.zero
        for coeff in reversed(coeffs):
            acc = acc * y + coeff
        if acc == target:
            out.add(y)
    return out


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
