"""Exact arithmetic in small finite fields GF(p^k).

Elements are coefficient vectors over GF(p) in the power basis of a pinned
monic irreducible modulus, so serialized values stay stable across runs and
machines. Each field lazily builds generator-power tables (exp/log) that give
fast inversion and the canonical element order ``0, g^0, g^1, ...``, plus the
lookup tables between elements and their packed base-p integers.
"""

from __future__ import annotations

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

    Immutable after construction; the exp/log tables are built lazily and
    assigned in one shot, so concurrent first use is harmless.
    """

    def __init__(self, p: int, k: int = 1, modulus: Optional[Sequence[int]] = None,
                 generator=None):
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        if p ** k > MAX_FIELD_SIZE:
            raise ValueError(f"field size {p}^{k} exceeds the supported desk scale")
        self.p = p
        self.k = k
        self.order = p ** k
        if modulus is None:
            modulus = _default_modulus(p, k)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not _is_irreducible(modulus, p):
            raise ValueError(f"modulus {list(modulus)} is reducible over GF({p})")
        self.modulus = modulus
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
        self.zero = FieldElement(self, (0,) * k)
        self.one = FieldElement(self, (1,) + (0,) * (k - 1))
        self._exp = None
        self._log = None
        self._elements = None
        if generator is None:
            gen_coeffs = self._find_generator()
        else:
            gen_coeffs = self._coerce_coeffs(generator)
            if self._order_of(gen_coeffs) != self.order - 1:
                raise ValueError("generator does not have full multiplicative order")
        self.generator = FieldElement(self, gen_coeffs)

    # -- construction helpers ------------------------------------------------

    def _coerce_coeffs(self, value) -> tuple:
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise ValueError("element belongs to a different field")
            return value.coeffs
        if isinstance(value, str):
            return parse_element(self, value).coeffs
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
        result = self.one.coeffs
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
        n = self.order - 1
        order = n
        for q in _prime_factors(n):
            while order % q == 0 and self._tuple_pow(coeffs, order // q) == self.one.coeffs:
                order //= q
        return order

    def _find_generator(self) -> tuple:
        if self.k >= 2:
            t = (0, 1) + (0,) * (self.k - 2)
            if self._order_of(t) == self.order - 1:
                return t
        for packed in range(1, self.order):
            cand = self._digits(packed)
            if self._order_of(cand) == self.order - 1:
                return cand
        raise AssertionError("no generator found; field construction is broken")

    # -- packed-integer view (base-p digits) ----------------------------------

    def _digits(self, n: int) -> tuple:
        coeffs = []
        for _ in range(self.k):
            coeffs.append(n % self.p)
            n //= self.p
        return tuple(coeffs)

    def pack(self, x) -> int:
        """The base-p integer sum_i c_i p^i of an element or coefficient tuple."""
        if self._exp is None:
            self._ensure_tables()
        return self._pack_index[x.coeffs if isinstance(x, FieldElement) else tuple(x)]

    def unpack(self, n: int) -> "FieldElement":
        if self._exp is None:
            self._ensure_tables()
        return self._by_packed[n]

    def _ensure_tables(self):
        if self._exp is not None:
            return
        by_packed = [FieldElement(self, self._digits(n)) for n in range(self.order)]
        pack_index = {x.coeffs: n for n, x in enumerate(by_packed)}
        n = self.order - 1
        exp = [0] * n
        log = [-1] * self.order
        cur = self.one.coeffs
        gen = self.generator.coeffs
        for i in range(n):
            packed = pack_index[cur]
            exp[i] = packed
            log[packed] = i
            cur = self._tuple_mul(cur, gen)
        elements = (by_packed[0],) + tuple(by_packed[e] for e in exp)
        # the _exp guard is assigned last so a concurrent first use never
        # observes a half-built table set
        self._by_packed, self._pack_index = by_packed, pack_index
        self._log, self._elements, self._exp = log, elements, exp

    def elements(self) -> tuple:
        """All p^k elements: zero first, then g^0, g^1, ..., g^(p^k - 2)."""
        self._ensure_tables()
        return self._elements

    def enum_index(self, x) -> int:
        """Position of x in elements(); pins point and column orderings."""
        packed = self.pack(x)
        return 0 if packed == 0 else self._log[packed] + 1

    def int_inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        self._ensure_tables()
        return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]

    # -- public element factory ----------------------------------------------

    def element(self, value) -> "FieldElement":
        """Coerce an int (prime-subfield constant), str, or coeff sequence."""
        return FieldElement(self, self._coerce_coeffs(value))

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


class FieldElement:
    """An element of a FieldSpec, stored as k reduced coefficients."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: tuple):
        self.spec = spec
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise ValueError("operands belong to different fields")
            return other
        if isinstance(other, int):
            return self.spec.element(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.spec.p
        return FieldElement(self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.spec.p
        return FieldElement(self.spec, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.spec.p
        return FieldElement(self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec._tuple_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        spec = self.spec
        return spec.unpack(spec.int_inv(spec.pack(self.coeffs)))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, e: int):
        spec = self.spec
        if self.is_zero():
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return spec.one if e == 0 else spec.zero
        e %= spec.order - 1
        return FieldElement(spec, spec._tuple_pow(self.coeffs, e))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.spec == other.spec and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == self.spec.element(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, self.coeffs))

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
        return str(x.coeffs[0])
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
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        body = s[1:-1].strip()
        parts = [t.strip() for t in body.split(",")] if body else []
        try:
            coeffs = [int(t) for t in parts]
        except ValueError as exc:
            raise ParseError(f"bad field element {text!r}") from exc
        if len(coeffs) != spec.k:
            raise ParseError(
                f"field element {text!r} needs exactly {spec.k} coefficients")
        return spec.element(coeffs)
    if s == "a":
        return spec.generator
    if s.startswith("a^"):
        try:
            e = int(s[2:])
        except ValueError as exc:
            raise ParseError(f"bad field element {text!r}") from exc
        return spec.generator ** e
    try:
        value = int(s)
    except ValueError as exc:
        raise ParseError(f"bad field element {text!r}") from exc
    return spec.element(value)
