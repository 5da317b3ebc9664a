import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kummer_lcd import (GF, FieldSpec, ParseError, format_element,
                        format_element_pretty, parse_element, solve_additive)
from kummer_lcd.gf import DEFAULT_MODULI, _is_irreducible, _pdivmod, _peval, _pmul, _ptrim


def test_gf4_pinned_convention():
    # the printed-table convention: a is the generator and a^2 = a + 1
    F = GF(4)
    a = F.generator
    assert a * a == a + F.one
    assert [format_element_pretty(x) for x in F.elements()] == ["0", "1", "a", "a^2"]


def test_gf4_add_examples():
    F = GF(4)
    a = F.generator
    assert a + a == F.zero
    assert a + F.zero == a
    assert a + F.one == a ** 2


def test_mul_inv_pow_examples():
    F = GF(4)
    a = F.generator
    assert a * a ** 2 == F.one
    assert F.one.inverse() == F.one
    for F in (GF(4), GF(8), GF(9), GF(16)):
        for x in F.elements():
            if not x.is_zero():
                assert x ** (F.order - 1) == F.one
                assert x * x.inverse() == F.one
    with pytest.raises(ZeroDivisionError):
        GF(4).zero.inverse()


def test_enumerate_order_and_distinctness():
    assert len(GF(16).elements()) == 16
    els = GF(64).elements()
    assert len(set(els)) == 64
    assert els[0].is_zero() and els[1] == GF(64).one


@pytest.mark.parametrize("q", [4, 8, 9])
def test_field_axioms_exhaustive(q):
    F = GF(q)
    els = F.elements()
    for x, y in itertools.product(els, repeat=2):
        assert x * y == y * x
        assert x + y == y + x
    for x, y, z in itertools.product(els[: min(len(els), 6)], repeat=3):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_field_axioms_sampled_gf64():
    import random
    rng = random.Random(7)
    F = GF(64)
    els = F.elements()
    for _ in range(200):
        x, y, z = (rng.choice(els) for _ in range(3))
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert (x + y) + z == x + (y + z)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64])
def test_frobenius_is_additive(q):
    F = GF(q)
    p = F.p
    els = F.elements()
    for x, y in itertools.product(els, repeat=2):
        assert (x + y) ** p == x ** p + y ** p


def test_default_moduli_irreducible_with_primitive_t():
    for (p, k) in DEFAULT_MODULI:
        spec = FieldSpec(p, k)
        if k >= 2:
            t = spec.element((0, 1) + (0,) * (k - 2))
            assert spec.generator == t


# the first monic irreducible in counting order, for fields outside DEFAULT_MODULI
@pytest.mark.parametrize("p, k, modulus, generator", [
    (2, 9, (1, 1, 0, 0, 0, 0, 0, 0, 0, 1), 7),
    (2, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), 2),
    (3, 5, (1, 2, 0, 0, 0, 1), 3),
    (5, 3, (1, 1, 0, 1), 9),
    (11, 2, (1, 0, 1), 15),
    (13, 2, (2, 0, 1), 15),
    (17, 2, (3, 0, 1), 19),
    (2, 16, (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,), 3),
])
def test_searched_moduli_are_pinned(p, k, modulus, generator):
    assert (p, k) not in DEFAULT_MODULI
    spec = FieldSpec(p, k)
    assert spec.modulus == modulus and spec.generator.n == generator
    _assert_tables_match_tuples(spec)


def _mobius(n):
    sign = 1
    for d in range(2, n + 1):
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
    return sign


@pytest.mark.parametrize("p, top", [(2, 8), (3, 4), (5, 3)])
def test_irreducible_count_matches_gauss(p, top):
    # (1/k) sum_{d | k} mu(d) p^(k/d) monic irreducibles of degree k over GF(p)
    for k in range(1, top + 1):
        monic = [low + (1,) for low in itertools.product(range(p), repeat=k)]
        gauss = sum(_mobius(d) * p ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
        assert sum(_is_irreducible(f, p) for f in monic) == gauss, (p, k)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([p ** k for p in (2, 3, 5, 7, 13) for k in (1, 2, 3)]), st.data())
def test_polynomial_division_identity(q, data):
    F = GF(q)
    poly = st.lists(st.integers(0, q - 1).map(F.unpack), max_size=7)
    a, b = data.draw(poly), data.draw(poly.filter(any))
    size = len(_ptrim(list(b)))
    # a drawn dividend, a zero one and one shorter than the divisor
    for dividend in (a, [], a[:size - 1]):
        quo, rem = _pdivmod(dividend, b)
        assert len(rem) < size and (not rem or rem[-1])
        total = itertools.zip_longest(_pmul(quo, b), rem, fillvalue=F.zero)
        assert _ptrim([x + y for x, y in total]) == _ptrim(list(dividend))
    with pytest.raises(ZeroDivisionError):
        _pdivmod(a, [F.zero] * len(b))


def test_modulus_override_changes_representation():
    default = GF(9)
    custom = FieldSpec(3, 2, modulus=(2, 2, 1))
    assert custom.modulus != default.modulus
    a = custom.generator
    assert a ** 8 == custom.one and a ** 4 != custom.one


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldSpec(2, 2, modulus=(0, 0, 1))  # t^2 = t * t


@pytest.mark.parametrize("q, message", [
    # 65537^2: no factor below 2^16, so no p^k is named
    (65537 ** 2, "field size 4295098369 exceeds MAX_FIELD_SIZE = 65536 "
                 "and has no factor below 2^16"),
    # 65521 * 65537: the least factor is found, and q is no power of it
    (65521 * 65537, "4294049777 is not a prime power"),
    (65537, "field size 65537 exceeds MAX_FIELD_SIZE = 65536 and has no factor below 2^16"),
    (36, "36 is not a prime power"),
])
def test_gf_refuses_an_order_with_its_reason(q, message):
    with pytest.raises(ValueError) as caught:
        GF(q)
    assert str(caught.value) == message


def test_cross_field_operations_rejected():
    with pytest.raises(ValueError):
        GF(4).one + GF(8).one


def test_solve_additive_examples():
    F4 = GF(4)
    a = F4.generator
    # y^2 + y = 0 has the prime-subfield kernel
    assert solve_additive(F4, [0, 1, 1]) == {F4.zero, F4.one}
    # the fiber over a is empty, the fiber over 1 is {a, a^2}: 4-element scan
    assert solve_additive(F4, [0, 1, 1], a) == set()
    assert solve_additive(F4, [0, 1, 1], F4.one) == {a, a ** 2}
    F8 = GF(8)
    assert len(solve_additive(F8, [0, 1, 1, 0, 1])) == 4
    with pytest.raises(ValueError, match="different field"):
        solve_additive(F4, [0, F8.one])
    # a zero coefficient is coerced, and refused, before it is dropped
    with pytest.raises(ValueError, match="different field"):
        solve_additive(F4, [1, F8.zero, 1])
    with pytest.raises(ValueError, match="different field"):
        solve_additive(F4, [0, 1], F8.zero)


@st.composite
def polynomials_with_target(draw):
    """A field, a dense or sparse polynomial over it and an optional target c."""
    spec = GF(draw(st.sampled_from([4, 9, 16, 27, 121])))
    element = st.integers(0, spec.order - 1).map(spec.unpack)
    if draw(st.booleans()):
        coeffs = draw(st.lists(element, max_size=8))
    else:
        terms = draw(st.dictionaries(st.integers(0, 2 * spec.order), element, max_size=4))
        coeffs = [terms.get(e, spec.zero) for e in range(max(terms, default=-1) + 1)]
    return spec, coeffs, draw(st.none() | element)


@settings(max_examples=150, deadline=None)
@given(polynomials_with_target())
def test_solve_additive_matches_the_horner_scan(case):
    spec, coeffs, c = case
    target = spec.zero if c is None else c
    assert solve_additive(spec, coeffs, c) == {
        y for y in spec.elements() if _peval(coeffs, y) == target}


def test_text_form_roundtrip_and_aliases():
    F = GF(16)
    a = F.generator
    for x in F.elements():
        assert parse_element(F, format_element(x)) == x
    assert parse_element(F, "0").is_zero()
    assert parse_element(F, "1") == F.one
    assert parse_element(F, "a") == a
    assert parse_element(F, "a^5") == a ** 5
    with pytest.raises(ParseError):
        parse_element(F, "[1,0]")  # wrong length
    with pytest.raises(ParseError):
        parse_element(F, "b")


def test_pretty_form_prime_field():
    F = GF(7)
    assert format_element_pretty(F.element(5)) == "5"


# ---------------------------------------------------------------------------
# element arithmetic against a coefficient-tuple second route

class TupleField:
    """GF(p^k) on coefficient tuples: the second route for element arithmetic.

    A sum is digit-wise mod p and a product is the polynomial product reduced
    by long division by the modulus; no table of the field is read.
    """

    def __init__(self, spec):
        self.p, self.k, self.modulus = spec.p, spec.k, spec.modulus
        self.one = (1,) + (0,) * (self.k - 1)

    def digits(self, n):
        return tuple(n // self.p ** i % self.p for i in range(self.k))

    def packed(self, coeffs):
        return sum(c * self.p ** i for i, c in enumerate(coeffs))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top]
            if c:
                # subtract c * t^(top - k) * modulus, which is monic
                for i, m in enumerate(self.modulus):
                    prod[top - k + i] = (prod[top - k + i] - c * m) % p
        return tuple(prod[:k])

    def pow(self, a, e):
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def inverse(self, a):
        """The unique b with a * b = 1, by search."""
        q = self.p ** self.k
        found = [b for b in map(self.digits, range(q)) if self.mul(a, b) == self.one]
        assert len(found) == 1
        return found[0]


def _check_pair(oracle, x, y):
    X, Y = x.coeffs, y.coeffs
    assert (x + y).coeffs == oracle.add(X, Y)
    assert (x - y).coeffs == oracle.add(X, oracle.neg(Y))
    assert (x * y).coeffs == oracle.mul(X, Y)
    if not y.is_zero():
        assert oracle.mul((x / y).coeffs, Y) == X


def _check_single(oracle, x, exponents):
    X = x.coeffs
    assert oracle.packed(X) == x.n
    assert (-x).coeffs == oracle.neg(X)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        with pytest.raises(ZeroDivisionError):
            x ** -1
        return
    inv = oracle.inverse(X)
    assert x.inverse().coeffs == inv
    for e in exponents:
        assert (x ** e).coeffs == oracle.pow(X if e >= 0 else inv, abs(e)), e


def _prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        n = q
        while n % p == 0:
            n //= p
        if n == 1:
            out.append(q)
    return out


@pytest.mark.parametrize("q", _prime_powers(64))
def test_arithmetic_matches_coefficient_tuples_exhaustively(q):
    F = GF(q)
    oracle = TupleField(F)
    els = F.elements()
    assert sorted(x.n for x in els) == list(range(q))
    # both sides of 0 and of every multiple of q - 1 up to 2(q - 1)
    exponents = [-q - 1, -q, -q + 2, -2, -1, 0, 1, 2, F.p, q - 2, q - 1, q,
                 2 * q - 2, 2 * q + 3]
    for x in els:
        _check_single(oracle, x, exponents)
        for y in els:
            _check_pair(oracle, x, y)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([81, 243, 256]), st.data())
def test_arithmetic_matches_coefficient_tuples_in_larger_fields(q, data):
    F = GF(q)
    oracle = TupleField(F)
    x, y = (F.unpack(data.draw(st.integers(0, q - 1))) for _ in range(2))
    _check_pair(oracle, x, y)
    _check_single(oracle, x, [data.draw(st.integers(-3 * q, 3 * q)) for _ in range(3)])


# ---------------------------------------------------------------------------
# field tables against a coefficient-tuple second route

def tuple_tables(spec):
    """(generator, log, exp, neg) of spec in its table layout, from TupleField
    alone: the first of t, 1, 2, ... (packed) whose order is q - 1, orders by
    TupleField.pow, its powers walked by TupleField.mul, negatives digit-wise."""
    oracle, units = TupleField(spec), spec.units

    def order(a):
        out = units
        for ell in range(2, units + 1):
            while out % ell == 0 and oracle.pow(a, out // ell) == oracle.one:
                out //= ell
        return out

    candidates = ([spec.p] if spec.k >= 2 else []) + list(range(1, spec.order))
    gen = next(oracle.digits(n) for n in candidates if order(oracle.digits(n)) == units)
    powers, cur = [], oracle.one
    for _ in range(units):
        powers.append(oracle.packed(cur))
        cur = oracle.mul(gen, cur)
    assert cur == oracle.one and sorted(powers) == list(range(1, spec.order))
    log = [2 * units] * spec.order
    for i, n in enumerate(powers):
        log[n] = i
    exp = powers + powers + [0] * (2 * units + 1)
    neg = [oracle.packed(oracle.neg(oracle.digits(n))) for n in range(spec.order)]
    return oracle.packed(gen), log, exp, neg


def _assert_tables_match_tuples(spec):
    assert (spec.generator.n, spec.log, spec.exp, spec.neg) == tuple_tables(spec)


@pytest.mark.parametrize("p, k, modulus, generator", [
    (p, k, None, None) for p, k in DEFAULT_MODULI
] + [
    # t is not primitive: t^2 = -1 in GF(9), t^5 = 1 in GF(16)
    (3, 2, (1, 0, 1), 4),
    (2, 4, (1, 1, 1, 1, 1), 3),
])
def test_tables_match_coefficient_tuples(p, k, modulus, generator):
    spec = FieldSpec(p, k, modulus)
    _assert_tables_match_tuples(spec)
    if generator is not None:
        assert spec.generator.n == generator


@st.composite
def _irreducible_moduli(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 31]))
    k = draw(st.integers(1, max(1, int(math.log(1 << 10, p)))))
    modulus = tuple(draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))) + (1,)
    assume(_is_irreducible(modulus, p))
    return p, k, modulus


@settings(max_examples=60, deadline=None)
@given(_irreducible_moduli())
def test_tables_match_coefficient_tuples_for_drawn_moduli(field):
    _assert_tables_match_tuples(FieldSpec(*field))


def test_equal_fields_built_apart_give_equal_elements():
    F, G = FieldSpec(3, 2), FieldSpec(3, 2)
    assert F is not G and F == G and hash(F) == hash(G)
    # a default modulus, pinned or searched, spelled out gives an equal field
    for p, k in ((3, 2), (2, 9)):
        default, spelled = FieldSpec(p, k), FieldSpec(p, k, list(FieldSpec(p, k).modulus))
        assert default == spelled and hash(default) == hash(spelled)
    for x, y in zip(F.elements(), G.elements()):
        assert x is not y and x == y and hash(x) == hash(y)
        assert F.element(y) is x
        assert x + y == y + x and (x * y).spec is F
    assert set(F.elements()) == set(G.elements())
    assert F.element([1, 2]) in {G.element([1, 2])}
    # an equal modulus is not enough when the characteristic differs
    assert GF(4).one != GF(2).one
