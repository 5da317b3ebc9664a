"""End-to-end checks of the bundled worked examples and constructions.

Each check list pairs a name with a recomputed boolean; the golden matrices
are pinned symbol-for-symbol under the default GF(4) and GF(16)
representations, so any drift in field conventions, point ordering, or basis
construction shows up as an entry mismatch.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from .codes import (LinearCode, build_code, construction_divisors, evaluation_matrix,
                    lcd_construct_maxcur, min_distance, verify_hull_theorem)
from .curves import KummerCurve, Place, builtin_curve, parse_divisor
from .functions import FunctionElement, valuation_ok
from .gf import ParseError, format_element_pretty, parse_element

__all__ = ["available_checks", "run_checks"]


# Printed generator tables for the genus-1 example over GF(4): row labels,
# column points, and entries in generator-power symbols.
HERMITIAN_Q2_COLUMNS = [("a", "a"), ("a^2", "a"), ("1", "a"),
                        ("a", "a^2"), ("a^2", "a^2"), ("1", "a^2")]
HERMITIAN_Q2_G_TABLE = [
    ("x^2/y", ["a", "1", "a^2", "1", "a^2", "a"]),
    ("y", ["a", "a", "a", "a^2", "a^2", "a^2"]),
    ("x", ["a", "a^2", "1", "a", "a^2", "1"]),
    ("1", ["1", "1", "1", "1", "1", "1"]),
]
HERMITIAN_Q2_H_TABLE = [
    ("1/x", ["a^2", "a", "1", "a^2", "a", "1"]),
    ("x/(y+1)", ["a^2", "1", "a", "1", "a", "a^2"]),
]


def _hermitian_q2_functions(curve: KummerCurve) -> Dict[str, FunctionElement]:
    return {
        "x^2/y": FunctionElement.monomial(curve, 2, alpha_exps=(-1, 0)),
        "y": FunctionElement.monomial(curve, 0, y_poly=[0, 1]),
        "x": FunctionElement.monomial(curve, 1),
        "1": FunctionElement.one(curve),
        "1/x": FunctionElement.monomial(curve, -1),
        "x/(y+1)": FunctionElement.monomial(curve, 1, alpha_exps=(0, -1)),
    }


def _golden_places(curve: KummerCurve, columns) -> list:
    spec = curve.field
    return [Place.affine(parse_element(spec, a), parse_element(spec, b))
            for a, b in columns]


def check_hermitian_q2() -> List[Tuple[str, bool, str]]:
    curve = builtin_curve("hermitian-q2")
    checks: List[Tuple[str, bool, str]] = []
    points = curve.rational_points()
    checks.append(("rational-point-count", len(points) == 9, f"{len(points)}"))
    checks.append(("genus", curve.genus == 1, f"{curve.genus}"))
    D = curve.standard_D()
    checks.append(("deg-standard-D", D.degree == 6, f"{D.degree}"))

    fns = _hermitian_q2_functions(curve)
    places = _golden_places(curve, HERMITIAN_Q2_COLUMNS)
    for table_name, table in (("matrix-G", HERMITIAN_Q2_G_TABLE),
                              ("matrix-H", HERMITIAN_Q2_H_TABLE)):
        rows = evaluation_matrix(curve, [fns[name] for name, _ in table], places)
        printed = [[format_element_pretty(curve.field.unpack(v)) for v in row]
                   for row in rows.tolist()]
        expected = [row for _, row in table]
        checks.append((table_name + "-entries", printed == expected,
                       f"computed {printed}"))

    G = parse_divisor(curve, "3*Pinf+1*P1")
    H = parse_divisor(curve, "1*P1+2*P2-1*Pinf")
    code_G = build_code(curve, D, G)
    code_H = build_code(curve, D, H)
    checks.append(("dim-C(D,G)", code_G.k == 4, f"{code_G.k}"))
    checks.append(("dim-C(D,H)", code_H.k == 2, f"{code_H.k}"))
    report = verify_hull_theorem(code_G, code_H)
    checks.append(("duality", report["duality_verified"], "C(D,H) = C(D,G)^perp"))
    golden_G = build_code(curve, places, G)
    span_G = evaluation_matrix(curve, [fns[n] for n, _ in HERMITIAN_Q2_G_TABLE], places)
    checks.append(("golden-rows-span-C(D,G)",
                   LinearCode.from_rows(curve.field, span_G, places) == golden_G,
                   "row spaces agree"))
    hull_dim = report["hull_dimension"]
    checks.append(("hull-trivial", hull_dim == 0, f"hull dim {hull_dim}"))
    checks.append(("gcd-degree-g-minus-1", report["gcd_degree_is_g_minus_1"],
                   report["gcd"]))
    checks.append(("hull-theorem", report["hull_matches_gcd_code"],
                   "hull equals C(D, gcd(G,H))"))
    d_G = min_distance(code_G).d
    d_H = min_distance(code_H).d
    checks.append(("near-mds-distance-sum", d_G + d_H == 6,
                   f"d={d_G} and d={d_H}"))
    return checks


# The 14 + 16 generating functions of the genus-2 example over GF(16),
# written as (x exponent, exponent of y, exponent of y - 1).
EXAMPLE1_G_FUNCTIONS = [
    (1, 0, 0), (2, 0, 0),
    (1, -1, 0), (2, -1, 0), (3, -1, 0), (4, -1, 0),
    (1, -2, 0), (2, -2, 0), (3, -2, 0), (4, -2, 0), (5, -2, 0),
    (3, -3, 0), (4, -3, 0), (5, -3, 0),
]
EXAMPLE1_H_FUNCTIONS = [
    (0, 0, 0), (-2, 0, 0), (-1, 0, 0),
    (-2, 0, -1), (-1, 0, -1), (0, 0, -1), (1, 0, -1), (2, 0, -1),
    (-2, 0, -2), (-1, 0, -2), (0, 0, -2), (1, 0, -2), (2, 0, -2),
    (0, 0, -3), (1, 0, -3), (2, 0, -3),
]


def check_example1() -> List[Tuple[str, bool, str]]:
    curve = builtin_curve("curve1-q4")
    checks: List[Tuple[str, bool, str]] = []
    checks.append(("rational-point-count", len(curve.rational_points()) == 33,
                   f"{len(curve.rational_points())}"))
    checks.append(("genus", curve.genus == 2, f"{curve.genus}"))
    D = curve.standard_D()
    checks.append(("deg-standard-D", D.degree == 30, f"{D.degree}"))
    G = parse_divisor(curve, "4*Pinf+12*P1-1*P2")
    H = parse_divisor(curve, "2*P1+15*P2")
    code_G = build_code(curve, D, G)
    code_H = build_code(curve, D, H)
    checks.append(("dim-C(D,G)", code_G.k == 14, f"{code_G.k}"))
    checks.append(("dim-C(D,H)", code_H.k == 16, f"{code_H.k}"))
    checks.append(("direct-sum-dimension", code_G.k + code_H.k == 30,
                   f"{code_G.k} + {code_H.k}"))
    report = verify_hull_theorem(code_G, code_H)
    checks.append(("duality", report["duality_verified"], "C(D,H) = C(D,G)^perp"))
    for name, triples, code in (("G", EXAMPLE1_G_FUNCTIONS, code_G),
                                ("H", EXAMPLE1_H_FUNCTIONS, code_H)):
        fns = [FunctionElement.monomial(curve, e, alpha_exps=(cy, cy1))
               for e, cy, cy1 in triples]
        membership = all(valuation_ok(curve, f, code.provenance.G) for f in fns)
        rows = evaluation_matrix(curve, fns, [p for p in D.support])
        span = LinearCode.from_rows(curve.field, rows, D.support)
        checks.append((f"listed-{name}-functions-span", membership
                       and span == code,
                       f"{len(fns)} functions"))
    hull_dim = report["hull_dimension"]
    checks.append(("hull-trivial", hull_dim == 0, f"hull dim {hull_dim}"))
    checks.append(("gcd-is-2P1-P2", report["gcd"] == "2*P1-1*P2", report["gcd"]))
    checks.append(("gcd-degree-g-minus-1", report["gcd_degree_is_g_minus_1"],
                   f"degree {report['gcd_degree']}"))
    return checks


def _construction_checks(kind: str, curve: KummerCurve, expect_dim: int, expect_n=None):
    checks = []
    for variant, G in enumerate(construction_divisors(kind, curve)):
        code, cert = lcd_construct_maxcur(curve, G)
        tag = curve.label + (f"-v{variant}" if variant else "")
        ok_dim = code is not None and code.k == expect_dim
        ok_n = expect_n is None or (code is not None and code.n == expect_n)
        checks.append((f"{tag}-dimension", ok_dim,
                       f"k = {code.k if code else None}, expected {expect_dim}"))
        if expect_n is not None:
            checks.append((f"{tag}-length", ok_n,
                           f"n = {code.n if code else None}, expected {expect_n}"))
        checks.append((f"{tag}-lcd", cert.lcd,
                       f"family {cert.family}, checks {cert.checks}"))
    return checks


def check_curve1_q4() -> List[Tuple[str, bool, str]]:
    return _construction_checks("curve1", builtin_curve("curve1-q4"), expect_dim=16)


def check_curve2_q2_r3() -> List[Tuple[str, bool, str]]:
    return _construction_checks("curve2", builtin_curve("curve2-q2-r3"),
                                expect_dim=10, expect_n=126)


def check_hermitian_corollary() -> List[Tuple[str, bool, str]]:
    checks = []
    for q in (2, 3, 4):
        curve = builtin_curve(f"hermitian-q{q}")
        checks.extend(_construction_checks("hermitian", curve, expect_dim=q * q))
    return checks


def available_checks() -> Dict[str, Callable]:
    return {
        "hermitian-q2": check_hermitian_q2,
        "example1": check_example1,
        "curve1-q4": check_curve1_q4,
        "curve2-q2-r3": check_curve2_q2_r3,
        "hermitian-corollary": check_hermitian_corollary,
    }


def run_checks(which: str = "all") -> List[Tuple[str, bool, str]]:
    """Run one named suite or all of them; returns (name, passed, detail).

    An unknown suite name raises ParseError.
    """
    table = available_checks()
    if which == "all":
        names = list(table)
    elif which in table:
        names = [which]
    else:
        raise ParseError(f"unknown check suite {which!r}; "
                         f"choose from {', '.join(table)} or all")
    out = []
    for name in names:
        for check_name, ok, detail in table[name]():
            out.append((f"{name}/{check_name}", ok, detail))
    return out
