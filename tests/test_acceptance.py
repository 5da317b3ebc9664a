"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. Every expected value is exact; there are no tolerances.
"""

import itertools
import math
import random

import pytest

from kummer_lcd import (Divisor, Place, build_code, dual,
                        enumerate_nonspecial_degree_g, ell,
                        floor_identity_checks, hull, lcd_construct_maxcur,
                        lub_closure_membership, min_distance,
                        nonspecial_degree_g, nonspecial_degree_g_minus_1,
                        one_point_hull_probe, parse_divisor,
                        semigroup_membership_oracle,
                        construction_divisors)
from kummer_lcd.cli import main
from kummer_lcd.functions import _ell_fast
from kummer_lcd.semigroup import _max_tuple_size


def _report(number, name, passed):
    print(f"ACCEPTANCE {number:>2} {'PASS' if passed else 'FAIL'}: {name}")
    assert passed, f"criterion {number} ({name})"


def test_criterion_01_curve_data(h2, c1):
    ok = (len(h2.rational_points()) == 9 and h2.genus == 1
          and h2.standard_D().degree == 6
          and len(c1.rational_points()) == 33 and c1.genus == 2
          and c1.standard_D().degree == 30)
    _report(1, "curve data for the two worked examples", ok)


def test_criterion_02_golden_matrices(capsys):
    code = main(["verify", "paper-examples", "--which", "hermitian-q2"])
    out = capsys.readouterr().out
    import json
    report = json.loads(out)
    names = {c["name"]: c["pass"] for c in report["checks"]}
    ok = (code == 0
          and names["hermitian-q2/matrix-G-entries"]
          and names["hermitian-q2/matrix-H-entries"]
          and names["hermitian-q2/duality"]
          and names["hermitian-q2/hull-trivial"])
    with capsys.disabled():
        _report(2, "printed matrices, duality, and trivial hull", ok)


def test_criterion_03_example1_dimensions(c1):
    D = c1.standard_D()
    CG = build_code(c1, D, parse_divisor(c1, "4*Pinf+12*P1-1*P2"))
    CH = build_code(c1, D, parse_divisor(c1, "2*P1+15*P2"))
    ok = (CG.k == 14 and CH.k == 16
          and dual(CG).generator == CH.generator
          and CG.k + CH.k == 30)
    _report(3, "genus-2 example dimensions 14 + 16 = 30 with duality", ok)


def test_criterion_04_proposition_constructions(h2, h3, h4, c1, c2):
    ok = True
    (G,) = construction_divisors("curve1", c1)
    code, cert = lcd_construct_maxcur(c1, G)
    ok &= code.k == 16 and cert.lcd
    (G,) = construction_divisors("curve2", c2)
    code, cert = lcd_construct_maxcur(c2, G)
    ok &= (code.n, code.k) == (126, 10) and cert.lcd
    for curve, q in ((h2, 2), (h3, 3), (h4, 4)):
        for G in construction_divisors("hermitian", curve):
            code, cert = lcd_construct_maxcur(curve, G)
            ok &= code.k == q * q and cert.lcd
    _report(4, "LCD constructions reach the stated dimensions", ok)


def test_criterion_05_nonspecial_recipes(family):
    ok = True
    for curve in family:
        A = nonspecial_degree_g(curve)
        ok &= A.degree == curve.genus and ell(curve, A) == 1
        for P in curve.rational_points():
            if A[P] != 0:
                continue
            B = nonspecial_degree_g_minus_1(curve, P)
            ok &= B.degree == curve.genus - 1 and ell(curve, B) == 0
    _report(5, "degree-g divisors have ell 1; all degree-(g-1) variants ell 0", ok)


def test_criterion_06_classification(h2, h3, nt):
    ok = True
    for curve in (h2, h3, nt):
        g = curve.genus
        brute = set()
        for comp in itertools.product(range(g + 1), repeat=curve.r):
            if sum(comp) != g:
                continue
            if _ell_fast(curve, list(comp), 0) == 1:
                brute.add(Divisor({Place.ramified(i + 1): c
                                   for i, c in enumerate(comp)}))
        ok &= brute == enumerate_nonspecial_degree_g(curve)
    _report(6, "exhaustive degree-g classification matches the recipe set", ok)


def test_criterion_07_semigroup_oracle_equivalence(family):
    ok = True
    for curve in family:
        assert curve.r * curve.m <= 40
        box = 2 * curve.m
        for l in range(1, min(curve.r, _max_tuple_size(curve)) + 1):
            for places in itertools.combinations(range(1, curve.r + 1), l):
                for alpha in itertools.product(range(box + 1), repeat=l):
                    if (lub_closure_membership(curve, places, alpha)
                            != semigroup_membership_oracle(curve, places, alpha)):
                        ok = False
    _report(7, "lub closure agrees with the dimension-jump criterion "
               "on [0,2m]^l for every ramified tuple", ok)


def test_criterion_08_near_mds(h2):
    D = h2.standard_D()
    C = build_code(h2, D, parse_divisor(h2, "3*Pinf+1*P1"))
    CH = build_code(h2, D, parse_divisor(h2, "1*P1+2*P2-1*Pinf"))
    dC, dH = min_distance(C).d, min_distance(CH).d
    ok = (dC, dH) == (2, 4) and dC + dH == 6
    _report(8, "measured minimum distances 2 and 4 sum to the length 6", ok)


def test_criterion_09_one_point_probe(h2, h3):
    ok = True
    for curve in (h2, h3):
        g, n = curve.genus, curve.standard_D().degree
        for alpha in range(2 * g - 1, n):
            ok &= one_point_hull_probe(curve, alpha) > 0
    _report(9, "every one-point code in the window has a nontrivial hull", ok)


def test_criterion_10_floor_identities():
    ok = all(floor_identity_checks(r, m)
             for r in range(1, 31) for m in range(1, 31)
             if math.gcd(r, m) == 1)
    _report(10, "floor identities hold for all coprime r, m <= 30", ok)


def test_criterion_11_riemann_roch_consistency(family):
    rng = random.Random(2024)
    ok = True
    for curve in family:
        g = curve.genus
        places = list(curve.ramified_places()) + [curve.infinity()]
        done = 0
        while done < 200:
            D = Divisor({p: rng.randint(-3, 3 * g + 3) for p in places})
            if D.degree > 2 * g - 2:
                ok &= ell(curve, D) == D.degree + 1 - g
                done += 1
        for _ in range(200):
            A = Divisor({p: rng.randint(-3, 6) for p in places})
            B = A + Divisor({p: rng.randint(0, 3) for p in places})
            ok &= ell(curve, A) <= ell(curve, B)
    _report(11, "ell matches deg + 1 - g above 2g - 2 and is monotone", ok)
