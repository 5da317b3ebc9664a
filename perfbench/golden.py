#!/usr/bin/env python3
"""Regenerate the task pools and their expected outputs.

    python3 perfbench/golden.py [--workload NAME]

Draws every stratum's pool from a fixed per-stratum seed, runs each task once
and writes ``perfbench/golden/<workload>.json``. Benchmark runs only read
these files; a mismatch during a run counts as a failed task and never
rewrites them. Run this deliberately, on a commit whose outputs are trusted.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import workloads
from run import SRC, prepare_environment, run_metadata

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"

CURVES = ("hermitian-q2", "hermitian-q3", "hermitian-q4", "curve1-q4",
          "curve2-q2-r3", "norm-trace-q2-r3")


def _divisor_text(coeffs: dict) -> str:
    return "+".join(f"{c}*{p}" for p, c in coeffs.items() if c)


def _random_divisor(rng: random.Random, places: list, degree: int) -> str:
    """An effective divisor of the given degree, spread over `places`."""
    cuts = sorted(rng.randint(0, degree) for _ in range(len(places) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
    return _divisor_text(dict(zip(places, parts)))


def _place_names(curve) -> list:
    return [f"P{i}" for i in range(1, curve.r + 1)] + ["Pinf"]


def _mindist_divisor(kl, rng, curve, k: int, one_point: bool) -> str:
    """A G on ramified places and Pinf with ell(G) = k, by rejection."""
    places = _place_names(curve)
    for _ in range(10000):
        degree = rng.randint(k - 1, k + curve.genus - 1)
        if one_point:
            text = f"{degree}*{rng.choice(places)}"
        else:
            chosen = rng.sample(places, rng.randint(2, len(places)))
            if degree < len(chosen):
                continue
            cuts = sorted(rng.sample(range(1, degree), len(chosen) - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
            text = _divisor_text(dict(zip(chosen, parts)))
        if kl.ell(curve, kl.parse_divisor(curve, text)) == k:
            return text
    raise RuntimeError(f"no divisor with ell = {k} on {curve.label}")


def _draw(kl, stratum: workloads.Stratum, rng: random.Random, index: int) -> dict:
    """One task instance of a stratum (without its expected output)."""
    spec = stratum.spec
    if "argv" in spec:
        return {"kind": "cli", "argv": spec["argv"]}
    kind = spec.get("kind")
    if kind in ("maxcur", "hull", "dual"):
        curve = kl.builtin_curve(spec["curve"])
        G = _random_divisor(rng, _place_names(curve), spec["degree"])
        if kind == "maxcur":
            argv = ["code", "lcd-check", "--construction", "maxcur"]
        else:
            argv = ["code", kind]
        return {"kind": "cli", "argv": argv + ["--curve", spec["curve"], "--G", G]}
    if kind == "gamma":
        curve = kl.builtin_curve(CURVES[index % len(CURVES)])
        size = rng.randint(2, curve.r - curve.r // curve.m)
        places = rng.sample(range(1, curve.r + 1), size)
        return {"kind": "cli", "argv": ["semigroup", "gamma", "--curve", curve.label,
                                        "--tuple", ",".join(map(str, places))]}
    if kind == "nonspecial":
        curve = kl.builtin_curve(CURVES[index % len(CURVES)])
        argv = ["nonspecial", "--curve", curve.label, "--degree"]
        if index // len(CURVES) % 2 == 0:
            return {"kind": "cli", "argv": argv + ["g"]}
        support = {p.label() for p in kl.nonspecial_degree_g(curve).support}
        minus = rng.choice([p for p in _place_names(curve) if p not in support])
        return {"kind": "cli", "argv": argv + ["g-1", "--minus", minus]}
    if "k" in spec:
        curve = kl.builtin_curve(spec["curve"])
        G = _mindist_divisor(kl, rng, curve, spec["k"], one_point=index % 2 == 0)
        return {"kind": "cli", "argv": ["code", "mindist", "--curve", spec["curve"],
                                        "--G", G]}
    curve = kl.builtin_curve(spec["curve"])
    l = spec["l"]
    places = rng.sample(range(1, curve.r + 1), l)
    points = []
    for top in spec["tops"]:
        point = [rng.randint(0, top) for _ in range(l)]
        point[rng.randrange(l)] = top
        points.append(point)
    rng.shuffle(points)
    return {"kind": "semigroup", "curve": spec["curve"], "places": places,
            "points": points}


def build_pools(kl, workload: str) -> dict:
    pools = {}
    for stratum in workloads.STRATA[workload]:
        rng = random.Random(f"{workload}/{stratum.name}")
        pool, seen, repeats = [], set(), 0
        while len(pool) < stratum.pool:
            # a repeat shifts the index, which picks another shape or curve
            task = _draw(kl, stratum, rng, len(pool) + repeats)
            ident = json.dumps(task, sort_keys=True)
            if ident in seen:
                repeats += 1
                if repeats > 1000:
                    raise RuntimeError(f"{stratum.name}: too few distinct tasks")
                continue
            seen.add(ident)
            task["key"] = f"{workload}/{stratum.name}/{len(pool)}"
            outcome = workloads.run_task(kl, task)
            result = dict(outcome.result)
            if result.pop("routes_agree", True) is not True:
                raise RuntimeError(f"{task['key']}: membership routes disagree")
            if result.get("exit") not in (None, 0, 1):
                raise RuntimeError(f"{task['key']}: exit {result['exit']}: {outcome.error}")
            task["expect"] = result
            pool.append(task)
            print(f"{task['key']}: {outcome.latency:.3f} s {result}", file=sys.stderr)
        pools[stratum.name] = pool
    return pools


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default=None)
    args = parser.parse_args(argv)
    prepare_environment()
    import kummer_lcd as kl
    import kummer_lcd.cli  # noqa: F401  (binds kl.cli)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        data = {"workload": workload, "generated_at": run_metadata(None),
                "pools": build_pools(kl, workload)}
        path = GOLDEN_DIR / f"{workload}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(SRC.parent)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
