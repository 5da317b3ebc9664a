"""Workload definitions: the task mix of each workload and how a task runs.

A workload is a list of strata. Each stratum has a pool of task instances,
fixed once by ``golden.py`` and stored with their expected outputs in
``golden/<workload>.json``; a run's seed only chooses which pool instances
fill each cycle and in what order. Every instance of a stratum costs the
same work (same curve, same code dimension, same box), so a cycle's cost
and the traced work counts are the same for every seed.

A cycle holds ``per_cycle`` instances of every stratum. Runs measure whole
cycles, so each run sees the mix exactly as stated here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass

WORKLOADS = ("lcd-certify", "semigroup-boxes", "mindist-enum")


@dataclass(frozen=True)
class Stratum:
    name: str
    per_cycle: int
    pool: int
    spec: dict


def _s(name, per_cycle, pool, **spec):
    return Stratum(name, per_cycle, pool, spec)


# Nearly every point whose largest entry lies in [m, 2m] is a member, so
# each box batch also holds points with largest entry 2 or 3, where the gaps
# are; their closures are cheap.
LOW_TOPS = [2, 2, 3, 3]


def _box(name, per_cycle, pool, curve, l, bound, extra, repeat):
    return _s(name, per_cycle, pool, curve=curve, l=l, bound=bound,
              tops=[bound] * repeat + extra + LOW_TOPS)


# lcd-certify: the bundled constructions and verify suites run every cycle;
# maxcur certificates, hulls and duals use seed-drawn G of a fixed degree.
# Hermitian q=7 (91 s a task) is left out.
_LCD_FIXED = [
    ("lcd-hermitian-q3", "code lcd-check --construction hermitian --q 3"),
    ("lcd-hermitian-q4", "code lcd-check --construction hermitian --q 4"),
    ("lcd-hermitian-q5", "code lcd-check --construction hermitian --q 5"),
    ("lcd-curve1-q4", "code lcd-check --construction curve1 --q 4"),
    ("lcd-curve2-q2-r3", "code lcd-check --construction curve2 --q 2 --r 3"),
    ("verify-hermitian-q2", "verify paper-examples --which hermitian-q2"),
    ("verify-example1", "verify paper-examples --which example1"),
    ("verify-curve1-q4", "verify paper-examples --which curve1-q4"),
    ("verify-curve2-q2-r3", "verify paper-examples --which curve2-q2-r3"),
    ("verify-hermitian-corollary",
     "verify paper-examples --which hermitian-corollary"),
]

STRATA = {
    "lcd-certify": [_s(name, 1, 1, argv=argv.split()) for name, argv in _LCD_FIXED] + [
        # degree windows: 4 < deg G < 24 on hermitian-q3, 10 < deg G < 60 on q4.
        # The median falls in maxcur-h3 and the tail percentile in dual-h4.
        _s("maxcur-h3", 10, 24, kind="maxcur", curve="hermitian-q3", degree=11),
        _s("maxcur-h4", 2, 16, kind="maxcur", curve="hermitian-q4", degree=35),
        _s("hull-h3", 6, 16, kind="hull", curve="hermitian-q3", degree=10),
        _s("dual-h3", 6, 16, kind="dual", curve="hermitian-q3", degree=10),
        _s("hull-c1", 4, 16, kind="hull", curve="curve1-q4", degree=15),
        _s("dual-c1", 4, 16, kind="dual", curve="curve1-q4", degree=15),
        _s("hull-h4", 2, 16, kind="hull", curve="hermitian-q4", degree=30),
        _s("dual-h4", 10, 16, kind="dual", curve="hermitian-q4", degree=30),
    ],
    # semigroup-boxes: bounds lie in [m, 2m]; each batch has `repeat` points
    # whose largest entry is the bound (after the first, answered by the
    # per-curve box cache) and one point for each lower largest entry in
    # `extra` and LOW_TOPS (a fresh closure per distinct value).
    "semigroup-boxes": [
        # above the median: 14 tasks; the tail percentile falls in box-h3-l3-b8
        _box("box-nt-l4-b11", 1, 6, "norm-trace-q2-r3", 4, 11, [7], 24),
        _box("box-h4-l4-b10", 1, 6, "hermitian-q4", 4, 10, [5], 24),
        _box("box-h4-l4-b7", 1, 8, "hermitian-q4", 4, 7, [5], 24),
        _box("box-nt-l3-b14", 2, 8, "norm-trace-q2-r3", 3, 14, [10], 24),
        _box("box-nt-l4-b7", 1, 8, "norm-trace-q2-r3", 4, 7, [], 24),
        _box("box-h4-l3-b10", 1, 8, "hermitian-q4", 3, 10, [7], 24),
        _box("box-h3-l3-b8", 7, 12, "hermitian-q3", 3, 8, [6], 24),
        # the median falls in this stratum
        _box("box-c2-l2-b18", 12, 16, "curve2-q2-r3", 2, 18, [9, 13], 16),
        # below the median: 14 tasks
        _box("box-h2-l2-b6", 1, 8, "hermitian-q2", 2, 6, [3, 4], 16),
        _box("box-h3-l2-b8", 1, 8, "hermitian-q3", 2, 8, [4, 6], 16),
        _box("box-h3-l1-b6", 1, 8, "hermitian-q3", 1, 6, [4, 5], 16),
        _box("box-h4-l2-b10", 2, 8, "hermitian-q4", 2, 10, [5, 7], 16),
        _box("box-c1-l2-b10", 1, 8, "curve1-q4", 2, 10, [5, 7], 16),
        _box("box-c2-l1-b13", 1, 8, "curve2-q2-r3", 1, 13, [9], 16),
        _box("box-nt-l2-b14", 2, 8, "norm-trace-q2-r3", 2, 14, [7, 10], 16),
        _box("box-nt-l1-b10", 1, 8, "norm-trace-q2-r3", 1, 10, [7], 16),
        _s("cli-gamma", 2, 16, kind="gamma"),
        _s("cli-nonspecial", 2, 12, kind="nonspecial"),
    ],
    # mindist-enum: q^k between 59049 and 1048576, all within the default
    # budget, so every task enumerates and reports an exact d.
    "mindist-enum": [
        _s("md-h3-k5", 10, 16, curve="hermitian-q3", k=5),
        _s("md-c1-k4", 10, 16, curve="curve1-q4", k=4),
        _s("md-h4-k4", 10, 16, curve="hermitian-q4", k=4),
        _s("md-h3-k6", 2, 8, curve="hermitian-q3", k=6),
        _s("md-c1-k5", 1, 6, curve="curve1-q4", k=5),
    ],
}

# Curves whose fields, curve objects and point lists setup builds.
SETUP_CURVES = {
    "lcd-certify": ["hermitian-q2", "hermitian-q3", "hermitian-q4", "hermitian-q5",
                    "curve1-q4", "curve2-q2-r3"],
    "semigroup-boxes": ["hermitian-q2", "hermitian-q3", "hermitian-q4", "curve1-q4",
                        "curve2-q2-r3", "norm-trace-q2-r3"],
    "mindist-enum": ["hermitian-q3", "hermitian-q4", "curve1-q4"],
}


# Reference kernel (speed.py) each workload's times are normalised by: the
# kind of work its tasks spend their time in.
SPEED_KERNEL = {"lcd-certify": "python", "semigroup-boxes": "python",
                "mindist-enum": "numpy"}


def cycle_size(workload: str) -> int:
    return sum(s.per_cycle for s in STRATA[workload])


def tail_percentile(workload: str) -> int:
    """Highest whole percentile that leaves ten tasks of one cycle beyond it.

    Fixed by the cycle's size rather than by the run's task count, so the
    percentile does not move when a faster program completes more cycles.
    """
    size = cycle_size(workload)
    return (100 * (size - 10)) // size


def make_cycle(workload: str, pools: dict, rng: random.Random) -> list:
    """One cycle: per_cycle pool instances of every stratum, shuffled."""
    tasks = []
    for stratum in STRATA[workload]:
        pool = pools[stratum.name]
        tasks.extend(pool[i] for i in rng.sample(range(len(pool)), stratum.per_cycle))
    rng.shuffle(tasks)
    return tasks


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# running one task

@dataclass
class Outcome:
    start: float        # time.perf_counter() when the task started
    latency: float
    result: dict        # what the check compares against the golden entry
    stdout: str = ""
    error: str = ""


def run_task(kl, task: dict) -> Outcome:
    """Run one task against the imported package ``kl`` and time it."""
    if task["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = kl.cli.main(list(task["argv"]))
        except SystemExit as exc:  # argparse rejects an argv
            code = exc.code
        latency = time.perf_counter() - start
        text = out.getvalue()
        return Outcome(start, latency, cli_result(code, text), text, err.getvalue())
    start = time.perf_counter()
    curve = kl.builtin_curve(task["curve"])
    places = tuple(task["places"])
    lub = [kl.lub_closure_membership(curve, places, p) for p in task["points"]]
    oracle = [kl.semigroup_membership_oracle(curve, places, p) for p in task["points"]]
    latency = time.perf_counter() - start
    return Outcome(start, latency, semigroup_result(lub, oracle))


def cli_result(code, text: str) -> dict:
    result = {"exit": code, "sha256": digest(text)}
    try:
        report = json.loads(text)
    except ValueError:
        return result
    if report.get("command") == "code mindist":
        result["d"] = report["results"]["d"]
    return result


def semigroup_result(lub: list, oracle: list) -> dict:
    bits = "".join("1" if x else "0" for x in lub)
    return {"members": bits.count("1"), "bits_sha256": digest(bits),
            "routes_agree": lub == oracle}


def check(task: dict, outcome: Outcome) -> str:
    """Empty when the outcome matches the golden entry, else the reason."""
    if outcome.result.get("routes_agree") is False:
        return "lub closure and dimension-jump oracle disagree"
    for key, want in task["expect"].items():
        got = outcome.result.get(key)
        if got != want:
            return f"{key}: expected {want!r}, got {got!r}"
    return ""


def hull_claims(task: dict, stdout: str) -> list:
    """(curve, G, reported hull_dim) for each code a task reported on."""
    if task["kind"] != "cli" or not stdout:
        return []
    report = json.loads(stdout)
    if report["command"] == "code lcd-check":
        curve = report["results"]["curve"]
        return [(curve, run["certificate"]["G"], run["hull_dim"])
                for run in report["results"]["runs"] if run["n"] is not None]
    if report["command"] == "code hull":
        return [(report["inputs"]["curve"], report["inputs"]["G"],
                 report["results"]["hull_dim"])]
    return []
