#!/usr/bin/env python3
"""Benchmark of kummer_lcd: seeded tasks through the public API and cli.main.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. One client runs a closed loop in this process, with no threads:
each task starts when the previous one has finished. Tasks come from the
pools in ``golden/``; the seed picks which pool instances fill each cycle.

``--trace 0`` measures whole cycles for about S seconds and prints the
end-to-end metrics. ``--trace 1`` runs the first cycle untraced, then again
with every layer wrapped in spans, and prints the per-layer metrics and the
tracing overhead. Either way the last line of stdout is one JSON object;
run metadata and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9


def prepare_environment() -> None:
    """Import the package from src/, single-threaded, no spec directory."""
    if not (SRC / "kummer_lcd" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'kummer_lcd'} not found; run from a source checkout")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("KUMMER_LCD_SPEC_DIR", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def setup(workload: str):
    """Import kummer_lcd and build the workload's fields, curves and points."""
    import kummer_lcd
    import kummer_lcd.cli  # noqa: F401  (binds kummer_lcd.cli)
    for name in workloads.SETUP_CURVES[workload]:
        kummer_lcd.builtin_curve(name).rational_points()
    return kummer_lcd


def probe_setup(workload: str) -> None:
    start = time.perf_counter()
    prepare_environment()
    setup(workload)
    print(repr(time.perf_counter() - start))


def measure_setup(workload: str) -> tuple:
    """Median setup time over fresh processes: (normalised, raw)."""
    probe = SpeedProbe("python")
    intervals = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--probe-setup", workload],
                              capture_output=True, text=True, timeout=120, check=True)
        setup_s = float(proc.stdout.strip().splitlines()[-1])
        intervals.append((start, start + setup_s))
        probe.reading()
    times = [probe.normalize(start, end) for start, end in intervals]
    return (statistics.median(norm for _, norm in times),
            statistics.median(raw for raw, _ in times))


# ---------------------------------------------------------------------------
# run metadata

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_metadata(seed) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    src_lines = sum(path.read_bytes().count(b"\n")
                    for path in sorted((SRC / "kummer_lcd").glob("*.py")))
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# the closed loop

class Run:
    """Outcomes of the tasks run so far and what their checks found.

    After ``finish()``, ``latencies`` are normalised by the workload's speed
    probe (speed.py) and ``raw_latencies`` are wall-clock times.
    """

    def __init__(self, kl, probe: SpeedProbe):
        self.kl = kl
        self.probe = probe
        self.intervals: list = []  # (start, end) of each task; None if it raised
        self.latencies: list = []
        self.raw_latencies: list = []
        self.strata: list = []
        self.failures: dict = {}   # task index -> reason
        self.claims: list = []     # (task index, curve, G, reported hull_dim)
        self.output_bytes = 0

    def run(self, task: dict) -> None:
        index = len(self.intervals)
        self.strata.append(task["key"].split("/")[1])
        self.probe.arm()
        try:
            outcome = workloads.run_task(self.kl, task)
        except Exception:  # a raising task is a failed task; keep measuring
            self.intervals.append(None)
            self.failures[index] = f"{task['key']}: {traceback.format_exc(limit=3)}"
            return
        finally:
            self.probe.disarm()
            self.probe.reading()
        self.intervals.append((outcome.start, outcome.start + outcome.latency))
        self.output_bytes += len(outcome.stdout.encode("utf-8"))
        reason = workloads.check(task, outcome)
        if reason:
            self.failures[index] = f"{task['key']}: {reason}"
            return
        self.claims.extend((index,) + claim
                           for claim in workloads.hull_claims(task, outcome.stdout))

    def check_hull_claims(self) -> None:
        """Second route: hull_dimension_by_rank against every reported hull_dim."""
        kl, curves, verdicts = self.kl, {}, {}
        for index, curve_name, G, hull_dim in self.claims:
            if (curve_name, G) not in verdicts:
                if curve_name not in curves:
                    curves[curve_name] = kl.builtin_curve(curve_name)
                curve = curves[curve_name]
                code = kl.build_code(curve, curve.standard_D(), kl.parse_divisor(curve, G))
                verdicts[(curve_name, G)] = kl.hull_dimension_by_rank(code)
            by_rank = verdicts[(curve_name, G)]
            if by_rank != hull_dim:
                self.failures.setdefault(
                    index, f"{curve_name} G={G}: hull_dim {hull_dim}, by rank {by_rank}")

    @property
    def attempted(self) -> int:
        return len(self.intervals)

    def finish(self) -> None:
        """Normalise every task time, once the readings after it exist."""
        times = [self.probe.normalize(*iv) if iv else (math.nan, math.nan)
                 for iv in self.intervals]
        self.raw_latencies = [raw for raw, _ in times]
        self.latencies = [norm for _, norm in times]

    def by_stratum(self) -> dict:
        """Median normalised and raw latency of each stratum."""
        out: dict = {}
        for name, norm, raw in zip(self.strata, self.latencies, self.raw_latencies):
            if math.isnan(raw):
                continue
            out.setdefault(name, ([], []))
            out[name][0].append(norm)
            out[name][1].append(raw)
        return {name: {"median_s": statistics.median(norm), "raw_median_s": statistics.median(raw),
                       "tasks": len(norm)} for name, (norm, raw) in sorted(out.items())}

    def busy(self, raw: bool = False) -> float:
        """Total task time, normalised unless ``raw``."""
        values = self.raw_latencies if raw else self.latencies
        return sum(x for x in values if not math.isnan(x))


def load_pools(workload: str) -> dict:
    path = HERE / "golden" / f"{workload}.json"
    pools = json.loads(path.read_text(encoding="utf-8"))["pools"]
    for stratum in workloads.STRATA[workload]:
        pool = pools.get(stratum.name)
        if not pool or len(pool) < stratum.per_cycle:
            raise SystemExit(f"error: {path.name} has no pool for {stratum.name}; "
                             "regenerate it with perfbench/golden.py")
    return pools


def timed_phase(run: Run, workload: str, pools: dict, rng: random.Random,
                seconds: float):
    """Whole cycles until less than half a cycle of the budget is left."""
    cycles = 0
    start = time.perf_counter()
    while True:
        for task in workloads.make_cycle(workload, pools, rng):
            run.run(task)
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds - 0.5 * elapsed / cycles:
            return cycles, elapsed


def latency_stats(workload: str, latencies: list) -> tuple:
    """(median, tail) where the tail is the nearest-rank tail percentile."""
    done = sorted(x for x in latencies if not math.isnan(x))
    if not done:
        return math.nan, math.nan
    pct = workloads.tail_percentile(workload)
    return statistics.median(done), done[max(math.ceil(pct * len(done) / 100) - 1, 0)]


def metric(value, unit) -> dict:
    """A metric entry; null when no task completed to measure it."""
    return {"value": None if math.isnan(value) else value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", choices=workloads.WORKLOADS,
                        help=argparse.SUPPRESS)  # internal: one fresh-process setup
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.probe_setup)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    prepare_environment()
    pools = load_pools(args.workload)
    rng = random.Random(args.seed)
    kernel = workloads.SPEED_KERNEL[args.workload]
    meta = run_metadata(args.seed)
    meta.update(workload=args.workload, trace=args.trace, seconds=args.seconds)

    if args.trace:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        tracer.task = "setup"
        tracer.install()
        try:
            kl = setup(args.workload)
        finally:
            tracer.uninstall()
        cycle = workloads.make_cycle(args.workload, pools, rng)
        probe = SpeedProbe(kernel)
        plain = Run(kl, probe)
        for task in cycle:
            plain.run(task)
        plain.finish()
        run = Run(kl, probe)
        tracer.install()
        escaped = tracer.escaped()
        try:
            for index, task in enumerate(cycle):
                tracer.task = index
                run.run(task)
        finally:
            tracer.uninstall()
            tracer.task = None
        probe.reading()
        run.finish()
        for part in (plain, run):
            part.check_hull_claims()
        failures = list(plain.failures.values()) + list(run.failures.values())
        attempted = plain.attempted + run.attempted
        # span times are raw; scale them like the traced tasks' latencies
        scale = run.busy() / run.busy(raw=True)
        values = {name: (unit, v * scale if unit == "s" else v / scale if unit == "1/s" else v)
                  for name, (unit, v) in layer_metrics(tracer).items()}
        values["cli.output_bytes"] = ("count", run.output_bytes)
        values["trace.overhead_frac"] = ("ratio", 1.0 - plain.busy() / run.busy())
        metrics = {name: metric(v, unit) for name, (unit, v) in values.items()}
        if escaped:
            failures.append(f"untraced bindings: {escaped}")
        if tracer.counts["trace.hook_errors"]:
            failures.append(f"{tracer.counts['trace.hook_errors']} counter hooks failed")
        meta.update(untraced_raw_s=plain.busy(raw=True), traced_raw_s=run.busy(raw=True),
                    speed_scale=scale, spans=len(tracer.spans))
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        kl = setup(args.workload)
        setup_s, raw_setup_s = measure_setup(args.workload)
        run = Run(kl, SpeedProbe(kernel))
        cycles, elapsed = timed_phase(run, args.workload, pools, rng, args.seconds)
        run.finish()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.check_hull_claims()
        failures = list(run.failures.values())
        attempted = run.attempted
        p50, tail = latency_stats(args.workload, run.latencies)
        raw_p50, raw_tail = latency_stats(args.workload, run.raw_latencies)
        pct = workloads.tail_percentile(args.workload)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "tasks_per_s": metric(attempted / run.busy(), "1/s"),
            "task_p50_s": metric(p50, "s"),
            "task_tail_s": metric(tail, "s"),
            "ok_frac": metric((attempted - len(run.failures)) / attempted, "ratio"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        meta.update(cycles=cycles, cycle_size=workloads.cycle_size(args.workload),
                    tail_percentile=pct, samples=attempted, timed_wall_s=elapsed,
                    raw={"setup_s": raw_setup_s, "tasks_per_s": attempted / run.busy(raw=True),
                         "task_p50_s": raw_p50, "task_tail_s": raw_tail},
                    strata=run.by_stratum())
        print(f"# {args.workload}: {attempted} tasks in {cycles} cycles of "
              f"{workloads.cycle_size(args.workload)}, {elapsed:.2f} s wall; "
              f"task_tail_s is p{pct} of {attempted} tasks; "
              f"raw tasks_per_s {attempted / run.busy(raw=True):.4g}, "
              f"p50 {raw_p50:.4g} s, tail {raw_tail:.4g} s")

    for reason in failures:
        print(f"FAILED {reason}", file=sys.stderr)
    meta["failures"] = failures
    meta["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
