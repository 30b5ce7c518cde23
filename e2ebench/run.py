"""End-to-end benchmark of the reproduction: what users wait for.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload fig5_grid --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of README.md (wall time,
simulated seconds per host second, set-up time, peak RSS) with the program
unmodified; ``--trace 1`` runs one untraced pass and then traced passes
that report the per-layer metrics.  Every pass checks the program's
outputs.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records what produced the result (Python, nproc, git revision, source
digest).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(HERE, "setup_probe.py")

#: the keys of workloads.WORKLOADS, repeated so that arguments are checked
#: before the environment and before the program is imported
WORKLOAD_NAMES = ("fig5_grid", "chaos_smoke", "mttf_sweep")
#: variables that select another program: the O(n) reference kernel, a
#: process pool, metrics collection
PINNED_ENV = ("REPRO_KERNEL", "REPRO_JOBS", "REPRO_METRICS")
#: fresh processes timed per run, at least, for setup_s (median reported)
SETUP_SAMPLES = 11
PROBE_TIMEOUT_S = 120


def environment_problem() -> Optional[str]:
    """Why this process must not measure, or None."""
    stray = [name for name in PINNED_ENV if name in os.environ]
    if stray:
        return (f"refusing to run: {', '.join(stray)} set; these select the "
                "reference kernel, a process pool or metrics collection, "
                "so the benchmark would measure a different program. "
                "Unset them and run again.")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return (f"refusing to run: no program source at {SRC}; run the "
                "benchmark from a full checkout")
    return None


def provenance() -> Dict[str, object]:
    """What produced a result: interpreter, host and source revision."""
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    revision = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        # the ceiling keeps git from searching above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env)
        revision = done.stdout.strip() if done.returncode == 0 else None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Process start to first simulated event, in one fresh process."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, PROBE, workload, str(seed)], cwd=ROOT,
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1]) - start


class Passes:
    """Runs passes of one workload and keeps their checks and timings."""

    def __init__(self, workloads, name: str, seed: int) -> None:
        self.workloads = workloads
        self.name = name
        self.seed = seed
        self.first = None
        self.attempted = 0
        self.failures: List[str] = []
        self.notes: List[str] = []

    def run(self, trace=None):
        """One pass, inside ``trace`` if given: returns (Pass, wall s)."""
        gc.collect()
        with trace or contextlib.nullcontext():
            start = time.perf_counter()
            result = self.workloads.run_workload(self.name, self.seed,
                                                 self.first)
            wall = time.perf_counter() - start
        if self.first is None:
            self.first = result
        self.attempted += len(result.ops)
        self.failures += [f"{op.label}: {op.detail}"
                          for op in self.workloads.failed_ops(result)]
        self.notes += result.notes
        return result, wall


def measure(passes: Passes, seconds: float) -> Dict[str, Dict]:
    """End-to-end metrics: passes until the next would overrun."""
    walls, parts, setup = [], [], []
    start = time.perf_counter()
    while True:
        result, wall = passes.run()
        walls.append(wall)
        parts.append(result.part_seconds)
        # one set-up sample after each pass spreads the samples over the
        # run: set-up time swings more with the host's state than the
        # passes do, and samples taken in one burst share that state
        setup.append(setup_seconds(passes.name, passes.seed))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_seconds(passes.name, passes.seed))
    # Each part's fastest pass: the host's speed drifts by tens of percent
    # within a run, and the fastest repeat of a part is the one least slowed
    # by it.  Every pass does identical work (check_repeat enforces it).
    wall_s = sum(min(times) for times in zip(*parts))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": {"value": wall_s, "unit": "s"},
        "sim_s_per_s": {"value": passes.first.sim_seconds / wall_s,
                        "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def measure_layers(passes: Passes, seconds: float) -> Dict[str, Dict]:
    """Per-layer metrics: one untraced pass, then traced passes."""
    import layers

    start = time.perf_counter()
    _result, untraced = passes.run()
    traced_walls: List[float] = []
    values: List[Dict[str, float]] = []
    counts = None
    while True:
        trace = layers.LayerTrace()
        _result, wall = passes.run(trace)
        traced_walls.append(wall)
        values.append(trace.metrics())
        if counts is None:
            counts = trace.deterministic_counts()
        elif trace.deterministic_counts() != counts:
            passes.notes.append("traced counts differ between passes")
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(traced_walls) > seconds:
            break
    metrics = {}
    for key, unit in layers.METRICS:
        if key == "trace.overhead_s":
            value = statistics.median(traced_walls) - untraced
        elif unit == "count":
            value = values[0][key]
        else:
            value = statistics.median(v[key] for v in values)
        metrics[key] = {"value": value, "unit": unit}
    return metrics


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0,
                        help="measurement budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    problem = environment_problem()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    passes = Passes(workloads, args.workload, args.seed)
    if args.trace:
        metrics = measure_layers(passes, args.seconds)
    else:
        metrics = measure(passes, args.seconds)
    for line in passes.failures + passes.notes:
        print(f"FAIL {args.workload}: {line}")
    print(json.dumps({"provenance": provenance(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    failed = len(passes.failures)
    print(json.dumps({
        "correct": failed == 0 and not passes.notes,
        "attempted": passes.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
