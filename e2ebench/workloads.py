"""The benchmark's workloads: what users of the reproduction wait for.

Each workload drives the program through its public entry points and returns
one :class:`Pass` per execution of its fixed work.  A pass lists its
operations (one figure grid point, one chaos scenario or one mttf run), each
with the output the reference files pin, and the simulated seconds the pass
completed.

Module-level functions that the traced run wraps (``build_run``) are looked
up through their module on every call, so a wrapper installed on the module
attribute is seen here too.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import repro.runtime as runtime
from repro.apps.synthetic import burst
from repro.chaos import run_campaign, smoke_campaign
from repro.harness.config import get_profile
from repro.harness.figures import get_experiment
from repro.sim import Simulator

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

#: the seed whose outputs are pinned by the files in ``reference/``
DEFAULT_SEED = 0


@dataclass
class Op:
    """One operation: a grid point, a chaos scenario or an mttf run."""

    label: str
    ok: bool
    #: JSON-able output compared against the reference and across passes
    output: object
    detail: str = ""


@dataclass
class Pass:
    """One execution of a workload's fixed work."""

    ops: List[Op]
    #: simulated seconds completed, summed over the pass's runs
    sim_seconds: float
    #: host seconds of each timed part of the pass, in order: a chaos
    #: scenario, an mttf run, or the whole fig5 grid (the figure entry
    #: point exposes no boundary between its grid points)
    part_seconds: List[float] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


# ------------------------------------------------------------------ fig5_grid
def fig5_grid(seed: int) -> Pass:
    """The Fig. 5 smoke grid: BT.B/64, Pcl and Vcl, 1 and 4 servers."""
    profile = get_profile("smoke", seed)
    start = time.perf_counter()
    result = get_experiment("fig5")(profile)
    part_seconds = [time.perf_counter() - start]
    series = {s.label: s.ys for s in result.series}
    failed_checks = sorted(name for name, ok in result.checks.items()
                           if not ok)
    ops = []
    sim_seconds = 0.0
    for protocol in ("pcl", "vcl"):
        for i, n_servers in enumerate(profile.fig5_servers):
            name = f"fig5-{protocol}-s{n_servers}"
            output = fig5_point(series, protocol, i)
            sim_seconds += output[0]
            verdict = result.monitors.get(name, {"ok": False})
            detail = ""
            if not verdict["ok"]:
                detail = "monitor violation or run not monitored"
            elif failed_checks:
                # a figure check judges the whole grid, so it fails every
                # point of it
                detail = "figure checks failed: " + ", ".join(failed_checks)
            ops.append(Op(name, not detail, output, detail))
    return Pass(ops, sim_seconds, part_seconds)


def fig5_point(series: Dict[str, List[float]], protocol: str,
               index: int) -> List[float]:
    """[completion time, completed waves] of one grid point."""
    return [series[f"{protocol} time [s]"][index],
            series[f"{protocol} waves"][index]]


# ---------------------------------------------------------------- chaos_smoke
def chaos_smoke(seed: int) -> Pass:
    """The 48-scenario smoke chaos campaign."""
    marks = [time.perf_counter()]
    campaign = run_campaign(smoke_campaign(seed),
                            progress=lambda _result: marks.append(
                                time.perf_counter()))
    ops = []
    for result in campaign.results:
        detail = ""
        if not result.ok:
            detail = f"verdict {result.verdict}: {result.detail}"
        elif result.monitors_ok is False:
            detail = "monitor violation"
        ops.append(Op(result.scenario.label, not detail, result.verdict,
                      detail))
    sim_seconds = sum(r.completion for r in campaign.results
                      if r.completion is not None)
    return Pass(ops, sim_seconds, [b - a for a, b in zip(marks, marks[1:])])


# ----------------------------------------------------------------- mttf_sweep
# The mttf figure's run configuration (repro.harness.figures.mttf).
MTTF = 12.0
MTTF_PERIODS = (0.3, 1.0, 3.0, 9.0, 27.0)
MTTF_MAX_FAILURES = 40
#: the fixed Poisson draw of failure instants every seed starts from
BASE_SCHEDULE_SEED = 13
#: how far the seed moves each failure instant, in simulated seconds
JITTER_S = 0.5


def mttf_failures(seed: int) -> List[Tuple[float, int]]:
    """(instant, victim rank) of every failure of the sweep.

    The instants are one fixed Poisson draw with a 12 s MTTF (its first
    failure lands at 3.6 s, so every run sees one), each moved by up to
    :data:`JITTER_S` by the seed, which also draws every victim.  A fresh
    Poisson draw per seed would vary the sweep's work with the seed (event
    counts spread 42% of their median over seeds 1-20), so wall times of
    different seeds could not be compared; the jitter keeps that spread
    near 2% while the outputs still depend on the seed.
    """
    base = random.Random(BASE_SCHEDULE_SEED)
    draw = random.Random(seed)
    failures, instant = [], 0.0
    for _ in range(MTTF_MAX_FAILURES):
        instant += -math.log(1.0 - base.random()) * MTTF
        jitter = (2.0 * draw.random() - 1.0) * JITTER_S
        victim = int(draw.random() * 8)
        failures.append((instant + jitter, victim))
    return failures


def mttf_sweep(seed: int) -> Pass:
    """8 ranks, Pcl, fan-3 100 KB bursts, 8 MB images and task failures at
    a 12 s MTTF, swept over the figure's five periods on one failure
    schedule; no monitors and no watchdog, as in the figure."""
    failures = mttf_failures(seed)
    ops = []
    sim_seconds = 0.0
    part_seconds = []
    for period in MTTF_PERIODS:
        start = time.perf_counter()
        sim = Simulator(seed=seed)
        app = burst(iters=140, nbytes=100_000, fan=3, compute=0.25)
        spec = runtime.DeploymentSpec(
            n_procs=8, protocol="pcl", channel="ft_sock", network="gige",
            n_servers=1, period=period, image_bytes=8e6, procs_per_node=1,
            fork_latency=0.02, launcher="instant",
        )
        run = runtime.build_run(sim, spec, app, name=f"mttf-s{seed}")
        run.max_restarts = 64
        run.start()
        for at, victim in failures:
            run.schedule_task_kill(victim, at)
        label = f"mttf-p{period:g}"
        try:
            completion = sim.run_until_complete(run.completed, limit=1e6)
        except Exception as error:  # noqa: BLE001 - a crash fails the op
            ops.append(Op(label, False, None,
                          f"{type(error).__name__}: {error}"))
            continue
        finally:
            part_seconds.append(time.perf_counter() - start)
        output = [completion, run.stats.failures, sim.events_processed]
        detail = "" if run.stats.failures else "no failure injected"
        ops.append(Op(label, not detail, output, detail))
        sim_seconds += completion
    return Pass(ops, sim_seconds, part_seconds)


WORKLOADS: Dict[str, Callable[[int], Pass]] = {
    "fig5_grid": fig5_grid,
    "chaos_smoke": chaos_smoke,
    "mttf_sweep": mttf_sweep,
}


# ------------------------------------------------------------------ reference
def load_reference(workload: str) -> Dict[str, object]:
    """Reference outputs of :data:`DEFAULT_SEED`, keyed by operation label."""
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as fh:
        return reference_from_doc(workload, json.load(fh))


def reference_from_doc(workload: str, doc: Dict) -> Dict[str, object]:
    """Operation label -> output, from a reference file's contents."""
    if workload == "fig5_grid":
        # kept as the figure's series, verbatim from results/fig5_smoke.json
        series = {s["label"]: s["ys"] for s in doc["series"]}
        servers = doc["series"][0]["xs"]
        return {f"fig5-{protocol}-s{n}": fig5_point(series, protocol, i)
                for protocol in ("pcl", "vcl")
                for i, n in enumerate(servers)}
    return doc


def _fail(op: Op, message: str) -> None:
    op.ok = False
    op.detail = f"{op.detail}; {message}" if op.detail else message


def check_reference(run: Pass, reference: Dict[str, object]) -> None:
    """Fail every operation whose output differs from the reference."""
    missing = set(reference) - {op.label for op in run.ops}
    if missing:
        run.notes.append(f"reference operations not run: {sorted(missing)}")
    for op in run.ops:
        want = reference.get(op.label)
        if op.output != want:
            _fail(op, f"output {op.output!r} != reference {want!r}")


def check_repeat(run: Pass, first: Pass) -> None:
    """Fail every operation whose output differs from the first pass's."""
    for op, base in zip(run.ops, first.ops):
        if op.label != base.label or op.output != base.output:
            _fail(op, f"output {op.output!r} differs from the first pass "
                      f"{base.output!r}")
    if len(run.ops) != len(first.ops):
        run.notes.append(f"{len(run.ops)} operations, first pass had "
                         f"{len(first.ops)}")


def failed_ops(run: Pass) -> List[Op]:
    return [op for op in run.ops if not op.ok]


def run_workload(name: str, seed: int,
                 first: Optional[Pass] = None) -> Pass:
    """Run one pass and apply every output check."""
    run = WORKLOADS[name](seed)
    if first is not None:
        check_repeat(run, first)
    elif seed == DEFAULT_SEED:
        check_reference(run, load_reference(name))
    return run
