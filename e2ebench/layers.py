"""Per-layer counts and inclusive times for the traced run.

:class:`LayerTrace` wraps public entry points of each layer of ``repro``
while it is active and puts every original back on exit; the untraced runs
never see a wrapper.  Wrappers count calls and, where the table in
README.md asks for it, add the call's inclusive seconds.  Public counters
(``Simulator.events_processed``, ``FTStats``) are read after each run, and
``gc.callbacks`` times the cyclic collector.
"""

from __future__ import annotations

import functools
import gc
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

from repro.chaos import runner as chaos_runner
from repro.ft.image import CheckpointImage
from repro.ft.server import CheckpointServer
from repro.harness import runner as harness_runner
from repro.mpi.context import RankContext
from repro.net.flows import FlowScheduler
from repro.runtime import launch
from repro.sim.engine import Simulator, Watchdog
from repro.verify import MonitorBus, all_monitors

#: layers whose counts must repeat exactly across traced runs of one seed
DETERMINISTIC_PREFIXES = ("sim.", "net.", "mpi.", "ft.", "verify.")

#: every per-layer metric with its unit, in report order
METRICS: Tuple[Tuple[str, str], ...] = (
    ("sim.events", "count"),
    ("sim.tombstones", "count"),
    ("sim.compactions", "count"),
    ("sim.live_pop_ratio", "ratio"),
    ("sim.loop_s", "s"),
    ("sim.watchdog_calls", "count"),
    ("sim.watchdog_s", "s"),
    ("net.flow_starts", "count"),
    ("net.flow_cancels", "count"),
    ("net.flow_start_s", "s"),
    ("mpi.sends", "count"),
    ("mpi.recvs", "count"),
    ("ft.snapshots", "count"),
    ("ft.restores", "count"),
    ("ft.images_sealed", "count"),
    ("ft.waves_committed", "count"),
    ("ft.failures", "count"),
    ("ft.restarts", "count"),
    ("verify.dispatches", "count"),
    ("verify.dispatch_s", "s"),
    ("verify.steps", "count"),
    ("verify.step_s", "s"),
    ("runtime.build_runs", "count"),
    ("runtime.build_s", "s"),
    ("harness.runs", "count"),
    ("harness.run_p50_s", "s"),
    ("harness.run_p75_s", "s"),
    ("chaos.scenarios", "count"),
    ("gc.collections", "count"),
    ("gc.pause_s", "s"),
    ("gc.gen2_pause_s", "s"),
    ("trace.overhead_s", "s"),
)


def _quartiles(values: List[float]) -> Tuple[float, float]:
    """(median, third quartile); zeros when there are no values."""
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0]
    _q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q3


class LayerTrace:
    """Context manager: wrap the layers, collect one run's numbers."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.seconds: Dict[str, float] = defaultdict(float)
        self.run_seconds: List[float] = []
        self.stats: List = []
        self._patches: List[Tuple[object, str, object]] = []
        self._gc_start = 0.0

    # ------------------------------------------------------------ wrappers
    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, key: str, fn: Callable, seconds_key: str) -> Callable:
        counts, seconds = self.counts, self.seconds
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[seconds_key] += clock() - start
        return wrapper

    def _loop(self, fn: Callable) -> Callable:
        """run_until_complete: inclusive time plus the kernel's counters."""
        counts, seconds = self.counts, self.seconds
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(sim, *args, **kwargs):
            events, garbage = sim.events_processed, sim.tombstones_total
            compactions = sim.compactions
            start = clock()
            try:
                return fn(sim, *args, **kwargs)
            finally:
                seconds["sim.loop"] += clock() - start
                counts["sim.events"] += sim.events_processed - events
                counts["sim.tombstones"] += sim.tombstones_total - garbage
                counts["sim.compactions"] += sim.compactions - compactions
        return wrapper

    def _commit(self, fn: Callable) -> Callable:
        """CheckpointServer.commit: count the calls that commit a wave."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(server, wave, *args, **kwargs):
            before = server.committed_wave
            try:
                return fn(server, wave, *args, **kwargs)
            finally:
                if server.committed_wave != before:
                    counts["ft.waves_committed"] += 1
        return wrapper

    def _build_run(self, fn: Callable) -> Callable:
        timed = self._timed("runtime.build_runs", fn, "runtime.build")
        stats = self.stats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            run = timed(*args, **kwargs)
            # FTStats outlives the run's incarnations; keep only it, not
            # the run, so the traced heap matches the untraced one
            stats.append(run.stats)
            return run
        return wrapper

    def _execute(self, fn: Callable) -> Callable:
        counts, run_seconds = self.counts, self.run_seconds
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["harness.runs"] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                run_seconds.append(clock() - start)
        return wrapper

    def _on_gc(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_start
        self.counts["gc.collections"] += 1
        self.seconds["gc.pause"] += pause
        if info.get("generation") == 2:
            self.seconds["gc.gen2_pause"] += pause

    # ------------------------------------------------------------- install
    def _patch_method(self, cls: type, name: str, wrapper: Callable) -> None:
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, wrapper(original))

    def _patch_function(self, fn: Callable, wrapper: Callable) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it."""
        wrapped = wrapper(fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or
                                      module_name.startswith("repro.")):
                continue
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, name, fn))
                    setattr(module, name, wrapped)

    def patched(self) -> List[Tuple[object, str, object]]:
        """(owner, attribute, original) for every attribute wrapped."""
        return list(self._patches)

    def __enter__(self) -> "LayerTrace":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._on_gc)
        self._restore()

    def _restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)

    def _install(self) -> None:
        method = self._patch_method
        method(Simulator, "run_until_complete", self._loop)
        method(Watchdog, "observe",
               lambda fn: self._timed("sim.watchdog_calls", fn,
                                      "sim.watchdog"))
        method(FlowScheduler, "start",
               lambda fn: self._timed("net.flow_starts", fn, "net.flow"))
        method(FlowScheduler, "cancel",
               lambda fn: self._timed("net.flow_cancels", fn, "net.flow"))
        for name in ("send", "isend"):
            method(RankContext, name, lambda fn: self._counted("mpi.sends", fn))
        for name in ("recv", "irecv"):
            method(RankContext, name, lambda fn: self._counted("mpi.recvs", fn))
        method(RankContext, "take_snapshot",
               lambda fn: self._counted("ft.snapshots", fn))
        method(RankContext, "restore_snapshot",
               lambda fn: self._counted("ft.restores", fn))
        method(CheckpointImage, "seal",
               lambda fn: self._counted("ft.images_sealed", fn))
        method(CheckpointServer, "commit", self._commit)
        method(MonitorBus, "dispatch",
               lambda fn: self._timed("verify.dispatches", fn,
                                      "verify.dispatch"))
        steppers = {type(m) for m in all_monitors()
                    if "on_step" in type(m).__dict__}
        for cls in sorted(steppers, key=lambda c: c.__name__):
            method(cls, "on_step",
                   lambda fn: self._timed("verify.steps", fn, "verify.step"))
        self._patch_function(launch.build_run, self._build_run)
        self._patch_function(harness_runner.execute, self._execute)
        self._patch_function(chaos_runner.run_scenario,
                             lambda fn: self._counted("chaos.scenarios", fn))

    # ------------------------------------------------------------- results
    def deterministic_counts(self) -> Dict[str, int]:
        return {key: value for key, value in sorted(self.counts.items())
                if key.startswith(DETERMINISTIC_PREFIXES)}

    def metrics(self) -> Dict[str, float]:
        """This run's value of every metric but ``trace.overhead_s``."""
        counts, seconds = self.counts, self.seconds
        events = counts["sim.events"]
        pops = events + counts["sim.tombstones"]
        p50, p75 = _quartiles(self.run_seconds)
        values = {
            key: counts[key] for key, unit in METRICS if unit == "count"
        }
        values["ft.failures"] = sum(s.failures for s in self.stats)
        values["ft.restarts"] = sum(s.restarts for s in self.stats)
        values.update({
            "sim.live_pop_ratio": events / pops if pops else 0.0,
            "sim.loop_s": seconds["sim.loop"],
            "sim.watchdog_s": seconds["sim.watchdog"],
            "net.flow_start_s": seconds["net.flow"],
            "verify.dispatch_s": seconds["verify.dispatch"],
            "verify.step_s": seconds["verify.step"],
            "runtime.build_s": seconds["runtime.build"],
            "harness.run_p50_s": p50,
            "harness.run_p75_s": p75,
            "gc.pause_s": seconds["gc.pause"],
            "gc.gen2_pause_s": seconds["gc.gen2_pause"],
        })
        return values
