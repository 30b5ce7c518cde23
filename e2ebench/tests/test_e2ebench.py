"""The benchmark's own checks: output checks fire, tracing leaves no trace.

Run from the root of a checkout::

    python3 -m pytest e2ebench/tests
"""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import workloads  # noqa: E402

SEED = workloads.DEFAULT_SEED


def _tree_digest(top: str) -> str:
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(top):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, top).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def fig5_run():
    results = os.path.join(ROOT, "results")
    before = _tree_digest(results)
    run = workloads.WORKLOADS["fig5_grid"](SEED)
    return run, before, _tree_digest(results)


@pytest.fixture(scope="module")
def chaos_run():
    return workloads.WORKLOADS["chaos_smoke"](SEED)


def _failed_after_check(run, reference):
    run = copy.deepcopy(run)
    workloads.check_reference(run, reference)
    return [op.label for op in workloads.failed_ops(run)]


def test_fig5_grid_leaves_results_unchanged(fig5_run):
    _run, before, after = fig5_run
    assert before == after


def test_fig5_reference_is_the_committed_golden():
    with open(os.path.join(workloads.REFERENCE_DIR, "fig5_grid.json")) as fh:
        pinned = json.load(fh)["series"]
    with open(os.path.join(ROOT, "results", "fig5_smoke.json")) as fh:
        golden = json.load(fh)["series"]
    assert pinned == [{key: s[key] for key in ("label", "xs", "ys")}
                      for s in golden]


def test_fig5_matches_reference(fig5_run):
    run, _before, _after = fig5_run
    assert _failed_after_check(run, workloads.load_reference("fig5_grid")) \
        == []


def test_altered_fig5_series_value_is_a_failed_operation(fig5_run):
    run, _before, _after = fig5_run
    with open(os.path.join(workloads.REFERENCE_DIR, "fig5_grid.json")) as fh:
        doc = json.load(fh)
    doc["series"][0]["ys"][1] += 1e-9  # pcl time at 4 servers
    reference = workloads.reference_from_doc("fig5_grid", doc)
    assert _failed_after_check(run, reference) == ["fig5-pcl-s4"]


def test_chaos_matches_reference(chaos_run):
    assert _failed_after_check(
        chaos_run, workloads.load_reference("chaos_smoke")) == []


def test_flipped_chaos_verdict_is_a_failed_operation(chaos_run):
    reference = workloads.load_reference("chaos_smoke")
    label = next(label for label, verdict in reference.items()
                 if verdict == "recovered")
    reference[label] = "completed"
    assert _failed_after_check(chaos_run, reference) == [label]


def _traced(name):
    with layers.LayerTrace() as trace:
        workloads.WORKLOADS[name](SEED)
    return trace


@pytest.mark.parametrize("name", ["mttf_sweep", "chaos_smoke"])
def test_traced_run_restores_originals_and_repeats_counts(name, chaos_run):
    # chaos_run has imported every module a pass touches, so no module
    # first binds a wrapper while the trace is active
    first = _traced(name)
    for owner, attribute, original in first.patched():
        assert vars(owner)[attribute] is original, (owner, attribute)
    assert first._on_gc not in gc.callbacks
    second = _traced(name)
    assert first.deterministic_counts() == second.deterministic_counts()
    values = first.metrics()
    assert {key for key, _unit in layers.METRICS} - set(values) \
        == {"trace.overhead_s"}
    watched = ("verify.dispatches", "verify.steps", "sim.watchdog_calls")
    if name == "mttf_sweep":
        assert all(values[key] == 0 for key in watched)
        assert values["ft.restores"] > 0
    else:
        assert all(values[key] > 0 for key in watched)
        assert values["chaos.scenarios"] == 48


def test_pinned_environment_is_refused():
    env = dict(os.environ, REPRO_JOBS="2")
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "mttf_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "REPRO_JOBS" in done.stderr
    assert done.stdout == ""


def test_without_program_source_exits_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "mttf_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
