"""Smoke test of the benchmark itself, on the tiny size.

    python3 -m pytest -q perfbench/smoke_test.py

Every workload runs once and reports all end-to-end metrics with units
and fail_frac 0; two traced runs give identical counts; no two calls
of a run share a grid; perturbed
outputs and a perturbed program count as failures; and the benchmark
refuses to run without the program's source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Tally  # noqa: E402

SCRATCH = ROOT / ".perfbench_out" / "smoke"

UNITS = {"campaign_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "fail_frac": "ratio"}


@pytest.fixture
def scratch(request):
    path = SCRATCH / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(workload, trace, seed=0, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[0].removeprefix("meta "))
    return meta, lines[1:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics(workload):
    meta, lines, res = _result(_run(workload, 0))
    printed = {line.split()[0]: line.split()[2] for line in lines}
    assert printed == UNITS
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert meta["fail_frac"] == 0.0
    # the first pass has references; later passes get inputs of their own
    assert meta["checked_against_reference"] == res["attempted"] // meta["passes"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        k: u for k, u in UNITS.items() if k != "fail_frac"}
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat(workload):
    runs = [_result(_run(workload, 1)) for _ in range(2)]
    for meta, _, res in runs:
        assert res["correct"] and meta["counts_repeat"]
        assert list(res["metrics"]) == tracing.LAYER_METRICS
        assert 0.9 <= res["metrics"]["trace.accounted_frac"]["value"] <= 1.0 + 1e-9
    counts = [{k: v["value"] for k, v in res["metrics"].items()
               if k.rpartition(".")[2] in tracing.COUNT_SUFFIXES}
              for _, _, res in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_no_two_calls_share_a_grid():
    for workload in workloads.WORKLOADS:
        ops = [op for k in range(3) for op in workloads.build(workload, 0, "tiny", k)]
        windows = {tuple((op.config.get("grid") or op.config.get("search")
                          or op.config)["window"]) for op in ops}
        assert len(windows) == len(ops), workload


def test_perturbed_output_fails():
    refs = checks.load_references()
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, 0, "tiny"):
            want = refs[op.key]
            field = next(k for k in ("best_ratio", "constant", "epsilon") if k in want)
            got = dict(want)
            if isinstance(got[field], list):
                got[field] = [v * (1 + 1e-6) for v in got[field]]
            elif got[field] not in (0.0, float("inf")):
                got[field] = got[field] * (1 + 1e-6)
            else:
                continue
            bad, used = checks.check(op, got, refs)
            assert used and bad, op.label


def _pass_with(monkeypatch, workload, seed, module, name, wrap, workdir):
    from onesided import experiments, operators  # noqa: F401
    original = getattr(module, name)
    for mod in (operators, experiments):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrap(original))
    prepared = workloads.Prepared(workloads.build(workload, seed, "tiny"), workdir)
    tally = Tally(checks.load_references())
    tally.add(prepared, prepared.run_pass()[0])
    return tally


def test_perturbed_program_fails(monkeypatch, scratch):
    from onesided import operators

    def shrink(scale):
        def wrap(fn):
            return lambda *a, **k: fn(*a, **k) * scale
        return wrap

    # against references: a 1e-6 change in M+ is caught
    tally = _pass_with(monkeypatch, "maximal_doubling", 0, operators,
                       "forward_extremal_averages", shrink(1 + 1e-6), scratch / "a")
    assert tally.failed == tally.attempted
    monkeypatch.undo()
    # without references (seed 999): M+ below |f| breaks the ratio >= 1 invariant
    def below_point_value(fn):
        return lambda values, *a, **k: 0.5 * np.abs(values)

    tally = _pass_with(monkeypatch, "maximal_doubling", 999, operators,
                       "forward_extremal_averages", below_point_value, scratch / "b")
    assert tally.checked_against_reference == 0
    assert tally.failed == tally.attempted
    monkeypatch.undo()
    # the oscillatory campaigns through the CLI
    tally = _pass_with(monkeypatch, "osc_campaign", 0, operators,
                       "oscillatory_apply_batch", shrink(1 + 1e-6), scratch / "c")
    assert tally.failed == tally.attempted


def test_refuses_without_program(scratch):
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("maximal_doubling", 0, cwd=bare, script=bare / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
