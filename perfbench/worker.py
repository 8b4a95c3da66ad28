"""One workload in one process: set up, run campaign passes for the
requested time, check every output, and write a result file.

Started by ``run.py``; not meant to be run by hand.  ``--t0`` is the
parent's CLOCK_MONOTONIC reading just before it started this process,
so ``setup_s`` covers interpreter start-up, ``import onesided``,
writing the configs and loading the references.  With ``--setup-only``
the process stops after set-up and reports only that time.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import onesided  # noqa: E402  (the checkout's own source tree)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


class Tally:
    """Attempted and failed operations, with the first few problems."""

    def __init__(self, references):
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.checked_against_reference = 0
        self.problems = []

    def add(self, prepared, raw):
        for op, r in zip(prepared.ops, raw):
            self.attempted += 1
            try:
                bad, had_ref = checks.check(op, prepared.outputs(op, r),
                                            self.references)
            except Exception as exc:     # raised, or unreadable outputs
                bad, had_ref = [f"{type(exc).__name__}: {exc}"], False
            self.checked_against_reference += had_ref
            if bad:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append({"op": op.label, "problems": bad[:5]})


def _timed_pass(prepared, recorder=None):
    if recorder is not None:
        recorder.reset()
        recorder.install()
    w0 = time.perf_counter()
    try:
        raw, walls, cpus = prepared.run_pass()
    finally:
        wall = time.perf_counter() - w0
        if recorder is not None:
            recorder.uninstall()
    return raw, wall, walls, cpus


def best_pass(per_op: list) -> float:
    """One pass estimated as the sum over operations of each operation's
    fastest run.  Contention from other tenants of a shared host only
    ever slows a call down, so the fastest of several runs is far
    steadier than their median."""
    return sum(min(times) for times in zip(*per_op))


def main(argv=None) -> int:
    args = _parse(argv)
    if not Path(onesided.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"onesided imported from {onesided.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    workdir = Path(args.workdir)
    pass_index = itertools.count()

    def prepare():
        ops = workloads.build(args.workload, args.seed, args.size, next(pass_index))
        return workloads.Prepared(ops, workdir)

    prepared = prepare()
    tally = Tally(checks.load_references())
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        _write(args.result, {"setup_s": setup_s})
        return 0

    passes, op_walls, op_cpus = [], [], []
    traced, traced_walls, layer_passes, spans = [], [], [], []
    recorder = tracing.Recorder() if args.trace else None
    if recorder is not None:
        # warm-up, so that the first untraced pass is not the only cold one
        tally.add(prepared, _timed_pass(prepared)[0])
        prepared = prepare()
    start = time.perf_counter()
    while True:
        raw, wall, walls, cpus = _timed_pass(prepared)
        passes.append(wall)
        op_walls.append(walls)
        op_cpus.append(cpus)
        tally.add(prepared, raw)
        if recorder is not None:
            prepared = prepare()
            raw, wall, walls, _ = _timed_pass(prepared, recorder)
            traced.append(wall)
            traced_walls.append(walls)
            layer_passes.append(tracing.layer_metrics(recorder.summary(), wall))
            spans.append(recorder.dump())
            tally.add(prepared, raw)
        step = statistics.median(passes) + statistics.median(traced or [0.0])
        if time.perf_counter() - start + step / 2.0 >= args.seconds:
            break
        prepared = prepare()

    result = {
        "attempted": tally.attempted, "failed": tally.failed,
        "checked_against_reference": tally.checked_against_reference,
        "problems": tally.problems, "passes": len(passes), "pass_s": passes,
        "campaign_s": best_pass(op_walls), "cpu_s": best_pass(op_cpus),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        result.update(_layers(layer_passes, best_pass(traced_walls),
                              result["campaign_s"]))
        result["traced_pass_s"] = traced
        with open(workdir.parent / f"{workdir.name}.spans.json", "w") as fh:
            json.dump(spans, fh)
    _write(args.result, result)
    return 0


def _layers(layer_passes, traced_campaign_s, campaign_s) -> dict:
    """Median over traced passes of every per-layer metric; counts must
    repeat exactly from pass to pass."""
    counts_repeat = all(
        p[m] == layer_passes[0][m] for p in layer_passes for m in p
        if m.rpartition(".")[2] in tracing.COUNT_SUFFIXES)
    layers = {m: statistics.median(p[m] for p in layer_passes)
              for m in tracing.LAYER_METRICS}
    layers["trace.overhead_s"] = traced_campaign_s - campaign_s
    return {"layers": layers, "traced_campaign_s": traced_campaign_s,
            "counts_repeat": counts_repeat}


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
