"""Campaign benchmark for onesided.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads (see ``workloads.py``
and ``BENCHMARK.json``) are osc_campaign, maximal_doubling and
weight_table.  A single caller drives the program in a closed loop: each
campaign call starts when the previous one returns, with numpy's default
BLAS threading.

The workload runs in one child process (``worker.py``) that repeats
campaign passes until ``--seconds`` are used up, checks every output
against references or invariants (``checks.py``), and reports a pass as
the sum of each operation's fastest run.  Set-up is measured in that
process and in ``SETUP_PROBES`` more that stop after set-up; ``setup_s``
is the median.

Output: a metadata line (``meta {...}``), one line per end-to-end
metric with its unit (fail_frac included), and last one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` they are the per-layer ones, from
traced passes that alternate with untraced ones after a warm-up pass.
Spans and metadata are also written under ``.perfbench_out/``.

Exits 1 without a result when the program cannot be imported or the
worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170.0

END_TO_END = (("campaign_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the smoke test only")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def _spawn(args, tag, setup_only=False) -> dict:
    """Run worker.py to completion and return its result file."""
    workdir = OUT / f"{args.workload}-seed{args.seed}-{tag}"
    result = OUT / f"{args.workload}-seed{args.seed}-{tag}.result.json"
    shutil.rmtree(workdir, ignore_errors=True)
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size,
           "--workdir", str(workdir), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker {tag} exceeded {WORKER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0:
        raise RuntimeError(f"worker {tag} exited with status {code}")
    with open(result) as fh:
        out = json.load(fh)
    result.unlink()
    return out


def _blas() -> dict:
    """BLAS build and thread count of the numpy this process loads."""
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    info["blas_threads"] = None
    return info


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "onesided" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    try:
        setups = [_spawn(args, f"probe{i}", setup_only=True)["setup_s"]
                  for i in range(SETUP_PROBES)]
        res = _spawn(args, f"trace{args.trace}")
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    values = {"campaign_s": res["campaign_s"], "cpu_s": res["cpu_s"],
              "setup_s": statistics.median(setups),
              "peak_rss_mb": res["peak_rss_mb"]}
    fail_frac = res["failed"] / res["attempted"]
    correct = res["failed"] == 0 and res.get("counts_repeat", True)
    meta = {
        "workload": args.workload, "why": workloads.WORKLOADS[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "git_commit": _git_commit(),
        "python": platform.python_version(), **_blas(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "passes": res["passes"], "pass_s": res["pass_s"],
        "setup_s_all": setups, "setup_runs": len(setups),
        "checked_against_reference": res["checked_against_reference"],
        "problems": res["problems"], "fail_frac": fail_frac,
        "loop": "closed, one caller",
    }
    if args.trace:
        meta.update(traced_campaign_s=res["traced_campaign_s"],
                    traced_pass_s=res["traced_pass_s"],
                    counts_repeat=res["counts_repeat"])
        metrics = {name: {"value": v, "unit": _layer_unit(name)}
                   for name, v in res["layers"].items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.meta.json",
              "w") as fh:
        json.dump(meta, fh, indent=1)
    print("meta " + json.dumps(meta))
    for name, unit in END_TO_END:
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"fail_frac {fail_frac:.6g} ratio ({res['failed']}/{res['attempted']})")
    print(json.dumps({"correct": bool(correct), "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    field = name.rpartition(".")[2]
    if field in ("s", "self_s", "overhead_s"):
        return "s"
    return {"bytes_computed": "B", "accounted_frac": "ratio"}.get(field, "count")


if __name__ == "__main__":
    sys.exit(main())
