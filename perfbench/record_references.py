"""Record the reference outputs that ``checks.py`` compares against.

    python3 perfbench/record_references.py --seeds 0-15 [--size full|tiny]

Runs the first pass of every workload for each seed and merges the
outputs into ``references.json``, keyed by operation label and config
digest.
Only re-record on purpose: the references pin the program's numbers at
the commit that recorded them.  Writes scratch files under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0")
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = ap.parse_args(argv)
    path = checks.REFERENCE_FILE
    doc = {"entries": {}}
    if path.exists():
        with open(path) as fh:
            doc = json.load(fh)
    entries = doc["entries"]
    scratch = HERE.parent / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        for seed in _seeds(args.seeds):
            ops = workloads.build(workload, seed, args.size)
            todo = [op for op in ops if op.key not in entries]
            if not todo:
                continue
            with tempfile.TemporaryDirectory(dir=scratch) as tmp:
                prepared = workloads.Prepared(todo, Path(tmp))
                raw, _, _ = prepared.run_pass()
                for op, r in zip(todo, raw):
                    out = prepared.outputs(op, r)
                    bad = checks.invariants(op, out)
                    if bad:
                        raise SystemExit(f"{workload} seed {seed} {op.label}: {bad}")
                    entries[op.key] = out
            print(f"{workload} seed {seed} ({args.size}): {len(todo)} recorded",
                  flush=True)
    doc["entries"] = dict(sorted(entries.items()))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
