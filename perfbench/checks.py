"""Output checks behind ``fail_frac``.

An operation fails when it raises, returns an exit status different
from its reference, or returns numbers that miss the reference by more
than ``RTOL`` relative (``ATOL`` absolute near zero).  References were
recorded by ``record_references.py`` at the commit that introduced the
benchmark, for the first pass of the seeds listed in ``references.json``;
the catalog weights of ``weight_table`` do not depend on the seed, so
their first-pass references apply to every seed.  Later passes have
inputs of their own (see ``workloads.py``) and are checked by the
invariants alone.

Every operation, with or without a reference, must also satisfy
invariants that hold for any seed: A_p-type constants (A_p^{+/-}, A_p,
A_1, RH_infty) are >= 1, every maximal-function norm ratio is >= 1,
exit status 3 goes with ``finite_flag`` false, |x|^1.5 exits 3 at the
1e3 ceiling for p = 1.5 on the full lattice, and numbers are finite
where they must be.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# The tolerance admits reordered floating-point sums (BLAS thread count,
# an FFT or hull fast path: ~1e-14 relative) and rejects any change in
# the mathematics.
RTOL = 1e-9
ATOL = 1e-12
# Lower bounds that hold exactly in real arithmetic get this much slack.
INVARIANT_SLACK = 1e-12

REFERENCE_FILE = Path(__file__).with_name("references.json")


def load_references() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["entries"]


def _close(want, got) -> bool:
    if isinstance(want, bool) or want is None or isinstance(got, bool):
        return want == got
    if isinstance(want, int) and isinstance(got, int):
        return want == got
    if math.isinf(want) or math.isinf(got) or math.isnan(want) or math.isnan(got):
        return want == got
    return abs(want - got) <= RTOL * max(abs(want), abs(got)) + ATOL


def compare(want: dict, got: dict) -> list:
    """Fields of ``got`` that miss the reference ``want``."""
    bad = []
    for key, w in want.items():
        g = got.get(key)
        if isinstance(w, list):
            ok = (isinstance(g, list) and len(g) == len(w)
                  and all(_close(a, b) for a, b in zip(w, g)))
        else:
            ok = key in got and _close(w, g)
        if not ok:
            bad.append(f"{key}: want {w!r}, got {g!r}")
    return bad


def invariants(op, got: dict) -> list:
    """Seed-independent properties of one operation's outputs."""
    bad = []
    expect = op.expect
    if "exit" in expect and got.get("exit") != expect["exit"]:
        bad.append(f"exit: want {expect['exit']}, got {got.get('exit')}")
    if op.command == ("norm_ratio",):
        lo = expect["min_ratio"] * (1.0 - INVARIANT_SLACK)
        count = op.config["family"]["count"]
        if not (math.isfinite(got["best_ratio"]) and got["best_ratio"] >= lo):
            bad.append(f"best_ratio {got['best_ratio']!r} below {expect['min_ratio']}")
        if got["min_ratio"] is None or got["min_ratio"] < lo:
            bad.append(f"member ratio {got['min_ratio']!r} below {expect['min_ratio']}")
        if not 0 <= got["argmax_index"] < count:
            bad.append(f"argmax_index {got['argmax_index']} outside family of {count}")
        return bad
    status = got.get("exit")
    if status not in (0, 3):
        return bad + [f"exit status {status!r}"]
    if op.command == ("weights", "estimate"):
        if (status == 0) != bool(got["finite_flag"]):
            bad.append(f"exit {status} with finite_flag {got['finite_flag']}")
        if "min_constant" in expect and not (
                got["constant"] >= expect["min_constant"] * (1.0 - INVARIANT_SLACK)):
            bad.append(f"constant {got['constant']!r} below {expect['min_constant']}")
    elif op.command == ("weights", "bump"):
        if got["found"] and not 0.0 < got["epsilon"] <= 1.0:
            bad.append(f"epsilon {got['epsilon']!r} outside (0, 1]")
    else:
        if status != 0:
            bad.append(f"campaign exit status {status}")
        ratios = got.get("best_ratio", [])
        if len(ratios) != expect["rows"] or not all(
                math.isfinite(r) and r > 0.0 for r in ratios):
            bad.append(f"best_ratio rows {ratios!r}")
        if op.command == ("decay", "fit") and not math.isfinite(got["slope"]):
            bad.append(f"slope {got['slope']!r}")
        if op.command == ("sweep", "coeffs"):
            count = op.config["family"]["count"]
            if not all(0 <= a < count for a in got["argmax_index"]):
                bad.append(f"argmax_index {got['argmax_index']!r}")
    return bad


def check(op, got: dict, references: dict) -> tuple:
    """(problems, whether a reference was used) for one operation."""
    want = references.get(op.key)
    bad = invariants(op, got)
    if want is not None:
        bad += compare(want, got)
    return bad, want is not None
