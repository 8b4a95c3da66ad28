"""The three benchmark workloads, generated from a seed.

A workload is a list of operations that together make one pass of a
research campaign.  Operations are either ``onesided`` CLI invocations
on a generated JSON config (run in-process through ``onesided.cli.main``)
or direct ``experiments.norm_ratio`` calls for the boundedness campaign,
which no CLI command covers.  The seed only enters the generated inputs
(family seeds and the sampled spike-train weight); the program receives
nothing but the configs.

A researcher runs each CLI command in a fresh process, so no call sees
what an earlier one left behind.  The benchmark runs many calls in one
process, so every operation of every pass gets inputs of its own: the
family seeds and the spike train come from (seed, pass), and each
operation's window is narrowed by its own relative 1e-9 steps.  No two
calls share a grid, and a cache that lasts across calls (a memoized
quadrature matrix or chirp, a realized weight) cannot hit.

``full`` is the measured size; ``tiny`` runs the same operations on
small grids for the smoke test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = {
    "osc_campaign": "CLI sweep coeffs (xy, x^2y, xy^2) and decay fit: dense Filon "
                    "apply dominates; the maximal layer is absent",
    "maximal_doubling": "M+ and M- norm ratios on 16-row batches at two window sizes: "
                        "maximal layer dominates; no operator apply runs",
    "weight_table": "CLI weights estimate for every estimator on 7 weights plus a 2^20 "
                    "bump: lattices, realize, single-row maximal; no apply",
}

KERNEL = {"tag": "oscillating-log", "side": "plus", "params": [1.0, 1.0],
          "size_const": 1.0, "smooth_const": 2.0}

CATALOG = {
    "w1": {"form": "constant", "params": [1.0]},
    "ex": {"form": "exponential", "params": [1.0]},
    "emx": {"form": "exponential", "params": [-1.0]},
    "x05": {"form": "power", "params": [0.5]},
    "x15": {"form": "power", "params": [1.5]},
    "ex_x03": {"form": "product", "params": [1.0, 0.3, 1.0]},
}

AP_TYPE = ("ap_plus", "ap_minus", "ap_both", "a1", "rh_infty")

SIZES = {
    "full": {"sweep_n": 4096, "sweep_count": 64, "decay_n": 2 ** 12,
             "decay_count": 16, "max_count": 16, "max_grids": (4096, 8192),
             "n_grid": 8192, "spike_n": 16384, "n_anchor": 65, "n_h": 16,
             "bump_n_grid": 2 ** 20, "weights": tuple(CATALOG) + ("spike",),
             "x15_exits_3": True},
    "tiny": {"sweep_n": 257, "sweep_count": 4, "decay_n": 1025,
             "decay_count": 4, "max_count": 4, "max_grids": (257, 513),
             "n_grid": 2048, "spike_n": 4096, "n_anchor": 9, "n_h": 4,
             "bump_n_grid": 2 ** 14, "weights": ("w1", "ex", "x15", "spike"),
             "x15_exits_3": False},
}


@dataclass
class Op:
    """One operation of a pass: a CLI command or a norm_ratio call."""

    label: str
    command: tuple                 # ("weights", "estimate"), ... or ("norm_ratio",)
    config: dict
    expect: dict = field(default_factory=dict)   # seed-independent invariants

    @property
    def key(self) -> str:
        blob = json.dumps({"command": list(self.command), "config": self.config},
                          sort_keys=True)
        return f"{self.label}:{hashlib.sha256(blob.encode()).hexdigest()[:16]}"


def build(workload: str, seed: int, size: str = "full", pass_index: int = 0) -> list:
    """The operations of pass ``pass_index`` of a run with this seed."""
    ops = _DEFINITIONS[workload](1000 * seed + pass_index, SIZES[size])
    for i, op in enumerate(ops):
        cfg = op.config
        holder = cfg.get("grid") or cfg.get("search") or cfg
        shrink = 1.0 - 1e-9 * (1 + i + 1000 * pass_index)
        holder["window"] = [x * shrink for x in holder["window"]]
    return ops


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------

def _osc_campaign(seed: int, s: dict) -> list:
    fam = {"kind": "modulated-gaussians", "count": s["sweep_count"],
           "seed": seed, "support": [-2.0, 2.0]}
    full_n = s["sweep_n"]
    ops = []
    # x^2 y is linear in y, so it takes the closed-form Filon path with a
    # non-affine B(x); x y^2 is the sweep that reaches the subdivided path
    for label, monomial, coeffs, weight, n in (
            ("sweep_xy_w1", [1, 1], [1e-3, 1e3], None, full_n),
            ("sweep_xy_ex", [1, 1], [1e-3, 1e3], CATALOG["ex"], full_n),
            ("sweep_x2y_w1", [2, 1], [10.0], None, full_n),
            ("sweep_xy2_w1", [1, 2], [1.0], None, full_n // 2)):
        cfg = {"kernel": KERNEL, "monomial": monomial, "coeffs": coeffs,
               "p": 2.0, "family": fam, "grid": {"window": [-8.0, 8.0], "n": n},
               "pv": {"eps_cells": 1}}
        if weight is not None:
            cfg["weight"] = weight
        ops.append(Op(label, ("sweep", "coeffs"), cfg, {"rows": len(coeffs)}))
    decay = {"kernel": KERNEL, "phase": {"coeffs": [[1, 1, 1.0]]}, "p": 2.0,
             "weight": CATALOG["ex"],
             "family": {"kind": "random-bump-sums", "count": s["decay_count"],
                        "seed": seed, "support": [0.0, 1.0]},
             "j_max": 5, "grid": {"window": [-34.0, 2.0], "n": s["decay_n"]},
             "pv": {"eps_cells": 1}}
    ops.append(Op("decay_xy_ex", ("decay", "fit"), decay, {"rows": 5}))
    return ops


def _maximal_doubling(seed: int, s: dict) -> list:
    n_small, n_big = s["max_grids"]
    ops = []
    for label, kind, weight, support in (
            ("mplus_ex", "m_plus", CATALOG["ex"], [-2.0, 2.0]),
            ("mplus_emx", "m_plus", CATALOG["emx"], [6.0, 7.0]),
            ("mminus_emx", "m_minus", CATALOG["emx"], [-2.0, 2.0])):
        for tag, window, n in (("w8", [-8.0, 8.0], n_small),
                               ("w16", [-16.0, 16.0], n_big)):
            cfg = {"operator": {"kind": kind}, "weight": weight, "p": 2.0,
                   "family": {"kind": "random-bump-sums", "count": s["max_count"],
                              "seed": seed, "support": support},
                   "window": window, "n": n}
            ops.append(Op(f"{label}_{tag}", ("norm_ratio",), cfg,
                          {"min_ratio": 1.0}))
    return ops


def spike_train(seed: int, n: int) -> dict:
    """A strictly positive sampled weight on [-8, 8]: a 1e-8 baseline
    with a seeded handful of single-node spikes."""
    rng = np.random.default_rng([seed, 7])
    vals = np.full(n, 1e-8)
    spikes = rng.choice(n, size=int(rng.integers(3, 9)), replace=False)
    vals[spikes] = rng.uniform(0.5, 2.0, spikes.size)
    return {"form": "sampled", "x_lo": -8.0, "x_hi": 8.0, "n": n,
            "values": vals.tolist()}


def _weight_table(seed: int, s: dict) -> list:
    search = {"window": [-8.0, 8.0], "n_anchor": s["n_anchor"], "n_h": s["n_h"],
              "h_min": 0.05, "gamma": 0.25, "n_grid": s["n_grid"],
              "ceiling": 1e3}
    variants = []
    for p in (1.5, 2.0, 3.0):
        tag = "p" + repr(p).replace(".", "_")
        for est in ("ap_plus", "ap_minus", "ap_both", "gamma_fourpoint"):
            variants.append((f"{est}-{tag}", {"estimator": est, "p": p}))
        for side in ("plus", "minus"):
            variants.append((f"ap_general-{side}-{tag}",
                             {"estimator": "ap_general", "p": p, "side": side}))
    for side in ("plus", "minus"):
        variants.append((f"a1-{side}", {"estimator": "a1", "side": side}))
    for v in range(1, 6):
        variants.append((f"rh_plus-v{v}", {"estimator": "rh_plus", "r": 1.2,
                                           "variant": v}))
    variants.append(("rh_infty", {"estimator": "rh_infty"}))

    ops = []
    for wname in s["weights"]:
        weight = spike_train(seed, s["spike_n"]) if wname == "spike" else CATALOG[wname]
        for vlabel, fields in variants:
            expect = {}
            if fields["estimator"] in AP_TYPE:
                expect["min_constant"] = 1.0
            # |x|^1.5 lies outside A_p for p <= 2.5; on the full lattice
            # its p = 1.5 estimates cross the 1e3 ceiling
            if (wname == "x15" and s["x15_exits_3"] and fields.get("p") == 1.5
                    and fields["estimator"] in ("ap_plus", "ap_minus", "ap_both")):
                expect["exit"] = 3
            ops.append(Op(f"{wname}-{vlabel}", ("weights", "estimate"),
                          dict(fields, weight=weight, search=dict(search)), expect))
    bump = {"weight": {"form": "power", "params": [0.9]}, "p": 2.0,
            "ceiling": 30.0, "search": dict(search, n_grid=s["bump_n_grid"])}
    ops.append(Op("bump-x09", ("weights", "bump"), bump, {"exit": 0}))
    return ops


_DEFINITIONS = {"osc_campaign": _osc_campaign, "maximal_doubling": _maximal_doubling,
             "weight_table": _weight_table}


# ---------------------------------------------------------------------------
# running and reading back
# ---------------------------------------------------------------------------

class Prepared:
    """The operations of one pass with their configs written, call
    arguments built and earlier outputs cleared."""

    def __init__(self, ops: list, workdir: Path):
        from onesided.experiments import OperatorSpec, TestFunctionFamily
        from onesided.weights import WeightSpec

        self.ops = ops
        self.workdir = workdir
        (workdir / "cfg").mkdir(parents=True, exist_ok=True)
        (workdir / "out").mkdir(parents=True, exist_ok=True)
        for path in (workdir / "out").iterdir():
            path.unlink()
        self.calls = []
        for op in ops:
            if op.command == ("norm_ratio",):
                c = op.config
                self.calls.append((OperatorSpec(c["operator"]["kind"]),
                                   WeightSpec.from_json(c["weight"]), c["p"],
                                   TestFunctionFamily.from_json(c["family"]),
                                   tuple(c["window"]), c["n"]))
            else:
                path = workdir / "cfg" / f"{op.label}.json"
                # one dumps call: json.dump streams through the
                # pure-Python encoder, 2-3x slower on the sampled weight
                with open(path, "w") as fh:
                    fh.write(json.dumps(op.config))
                self.calls.append([*op.command, "--config", str(path),
                                   "--out", str(self._prefix(op))])

    def _prefix(self, op: Op) -> Path:
        return self.workdir / "out" / op.label

    def run_pass(self) -> tuple:
        """Run every operation once.  Returns the raw results (exit status
        or report, an exception standing in for a result that raised) and
        each operation's wall and CPU seconds."""
        from onesided import cli, experiments

        raw, walls, cpus = [], [], []
        for op, call in zip(self.ops, self.calls):
            c0 = time.process_time()
            w0 = time.perf_counter()
            try:
                if op.command == ("norm_ratio",):
                    raw.append(experiments.norm_ratio(*call))
                else:
                    raw.append(cli.main(call))
            except Exception as exc:    # counted as a failed operation
                raw.append(exc)
            walls.append(time.perf_counter() - w0)
            cpus.append(time.process_time() - c0)
        return raw, walls, cpus

    def outputs(self, op: Op, raw) -> dict:
        """The numbers an operation produced, in reference form."""
        if isinstance(raw, Exception):
            raise raw
        if op.command == ("norm_ratio",):
            ok = [r for r in raw.ratios if r != 0.0]
            return {"best_ratio": raw.best_ratio, "argmax_index": raw.argmax_index,
                    "min_ratio": min(ok) if ok else None, "skipped": raw.skipped}
        out = {"exit": raw}
        prefix = self._prefix(op)
        if raw not in (0, 3):
            return out
        with open(prefix.with_suffix(".json")) as fh:
            side = json.load(fh)
        if op.command == ("weights", "estimate"):
            rep = side["report"]
            out.update(constant=rep["constant"], finite_flag=rep["finite_flag"])
        elif op.command == ("weights", "bump"):
            out.update(epsilon=side["epsilon"], found=side["found"],
                       constant_at_epsilon=side["constant_at_epsilon"])
        elif op.command == ("sweep", "coeffs"):
            out.update(best_ratio=[r["best_ratio"] for r in side["rows"]],
                       argmax_index=[r["argmax_index"] for r in side["rows"]])
        else:
            with open(prefix.with_suffix(".csv"), newline="") as fh:
                rows = list(csv.DictReader(fh))
            out.update(slope=side["slope"], intercept=side["intercept"],
                       best_ratio=[float(r["best_ratio"]) for r in rows])
        return out
