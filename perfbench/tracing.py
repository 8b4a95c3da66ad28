"""Per-layer spans recorded from outside the program.

The recorder wraps public functions of ``onesided.cli``,
``onesided.experiments``, ``onesided.operators`` and
``onesided.weights`` in every ``onesided`` module that bound the name,
so a call is seen whichever module it goes through.  Each span keeps its
name, start, end, parent and the work counts computed from the call's
arguments; spans stay in memory until ``uninstall`` and are written out
by the caller when the run ends.

A call made while a span of the same group is already innermost is
folded into that span instead of opening a new one: the 1-D recursion
of ``forward_extremal_averages``, ``ap_minus_constant`` delegating to
``ap_plus_constant``, the bisection steps of ``power_bump_search``, and
``norm_ratio`` inside the sweep and decay campaigns.  The folded calls
are counted on the enclosing span as ``nested``.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

ESTIMATORS = ("ap_plus", "ap_minus", "ap_both", "ap_general",
              "gamma_fourpoint", "rh_plus", "a1", "rh_infty")

# Every per-layer metric a traced run reports, in BENCHMARK.json order.
# README.md maps each layer to the end-to-end metric and workload it
# should move.
LAYER_METRICS = (
    [f"operators.apply_linear.{k}" for k in ("calls", "s", "pairs", "bytes_computed")]
    + [f"operators.apply_band.{k}" for k in ("calls", "s", "pairs")]
    + [f"operators.apply_subdivided.{k}" for k in ("calls", "s", "pairs")]
    + [f"operators.maximal.{k}" for k in ("calls", "s", "rows", "pairs")]
    + [f"weights.{e}.{k}" for e in ESTIMATORS
       for k in ("calls", "s", "self_s", "entries")]
    + [f"weights.power_bump.{k}" for k in ("calls", "s", "self_s", "steps")]
    + [f"weights.realize.{k}" for k in ("calls", "s", "nodes")]
    + [f"experiments.generate_family.{k}" for k in ("calls", "s", "rows")]
    + [f"experiments.weighted_norms.{k}" for k in ("calls", "s")]
    + [f"experiments.campaign.{k}" for k in ("calls", "self_s")]
    + [f"cli.main.{k}" for k in ("calls", "self_s")]
    + ["trace.overhead_s", "trace.accounted_frac"]
)

# The published times that split a traced pass between them when every
# span is wired right: whole spans of the layers that call no other
# traced layer, self times of those that do.  A double-counted or
# missing span moves trace.accounted_frac away from 1.
ACCOUNTED = (
    [f"operators.apply_{k}.s" for k in ("linear", "band", "subdivided")]
    + ["operators.maximal.s", "weights.realize.s", "experiments.generate_family.s",
       "experiments.weighted_norms.s"]
    + [f"weights.{e}.self_s" for e in ESTIMATORS + ("power_bump",)]
    + ["experiments.campaign.self_s", "cli.main.self_s"]
)

COUNT_SUFFIXES = ("calls", "pairs", "bytes_computed", "rows", "entries",
                  "steps", "nodes")


class Recorder:
    """Spans of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []      # [name, group, start, end, parent, counts]
        self._stack = []
        self._patched = []   # (owner, attribute, original)

    # -- spans ---------------------------------------------------------
    def wrap(self, fn, group, name_of, counts_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, spans = self._stack, self.spans
            if stack and spans[stack[-1]][1] == group:
                counts = spans[stack[-1]][5]
                counts["nested"] = counts.get("nested", 0) + 1
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name_of(args, kwargs), group, time.perf_counter(),
                          None, stack[-1] if stack else None,
                          counts_of(args, kwargs)])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()

        return wrapper

    def reset(self):
        self.spans = []
        self._stack = []

    # -- installation --------------------------------------------------
    def install(self):
        """Wrap every layer function in every onesided module binding it."""
        from onesided import cli, experiments, operators, weights

        layer = {
            (operators, "oscillatory_apply_batch"):
                ("operators.apply", _apply_name, _apply_counts),
            (operators, "forward_extremal_averages"):
                ("operators.maximal", _const("operators.maximal"), _maximal_counts),
            (weights, "power_bump_search"):
                ("weights.estimator", _const("weights.power_bump"), _no_counts),
            (experiments, "generate_family"):
                ("experiments.generate_family",
                 _const("experiments.generate_family"), _family_counts),
            (experiments, "weighted_norms_batch"):
                ("experiments.weighted_norms",
                 _const("experiments.weighted_norms"), _no_counts),
            (cli, "main"): ("cli.main", _const("cli.main"), _no_counts),
        }
        for est in ESTIMATORS:
            layer[(weights, f"{est}_constant")] = (
                "weights.estimator", _const(f"weights.{est}"), _entries_counter(est))
        for fname in ("norm_ratio", "coefficient_sweep", "dyadic_decay"):
            layer[(experiments, fname)] = (
                "experiments.campaign", _const("experiments.campaign"), _no_counts)

        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "onesided" or k.startswith("onesided.")) and m is not None]
        for (home, attr), (group, name_of, counts_of) in layer.items():
            original = getattr(home, attr)
            wrapper = self.wrap(original, group, name_of, counts_of)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)
        spec = weights.WeightSpec
        self._patch(spec, "realize", self.wrap(
            spec.realize, "weights.realize", _const("weights.realize"),
            lambda a, k: {"nodes": int(a[3] if len(a) > 3 else k["n"])}))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- aggregation ---------------------------------------------------
    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds and summed counts."""
        child_s = [0.0] * len(self.spans)
        for name, group, t0, t1, parent, counts in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        out = {}
        for i, (name, group, t0, t1, parent, counts) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child_s[i]
            for k, v in counts.items():
                agg[k] = agg.get(k, 0) + v
        return out

    def dump(self) -> list:
        return [{"name": n, "start": t0, "end": t1, "parent": p, "counts": c}
                for n, g, t0, t1, p, c in self.spans]


def layer_metrics(summary: dict, wall_s: float) -> dict:
    """Flatten one pass summary into the named per-layer metrics, with
    the share of the pass wall time that the ``ACCOUNTED`` metrics sum to."""
    flat = {}
    for metric in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        agg = summary.get(layer, {})
        if field == "steps":
            value = agg.get("nested", 0)
        elif field == "bytes_computed":
            value = 16 * agg.get("pairs", 0)
        else:
            value = agg.get(field, 0)
        flat[metric] = value
    flat["trace.accounted_frac"] = sum(flat[m] for m in ACCOUNTED) / wall_s
    return flat


# ---------------------------------------------------------------------------
# names and counts from call arguments
# ---------------------------------------------------------------------------

def _const(name):
    return lambda args, kwargs: name


def _no_counts(args, kwargs):
    return {}


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _apply_name(args, kwargs):
    phase = _arg(args, kwargs, 4, "phase")
    if not phase.y_degree_at_most_one():
        return "operators.apply_subdivided"
    if _arg(args, kwargs, 6, "band_cells") is not None:
        return "operators.apply_band"
    return "operators.apply_linear"


def _apply_counts(args, kwargs):
    """(row, node) entries of the quadrature matrix W: row i touches the
    nodes start_i..stop_i when start_i < stop_i."""
    n = np.shape(args[0])[1]
    band = _arg(args, kwargs, 6, "band_cells")
    i = np.arange(n, dtype=np.int64)
    if band is None:
        eps = _arg(args, kwargs, 5, "pv").eps_cells
        start, stop = np.minimum(i + eps, n - 1), np.full(n, n - 1)
    else:
        start, stop = np.minimum(i + band[0], n - 1), np.minimum(i + band[1], n - 1)
    live = start < stop
    return {"pairs": int(np.sum(stop[live] - start[live] + 1))}


def _maximal_counts(args, kwargs):
    shape = np.shape(args[0])
    rows, n = (1, shape[0]) if len(shape) == 1 else shape
    return {"rows": int(rows), "pairs": int(rows) * n * (n - 1) // 2}


def _family_counts(args, kwargs):
    return {"rows": int(args[0].count)}


def _entries_counter(est):
    """Lattice size from the search config: anchors x lengths for the
    interval forms, anchors x lengths^2 for the three-point form, grid
    nodes for the pointwise maximal ratios."""
    def counts(args, kwargs):
        cfg = args[-1] if args else kwargs["cfg"]
        if est == "ap_general":
            return {"entries": cfg.n_anchor * cfg.n_h * cfg.n_h}
        if est in ("a1", "rh_infty"):
            return {"entries": cfg.n_grid}
        return {"entries": cfg.n_anchor * cfg.n_h}
    return counts
