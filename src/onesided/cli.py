"""Config-driven command line front end.

One flat JSON config per run, no interactive mode.  ``_COMMANDS`` is the
one table of commands; each entry maps (group, action) to a handler and
to the config path of each override flag the command takes:

    weights estimate       any weight-class constant estimator
    weights bump           the power-bump bisection
    operators apply        evaluate an operator on a family member
    operators cancel-sup   truncated-integral cancellation bound
    interp verify          interpolation check on a multiplication operator
    sweep coeffs           coefficient-independence campaign
    decay fit              dyadic-decay campaign
    suite run              the full acceptance battery

A handler is a function of its config alone.  ``main`` reads the config,
writes ``--seed``, ``--window`` and ``--n`` into it at the command's
paths, runs the handler, and writes ``PREFIX.csv`` plus one compact JSON
sidecar ``{config, digest, ...results}``.  The sidecar thus records the
config the run used, overrides included, and identical runs produce
byte-identical artifacts (no timestamps anywhere).  ``suite run`` writes
its own artifact directory instead.

Exit status: 0 success; 2 for an unknown command, a flag the command
does not take, or a malformed config (a diagnostic naming the field's
path on stderr); 3 when divergence flags are present in the results (the
artifacts are still written).  ``suite run`` exits 0 only if every
criterion passes.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, GridMismatchError, read
from .experiments import (CSV_COLUMNS, STANDARD_N, STANDARD_SEED, STANDARD_WINDOW,
                          OperatorSpec, TestFunctionFamily, campaign_row,
                          coefficient_sweep, decay_rows, dyadic_decay,
                          family_member, json_digest)
from .grid import SampledFunction, grid_nodes
from .interpolate import InterpolationEndpoints, verify_on_multiplier
from .operators import (KernelSpec, PolynomialPhase, PVConfig,
                        kernel_cancellation_sup)
from .weights import (TripleSearchConfig, WeightSpec, a1_constant,
                      ap_both_constant, ap_general_constant,
                      ap_minus_constant, ap_plus_constant, gamma_fourpoint_constant,
                      power_bump_search, rh_infty_constant, rh_plus_constant)

# each estimator's keyword parameters are the config fields it takes
_ESTIMATORS = {
    "ap_plus": lambda w, c, p=2.0: ap_plus_constant(w, p, c),
    "ap_minus": lambda w, c, p=2.0: ap_minus_constant(w, p, c),
    "ap_both": lambda w, c, p=2.0: ap_both_constant(w, p, c),
    "ap_general": lambda w, c, p=2.0, side="plus": ap_general_constant(w, p, side, c),
    "a1": lambda w, c, side="plus": a1_constant(w, side, c),
    "rh_plus": lambda w, c, r=1.2, variant=4: rh_plus_constant(w, r, variant, c),
    "rh_infty": lambda w, c: rh_infty_constant(w, c),
    "gamma_fourpoint": lambda w, c, p=2.0: gamma_fourpoint_constant(w, p, c),
}
_ESTIMATOR_ARGS = (("p", float), ("r", float), ("variant", int), ("side", str))
_STANDARD_GRID = (STANDARD_WINDOW, STANDARD_N)


# ---------------------------------------------------------------------------
# sub-configs, each read as ``read(obj, key, parser)``
# ---------------------------------------------------------------------------

def _grid(obj: dict, path: str):
    """(window, n) of ``{"window": [lo, hi], "n": n}``."""
    lo, hi = read(obj, "window", (float, float), STANDARD_WINDOW, path)
    n = read(obj, "n", int, STANDARD_N, path)
    if not -np.inf < lo < hi < np.inf:
        raise ConfigError(f"{path}.window: need finite lo < hi, got {[lo, hi]}")
    if n < 2:
        raise ConfigError(f"{path}.n: need n >= 2, got {n}")
    return (lo, hi), n


def _pv(obj: dict, path: str) -> PVConfig:
    if "refine_checks" in obj:   # read() would pass over the unknown key
        raise ConfigError(f"{path}.refine_checks: not supported; no command "
                          "refines the principal-value truncation")
    return PVConfig(read(obj, "eps_cells", int, 1, path))


def _operator(obj: dict, path: str) -> OperatorSpec:
    return OperatorSpec(read(obj, "kind", str, path=path),
                        read(obj, "kernel", KernelSpec.from_json, None, path),
                        read(obj, "phase", PolynomialPhase.from_json, None, path),
                        read(obj, "pv", _pv, PVConfig(), path),
                        read(obj, "j", int, None, path))


def _endpoints(obj: dict, path: str) -> InterpolationEndpoints:
    for k in ("c0", "c1"):      # read() would pass over them; the check uses the exact norms
        if k in obj:
            raise ConfigError(f"{path}.{k}: not supported; interp verify uses the exact norms")
    p0, p1 = (read(obj, k, float, path=path) for k in ("p0", "p1"))
    weights = (read(obj, k, WeightSpec.from_json, path=path) for k in ("u0", "v0", "u1", "v1"))
    return InterpolationEndpoints(p0, p1, *weights, read(obj, "theta", float, path=path))


def _member(obj: dict, path: str, window: tuple, n: int) -> np.ndarray:
    """Member ``index`` of the family at ``path.family``, sampled on the grid."""
    index = read(obj, "index", int, 0, path)
    fam = read(obj, "family", TestFunctionFamily.from_json, path=path)
    if not 0 <= index < fam.count:
        raise ConfigError(f"{path}.index: index {index} outside family of {fam.count}")
    return family_member(fam, index, window[0], window[1], n)


# ---------------------------------------------------------------------------
# commands: config -> (CSV header, CSV rows, sidecar results, exit status)
# ---------------------------------------------------------------------------

def _weights_estimate(cfg: dict):
    name = read(cfg, "estimator", str)
    if name not in _ESTIMATORS:
        raise ConfigError(f"estimator: unknown estimator {name!r}, "
                          f"expected one of {sorted(_ESTIMATORS)}")
    w = read(cfg, "weight", WeightSpec.from_json)
    search = read(cfg, "search", TripleSearchConfig.from_json)
    takes = inspect.signature(_ESTIMATORS[name]).parameters
    kw = {k: read(cfg, k, kind) for k, kind in _ESTIMATOR_ARGS if k in cfg}
    for k in kw:
        if k not in takes:
            raise ConfigError(f"{k}: {name} takes no {k}")
    report = _ESTIMATORS[name](w, search, **kw)
    return (["command", "estimator", "weight", "p", "constant", "finite_flag", "witness"],
            [["weights estimate", name, w.label(), repr(kw.get("p", "")),
              repr(report.constant), int(report.finite_flag),
              json.dumps(report.witness, sort_keys=True)]],
            {"report": report.to_json()}, 0 if report.finite_flag else 3)


def _weights_bump(cfg: dict):
    w = read(cfg, "weight", WeightSpec.from_json)
    search = read(cfg, "search", TripleSearchConfig.from_json)
    p, ceiling = read(cfg, "p", float, 2.0), read(cfg, "ceiling", float)
    res = power_bump_search(w, p, search, ceiling)
    return (["command", "weight", "p", "ceiling", "epsilon", "found", "constant_at_epsilon"],
            [["weights bump", w.label(), repr(p), repr(ceiling), repr(res.epsilon),
              int(res.found), repr(res.constant_at_epsilon)]],
            {"epsilon": res.epsilon, "found": res.found,
             "constant_at_epsilon": res.constant_at_epsilon}, 0 if res.found else 3)


def _operators_apply(cfg: dict):
    op = read(cfg, "operator", _operator)
    window, n = read(cfg, "grid", _grid, _STANDARD_GRID)
    f = _member(read(cfg, "input", dict), "input", window, n)
    out = op.apply_batch(f[None], window[0], window[1])[0]
    return (["x", "re", "im"],
            [[repr(float(xi)), repr(float(v.real)), repr(float(v.imag))]
             for xi, v in zip(grid_nodes(window[0], window[1], n), out)], {}, 0)


def _operators_cancel_sup(cfg: dict):
    kernel = read(cfg, "kernel", KernelSpec.from_json)
    sup = kernel_cancellation_sup(kernel, read(cfg, "eps_grid", [float]),
                                  read(cfg, "N_grid", [float]))
    return (["command", "kernel", "sup"], [["operators cancel-sup", kernel.tag, repr(sup)]],
            {"sup": sup}, 0)


def _interp_verify(cfg: dict):
    endpoints = read(cfg, "endpoints", _endpoints)
    g = read(cfg, "g", dict)
    window, n = read(g, "grid", _grid, _STANDARD_GRID, "g")
    if "family" in g:
        vals = _member(g, "g", window, n)
    else:
        vals = np.asarray(read(g, "values", [float], path="g"))
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise ConfigError(f"g.values[{bad[0]}]: expected a finite number, got {vals[bad[0]]}")
        if "n" in g.get("grid", {}) and n != len(vals):
            raise ConfigError(f"g.grid.n: {n} differs from the {len(vals)} values")
    report = verify_on_multiplier(SampledFunction(window[0], window[1], len(vals), vals),
                                  endpoints)
    return (["command", "exact_norm", "c_bound", "pass"],
            [["interp verify", repr(report.exact_norm), repr(report.c_bound),
              int(report.passed)]],
            {"exact_norm": report.exact_norm, "c_bound": report.c_bound,
             "pass": report.passed}, 0 if report.passed else 3)


def _sweep_coeffs(cfg: dict):
    kernel = read(cfg, "kernel", KernelSpec.from_json)
    k, l = read(cfg, "monomial", (int, int))
    coeffs = read(cfg, "coeffs", [float])
    w = read(cfg, "weight", WeightSpec.from_json, None)
    p = read(cfg, "p", float, 2.0)
    fam = read(cfg, "family", TestFunctionFamily.from_json)
    window, n = read(cfg, "grid", _grid, _STANDARD_GRID)
    pv = read(cfg, "pv", _pv, PVConfig())
    reports = coefficient_sweep(kernel, (k, l), coeffs, w, p, fam, window, n, pv)
    rows, results = [], []
    for a, rep in zip(coeffs, reports):
        op = OperatorSpec("oscillatory", kernel, PolynomialPhase.monomial(k, l, a), pv)
        row = campaign_row("sweep", op, w, p, a, rep, window, n)
        rows.append([row[c] for c in CSV_COLUMNS])
        results.append({"param": a, "digest": rep.config_digest,
                        "best_ratio": rep.best_ratio, "argmax_index": rep.argmax_index})
    return CSV_COLUMNS, rows, {"rows": results}, 0


def _decay_fit(cfg: dict):
    kernel = read(cfg, "kernel", KernelSpec.from_json)
    phase = read(cfg, "phase", PolynomialPhase.from_json)
    p = read(cfg, "p", float, 2.0)
    w = read(cfg, "weight", WeightSpec.from_json, None)
    fam = read(cfg, "family", TestFunctionFamily.from_json)
    j_max = read(cfg, "j_max", int)
    window, n = read(cfg, "grid", _grid)
    pv = read(cfg, "pv", _pv, PVConfig())
    fit = dyadic_decay(kernel, phase, p, w, fam, j_max, window, n, pv)
    rows = decay_rows(fit, "1" if w is None else w.label(), p, window, n, fam.seed)
    return (CSV_COLUMNS, [[r[c] for c in CSV_COLUMNS] for r in rows],
            {"slope": fit.slope, "intercept": fit.intercept}, 0)


def _suite_run(cfg: dict):
    from .suite import run_all
    seed, out = read(cfg, "seed", int, STANDARD_SEED), read(cfg, "out", str, "suite_out")
    t0 = time.time()
    ok = all(r.passed for r in run_all(out, seed=seed, echo=True))
    print(f"{'ALL PASS' if ok else 'FAILURES PRESENT'} "
          f"({time.time() - t0:.0f}s, artifacts in {out}/)")
    return None, None, None, 0 if ok else 1


_GRID_FLAGS = {"window": "grid.window", "n": "grid.n"}
_COMMANDS = {
    ("weights", "estimate"): (_weights_estimate, {}),
    ("weights", "bump"): (_weights_bump, {}),
    ("operators", "apply"): (_operators_apply, _GRID_FLAGS),
    ("operators", "cancel-sup"): (_operators_cancel_sup, {}),
    ("interp", "verify"): (_interp_verify, {"window": "g.grid.window", "n": "g.grid.n"}),
    ("sweep", "coeffs"): (_sweep_coeffs, dict(_GRID_FLAGS, seed="family.seed")),
    ("decay", "fit"): (_decay_fit, dict(_GRID_FLAGS, seed="family.seed")),
    ("suite", "run"): (_suite_run, {"seed": "seed", "out": "out"}),
}

_PARSER = argparse.ArgumentParser(
    prog="onesided", description="One-sided weight / oscillatory-integral experiments",
    epilog="commands: " + ", ".join(" ".join(c) for c in _COMMANDS))
_PARSER.add_argument("group")
_PARSER.add_argument("action")
_PARSER.add_argument("--config", help="path to the JSON run config")
_PARSER.add_argument("--out", help="output path prefix for CSV/JSON")
_PARSER.add_argument("--seed", type=int, help="seed override")
_PARSER.add_argument("--window", help="window override lo,hi")
_PARSER.add_argument("--n", type=int, help="grid size override")


# ---------------------------------------------------------------------------
# reading the config, writing the outputs
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: unreadable ({exc})") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config: expected a JSON object, got {cfg!r:.60}")
    return cfg


def _override(cfg: dict, path: str, value) -> None:
    """Write ``value`` at the dotted ``path``, creating missing objects."""
    *parents, key = path.split(".")
    for i, part in enumerate(parents):
        cfg = cfg.setdefault(part, {})
        if not isinstance(cfg, dict):
            raise ConfigError(f"{'.'.join(parents[:i + 1])}: expected an object, "
                              f"got {cfg!r:.60}")
    cfg[key] = value


def _window(text: str) -> list:
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError("--window: expected lo,hi") from exc
    return [lo, hi]


def _write_outputs(prefix: Path, cfg: dict, header, rows, results: dict) -> None:
    prefix.parent.mkdir(parents=True, exist_ok=True)
    with open(prefix.with_suffix(".csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    with open(prefix.with_suffix(".json"), "w") as fh:
        fh.write(_sidecar(cfg, results) + "\n")


def _sidecar(cfg: dict, results: dict) -> str:
    """``json.dumps(dict(results, config=cfg, digest=config_digest(cfg)), sort_keys=True)``
    with the config encoded once, for the sidecar and its digest."""
    config = json.dumps(cfg, sort_keys=True)
    fields = {k: json.dumps(v, sort_keys=True) for k, v in results.items()}
    fields.update(config=config, digest=json.dumps(json_digest(config)))
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in sorted(fields.items())) + "}"


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    command = f"{args.group} {args.action}"
    if (args.group, args.action) not in _COMMANDS:
        print(f"unknown command {command!r}; {_PARSER.epilog}", file=sys.stderr)
        return 2
    handler, paths = _COMMANDS[args.group, args.action]
    try:
        if args.config is None and handler is not _suite_run:
            raise ConfigError("--config: required for this command")
        cfg = _load_config(args.config) if args.config else {}
        for flag in ("seed", "window", "n", "out"):
            value = getattr(args, flag)
            if value is not None and flag in paths:
                _override(cfg, paths[flag], _window(value) if flag == "window" else value)
            elif value is not None and flag != "out":   # otherwise --out is the prefix
                raise ConfigError(f"--{flag}: {command} takes no --{flag}")
        header, rows, results, status = handler(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, GridMismatchError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    if header is not None:
        _write_outputs(Path(args.out or "onesided_out"), cfg, header, rows, results)
    return status


if __name__ == "__main__":
    sys.exit(main())
