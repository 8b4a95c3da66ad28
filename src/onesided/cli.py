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
sidecar ``{config, digest, ...results}``: the config the run used,
overrides included, as ``config_echo`` gives it (samples by SHA-256).
Identical runs produce byte-identical artifacts (no timestamps
anywhere).  ``suite run`` writes its own artifact directory instead.

Exit status: 0 success; 2 for an unknown command, a flag the command
does not take, or a malformed config, a field no reader reads included
(a diagnostic naming the field's path on stderr); 3 when divergence flags
are present in the results, or a result is not finite: a campaign's ratio
or fit, an applied operator's samples or a cancellation sup (the
artifacts are still written).  The handlers of those four run with numpy's
floating-point warnings off: an overflow shows in the exit status, not as a warning.
``suite run`` exits 0 only if every criterion passes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import (ConfigError, DomainError, GridMismatchError, opt, read, read_fields,
                     read_object)
from .experiments import (CSV_COLUMNS, STANDARD_N, STANDARD_SEED, STANDARD_WINDOW,
                          OperatorSpec, TestFunctionFamily, campaign_row,
                          coefficient_sweep, config_echo, decay_rows, dyadic_decay,
                          family_member, json_digest, write_csv)
from .grid import SampledFunction, grid_nodes
from .interpolate import InterpolationEndpoints, verify_on_multiplier
from .operators import (KernelSpec, PolynomialPhase, PVConfig,
                        kernel_cancellation_sup)
from .weights import (TripleSearchConfig, WeightSpec, a1_constant,
                      ap_both_constant, ap_general_constant,
                      ap_minus_constant, ap_plus_constant, gamma_fourpoint_constant,
                      power_bump_search, rh_infty_constant, rh_plus_constant)

# each estimator and the table of the fields it takes (p first): fn(w, *fields, search)
_P, _SIDE = {"p": opt(float, 2.0)}, {"side": opt(str, "plus")}
_ESTIMATORS = {
    "ap_plus": (ap_plus_constant, _P),
    "ap_minus": (ap_minus_constant, _P),
    "ap_both": (ap_both_constant, _P),
    "ap_general": (ap_general_constant, {**_P, **_SIDE}),
    "a1": (a1_constant, _SIDE),
    "rh_plus": (rh_plus_constant, {"r": opt(float, 1.2), "variant": opt(int, 4)}),
    "rh_infty": (rh_infty_constant, {}),
    "gamma_fourpoint": (gamma_fourpoint_constant, _P),
}
_MEMBER = {"index": opt(int, 0), "family": TestFunctionFamily.from_json}  # sampled by ``_member``


# ---------------------------------------------------------------------------
# sub-configs, each a kind in a ``read_object`` field table
# ---------------------------------------------------------------------------

def _grid(obj: dict, path: str):
    """(window, n) of ``{"window": [lo, hi], "n": n}``."""
    (lo, hi), n = read_object(obj, {"window": opt((float, float), STANDARD_WINDOW),
                                    "n": opt(int, STANDARD_N)}, path)
    if not -np.inf < lo < hi < np.inf:
        raise ConfigError(f"{path}.window: need finite lo < hi, got {[lo, hi]}")
    if n < 2:
        raise ConfigError(f"{path}.n: need n >= 2, got {n}")
    return (lo, hi), n


_GRID = {"grid": opt(_grid, (STANDARD_WINDOW, STANDARD_N))}


def _pv(obj: dict, path: str) -> PVConfig:
    return read_fields(PVConfig, obj, {"eps_cells": int}, path)


def _operator(obj: dict, path: str) -> OperatorSpec:
    return read_fields(OperatorSpec, obj, {"kind": str, "kernel": KernelSpec.from_json,
                                           "phase": PolynomialPhase.from_json, "pv": _pv,
                                           "j": int}, path)


def _endpoints(obj: dict, path: str) -> InterpolationEndpoints:
    # no c0 or c1: the check works the endpoint constants out as the exact norms
    weights = dict.fromkeys(("u0", "v0", "u1", "v1"), WeightSpec.from_json)
    return read_fields(InterpolationEndpoints, obj,
                       {"p0": float, "p1": float, **weights, "theta": float}, path)


def _member(index: int, fam: TestFunctionFamily, path: str, window: tuple, n: int):
    """Member ``index`` of ``fam``, the ``_MEMBER`` fields at ``path``, sampled on the grid."""
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
    fn, fields = _ESTIMATORS[name]
    _, w, search, *args = read_object(cfg, {"estimator": str, "weight": WeightSpec.from_json,
                                            "search": TripleSearchConfig.from_json, **fields})
    report = fn(w, *args, search)
    return (["command", "estimator", "weight", "p", "constant", "finite_flag", "witness"],
            [["weights estimate", name, w.label(), repr(args[0]) if "p" in fields else "",
              repr(report.constant), int(report.finite_flag),
              json.dumps(report.witness, sort_keys=True)]],
            {"report": asdict(report)}, 0 if report.finite_flag else 3)


def _weights_bump(cfg: dict):
    w, search, p, ceiling = read_object(
        cfg, {"weight": WeightSpec.from_json, "search": TripleSearchConfig.from_json,
              **_P, "ceiling": float})
    res = power_bump_search(w, p, search, ceiling)
    return (["command", "weight", "p", "ceiling", "epsilon", "found", "constant_at_epsilon"],
            [["weights bump", w.label(), repr(p), repr(ceiling), repr(res.epsilon),
              int(res.found), repr(res.constant_at_epsilon)]],
            asdict(res), 0 if res.found else 3)


@np.errstate(all="ignore")     # an overflow shows as a result that is not finite
def _operators_apply(cfg: dict):
    op, (window, n), inp = read_object(cfg, {"operator": _operator, **_GRID, "input": dict})
    f = _member(*read_object(inp, _MEMBER, "input"), "input", window, n)
    out = op.apply_batch(f[None], window[0], window[1])[0]
    return (["x", "re", "im"],
            [[repr(float(xi)), repr(float(v.real)), repr(float(v.imag))]
             for xi, v in zip(grid_nodes(window[0], window[1], n), out)], {},
            _finite_status(out))


@np.errstate(all="ignore")     # an overflow shows as a result that is not finite
def _operators_cancel_sup(cfg: dict):
    kernel, eps_grid, N_grid = read_object(
        cfg, {"kernel": KernelSpec.from_json, "eps_grid": [float], "N_grid": [float]})
    sup = kernel_cancellation_sup(kernel, eps_grid, N_grid)
    return (["command", "kernel", "sup"], [["operators cancel-sup", kernel.tag, repr(sup)]],
            {"sup": sup}, _finite_status(sup))


def _interp_verify(cfg: dict):
    endpoints, g = read_object(cfg, {"endpoints": _endpoints, "g": dict})
    if "family" in g:
        (window, n), index, fam = read_object(g, {**_GRID, **_MEMBER}, "g")
        vals = _member(index, fam, "g", window, n)
    else:
        (window, n), vals = read_object(g, {**_GRID, "values": [float]}, "g")
        vals = np.asarray(vals)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise ConfigError(f"g.values[{bad[0]}]: expected a finite number, got {vals[bad[0]]}")
        if "n" in g.get("grid", {}) and n != len(vals):
            raise ConfigError(f"g.grid.n: {n} differs from the {len(vals)} values")
    if not np.any(vals):    # then both exact endpoint norms are 0
        raise ConfigError("g.values: every sample is 0" if "values" in g else
                          f"g.grid.window: every sample of the member on {list(window)} "
                          f"at n = {n} is 0")
    report = verify_on_multiplier(SampledFunction(*window, len(vals), vals), endpoints)
    return (["command", "exact_norm", "c_bound", "pass"],
            [["interp verify", repr(report.exact_norm), repr(report.c_bound), int(report.passed)]],
            {"exact_norm": report.exact_norm, "c_bound": report.c_bound,
             "pass": report.passed}, 0 if report.passed else 3)


@np.errstate(all="ignore")     # an overflow shows as a result that is not finite
def _sweep_coeffs(cfg: dict):
    kernel, monomial, coeffs, w, p, fam, (window, n), pv = read_object(
        cfg, {"kernel": KernelSpec.from_json, "monomial": (int, int), "coeffs": [float],
              "weight": opt(WeightSpec.from_json, None), **_P,
              "family": TestFunctionFamily.from_json, **_GRID, "pv": opt(_pv, PVConfig())})
    swept = list(zip(coeffs, coefficient_sweep(kernel, monomial, coeffs, w, p, fam,
                                               window, n, pv)))
    return (CSV_COLUMNS, [campaign_row("sweep", w, p, a, rep, window, n) for a, rep in swept],
            {"rows": [{"param": a, "digest": rep.config_digest, "best_ratio": rep.best_ratio,
                       "argmax_index": rep.argmax_index} for a, rep in swept]},
            _finite_status([rep.best_ratio for _, rep in swept]))


@np.errstate(all="ignore")     # an overflow shows as a result that is not finite
def _decay_fit(cfg: dict):
    kernel, phase, p, w, fam, j_max, (window, n), pv = read_object(
        cfg, {"kernel": KernelSpec.from_json, "phase": PolynomialPhase.from_json, **_P,
              "weight": opt(WeightSpec.from_json, None), "family": TestFunctionFamily.from_json,
              "j_max": int, "grid": _grid, "pv": opt(_pv, PVConfig())})
    fit = dyadic_decay(kernel, phase, p, w, fam, j_max, window, n, pv)
    return (CSV_COLUMNS, decay_rows(fit, "1" if w is None else w.label(), p, window, n, fam.seed),
            {"slope": fit.slope, "intercept": fit.intercept},
            _finite_status((fit.slope, fit.intercept, *fit.best_ratios)))


def _finite_status(values) -> int:
    """A run's exit status: 3 when a result is not finite."""
    return 0 if np.isfinite(values).all() else 3


def _suite_run(cfg: dict):
    from .suite import run_all
    seed, out = read_object(cfg, {"seed": opt(int, STANDARD_SEED), "out": opt(str, "suite_out")})
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
    except ValueError as exc:   # bad JSON or UTF-8, or an int past Python's digit limit
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
    """``PREFIX.csv`` and ``PREFIX.json``, appended to the prefix: a dot in it stays."""
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_csv(f"{prefix}.csv", header, rows)
    with open(f"{prefix}.json", "w") as fh:
        fh.write(_sidecar(cfg, results) + "\n")


def _sidecar(cfg: dict, results: dict) -> str:
    """``results`` beside the echoed config and its ``config_digest``, as sorted-keys JSON."""
    echo = config_echo(cfg)
    digest = json_digest(json.dumps(echo, sort_keys=True))
    return json.dumps(dict(results, config=echo, digest=digest), sort_keys=True)


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
