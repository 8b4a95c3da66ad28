"""Config-driven command line front end.

One flat JSON config per run, no interactive mode; results land in CSV
plus a JSON sidecar carrying the config digest, and identical configs
produce byte-identical artifacts (no timestamps anywhere).

Subcommands:
    weights estimate   any weight-class constant estimator
    weights bump       the power-bump bisection
    operators apply    evaluate an operator on a family member
    operators cancel-sup   truncated-integral cancellation bound
    interp verify      interpolation check on a multiplication operator
    sweep coeffs       coefficient-independence campaign
    decay fit          dyadic-decay campaign
    suite run          the full acceptance battery

Exit status: 0 success; 2 config validation failure (schema-path
diagnostic on stderr); 3 when divergence flags are present in the
results (the artifacts are still written).  ``suite run`` exits 0 only
if every criterion passes.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, GridMismatchError
from .experiments import (STANDARD_SEED, OperatorSpec, TestFunctionFamily,
                          campaign_row, coefficient_sweep, config_digest,
                          decay_rows, dyadic_decay, generate_family,
                          write_campaign_csv)
from .grid import SampledFunction, grid_nodes
from .interpolate import InterpolationEndpoints, verify_on_multiplier
from .operators import (KernelSpec, PolynomialPhase, PVConfig,
                        kernel_cancellation_sup)
from .weights import (TripleSearchConfig, WeightSpec, a1_constant,
                      ap_both_constant, ap_general_constant,
                      ap_minus_constant, ap_plus_constant, gamma_fourpoint_constant,
                      power_bump_search, rh_infty_constant, rh_plus_constant)

_ESTIMATORS = {
    "ap_plus": lambda w, c, p=2.0, **k: ap_plus_constant(w, p, c),
    "ap_minus": lambda w, c, p=2.0, **k: ap_minus_constant(w, p, c),
    "ap_both": lambda w, c, p=2.0, **k: ap_both_constant(w, p, c),
    "ap_general": lambda w, c, p=2.0, side="plus", **k: ap_general_constant(w, p, side, c),
    "a1": lambda w, c, side="plus", **k: a1_constant(w, side, c),
    "rh_plus": lambda w, c, r=1.2, variant=4, **k: rh_plus_constant(w, r, variant, c),
    "rh_infty": lambda w, c, **k: rh_infty_constant(w, c),
    "gamma_fourpoint": lambda w, c, p=2.0, **k: gamma_fourpoint_constant(w, p, c),
}


def _fail(path: str, msg: str) -> ConfigError:
    return ConfigError(f"{path}: {msg}")


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise _fail(f"{path}.{key}", "missing required field")
    return obj[key]


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _fail("config", f"unreadable ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise _fail("config", f"invalid JSON ({exc})") from exc


def _grid_from(cfg: dict, args, path: str = "grid"):
    window = tuple(cfg.get("window", (-8.0, 8.0)))
    n = int(cfg.get("n", 4096))
    if args.window:
        try:
            lo, hi = (float(v) for v in args.window.split(","))
        except ValueError as exc:
            raise _fail("--window", "expected lo,hi") from exc
        window = (lo, hi)
    if args.n:
        n = args.n
    if not window[0] < window[1]:
        raise _fail(f"{path}.window", f"need lo < hi, got {window}")
    if n < 2:
        raise _fail(f"{path}.n", f"need n >= 2, got {n}")
    return window, n


def _search_from(obj: dict, path: str = "search") -> TripleSearchConfig:
    try:
        return TripleSearchConfig.from_json(obj)
    except ConfigError:
        raise
    except (TypeError, KeyError) as exc:
        raise _fail(path, f"invalid search config ({exc})") from exc


def _weight_from(obj, path: str = "weight"):
    if obj is None:
        return None
    try:
        return WeightSpec.from_json(obj)
    except (ConfigError, DomainError, KeyError, TypeError, ValueError) as exc:
        raise _fail(path, str(exc)) from exc


def _number(obj: dict, key: str, default, kind=float):
    """``obj[key]`` (or ``default``) as ``kind``; it must be a JSON number,
    an integral one for int."""
    v = obj.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or (
            kind is int and not float(v).is_integer()):
        raise _fail(key, f"expected {kind.__name__}, got {v!r}")
    return kind(v)


def _family_from(obj: dict, path: str = "family") -> TestFunctionFamily:
    try:
        return TestFunctionFamily.from_json(obj)
    except ConfigError as exc:
        raise _fail(path, str(exc)) from exc


def _pv_from(obj: dict) -> PVConfig:
    return PVConfig(int(obj.get("eps_cells", 1)), int(obj.get("refine_checks", 0)))


def _out_prefix(args) -> Path:
    prefix = Path(args.out or "onesided_out")
    prefix.parent.mkdir(parents=True, exist_ok=True)
    return prefix


def _write_rows(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, obj):
    # one compact line through json's C encoder; json.dump would stream
    # through the pure-Python one, which dominates on sampled weights
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_weights_estimate(cfg: dict, args) -> int:
    name = _need(cfg, "estimator", "")
    if name not in _ESTIMATORS:
        raise _fail("estimator", f"unknown estimator {name!r}, "
                                 f"expected one of {sorted(_ESTIMATORS)}")
    w = _weight_from(_need(cfg, "weight", ""))
    search = _search_from(_need(cfg, "search", ""))
    kw = {k: _number(cfg, k, None, kind) for k, kind in
          (("p", float), ("r", float), ("variant", int)) if k in cfg}
    if "side" in cfg:
        kw["side"] = cfg["side"]
    report = _ESTIMATORS[name](w, search, **kw)
    prefix = _out_prefix(args)
    _write_rows(prefix.with_suffix(".csv"),
                ["command", "estimator", "weight", "p", "constant",
                 "finite_flag", "witness"],
                [["weights estimate", name, w.label(), repr(kw.get("p", "")),
                  repr(report.constant), int(report.finite_flag),
                  json.dumps(report.witness, sort_keys=True)]])
    _write_json(prefix.with_suffix(".json"),
                {"report": report.to_json(), "config": cfg,
                 "digest": config_digest(cfg)})
    return 0 if report.finite_flag else 3


def _cmd_weights_bump(cfg: dict, args) -> int:
    w = _weight_from(_need(cfg, "weight", ""))
    search = _search_from(_need(cfg, "search", ""))
    p = _number(cfg, "p", 2.0)
    _need(cfg, "ceiling", "")
    ceiling = _number(cfg, "ceiling", None)
    res = power_bump_search(w, p, search, ceiling)
    prefix = _out_prefix(args)
    _write_rows(prefix.with_suffix(".csv"),
                ["command", "weight", "p", "ceiling", "epsilon", "found",
                 "constant_at_epsilon"],
                [["weights bump", w.label(), repr(p), repr(ceiling),
                  repr(res.epsilon), int(res.found),
                  repr(res.constant_at_epsilon)]])
    _write_json(prefix.with_suffix(".json"),
                {"epsilon": res.epsilon, "found": res.found,
                 "constant_at_epsilon": res.constant_at_epsilon,
                 "config": cfg, "digest": config_digest(cfg)})
    return 0 if res.found else 3


def _operator_from(obj: dict, path: str = "operator") -> OperatorSpec:
    kind = _need(obj, "kind", path)
    kernel = KernelSpec.from_json(obj) if "kernel" in obj else None
    phase = PolynomialPhase.from_json(obj) if "phase" in obj else None
    pv = _pv_from(obj.get("pv", {}))
    try:
        return OperatorSpec(kind, kernel, phase, pv, obj.get("j"))
    except ConfigError as exc:
        raise _fail(path, str(exc)) from exc


def _cmd_operators_apply(cfg: dict, args) -> int:
    op = _operator_from(_need(cfg, "operator", ""))
    window, n = _grid_from(cfg.get("grid", {}), args)
    inp = _need(cfg, "input", "")
    fam = _family_from(_need(inp, "family", "input"), "input.family")
    index = int(inp.get("index", 0))
    if not 0 <= index < fam.count:
        raise _fail("input.index", f"index {index} outside family of {fam.count}")
    F = generate_family(fam, window[0], window[1], n)
    out = op.apply_batch(F[index:index + 1], window[0], window[1])[0]
    x = grid_nodes(window[0], window[1], n)
    prefix = _out_prefix(args)
    _write_rows(prefix.with_suffix(".csv"), ["x", "re", "im"],
                [[repr(float(xi)), repr(float(v.real)), repr(float(v.imag))]
                 for xi, v in zip(x, out)])
    _write_json(prefix.with_suffix(".json"),
                {"operator": op.to_json(), "window": list(window), "n": n,
                 "family": fam.to_json(), "index": index,
                 "digest": config_digest(cfg)})
    return 0


def _cmd_operators_cancel_sup(cfg: dict, args) -> int:
    kernel = KernelSpec.from_json(_need(cfg, "kernel", ""))
    sup = kernel_cancellation_sup(kernel, _need(cfg, "eps_grid", ""),
                                  _need(cfg, "N_grid", ""))
    prefix = _out_prefix(args)
    _write_rows(prefix.with_suffix(".csv"),
                ["command", "kernel", "sup"],
                [["operators cancel-sup", kernel.tag, repr(sup)]])
    _write_json(prefix.with_suffix(".json"),
                {"sup": sup, "config": cfg, "digest": config_digest(cfg)})
    return 0


def _cmd_interp_verify(cfg: dict, args) -> int:
    e = _need(cfg, "endpoints", "")
    try:
        endpoints = InterpolationEndpoints(
            float(_need(e, "p0", "endpoints")), float(_need(e, "p1", "endpoints")),
            _weight_from(_need(e, "u0", "endpoints"), "endpoints.u0"),
            _weight_from(_need(e, "v0", "endpoints"), "endpoints.v0"),
            _weight_from(_need(e, "u1", "endpoints"), "endpoints.u1"),
            _weight_from(_need(e, "v1", "endpoints"), "endpoints.v1"),
            float(e.get("c0", 1.0)), float(e.get("c1", 1.0)),
            float(_need(e, "theta", "endpoints")))
    except DomainError as exc:
        raise _fail("endpoints", str(exc)) from exc
    gspec = _need(cfg, "g", "")
    window, n = _grid_from(gspec.get("grid", {}), args)
    if "family" in gspec:
        fam = _family_from(gspec["family"], "g.family")
        F = generate_family(fam, window[0], window[1], n)
        g = SampledFunction(window[0], window[1], n, F[int(gspec.get("index", 0))])
    else:
        vals = np.asarray(_need(gspec, "values", "g"), dtype=np.complex128)
        g = SampledFunction(window[0], window[1], len(vals), vals)
    report = verify_on_multiplier(g, endpoints)
    prefix = _out_prefix(args)
    _write_rows(prefix.with_suffix(".csv"),
                ["command", "exact_norm", "c_bound", "pass"],
                [["interp verify", repr(report.exact_norm),
                  repr(report.c_bound), int(report.passed)]])
    _write_json(prefix.with_suffix(".json"),
                {"exact_norm": report.exact_norm, "c_bound": report.c_bound,
                 "pass": report.passed, "config": cfg,
                 "digest": config_digest(cfg)})
    return 0 if report.passed else 3


def _cmd_sweep_coeffs(cfg: dict, args) -> int:
    kernel = KernelSpec.from_json(_need(cfg, "kernel", ""))
    k, l = (int(v) for v in _need(cfg, "monomial", ""))
    coeffs = [float(a) for a in _need(cfg, "coeffs", "")]
    w = _weight_from(cfg.get("weight"))
    p = float(cfg.get("p", 2.0))
    fam = _family_from(_need(cfg, "family", ""))
    if args.seed is not None:
        fam = TestFunctionFamily(fam.kind, fam.count, args.seed, fam.support)
    window, n = _grid_from(cfg.get("grid", {}), args)
    pv = _pv_from(cfg.get("pv", {}))
    reports = coefficient_sweep(kernel, (k, l), coeffs, w, p, fam, window, n, pv)
    rows, sidecar = [], []
    for a, rep in zip(coeffs, reports):
        op = OperatorSpec("oscillatory", kernel, PolynomialPhase.monomial(k, l, a), pv)
        rows.append(campaign_row("sweep", op, w, p, a, rep, window, n))
        sidecar.append({"param": a, "digest": rep.config_digest,
                        "best_ratio": rep.best_ratio,
                        "argmax_index": rep.argmax_index})
    prefix = _out_prefix(args)
    write_campaign_csv(prefix.with_suffix(".csv"), rows,
                       prefix.with_suffix(".json"),
                       {"config": cfg, "rows": sidecar,
                        "digest": config_digest(cfg)})
    return 0


def _cmd_decay_fit(cfg: dict, args) -> int:
    kernel = KernelSpec.from_json(_need(cfg, "kernel", ""))
    phase = PolynomialPhase.from_json(_need(cfg, "phase", ""))
    p = float(cfg.get("p", 2.0))
    w = _weight_from(cfg.get("weight"))
    fam = _family_from(_need(cfg, "family", ""))
    if args.seed is not None:
        fam = TestFunctionFamily(fam.kind, fam.count, args.seed, fam.support)
    j_max = int(_need(cfg, "j_max", ""))
    window, n = _grid_from(_need(cfg, "grid", ""), args)
    pv = _pv_from(cfg.get("pv", {}))
    fit = dyadic_decay(kernel, phase, p, w, fam, j_max, window, n, pv)
    rows = decay_rows(fit, "1" if w is None else w.label(), p, window, n, fam.seed)
    prefix = _out_prefix(args)
    write_campaign_csv(prefix.with_suffix(".csv"), rows,
                       prefix.with_suffix(".json"),
                       {"config": cfg, "slope": fit.slope,
                        "intercept": fit.intercept,
                        "digest": config_digest(cfg)})
    return 0


def _cmd_suite_run(cfg: dict, args) -> int:
    from .suite import run_all
    seed = args.seed if args.seed is not None else int(cfg.get("seed", STANDARD_SEED))
    out = args.out or cfg.get("out", "suite_out")
    t0 = time.time()
    ok = all(r.passed for r in run_all(out, seed=seed, echo=True))
    print(f"{'ALL PASS' if ok else 'FAILURES PRESENT'} "
          f"({time.time() - t0:.0f}s, artifacts in {out}/)")
    return 0 if ok else 1


_COMMANDS = {
    ("weights", "estimate"): _cmd_weights_estimate,
    ("weights", "bump"): _cmd_weights_bump,
    ("operators", "apply"): _cmd_operators_apply,
    ("operators", "cancel-sup"): _cmd_operators_cancel_sup,
    ("interp", "verify"): _cmd_interp_verify,
    ("sweep", "coeffs"): _cmd_sweep_coeffs,
    ("decay", "fit"): _cmd_decay_fit,
    ("suite", "run"): _cmd_suite_run,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onesided",
        description="One-sided weight / oscillatory-integral experiments")
    sub = parser.add_subparsers(dest="group", required=True)
    for group, action in (("weights", ("estimate", "bump")),
                          ("operators", ("apply", "cancel-sup")),
                          ("interp", ("verify",)), ("sweep", ("coeffs",)),
                          ("decay", ("fit",)), ("suite", ("run",))):
        g = sub.add_parser(group)
        gs = g.add_subparsers(dest="action", required=True)
        for a in action:
            ap = gs.add_parser(a)
            ap.add_argument("--config", help="path to the JSON run config")
            ap.add_argument("--out", help="output path prefix for CSV/JSON")
            ap.add_argument("--seed", type=int, help="seed override")
            ap.add_argument("--window", help="window override lo,hi")
            ap.add_argument("--n", type=int, help="grid size override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cmd = _COMMANDS[(args.group, args.action)]
    try:
        if (args.group, args.action) == ("suite", "run"):
            cfg = _load_config(args.config) if args.config else {}
        else:
            if not args.config:
                raise _fail("--config", "required for this command")
            cfg = _load_config(args.config)
        return cmd(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, GridMismatchError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
