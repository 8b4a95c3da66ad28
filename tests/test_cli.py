import copy
import csv
import hashlib
import json
import math
import re
import struct
import warnings
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from onesided import cli, experiments, weights
from onesided.cli import main
from onesided.errors import ConfigError, read
from onesided.experiments import (CSV_COLUMNS, TestFunctionFamily, campaign_row,
                                  coefficient_sweep, config_digest, config_echo, write_csv)
from onesided.grid import grid_nodes
from onesided.operators import (KernelSpec, OperatorSpec, PolynomialPhase, PVConfig,
                                oscillating_log_kernel, truncated_power_kernel)
from onesided.weights import TripleSearchConfig


def write_cfg(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


SEARCH = {"window": [-8.0, 8.0], "n_anchor": 33, "n_h": 12, "h_min": 0.05,
          "h_max": 8.0, "gamma": 0.25, "n_grid": 2049, "ceiling": 1e6}
KERNEL = {"kernel": {"tag": "oscillating-log", "side": "plus",
                     "params": [1.0, 1.0], "size_const": 1.0,
                     "smooth_const": 2.0}}
FAMILY = {"kind": "random-bump-sums", "count": 6, "seed": 20240901,
          "support": [-2.0, 2.0]}
ENDPOINTS = {"p0": 2.0, "p1": 3.0,
             "u0": {"form": "exponential", "params": [1.0]},
             "v0": {"form": "constant", "params": [1.0]},
             "u1": {"form": "constant", "params": [1.0]},
             "v1": {"form": "power", "params": [0.5]},
             "theta": 0.4}
SMALL_GRID = {"window": [-4.0, 4.0], "n": 129}
# one small valid config per command; every run takes well under a second
TINY = {
    ("weights", "estimate"): {
        "estimator": "ap_general", "p": 2.0, "side": "plus",
        "weight": {"form": "sampled", "x_lo": -8.0, "x_hi": 8.0, "n": 9,
                   "values": [1.0, 0.1, 1e-8, 2.5, 1.0 / 3.0, 7.0, 1e300, 5e-324, 0.5]},
        "search": dict(SEARCH, n_grid=257, n_anchor=9, n_h=4, h_min=0.5)},
    ("weights", "bump"): {
        "weight": {"form": "power", "params": [0.5]}, "p": 2.0, "ceiling": 100.0,
        "search": dict(SEARCH, n_grid=257, n_anchor=9, n_h=4, h_min=0.5)},
    ("operators", "apply"): {
        "operator": dict({"kind": "singular", "pv": {"eps_cells": 1}}, **KERNEL),
        "grid": SMALL_GRID, "input": {"family": FAMILY, "index": 2}},
    ("operators", "cancel-sup"): dict({"eps_grid": [1e-3, 1e-2], "N_grid": [1.0, 8.0]},
                                      **KERNEL),
    ("interp", "verify"): {"endpoints": ENDPOINTS,
                           "g": {"family": FAMILY, "index": 0, "grid": SMALL_GRID}},
    ("sweep", "coeffs"): dict({"monomial": [1, 1], "coeffs": [1.0], "weight": None,
                               "p": 2.0, "family": FAMILY, "grid": SMALL_GRID,
                               "pv": {"eps_cells": 1}}, **KERNEL),
    ("decay", "fit"): dict({"phase": {"coeffs": [[1, 1, 1.0]]}, "p": 2.0, "weight": None,
                            "family": dict(FAMILY, count=2, support=[0.0, 1.0]),
                            "j_max": 3, "grid": {"window": [-10.0, 2.0], "n": 257}},
                           **KERNEL),
    ("suite", "run"): {"seed": 1},
}
# flags of a run and the config paths they write
OVERRIDES = {
    ("operators", "apply"): (["--window=-3,3", "--n", "65"],
                             {"grid.window": [-3.0, 3.0], "grid.n": 65}),
    ("interp", "verify"): (["--window=-3,3", "--n", "65"],
                           {"g.grid.window": [-3.0, 3.0], "g.grid.n": 65}),
    ("sweep", "coeffs"): (["--seed", "7", "--n", "65"], {"family.seed": 7, "grid.n": 65}),
    ("decay", "fit"): (["--seed", "7", "--window=-9,2"],
                       {"family.seed": 7, "grid.window": [-9.0, 2.0]}),
}
# each fails at a field the reader names: (command, top-level change, flags, path[,
# test id, where the path alone would repeat one])
MALFORMED = [
    (("sweep", "coeffs"), {"p": "abc"}, [], "p"),
    (("sweep", "coeffs"), {"monomial": [1, "y"]}, [], "monomial[1]"),
    (("sweep", "coeffs"), {"pv": {"eps_cells": "x"}}, [], "pv.eps_cells"),
    (("sweep", "coeffs"), {"pv": {"eps_cells": 1, "refine_checks": 2}}, [], "pv.refine_checks"),
    (("sweep", "coeffs"),
     {"kernel": {k: v for k, v in KERNEL["kernel"].items() if k != "side"}}, [],
     "kernel.side"),
    (("decay", "fit"), {"phase": {"coeffs": [[1, 1]]}}, [], "phase.coeffs[0]"),
    (("operators", "apply"), {"input": {"index": "a"}}, [], "input.index"),
    (("operators", "apply"), {"grid": {"window": [-2, 2, 3]}}, [], "grid.window"),
    (("operators", "cancel-sup"), {"eps_grid": ["a"]}, [], "eps_grid[0]"),
    (("interp", "verify"), {"endpoints": dict(ENDPOINTS, p0="a")}, [], "endpoints.p0"),
    (("interp", "verify"), {"g": {"values": ["x", 2, 3]}}, [], "g.values[0]"),
    (("suite", "run"), {"seed": "x"}, [], "seed"),
    (("weights", "estimate"), {}, ["--n", "64"], "--n"),
    (("decay", "fit"), {"j_max": 1100}, [], "j_max"),       # 2.0 ** 1100 overflows
    (("weights", "estimate"), {"estimator": "a1", "p": 0.0}, [], "p"),   # a1 takes no p
    (("weights", "estimate"), {"estimator": "rh_infty", "p": -3.0, "r": 0.2}, [], "p"),
    # fields the command would read and then ignore
    (("interp", "verify"), {"endpoints": dict(ENDPOINTS, c0=2.0)}, [], "endpoints.c0"),
    (("operators", "apply"), {"operator": dict({"kind": "m_plus"}, **KERNEL)}, [], "operator"),
    (("sweep", "coeffs"), {"kernel": KERNEL}, [], "kernel.tag"),       # the kernel nested twice
    (("decay", "fit"), {"phase": {"phase": {"coeffs": [[1, 1, 1.0]]}}}, [], "phase.coeffs"),
    # NaN, which json.load accepts, never reaches a computation
    (("sweep", "coeffs"), {"kernel": dict(KERNEL["kernel"], params=[1.0, math.nan])}, [],
     "kernel.params[1]", "kernel0"),
    (("operators", "cancel-sup"), {"kernel": dict(KERNEL["kernel"], params=[1.0, math.nan])},
     [], "kernel.params[1]", "kernel1"),
    (("sweep", "coeffs"), {"coeffs": [math.nan]}, [], "coeffs[0]", "coeffs"),
    (("weights", "bump"), {"ceiling": math.nan}, [], "ceiling"),
    (("weights", "estimate"), {"estimator": "ap_both", "p": 2.0,
                               "weight": {"form": "exponential", "params": [1.0]},
                               "search": dict(SEARCH, ceiling=math.nan)}, [], "search.ceiling"),
    # non-finite weight params, which json.load also accepts
    (("weights", "estimate"), {"weight": {"form": "constant", "params": [math.inf]}}, [],
     "weight", "weight-inf"),
    # a non-finite window, which json.load also accepts
    (("operators", "apply"), {"grid": {"window": [-math.inf, 8.0], "n": 65}}, [],
     "grid.window", "grid.window-inf"),
    # each kernel tag's parameter layout and ranges
    (("operators", "cancel-sup"), {"kernel": dict(KERNEL["kernel"], params=[1.0])}, [],
     "kernel", "kernel-arity"),
    (("operators", "cancel-sup"), {"kernel": dict(KERNEL["kernel"], params=[0.0, 1.0])}, [],
     "kernel", "kernel-lambda"),
    (("operators", "cancel-sup"), {"kernel": {"tag": "truncated-power", "side": "plus",
                                              "params": [3.5, 0.5, 1.0, 1.0]}}, [],
     "kernel", "kernel-range"),
    # a negative seed, and integers past int64 that would overflow a budget check
    (("sweep", "coeffs"), {"family": dict(FAMILY, seed=-1)}, [], "family"),
    (("sweep", "coeffs"), {"family": dict(FAMILY, count=1e300)}, [], "family.count"),
    (("weights", "estimate"),
     {"search": dict(TINY[("weights", "estimate")]["search"], n_h=1e300)}, [], "search.n_h"),
    # NaN among a multiplier's samples, which the [float] reader lets through
    (("interp", "verify"), {"g": {"values": [1.0, math.nan, 2.0, 0.5]}}, [], "g.values[1]"),
    # JSON integers past the float range, which float() cannot take
    (("weights", "estimate"), {"p": 10 ** 400}, [], "p", "p-past-float"),
    (("weights", "bump"), {"weight": {"form": "power", "params": [10 ** 400]}}, [],
     "weight.params[0]"),
    (("weights", "estimate"), {"weight": dict(TINY["weights", "estimate"]["weight"], values=[
        1.0, 0.1, 10 ** 400, 2.5, 1.0 / 3.0, 7.0, 1e300, 5e-324, 0.5])}, [], "weight.values[2]"),
    # a field no reader reads, which would run at its default or not at all
    (("weights", "estimate"), {"sidee": "minus"}, [], "sidee"),
    (("sweep", "coeffs"), {"junk": {"a": 1}}, [], "junk"),
    (("sweep", "coeffs"), {"family": dict(FAMILY, sed=3)}, [], "family.sed"),
    (("decay", "fit"), {"kernel": dict(KERNEL["kernel"], size=1.0)}, [], "kernel.size"),
    (("decay", "fit"), {"phase": {"coeffs": [[1, 1, 1.0]], "scale": 2.0}}, [], "phase.scale"),
    (("weights", "bump"), {"search": dict(SEARCH, n_grids=257)}, [], "search.n_grids"),
    (("weights", "bump"), {"weight": {"form": "power", "params": [0.5], "n": 9}}, [],
     "weight.n"),
    (("weights", "estimate"), {"weight": dict(TINY["weights", "estimate"]["weight"],
                                              params=[1.0])}, [], "weight.params"),
    (("operators", "apply"), {"grid": dict(SMALL_GRID, step=0.1)}, [], "grid.step"),
    (("operators", "apply"), {"operator": {"kind": "m_plus", "jj": 1}}, [], "operator.jj"),
    (("operators", "apply"), {"input": {"family": FAMILY, "inex": 1}}, [], "input.inex"),
    (("operators", "cancel-sup"), {"N": [1.0]}, [], "N"),
    (("interp", "verify"), {"g": {"family": FAMILY, "values": [1.0, 2.0]}}, [], "g.values"),
    (("interp", "verify"), {"g": {"values": [1.0, 2.0], "index": 0}}, [], "g.index"),
    (("suite", "run"), {"sed": 1}, [], "sed"),
]


def _malformed_id(command, change, flags, path, name=None) -> str:
    return name or (f"{change['estimator']}-{path}" if "estimator" in change else path)


def hashed_samples(cfg: dict) -> dict:
    """``cfg`` with its sampled weight's ``values`` given as ``values_sha256``, the
    SHA-256 of their little-endian float64 bytes: the form a sidecar echoes."""
    weight = cfg.get("weight") or {}
    if weight.get("form") != "sampled":
        return cfg
    values = weight["values"]
    echo = {k: v for k, v in weight.items() if k != "values"}
    echo["values_sha256"] = hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()
    return dict(cfg, weight=echo)


class TestWeightsCommands:
    def test_estimate_unit_weight(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "estimator": "ap_plus", "p": 2.0,
            "weight": {"form": "constant", "params": [1.0]},
            "search": SEARCH})
        out = tmp_path / "res"
        assert main(["weights", "estimate", "--config", cfg, "--out", str(out)]) == 0
        rows = (tmp_path / "res.csv").read_text().splitlines()
        assert "1.0" in rows[1]
        payload = json.loads((tmp_path / "res.json").read_text())
        assert payload["report"]["constant"] == 1.0
        assert payload["report"]["finite_flag"] is True

    @pytest.mark.parametrize("estimator, fields, cell", [
        ("ap_plus", {}, "2.0"), ("ap_plus", {"p": 3.0}, "3.0"),
        ("ap_general", {"side": "minus"}, "2.0"), ("a1", {}, ""),
        ("rh_plus", {"r": 1.5}, ""), ("rh_infty", {}, "")])
    def test_estimate_csv_records_the_p_used(self, tmp_path, estimator, fields, cell):
        # the default p included; an estimator that takes no p leaves the cell empty
        cfg = write_cfg(tmp_path, "c.json", {
            "estimator": estimator, **fields,
            "weight": {"form": "constant", "params": [1.0]}, "search": SEARCH})
        assert main(["weights", "estimate", "--config", cfg, "--out",
                     str(tmp_path / "res")]) == 0
        with open(tmp_path / "res.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["p"] == cell

    def test_estimate_divergent_exit_3(self, tmp_path):
        # e^x fails both-sided A_2; |x|^-350 overflows the fsum lattice
        # and the grid the maximal functions of a1 and rh_infty run on
        overflowing = {"form": "power", "params": [-350.0]}
        for i, cfg in enumerate([
                {"estimator": "ap_both", "p": 2.0,
                 "weight": {"form": "exponential", "params": [1.0]},
                 "search": dict(SEARCH, h_max=15.9, ceiling=1e3)},
                {"estimator": "gamma_fourpoint", "p": 3.0,
                 "weight": overflowing, "search": SEARCH},
                {"estimator": "a1", "side": "plus",
                 "weight": overflowing, "search": SEARCH},
                {"estimator": "a1", "side": "minus",
                 "weight": overflowing, "search": SEARCH},
                {"estimator": "rh_infty",
                 "weight": overflowing, "search": SEARCH}]):
            path = write_cfg(tmp_path, f"c{i}.json", cfg)
            out = tmp_path / f"res{i}"
            assert main(["weights", "estimate", "--config", path, "--out", str(out)]) == 3
            assert (tmp_path / f"res{i}.csv").exists()   # results still written

    def test_bump(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "weight": {"form": "power", "params": [0.5]}, "p": 2.0,
            "ceiling": 100.0, "search": SEARCH})
        out = tmp_path / "res"
        assert main(["weights", "bump", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "res.json").read_text())
        assert payload["found"] is True and payload["epsilon"] >= 1e-3

    def test_bump_overflowing_scale_exit_2(self, tmp_path, capsys):
        # the eps = 1 step squares the scale 1e200 past the float range
        cfg = write_cfg(tmp_path, "c.json", dict(TINY[("weights", "bump")], weight={
            "form": "product", "params": [1e200, 0.0, 1.0]}))
        assert main(["weights", "bump", "--config", cfg, "--out", str(tmp_path / "res")]) == 2
        assert "params must be finite" in capsys.readouterr().err

    def test_bump_overflowing_sampled_power_exit_2(self, tmp_path, capsys):
        # the eps = 1 step squares samples of 1e200 past the float range
        cfg = write_cfg(tmp_path, "c.json", dict(TINY[("weights", "bump")], weight={
            "form": "sampled", "x_lo": -8.0, "x_hi": 8.0, "n": 5, "values": [1e200] * 5}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["weights", "bump", "--config", cfg,
                         "--out", str(tmp_path / "res")]) == 2
        assert "domain error: sampled weight" in capsys.readouterr().err

    def test_unknown_estimator_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "estimator": "ap_plusplus",
            "weight": {"form": "constant", "params": [1.0]},
            "search": SEARCH})
        assert main(["weights", "estimate", "--config", cfg]) == 2
        assert "estimator" in capsys.readouterr().err

    def test_bad_weight_schema_path(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "estimator": "ap_plus",
            "weight": {"form": "powerr", "params": [0.5]},
            "search": SEARCH})
        assert main(["weights", "estimate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "weight" in err and "powerr" in err

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["weights", "estimate", "--config",
                     str(tmp_path / "missing.json")]) == 2
        assert "config" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["weights", "estimate", "--config", str(p)]) == 2

    def test_int_past_digit_limit_exit_2(self, tmp_path, capsys):
        # json.load refuses an integer literal of more than 4300 digits
        p = tmp_path / "big.json"
        p.write_text('{"p": 1' + "0" * 5000 + "}")
        assert main(["weights", "estimate", "--config", str(p)]) == 2
        assert "config error: config: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [c for c in TINY if c != ("suite", "run")],
                             ids="-".join)
    def test_sampled_sidecar_roundtrip(self, tmp_path, command):
        # one compact sidecar line that reads back as the config the run
        # used, overrides included, and its digest
        cfg = TINY[command]
        flags, overrides = OVERRIDES.get(command, ([], {}))
        path = write_cfg(tmp_path, "c.json", cfg)
        sidecars = []
        for name in ("r1", "r2"):
            assert main([*command, "--config", path, "--out", str(tmp_path / name),
                         *flags]) in (0, 3)
            sidecars.append((tmp_path / f"{name}.json").read_bytes())
        assert sidecars[0] == sidecars[1]
        assert sidecars[0].count(b"\n") == 1 and sidecars[0].endswith(b"\n")
        used = copy.deepcopy(cfg)
        for dotted, value in overrides.items():
            *parents, key = dotted.split(".")
            holder = used
            for part in parents:
                holder = holder[part]
            holder[key] = value
        payload = json.loads(sidecars[0])
        assert payload["config"] == hashed_samples(used)
        assert payload["digest"] == config_digest(used)

    @pytest.mark.parametrize("command, field, value", [
        ("estimate", "weight", {"form": "sampled", "x_lo": 0.0, "x_hi": 1.0,
                                "n": 3, "values": ["a", 1, 1]}),
        ("estimate", "p", "2"),
        ("estimate", "variant", "x"),
        ("bump", "ceiling", "abc")])
    def test_bad_field_exit_2_with_path(self, tmp_path, capsys, command, field, value):
        cfg = {"weight": {"form": "constant", "params": [1.0]}, "search": SEARCH}
        if command == "estimate":       # an estimator that takes the field
            cfg["estimator"] = "ap_plus" if field == "p" else "rh_plus"
        cfg[field] = value
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["weights", command, "--config", path,
                     "--out", str(tmp_path / "res")]) == 2
        leaf = {"weight": "weight.values[0]"}.get(field, field)
        assert f"config error: {leaf}:" in capsys.readouterr().err

    def test_oversized_lattice_refused_up_front(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "estimator": "ap_plus", "p": 2.0,
            "weight": {"form": "constant", "params": [1.0]},
            "search": dict(SEARCH, n_grid=10 ** 12)})
        with mock.patch.object(weights, "grid_node", side_effect=AssertionError):
            assert main(["weights", "estimate", "--config", cfg]) == 2
        assert "GiB" in capsys.readouterr().err


class TestOperatorCommands:
    def test_apply(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "operator": dict({"kind": "singular", "pv": {"eps_cells": 1}},
                             **KERNEL),
            "grid": {"window": [-4.0, 4.0], "n": 257},
            "input": {"family": FAMILY, "index": 2}})
        out = tmp_path / "res"
        assert main(["operators", "apply", "--config", cfg, "--out", str(out)]) == 0
        lines = (tmp_path / "res.csv").read_text().splitlines()
        assert lines[0] == "x,re,im" and len(lines) == 258

    def test_apply_builds_only_its_member(self, tmp_path):
        # the member alone, bit for bit the family's row; the whole
        # family is never generated
        cfg = {"operator": dict({"kind": "singular", "pv": {"eps_cells": 1}}, **KERNEL),
               "grid": {"window": [-4.0, 4.0], "n": 257},
               "input": {"family": FAMILY, "index": 4}}
        fam = experiments.TestFunctionFamily.from_json(FAMILY)
        F = experiments.generate_family(fam, -4.0, 4.0, 257)
        with mock.patch.object(experiments, "generate_family", side_effect=AssertionError):
            assert cli._member(4, fam, "input", (-4.0, 4.0), 257).tobytes() == F[4].tobytes()
            assert main(["operators", "apply", "--config", write_cfg(tmp_path, "c.json", cfg),
                         "--out", str(tmp_path / "res")]) == 0

    def test_apply_index_out_of_range(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "operator": dict({"kind": "singular"}, **KERNEL),
            "grid": {"window": [-4.0, 4.0], "n": 257},
            "input": {"family": FAMILY, "index": 6}})
        assert main(["operators", "apply", "--config", cfg]) == 2
        assert "index" in capsys.readouterr().err

    def test_grid_flag_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "operator": dict({"kind": "singular", "pv": {"eps_cells": 1}},
                             **KERNEL),
            "grid": {"window": [-4.0, 4.0], "n": 257},
            "input": {"family": FAMILY, "index": 0}})
        out = tmp_path / "res"
        assert main(["operators", "apply", "--config", cfg, "--out", str(out),
                     "--window=-8,8", "--n", "129"]) == 0
        lines = (tmp_path / "res.csv").read_text().splitlines()
        assert len(lines) == 130
        assert lines[1].startswith("-8.0,")

    def test_cancel_sup(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", dict(
            {"eps_grid": [1e-3, 1e-2], "N_grid": [1.0, 8.0]}, **KERNEL))
        out = tmp_path / "res"
        assert main(["operators", "cancel-sup", "--config", cfg,
                     "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "res.json").read_text())
        assert 0.0 < payload["sup"] <= 1.0 + 1e-3

    @pytest.mark.parametrize("field, bad", [("eps_grid", math.nan), ("eps_grid", math.inf),
                                            ("N_grid", math.nan), ("N_grid", math.inf)])
    def test_cancel_sup_non_finite_radius_exit_2(self, tmp_path, capsys, field, bad):
        radii = {"eps_grid": [1e-3, 1e-2], "N_grid": [1.0, 8.0]}
        radii[field] = radii[field] + [bad]
        cfg = write_cfg(tmp_path, "c.json", dict(radii, **KERNEL))
        assert main(["operators", "cancel-sup", "--config", cfg,
                     "--out", str(tmp_path / "res")]) == 2
        # the reader refuses NaN at its index, the radius check refuses inf
        assert (f"{field}[2]:" if math.isnan(bad) else f"{field}:") in capsys.readouterr().err
        assert not (tmp_path / "res.json").exists()


    def test_apply_overflowing_kernel_exit_3(self, tmp_path, capsys):
        # at lambda = 5e-324, t / lambda overflows and the samples are NaN: the
        # run exits 3 with its CSV written, and warns nothing
        cfg = copy.deepcopy(TINY["operators", "apply"])
        cfg["operator"]["kernel"]["params"] = [5e-324, 1.0]
        assert main(["operators", "apply", "--config", write_cfg(tmp_path, "c.json", cfg),
                     "--out", str(tmp_path / "r")]) == 3
        rows = (tmp_path / "r.csv").read_text().splitlines()[1:]
        assert not all(math.isfinite(float(v)) for row in rows for v in row.split(",")[1:])
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("params", [[1e300, 1.0], [1.0, 1e300], [1.0, -1e300]])
    def test_apply_huge_kernel_parameter_exit_0(self, tmp_path, capsys, params):
        # the apply guard's norm overflows, the samples do not: exit 0, no warning
        cfg = copy.deepcopy(TINY["operators", "apply"])
        cfg["operator"]["kernel"]["params"] = params
        assert main(["operators", "apply", "--config", write_cfg(tmp_path, "c.json", cfg),
                     "--out", str(tmp_path / "r")]) == 0
        rows = (tmp_path / "r.csv").read_text().splitlines()[1:]
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")[1:])
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("change", [
        {"eps_grid": [5e-324, 1e-2]}, {"kernel": dict(KERNEL["kernel"], params=[5e-324, 1.0])}],
        ids=["eps-5e-324", "lambda-5e-324"])
    def test_cancel_sup_nan_pair_exit_3(self, tmp_path, capsys, change):
        # a pair whose integral is NaN makes the sup NaN, which max() would drop
        cfg = write_cfg(tmp_path, "c.json", dict(TINY["operators", "cancel-sup"], **change))
        assert main(["operators", "cancel-sup", "--config", cfg,
                     "--out", str(tmp_path / "r")]) == 3
        assert math.isnan(json.loads((tmp_path / "r.json").read_text())["sup"])
        assert capsys.readouterr().err == ""


class TestInterpSweepDecay:
    def test_interp_verify(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "endpoints": {"p0": 2.0, "p1": 3.0,
                          "u0": {"form": "exponential", "params": [1.0]},
                          "v0": {"form": "constant", "params": [1.0]},
                          "u1": {"form": "constant", "params": [1.0]},
                          "v1": {"form": "power", "params": [0.5]},
                          "theta": 0.4},
            "g": {"family": FAMILY, "index": 0,
                  "grid": {"window": [-4.0, 4.0], "n": 257}}})
        out = tmp_path / "res"
        assert main(["interp", "verify", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "res.json").read_text())
        assert payload["pass"] is True

    def test_interp_verify_overflowing_endpoint_norm_exit_2(self, tmp_path, capsys):
        # e^{100 x} overflows on [0, 8], so the exact endpoint norm is inf and
        # the bound c0^theta c1^(1-theta) would pass any norm
        cfg = write_cfg(tmp_path, "c.json", {
            "endpoints": dict(ENDPOINTS, u0={"form": "exponential", "params": [100.0]}),
            "g": {"values": [1.0, 1.5, 2.0, 0.5], "grid": {"window": [0.0, 8.0]}}})
        assert main(["interp", "verify", "--config", cfg, "--out", str(tmp_path / "res")]) == 2
        assert "endpoint constants must lie in (0, inf)" in capsys.readouterr().err
        assert not (tmp_path / "res.json").exists()

    def test_sweep(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", dict(
            {"monomial": [1, 1], "coeffs": [0.1, 1.0], "weight": None,
             "p": 2.0, "family": FAMILY,
             "grid": {"window": [-8.0, 8.0], "n": 513}}, **KERNEL))
        out = tmp_path / "res"
        assert main(["sweep", "coeffs", "--config", cfg, "--out", str(out)]) == 0
        lines = (tmp_path / "res.csv").read_text().splitlines()
        assert len(lines) == 3 and lines[0].startswith("campaign,operator")

    def test_sweep_rows_are_its_reports(self, tmp_path):
        # each report names the operator it applied, coefficient included, and
        # the command writes exactly the campaign_row of each report
        cfg = dict(TINY["sweep", "coeffs"], coeffs=[0.25, -3.0, 1e3])
        reports = coefficient_sweep(KernelSpec.from_json(cfg["kernel"]), (1, 1), cfg["coeffs"],
                                    None, 2.0, TestFunctionFamily.from_json(FAMILY),
                                    (-4.0, 4.0), 129, PVConfig(1))
        for a, rep in zip(cfg["coeffs"], reports):
            assert rep.operator.describe() == f"oscillatory|oscillating-log|plus|P={a}x^1y^1"
        write_csv(tmp_path / "oracle.csv", CSV_COLUMNS,
                  [campaign_row("sweep", None, 2.0, a, rep, (-4.0, 4.0), 129)
                   for a, rep in zip(cfg["coeffs"], reports)])
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main(["sweep", "coeffs", "--config", path, "--out", str(tmp_path / "r")]) == 0
        assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_decay(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", dict(
            {"phase": {"coeffs": [[1, 1, 1.0]]}, "p": 2.0, "weight": None,
             "family": {"kind": "random-bump-sums", "count": 4,
                        "seed": 20240901, "support": [0.0, 1.0]},
             "j_max": 3, "grid": {"window": [-10.0, 2.0], "n": 1025}},
            **KERNEL))
        out = tmp_path / "res"
        assert main(["decay", "fit", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "res.json").read_text())
        assert "slope" in payload

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", dict(
            {"monomial": [1, 1], "coeffs": [1.0], "weight": None, "p": 2.0,
             "family": FAMILY, "grid": {"window": [-8.0, 8.0], "n": 513}},
            **KERNEL))
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / "sub" / name   # missing directory gets created
            assert main(["sweep", "coeffs", "--config", cfg,
                         "--out", str(out)]) == 0
            outs.append((tmp_path / "sub" / f"{name}.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_override_changes_family(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", dict(
            {"monomial": [1, 1], "coeffs": [1.0], "weight": None, "p": 2.0,
             "family": FAMILY, "grid": {"window": [-8.0, 8.0], "n": 513}},
            **KERNEL))
        main(["sweep", "coeffs", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["sweep", "coeffs", "--config", cfg, "--out", str(tmp_path / "b"),
              "--seed", "7"])
        ra = (tmp_path / "a.csv").read_text().splitlines()[1]
        rb = (tmp_path / "b.csv").read_text().splitlines()[1]
        assert ra != rb


def two_encode_sidecar(cfg: dict, results: dict) -> str:
    """The sidecar text with the config encoded twice, kept as the oracle."""
    return json.dumps(dict(results, config=cfg, digest=config_digest(cfg)), sort_keys=True)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=3),
    max_leaves=12)


class TestSidecar:
    @pytest.mark.parametrize("command", [c for c in TINY if c != ("suite", "run")],
                             ids="-".join)
    def test_bytes_equal_two_encode_form(self, tmp_path, command):
        # extra results sort before "config", between it and "digest", and
        # after both, with non-finite values
        handler, paths = cli._COMMANDS[command]
        returned = []

        def with_extras(cfg):
            header, rows, results, status = handler(cfg)
            results = dict(results, a_first=-math.inf, constant=math.inf,
                           zz_last=[math.inf, math.nan, None])
            returned.append(results)
            return header, rows, results, status

        path = write_cfg(tmp_path, "c.json", TINY[command])
        with mock.patch.dict(cli._COMMANDS, {command: (with_extras, paths)}):
            assert main([*command, "--config", path, "--out", str(tmp_path / "r")]) in (0, 3)
        expected = two_encode_sidecar(hashed_samples(TINY[command]), returned[0]) + "\n"
        assert (tmp_path / "r.json").read_bytes() == expected.encode()
        assert b"Infinity" in expected.encode()

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=5),
           st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=5))
    def test_any_json_equals_two_encode_form(self, cfg, results):
        # the README's rule, built without config_echo or json_digest: no text
        # here is "sampled", so the config is echoed as it is
        digest = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]
        expected = json.dumps(dict(results, config=cfg, digest=digest), sort_keys=True)
        assert cli._sidecar(cfg, results) == expected

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_echo_without_sampled_weight_unchanged(self, value):
        # no text of JSON_VALUES is "sampled", so every other sidecar keeps its bytes
        assert json.dumps(config_echo(value)) == json.dumps(value)

    def test_one_ulp_changes_hash_and_digest(self):
        weight = TINY["weights", "estimate"]["weight"]
        values = list(weight["values"])
        values[3] = math.nextafter(values[3], math.inf)
        a = dict(TINY["weights", "estimate"])
        b = dict(a, weight=dict(weight, values=values))
        assert config_echo(a)["weight"]["values_sha256"] != \
            config_echo(b)["weight"]["values_sha256"]
        assert config_digest(a) != config_digest(b)
        assert config_echo(b) == hashed_samples(b)

    def test_echo_hashes_nested_weights_and_keeps_unread_fields(self):
        # an endpoint weight is hashed where it sits; "values" that are not
        # numbers belong to a field no command reads, and stay as they are
        sampled = TINY["weights", "estimate"]["weight"]
        junk = {"form": "sampled", "values": ["x", 1]}
        echo = config_echo({"endpoints": [{"u0": sampled}], "junk": junk})
        assert echo == {"endpoints": [{"u0": hashed_samples({"weight": sampled})["weight"]}],
                        "junk": junk}

    def test_spike_sidecar_under_1kb_and_stable(self, tmp_path):
        values = [1e-8] * 16384
        values[100], values[9000] = 1.5, 0.75
        cfg = {k: v for k, v in TINY["weights", "estimate"].items() if k != "side"}
        cfg.update(estimator="ap_plus", weight={"form": "sampled", "x_lo": -8.0,
                                                "x_hi": 8.0, "n": 16384, "values": values})
        path = write_cfg(tmp_path, "c.json", cfg)
        sidecars = []
        for name in ("r1", "r2"):
            assert main(["weights", "estimate", "--config", path,
                         "--out", str(tmp_path / name)]) in (0, 3)
            sidecars.append((tmp_path / f"{name}.json").read_bytes())
        assert sidecars[0] == sidecars[1] and len(sidecars[0]) <= 1024
        assert json.loads(sidecars[0])["config"] == hashed_samples(cfg)


class TestCommandTable:
    def test_sweep_overrides_change_digest(self, tmp_path):
        path = write_cfg(tmp_path, "c.json", TINY["sweep", "coeffs"])
        digests = set()
        for i, flags in enumerate(([], ["--seed", "7"], ["--n", "65"], ["--window=-3,3"])):
            out = tmp_path / f"r{i}"
            assert main(["sweep", "coeffs", "--config", path, "--out", str(out), *flags]) == 0
            digests.add(json.loads((tmp_path / f"r{i}.json").read_text())["digest"])
        assert len(digests) == 4

    def test_dotted_prefix_kept(self, tmp_path):
        # every command writes PREFIX.csv and PREFIX.json, a dot in PREFIX included
        for command, cfg in TINY.items():
            if command != ("suite", "run"):
                out = tmp_path / "-".join(command) / "run.p1.5"
                assert main([*command, "--config", write_cfg(tmp_path, "c.json", cfg),
                             "--out", str(out)]) in (0, 3)
                assert sorted(p.name for p in out.parent.iterdir()) == \
                    ["run.p1.5.csv", "run.p1.5.json"]

    @pytest.mark.parametrize("argv", [["weights", "estimat"], ["sweep", "run"]])
    def test_unknown_command_exit_2(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert all(" ".join(command) in err for command in cli._COMMANDS)

    @pytest.mark.parametrize("command", list(OVERRIDES), ids="-".join)
    def test_oversized_grid_refused_up_front(self, tmp_path, capsys, command):
        # refused from the family's count and n alone; the first allocation
        # of the samples raises if it is ever reached
        path = write_cfg(tmp_path, "c.json", TINY[command])
        with mock.patch.object(experiments, "grid_nodes", side_effect=AssertionError):
            assert main([*command, "--config", path, "--out", str(tmp_path / "r"),
                         "--n", str(10 ** 18)]) == 2
        err = capsys.readouterr().err
        assert f"x {10 ** 18} samples" in err and "bytes" in err and "GiB budget" in err

    @pytest.mark.parametrize("command, change, flags, path", [row[:4] for row in MALFORMED],
                             ids=[_malformed_id(*row) for row in MALFORMED])
    def test_malformed_exit_2_with_path(self, tmp_path, capsys, command, change, flags, path):
        cfg = write_cfg(tmp_path, "c.json", dict(TINY[command], **change))
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "res"), *flags]) == 2
        assert f"config error: {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, p", [(("sweep", "coeffs"), 0), (("decay", "fit"), 0.5)],
                             ids=["sweep-p0", "decay-p0.5"])
    def test_exponent_outside_range_exit_2(self, tmp_path, capsys, command, p):
        cfg = write_cfg(tmp_path, "c.json", dict(TINY[command], p=p))
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "res")]) == 2
        assert "need p in (1, inf)" in capsys.readouterr().err

    @staticmethod
    def _results(command, path) -> list:
        got = json.loads(path.read_text())
        return ([got["slope"], got["intercept"]] if command == ("decay", "fit")
                else [row["best_ratio"] for row in got["rows"]])

    @pytest.mark.parametrize("command, change", [
        (("decay", "fit"), {"kernel": dict(KERNEL["kernel"], params=[1e300, 1e300])}),
        (("sweep", "coeffs"), {"kernel": dict(KERNEL["kernel"], params=[1e300, 1e300])})],
        ids=["decay-lambda-1e300", "sweep-kernel-1e300"])
    def test_result_not_finite_exit_3(self, tmp_path, capsys, command, change):
        # lambda and sign 1e300 overflow the kernel's taps, so the applied rows are not
        # finite: the results say so and the run exits 3, with no warning
        cfg = write_cfg(tmp_path, "c.json", dict(TINY[command], **change))
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "r")]) == 3
        assert not any(map(math.isfinite, self._results(command, tmp_path / "r.json")))
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command, change", [
        (("sweep", "coeffs"), {"p": 1e300}), (("decay", "fit"), {"p": 1e300}),
        (("decay", "fit"), {"p": 2.0 ** 40}),
        (("decay", "fit"), {"kernel": dict(KERNEL["kernel"], params=[1e300, 1.0])})],
        ids=["sweep-p-1e300", "decay-p-1e300", "decay-p-2^40", "decay-lambda-1e300"])
    def test_overflowing_power_runs_to_finite_ratios(self, tmp_path, capsys, command, change):
        # |f|^p or |T f|^p underflows or overflows, but no norm does: such a row is
        # taken again scaled by its own max, so the run exits 0 with finite results
        cfg = write_cfg(tmp_path, "c.json", dict(TINY[command], **change))
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        assert all(map(math.isfinite, self._results(command, tmp_path / "r.json")))
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("change", [{"weight": {"form": "constant", "params": [5e-324]}}],
                             ids=["weight-5e-324"])
    def test_decay_underflowing_power_names_p(self, tmp_path, capsys, change):
        # the members are nonzero, but the tiny weight underflows |f|^p w to 0 for every
        # one of them, scaled or not: the generic message, which names no field
        cfg = write_cfg(tmp_path, "c.json", dict(TINY["decay", "fit"], **change))
        assert main(["decay", "fit", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == "config error: every family member has zero norm\n"


def _leaves(obj, keys=(), label=""):
    """(keys, dotted path, value) of every scalar in a JSON value."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, keys + (k,), f"{label}.{k}" if label else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, keys + (i,), f"{label}[{i}]")
    else:
        yield keys, label, obj


def _with_leaf(cfg: dict, keys: tuple, value) -> dict:
    """A copy of ``cfg`` whose leaf at ``keys`` is ``value``."""
    cfg = copy.deepcopy(cfg)
    holder = cfg
    for k in keys[:-1]:
        holder = holder[k]
    holder[keys[-1]] = value
    return cfg


LEAVES = [(command, keys, label, value) for command, cfg in TINY.items()
          for keys, label, value in _leaves(cfg)]
WRONG_TYPES = {
    "string": st.text(max_size=3), "null": st.none(), "bool": st.booleans(),
    "list": st.lists(st.integers(-2, 2), max_size=2),
    "object": st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2)}


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    return "string" if isinstance(value, str) else "number"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_wrong_type_never_a_traceback(tmp_path, capsys, data):
    # one leaf of a valid config gets a value of another JSON type; sizes
    # never change, so no example can start an expensive run
    command, keys, label, value = data.draw(st.sampled_from(LEAVES))
    kind = data.draw(st.sampled_from([t for t in WRONG_TYPES if t != _json_type(value)]))
    path = write_cfg(tmp_path, "c.json", _with_leaf(TINY[command], keys,
                                                    data.draw(WRONG_TYPES[kind])))
    capsys.readouterr()
    assert main([*command, "--config", path, "--out", str(tmp_path / "res")]) == 2
    assert f"config error: {label}" in capsys.readouterr().err


WALK_VALUES = [math.nan, math.inf, -math.inf, 0, -1, 1e300, -1e300, 1e-300, 5e-324, 0.5,
               2 ** 40]


def _numbers(obj) -> list:
    """Every number in a JSON value."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for v in obj for x in _numbers(v)]
    return [obj] if isinstance(obj, (int, float)) else []


@pytest.mark.parametrize("command", [c for c in TINY if c != ("suite", "run")], ids="-".join)
def test_numeric_walk_exits_0_2_or_3(tmp_path, capsys, command):
    # every numeric leaf in turn takes each of WALK_VALUES.  No run raises
    # (RuntimeWarnings are errors here); exit 2 prints one diagnostic line,
    # and exit 0 writes only finite results
    failures = []
    for keys, label, value in _leaves(TINY[command]):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        for bad in WALK_VALUES:
            path = write_cfg(tmp_path, "c.json", _with_leaf(TINY[command], keys, bad))
            status = main([*command, "--config", path, "--out", str(tmp_path / "r")])
            err = capsys.readouterr().err
            if status == 2:
                ok = (err.count("\n") == 1 and err.endswith("\n")
                      and err.startswith(("config error: ", "domain error: ")))
            elif status == 0:
                results = json.loads((tmp_path / "r.json").read_text())
                del results["config"]
                values = _numbers(results)
                if command == ("operators", "apply"):
                    values += [float(v) for row in (tmp_path / "r.csv").read_text()
                               .splitlines()[1:] for v in row.split(",")[1:]]
                ok = all(map(math.isfinite, values))
            else:
                ok = status == 3
            if not ok:
                failures.append((f"{label}={bad!r}", status, err))
    assert not failures


class TestCheckedThroughTheEntryPoint:
    # what the CLI writes for these runs, read back from its CSV and sidecar

    def test_ap_both_keeps_its_bits_for_a_weight_sampled_on_the_search_grid(self, tmp_path):
        # e^x sampled on the search grid itself, realized there bit for bit
        search = {"window": [-8.0, 8.0], "n_anchor": 9, "n_h": 4, "h_min": 0.5, "n_grid": 257}
        sampled = {"form": "sampled", "x_lo": -8.0, "x_hi": 8.0, "n": 257,
                   "values": np.exp(grid_nodes(-8.0, 8.0, 257)).tolist()}
        for weight in ({"form": "exponential", "params": [1.0]}, sampled):
            cfg = {"estimator": "ap_both", "p": 1.5, "weight": weight, "search": search}
            assert main(["weights", "estimate", "--config", write_cfg(tmp_path, "c.json", cfg),
                         "--out", str(tmp_path / "r")]) == 0
            with open(tmp_path / "r.csv", newline="") as fh:
                (row,) = csv.DictReader(fh)
            assert row["constant"] == "93.21460520515609", weight["form"]

    @pytest.mark.parametrize("kind", ["m_plus", "m_minus"])
    def test_maximal_of_a_real_member_is_real_and_at_least_its_modulus(self, tmp_path, kind):
        cfg = {"operator": {"kind": kind}, "grid": SMALL_GRID,
               "input": {"family": FAMILY, "index": 2}}
        assert main(["operators", "apply", "--config", write_cfg(tmp_path, "c.json", cfg),
                     "--out", str(tmp_path / "r")]) == 0
        f = experiments.family_member(TestFunctionFamily.from_json(FAMILY), 2,
                                      *SMALL_GRID["window"], SMALL_GRID["n"])
        with open(tmp_path / "r.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(f) and all(r["im"] == "0.0" for r in rows)
        assert all(float(r["re"]) >= abs(v) for r, v in zip(rows, f))

    @pytest.mark.parametrize("command", [("sweep", "coeffs"), ("decay", "fit")], ids="-".join)
    def test_campaign_columns_and_digest_under_a_dotted_prefix(self, tmp_path, command):
        path = write_cfg(tmp_path, "c.json", TINY[command])
        prefix = tmp_path / "out" / "run.p1.5"
        assert main([*command, "--config", path, "--out", str(prefix)]) == 0
        with open(f"{prefix}.csv", newline="") as fh:
            assert next(csv.reader(fh)) == list(CSV_COLUMNS)
        digest = json.loads((tmp_path / "out" / "run.p1.5.json").read_text())["digest"]
        assert digest == config_digest(TINY[command])


class TestNaNInAFloatList:
    @pytest.mark.parametrize("values, where", [
        ([1.0, math.nan], "g.values[1]"), ([math.nan] + [1.0] * 16383, "g.values[0]"),
        ([1, 2.5, 3, math.nan], "g.values[3]")], ids=["second", "first-of-16384", "ints"])
    def test_refused_at_its_index(self, values, where):
        with pytest.raises(ConfigError, match=rf"^{re.escape(where)}: expected float, got nan$"):
            read({"values": values}, "values", [float], path="g")

    def test_infinities_pass_the_reader(self):
        # their sum is NaN too, so the list takes the element path, which keeps them
        assert read({"v": [math.inf, -math.inf, 1]}, "v", [float]) == [math.inf, -math.inf, 1.0]

    @pytest.mark.parametrize("command, change, where", [
        (("weights", "estimate"), {"weight": dict(TINY["weights", "estimate"]["weight"], values=[
            1.0, 0.1, 1e-8, math.nan, 1.0 / 3.0, 7.0, 1e300, 5e-324, 0.5])}, "weight.values[3]"),
        (("sweep", "coeffs"), {"coeffs": [1.0, math.nan]}, "coeffs[1]"),
        (("operators", "cancel-sup"), {"eps_grid": [1e-3, math.nan]}, "eps_grid[1]"),
        (("decay", "fit"), {"phase": {"coeffs": [[1, 1, math.nan]]}}, "phase.coeffs[0][2]")],
        ids=["sample", "coefficient", "radius", "phase"])
    def test_cli_names_the_index(self, tmp_path, capsys, command, change, where):
        cfg = write_cfg(tmp_path, "c.json", dict(TINY[command], **change))
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"config error: {where}: expected float, got nan\n"


class TestInterpVerifyZeroMultiplier:
    @pytest.mark.parametrize("hi", [1e300, 2.0 ** 40], ids=["1e300", "2^40"])
    def test_member_without_a_nonzero_sample_names_the_window(self, tmp_path, capsys, hi):
        # 129 nodes this far apart all miss the family's support [-2, 2]
        cfg = copy.deepcopy(TINY["interp", "verify"])
        cfg["g"]["grid"]["window"] = [-4.0, hi]
        assert main(["interp", "verify", "--config", write_cfg(tmp_path, "c.json", cfg),
                     "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (f"config error: g.grid.window: every sample of the "
                                           f"member on {[-4.0, hi]} at n = 129 is 0\n")
        assert not (tmp_path / "r.json").exists()

    def test_zero_values_named(self, tmp_path, capsys):
        cfg = {"endpoints": ENDPOINTS, "g": {"values": [0.0, 0, -0.0],
                                             "grid": {"window": [-4.0, 4.0]}}}
        assert main(["interp", "verify", "--config", write_cfg(tmp_path, "c.json", cfg),
                     "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == "config error: g.values: every sample is 0\n"


KERNEL_PLUS = ('{"params": [1.0, 1.0], "side": "plus", "size_const": 1.0, "smooth_const": 2.0, '
               '"tag": "oscillating-log"}')
KERNEL_TRUNCATED = ('{"params": [1.0, 2.5, 1.0, 1.0], "side": "minus", "size_const": 1.0, '
                    '"smooth_const": 26.666666666666668, "tag": "truncated-power"}')
SEARCH_TEXT = ('{"ceiling": 1000000.0, "gamma": 0.25, "h_max": 8.0, "h_min": 0.5, "n_anchor": 9, '
               '"n_grid": 257, "n_h": 4, "window": [-8.0, 8.0]}')
PHASE = PolynomialPhase((((1, 1), 2.0), ((2, 1), -0.5)))
PHASE_TEXT = '"phase": {"coeffs": [[1, 1, 2.0], [2, 1, -0.5]]}'
OPERATORS = [
    (OperatorSpec("identity"), '{"kind": "identity", "pv": {"eps_cells": 1}}'),
    (OperatorSpec("m_plus"), '{"kind": "m_plus", "pv": {"eps_cells": 1}}'),
    (OperatorSpec("m_minus"), '{"kind": "m_minus", "pv": {"eps_cells": 1}}'),
    (OperatorSpec("singular", oscillating_log_kernel("plus")),
     f'{{"kernel": {KERNEL_PLUS}, "kind": "singular", "pv": {{"eps_cells": 1}}}}'),
    (OperatorSpec("singular", truncated_power_kernel("minus", 1.0, 2.5), pv=PVConfig(2)),
     f'{{"kernel": {KERNEL_TRUNCATED}, "kind": "singular", "pv": {{"eps_cells": 2}}}}'),
    (OperatorSpec("oscillatory", oscillating_log_kernel("plus")),
     f'{{"kernel": {KERNEL_PLUS}, "kind": "oscillatory", "pv": {{"eps_cells": 1}}}}'),
    (OperatorSpec("oscillatory", oscillating_log_kernel("plus"), PHASE),
     f'{{"kernel": {KERNEL_PLUS}, "kind": "oscillatory", {PHASE_TEXT}, "pv": {{"eps_cells": 1}}}}'),
    (OperatorSpec("dyadic_piece", oscillating_log_kernel("plus"), j=0),
     f'{{"j": 0, "kernel": {KERNEL_PLUS}, "kind": "dyadic_piece", "pv": {{"eps_cells": 1}}}}'),
    (OperatorSpec("dyadic_piece", truncated_power_kernel("minus", 1.0, 2.5), PHASE,
                  PVConfig(3), 4),
     f'{{"j": 4, "kernel": {KERNEL_TRUNCATED}, "kind": "dyadic_piece", {PHASE_TEXT}, '
     f'"pv": {{"eps_cells": 3}}}}'),
]


def sorted_text(obj) -> str:
    """The sorted-keys JSON text that sidecars write and digests hash."""
    return json.dumps(obj, sort_keys=True)


def through_text(obj):
    """``obj`` as it reads back from its JSON text: tuples come back as lists."""
    return json.loads(sorted_text(obj))


class TestRecordedJson:
    # the JSON text of each config object and report, as the sidecars and
    # digests hold it; a change here changes every recorded digest

    @pytest.mark.parametrize("kernel, text", [
        (oscillating_log_kernel("plus"), KERNEL_PLUS),
        (truncated_power_kernel("minus", 1.0, 2.5), KERNEL_TRUNCATED)],
        ids=["oscillating-log", "truncated-power"])
    def test_kernel(self, kernel, text):
        assert sorted_text(asdict(kernel)) == text

    def test_kernel_constants_default_to_the_oscillating_log_kernels(self):
        kernel = KernelSpec.from_json({"tag": "oscillating-log", "side": "plus",
                                       "params": [1.0, 1.0]})
        assert kernel == KernelSpec("oscillating-log", "plus", (1.0, 1.0))
        assert sorted_text(asdict(kernel)) == KERNEL_PLUS

    def test_search_with_h_max_left_at_0(self):
        search = TripleSearchConfig((-8, 8), n_anchor=9, n_h=4, h_min=0.5, n_grid=257)
        assert sorted_text(asdict(search)) == SEARCH_TEXT
        assert TripleSearchConfig.from_json(through_text(asdict(search))) == search

    def test_family(self):
        family = TestFunctionFamily("random-bump-sums", 6, 20240901, (-2, 2))
        assert sorted_text(asdict(family)) == ('{"count": 6, "kind": "random-bump-sums", '
                                               '"seed": 20240901, "support": [-2.0, 2.0]}')

    @pytest.mark.parametrize("witness, constant, flag, text", [
        ({"a": -0.5, "h": 0.25}, 1.5, True,
         '{"constant": 1.5, "finite_flag": true, "resolution": %s, '
         '"witness": {"a": -0.5, "h": 0.25}}'),
        (None, math.inf, False,
         '{"constant": Infinity, "finite_flag": false, "resolution": %s, "witness": null}')],
        ids=["witness", "no-witness"])
    def test_report(self, witness, constant, flag, text):
        search = TripleSearchConfig((-8, 8), n_anchor=9, n_h=4, h_min=0.5, n_grid=257)
        report = weights.ConstantReport(constant, witness, search, flag)
        assert sorted_text(asdict(report)) == text % SEARCH_TEXT

    @pytest.mark.parametrize("result, status, text", [
        (weights.BumpSearchResult(0.125, True, 3.5), 0,
         '"constant_at_epsilon": 3.5, "digest": "6d52049d41db55d9", "epsilon": 0.125, '
         '"found": true}'),
        (weights.BumpSearchResult(0.0, False, math.inf), 3,
         '"constant_at_epsilon": Infinity, "digest": "6d52049d41db55d9", "epsilon": 0.0, '
         '"found": false}')], ids=["found", "not-found"])
    def test_bump_sidecar(self, tmp_path, result, status, text):
        cfg = {"weight": {"form": "power", "params": [0.5]}, "p": 2.0, "ceiling": 100.0,
               "search": {"window": [-8.0, 8.0], "n_anchor": 9, "n_h": 4, "h_min": 0.5,
                          "n_grid": 257}}
        with mock.patch.object(cli, "power_bump_search", return_value=result):
            assert main(["weights", "bump", "--config", write_cfg(tmp_path, "c.json", cfg),
                         "--out", str(tmp_path / "r")]) == status
        assert (tmp_path / "r.json").read_text() == (
            '{"config": {"ceiling": 100.0, "p": 2.0, "search": {"h_min": 0.5, "n_anchor": 9, '
            '"n_grid": 257, "n_h": 4, "window": [-8.0, 8.0]}, "weight": {"form": "power", '
            '"params": [0.5]}}, ' + text + "\n")

    @pytest.mark.parametrize("op, text", OPERATORS, ids=[
        "identity", "m_plus", "m_minus", "singular", "singular-pv", "oscillatory",
        "oscillatory-phase", "dyadic-j", "dyadic-phase-pv-j"])
    def test_operator(self, op, text):
        assert sorted_text(op.to_json()) == text
        assert cli._operator(through_text(op.to_json()), "operator") == op

    def test_norm_ratio_digest(self):
        family = TestFunctionFamily("random-bump-sums", 6, 20240901, (-2, 2))
        rep = experiments.norm_ratio(OPERATORS[6][0], weights.WeightSpec.power(0.5), 2.0,
                                     family, (-4.0, 4.0), 65)
        assert rep.config_digest == "84bc64e70bde470a"
        assert rep.config_digest == config_digest(
            {"op": json.loads(OPERATORS[6][1]), "w": {"form": "power", "params": [0.5]},
             "p": 2.0, "family": through_text(asdict(family)), "window": [-4.0, 4.0], "n": 65})
