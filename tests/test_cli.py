import copy
import json
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from onesided import cli, experiments, weights
from onesided.cli import main
from onesided.experiments import config_digest


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
     "kernel"),
    (("operators", "cancel-sup"), {"kernel": dict(KERNEL["kernel"], params=[1.0, math.nan])},
     [], "kernel"),
    (("sweep", "coeffs"), {"coeffs": [math.nan]}, [], "coeffs"),
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
]


def _malformed_id(command, change, flags, path, name=None) -> str:
    return name or (f"{change['estimator']}-{path}" if "estimator" in change else path)


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
        assert payload["config"] == used
        assert payload["digest"] == config_digest(used)

    @pytest.mark.parametrize("command, field, value", [
        ("estimate", "weight", {"form": "sampled", "x_lo": 0.0, "x_hi": 1.0,
                                "n": 3, "values": ["a", 1, 1]}),
        ("estimate", "p", "2"),
        ("estimate", "variant", "x"),
        ("bump", "ceiling", "abc")])
    def test_bad_field_exit_2_with_path(self, tmp_path, capsys, command, field, value):
        cfg = {"estimator": "rh_plus", "weight": {"form": "constant", "params": [1.0]},
               "search": SEARCH, "ceiling": 100.0}
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
        F = experiments.generate_family(experiments.TestFunctionFamily.from_json(FAMILY),
                                        -4.0, 4.0, 257)
        with mock.patch.object(experiments, "generate_family", side_effect=AssertionError):
            assert cli._member(cfg["input"], "input", (-4.0, 4.0), 257).tobytes() == \
                F[4].tobytes()
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
        assert f"{field}:" in capsys.readouterr().err
        assert not (tmp_path / "res.json").exists()


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
        expected = two_encode_sidecar(TINY[command], returned[0]) + "\n"
        assert (tmp_path / "r.json").read_bytes() == expected.encode()
        assert b"Infinity" in expected.encode()

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=5),
           st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=5))
    def test_any_json_equals_two_encode_form(self, cfg, results):
        assert cli._sidecar(cfg, results) == two_encode_sidecar(cfg, results)


class TestCommandTable:
    def test_sweep_overrides_change_digest(self, tmp_path):
        path = write_cfg(tmp_path, "c.json", TINY["sweep", "coeffs"])
        digests = set()
        for i, flags in enumerate(([], ["--seed", "7"], ["--n", "65"], ["--window=-3,3"])):
            out = tmp_path / f"r{i}"
            assert main(["sweep", "coeffs", "--config", path, "--out", str(out), *flags]) == 0
            digests.add(json.loads((tmp_path / f"r{i}.json").read_text())["digest"])
        assert len(digests) == 4

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
    cfg = copy.deepcopy(TINY[command])
    holder = cfg
    for k in keys[:-1]:
        holder = holder[k]
    holder[keys[-1]] = data.draw(WRONG_TYPES[kind])
    path = write_cfg(tmp_path, "c.json", cfg)
    capsys.readouterr()
    assert main([*command, "--config", path, "--out", str(tmp_path / "res")]) == 2
    assert f"config error: {label}" in capsys.readouterr().err
