import json

from onesided.cli import main


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
        for i, cfg in enumerate([
                {"estimator": "ap_both", "p": 2.0,
                 "weight": {"form": "exponential", "params": [1.0]},
                 "search": dict(SEARCH, h_max=15.9, ceiling=1e3)},
                {"estimator": "gamma_fourpoint", "p": 3.0,
                 "weight": {"form": "power", "params": [-350.0]},
                 "search": SEARCH}]):
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
