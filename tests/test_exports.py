import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import onesided
from onesided import experiments, operators, weights

MODULES = ["onesided"] + [f"onesided.{m.name}" for m in pkgutil.iter_modules(onesided.__path__)]


def exported(mod) -> list:
    """The names a module promises: its ``__all__``, and for the package
    every name its ``from .module import ...`` lines bring in."""
    if mod is onesided:
        tree = ast.parse(Path(mod.__file__).read_text())
        return [a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for a in node.names]
    return list(getattr(mod, "__all__", ()))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    # a stale entry breaks only ``from module import *``, which nothing else runs
    mod = importlib.import_module(name)
    assert [n for n in exported(mod) if not hasattr(mod, n)] == []


def params(fn) -> list:
    return list(inspect.signature(fn).parameters)


def test_traced_signatures():
    # the benchmark's tracer reads these arguments by position, so a
    # reordered signature would blank its per-layer counts without an error
    assert params(operators.oscillatory_apply_batch) == [
        "F", "x_lo", "x_hi", "kernel", "phase", "pv", "band_cells"]
    estimators = [n for n in weights.__all__ if n.endswith("_constant")]
    assert len(estimators) == 8
    for name in estimators:
        assert params(getattr(weights, name))[-1] == "cfg", name
    assert params(operators.forward_extremal_averages)[0] == "values"
    assert params(experiments.generate_family)[0] == "family"
    assert params(weights.WeightSpec.realize) == ["self", "x_lo", "x_hi", "n"]


def test_perfbench_call_shapes():
    # the benchmark builds its norm_ratio calls outside the tracer, from one config
    # object per argument and the operator's kind alone
    w = weights.WeightSpec.from_json({"form": "exponential", "params": [1.0]})
    family = experiments.TestFunctionFamily.from_json(
        {"kind": "random-bump-sums", "count": 2, "seed": 1, "support": [-1.0, 1.0]})
    assert (w.form, family.count) == ("exponential", 2)
    assert [f.name for f in dataclasses.fields(experiments.OperatorSpec)][0] == "kind"
    assert experiments.OperatorSpec("m_plus").kind == "m_plus"
    assert params(experiments.norm_ratio) == ["op", "w", "p", "family", "window", "n"]
