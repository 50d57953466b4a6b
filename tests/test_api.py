"""The public surface: a refactor may not drop or rename a name silently."""

import ast
import dataclasses
import importlib
import inspect
import json
from pathlib import Path
from types import FunctionType

import numpy as np
import pytest

import thetadiag
from thetadiag import Characteristic, expand, loci, theta
from thetadiag.theta import PeriodMatrix

LAYERS = ("chars", "symp", "theta", "expand", "loci")

EXPORTS = [
    "EVEN",
    "ODD",
    "Characteristic",
    "enumerate_characteristics",
    "even_count",
    "is_azygetic_triple",
    "is_even",
    "odd_count",
    "parity",
    "scalar_class",
    "special_fundamental_system",
    "BracketPolynomial",
    "SlopeReport",
    "bracket",
    "fit_slope",
    "grad_leading",
    "hessian_minor",
    "theta_leading",
    "vanishing_order",
    "SpMod2Element",
    "act",
    "group_generators",
    "orbit",
    "verify_transitivity",
    "PeriodMatrix",
    "eval_theta",
    "gradient",
    "hessian",
    "tau_gradient",
    "__version__",
]


def test_all_is_pinned():
    assert thetadiag.__all__ == EXPORTS
    for name in EXPORTS:
        assert hasattr(thetadiag, name), name


def test_characteristic_surface():
    m = Characteristic((1, 0), (0, 1))
    assert Characteristic(eps=(1, 0), delta=(0, 1)) == m
    assert (m.eps, m.delta, m.g) == ((1, 0), (0, 1), 2)
    assert m.compact() == str(m) == "[10;01]"
    assert Characteristic.parse("[10;01]") == m
    assert Characteristic.zero(2) == Characteristic.parse("[00;00]")
    assert m.column(1) == Characteristic((1,), (0,))
    assert m + m == Characteristic.zero(2)


def test_characteristic_is_frozen():
    m = Characteristic((1, 0), (0, 1))
    assert dataclasses.is_dataclass(m)
    for name, value in (("g", 3), ("mask", 0), ("eps", (0, 0)), ("delta", (0, 0))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, name, value)
    with pytest.raises(AttributeError):  # slots: no per-instance dict
        m.extra = 1
    assert m == Characteristic((1, 0), (0, 1))


def public_callables():
    """("layer.function" or "layer.Class.method", function) for every public
    function and method (constructors included) of the layer modules."""
    for layer in LAYERS:
        module = importlib.import_module("thetadiag." + layer)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                members = [("%s.%s" % (name, attr), getattr(obj, attr))
                           for attr, raw in vars(obj).items()
                           if (attr == "__init__" or not attr.startswith("_"))
                           and isinstance(raw, (staticmethod, classmethod, FunctionType))]
            elif callable(obj):
                members = [(name, obj)]
            else:
                continue
            for qualname, fn in members:
                yield "%s.%s" % (layer, qualname), fn


def defaulted_parameters():
    """{"module.function" or "module.Class.method": [defaulted parameters]}
    over public_callables(); tests/data/api_defaults.json is its JSON dump."""
    return {name: [p.name for p in inspect.signature(fn).parameters.values()
                   if p.default is not inspect.Parameter.empty]
            for name, fn in public_callables()}


def test_defaulted_parameters_are_pinned():
    # every threshold is a module constant, not a parameter a caller can loosen
    snapshot = Path(__file__).with_name("data") / "api_defaults.json"
    assert defaulted_parameters() == json.loads(snapshot.read_text())


# public names that nothing in the package calls, each kept for a reason
UNCALLED = {
    "expand.BracketPolynomial.min_degree":
        "the tests of the expansions' leading degrees read it; ROADMAP item 11 builds on it",
    "expand.hessian_minor": "ROADMAP item 11 gives it a caller in a check",
    "theta.PeriodMatrix.to_json": "it writes the --tau file format that from_json reads",
}


def referenced_names():
    """Every name the package's modules read, as a variable or an attribute:
    definitions, docstrings, imports and the re-exports of __init__.py do
    not count."""
    names = set()
    for path in Path(thetadiag.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_function_has_a_caller():
    referenced = referenced_names()
    uncalled = {name for name, _ in public_callables()
                if not name.endswith(".__init__") and name.split(".")[-1] not in referenced}
    assert uncalled == set(UNCALLED)
    assert len(UNCALLED) <= 3 and all(UNCALLED.values())


def test_thresholds_are_read_when_called(monkeypatch):
    rng = np.random.default_rng(0)
    t = theta.sample_generic_diagonal(4, 3, rng)
    diag = PeriodMatrix.diagonal(t)
    assert loci.is_diagonal_orbit(diag).verdict
    assert loci.gradient_locus_check(4, t, np.random.default_rng(1)).passed
    assert loci.tridiagonal_tangent_check(4, t).passed
    ladder = expand.default_ladder()
    steeper = [e**2.1 for e in ladder]
    assert expand.fit_slope(ladder, steeper, 2).passed
    # a vanishing threshold of 0 vanishes nothing
    monkeypatch.setattr(loci, "DEFAULT_VANISH_TOL", 0.0)
    assert not loci.is_diagonal_orbit(diag).verdict
    # no measured coefficient is exact
    monkeypatch.setattr(loci, "COEFF_REL_TOL", 0.0)
    assert not loci.gradient_locus_check(4, t, np.random.default_rng(1)).passed
    # a relative rank threshold of 1 counts no singular value
    monkeypatch.setattr(theta, "RANK_REL_TOL", 1.0)
    assert not loci.tridiagonal_tangent_check(4, t).passed
    monkeypatch.setattr(expand, "DEFAULT_SLOPE_TOL", 0.05)
    assert not expand.fit_slope(ladder, steeper, 2).passed
