"""The public surface: a refactor may not drop or rename a name silently."""

import dataclasses

import pytest

import thetadiag
from thetadiag import Characteristic

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
