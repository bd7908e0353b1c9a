"""The package exports exactly the names its modules declare public, and its values cannot be changed."""

import dataclasses

import pytest

import structctrl
from structctrl import bigraph, decision, errors, oracle, patterns, reduction, statespace


def test_package_all_joins_module_lists():
    joined = [name for mod in (patterns, bigraph, reduction, decision, statespace, oracle, errors) for name in mod.__all__]
    assert structctrl.__all__ == joined
    assert len(joined) == len(set(joined))
    for mod in (patterns, bigraph, reduction, decision, statespace, oracle, errors):
        for name in mod.__all__:
            assert getattr(structctrl, name) is getattr(mod, name), name


def _public_values():
    """One value of each public type, built through the public entry points."""
    pattern = structctrl.PolyPattern(2, 3, {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 0, (1, 2): 0})
    ss = structctrl.StateSpacePattern(2, 1, frozenset({(0, 1)}), frozenset({(1, 0)}))
    g = structctrl.build_graph(pattern)
    rg = structctrl.remove_redundant_edges(g)
    report = structctrl.analyze(structctrl.PolyPattern(2, 2, {(0, 0): 1, (1, 1): 0}))
    return [
        pattern,
        ss,
        g,
        rg,
        structctrl.connected_components(rg)[0],
        report.witness,
        report,
        structctrl.analyze_statespace(ss),
        structctrl.instantiate(pattern, 0),
    ]


@pytest.mark.parametrize("value", _public_values(), ids=lambda v: type(v).__name__)
def test_public_values_are_immutable(value):
    names = [f.name for f in dataclasses.fields(value)] if dataclasses.is_dataclass(value) else list(value._fields)
    for name in [*names, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    if isinstance(value, structctrl.PolyPattern):
        with pytest.raises(TypeError):
            value.entries[(0, 2)] = 1
