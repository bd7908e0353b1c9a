"""The package exports exactly the names its modules declare public, and its values cannot be changed."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import structctrl
from structctrl import bigraph, decision, errors, oracle, patterns, reduction, statespace


# Each module's __all__, in order. A new entry is a new public name: it lands
# only with an edit here and a line in CHANGES.md saying why.
PUBLIC_API = {
    "patterns": ["PolyPattern", "StateSpacePattern", "parse_pattern", "parse_statespace", "emit_pattern", "emit_statespace"],
    "bigraph": ["build_graph", "term_rank"],
    "reduction": ["ReducedGraph", "Component", "remove_redundant_edges", "connected_components"],
    "decision": [
        "CONTROLLABLE",
        "UNCONTROLLABLE",
        "Witness",
        "AnalysisReport",
        "analyze",
        "analyze_reduction",
    ],
    "statespace": [
        "StateSpaceReport",
        "controllability_pencil",
        "analyze_statespace",
        "controller_canonical",
        "gilbert_form",
        "siso_interconnection",
    ],
    "oracle": [
        "ExactMatrix",
        "instantiate",
        "minor_gcd",
        "zero_set_empty",
        "zero_set_gcd_degrees",
        "kalman_controllable",
        "kalman_deficiencies",
    ],
    "errors": ["PatternFormatError", "GuardLimitError", "ZeroTermRankError"],
}


def test_public_api_is_pinned():
    modules = (patterns, bigraph, reduction, decision, statespace, oracle, errors)
    assert {mod.__name__.removeprefix("structctrl."): mod.__all__ for mod in modules} == PUBLIC_API
    assert len(structctrl.__all__) == 34


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


def _values_from_lists():
    """Values whose constructors are given lists, which they must not keep."""
    return [
        structctrl.PolyPattern(2, 3, [[0, 0, 1], [1, 2, 0]]),
        structctrl.StateSpacePattern(2, 1, [(0, 1)], [(1, 0)]),
        structctrl.ExactMatrix(1, 2, [[0, 0, [1, 2]], [0, 1, [3]]]),
    ]


@pytest.mark.parametrize(
    "value",
    [pytest.param(v, id=type(v).__name__) for v in _public_values()]
    + [pytest.param(v, id=f"{type(v).__name__}-from-lists") for v in _values_from_lists()],
)
def test_public_values_are_immutable(value):
    for name in [*value._fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    if isinstance(value, structctrl.PolyPattern):
        with pytest.raises(TypeError):
            value.entries[(0, 2)] = 1
    hash(value)  # raises TypeError if any field, however deep, holds a mutable value


def test_quiet_verdict_loads_no_module_it_does_not_use():
    """A quiet verdict, the call a shell pipeline makes once per file, imports none of these: each adds to every cold start.

    ``-S`` leaves out the site module, and with it whatever ``.pth`` files import at start-up.
    """
    root = Path(__file__).resolve().parent.parent
    script = (
        "import sys; sys.path.insert(0, 'src'); from structctrl import cli; "
        "code = cli.main(['analyze', 'fixtures/wide_2x3.txt', '--quiet']); "
        "print(code, [m for m in ('dataclasses', 'inspect', 'json', 'pathlib') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], cwd=root, capture_output=True, text=True, timeout=60)
    assert (proc.stdout, proc.stderr) == ("structurally controllable\n0 []\n", "")


def test_readme_library_section(monkeypatch):
    """The code block under README "Library" runs from the repo root, and every name its "Key entry points" sentence gives is public."""
    root = Path(__file__).resolve().parent.parent
    section = (root / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(root)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].verdict == structctrl.CONTROLLABLE
    sentence = re.search(r"Key entry points:(.*?)\.\s", section, re.DOTALL).group(1)
    names = [name for name in re.findall(r"`([^`]+)`", sentence) if name.isidentifier()]
    assert "analyze" in names and "kalman_deficiencies" in names
    assert [name for name in names if name not in structctrl.__all__] == []
