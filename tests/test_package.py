"""The package exports exactly the names its modules declare public."""

import structctrl
from structctrl import bigraph, decision, errors, oracle, patterns, reduction, statespace


def test_package_all_joins_module_lists():
    joined = [name for mod in (patterns, bigraph, reduction, decision, statespace, oracle, errors) for name in mod.__all__]
    assert structctrl.__all__ == joined
    assert len(joined) == len(set(joined))
    for mod in (patterns, bigraph, reduction, decision, statespace, oracle, errors):
        for name in mod.__all__:
            assert getattr(structctrl, name) is getattr(mod, name), name
