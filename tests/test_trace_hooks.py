"""The benchmark's trace hooks still fit the program.

perfbench/spans.py wraps layer functions by the names in ``SPANNED``; if one
is renamed or deleted, ``perfbench/run.py --trace 1`` fails.  This installs
the hooks in-process, runs one op of each traced command on the fixtures,
and checks the spans, the per-layer metrics and the restore.
"""

import contextlib
import importlib
import io
from pathlib import Path

import structctrl.cli as cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

OPS = (
    ["analyze", str(FIXTURES / "wide_2x3.txt")],
    ["statespace", str(FIXTURES / "ss_chain.txt")],
    ["oracle", str(FIXTURES / "wide_2x3.txt")],
)


def test_spanned_layers_are_traced_and_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    modules = [importlib.import_module(f"structctrl.{m}") for m in spans.MODULES]
    before = [dict(vars(mod)) for mod in modules]
    original_main = cli.main

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main is not original_main
        out = io.StringIO()
        for op, argv in enumerate(OPS):
            tracer.op = op
            with contextlib.redirect_stdout(out):
                assert cli.main(argv + ["--json"]) == 0
            tracer.end_op(len(out.getvalue()))
    finally:
        tracer.remove()

    traced = {span[1] for span in tracer.spans}
    spanned = {f"{owner}.{name}" for owner, names in spans.SPANNED.items() for name in names}
    assert spanned | {"cli.main"} == traced
    metrics = spans.layer_metrics(tracer, len(OPS), 0.0)
    assert [name for name, _ in spans.PER_LAYER] == list(metrics)
    assert metrics["oracle.seeds_tried"]["value"] > 0 and metrics["reduction.components"]["value"] > 0

    for mod, attrs in zip(modules, before):
        assert all(vars(mod)[attr] is value for attr, value in attrs.items()), mod.__name__
