"""The functions perfbench's traced run wraps still exist in rankreg.

``perfbench/spans.py`` patches each (module, attribute) of its ``TARGETS``
and reports a name it cannot find as "not found" instead of failing, so a
renamed function would silently zero its per-layer metric.  The table is
read as source, not imported.
"""

import ast
import importlib
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")
# deleted when the bootstrap became stacked replicates, and the kernel-sum
# gather when its one caller took the per-run table; their spans read 0
KNOWN_MISSING = {("bootstrap", "replicate_statistic"), ("bootstrap", "_resample"),
                 ("kernels", "comparison_weighted_sums")}


def _targets():
    with open(SPANS, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [(module, attribute) for _, module, attribute in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/spans.py defines no TARGETS table")


@pytest.mark.parametrize("module, attribute", [
    t for t in _targets() if t not in KNOWN_MISSING])
def test_traced_name_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(f"rankreg.{module}"), attribute, None))

