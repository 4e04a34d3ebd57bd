"""The benchmark's traced names still resolve in oplab.

``perfbench/spans.py`` wraps each (layer, attribute) of its ``TARGETS``
by name, so a rename in ``src/`` would drop that span from every
``--trace 1`` run without an error.  This check keeps the two in step.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_targets() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("layer,attr", traced_targets())
def test_traced_name_resolves(layer, attr):
    module = importlib.import_module(f"oplab.{layer}")
    if "." in attr:  # a class member, rebound on the class itself
        cls_name, member = attr.split(".")
        assert member in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr, None))
