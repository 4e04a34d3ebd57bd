"""The benchmark's traced names still resolve in oplab.

``perfbench/spans.py`` wraps each (layer, attribute) of its ``TARGETS``
by name, so a rename in ``src/`` would drop that span from every
``--trace 1`` run without an error.  This check keeps the two in step.
A caller that reaches the estimators without going through the traced
name would also drop the span, so the index callers are counted through
a wrapper installed the same way.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import oplab.index
from oplab.geometry import Explicit
from oplab.homotopy import CertifyConfig, certify_path, conjugation_path, log_path
from oplab.index import IndexConfig, cut_interface, index_k_projection, projection_index
from oplab.operators import Operator, Projection, shift_operator
from oplab.windows import TruncationWindow

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


@pytest.fixture
def index_calls(monkeypatch):
    """The method of every fredholm_index call, with the function rebound
    wherever an oplab module holds it, as the tracer rebinds it."""
    original = oplab.index.fredholm_index
    methods = []

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        methods.append(result.method)
        return result

    for key, module in list(sys.modules.items()):
        if module is not None and (key == "oplab" or key.startswith("oplab.")):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
    return methods


def test_index_trace_calls_the_traced_estimator_per_sample(index_calls):
    window = TruncationWindow.line(32)
    q = Projection.from_region(Explicit(frozenset(x for x in window.sites if x >= 1)), window)
    mover = np.eye(window.dimension, dtype=np.complex128)
    i, j = window.index_of(10), window.index_of(11)
    c, s = np.cos(0.7), np.sin(0.7)
    mover[i, i], mover[i, j], mover[j, i], mover[j, j] = c, -s, s, c
    path = conjugation_path(q, log_path(Operator(window, mover)).reverse())
    config = CertifyConfig(
        samples=5,
        index_base=shift_operator(window, 1),
        index_config=IndexConfig(cut_sites=cut_interface(q)),
    )
    assert certify_path(path, config).index_trace == (-1,) * 5
    assert index_calls == ["kernel_count"] * 5


def test_projection_index_calls_the_traced_estimator_once(index_calls):
    base, p = index_k_projection(1, TruncationWindow.line(16))
    assert projection_index(p, base).value == 1
    assert index_calls == ["kernel_count"]
