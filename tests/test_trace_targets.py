"""The benchmark's traced names still resolve in oplab.

``perfbench/spans.py`` wraps each (layer, attribute) of its ``TARGETS``
by name, so a rename in ``src/`` would drop that span from every
``--trace 1`` run without an error.  This check keeps the two in step.
A caller that reaches the estimators without going through the traced
name would also drop the span, so the index callers are counted through
a wrapper installed the same way.  Small traced runs of two workloads
must pass the checks a ``--trace 1`` run adds: counts that repeat from
the cold operation on, and self times that add up to each operation.
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

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_bench(name: str):
    """A perfbench module, loaded from its file under a name of its own:
    the benchmark's files are only read."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_targets() -> tuple:
    return load_bench("spans").TARGETS


@pytest.mark.parametrize("layer,attr", traced_targets())
def test_traced_name_resolves(layer, attr):
    module = importlib.import_module(f"oplab.{layer}")
    if "." in attr:  # a class member, rebound on the class itself
        cls_name, member = attr.split(".")
        assert member in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr, None))


def rebind(monkeypatch, original, wrapper) -> None:
    """Rebind ``original`` to ``wrapper`` wherever an oplab module holds
    it, as the tracer rebinds a traced function."""
    for key, module in list(sys.modules.items()):
        if module is not None and (key == "oplab" or key.startswith("oplab.")):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, wrapper)


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

    rebind(monkeypatch, original, counted)
    return methods


@pytest.fixture
def mask_calls(monkeypatch):
    """The name of every call to the index's window-mask helpers, rebound
    as ``index_calls`` rebinds the estimator."""
    names = []
    for original in (oplab.index.interior_mask, oplab.index._cut_neighborhood_mask):

        def counted(*args, original=original, **kwargs):
            names.append(original.__name__)
            return original(*args, **kwargs)

        rebind(monkeypatch, original, counted)
    return names


def half_line_path(radius: int):
    """The half-line projection Q conjugated along the reversed log path
    of a rotation of sites 10 and 11, and Q."""
    window = TruncationWindow.line(radius)
    q = Projection.from_region(Explicit(frozenset(x for x in window.sites if x >= 1)), window)
    mover = np.eye(window.dimension, dtype=np.complex128)
    i, j = window.index_of(10), window.index_of(11)
    c, s = np.cos(0.7), np.sin(0.7)
    mover[i, i], mover[i, j], mover[j, i], mover[j, j] = c, -s, s, c
    return conjugation_path(q, log_path(Operator(window, mover)).reverse()), q


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


def test_window_masks_are_computed_once_per_path_and_per_call(index_calls, mask_calls):
    """The index masks depend only on the window and the config: an index
    trace computes them once for all its samples, and projection_index
    once for its base check and its estimators."""
    path, q = half_line_path(32)
    window = path.window
    config = CertifyConfig(
        samples=5,
        index_base=shift_operator(window, 1),
        index_config=IndexConfig(cut_sites=cut_interface(q)),
    )
    assert certify_path(path, config).index_trace == (-1,) * 5
    assert index_calls == ["kernel_count"] * 5
    assert sorted(mask_calls) == ["_cut_neighborhood_mask", "interior_mask"]
    mask_calls.clear()
    base, p = index_k_projection(1, TruncationWindow.line(16))
    assert projection_index(p, base).value == 1
    assert sorted(mask_calls) == ["_cut_neighborhood_mask", "interior_mask"]


# the two workloads whose operations run the changed paths, made small
SMALL = {"index-trace": {"radius": 32, "samples": 5}, "pipeline": {"radius": 6}}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_operations_pass_the_trace_checks(name, tmp_path):
    """Three traced operations of a small workload, run as the benchmark's
    worker runs them, pass what a ``--trace 1`` run checks: the outputs
    pass the workload's check with one digest, every count repeats from
    the cold operation on (state kept from one operation to the next
    would change a warm operation's calls), and each operation's self
    times add up to its traced wall time."""
    spans, workloads = load_bench("spans"), load_bench("workloads")
    tolerance = load_bench("worker").SELF_SUM_TOLERANCE_S
    full = workloads.WORKLOADS[name]
    small = type(full.__name__, (full,), {"config": {**full.config, **SMALL[name]}})
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.operation("setup"):
            workload = small(1, tmp_path)
        metrics, digests = [], set()
        for k in range(3):
            with tracer.operation(k):
                result = workload.run(k)
            assert workload.check(k, result) == []
            digests.add(workload.digest(result))
            ops = tracer.operation_spans(k)
            gap = abs(sum(spans.self_times(ops)) - ops[0].duration)
            assert gap <= tolerance
            metrics.append(spans.layer_metrics(ops, workload.manifest(result)))
    finally:
        tracer.restore()
    assert len(digests) == 1
    counts = [n for n, unit in spans.METRICS.items() if unit in spans.COUNT_UNITS]
    for metric in counts:
        if metric in metrics[0]:
            assert len({m[metric] for m in metrics}) == 1, metric
    assert metrics[0]["index.fredholm_index.calls"] == (5 if name == "index-trace" else 0)
