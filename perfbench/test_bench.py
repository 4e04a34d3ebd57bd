"""Tests of the benchmark itself: tracing must not change what it measures.

    python3 -m pytest perfbench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oplab  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oplab.operators import Operator  # noqa: E402
from oplab.windows import TruncationWindow  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _oplab_state() -> dict:
    state = {}
    for key, mod in sys.modules.items():
        if key == "oplab" or key.startswith("oplab."):
            for attr, value in vars(mod).items():
                state[(key, attr)] = value
    for cls in (Operator, TruncationWindow):
        for attr, value in vars(cls).items():
            state[(cls.__name__, attr)] = value
    return state


def test_tracer_restores_every_rebound_attribute():
    before = _oplab_state()
    tracer = spans.Tracer()
    with tracer:
        during = _oplab_state()
        changed = {k for k in before if during[k] is not before[k]}
        # names imported with ``from .x import y`` are rebound where they landed
        for key in [
            ("oplab.locality", "spectral_norm"),
            ("oplab.surgery", "spectral_norm"),
            ("oplab.homotopy", "spectral_norm"),
            ("oplab.index", "spectral_norm"),
            ("oplab.homotopy", "localized_centers"),
            ("oplab.homotopy", "fredholm_index"),
            ("oplab.runner", "certify_path"),
            ("oplab.surgery", "cone_split"),
            ("oplab.surgery", "annulus_confine"),
            ("oplab", "run"),
            ("Operator", "unitarity_defect"),
            ("TruncationWindow", "sites"),
        ]:
            assert key in changed, key
        originals = {id(before[k]) for k in changed}
        assert not any(id(v) in originals for v in during.values())
    after = _oplab_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_add_up_to_the_operation():
    tracer = spans.Tracer()
    with tracer:
        with tracer.operation("x"):
            w = TruncationWindow.plane(5)
            assert w.dimension > 0
            oplab.operators.spectral_norm(oplab.laughlin_operator(w).entries)
    op = tracer.operation_spans("x")
    assert [s.name for s in op] == ["op", "windows.sites", "operators.spectral_norm"]
    assert sum(spans.self_times(op)) == pytest.approx(op[0].duration, abs=1e-12)
    metrics = spans.layer_metrics(op, None)
    assert metrics["operators.spectral_norm.work"] == w.dimension**3


def _small(cls):
    """The same operation on a smaller window, to keep the test quick."""
    if cls is workloads.SurgeryTails:
        return type("Small", (cls,), {"radius": 8})
    radius = {"theorem1": 6, "theorem2": 32, "index-sweep": 32}[cls.config["experiment"]]
    return type("Small", (cls,), {"config": dict(cls.config, radius=radius)})


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_outputs_hash_like_untraced(name, tmp_path):
    wl = _small(workloads.WORKLOADS[name])(3, tmp_path)
    plain = wl.run(0)
    assert wl.check(0, plain) == []
    tracer = spans.Tracer()
    with tracer:
        with tracer.operation(1):
            traced = wl.run(1)
    assert wl.check(1, traced) == []
    assert wl.digest(traced) == wl.digest(plain)
    metrics = spans.layer_metrics(tracer.operation_spans(1), wl.manifest(traced))
    assert set(metrics) <= set(spans.METRICS)
    assert metrics["trace.spans"] > 1


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert per_layer == spans.METRICS
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "op_s",
        "cold_op_s",
        "setup_s",
        "peak_rss_mb",
    }


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
