"""In-memory spans around the public functions of each oplab layer.

A :class:`Tracer` rebinds module and class attributes to timing
wrappers and puts every original back on :meth:`Tracer.restore`.  A
name imported with ``from .x import y`` lives on in every importing
module, so each traced function is rebound wherever oplab holds it.
Spans are kept in a list and turned into per-layer metrics after the
run; nothing is written while operations are timed.
"""

import functools
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# (layer, attribute path inside ``oplab.<layer>``); a dotted path names a
# class attribute.  These are the calls the per-layer metrics are built from.
TARGETS = (
    ("homotopy", "certify_path"),
    ("homotopy", "theorem1_pipeline"),
    ("homotopy", "straight_line"),
    ("homotopy", "log_path"),
    ("homotopy", "polar_path"),
    ("homotopy", "block_peel"),
    ("homotopy", "conjugation_path"),
    ("homotopy", "block_unitary_homotopy"),
    ("surgery", "localized_centers"),
    ("surgery", "deletion_series"),
    ("surgery", "corrective_unitary"),
    ("surgery", "greedy_isometry"),
    ("locality", "cone_split"),
    ("locality", "annulus_confine"),
    ("index", "fredholm_index"),
    ("index", "projection_index"),
    ("operators", "spectral_norm"),
    ("operators", "Operator.unitarity_defect"),
    ("windows", "TruncationWindow.sites"),
    ("geometry", "region_sites"),
    ("opmat", "save_operator"),
    ("reports", "emit_plots"),
    ("runner", "run"),
)

PATH_BUILDERS = (
    "homotopy.straight_line",
    "homotopy.log_path",
    "homotopy.polar_path",
    "homotopy.block_peel",
    "homotopy.conjugation_path",
    "homotopy.block_unitary_homotopy",
)

ROOT = "op"

LAYERS = (
    "homotopy",
    "surgery",
    "locality",
    "index",
    "operators",
    "windows",
    "geometry",
    "opmat",
    "reports",
    "runner",
)
STAGES = ("build-unitary", "pipeline", "build-pair", "certify", "sweep", "emit")

# Every per-layer metric a traced run reports, with its unit.  Counts
# (units in COUNT_UNITS) must repeat exactly between operations of a run.
COUNT_UNITS = ("count", "B", "mnk-computed")
METRICS = {
    "homotopy.certify_path.s": "s",
    "homotopy.certify_path.samples": "count",
    "homotopy.certify_path.s_per_sample": "s",
    "homotopy.theorem1_pipeline.self_s": "s",
    "homotopy.path_build.s": "s",
    "surgery.localized_centers.s": "s",
    "surgery.deletion_series.s": "s",
    "surgery.deletion_series.pairs": "count",
    "surgery.corrective_unitary.s": "s",
    "surgery.greedy_isometry.s": "s",
    "locality.cone_split.s": "s",
    "locality.cone_split.calls": "count",
    "locality.annulus_confine.s": "s",
    "index.fredholm_index.s": "s",
    "index.fredholm_index.calls": "count",
    "index.projection_index.s": "s",
    "index.method.kernel_count": "count",
    "index.method.trace_formula": "count",
    "index.method.partial_permutation": "count",
    "index.pp_share": "ratio",
    "operators.spectral_norm.calls": "count",
    "operators.spectral_norm.s": "s",
    "operators.spectral_norm.work": "mnk-computed",
    "operators.unitarity_defect.calls": "count",
    "operators.unitarity_defect.s": "s",
    "windows.sites.s": "s",
    "windows.sites.setup_s": "s",
    "geometry.region_sites.calls": "count",
    "geometry.region_sites.s": "s",
    "opmat.save_operator.s": "s",
    "opmat.bytes": "B",
    "reports.emit_plots.s": "s",
    "reports.files": "count",
    "runner.run.s": "s",
    **{f"runner.stage.{stage}.s": "s" for stage in STAGES},
    "runner.stage_span_gap_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "bench.self_s": "s",
    "trace.spans": "count",
    "trace.op_s": "s",
    "trace.untraced_op_s": "s",
    "trace.overhead_s": "s",
    "window.dimension": "count",
    "blas.threads": "count",
}


def _spectral_work(args, kwargs, result):
    entries = args[0] if args else kwargs["entries"]
    if entries.ndim != 2:
        return {"work": 0}
    m, n = entries.shape
    return {"work": m * n * min(m, n)}


def _index_method(args, kwargs, result):
    return {
        "method": result.method,
        "cross_check": "cross_check" in result.diagnostics,
    }


NOTES = {
    "operators.spectral_norm": _spectral_work,
    "homotopy.certify_path": lambda a, k, r: {"samples": r.samples},
    "surgery.deletion_series": lambda a, k, r: {
        "pairs": len(a[1] if len(a) > 1 else k["pairs"])
    },
    "index.fredholm_index": _index_method,
    "opmat.save_operator": lambda a, k, r: {"bytes": Path(r).stat().st_size},
    "reports.emit_plots": lambda a, k, r: {"files": len(r)},
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: object = None
    notes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans for calls into oplab while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = None

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, start: float) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, start, parent=parent, op=self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, end: float) -> None:
        self.spans[idx].end = end
        self._stack.pop()

    def operation(self, op_id):
        """Context manager: one root span that every traced call nests in."""
        return _Operation(self, op_id)

    def operation_spans(self, op_id) -> list[Span]:
        """The spans of one operation, root first, parents re-indexed."""
        picked = [i for i, s in enumerate(self.spans) if s.op == op_id]
        local = {g: i for i, g in enumerate(picked)}
        return [
            Span(s.name, s.start, s.end, local.get(s.parent), s.op, s.notes)
            for s in (self.spans[g] for g in picked)
        ]

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name, time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, time.perf_counter())
            if note is not None:
                tracer.spans[idx].notes = note(args, kwargs, result)
            return result

        return traced

    # -- rebinding -----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "oplab" or key.startswith("oplab."))
        ]
        for layer, attr in TARGETS:
            module = sys.modules[f"oplab.{layer}"]
            name = f"{layer}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name)
                self._rebind_member(cls, member, name)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def _rebind_member(self, cls, member: str, name: str) -> None:
        original = cls.__dict__[member]
        if isinstance(original, functools.cached_property):
            replacement = functools.cached_property(self._wrap(name, original.func))
            replacement.__set_name__(cls, member)
        else:
            replacement = self._wrap(name, original)
        self._saved.append((cls, member, original))
        setattr(cls, member, replacement)

    def restore(self) -> None:
        while self._saved:
            obj, key, original = self._saved.pop()
            setattr(obj, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class _Operation:
    def __init__(self, tracer: Tracer, op_id):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        self.tracer.op = self.op_id
        self.idx = self.tracer._open(ROOT, time.perf_counter())
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx, time.perf_counter())
        self.tracer.op = None
        return False

    @property
    def span(self) -> Span:
        return self.tracer.spans[self.idx]


# ---------------------------------------------------------------------------
# metrics from spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def _outermost(spans: list[Span], names) -> list[Span]:
    """Spans named in ``names`` with no ancestor also named in ``names``,
    so recursive or nested calls are not counted twice."""
    names = set(names)
    picked = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            picked.append(s)
    return picked


def _seconds(spans, *names) -> float:
    return sum((s.duration for s in _outermost(spans, names)), 0.0)


def layer_metrics(spans: list[Span], manifest: dict | None) -> dict:
    """Per-layer metrics of one operation's spans (root span first)."""
    if not spans or spans[0].name != ROOT:
        raise ValueError("an operation's spans start with its root span")
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def noted(name, key):
        return sum(s.notes.get(key, 0) for s in by_name.get(name, ()))

    def self_of(name):
        return sum((t for s, t in zip(spans, selfs) if s.name == name), 0.0)

    fred = by_name.get("index.fredholm_index", ())
    methods = {"kernel_count": 0, "trace_formula": 0, "partial_permutation": 0}
    for s in fred:
        methods[s.notes["method"]] += 1
        if s.notes["cross_check"]:
            methods["trace_formula"] += 1
    cert_s = _seconds(spans, "homotopy.certify_path")
    samples = noted("homotopy.certify_path", "samples")

    out = {
        "homotopy.certify_path.s": cert_s,
        "homotopy.certify_path.samples": samples,
        "homotopy.certify_path.s_per_sample": cert_s / samples if samples else 0.0,
        "homotopy.theorem1_pipeline.self_s": self_of("homotopy.theorem1_pipeline"),
        "homotopy.path_build.s": _seconds(spans, *PATH_BUILDERS),
        "surgery.localized_centers.s": _seconds(spans, "surgery.localized_centers"),
        "surgery.deletion_series.s": _seconds(spans, "surgery.deletion_series"),
        "surgery.deletion_series.pairs": noted("surgery.deletion_series", "pairs"),
        "surgery.corrective_unitary.s": _seconds(spans, "surgery.corrective_unitary"),
        "surgery.greedy_isometry.s": _seconds(spans, "surgery.greedy_isometry"),
        "locality.cone_split.s": _seconds(spans, "locality.cone_split"),
        "locality.cone_split.calls": calls("locality.cone_split"),
        "locality.annulus_confine.s": _seconds(spans, "locality.annulus_confine"),
        "index.fredholm_index.s": _seconds(spans, "index.fredholm_index"),
        "index.fredholm_index.calls": len(fred),
        "index.projection_index.s": _seconds(spans, "index.projection_index"),
        "index.method.kernel_count": methods["kernel_count"],
        "index.method.trace_formula": methods["trace_formula"],
        "index.method.partial_permutation": methods["partial_permutation"],
        "index.pp_share": methods["partial_permutation"] / len(fred) if fred else 0.0,
        "operators.spectral_norm.calls": calls("operators.spectral_norm"),
        "operators.spectral_norm.s": _seconds(spans, "operators.spectral_norm"),
        "operators.spectral_norm.work": noted("operators.spectral_norm", "work"),
        "operators.unitarity_defect.calls": calls("operators.unitarity_defect"),
        "operators.unitarity_defect.s": _seconds(spans, "operators.unitarity_defect"),
        "windows.sites.s": _seconds(spans, "windows.sites"),
        "geometry.region_sites.calls": calls("geometry.region_sites"),
        "geometry.region_sites.s": _seconds(spans, "geometry.region_sites"),
        "opmat.save_operator.s": _seconds(spans, "opmat.save_operator"),
        "opmat.bytes": noted("opmat.save_operator", "bytes"),
        "reports.emit_plots.s": _seconds(spans, "reports.emit_plots"),
        "reports.files": noted("reports.emit_plots", "files"),
        "runner.run.s": _seconds(spans, "runner.run"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            (t for s, t in zip(spans, selfs) if s.name.split(".", 1)[0] == layer), 0.0
        )
    out["bench.self_s"] = selfs[0]
    out["trace.spans"] = len(spans)
    stages = {s["name"]: s["seconds"] for s in (manifest or {}).get("stages", ())}
    for stage in STAGES:
        out[f"runner.stage.{stage}.s"] = stages.get(stage, 0.0)
    out["runner.stage_span_gap_s"] = _stage_gap(stages, spans)
    return out


# stage -> the one traced call that makes up (almost) all of it
STAGE_SPANS = {
    "pipeline": "homotopy.theorem1_pipeline",
    "certify": "homotopy.certify_path",
}


def _stage_gap(stages: dict, spans: list[Span]) -> float:
    """Largest disagreement between manifest stage timings and spans.

    A stage that is one traced call should match that call's span, and
    the stages together cannot outlast the ``runner.run`` span.
    """
    if not stages:
        return 0.0
    gaps = [max(0.0, sum(stages.values()) - _seconds(spans, "runner.run"))]
    for stage, name in STAGE_SPANS.items():
        if stage in stages:
            gaps.append(abs(stages[stage] - _seconds(spans, name)))
    return max(gaps)
