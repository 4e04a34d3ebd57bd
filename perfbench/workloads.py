"""The benchmark's workloads: inputs from a seed, one operation, its checks.

Every workload builds its inputs before timing starts, runs the same
operation over and over on them, and checks each result.  Checks use
numpy directly, never oplab, so they stay independent of the code under
test and leave no spans in a traced run.  Every result also yields a
digest of its outputs: all operations of a run share one seed, so each
rerun must reproduce the first operation's digest byte for byte.
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import scipy.linalg

import oplab.runner
import oplab.surgery
from oplab.geometry import Direction
from oplab.operators import Operator, laughlin_operator
from oplab.windows import TruncationWindow

EPS = 0.5
DEFAULT_ARC_PAIRS = [[[[1, -1], [1, 1]], [[-1, 1], [-1, -1]]]]


def norm2(m: np.ndarray) -> float:
    """Spectral norm, with all-zero rows and columns dropped first (they
    carry no singular value, and the differences checked here are sparse)."""
    rows = np.flatnonzero(np.any(m != 0, axis=1))
    cols = np.flatnonzero(np.any(m != 0, axis=0))
    if rows.size == 0 or cols.size == 0:
        return 0.0
    return float(np.linalg.norm(m[np.ix_(rows, cols)], 2))


class RunnerWorkload:
    """One ``runner.run`` of a fixed config per operation, in a fresh
    output directory; the output is checked from the files it wrote."""

    config: dict = {}

    def __init__(self, seed: int, workdir: Path):
        raw = dict(self.config, seed=seed, out_dir=str(workdir / "default"))
        self.config_obj = oplab.runner.ExperimentConfig.from_json_dict(raw)
        radius = self.config_obj.radius
        if self.config_obj.representation == "Z2":
            self.window = TruncationWindow.plane(radius)
        else:
            self.window = TruncationWindow.line(radius)
        self.dimension = self.window.dimension
        self.workdir = workdir

    def _out(self, k: int) -> Path:
        return self.workdir / f"op{k}"

    def run(self, k: int):
        return oplab.runner.run(self.config_obj, out_override=str(self._out(k)))

    def check(self, k: int, manifest) -> list:
        out = self._out(k)
        try:
            return self.check_outputs(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def digest(self, manifest) -> str:
        return json.dumps(manifest.file_hashes(), sort_keys=True)

    def manifest(self, manifest) -> dict:
        return manifest.to_json_dict()

    def check_outputs(self, out: Path) -> list:
        raise NotImplementedError


def _read(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text(encoding="ascii"))


class Pipeline(RunnerWorkload):
    name = "pipeline"
    config = {
        "experiment": "theorem1",
        "representation": "Z2",
        "radius": 12,
        "samples": 50,
        "eps": EPS,
        "copies": 1,
        "arc_pairs": DEFAULT_ARC_PAIRS,
    }

    def check_outputs(self, out: Path) -> list:
        cert = _read(out, "pipeline.json")["certificate"]
        problems = []
        worst = max(cert["endpoint_errors"])
        if not worst <= 1e-8:
            problems.append(f"endpoint error {worst:.3e} > 1e-8")
        for seg in cert["segment_stats"]:
            if seg["kind"] == "polar":
                break
            sv = seg["min_singular_value"]
            if sv is not None and not sv >= 0.5:
                problems.append(f"pre-polar segment {seg['kind']} has min sv {sv:.3e} < 0.5")
        else:
            problems.append("path has no polar segment")
        return problems


class IndexTrace(RunnerWorkload):
    name = "index-trace"
    config = {
        "experiment": "theorem2",
        "representation": "Z",
        "radius": 128,
        "samples": 50,
    }

    def check_outputs(self, out: Path) -> list:
        report = _read(out, "theorem2.json")
        problems = []
        trace = report["index_trace"]
        if len(trace) != self.config["samples"] or set(trace) != {-1}:
            problems.append(f"index trace is not constantly -1: {sorted(set(trace))}")
        idem = report["max_idempotency_defect"]
        if not idem <= 1e-6:
            problems.append(f"idempotency defect {idem:.3e} > 1e-6")
        return problems


class IndexSweep(RunnerWorkload):
    name = "index-sweep"
    config = {
        "experiment": "index-sweep",
        "representation": "Z",
        "radius": 256,
        "k_min": -3,
        "k_max": 3,
    }

    def check_outputs(self, out: Path) -> list:
        report = _read(out, "report.json")
        problems = []
        if report["all_match"] is not True:
            problems.append(f"index sweep mismatch: {report['rows']}")
        ks = [row[0] for row in report["rows"]]
        if ks != list(range(self.config["k_min"], self.config["k_max"] + 1)):
            problems.append(f"index sweep covered k = {ks}")
        return problems


class SurgeryTails:
    name = "surgery-tails"
    radius = 16
    thetas = (Direction(1, 0), Direction(0, 1))

    def __init__(self, seed: int, workdir: Path):
        w = TruncationWindow.plane(self.radius)
        self.window = w
        self.dimension = w.dimension
        rng = np.random.default_rng(seed)
        h = np.diag(rng.standard_normal(w.dimension)).astype(np.complex128)
        for site in w.sites:
            for nb in ((site[0] + 1, site[1]), (site[0], site[1] + 1)):
                if nb in w:
                    i, j = w.index_of(site), w.index_of(nb)
                    # standard complex normal: unit variance overall
                    z = complex(rng.standard_normal(), rng.standard_normal())
                    hop = 0.3 * z / np.sqrt(2.0)
                    h[i, j] = hop
                    h[j, i] = hop.conjugate()
        entries = laughlin_operator(w).entries @ scipy.linalg.expm(1j * h)
        self.u = Operator(w, entries, {"name": f"tailed[{seed}]"})

    def run(self, k: int):
        b, plan = oplab.surgery.localized_centers(self.u, self.thetas, EPS)
        v = oplab.surgery.corrective_unitary(b, plan)
        return b, plan, v

    def check(self, k: int, result) -> list:
        b, plan, v = result
        be, ve = b.entries, v.entries
        problems = []
        delta = norm2(self.u.entries - be)
        if not delta < EPS:
            problems.append(f"deformation {delta:.3e} is not below eps {EPS}")
        eye = np.eye(self.dimension)
        defect = norm2(ve.conj().T @ ve - eye)
        if not defect <= 1e-10:
            problems.append(f"corrective unitarity defect {defect:.3e} > 1e-10")
        idx = [self.window.index_of(c) for c in plan.centers]
        block = (ve @ be)[np.ix_(idx, idx)]
        norms = np.linalg.norm(be[:, idx], axis=0)
        residual = float(np.linalg.norm(block - np.diag(norms), 2))
        if not residual <= 1e-10:
            problems.append(f"center block residual {residual:.3e} > 1e-10")
        return problems

    def digest(self, result) -> str:
        b, plan, v = result
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(b.entries).tobytes())
        h.update(np.ascontiguousarray(v.entries).tobytes())
        h.update(json.dumps(plan.to_json_dict(), sort_keys=True).encode())
        return h.hexdigest()

    def manifest(self, result) -> None:
        return None


WORKLOADS = {cls.name: cls for cls in (Pipeline, SurgeryTails, IndexTrace, IndexSweep)}
