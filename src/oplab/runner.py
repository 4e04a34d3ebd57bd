"""Config-driven experiments with manifests and reproducible outputs.

A run is a JSON config naming one experiment, a seed, and an output
directory.  Randomness flows only through the seed, file contents are
deterministic, and the manifest lists every emitted file with its hash
so reruns can be compared byte for byte.
"""

import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

from .errors import ConfigError, StageError
from .geometry import Arc, Direction, Explicit
from .homotopy import (
    CENTER_DIRECTIONS,
    CertifyConfig,
    PipelineConfig,
    certify_path,
    conjugation_path,
    log_path,
    theorem1_pipeline,
)
from .index import IndexConfig, cut_interface, index_k_projection, projection_index
from .locality import compactness_profile
from .operators import Operator, Projection, laughlin_operator, shift_operator, spectral_norm
from .opmat import save_operator
from .reports import emit_plots, write_csv
from .surgery import corrective_unitary, localized_centers
from .windows import TruncationWindow

EXPERIMENTS = ("index-sweep", "theorem1", "theorem2", "surgery", "locality-scan")
_PLANE_ONLY = {"theorem1", "surgery", "locality-scan"}
OUT_DIR_ENV = "OPLAB_OUT"

# integer fields and their least allowed value (None: any integer)
_INTEGER_MINIMUMS = {
    "radius": 1,
    "seed": 0,
    "trace_power": 1,
    "samples": 2,
    "copies": 1,
    "k_min": None,
    "k_max": None,
}
_POSITIVE_FIELDS = ("sv_threshold", "buffer", "eps")

MAX_WINDOW_DIMENSION = 2**13  # sites; one d x d complex matrix at the cap is 1 GiB

DEFAULT_ARC_PAIR = (
    Arc(Direction(1, -1), Direction(1, 1)),
    Arc(Direction(-1, 1), Direction(-1, -1)),
)


def _vector(raw) -> tuple:
    """Two JSON integers; true and false are not integers here."""
    x1, x2 = raw
    if type(x1) is not int or type(x2) is not int:
        raise TypeError(f"{raw!r} is not a pair of integers")
    return x1, x2


def _window_too_large(representation: str, radius: int) -> bool:
    """Whether the window holds more than MAX_WINDOW_DIMENSION sites,
    counted without building it: the 2r + 1 sites of one axis settle a
    huge radius at once, and a smaller plane is counted by columns."""
    if representation == "Z" or 2 * radius + 1 > MAX_WINDOW_DIMENSION:
        return 2 * radius + 1 > MAX_WINDOW_DIMENSION
    columns = (2 * math.isqrt(radius**2 - x * x) + 1 for x in range(-radius, radius + 1))
    return sum(columns) > MAX_WINDOW_DIMENSION


def _parse_arc_pairs(raw) -> tuple:
    pairs = []
    try:
        for pair in raw:
            (a_start, a_end), (b_start, b_end) = pair
            pairs.append(
                (
                    Arc.from_vectors(_vector(a_start), _vector(a_end)),
                    Arc.from_vectors(_vector(b_start), _vector(b_end)),
                )
            )
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            "field 'arc_pairs': expected [[[x,y],[x,y]],[[x,y],[x,y]]] pairs "
            f"of arcs ({exc})"
        ) from exc
    return tuple(pairs)


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated run request; every tolerance explicit, seed mandatory."""

    experiment: str
    representation: str
    radius: int
    seed: int
    out_dir: str
    boundary: str = "open"
    sv_threshold: float = 1e-6
    trace_power: int = 4
    buffer: float = 0.25
    samples: int = 50
    arc_pairs: tuple = ()
    eps: float = 0.5
    k_min: int = -3
    k_max: int = 3
    copies: int = 1

    def __post_init__(self) -> None:
        problems = []
        if self.experiment not in EXPERIMENTS:
            problems.append(
                f"field 'experiment': {self.experiment!r} is not one of {EXPERIMENTS}"
            )
        if self.representation not in ("Z", "Z2"):
            problems.append("field 'representation': must be 'Z' or 'Z2'")
        if self.boundary not in ("open", "periodic"):
            problems.append("field 'boundary': must be 'open' or 'periodic'")
        if not isinstance(self.out_dir, str):
            problems.append("field 'out_dir': must be a string")
        # exact type checks: JSON true/false would pass isinstance(_, int)
        for name, low in _INTEGER_MINIMUMS.items():
            value = getattr(self, name)
            if type(value) is not int:
                problems.append(f"field '{name}': must be an integer")
            elif low is not None and value < low:
                problems.append(f"field '{name}': must be an integer >= {low}")
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if type(value) not in (int, float) or not value > 0:
                problems.append(f"field '{name}': must be a positive number")
        k_range = (self.k_min, self.k_max)
        if all(type(k) is int for k in k_range) and self.k_min > self.k_max:
            problems.append("field 'k_min': must not exceed k_max")
        if self.experiment in EXPERIMENTS:
            expected = "Z2" if self.experiment in _PLANE_ONLY else "Z"
            if self.representation != expected:
                problems.append(
                    f"field 'representation': experiment '{self.experiment}' "
                    f"runs on {expected}"
                )
        if not problems and _window_too_large(self.representation, self.radius):
            problems.append(
                f"field 'radius': the window would hold more than "
                f"{MAX_WINDOW_DIMENSION} sites, the cap on window dimension"
            )
        if not problems and self.experiment == "theorem2" and self.radius < 4:
            problems.append(  # _run_theorem2 rotates sites max(3, r // 3) and the next
                "field 'radius': experiment 'theorem2' rotates sites 3 and 4, so the "
                "radius must be at least 4"
            )
        if problems:
            raise ConfigError(problems)

    @classmethod
    def from_json_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        fields = dataclasses.fields(cls)
        missing = [
            f.name
            for f in fields
            if f.default is dataclasses.MISSING and f.name not in raw
        ]
        if missing:
            raise ConfigError(
                "missing required fields: " + ", ".join(sorted(missing))
            )
        unknown = sorted(set(raw) - {f.name for f in fields})
        if unknown:
            raise ConfigError("unknown fields: " + ", ".join(unknown))
        values = dict(raw)
        values["arc_pairs"] = _parse_arc_pairs(values.get("arc_pairs", ()))
        return cls(**values)

    def snapshot(self) -> dict:
        out = dataclasses.asdict(self)
        out["arc_pairs"] = [
            [
                [[arc.start.p, arc.start.q], [arc.end.p, arc.end.q]]
                for arc in pair
            ]
            for pair in self.arc_pairs
        ]
        return out

    def index_options(self, **extra) -> IndexConfig:
        return IndexConfig(
            sv_threshold=self.sv_threshold,
            trace_power=self.trace_power,
            buffer=self.buffer,
            **extra,
        )


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON config; every bad input is a ConfigError.

    A byte that is not UTF-8, malformed JSON and an integer literal past
    Python's digit limit are ValueErrors; nesting deeper than the
    interpreter's recursion limit is a RecursionError.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_json_dict(raw)


@dataclass(frozen=True)
class RunManifest:
    """What a run produced: config snapshot, versions, timings, file hashes."""

    config: dict
    package_version: str
    stages: tuple
    files: tuple

    def to_json_dict(self) -> dict:
        return {
            "format": "runmanifest v1",
            "config": self.config,
            "package_version": self.package_version,
            "stages": [dict(s) for s in self.stages],
            "files": [dict(f) for f in self.files],
        }

    def file_hashes(self) -> dict:
        return {f["path"]: f["sha256"] for f in self.files}


def _package_version() -> str:
    try:
        return metadata.version("oplab")
    except metadata.PackageNotFoundError:
        return "0.1.0"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )
    return path


def seeded_local_unitary(window: TruncationWindow, seed: int, angle: float = 0.25) -> Operator:
    """Diagonal angular phase composed with seeded disjoint neighbor
    rotations; strictly finite range by construction."""
    rng = np.random.default_rng(seed)
    u = laughlin_operator(window).entries.copy()
    c, s = np.cos(angle), np.sin(angle)
    taken = set()
    for site in window.sites:
        nb = (site[0] + 1, site[1])
        if site in taken or nb not in window or nb in taken:
            continue
        if rng.random() < 0.5:
            continue
        taken.update((site, nb))
        i, j = window.index_of(site), window.index_of(nb)
        # right-multiplying by the plane rotation touches two columns
        col_i, col_j = u[:, i].copy(), u[:, j].copy()
        u[:, i] = c * col_i + s * col_j
        u[:, j] = -s * col_i + c * col_j
    return Operator(window, u, {"name": f"local-unitary[{seed}]"})


def _run_index_sweep(config: ExperimentConfig, out: Path, add_stage) -> list:
    window = TruncationWindow.line(config.radius)
    rows = []
    with add_stage("sweep"):
        for k in range(config.k_min, config.k_max + 1):
            base, proj = index_k_projection(k, window)
            result = projection_index(proj, base, config=config.index_options())
            rows.append((k, result.value, result.method))
    with add_stage("emit"):
        files = emit_plots([(k, v) for k, v, _ in rows], out)
        files.append(
            write_csv(
                out / "index_sweep_methods.csv",
                ["k,index,method"] + [f"{k},{v},{m}" for k, v, m in rows],
            )
        )
        files.append(
            _write_json(
                out / "report.json",
                {
                    "format": "indexsweep v1",
                    "rows": [[k, v, m] for k, v, m in rows],
                    "all_match": all(k == v for k, v, _ in rows),
                },
            )
        )
    return files


def _certify_options(config: ExperimentConfig, **extra) -> CertifyConfig:
    return CertifyConfig(
        samples=config.samples,
        arc_pairs=config.arc_pairs,
        **extra,
    )


def _run_theorem1(config: ExperimentConfig, out: Path, add_stage) -> list:
    window = TruncationWindow.plane(config.radius)
    with add_stage("build-unitary"):
        u = seeded_local_unitary(window, config.seed)
    with add_stage("pipeline"):
        pipe_config = PipelineConfig(
            copies=config.copies, certify=_certify_options(config)
        )
        path, report = theorem1_pipeline(u, config.eps, pipe_config)
    with add_stage("emit"):
        files = emit_plots(report, out)
        files.append(save_operator(u, out / "start.opmat", name="start"))
        end = Operator(window, path.declared_end.dense())
        files.append(save_operator(end, out / "end.opmat", name="end"))
        files.append(
            _write_json(
                out / "pipeline.json",
                {
                    "format": "pipeline v1",
                    "segments": [
                        {"kind": s.kind, "label": s.label, "reversed": s.flip}
                        for s in path.segments
                    ],
                    "endpoints": ["start.opmat", "end.opmat"],
                    "certificate": report.to_json_dict(),
                },
            )
        )
    return files


def _run_theorem2(config: ExperimentConfig, out: Path, add_stage) -> list:
    window = TruncationWindow.line(config.radius)
    rng = np.random.default_rng(config.seed)
    with add_stage("build-pair"):
        q = Projection.from_region(
            Explicit(frozenset(x for x in window.sites if x >= 1)), window
        )
        lo = max(3, config.radius // 3)  # ExperimentConfig keeps lo + 1 in the window
        angle = 0.4 + 0.5 * rng.random()
        mover = np.eye(window.dimension, dtype=np.complex128)
        i, j = window.index_of(lo), window.index_of(lo + 1)
        c, s = np.cos(angle), np.sin(angle)
        mover[i, i], mover[i, j], mover[j, i], mover[j, j] = c, -s, s, c
        upath = log_path(Operator(window, mover)).reverse()
        path = conjugation_path(q, upath)
    with add_stage("certify"):
        report = certify_path(
            path,
            _certify_options(
                config,
                index_base=shift_operator(window, 1, config.boundary),
                index_config=config.index_options(cut_sites=cut_interface(q)),
            ),
        )
    with add_stage("emit"):
        files = emit_plots(report, out)
        trace = list(report.index_trace)
        files.append(
            _write_json(
                out / "theorem2.json",
                {
                    "format": "theorem2 v1",
                    "index_trace": trace,
                    "constant": len(set(trace)) == 1,
                    "max_idempotency_defect": report.max_idempotency_defect,
                },
            )
        )
    return files


def _run_surgery(config: ExperimentConfig, out: Path, add_stage) -> list:
    window = TruncationWindow.plane(config.radius)
    with add_stage("build-unitary"):
        u = seeded_local_unitary(window, config.seed)
    with add_stage("localize"):
        b, plan = localized_centers(u, CENTER_DIRECTIONS, config.eps)
        delta = spectral_norm(u.entries - b.entries)
    with add_stage("corrective"):
        v = corrective_unitary(b, plan)
        centers_idx = [window.index_of(c) for c in plan.centers]
        vb = v.entries @ b.entries
        norms = [float(np.linalg.norm(b.entries[:, i])) for i in centers_idx]
        block = vb[np.ix_(centers_idx, centers_idx)]
        diag_residual = float(spectral_norm(block - np.diag(norms)))
    with add_stage("emit"):
        files = [
            _write_json(
                out / "plan.json",
                {
                    "format": "surgeryrun v1",
                    "plan": plan.to_json_dict(),
                    "deformation_norm": delta,
                    "corrective_defect": v.unitarity_defect(),
                    "center_block_residual": diag_residual,
                },
            ),
            write_csv(
                out / "surgery.csv",
                ["k,center,range_size,budget"]
                + [
                    f"{k},{plan.centers[k][0]} {plan.centers[k][1]},"
                    f"{len(plan.ranges[k])},{plan.budgets[k]!r}"
                    for k in range(len(plan))
                ],
            ),
        ]
    return files


def _run_locality_scan(config: ExperimentConfig, out: Path, add_stage) -> list:
    window = TruncationWindow.plane(config.radius)
    pair = config.arc_pairs[0] if config.arc_pairs else DEFAULT_ARC_PAIR
    with add_stage("build-unitary"):
        u = seeded_local_unitary(window, config.seed)
    with add_stage("scan"):
        cutoffs = list(range(0, config.radius + 1, 2))
        profile = compactness_profile(u, pair[0], pair[1], cutoffs)
    with add_stage("emit"):
        files = emit_plots(profile, out)
        files.append(
            _write_json(
                out / "locality.json",
                {
                    "format": "localityscan v1",
                    "radii": [str(r) for r in profile.radii],
                    "values": list(profile.values),
                },
            )
        )
    return files


_RUNNERS = {
    "index-sweep": _run_index_sweep,
    "theorem1": _run_theorem1,
    "theorem2": _run_theorem2,
    "surgery": _run_surgery,
    "locality-scan": _run_locality_scan,
}


def run(config: ExperimentConfig | str | Path, out_override: str | None = None) -> RunManifest:
    """Execute one configured experiment and write its manifest."""
    if not isinstance(config, ExperimentConfig):
        config = load_config(config)
    out_dir = out_override or os.environ.get(OUT_DIR_ENV) or config.out_dir
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    stages = []

    class add_stage:
        def __init__(self, name: str):
            self.name = name

        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc_type is None:
                stages.append(
                    {
                        "name": self.name,
                        "seconds": round(time.perf_counter() - self.t0, 6),
                    }
                )
            elif issubclass(exc_type, np.linalg.LinAlgError):
                # a failed decomposition is a stage failure, not a crash
                raise StageError(self.name, f"LinAlgError: {exc}") from exc
            return False

    files = _RUNNERS[config.experiment](config, out, add_stage)

    listed = tuple(
        {"path": p.name, "sha256": _sha256(p)}
        for p in sorted(files, key=lambda p: p.name)
    )
    manifest = RunManifest(
        config=config.snapshot(),
        package_version=_package_version(),
        stages=tuple(stages),
        files=listed,
    )
    _write_json(out / "manifest.json", manifest.to_json_dict())
    return manifest
