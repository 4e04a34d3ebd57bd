"""Norm-continuous operator paths and their certification.

A path is a tuple of equally weighted segments.  Each segment is one of
three closed forms built once from a cached factorization, so sampling
costs one or two dense products rather than a fresh decomposition:
affine (1-t) A + t B, spectral L e^{(1-t) z} R + C, and conjugation
U_t* Q U_t.  Constructors cover the deformation moves used by the full
unitary-to-identity pipeline: straight lines, polar interpolation,
peeling an upper-triangular block factor, logarithmic rotation of a
unitary, conjugation of a projection along a unitary path, and the
stacked-isometry move that absorbs a block unitary into the identity.

Certification never assumes a segment is what it claims to be: the
certificate reports measured unitarity defects, singular values,
locality defects against configured cone pairs, and (for projection
paths) idempotency defects and an integer index trace.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg

from .errors import (
    OplabError,
    PreconditionError,
    SingularOperatorError,
    StageError,
    UnitarityError,
    WindowMismatchError,
)
from .geometry import Arc, Direction, Explicit, ORIGIN, arcs_disjoint
from .index import IndexConfig, fredholm_index
from .operators import Operator, Projection, spectral_norm
from .surgery import (
    GreedyIsometry,
    corrective_unitary,
    greedy_isometry,
    localized_centers,
)
from .windows import AmplifiedWindow, TruncationWindow, Window

TOL_JOINT = 1e-9
TOL_BLOCK_FORM = 1e-8
TOL_PRODUCT = 1e-10
TOL_ISOMETRY = 1e-10
BRANCH_TIE = 1e-12

SEGMENT_KINDS = (
    "straight_line",
    "polar",
    "block_peel",
    "log",
    "conjugation",
    "block_unitary",
)


def _fro(entries: np.ndarray) -> float:
    return float(np.linalg.norm(entries))


def _residual_norm(entries: np.ndarray, tol: float) -> float:
    """Spectral norm of a residual, skipping the SVD when the Frobenius
    norm (an upper bound on it) already lands at or under tol."""
    fro = _fro(entries)
    if fro <= tol:
        return fro
    return spectral_norm(entries)


# ---------------------------------------------------------------------------
# segments


@dataclass(frozen=True)
class PathSegment:
    """One homotopy leg, evaluated in closed form by its subclass.

    The form is the subclass (affine, spectral or conjugation); ``kind``
    only names the move for reports and must be one of
    ``SEGMENT_KINDS``.  ``flip`` runs the leg backwards (t -> 1 - t), so
    paths reverse without recomputing anything.
    """

    kind: str
    window: Window
    flip: bool = field(default=False, kw_only=True)
    label: str = field(default="", kw_only=True)

    def __post_init__(self) -> None:
        if self.kind not in SEGMENT_KINDS:
            raise PreconditionError(f"unknown segment kind {self.kind!r}")

    def at(self, t: float) -> np.ndarray:
        return self._at(1.0 - t if self.flip else t)

    def reversed(self) -> "PathSegment":
        return dataclasses.replace(self, flip=not self.flip)


@dataclass(frozen=True)
class AffineSegment(PathSegment):
    """X(t) = (1 - t) A + t B, with A = ``start`` and B = ``end``."""

    start: np.ndarray
    end: np.ndarray

    def _at(self, t: float) -> np.ndarray:
        return (1.0 - t) * self.start + t * self.end

    def intertwined(self, window: Window, v: np.ndarray, complement: np.ndarray):
        """The segment t -> V X(t) V* + complement on ``window``, unflipped."""
        a, b = (self.end, self.start) if self.flip else (self.start, self.end)
        vh = v.conj().T
        return AffineSegment(
            "block_unitary", window, v @ a @ vh + complement, v @ b @ vh + complement
        )


@dataclass(frozen=True)
class SpectralSegment(PathSegment):
    """X(t) = L diag(exp((1 - t) z)) R + C.

    L (``left``, d x k), z (``exponents``, k) and R (``right``, k x d)
    hold only the columns that move; everything constant in t is in C
    (``const``).  A polar climb has L = U, z = log s, R = V*, C = 0; a
    logarithmic rotation has a Schur basis and z = i theta.
    """

    left: np.ndarray
    exponents: np.ndarray
    right: np.ndarray
    const: np.ndarray

    def _at(self, t: float) -> np.ndarray:
        wave = np.exp((1.0 - t) * self.exponents)
        return (self.left * wave[None, :]) @ self.right + self.const

    def intertwined(self, window: Window, v: np.ndarray, complement: np.ndarray):
        """The segment t -> V X(t) V* + complement on ``window``, unflipped:
        a flip becomes L e^z with exponents -z."""
        left, z = self.left, self.exponents
        if self.flip:
            left, z = left * np.exp(z)[None, :], -z
        vh = v.conj().T
        const = v @ self.const @ vh + complement
        return SpectralSegment("block_unitary", window, v @ left, z, self.right @ vh, const)


@dataclass(frozen=True)
class ConjugationSegment(PathSegment):
    """X(t) = U_t* Q U_t, with U_t sampled from the inner path ``upath``."""

    q: np.ndarray
    upath: "HomotopyPath"

    def _at(self, t: float) -> np.ndarray:
        ut = self.upath.at(t)
        return ut.conj().T @ self.q @ ut

    def intertwined(self, window: Window, v: np.ndarray, complement: np.ndarray):
        raise PreconditionError("the stacked move cannot carry a conjugation segment")


# ---------------------------------------------------------------------------
# paths


@dataclass(frozen=True)
class HomotopyPath:
    """Equal-weight concatenation of segments with declared endpoints.

    Construction verifies that adjacent segments agree at their joint
    and that the sampled endpoints match the declared ones, both within
    1e-9 in the Frobenius norm (which dominates the operator norm).
    """

    segments: tuple
    declared_start: np.ndarray
    declared_end: np.ndarray

    def __post_init__(self) -> None:
        if not self.segments:
            raise PreconditionError("a path needs at least one segment")
        window = self.segments[0].window
        for seg in self.segments:
            if seg.window != window:
                raise WindowMismatchError("segments live on different windows")
        for i in range(len(self.segments) - 1):
            gap = _fro(self.segments[i].at(1.0) - self.segments[i + 1].at(0.0))
            if gap > TOL_JOINT:
                raise PreconditionError(
                    f"segments {i} and {i + 1} disagree at their joint: {gap:.3e}"
                )
        start_err = _fro(self.segments[0].at(0.0) - self.declared_start)
        end_err = _fro(self.segments[-1].at(1.0) - self.declared_end)
        if start_err > TOL_JOINT or end_err > TOL_JOINT:
            raise PreconditionError(
                f"declared endpoints off by ({start_err:.3e}, {end_err:.3e})"
            )

    @property
    def window(self) -> Window:
        return self.segments[0].window

    @property
    def segment_kinds(self) -> tuple:
        return tuple(seg.kind for seg in self.segments)

    def segment_of(self, t: float) -> int:
        n = len(self.segments)
        return min(int(t * n), n - 1)

    def at(self, t: float) -> np.ndarray:
        if not 0.0 <= t <= 1.0:
            raise PreconditionError(f"path parameter {t} outside [0, 1]")
        n = len(self.segments)
        i = self.segment_of(t)
        return self.segments[i].at(t * n - i)

    def reverse(self) -> "HomotopyPath":
        return HomotopyPath(
            tuple(seg.reversed() for seg in reversed(self.segments)),
            self.declared_end,
            self.declared_start,
        )

    def concat(self, other: "HomotopyPath") -> "HomotopyPath":
        return HomotopyPath(
            self.segments + other.segments, self.declared_start, other.declared_end
        )


# ---------------------------------------------------------------------------
# elementary constructors


def straight_line(a0: Operator, a1: Operator, label: str = "") -> HomotopyPath:
    """Linear interpolation t -> (1-t) a0 + t a1."""
    if a0.window != a1.window:
        raise WindowMismatchError("straight line endpoints on different windows")
    seg = AffineSegment("straight_line", a0.window, a0.entries, a1.entries, label=label)
    return HomotopyPath((seg,), a0.entries, a1.entries)


def polar_path(g: Operator, tol: float = 1e-8) -> HomotopyPath:
    """t -> U |G|^(1-t) from G to its unitary polar factor U."""
    u, s, vh = np.linalg.svd(g.entries)
    smin = float(s[-1]) if s.size else 0.0
    if smin <= tol:
        raise SingularOperatorError(
            f"smallest singular value {smin:.3e} <= {tol:.1e}; "
            "the polar path would leave the invertibles"
        )
    seg = SpectralSegment("polar", g.window, u, np.log(s), vh, np.zeros_like(u))
    return HomotopyPath((seg,), g.entries, u @ vh)


def _log_segment(window: Window, entries, blocks, right=None, flip=False) -> SpectralSegment:
    """Eigenphase contraction t -> W e^{i (1-t) Theta} W* g from U g to g.

    Only the listed index blocks of the unitary ``entries`` are
    decomposed; off them the basis is the identity and the phases zero.
    Eigenphases lie in (-pi, pi]; those within 1e-12 of the cut at -pi
    move to +pi and are counted in the label.  Columns of phase exactly
    zero never move: they go straight into C, block by block.  The right
    factor g (default 1) is folded into R and C once.  ``window`` may
    exceed ``entries``: the blocks index into both.
    """
    d = window.dimension
    const = np.eye(d, dtype=np.complex128) if right is None else right.astype(np.complex128)
    lefts, rights, moving = [], [], []
    ties = 0
    for idx in blocks:
        idx = np.array(sorted(idx), dtype=np.intp)
        schur_t, q = scipy.linalg.schur(entries[np.ix_(idx, idx)], output="complex")
        phases = np.angle(np.diag(schur_t))
        tied = phases <= (-np.pi + BRANCH_TIE)
        phases = np.where(tied, phases + 2.0 * np.pi, phases)
        ties += int(tied.sum())
        live = phases != 0.0
        q_live, q_dead = q[:, live], q[:, ~live]
        fixed = q_dead @ q_dead.conj().T
        left = np.zeros((d, q_live.shape[1]), dtype=np.complex128)
        left[idx] = q_live
        if right is None:
            rows = left.conj().T
            const[np.ix_(idx, idx)] = fixed
        else:
            rows = q_live.conj().T @ right[idx]
            const[idx] = fixed @ right[idx]
        lefts.append(left)
        rights.append(rows)
        moving.append(phases[live])
    label = f"branch-ties:{ties}" if ties else ""
    z = 1j * np.concatenate(moving)
    return SpectralSegment(
        "log", window, np.hstack(lefts), z, np.vstack(rights), const, flip=flip, label=label
    )


def log_path(u: Operator) -> HomotopyPath:
    """Eigenphase contraction t -> W e^{i (1-t) Theta} W* from U to 1.

    The branch cut sits at -pi; eigenphases within 1e-12 of the cut are
    moved to +pi and the count is recorded in the segment label.
    """
    defect = u.unitarity_defect()
    if defect > TOL_BLOCK_FORM:
        raise UnitarityError(
            f"log path needs a unitary: defect {defect:.3e} > {TOL_BLOCK_FORM:.1e}"
        )
    seg = _log_segment(u.window, u.entries, [range(u.window.dimension)])
    eye = np.eye(u.window.dimension, dtype=np.complex128)
    return HomotopyPath((seg,), u.entries, eye)


def block_peel(m: Operator, p: Projection) -> tuple:
    """Factor M = (P + P⊥ M P⊥)(1 + P M P⊥) and the straightening path.

    Requires M to act as the identity out of P and to leave P⊥ alone
    up to the stated tolerance; the returned path runs from the first
    factor to the peelable part of M (their product), and the second
    factor's nilpotent part N = P M P⊥ satisfies N^2 = 0 exactly, so
    1 - t N inverts the moving factor on the nose.
    """
    if m.window != p.window:
        raise WindowMismatchError("operator and projection on different windows")
    pe = p.entries
    qe = np.eye(m.window.dimension, dtype=np.complex128) - pe
    me = m.entries
    r_fix = _residual_norm(pe @ me @ pe - pe, TOL_BLOCK_FORM)
    r_low = _residual_norm(qe @ me @ pe, TOL_BLOCK_FORM)
    if max(r_fix, r_low) > TOL_BLOCK_FORM:
        raise PreconditionError(
            "operator is not in block form over the projection: "
            f"|PMP - P| = {r_fix:.3e}, |P~MP| = {r_low:.3e}"
        )
    nil = pe @ me @ qe
    f1 = pe + qe @ me @ qe
    f2 = np.eye(m.window.dimension, dtype=np.complex128) + nil
    product = f1 @ f2
    peelable = pe + pe @ me @ qe + qe @ me @ qe
    residual = _fro(product - peelable)
    if residual > TOL_PRODUCT:
        raise StageError(
            "block-peel", f"factor product misses the block part by {residual:.3e}"
        )
    factors = (Operator(m.window, f1), Operator(m.window, f2))
    seg = AffineSegment("block_peel", m.window, f1, f1 + f1 @ nil)
    path = HomotopyPath((seg,), f1, product)
    return factors, path


def conjugation_path(q: Projection | Operator, upath: HomotopyPath) -> HomotopyPath:
    """t -> U_t* Q U_t along a unitary path starting at the identity."""
    q_entries = q.entries
    window = q.window
    if window != upath.window:
        raise WindowMismatchError("projection and unitary path on different windows")
    eye = np.eye(window.dimension, dtype=np.complex128)
    start_gap = _residual_norm(upath.at(0.0) - eye, TOL_BLOCK_FORM)
    if start_gap > TOL_BLOCK_FORM:
        raise PreconditionError(
            f"conjugation needs a unitary path from the identity; "
            f"start is {start_gap:.3e} away"
        )
    u1 = upath.at(1.0)
    seg = ConjugationSegment("conjugation", window, q_entries, upath)
    return HomotopyPath((seg,), q_entries, u1.conj().T @ q_entries @ u1)


# ---------------------------------------------------------------------------
# the stacked-isometry move


def _full_intertwiner(p: Projection, v_iso: GreedyIsometry) -> np.ndarray:
    """Rectangular map from the stacked window onto the base window.

    Stack-zero columns outside the matched region carry the complement
    projection; matched columns carry the greedy partial permutation.
    """
    amp = v_iso.window
    base = amp.base
    d = base.dimension
    v_full = np.zeros((d, amp.dimension), dtype=np.complex128)
    v_full[:, :d] = p.perp().entries
    for match in v_iso.matches:
        row = base.index_of(match.target)
        col = amp.index_of(match.stack, match.source)
        v_full[row, col] = 1.0
    return v_full


def block_unitary_homotopy(
    u: Operator,
    p: Projection,
    v_iso: GreedyIsometry,
    inner: HomotopyPath,
) -> HomotopyPath:
    """Path 1 -> U for a unitary acting as the identity on the range of P.

    The greedy isometry must cover the range of P exactly (every site of
    the matched region used as a target); the inner path supplies the
    contraction of U ⊕ 1 on the stacked window, and conjugating it by
    the intertwiner lands back on the base window with both endpoints
    pinned: Z_t = V W_t V* + (1 - V V*).
    """
    base = p.window
    if u.window != base:
        raise WindowMismatchError("operator and projection on different windows")
    amp = v_iso.window
    if not isinstance(amp, AmplifiedWindow) or amp.base != base:
        raise WindowMismatchError("isometry does not stack the projection's window")
    if inner.window != amp:
        raise WindowMismatchError("inner path must live on the stacked window")

    pe = p.entries
    qe = np.eye(base.dimension, dtype=np.complex128) - pe
    ue = u.entries
    r_fix = _residual_norm(pe @ ue @ pe - pe, TOL_BLOCK_FORM)
    r_up = _residual_norm(pe @ ue @ qe, TOL_BLOCK_FORM)
    r_low = _residual_norm(qe @ ue @ pe, TOL_BLOCK_FORM)
    worst = max(r_fix, r_up, r_low)
    if worst > TOL_BLOCK_FORM:
        raise PreconditionError(
            "operator does not act as the identity on the projection range: "
            f"|PUP - P| = {r_fix:.3e}, |PUP~| = {r_up:.3e}, |P~UP| = {r_low:.3e}"
        )

    v_full = _full_intertwiner(p, v_iso)
    vvh = v_full @ v_full.conj().T
    eye = np.eye(base.dimension, dtype=np.complex128)
    cover = _residual_norm(vvh - eye, TOL_ISOMETRY)
    if cover > TOL_ISOMETRY:
        raise PreconditionError(
            f"isometry range misses the window: |VV* - 1| = {cover:.3e}; "
            "every site of the matched region must be used as a target"
        )
    vhv = v_full.conj().T @ v_full
    partial = _residual_norm(vhv @ vhv - vhv, TOL_ISOMETRY)
    if partial > TOL_ISOMETRY:
        raise PreconditionError(
            f"intertwiner is not a partial isometry: defect {partial:.3e}"
        )

    eye_amp = np.eye(amp.dimension, dtype=np.complex128)
    target = eye_amp.copy()
    target[: base.dimension, : base.dimension] = ue
    start_gap = _residual_norm(inner.at(0.0) - eye_amp, TOL_BLOCK_FORM)
    end_gap = _residual_norm(inner.at(1.0) - target, TOL_BLOCK_FORM)
    if max(start_gap, end_gap) > TOL_BLOCK_FORM:
        raise PreconditionError(
            "inner path must run from the stacked identity to U ⊕ 1: "
            f"endpoint gaps ({start_gap:.3e}, {end_gap:.3e})"
        )

    complement = eye - vvh
    segments = tuple(seg.intertwined(base, v_full, complement) for seg in inner.segments)
    return HomotopyPath(segments, eye, ue)


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class CertifyConfig:
    """What to measure along a path.

    ``arc_pairs`` lists disjoint cone pairs for the locality defect; the
    block norm is taken outside a ball of ``allowance_radius`` (default
    half the window radius) so a fixed finite-rank part is exempt.
    ``index_base`` enables the integer index trace on projection paths.
    """

    samples: int = 50
    arc_pairs: tuple = ()
    allowance_radius: object = None
    index_base: Operator | None = None
    index_config: IndexConfig | None = None
    projection_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.samples < 2:
            raise PreconditionError("certification needs at least two samples")
        for pair in self.arc_pairs:
            if len(pair) != 2:
                raise PreconditionError("arc_pairs entries must be (row, col) arcs")
            if not arcs_disjoint(pair[0], pair[1]):
                raise PreconditionError("locality arcs must be disjoint")


@dataclass(frozen=True)
class CertificateReport:
    """Measured path quality; aggregates plus the per-sample series."""

    samples: int
    max_unitarity_defect: float
    min_singular_value: float
    max_locality_defect: float
    max_idempotency_defect: float
    index_trace: tuple
    endpoint_errors: tuple
    segment_stats: tuple
    series: tuple
    is_projection_path: bool

    def __post_init__(self) -> None:
        reals = (
            self.max_unitarity_defect,
            self.min_singular_value,
            self.max_locality_defect,
            self.max_idempotency_defect,
            *self.endpoint_errors,
        )
        if any(x < 0.0 for x in reals):
            raise PreconditionError("certificate reals must be non-negative")
        if len(self.endpoint_errors) != 2:
            raise PreconditionError("endpoint_errors is a pair")

    def to_json_dict(self) -> dict:
        return {
            "format": "certificate v1",
            "samples": self.samples,
            "max_unitarity_defect": self.max_unitarity_defect,
            "min_singular_value": self.min_singular_value,
            "max_locality_defect": self.max_locality_defect,
            "max_idempotency_defect": self.max_idempotency_defect,
            "index_trace": list(self.index_trace),
            "endpoint_errors": list(self.endpoint_errors),
            "segment_stats": [dict(s) for s in self.segment_stats],
            "is_projection_path": self.is_projection_path,
            "series_columns": list(self.series_columns()),
            "series": [list(row) for row in self.series],
        }

    @staticmethod
    def series_columns() -> tuple:
        return (
            "t",
            "unitarity_defect",
            "min_singular_value",
            "locality_defect",
            "idempotency_defect",
            "index",
        )

    def csv_rows(self):
        yield ",".join(self.series_columns())
        for t, unit, sv, loc, idem, idx in self.series:
            tail = "" if idx is None else str(int(idx))
            yield f"{t!r},{unit!r},{sv!r},{loc!r},{idem!r},{tail}"


def _locality_indices(window, arc: Arc, allowance) -> np.ndarray:
    rho2 = Fraction(allowance) * Fraction(allowance)
    picks = [
        i
        for i, x in enumerate(window.sites)
        if x != ORIGIN
        and Fraction(x[0] * x[0] + x[1] * x[1]) >= rho2
        and arc.contains(window.direction_at(x))
    ]
    return np.array(picks, dtype=np.intp)


def certify_path(path: HomotopyPath, config: CertifyConfig | None = None) -> CertificateReport:
    """Sample the path and measure everything the certificate promises.

    One Hermitian eigendecomposition per sample yields both the
    unitarity defect and the smallest singular value; the locality
    defect is the largest masked block norm over the configured cone
    pairs, taken outside the allowance ball.
    """
    config = config or CertifyConfig()
    window = path.window
    if config.arc_pairs:
        if not isinstance(window, TruncationWindow) or window.representation != "Z2":
            raise PreconditionError("locality arcs need a planar window")
        allowance = (
            config.allowance_radius
            if config.allowance_radius is not None
            else Fraction(window.radius) / 2
        )
        pair_indices = [
            (_locality_indices(window, row, allowance), _locality_indices(window, col, allowance))
            for row, col in config.arc_pairs
        ]
    else:
        pair_indices = []

    first = path.at(0.0)
    herm = _residual_norm(first - first.conj().T, config.projection_tol)
    idem = _residual_norm(first @ first - first, config.projection_tol)
    is_projection = herm <= config.projection_tol and idem <= config.projection_tol

    index_config = config.index_config or IndexConfig()
    index_method = "kernel_count" if index_config.cut_sites else "trace_formula"

    ts = np.linspace(0.0, 1.0, config.samples)
    series = []
    index_trace = []
    n_segs = len(path.segments)
    seg_unit = [0.0] * n_segs
    seg_sv = [math.inf] * n_segs
    seg_loc = [0.0] * n_segs
    seg_counts = [0] * n_segs
    max_unit = 0.0
    min_sv = math.inf
    max_loc = 0.0
    max_idem = 0.0
    for t in ts:
        entries = path.at(float(t))
        gram = entries.conj().T @ entries
        gram = 0.5 * (gram + gram.conj().T)
        eigs = np.linalg.eigvalsh(gram)
        unit = float(np.max(np.abs(eigs - 1.0)))
        sv = math.sqrt(max(float(eigs[0]), 0.0))
        loc = 0.0
        for rows, cols in pair_indices:
            if rows.size and cols.size:
                loc = max(loc, spectral_norm(entries[np.ix_(rows, cols)]))
        idem_defect = 0.0
        sample_index = None
        if is_projection:
            idem_defect = spectral_norm(entries @ entries - entries)
            if config.index_base is not None:
                pe = entries
                eye = np.eye(window.dimension, dtype=np.complex128)
                compressed = pe @ config.index_base.entries @ pe + (eye - pe)
                result = fredholm_index(
                    Operator(window, compressed), index_method, index_config
                )
                sample_index = result.value
                index_trace.append(result.value)
        seg = path.segment_of(float(t))
        seg_counts[seg] += 1
        seg_unit[seg] = max(seg_unit[seg], unit)
        seg_sv[seg] = min(seg_sv[seg], sv)
        seg_loc[seg] = max(seg_loc[seg], loc)
        max_unit = max(max_unit, unit)
        min_sv = min(min_sv, sv)
        max_loc = max(max_loc, loc)
        max_idem = max(max_idem, idem_defect)
        series.append((float(t), unit, sv, loc, idem_defect, sample_index))

    endpoint_errors = (
        spectral_norm(path.at(0.0) - path.declared_start),
        spectral_norm(path.at(1.0) - path.declared_end),
    )
    stats = tuple(
        {
            "kind": seg.kind,
            "label": seg.label,
            "reversed": seg.flip,
            "samples": seg_counts[i],
            "max_unitarity_defect": seg_unit[i],
            "min_singular_value": (None if seg_counts[i] == 0 else seg_sv[i]),
            "max_locality_defect": seg_loc[i],
        }
        for i, seg in enumerate(path.segments)
    )
    return CertificateReport(
        samples=config.samples,
        max_unitarity_defect=max_unit,
        min_singular_value=float(min_sv),
        max_locality_defect=max_loc,
        max_idempotency_defect=max_idem,
        index_trace=tuple(index_trace),
        endpoint_errors=endpoint_errors,
        segment_stats=stats,
        series=tuple(series),
        is_projection_path=is_projection,
    )


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass(frozen=True)
class PipelineConfig:
    """Choices for the unitary-to-identity pipeline."""

    thetas: tuple = (Direction(1, 0), Direction(0, 1))
    copies: int = 1
    certify: CertifyConfig | None = None

    def __post_init__(self) -> None:
        if not self.thetas:
            raise PreconditionError("the pipeline needs at least one direction")
        if self.copies < 1:
            raise PreconditionError("the stacked move needs at least one extra copy")


def theorem1_pipeline(
    u: Operator, eps: float, config: PipelineConfig | None = None
) -> tuple:
    """Deform a localizable unitary to the identity and certify the path.

    Stages: straight line onto the surgically deformed operator, a
    per-block rotation that straightens the confined columns, a short
    normalization line, the reversed block peel, the polar climb back
    to the unitaries, and the reversed stacked-isometry move.  Any
    stage failure is re-raised with its stage name attached.
    """
    config = config or PipelineConfig()
    window = u.window
    if not isinstance(window, TruncationWindow) or window.representation != "Z2":
        raise PreconditionError("the pipeline runs on a planar window")
    defect = u.unitarity_defect()
    if defect > TOL_BLOCK_FORM:
        raise UnitarityError(f"pipeline input unitarity defect {defect:.3e}")
    if not 0.0 < eps < 1.0:
        raise PreconditionError("eps must lie in (0, 1) to keep the line invertible")
    dim = window.dimension
    eye = np.eye(dim, dtype=np.complex128)

    def stage(name, fn):
        try:
            return fn()
        except StageError:
            raise  # already carries the more precise inner stage name
        except OplabError as exc:
            raise StageError(name, str(exc)) from exc

    g, plan = stage("localized-centers", lambda: localized_centers(u, config.thetas, eps))
    delta = _residual_norm(u.entries - g.entries, 1.0 - 1e-12)
    if delta >= 1.0:
        raise StageError(
            "localized-centers", f"deformation size {delta:.3e} reaches 1"
        )
    seg_line = straight_line(u, g, label="onto-deformed")

    v = stage("corrective-unitary", lambda: corrective_unitary(g, plan))
    center_idx = [window.index_of(c) for c in plan.centers]
    block_indices = [
        [window.index_of(site) for site in block] for block in plan.ranges
    ]
    vg = v.entries @ g.entries
    seg = _log_segment(window, v.entries, block_indices, right=g.entries, flip=True)
    seg_correct = HomotopyPath((seg,), g.entries, vg)

    # snap each confined column to its basis vector so the peel
    # precondition is exact (the corrective rotation already left it
    # within 1e-10 of a multiple of that vector)
    peelable = vg.copy()
    for i in center_idx:
        peelable[:, i] = 0.0
        peelable[i, i] = 1.0
    m_op = Operator(window, peelable)
    seg_norm = straight_line(Operator(window, vg), m_op, label="normalize-centers")

    p_centers = Projection.from_region(Explicit(frozenset(plan.centers)), window)
    factors, peel = stage("block-peel", lambda: block_peel(m_op, p_centers))
    seg_peel = peel.reverse()

    f1 = factors[0]
    seg_polar = stage("polar", lambda: polar_path(f1))
    w_pol = Operator(window, seg_polar.declared_end)

    v_iso = stage(
        "greedy-isometry",
        lambda: greedy_isometry(
            Explicit(frozenset(plan.centers)),
            config.copies,
            window,
            require_ray_dense=False,
        ),
    )
    amp = v_iso.window
    perp_idx = [i for i in range(dim) if i not in set(center_idx)]
    target = np.eye(amp.dimension, dtype=np.complex128)
    target[:dim, :dim] = w_pol.entries
    seg = _log_segment(amp, w_pol.entries, [perp_idx], flip=True)
    inner = HomotopyPath((seg,), np.eye(amp.dimension, dtype=np.complex128), target)
    bu = stage(
        "block-unitary",
        lambda: block_unitary_homotopy(w_pol, p_centers, v_iso, inner),
    )
    seg_absorb = bu.reverse()

    path = HomotopyPath(
        seg_line.segments
        + seg_correct.segments
        + seg_norm.segments
        + seg_peel.segments
        + seg_polar.segments
        + seg_absorb.segments,
        u.entries,
        eye,
    )
    report = certify_path(path, config.certify or CertifyConfig())
    return path, report
