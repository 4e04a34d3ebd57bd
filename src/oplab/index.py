"""Fredholm index estimators on truncation windows.

The central quantity is the integer attached to a projection P and a
unitary-like base operator B: the index of the compression P B P + P⊥.
On a finite window that operator always has equal-dimensional kernel and
cokernel, so the infinite-volume index survives only through *where* the
near-kernel vectors live.  Vectors pinned to the structural cut carry
the signal; vectors pinned to the window edge are truncation artifacts
and are discarded.  Two estimators read the index: the kernel count
locates the near-kernel vectors themselves, and the trace formula
ind T = tr(1 - T*T)^m - tr(1 - TT*)^m sums the isometry defects over
the window's interior.  ``auto`` cross-checks the first with the second.

The compression is built in one place, ``_compressed``, as its nonzero
list: from P as a diagonal off a site set S plus a block on S x S, and
from B's nonzero list, with no d x d array unless S is the whole
window.  Every operator is read once, through its nonzero list
(``Operator.nonzero``: the list an operator such as the shift is built
as, or one scan of a dense operator's entries), into its lone pairs
(entries alone in their row and their column, which are 1 x 1 blocks of
their own) plus the square core left on the other rows and columns.
That one split feeds the kernel count, the trace formula, the defect
diagnostics and the projection index's base check, so each costs a
pass over the nonzero entries and dense work on the core alone.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryContaminationError,
    MethodDisagreementError,
    PreconditionError,
    RepresentationError,
)
from .geometry import ORIGIN, Explicit, Site
from .operators import (
    Operator,
    Projection,
    _laurent_apply,
    adjoints,
    block_stacks,
    components,
    shift_operator,
    spectral_norm,
    squared_moduli,
)
from .windows import TruncationWindow

STRUCTURAL_TOL = 1e-12
GAP_FACTOR = 1e3  # no singular value may lie in [sv_threshold, GAP_FACTOR sv_threshold)
COMPACT_FLOOR = 1e-3  # a probe's far minimum below it flags its side as compact


# ---------------------------------------------------------------------------
# configuration and results


@dataclass(frozen=True)
class IndexConfig:
    """Knobs for the estimators; every value is echoed into diagnostics,
    with the fixed ``COMPACT_FLOOR`` and ``GAP_FACTOR``.

    ``cut_sites`` names the structural cut locus when the caller knows it
    (mid-path projections no longer carry a region).  When empty it is
    derived from the projection's region where possible.
    """

    sv_threshold: float = 1e-6
    trace_power: int = 4
    buffer: float = 0.25
    cut_radius: float | None = None
    cut_sites: tuple = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.sv_threshold < 1.0:
            raise PreconditionError("sv_threshold must lie in (0, 1)")
        if self.trace_power < 1:
            raise PreconditionError("trace_power must be a positive integer")
        if not 0.0 <= self.buffer < 1.0:
            raise PreconditionError("buffer must lie in [0, 1)")

    def resolved_cut_radius(self, window: TruncationWindow) -> float:
        if self.cut_radius is not None:
            return float(self.cut_radius)
        return float(window.radius) / 4.0

    def echo(self) -> dict:
        return {
            "sv_threshold": self.sv_threshold,
            "trace_power": self.trace_power,
            "compact_floor": COMPACT_FLOOR,
            "buffer": self.buffer,
            "cut_radius": self.cut_radius,
            "gap_factor": GAP_FACTOR,
        }


DEFAULT_INDEX_CONFIG = IndexConfig()

_METHODS = ("kernel_count", "trace_formula")


@dataclass(frozen=True)
class IndexResult:
    value: int
    method: str
    diagnostics: dict

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise PreconditionError(f"unknown index method {self.method!r}")

    def to_json_dict(self) -> dict:
        return {
            "format": "indexresult v1",
            "value": self.value,
            "method": self.method,
            "diagnostics": _jsonable(self.diagnostics),
        }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


# ---------------------------------------------------------------------------
# site geometry helpers


def _site_vector(site: Site) -> tuple:
    if isinstance(site, int):
        return (site, 0)
    return site


def _distances(coords: np.ndarray, site: Site) -> np.ndarray:
    """Euclidean distance from every row of ``coords`` to ``site``.

    The squared distances are exact integers, so each square root is
    correctly rounded: the same float ``math.hypot`` gives.
    """
    delta = coords - np.array(_site_vector(site))
    return np.sqrt((delta * delta).sum(axis=1).astype(float))


def interior_mask(window: TruncationWindow, buffer: float) -> np.ndarray:
    """Sites at distance >= buffer * radius from the window boundary."""
    limit = (1.0 - buffer) * float(window.radius)
    return _distances(window.coordinates, ORIGIN) <= limit


def _cut_neighborhood_mask(
    window: TruncationWindow, cut_sites: tuple, cut_radius: float
) -> np.ndarray:
    """Sites within ``cut_radius`` of some cut site."""
    mask = np.zeros(window.dimension, dtype=bool)
    for cut in cut_sites:
        mask |= _distances(window.coordinates, cut) <= cut_radius
    return mask


def _masks(window, config: IndexConfig) -> tuple:
    """(interior, cut neighborhood): the site masks the estimators read,
    which depend only on the window and the config, so a caller reading
    many operators on one window computes them once."""
    if not isinstance(window, TruncationWindow):
        raise PreconditionError("index estimation needs a plain truncation window")
    return (
        interior_mask(window, config.buffer),
        _cut_neighborhood_mask(
            window, tuple(config.cut_sites), config.resolved_cut_radius(window)
        ),
    )


def cut_interface(p: Projection) -> tuple:
    """Sites on either side of the projection's 0/1 boundary.

    Only in-window neighbor flips count, so a region edge that coincides
    with the window edge contributes nothing: that boundary is an
    artifact of truncation, not a cut.  The window's coordinates are laid
    on a grid with a one-site border of -1 (no site), so each of the four
    lattice steps is one lookup for every site at once; a line window
    sits on one row of the grid, so only its two steps along the row can
    meet a site.
    """
    mask = p.diagonal_mask()
    if mask is None:
        raise PreconditionError(
            "cut interface needs an exact 0/1 diagonal projection"
        )
    window = p.window
    if not isinstance(window, TruncationWindow):
        raise PreconditionError("cut interface needs a plain truncation window")
    at = window.coordinates - window.coordinates.min(axis=0) + 1
    grid = np.full(tuple(at.max(axis=0) + 2), -1, dtype=np.intp)
    grid[at[:, 0], at[:, 1]] = np.arange(window.dimension)
    flips = np.zeros(window.dimension, dtype=bool)
    for step in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        nb = grid[at[:, 0] + step[0], at[:, 1] + step[1]]
        flips |= (nb >= 0) & (mask[nb] != mask)
    # basis order is the canonical site order
    return tuple(window.sites[i] for i in np.flatnonzero(flips))


# ---------------------------------------------------------------------------
# the split and the two estimators


@dataclass(frozen=True)
class _Split:
    """A square matrix read once: its lone pairs plus a square core.

    A lone pair is an entry alone in both its row and its column.  The
    matrix is the direct sum of the pairs' 1 x 1 blocks and the core
    entries[core_rows][:, core_cols] on the rows and columns no pair
    holds, so every quantity the estimators read splits the same way:
    the singular values, the isometry defects and their powers.
    ``nonzero`` holds every nonzero entry as (rows, cols, values) in
    row-major order, ``pairs`` the lone ones in the same form.
    """

    nonzero: tuple
    pairs: tuple
    core_rows: np.ndarray
    core_cols: np.ndarray
    core: np.ndarray


def _split(nonzero: tuple, d: int) -> _Split:
    """Split a d x d matrix given by its nonzero list; an entry is a lone
    pair when the nonzero counts of its row and its column are both 1.
    Every other entry lies on a core row and a core column."""
    rows, cols, values = nonzero
    lone = (np.bincount(rows, minlength=d)[rows] == 1) & (
        np.bincount(cols, minlength=d)[cols] == 1
    )
    core_rows = np.flatnonzero(np.bincount(rows[lone], minlength=d) == 0)
    core_cols = np.flatnonzero(np.bincount(cols[lone], minlength=d) == 0)
    core = np.zeros((core_rows.size, core_cols.size), dtype=values.dtype)
    rest = ~lone
    at_row = np.searchsorted(core_rows, rows[rest])
    at_col = np.searchsorted(core_cols, cols[rest])
    core[at_row, at_col] = values[rest]
    return _Split(
        nonzero=nonzero,
        pairs=(rows[lone], cols[lone], values[lone]),
        core_rows=core_rows,
        core_cols=core_cols,
        core=core,
    )


@dataclass(frozen=True)
class _Masked:
    """T as ``_compressed`` builds it, an operator held as its nonzero
    list, with the window's ``masks`` (``_masks``) for the config it is
    read under."""

    operator: Operator
    masks: tuple


def _compressed(
    window, diag: np.ndarray, sites: np.ndarray, block: np.ndarray, base: tuple, masks: tuple
) -> _Masked:
    """T = P B P + 1 - P as its nonzero list, with no d x d array unless
    S is the whole window.  P is ``diag`` off the sorted site set S =
    ``sites`` and ``block`` on S x S; B is its nonzero list ``base``.
    ``masks`` are carried on T for the estimators.

    A row or column of P off S is p_i e_i, so B is only scaled there and
    the products run through the block, in the dense product's order:
    T_ij = (p_i B_ij) p_j off S, PB = block @ B[S, :] on the rows in S,
    T[:, S] = PB[:, S] @ block on the columns in S, then 1 - p added on
    the diagonal and the block taken off S x S.  Each entry is rounded
    as that product rounds it.  A 0/1 mask is S empty; a P with no
    structure is S = every site.
    """
    d = diag.size
    rows, cols, values = base
    at = np.full(d, -1)
    at[sites] = np.arange(sites.size)
    row_in, col_in = at[rows] >= 0, at[cols] >= 0
    outside = np.flatnonzero(at < 0)
    # PB: p_i B_ij on the rows off S, block @ B[S, :] on the rows in S
    scaled = diag[rows] * values
    b_rows = np.zeros((sites.size, d), dtype=values.dtype)
    b_rows[at[rows[row_in]], cols[row_in]] = values[row_in]
    pb_rows = block @ b_rows
    # off S: (p_i B_ij) p_j, and 1 - p_i on the diagonal
    off = ~row_in & ~col_in
    off_rows, off_cols = rows[off], cols[off]
    off_values = scaled[off] * diag[off_cols]
    on_diagonal = off_rows == off_cols
    diagonal = np.zeros(outside.size, dtype=off_values.dtype)
    diagonal[np.searchsorted(outside, off_rows[on_diagonal])] = off_values[on_diagonal]
    diagonal += 1.0 - diag[outside]
    # the columns in S, through the block
    pb_cols = np.zeros((d, sites.size), dtype=np.result_type(scaled, pb_rows))
    edge = ~row_in & col_in
    pb_cols[rows[edge], at[cols[edge]]] = scaled[edge]
    pb_cols[sites] = pb_rows[:, sites]
    t_s = pb_cols @ block
    t_s[sites, np.arange(sites.size)] += 1.0 - diag[sites]
    t_s[sites] -= block
    parts = (
        (off_rows[~on_diagonal], off_cols[~on_diagonal], off_values[~on_diagonal]),
        (outside, outside, diagonal),
        (
            np.repeat(sites, outside.size),
            np.tile(outside, sites.size),
            (pb_rows[:, outside] * diag[outside]).ravel(),
        ),
        (np.repeat(np.arange(d), sites.size), np.tile(sites, d), t_s.ravel()),
    )
    t_rows, t_cols, t_values = (np.concatenate(part) for part in zip(*parts))
    keep = np.flatnonzero(t_values != 0)
    # each part is row-major already, so the stable sort merges four runs
    order = keep[np.argsort(t_rows[keep] * d + t_cols[keep], kind="stable")]
    t = Operator._of_nonzero(window, t_rows[order], t_cols[order], t_values[order], {})
    return _Masked(t, masks)


def _pair_defects(split: _Split) -> np.ndarray:
    """1 - |v|^2 of each lone pair: its 1 x 1 block of 1 - T*T, at its
    column, and of 1 - TT*, at its row."""
    return 1.0 - squared_moduli(split.pairs[2])


def _defects(entries: np.ndarray) -> tuple:
    """1 - C*C and 1 - CC* of a square block C, for the trace formula
    and the base check, formed per connected component of C's row-column
    pattern.  The estimators pass the core ``_split`` leaves, the lone
    pairs' 1 x 1 blocks being read off ``_pair_defects``.

    Row i and column j are linked when C_ij is nonzero (the components
    of [[0, C], [0, 0]], rows first).  A component with rows R and
    columns K holds all of C's mass in those rows and columns, so C*C is
    block diagonal over the column groups with blocks C[R, K]* C[R, K],
    and CC* over the row groups with blocks C[R, K] C[R, K]*; an empty
    column or row is a component on its own and keeps its 1.  Blocks of
    one shape take one stacked product.
    """
    d = entries.shape[0]
    pattern = np.zeros((2 * d, 2 * d), dtype=bool)
    pattern[:d, d:] = entries != 0
    # every row and column lies in one component, so the blocks cover
    # the whole diagonal; entries between components stay 0
    right = np.zeros((d, d), dtype=np.result_type(entries, float))
    left = np.zeros_like(right)
    for stack in block_stacks(components(pattern)):
        n_rows = np.count_nonzero(stack < d, axis=1)
        for r in np.unique(n_rows):
            part = stack[n_rows == r]  # sorted, so each part's rows come first
            rows, cols = part[:, :r], part[:, r:] - d
            blocks = entries[rows[:, :, None], cols[:, None, :]]
            _fill_defect(right, cols, adjoints(blocks) @ blocks)
            _fill_defect(left, rows, blocks @ adjoints(blocks))
    return right, left


def _fill_defect(out: np.ndarray, sites: np.ndarray, grams: np.ndarray) -> None:
    """Write 1 - G onto the diagonal blocks out[s, s] of a stack of site sets."""
    out[sites[:, :, None], sites[:, None, :]] = np.eye(sites.shape[1]) - grams


def _defect_diagnostics(split: _Split, window, inside: np.ndarray) -> dict:
    """Where the isometry defects of T sit, against the interior mask
    ``inside``.  The diagonals of 1 - T*T and 1 - TT* are 1 minus the
    squared column and row norms of T."""
    rows, cols, values = split.nonzero
    squares = squared_moduli(values)
    mass = np.abs(1.0 - np.bincount(cols, squares, window.dimension))
    mass += np.abs(1.0 - np.bincount(rows, squares, window.dimension))
    total = float(mass.sum())
    fraction = float(mass[inside].sum()) / total if total > STRUCTURAL_TOL else 0.0
    return {
        "defect_mass_total": total,
        "defect_mass_interior_fraction": fraction,
        "interior_sites": int(inside.sum()),
    }


def _count_localized(vectors: np.ndarray, cut_mask: np.ndarray) -> tuple:
    """Count vectors with >= 90% mass near the cut; the rest are edge noise.

    The per-vector rule is basis dependent inside a degenerate near-kernel
    cluster, so the basis-invariant total cut mass is computed alongside
    and the two must agree, else the split is genuinely ambiguous.
    """
    fractions = []
    for v in vectors:
        weights = np.abs(v) ** 2
        total = float(weights.sum())
        fractions.append(float(weights[cut_mask].sum()) / total if total else 0.0)
    count = sum(1 for f in fractions if f >= 0.9)
    invariant = float(sum(fractions))
    if abs(invariant - count) > 0.1:
        raise BoundaryContaminationError(
            "near-kernel mass is split between the cut and the window edge "
            f"(localized count {count}, invariant mass {invariant:.3f}); "
            "enlarge the window"
        )
    return count, tuple(fractions)


def _kernel_index(
    split: _Split, window, cut_sites, config: IndexConfig, cut_mask: np.ndarray
) -> IndexResult:
    """Count near-kernel vectors of T and T* pinned to the cut, the
    sites of ``cut_mask``.

    A lone pair T_ij is a 1 x 1 block of T, so |T_ij| is a singular
    value with right vector e_j and left vector e_i.  Only the square
    core goes through the SVD; its singular vectors are embedded back
    into the window.  The gap check and the localization count then see
    the singular values of the whole T in descending order, as a full
    SVD lists them.
    """
    d = window.dimension
    pair_rows, pair_cols, values = split.pairs
    u, s_core, vh = np.linalg.svd(split.core)
    s = np.concatenate((s_core, np.abs(values)))
    thr = config.sv_threshold
    in_gap = s[(s >= thr) & (s < thr * GAP_FACTOR)]
    if in_gap.size:
        raise BoundaryContaminationError(
            f"{in_gap.size} singular value(s) inside the threshold gap "
            f"[{thr:.1e}, {thr * GAP_FACTOR:.1e}), smallest "
            f"{float(in_gap.min()):.3e}; enlarge the window"
        )
    order = np.argsort(-s, kind="stable")
    near = order[s[order] < thr]
    # rows of vh conjugated are the right singular vectors (kernel of T);
    # columns of u are the left ones (kernel of the adjoint)
    right = np.zeros((near.size, d), dtype=np.complex128)
    left = np.zeros((near.size, d), dtype=np.complex128)
    for n, k in enumerate(near):
        if k < s_core.size:
            right[n, split.core_cols] = vh[k].conj()
            left[n, split.core_rows] = u[:, k]
        else:
            right[n, pair_cols[k - s_core.size]] = 1.0
            left[n, pair_rows[k - s_core.size]] = 1.0
    kernel_count, kernel_fracs = _count_localized(right, cut_mask)
    coker_count, coker_fracs = _count_localized(left, cut_mask)
    value = kernel_count - coker_count
    diagnostics = {
        "near_singular_values": tuple(float(x) for x in s[near]),
        "kernel_cut_fractions": kernel_fracs,
        "cokernel_cut_fractions": coker_fracs,
        "kernel_at_cut": kernel_count,
        "cokernel_at_cut": coker_count,
        "core_dim": int(split.core_rows.size),
        "pairs_stripped": int(pair_rows.size),
        "cut_sites": tuple(cut_sites),
        "config": config.echo(),
    }
    return IndexResult(value, "kernel_count", diagnostics)


def _power_diagonal(d: np.ndarray, m: int) -> np.ndarray:
    """Real diagonal of D^m, with the power taken on D's nonzero support.

    A site whose row and column of D vanish stays decoupled in every
    power, so D^m is (D_SS)^m on the support S and exactly zero elsewhere.
    """
    support = np.flatnonzero(np.any(d, axis=0) | np.any(d, axis=1))
    out = np.zeros(d.shape[0])
    block = np.linalg.matrix_power(d[np.ix_(support, support)], m)
    out[support] = np.diag(block).real
    return out


def _trace_index(split: _Split, window, config: IndexConfig, inside: np.ndarray) -> IndexResult:
    """tr(1 - T*T)^m - tr(1 - TT*)^m over the interior sites ``inside``.  Each
    power is block diagonal like its defect, so its diagonal is the
    pairs' (1 - |v|^2)^m at their columns (rows) and the core's at the
    core's columns (rows)."""
    m = config.trace_power
    pair_rows, pair_cols, _ = split.pairs
    # the pairs' powers as 1 x 1 matrix powers, rounded as the core's are
    pair_powers = np.linalg.matrix_power(_pair_defects(split)[:, None, None], m)[:, 0, 0]
    traces = []
    for pair_sites, core_sites, core_defect in zip(
        (pair_cols, pair_rows), (split.core_cols, split.core_rows), _defects(split.core)
    ):
        diagonal = np.zeros(window.dimension)
        diagonal[pair_sites] = pair_powers
        diagonal[core_sites] = _power_diagonal(core_defect, m)
        traces.append(float(diagonal[inside].sum()))
    tr_right, tr_left = traces
    raw = tr_right - tr_left
    value = int(round(raw))
    residual = abs(raw - value)
    if residual > 0.1:
        raise BoundaryContaminationError(
            f"interior defect trace {raw:.4f} is not decisively integral; "
            "enlarge the window"
        )
    diagnostics = {
        "trace_right": tr_right,
        "trace_left": tr_left,
        "trace_raw": raw,
        "trace_residual": residual,
        "interior_sites": int(inside.sum()),
        "config": config.echo(),
    }
    return IndexResult(value, "trace_formula", diagnostics)


def fredholm_index(
    t: Operator | _Masked, method: str = "auto", config: IndexConfig | None = None
) -> IndexResult:
    """Index of an essentially-unitary-like operator on its window.

    ``kernel_count`` needs a cut locus (``config.cut_sites``) to
    separate signal from edge artifacts; ``trace_formula`` needs only
    the interior mask.  ``auto`` counts kernels and cross-checks with
    the trace formula; a mismatch raises rather than guessing.

    T is an ``Operator``, read through its nonzero list
    (``Operator.nonzero``), whose window masks (``_masks``) are computed
    here, or T as ``_compressed`` builds it, which carries the masks.
    The list is split once, by ``_split``, into its lone pairs and a
    square core, and every reading takes that split: the kernel count
    runs its SVD on the core alone, the trace formula reads the pairs'
    1 x 1 defects and forms the core's defects per connected component
    (see ``_defects``), and the defect diagnostics sum squares over the
    nonzero entries.  A weighted partial permutation has an all-zero
    core; an irreducible T is one whole-window core.
    """
    config = config or DEFAULT_INDEX_CONFIG
    if isinstance(t, _Masked):
        t, (inside, cut_mask) = t.operator, t.masks
    else:
        inside, cut_mask = _masks(t.window, config)
    window = t.window
    split = _split(t.nonzero(), window.dimension)
    cut_sites = tuple(config.cut_sites)

    if method in ("auto", "kernel_count"):
        result = _kernel_index(split, window, cut_sites, config, cut_mask)
    elif method == "trace_formula":
        result = _trace_index(split, window, config, inside)
    else:
        raise PreconditionError(f"unknown index method {method!r}")
    if method == "auto":
        check = _trace_index(split, window, config, inside)
        if check.value != result.value:
            raise MethodDisagreementError(
                f"{result.method} gives {result.value} but trace_formula "
                f"gives {check.value}"
            )
        result.diagnostics["cross_check"] = {
            "method": "trace_formula",
            "value": check.value,
            "trace_raw": check.diagnostics["trace_raw"],
        }

    result.diagnostics.update(_defect_diagnostics(split, window, inside))
    return result


# ---------------------------------------------------------------------------
# projection index


def _gathered(split: _Split, pick: np.ndarray) -> np.ndarray:
    """The picked nonzero entries as a dense block on their distinct
    rows and columns, ascending: the nonzero block of the matrix they
    span, which has the same singular values."""
    rows, cols, values = (part[pick] for part in split.nonzero)
    row_sites, at_row = np.unique(rows, return_inverse=True)
    col_sites, at_col = np.unique(cols, return_inverse=True)
    block = np.zeros((row_sites.size, col_sites.size), dtype=values.dtype)
    block[at_row, at_col] = values
    return block


def projection_index(
    p: Projection,
    base: Operator,
    method: str = "auto",
    config: IndexConfig | None = None,
) -> IndexResult:
    """Index of P * base * P + P⊥ with the cut locus derived from P.

    The base is read once, through its nonzero list
    (``Operator.nonzero``), into its ``_split``; the shift is built as
    that list, so no d x d base is formed or scanned.
    Its defects 1 - B*B and 1 - BB* are the pairs' 1 x 1 blocks plus
    the core's, so each norm below is the larger of the pairs'
    |1 - |v|^2| and the core's.  T is built from B's nonzero list as a
    nonzero list (``_compressed``): a 0/1 mask P is a diagonal with no
    block, any other P one block on every site.  With a mask the
    commutator is taken from B's entries that cross it.  The window
    masks are computed once, for the config that holds P's cut, and
    carried on T.
    """
    config = config or DEFAULT_INDEX_CONFIG
    if p.window != base.window:
        raise PreconditionError("projection and base live on different windows")
    d = p.window.dimension
    mask = p.diagonal_mask()
    if mask is not None and not config.cut_sites:
        config = dataclasses.replace(config, cut_sites=cut_interface(p))
    masks = _masks(p.window, config)
    # the open-boundary shift is unitary-like in the only sense available
    # at finite scale: its isometry defect is confined to the window edge
    b = _split(base.nonzero(), d)
    pair_rows, pair_cols, _ = b.pairs
    pair_defects = np.abs(_pair_defects(b))
    core_right, core_left = _defects(b.core)
    inside = masks[0]
    in_rows, in_cols = inside[b.core_rows], inside[b.core_cols]
    defect = max(
        float(pair_defects[inside[pair_cols] | inside[pair_rows]].max(initial=0.0)),
        spectral_norm(core_right[np.ix_(in_cols, in_cols)]),
        spectral_norm(core_left[np.ix_(in_rows, in_rows)]),
    )
    if defect > 1e-6:
        raise PreconditionError(
            f"base operator is not unitary-like away from the edge: "
            f"interior defect {defect:.3e}"
        )
    if mask is None:
        diag, sites, block = np.zeros(d), np.arange(d), p.entries
        be, pe = base.entries, p.entries
        commutator = spectral_norm(pe @ be - be @ pe)
    else:
        diag, sites, block = mask.astype(float), np.arange(0), np.zeros((0, 0))
        rows, cols, _ = b.nonzero
        row_on, col_on = mask[rows], mask[cols]
        # PB - BP keeps only the two blocks between P and P⊥ (with
        # opposite signs), so its singular values are theirs together
        commutator = max(
            spectral_norm(_gathered(b, row_on & ~col_on)),
            spectral_norm(_gathered(b, ~row_on & col_on)),
        )
    compressed = _compressed(p.window, diag, sites, block, b.nonzero, masks)
    result = fredholm_index(compressed, method, config)
    result.diagnostics["base_interior_defect"] = defect
    # 1 - B*B is Hermitian, so its norm is max |lambda - 1| over B*B
    result.diagnostics["base_unitarity_defect"] = max(
        float(pair_defects.max(initial=0.0)), spectral_norm(core_right)
    )
    result.diagnostics["commutator_norm"] = commutator
    return result


def index_k_projection(k: int, window: TruncationWindow) -> tuple:
    """Shift-representation pair (base, P) whose projection index is k."""
    if window.representation != "Z":
        raise RepresentationError("the shift representation lives on a line window")
    if abs(k) > float(window.radius) / 4.0:
        raise PreconditionError(
            f"|k| = {abs(k)} needs a window radius of at least {4 * abs(k)} "
            "for clean counting"
        )
    base = shift_operator(window, -k, "open")
    half_line = Explicit(frozenset(x for x in window.sites if x >= 1))
    return base, Projection.from_region(half_line, window)


# ---------------------------------------------------------------------------
# non-triviality probes


@dataclass(frozen=True)
class ProbeRecord:
    fn: int
    site: Site
    in_region: bool
    p_side: float
    perp_side: float


@dataclass(frozen=True)
class NontrivialityReport:
    """Column norms of both compressions of f(base) at interior probes.

    A side whose far-probe minimum falls below the compact floor behaves
    like a compact operator there, so the projection is flagged as a
    triviality suspect for that function.  A side that no probe lands
    on has no minimum (None) and is listed in ``unreached`` as (fn,
    side): it carries no evidence either way, and is not a pass.
    """

    records: tuple
    minima: tuple
    trivial_suspect: tuple
    unreached: tuple
    degenerate: tuple
    sup_norms: tuple
    compact_floor: float

    def __post_init__(self) -> None:
        for rec in self.records:
            bound = self.sup_norms[rec.fn] + 1e-9
            if not (0.0 <= rec.p_side <= bound and 0.0 <= rec.perp_side <= bound):
                raise PreconditionError(
                    f"probe norm outside [0, sup norm] for fn {rec.fn} at {rec.site}"
                )

    def minimum(self, fn: int, side: str) -> float | None:
        for rec_fn, rec_side, value in self.minima:
            if rec_fn == fn and rec_side == side:
                return value
        return None

    def is_trivial_suspect(self, fn: int, side: str | None = None) -> bool:
        if side is None:
            return any(rec_fn == fn for rec_fn, _ in self.trivial_suspect)
        return (fn, side) in self.trivial_suspect

    def to_json_dict(self) -> dict:
        return {
            "format": "nontrivialityreport v2",
            "records": [
                {
                    "fn": r.fn,
                    "site": _jsonable(_site_vector(r.site)),
                    "in_region": r.in_region,
                    "p_side": r.p_side,
                    "perp_side": r.perp_side,
                }
                for r in self.records
            ],
            "minima": [
                {"fn": fn, "side": side, "value": value}
                for fn, side, value in self.minima
            ],
            "trivial_suspect": [list(pair) for pair in self.trivial_suspect],
            "unreached": [list(pair) for pair in self.unreached],
            "degenerate": list(self.degenerate),
            "sup_norms": list(self.sup_norms),
            "compact_floor": self.compact_floor,
        }


def nontriviality_probe(
    p: Projection,
    base: Operator,
    fns,
    probes,
    config: IndexConfig | None = None,
) -> NontrivialityReport:
    """Measure ||P f(base) P delta_x|| and the complementary norm.

    f(base) is the truncated Laurent evaluation, so the base may be an
    open-boundary partial isometry; probes must sit deep enough inside
    the window that truncation does not starve the columns.
    """
    config = config or DEFAULT_INDEX_CONFIG
    fns = tuple(fns)
    probes = tuple(probes)
    if not fns or not probes:
        raise PreconditionError("need at least one circle function and one probe")
    window = p.window
    if not isinstance(window, TruncationWindow):
        raise PreconditionError("probes need a plain truncation window")
    limit = (1.0 - config.buffer) * float(window.radius)
    too_far = [s for s in probes if math.hypot(*_site_vector(s)) > limit]
    if too_far:
        raise PreconditionError(
            f"probes {too_far!r} are within the boundary buffer "
            f"(distance > {limit:.2f})"
        )
    pe = p.entries
    qe = np.eye(window.dimension) - pe
    mask = p.diagonal_mask()

    records = []
    minima = []
    suspects = []
    unreached = []
    degenerate = []
    sup_norms = tuple(f.sup_norm() for f in fns)
    for fi, f in enumerate(fns):
        if f.is_zero:
            degenerate.append(fi)
        fmat = _laurent_apply(f, base.entries)
        p_values, q_values = [], []
        for site in probes:
            idx = window.index_of(site)
            if mask is not None:
                in_region = bool(mask[idx])
            else:
                in_region = float(np.linalg.norm(pe[:, idx])) > 0.5
            p_side = float(np.linalg.norm(pe @ (fmat @ pe[:, idx])))
            perp_side = float(np.linalg.norm(qe @ (fmat @ qe[:, idx])))
            records.append(ProbeRecord(fi, site, in_region, p_side, perp_side))
            (p_values if in_region else q_values).append(
                p_side if in_region else perp_side
            )
        for side, values in (("P", p_values), ("Pperp", q_values)):
            low = min(values) if values else None
            minima.append((fi, side, low))
            if low is None:
                unreached.append((fi, side))
            elif low < COMPACT_FLOOR:
                suspects.append((fi, side))
    return NontrivialityReport(
        records=tuple(records),
        minima=tuple(minima),
        trivial_suspect=tuple(suspects),
        unreached=tuple(unreached),
        degenerate=tuple(degenerate),
        sup_norms=sup_norms,
        compact_floor=COMPACT_FLOOR,
    )
