"""Matrix surgery: controlled deletion of blocks and the unitaries that
clean up after it.

The deletion series removes a family of masked blocks from an operator
while keeping the total perturbation under an explicit budget.  On top
of it sit the localized-centers construction (confine each chosen
column to a finite range inside its own shell), the corrective unitary
that rotates each confined column back onto its center coordinate, and
the greedy partial isometry used to compare projections across stacked
window copies.

Every inequality promised here is recomputed from the raw matrices at
run time; violations raise instead of propagating silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .errors import PreconditionError, StageError
from .geometry import (
    ORIGIN,
    Arc,
    Ball,
    Complement,
    Cone,
    Direction,
    Explicit,
    Region,
    RegionUnion,
    arcs_disjoint,
    direction_of,
    region_mask,
)
from .locality import CentersPlan, annulus_confine, cone_split
from .operators import (
    Operator,
    Projection,
    norm_at_most,
    norm_bracket,
    spectral_norm,
    unitarity_defect,
)
from .windows import AmplifiedWindow, TruncationWindow

__all__ = [
    "CentersPlan",
    "ProjectionPair",
    "GreedyMatch",
    "GreedyIsometry",
    "deletion_series",
    "localized_centers",
    "mixing_indices",
    "corrective_unitary",
    "greedy_isometry",
]

TOL_RESIDUAL = 1e-12
TOL_BLOCK_FORM = 1e-10


@dataclass(frozen=True)
class ProjectionPair:
    """A row projection, a column projection, and the measured norm of
    the block they cut from the operator at hand (None: not measured)."""

    p: Projection
    q: Projection
    bound: float | None = None

    def __post_init__(self) -> None:
        if self.bound is not None and self.bound < 0:
            raise ValueError("bound must be non-negative")

    @classmethod
    def for_operator(cls, p: Projection, q: Projection, a: Operator) -> "ProjectionPair":
        return cls(p, q, spectral_norm(_masked_block(p, q, a.entries)))


def _block_of(p: Projection, q: Projection) -> tuple | None:
    """Row and column index arrays of the block P M Q keeps when both
    projections are 0/1 diagonals; None for general projections."""
    pm = p.diagonal_mask()
    qm = q.diagonal_mask()
    if pm is None or qm is None:
        return None
    return np.ix_(np.flatnonzero(pm), np.flatnonzero(qm))


def _masked_block(p: Projection, q: Projection, m: np.ndarray) -> np.ndarray:
    """The part of P M Q that can be nonzero: M on the index block when
    both projections are 0/1 diagonals (the rest of P M Q is structurally
    zero), else the dense product P M Q."""
    block = _block_of(p, q)
    return p.entries @ m @ q.entries if block is None else m[block]


def deletion_series(a: Operator, pairs: Sequence[ProjectionPair], eps: float) -> Operator:
    """Remove the masked blocks P_k A Q_k by the inclusion-exclusion
    recursion S_{k+1} = S_k + P A Q - P S_k Q, returning B = A - S_n.

    Requires ‖P_k A Q_k‖ <= eps / 2^(2k-1) for each k (rechecked here
    as a ``norm_at_most`` decision, never trusted from the caller).  The
    series cap sums the pairs' measured norms, taken here for a pair
    that carries none.  Afterwards every masked block of B
    vanishes; blocks cut by diagonal projections are snapped to exact
    zeros once verified small, so later containment arguments can rely
    on structural zeros rather than tolerances.

    When both projections of a pair carry 0/1 masks, P S Q is S on the
    index block, so the step writes A into that block of S in place:
    S is A on the union of the blocks and exactly 0 off it.  Only pairs
    without a mask take the dense products.  The checks ‖S‖ <= cap,
    ‖S‖ <= eps and residual <= tolerance are ``norm_at_most`` decisions:
    an SVD runs only when the Frobenius/row-column bracket straddles the
    bound, or to put the measured value into the error.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    pairs = list(pairs)
    blocks = [_block_of(pair.p, pair.q) for pair in pairs]
    norms = []
    for k, pair in enumerate(pairs, start=1):
        budget = eps / 2.0 ** (2 * k - 1)
        block = _masked_block(pair.p, pair.q, a.entries)
        if not norm_at_most(block, budget + TOL_RESIDUAL):
            raise PreconditionError(
                f"pair {k}: masked block norm {spectral_norm(block):.3e} exceeds budget "
                f"{budget:.3e} = eps/2^{2 * k - 1}"
            )
        norms.append(spectral_norm(block) if pair.bound is None else pair.bound)

    s = np.zeros_like(a.entries)
    for pair, block in zip(pairs, blocks):
        if block is None:
            p, q = pair.p.entries, pair.q.entries
            s = s + p @ a.entries @ q - p @ s @ q
        else:
            s[block] = a.entries[block]

    bracket = norm_bracket(s)
    series_cap = sum(2.0 ** (k - 1) * n for k, n in enumerate(norms, start=1))
    if not norm_at_most(s, series_cap + TOL_RESIDUAL, bracket):
        raise StageError(
            "deletion-series",
            f"series norm {spectral_norm(s):.3e} exceeds its cap {series_cap:.3e}",
        )
    if not norm_at_most(s, eps + TOL_RESIDUAL, bracket):
        raise StageError(
            "deletion-series",
            f"total perturbation {spectral_norm(s):.3e} exceeds eps {eps:.3e}",
        )

    b = a.entries - s
    for k, (pair, block) in enumerate(zip(pairs, blocks), start=1):
        residual = _masked_block(pair.p, pair.q, b)
        if not norm_at_most(residual, TOL_RESIDUAL):
            raise StageError(
                "deletion-series",
                f"pair {k}: residual block norm {spectral_norm(residual):.3e}",
            )
        if block is not None:
            b[block] = 0.0
    return Operator(a.window, b, dict(a.tags, name="deleted"))


# ---------------------------------------------------------------------------
# localized centers


def _center_arc(theta: Direction, k: int) -> Arc:
    """Shrinking arc around theta with half-width arctan(2^-k)."""
    return Arc(theta.rotate_cw_pow2(k), theta.rotate_ccw_pow2(k))


def localized_centers(
    a: Operator, thetas: Sequence[Direction], eps: float
) -> tuple[Operator, CentersPlan]:
    """Deform A so each chosen direction carries a center whose column is
    confined to a finite range inside its own shell.

    Center k gets two deletion pairs: an odd-indexed cone pair cutting
    the captured complement of a shrinking arc around theta_k, and an
    even-indexed annulus pair cutting the center's column outside its
    shell.  Pair m receives budget eps / 2^(2m-1), so the total
    perturbation stays under eps.
    """
    w = a.window
    if not isinstance(w, TruncationWindow) or w.representation != "Z2":
        raise PreconditionError("localized centers need a planar window")
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    thetas = list(thetas)
    if not thetas:
        raise PreconditionError("at least one direction is required")

    annulus_budgets = [eps / 2.0 ** (4 * k - 1) for k in range(1, len(thetas) + 1)]
    plan0 = annulus_confine(a, thetas, annulus_budgets)

    pairs = []
    for k, theta in enumerate(thetas, start=1):
        arc = _center_arc(theta, k)
        cone_budget = eps / 2.0 ** (4 * k - 3)
        split = cone_split(a, arc, cone_budget)
        p_cone = Projection.from_region(Explicit(split.bad), w)
        q_cone = Projection.from_region(Cone(arc), w)
        pairs.append(ProjectionPair(p_cone, q_cone, split.achieved_bound))

        center = plan0.centers[k - 1]
        outer = plan0.radii[k - 1]
        inner = plan0.inner_radius(k - 1)
        shell_complement: Region = Complement(Ball(outer))
        if inner > 0:
            shell_complement = RegionUnion(shell_complement, Ball(inner))
        p_ann = Projection.from_region(shell_complement, w)
        q_ann = Projection.from_region(Explicit(frozenset([center])), w)
        pairs.append(ProjectionPair.for_operator(p_ann, q_ann, a))

    b = deletion_series(a, pairs, eps)

    ranges = tuple(  # each center with the sites where its column of B is nonzero
        frozenset(compress(w.sites, b.entries[:, w.index_of(c)])) | {c} for c in plan0.centers
    )
    plan = plan0.with_ranges(
        ranges, source=f"localized-centers(n={len(thetas)},arc-width=2^-k)"
    )
    return b, plan


def mixing_indices(plan: CentersPlan, i: Arc, j: Arc) -> tuple:
    """Indices k whose range meets both cones of a disjoint arc pair."""
    if not arcs_disjoint(i, j):
        raise PreconditionError("mixing check needs disjoint arcs")
    if plan.ranges is None:
        raise PreconditionError("plan has no ranges yet")
    coords = [np.array(list(y)).reshape(-1, 2) for y in plan.ranges]
    return tuple(k for k, c in enumerate(coords) if i.mask(c).any() and j.mask(c).any())


# ---------------------------------------------------------------------------
# corrective unitary


def _block_rotation(dim: int, u: np.ndarray, target: int) -> np.ndarray:
    """Unitary on C^dim sending the unit vector u to e_target and fixing
    the orthogonal complement of their span."""
    t = np.zeros(dim, dtype=np.complex128)
    t[target] = 1.0
    overlap = np.vdot(u, t)
    residual = t - overlap * u
    r = np.linalg.norm(residual)
    out = np.eye(dim, dtype=np.complex128)
    if r <= 1e-13:
        # u is (numerically) a phase times e_target; vdot already
        # conjugates u, so overlap itself is the undoing phase
        out[target, target] = overlap / abs(overlap)
        return out
    p = residual / r
    back = u - np.conj(overlap) * t
    q = back / np.linalg.norm(back)
    # map the orthonormal pair (u, p) onto (t, q); identity elsewhere
    out -= np.outer(u, u.conj()) + np.outer(p, p.conj())
    out += np.outer(t, u.conj()) + np.outer(q, p.conj())
    return out


def corrective_unitary(b: Operator, plan: CentersPlan) -> Operator:
    """Unitary V with V(B delta_xk / ‖B delta_xk‖) = delta_xk for every
    center, acting as the identity outside the union of the ranges.

    Each range gets an independent block rotation fixing everything
    orthogonal to the span of the column and its center coordinate.
    """
    w = b.window
    if plan.ranges is None:
        raise PreconditionError("plan has no ranges; run localized_centers first")
    d = w.dimension
    v = np.eye(d, dtype=np.complex128)
    union: list = []
    for k, (center, y) in enumerate(zip(plan.centers, plan.ranges)):
        col = b.entries[:, w.index_of(center)]
        norm = float(np.linalg.norm(col))
        if norm == 0.0:
            raise PreconditionError(f"center {k} has a zero column")
        y_idx = sorted(w.index_of(s) for s in y)  # basis order
        outside = np.linalg.norm(np.delete(col, y_idx))
        if outside > TOL_RESIDUAL:
            raise PreconditionError(
                f"center {k} leaks {outside:.3e} outside its range"
            )
        local = col[y_idx] / norm
        target = y_idx.index(w.index_of(center))
        block = _block_rotation(len(y_idx), local, target)
        v[np.ix_(y_idx, y_idx)] = block
        union.extend(y_idx)
    # V is exactly the identity outside the union of the ranges, so
    # V*V - 1 vanishes there and its norm is that of the union block
    union = sorted(union)
    defect = unitarity_defect(v[np.ix_(union, union)])
    if defect > TOL_BLOCK_FORM:
        raise StageError("corrective-unitary", f"unitarity defect {defect:.3e}")
    return Operator(w, v, {"name": "corrective"})


# ---------------------------------------------------------------------------
# greedy isometry between stacked copies


@dataclass(frozen=True)
class GreedyMatch:
    """One greedy assignment: enumeration index, source basis vector
    (stack, site), chosen target site, and whether the narrow-arc
    shortcut (exact direction equality) was in force."""

    index: int
    stack: int
    source: tuple
    target: tuple
    exact: bool


@dataclass(frozen=True)
class GreedyIsometry:
    """Partial permutation between stacked copies and the base window,
    held as its matches: V sends the stacked basis vector (stack, source)
    of each match onto its target site in stack 0, and every other
    basis vector to 0."""

    window: AmplifiedWindow
    matches: tuple
    unmatched: tuple


def greedy_isometry(
    s: Region,
    n: int,
    window: TruncationWindow,
    require_ray_dense: bool = True,
) -> GreedyIsometry:
    """Greedily match every basis vector of Λ_S ⊕ 1_n to an unused site of
    S whose direction lies within a shrinking arc of the source's.

    Sources are enumerated in merged canonical order across stacks; the
    k-th source may only match sites within half-width arctan(2^-k) of
    its own direction (sources at the origin accept any direction).  The
    pick is the unused admissible site of smallest norm.  Window edges
    leave a tail of sources unmatched; they are reported, not dropped.
    """
    if n < 0:
        raise PreconditionError("n must be non-negative")
    if window.representation != "Z2":
        raise PreconditionError("greedy matching needs a planar window")
    s_mask = region_mask(s, window)
    s_ordered = tuple(compress(window.sites, s_mask))  # canonical = nondecreasing norm
    s_sites = frozenset(s_ordered)
    if require_ray_dense:
        covered = {direction_of(x) for x in s_sites if x != ORIGIN}
        missing = sorted(
            (d for d in window.direction_classes() if d not in covered),
            key=lambda d: d.angle_key(),
        )
        if missing:
            shown = ", ".join(f"({d.p},{d.q})" for d in missing[:5])
            raise PreconditionError(
                f"{len(missing)} direction classes have no site in S: {shown}"
                + (" ..." if len(missing) > 5 else "")
            )

    # basis order is the canonical order, so walking the window once
    # and the stacks within each site merges them canonically
    sources = [
        (stack, site)
        for site, in_s in zip(window.sites, s_mask)
        for stack in range(n + 1)
        if stack or in_s
    ]

    # beyond this index, the arc is too narrow to contain any second
    # direction class of the window, so only exact ray matches remain
    k_star = int(2 * float(window.radius) ** 2 + 2).bit_length() + 1

    used: set = set()
    matches = []
    unmatched = []
    for k, (stack, source) in enumerate(sources, start=1):
        chosen = None
        exact = False
        if source == ORIGIN:
            for x in s_ordered:
                if x not in used:
                    chosen = x
                    break
        elif k >= k_star:
            exact = True
            theta = direction_of(source)
            m = 1
            while True:
                x = (m * theta.p, m * theta.q)
                if x not in window:
                    break
                if x in s_sites and x not in used:
                    chosen = x
                    break
                m += 1
        else:
            arc = _center_arc(direction_of(source), k)
            for x in s_ordered:
                if x in used or x == ORIGIN:
                    continue
                if arc.contains(direction_of(x)):
                    chosen = x
                    break
        if chosen is None:
            unmatched.append((stack, source))
            continue
        used.add(chosen)
        matches.append(GreedyMatch(k, stack, source, chosen, exact))

    return GreedyIsometry(AmplifiedWindow(window, n + 1), tuple(matches), tuple(unmatched))
