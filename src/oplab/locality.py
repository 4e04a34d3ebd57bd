"""Finite-scale locality diagnostics.

Infinite-volume statements about compact cross-cone blocks turn into
measurable quantities here: block norms between cones, decay profiles
against ball cutoffs, and the two workhorse constructions that later
surgery steps consume, cone splitting and annulus confinement.

Every bound any routine promises is recomputed from the raw matrix
before being returned; nothing is trusted from the construction.  A
test of a block norm against a budget is a decision, not a value: the
Frobenius norm from above and the largest row or column norm from
below settle it, and an SVD runs only when that bracket straddles the
budget (``operators.norm_at_most``).  Cone, ball and shell membership
is one integer-exact mask over the window (``geometry.region_mask``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    PreconditionError,
    RepresentationError,
    StageError,
    WindowExhaustedError,
)
from .geometry import (
    Arc,
    Ball,
    Cone,
    Direction,
    arcs_disjoint,
    region_mask,
    site_sort_key,
    widen_arc,
)
from .operators import Operator, norm_at_most, spectral_norm, squared_moduli
from .windows import TruncationWindow


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class DecayProfile:
    """Masked norms of one block at a strictly increasing list of ball cutoffs."""

    radii: tuple
    values: tuple

    def __post_init__(self) -> None:
        radii = tuple(Fraction(r) for r in self.radii)
        values = tuple(float(v) for v in self.values)
        if len(radii) != len(values):
            raise PreconditionError("radii and values must have equal length")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise PreconditionError("radii must be strictly increasing")
        if any(v < 0 for v in values):
            raise PreconditionError("values must be non-negative")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)

    def csv_rows(self):
        yield ("radius", "value")
        for r, v in zip(self.radii, self.values):
            yield (str(r), repr(v))


@dataclass(frozen=True)
class ConeSplit:
    """Partition of the open complement cone into a finite captured part
    and a remainder whose block against the reference cone is small."""

    good: frozenset
    bad: frozenset
    achieved_bound: float

    def __post_init__(self) -> None:
        if self.good & self.bad:
            raise PreconditionError("good and bad overlap")
        if self.achieved_bound < 0:
            raise PreconditionError("achieved_bound must be non-negative")

    def csv_rows(self):
        yield ("site", "kind")
        sites = [(s, "good") for s in self.good] + [(s, "bad") for s in self.bad]
        for site, kind in sorted(sites, key=lambda p: site_sort_key(p[0])):
            yield (f"({site[0]},{site[1]})", kind)


@dataclass(frozen=True)
class CentersPlan:
    """Placement plan for localized centers: one site per requested direction,
    nested ball radii separating them, per-center norm budgets, and (once a
    deformation has produced them) the finite interaction ranges."""

    centers: tuple
    radii: tuple
    budgets: tuple
    ranges: tuple | None = None
    source: str = ""

    def __post_init__(self) -> None:
        centers = tuple(tuple(c) for c in self.centers)
        radii = tuple(Fraction(r) for r in self.radii)
        budgets = tuple(float(b) for b in self.budgets)
        if not (len(centers) == len(radii) == len(budgets)):
            raise PreconditionError("centers, radii and budgets must have equal length")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise PreconditionError("radii must be strictly increasing")
        if any(b <= 0 for b in budgets):
            raise PreconditionError("budgets must be positive")
        ranges = self.ranges
        if ranges is not None:
            ranges = tuple(frozenset(tuple(s) for s in y) for y in ranges)
            if len(ranges) != len(centers):
                raise PreconditionError("ranges must align with centers")
            for k, (center, y) in enumerate(zip(centers, ranges)):
                if center not in y:
                    raise PreconditionError(f"center {k} lies outside its range")
            for a in range(len(ranges)):
                for b in range(a + 1, len(ranges)):
                    if ranges[a] & ranges[b]:
                        raise PreconditionError(f"ranges {a} and {b} overlap")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "budgets", budgets)
        object.__setattr__(self, "ranges", ranges)

    def __len__(self) -> int:
        return len(self.centers)

    def inner_radius(self, k: int) -> Fraction:
        """Lower ball radius of the k-th shell (zero for the first)."""
        return Fraction(0) if k == 0 else self.radii[k - 1]

    def with_ranges(self, ranges, source: str = "") -> "CentersPlan":
        return CentersPlan(
            self.centers, self.radii, self.budgets, ranges, source or self.source
        )

    def to_json_dict(self) -> dict:
        out = {
            "format": "centersplan v1",
            "source": self.source,
            "centers": [list(c) for c in self.centers],
            "radii": [str(r) for r in self.radii],
            "budgets": list(self.budgets),
        }
        if self.ranges is not None:
            out["ranges"] = [
                [list(s) for s in sorted(y, key=site_sort_key)] for y in self.ranges
            ]
        return out


# ---------------------------------------------------------------------------
# masking helpers


def _require_plane(window, what: str) -> TruncationWindow:
    if not isinstance(window, TruncationWindow) or window.representation != "Z2":
        raise RepresentationError(f"{what} needs a planar window")
    return window


def block_norm(a: Operator, i: Arc, j: Arc) -> float:
    """Cross-cone block norm: rows from cone(j), columns from cone(i)."""
    w = _require_plane(a.window, "block_norm")
    rows = np.flatnonzero(region_mask(Cone(j), w))
    cols = np.flatnonzero(region_mask(Cone(i), w))
    return spectral_norm(a.entries[np.ix_(rows, cols)])


def _shortest_prefix(entries, ordered_rows, cols, budget: float) -> int:
    """Smallest prefix length m with ‖rows[m:] block‖ <= budget.

    The tail norm is nonincreasing in m (dropping rows cannot grow a
    norm), so a binary search finds the greedy growth point.  Each probe
    is a ``norm_at_most`` decision on a view of the rows x cols block,
    gathered once: the tail's Frobenius norm and column norms come from
    suffix sums of the squared moduli down the rows, its largest row
    norm from a suffix maximum, so a probe costs O(columns) and takes
    an SVD only when the bracket straddles the budget.  The sums add
    nonnegative numbers, so they do not cancel.
    """
    rows = np.asarray(ordered_rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if rows.size == 0 or cols.size == 0:
        return 0
    block = entries[np.ix_(rows, cols)]
    sq = squared_moduli(block)
    col_tails = np.cumsum(sq[::-1], axis=0)[::-1]
    row_tails = np.maximum.accumulate(sq.sum(axis=1)[::-1])[::-1]

    def fits(m: int) -> bool:
        if m >= rows.size:
            return True
        col_sq = col_tails[m]
        bracket = math.sqrt(col_sq.sum()), math.sqrt(max(row_tails[m], col_sq.max()))
        return norm_at_most(block[m:], budget, bracket)

    if fits(0):
        return 0
    lo, hi = 0, rows.size
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# diagnostics


def compactness_profile(a: Operator, i: Arc, j: Arc, cutoffs: Sequence) -> DecayProfile:
    """Masked norm of the cone block outside balls of increasing radius.

    A block that behaves like a compact operator at this scale decays
    toward the window noise floor; the profile records the raw numbers.
    """
    w = _require_plane(a.window, "compactness_profile")
    if not arcs_disjoint(i, j):
        raise PreconditionError("profile arcs must be disjoint")
    radii = [Fraction(r) for r in cutoffs]
    cols = np.flatnonzero(region_mask(Cone(i), w))
    values = []
    for r in radii:  # the cone rows outside the open ball
        rows = np.flatnonzero(region_mask(Cone(j) & ~Ball(r), w))
        values.append(spectral_norm(a.entries[np.ix_(rows, cols)]))
    return DecayProfile(tuple(radii), tuple(values))


def cone_split(a: Operator, j: Arc, eps: float) -> ConeSplit:
    """Split the open complement of cone(j) into a finite captured set and
    a remainder with ‖Λ_bad A Λ_cone(j)‖ <= eps.

    Walks shrinking widened neighborhoods of the arc; sites leaving the
    neighborhood at stage k form a shell whose block is trimmed to the
    stage budget eps/2^k by shortest-prefix capture, whose probes the
    Frobenius/row-column bracket settles (``_shortest_prefix``).  The
    achieved bound is the measured norm of the remainder block.
    """
    w = _require_plane(a.window, "cone_split")
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    coords = w.coordinates
    j_cols = np.flatnonzero(region_mask(Cone(j), w))
    # the open complement: nonzero sites whose direction is off the arc
    complement = np.flatnonzero(region_mask(~(Cone(j) | Ball(1)), w))
    captured = np.zeros(w.dimension, dtype=bool)
    remaining = complement
    k = 1
    while remaining.size:
        if k > 200:
            raise StageError(
                "cone-split",
                f"{remaining.size} complement sites still uncaptured after "
                f"{k - 1} widening stages",
            )
        leaving = ~widen_arc(j, k).mask(coords[remaining])
        shell = remaining[leaving]
        if shell.size:
            m = _shortest_prefix(a.entries, shell, j_cols, eps / 2.0**k)
            captured[shell[:m]] = np.any(a.entries[np.ix_(shell[:m], j_cols)], axis=1)
            remaining = remaining[~leaving]
        k += 1
    bad_idx = complement[~captured[complement]]
    good_sites = frozenset(w.sites[i] for i in np.flatnonzero(captured))
    bad_sites = frozenset(w.sites[i] for i in bad_idx)
    if bad_idx.size and j_cols.size:
        achieved = spectral_norm(a.entries[np.ix_(bad_idx, j_cols)])
    else:
        achieved = 0.0
    return ConeSplit(good_sites, bad_sites, achieved)


def _ray_sites(window: TruncationWindow, theta: Direction):
    """Sites m * theta inside the window, nearest first."""
    m = 1
    while True:
        site = (m * theta.p, m * theta.q)
        if site not in window:
            return
        yield site
        m += 1


def annulus_confine(
    a: Operator, thetas: Sequence[Direction], epsilons: Sequence[float]
) -> CentersPlan:
    """Place one center per direction in nested annuli so that the masked
    column of A at each center, outside its own shell, stays under budget.

    Centers are chosen greedily by norm along each exact ray; shell radii
    are the smallest integers putting the outer column tail under half
    the budget (the first center keeps the full budget, its inner shell
    being empty).
    """
    w = _require_plane(a.window, "annulus_confine")
    thetas = list(thetas)
    epsilons = [float(e) for e in epsilons]
    if not thetas:
        raise PreconditionError("at least one direction is required")
    if len(thetas) != len(epsilons):
        raise PreconditionError("one budget per direction is required")
    if any(e <= 0 for e in epsilons):
        raise PreconditionError("budgets must be positive")

    entries = a.entries
    centers: list = []
    radii: list = []
    r_prev = 0  # integer shell radius

    for i, (theta, eps_i) in enumerate(zip(thetas, epsilons), start=1):
        inner_budget = None if i == 1 else eps_i / 2.0
        outer_budget = eps_i if i == 1 else eps_i / 2.0
        inner = region_mask(Ball(r_prev), w)
        inner_rows = np.flatnonzero(inner)
        chosen = None
        for site in _ray_sites(w, theta):
            if inner[w.index_of(site)]:
                continue
            if inner_budget is not None and inner_rows.size:
                col = entries[inner_rows, w.index_of(site)]
                if float(np.linalg.norm(col)) > inner_budget:
                    continue
            chosen = site
            break
        if chosen is None:
            raise WindowExhaustedError(
                f"no admissible center for index {i} along ({theta.p},{theta.q}) "
                f"beyond radius {r_prev}"
            )
        col_idx = w.index_of(chosen)
        # the least integer radius past r_prev whose open ball holds the center
        rho = max(r_prev, math.isqrt(chosen[0] ** 2 + chosen[1] ** 2) + 1)
        while True:
            outer_rows = np.flatnonzero(region_mask(~Ball(rho), w))
            if outer_rows.size == 0:
                break
            tail = float(np.linalg.norm(entries[outer_rows, col_idx]))
            if tail <= outer_budget:
                break
            rho += 1
        centers.append(chosen)
        radii.append(Fraction(rho))
        r_prev = rho

    return CentersPlan(
        tuple(centers),
        tuple(radii),
        tuple(epsilons),
        ranges=tuple(frozenset([c]) for c in centers),
        source="annulus-confine",
    )
