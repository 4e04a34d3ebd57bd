"""Exact lattice geometry: sites, rational directions, arcs, and regions.

All predicates in this module are decided in integer (or ``Fraction``)
arithmetic.  No float ever participates in a membership or ordering
decision; floats appear only in operator entries elsewhere.

Conventions
-----------
* A planar site is a ``tuple[int, int]``; a line site is an ``int``.
* A ``Direction`` is a primitive integer vector ``(p, q)``, gcd 1.  It
  stands for the rational point ``(p + iq)/|p + iq|`` of the unit circle.
* An ``Arc`` is the closed set of directions swept counter-clockwise from
  ``start`` to ``end``.  ``start == end`` denotes the full circle (the
  degenerate one-point arc is not representable; nothing here needs it).
* Cones never contain the origin.  Balls are open: ``Ball(r)`` holds the
  sites with ``|x| < r``.  ``Annulus(a, b)`` holds ``a <= |x| < b``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import ceil, gcd
from typing import Union

import numpy as np

from .errors import RepresentationError

SiteZ2 = tuple[int, int]
SiteZ = int
Site = Union[SiteZ2, SiteZ]

ORIGIN: SiteZ2 = (0, 0)


# ---------------------------------------------------------------------------
# directions


@dataclass(frozen=True)
class Direction:
    """Primitive integer vector on the rational circle."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise TypeError("direction components must be ints")
        if self.p == 0 and self.q == 0:
            raise ValueError("zero vector has no direction")
        if gcd(abs(self.p), abs(self.q)) != 1:
            raise ValueError(f"({self.p},{self.q}) is not primitive; use Direction.from_vector")

    @classmethod
    def from_vector(cls, x1: int, x2: int) -> "Direction":
        """Reduce an arbitrary nonzero integer vector to its direction."""
        if x1 == 0 and x2 == 0:
            raise ValueError("the origin has no direction")
        g = gcd(abs(x1), abs(x2))
        return cls(x1 // g, x2 // g)

    def cross(self, other: "Direction") -> int:
        return self.p * other.q - self.q * other.p

    def rotate_ccw_pow2(self, k: int) -> "Direction":
        """Rotate counter-clockwise by exactly arctan(2^-k).

        Complex multiplication by ``2^k + i`` keeps the slope rational and
        the angle increment exact; the result is reduced to primitive form.
        """
        m = 1 << k
        return Direction.from_vector(self.p * m - self.q, self.q * m + self.p)

    def rotate_cw_pow2(self, k: int) -> "Direction":
        """Rotate clockwise by exactly arctan(2^-k)."""
        m = 1 << k
        return Direction.from_vector(self.p * m + self.q, self.q * m - self.p)

    def angle_key(self):
        """Total-order key: counter-clockwise angle from (1,0), exact."""
        p, q = self.p, self.q
        if q > 0 or (q == 0 and p > 0):
            if p > 0:
                return (0, 0, Fraction(q, p))
            if p == 0:
                return (0, 1, Fraction(0))
            return (0, 2, Fraction(q, p))
        if p < 0:
            return (1, 0, Fraction(q, p))
        if p == 0:
            return (1, 1, Fraction(0))
        return (1, 2, Fraction(q, p))

    def as_text(self) -> str:
        return f"({self.p},{self.q})"

    def __repr__(self) -> str:  # keeps diagnostics compact
        return f"Direction{self.as_text()}"


def direction_of(x: SiteZ2) -> Direction:
    """Direction class of a nonzero planar site."""
    return Direction.from_vector(x[0], x[1])


def site_sort_key(x: Site):
    """Canonical enumeration key: radius, then angle, then lexicographic.

    Line sites order by (|x|, x); planar sites by (|x|^2, angle from (1,0)
    counter-clockwise, coordinates).  The origin sorts first.
    """
    if isinstance(x, int):
        return (abs(x), x)
    r2 = x[0] * x[0] + x[1] * x[1]
    if r2 == 0:
        return (0, (0, 0, Fraction(0)), x)
    return (r2, direction_of(x).angle_key(), x)


# ---------------------------------------------------------------------------
# arcs


@dataclass(frozen=True)
class Arc:
    """Closed counter-clockwise arc of the rational circle."""

    start: Direction
    end: Direction

    @classmethod
    def full_circle(cls) -> "Arc":
        return cls(Direction(1, 0), Direction(1, 0))

    @classmethod
    def from_vectors(cls, start: tuple[int, int], end: tuple[int, int]) -> "Arc":
        return cls(Direction.from_vector(*start), Direction.from_vector(*end))

    @property
    def is_full(self) -> bool:
        return self.start == self.end

    def contains(self, d: Direction) -> bool:
        """Closed membership, decided by integer cross products.

        For arc [a, b]: when the span is under a half turn, d must lie
        weakly left of a and weakly right of b; over a half turn either
        side condition suffices; at exactly a half turn (b = -a) the arc
        is the closed left half-plane of a.
        """
        a, b = self.start, self.end
        if a == b:
            return True
        c = a.cross(b)
        ad = a.cross(d)
        db = d.cross(b)
        if c > 0:
            return ad >= 0 and db >= 0
        if c < 0:
            return ad >= 0 or db >= 0
        return ad >= 0  # b is the antipode of a

    def mask(self, coords) -> np.ndarray:
        """``contains`` for every row (x, y) of an (n, 2) integer array, as
        a boolean array; False at the origin.

        A site g (p, q) with g > 0 has the cross products of its
        direction (p, q) times g, so the same sign tests decide it
        exactly.  They run in int64 when no product can overflow, and
        in Python integers otherwise (a widened arc, or a config arc
        with huge components).
        """
        coords = np.asarray(coords)
        x, y = coords[:, 0], coords[:, 1]
        nonzero = (x != 0) | (y != 0)
        a, b = self.start, self.end
        if a == b:
            return nonzero
        reach = max(abs(a.p), abs(a.q), abs(b.p), abs(b.q))
        if 2 * reach * max(int(np.abs(coords).max(initial=0)), 1) >= 2**63:
            x, y = x.astype(object), y.astype(object)
        c = a.cross(b)
        ad = np.asarray(a.p * y - a.q * x >= 0, dtype=bool)
        db = np.asarray(x * b.q - y * b.p >= 0, dtype=bool)
        if c > 0:
            inside = ad & db
        elif c < 0:
            inside = ad | db
        else:
            inside = ad  # b is the antipode of a
        return nonzero & inside

    def as_text(self) -> str:
        return f"{self.start.as_text()}..{self.end.as_text()}"

    def __repr__(self) -> str:
        return f"Arc[{self.as_text()}]"


def arcs_disjoint(first: Arc, second: Arc) -> bool:
    """True iff the two closed arcs share no direction.

    Two closed arcs intersect exactly when one contains an endpoint of the
    other, so four membership tests decide disjointness.
    """
    return not (
        first.contains(second.start)
        or first.contains(second.end)
        or second.contains(first.start)
        or second.contains(first.end)
    )


def widen_arc(arc: Arc, k: int) -> Arc:
    """Enclose ``arc`` in a strictly larger arc, shrinking as k grows.

    Both endpoints rotate outward by exactly arctan(2^-k) (an exact
    rational rotation), so the widened arcs are nested, contain ``arc`` in
    their interior, and intersect down to ``arc`` as k increases.  If the
    complement of ``arc`` is too short to absorb the widening, the full
    circle is returned.
    """
    if k < 1:
        raise ValueError("widening step k must be >= 1")
    if arc.is_full:
        return arc
    a, b = arc.start, arc.end
    new_start = a.rotate_cw_pow2(k)
    new_end = b.rotate_ccw_pow2(k)
    comp = b.cross(a)
    if comp > 0:
        # complement arc [b, a] spans under a half turn; the rotations stay
        # inside it (in order b, new_end, new_start, a) or we have wrapped
        ordered = (
            b.cross(new_end) > 0
            and new_end.cross(new_start) > 0
            and new_start.cross(a) > 0
        )
        if not ordered:
            return Arc.full_circle()
    elif comp == 0:
        if b == a:  # unreachable: is_full handled above
            return arc
        # complement spans exactly a half turn; rotations by < pi/4 each
        # cannot wrap
    return Arc(new_start, new_end)


# ---------------------------------------------------------------------------
# regions


class Region:
    """Base class for region syntax trees.  Subclasses are frozen values."""

    def complement(self) -> "Region":
        return Complement(self)

    def __or__(self, other: "Region") -> "Region":
        return RegionUnion(self, other)

    def __and__(self, other: "Region") -> "Region":
        return RegionIntersection(self, other)

    def __invert__(self) -> "Region":
        return Complement(self)


@dataclass(frozen=True)
class Cone(Region):
    """Nonzero sites whose direction lies in the arc.  Planar only."""

    arc: Arc


@dataclass(frozen=True)
class Ball(Region):
    """Open ball |x| < radius.  Radius is an exact rational."""

    radius: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "radius", Fraction(self.radius))


@dataclass(frozen=True)
class Annulus(Region):
    """Half-open shell inner <= |x| < outer."""

    inner: Fraction
    outer: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "inner", Fraction(self.inner))
        object.__setattr__(self, "outer", Fraction(self.outer))
        if self.inner < 0 or self.outer < self.inner:
            raise ValueError("annulus needs 0 <= inner <= outer")


@dataclass(frozen=True)
class Explicit(Region):
    """A finite explicit site set."""

    sites: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", frozenset(self.sites))


@dataclass(frozen=True)
class Complement(Region):
    region: Region


@dataclass(frozen=True)
class RegionUnion(Region):
    left: Region
    right: Region


@dataclass(frozen=True)
class RegionIntersection(Region):
    left: Region
    right: Region


EMPTY_REGION = Explicit(frozenset())
FULL_REGION = Complement(EMPTY_REGION)


def _below(window, bound: Fraction) -> np.ndarray:
    """|x| < bound for every site: an integer |x|^2 clears the rational
    square exactly when it stays under its ceiling.  The ceiling is a
    Python integer, cut down to one past the largest |x|^2 so that the
    comparison runs in int64 with no change of outcome."""
    norms_sq = np.sum(window.coordinates**2, axis=1)
    return norms_sq < min(ceil(bound * bound), int(norms_sq.max(initial=0)) + 1)


def region_mask(region: Region, window) -> np.ndarray:
    """Read-only boolean mask of the region's sites in the window, in
    basis order: the one place where region membership is decided.

    Cones use ``Arc.mask``; balls and annuli compare the integer |x|^2
    of ``window.coordinates`` with the ceiling of the exact rational
    square; explicit sets mark their in-window sites by index; the
    complement, union and intersection are ``~``, ``|`` and ``&``.
    """
    if isinstance(region, Cone):
        if window.representation != "Z2":
            raise RepresentationError("cones are defined on the planar lattice only")
        mask = region.arc.mask(window.coordinates)
    elif isinstance(region, Ball):
        mask = _below(window, region.radius)
    elif isinstance(region, Annulus):
        mask = _below(window, region.outer) & ~_below(window, region.inner)
    elif isinstance(region, Explicit):
        mask = np.zeros(window.dimension, dtype=bool)
        mask[[window.index_of(x) for x in region.sites if x in window]] = True
    elif isinstance(region, Complement):
        mask = ~region_mask(region.region, window)
    elif isinstance(region, RegionUnion):
        mask = region_mask(region.left, window) | region_mask(region.right, window)
    elif isinstance(region, RegionIntersection):
        mask = region_mask(region.left, window) & region_mask(region.right, window)
    else:
        raise TypeError(f"not a region: {region!r}")
    mask.setflags(write=False)
    return mask


def region_sites(region: Region, window) -> frozenset:
    """Realize a region inside a window as a frozenset of sites."""
    return frozenset(compress(window.sites, region_mask(region, window)))
