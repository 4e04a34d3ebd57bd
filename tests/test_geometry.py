"""Exact geometry layer: directions, arcs, regions.

Derived expectations are computed by independent float-free or brute-force
oracles inside the tests, then asserted against the library.
"""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oplab.errors import RepresentationError
from oplab.geometry import (
    Annulus,
    Arc,
    Ball,
    Complement,
    Cone,
    Direction,
    ORIGIN,
    Explicit,
    RegionIntersection,
    RegionUnion,
    arcs_disjoint,
    direction_of,
    region_mask,
    region_sites,
    site_sort_key,
    widen_arc,
)
from oplab.windows import TruncationWindow


# ---------------------------------------------------------------------------
# directions


def test_direction_reduction_examples():
    assert direction_of((4, -2)) == Direction(2, -1)
    assert direction_of((0, 7)) == Direction(0, 1)
    assert direction_of((-3, -3)) == Direction(-1, -1)


def test_direction_of_origin_rejected():
    with pytest.raises(ValueError):
        direction_of((0, 0))


def test_direction_constructor_requires_primitive():
    with pytest.raises(ValueError):
        Direction(2, 4)
    with pytest.raises(ValueError):
        Direction(0, 0)


def test_direction_scaling_invariance_sweep():
    sites = [(1, 0), (2, 3), (-1, 4), (-5, -2), (0, -3), (7, -6)]
    for x in sites:
        d = direction_of(x)
        for m in (1, 2, 3, 7, 40):
            assert direction_of((m * x[0], m * x[1])) == d


def _float_angle(d: Direction) -> float:
    return math.atan2(d.q, d.p) % (2 * math.pi)


def test_angle_key_matches_float_order():
    # every direction in a radius-7 window; angular gaps are far larger than
    # float error, so the float sort is a valid oracle for the exact key
    window = TruncationWindow.plane(7)
    dirs = sorted(window.direction_classes(), key=Direction.angle_key)
    oracle = sorted(window.direction_classes(), key=_float_angle)
    assert dirs == oracle
    assert dirs[0] == Direction(1, 0)


# ---------------------------------------------------------------------------
# arcs


def test_arc_contains_quadrant_examples():
    first_quadrant = Arc(Direction(1, 0), Direction(0, 1))
    assert first_quadrant.contains(Direction(1, 0))
    assert first_quadrant.contains(Direction(0, 1))
    assert first_quadrant.contains(Direction(1, 1))
    assert first_quadrant.contains(Direction(3, 1))
    assert not first_quadrant.contains(Direction(-1, 1))
    assert not first_quadrant.contains(Direction(1, -1))
    assert not first_quadrant.contains(Direction(-1, 0))


def test_arc_contains_wrapping_and_half_turn():
    # three-quarter arc crossing the branch point
    wide = Arc(Direction(0, 1), Direction(1, -1))
    assert wide.contains(Direction(-1, 0))
    assert wide.contains(Direction(0, -1))
    assert wide.contains(Direction(1, -1))
    assert not wide.contains(Direction(1, 0))
    assert not wide.contains(Direction(2, 1))
    # exact half turn
    half = Arc(Direction(1, 0), Direction(-1, 0))
    assert half.contains(Direction(0, 1))
    assert half.contains(Direction(-1, 0))
    assert half.contains(Direction(1, 0))
    assert not half.contains(Direction(0, -1))
    assert not half.contains(Direction(1, -5))


def test_full_circle_arc():
    full = Arc.full_circle()
    assert full.is_full
    for d in [(1, 0), (0, -1), (-7, 3)]:
        assert full.contains(Direction.from_vector(*d))


def _arc_contains_oracle(window, arc, d):
    # oracle: sort window directions by float angle, locate endpoints, and
    # decide membership by cyclic index range
    dirs = sorted(window.direction_classes(), key=_float_angle)
    pos = {x: i for i, x in enumerate(dirs)}
    if arc.is_full:
        return True
    i, j, k = pos[arc.start], pos[arc.end], pos[d]
    if i <= j:
        return i <= k <= j
    return k >= i or k <= j


def test_arc_contains_against_cyclic_oracle():
    window = TruncationWindow.plane(5)
    dirs = sorted(window.direction_classes(), key=Direction.angle_key)
    probe_arcs = [
        Arc(dirs[i], dirs[j])
        for i, j in [(0, 5), (3, 17), (10, 2), (19, 19 + 11), (7, 6), (25, 24)]
        if max(i, j) < len(dirs)
    ]
    for arc in probe_arcs:
        for d in dirs:
            assert arc.contains(d) == _arc_contains_oracle(window, arc, d), (arc, d)


_COMPONENTS = st.integers(-7, 7) | st.integers(-(10**40), 10**40)


@given(
    start=st.tuples(_COMPONENTS, _COMPONENTS).filter(any),
    end=st.tuples(_COMPONENTS, _COMPONENTS).filter(any),
    k=st.integers(0, 80),
    radius=st.integers(1, 7),
)
@example(start=(10**30, 1), end=(1, 10**30), k=0, radius=5)
@example(start=(1, -1), end=(1, 1), k=80, radius=7)
@example(start=(1, 0), end=(-1, 0), k=0, radius=3)
@example(start=(2, 1), end=(2, 1), k=0, radius=2)
def test_arc_mask_matches_contains_on_every_site(start, end, k, radius):
    arc = Arc.from_vectors(start, end)
    if k:
        arc = widen_arc(arc, k)
    window = TruncationWindow.plane(radius)
    mask = arc.mask(window.coordinates)
    assert mask.dtype == bool
    assert mask.tolist() == [
        x != ORIGIN and arc.contains(direction_of(x)) for x in window.sites
    ]


def test_arcs_disjoint_examples():
    q1 = Arc(Direction(1, 0), Direction(0, 1))
    q3 = Arc(Direction(-1, 0), Direction(0, -1))
    assert arcs_disjoint(q1, q3)
    sharing = Arc(Direction(0, 1), Direction(-1, 0))
    assert not arcs_disjoint(q1, sharing)
    assert not arcs_disjoint(q1, q1)


def test_arcs_disjoint_matches_realized_cones():
    window = TruncationWindow.plane(6)
    dirs = sorted(window.direction_classes(), key=Direction.angle_key)
    arcs = [
        Arc(dirs[0], dirs[4]),
        Arc(dirs[6], dirs[11]),
        Arc(dirs[12], dirs[3]),
        Arc(dirs[20], dirs[25]),
        Arc(dirs[5], dirs[5 + 13]),
    ]
    for a in arcs:
        for b in arcs:
            cone_a = region_sites(Cone(a), window)
            cone_b = region_sites(Cone(b), window)
            if arcs_disjoint(a, b):
                assert not (cone_a & cone_b)
            else:
                # shared direction classes force shared sites in this window
                shared = {d for d in dirs if a.contains(d) and b.contains(d)}
                assert shared
                assert cone_a & cone_b


def test_widen_arc_nests_and_shrinks_to_arc():
    window = TruncationWindow.plane(8)
    arc = Arc(Direction(1, 0), Direction(0, 1))
    dirs = window.direction_classes()
    previous = None
    for k in range(1, 14):
        widened = widen_arc(arc, k)
        assert widened.contains(arc.start) and widened.contains(arc.end)
        inside = {d for d in dirs if widened.contains(d)}
        if previous is not None:
            assert inside <= previous
        previous = inside
    target = {d for d in dirs if arc.contains(d)}
    assert previous == target  # at k=13 nothing extra survives in radius 8


def test_widen_arc_wraps_to_full_circle():
    # complement shorter than the two rotations: widening must saturate
    nearly_full = Arc(Direction(1, -1), Direction(1, 1))  # complement spans ~90 degrees
    widened = widen_arc(nearly_full, 1)  # 2*atan(1/2) ~ 53 deg, fits
    assert not widened.is_full
    tiny_complement = Arc(Direction(100, 1), Direction(100, -1))  # ~359 degree sweep
    assert widen_arc(tiny_complement, 1).is_full


# ---------------------------------------------------------------------------
# windows and canonical order


def test_window_dimensions():
    assert TruncationWindow.line(16).dimension == 33
    assert TruncationWindow.plane(2).dimension == 13  # |x|^2 <= 4
    # fractional radius floors correctly
    assert TruncationWindow.line(Fraction(7, 2)).dimension == 7


def test_site_enumeration_starts_at_origin_and_orders_by_radius():
    window = TruncationWindow.plane(3)
    sites = window.sites
    assert sites[0] == (0, 0)
    radii = [s[0] ** 2 + s[1] ** 2 for s in sites]
    assert radii == sorted(radii)
    # shell of radius 1 in angle order
    assert sites[1:5] == ((1, 0), (0, 1), (-1, 0), (0, -1))


def test_line_enumeration_alternates():
    window = TruncationWindow.line(3)
    assert window.sites == (0, -1, 1, -2, 2, -3, 3)


def test_site_sort_key_is_strict_total_order():
    window = TruncationWindow.plane(4)
    keys = [site_sort_key(s) for s in window.sites]
    assert len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# regions


def test_open_ball_realization_count():
    window = TruncationWindow.plane(4)
    # oracle: brute force strict inequality
    oracle = sorted(
        (x, y)
        for x in range(-4, 5)
        for y in range(-4, 5)
        if x * x + y * y < 4
    )
    got = [x for x, inside in zip(window.sites, region_mask(Ball(2), window)) if inside]
    assert sorted(got) == oracle
    assert len(got) == 9


def test_full_circle_cone_is_everything_but_origin():
    window = TruncationWindow.plane(3)
    got = region_sites(Cone(Arc.full_circle()), window)
    assert got == window.site_set - {(0, 0)}


def test_cone_never_contains_origin():
    window = TruncationWindow.plane(3)
    for arc in [Arc(Direction(1, 0), Direction(0, 1)), Arc.full_circle()]:
        assert (0, 0) not in region_sites(Cone(arc), window)


def test_annulus_half_open():
    window = TruncationWindow.plane(5)
    got = region_sites(Annulus(1, 2), window)
    oracle = {
        (x, y)
        for x in range(-5, 6)
        for y in range(-5, 6)
        if 1 <= x * x + y * y < 4
    }
    assert got == oracle


def test_cone_on_line_window_rejected():
    with pytest.raises(RepresentationError):
        region_sites(Cone(Arc.full_circle()), TruncationWindow.line(4))


def test_region_boolean_algebra_against_set_oracle():
    window = TruncationWindow.plane(4)
    a = Cone(Arc(Direction(1, 0), Direction(0, 1)))
    b = Ball(Fraction(5, 2))
    c = Explicit(frozenset({(3, 0), (0, -3), (1, 1)}))
    sa, sb, sc = (region_sites(r, window) for r in (a, b, c))
    full = window.site_set
    assert region_sites(RegionUnion(a, b), window) == sa | sb
    assert region_sites(RegionIntersection(a, b), window) == sa & sb
    assert region_sites(Complement(a), window) == full - sa
    # De Morgan both ways
    assert region_sites(Complement(RegionUnion(a, c)), window) == (full - sa) & (full - sc)
    assert region_sites(Complement(RegionIntersection(b, c)), window) == (full - sb) | (full - sc)


def old_region_sites(region, window) -> frozenset:
    """The per-site rule that ``region_mask`` replaced, as a brute-force
    oracle: exact ``Fraction`` comparisons of |x|^2, arc membership by
    direction, and set algebra on frozensets."""
    full = window.site_set

    def norm_sq(x):
        return x * x if isinstance(x, int) else x[0] * x[0] + x[1] * x[1]

    if isinstance(region, Cone):
        return frozenset(x for x in full if x != ORIGIN and region.arc.contains(direction_of(x)))
    if isinstance(region, Ball):
        return frozenset(x for x in full if norm_sq(x) < region.radius * region.radius)
    if isinstance(region, Annulus):
        lo, hi = region.inner * region.inner, region.outer * region.outer
        return frozenset(x for x in full if lo <= norm_sq(x) < hi)
    if isinstance(region, Explicit):
        return region.sites & full
    if isinstance(region, Complement):
        return full - old_region_sites(region.region, window)
    if isinstance(region, RegionUnion):
        return old_region_sites(region.left, window) | old_region_sites(region.right, window)
    return old_region_sites(region.left, window) & old_region_sites(region.right, window)


@st.composite
def _radii(draw):
    """Rationals in [0, 9]; the large denominators put the squared
    numerator far past int64."""
    den = draw(st.integers(1, 12) | st.integers(2**31, 2**70))
    return Fraction(draw(st.integers(0, 9 * den)), den)


@st.composite
def _annuli(draw):
    inner, outer = sorted((draw(_radii()), draw(_radii())))
    return Annulus(inner, outer)


def _regions(planar: bool):
    site = st.tuples(st.integers(-9, 9), st.integers(-9, 9)) if planar else st.integers(-12, 12)
    leaves = [
        st.builds(Ball, _radii()),
        _annuli(),
        st.builds(Explicit, st.frozensets(site, max_size=12)),
    ]
    if planar:
        vector = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any)
        leaves.append(st.builds(lambda a, b: Cone(Arc.from_vectors(a, b)), vector, vector))
    return st.recursive(
        st.one_of(leaves),
        lambda kids: st.builds(Complement, kids)
        | st.builds(RegionUnion, kids, kids)
        | st.builds(RegionIntersection, kids, kids),
        max_leaves=6,
    )


@st.composite
def _window_and_region(draw):
    planar = draw(st.booleans())
    radius = Fraction(draw(st.integers(2, 14)), 2) if planar else draw(st.integers(1, 10))
    window = TruncationWindow.plane(radius) if planar else TruncationWindow.line(radius)
    return window, draw(_regions(planar))


@given(case=_window_and_region())
@example(case=(TruncationWindow.plane(5), Ball(5)))  # 3^2 + 4^2 sits on the bound
@example(case=(TruncationWindow.plane(5), Annulus(5, Fraction(2**70 * 5 + 1, 2**70))))
@example(case=(TruncationWindow.line(6), Complement(Annulus(2, 4))))
@example(case=(TruncationWindow.plane(3), Ball(Fraction(10**40, 3))))
def test_region_mask_matches_the_per_site_fraction_rule(case):
    window, region = case
    want = old_region_sites(region, window)
    mask = region_mask(region, window)
    assert mask.dtype == bool and mask.shape == (window.dimension,)
    assert not mask.flags.writeable
    assert mask.tolist() == [x in want for x in window.sites]
    assert region_sites(region, window) == want
    inside = [x for x, m in zip(window.sites, mask) if m]
    assert inside == sorted(want, key=site_sort_key)  # basis order
