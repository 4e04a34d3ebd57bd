"""Cone block norms, decay profiles, finite supports, cone split, annuli."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oplab.locality
from oplab.errors import (
    OplabError,
    PreconditionError,
    RepresentationError,
    StageError,
    WindowExhaustedError,
)
from oplab.geometry import Arc, Direction, direction_of
from oplab.locality import (
    CentersPlan,
    ConeSplit,
    DecayProfile,
    annulus_confine,
    block_norm,
    compactness_profile,
    cone_split,
)
from oplab.operators import (
    CircleFunction,
    Operator,
    laughlin_operator,
)
from oplab.windows import TruncationWindow

RIGHT = Arc(Direction(1, -1), Direction(1, 1))  # east quadrant-ish cone
LEFT = Arc(Direction(-1, 1), Direction(-1, -1))  # west counterpart


def _dist2(a, b):
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def finite_range_operator(window, hop, seed=0):
    """Random operator with hopping range at most ``hop``."""
    rng = np.random.default_rng(seed)
    d = window.dimension
    entries = np.zeros((d, d), dtype=np.complex128)
    for i, si in enumerate(window.sites):
        for k, sk in enumerate(window.sites):
            if _dist2(si, sk) <= hop * hop:
                entries[i, k] = rng.normal() + 1j * rng.normal()
    return Operator(window, entries)


def hop_operator(window, src, dst, magnitude=1.0):
    d = window.dimension
    entries = np.zeros((d, d), dtype=np.complex128)
    entries[window.index_of(dst), window.index_of(src)] = magnitude
    return Operator(window, entries)


# ---------------------------------------------------------------------------
# block_norm


def test_block_norm_of_diagonal_is_zero():
    w = TruncationWindow.plane(5)
    assert block_norm(laughlin_operator(w), RIGHT, LEFT) == 0.0
    assert block_norm(Operator.identity(w), RIGHT, LEFT) == 0.0


def test_block_norm_of_cross_cone_hop_is_one():
    w = TruncationWindow.plane(5)
    a = hop_operator(w, (3, 0), (-3, 1))  # source in RIGHT, target in LEFT
    assert abs(block_norm(a, RIGHT, LEFT) - 1.0) < 1e-15


def test_block_norm_bounded_by_operator_norm():
    w = TruncationWindow.plane(4)
    a = finite_range_operator(w, 2, seed=5)
    top = a.norm()
    arcs = [
        (RIGHT, LEFT),
        (Arc(Direction(0, 1), Direction(-1, 0)), Arc(Direction(1, 0), Direction(1, 1))),
    ]
    for i, j in arcs:
        assert block_norm(a, i, j) <= top + 1e-12


def test_block_norm_needs_plane():
    with pytest.raises(RepresentationError):
        block_norm(Operator.identity(TruncationWindow.line(3)), RIGHT, LEFT)


# ---------------------------------------------------------------------------
# compactness_profile


def test_profile_of_identity_is_zero():
    w = TruncationWindow.plane(5)
    prof = compactness_profile(Operator.identity(w), RIGHT, LEFT, [1, 2, 3])
    assert prof.values == (0.0, 0.0, 0.0)


def test_profile_vanishes_past_finite_support():
    w = TruncationWindow.plane(8)
    a = hop_operator(w, (3, 1), (-3, 1), 2.0)  # support inside ball of radius 5
    prof = compactness_profile(a, RIGHT, LEFT, [2, 5, 7])
    assert prof.values[0] > 0
    assert prof.values[1] == 0.0
    assert prof.values[2] == 0.0


def test_profile_nonincreasing_and_matches_direct_masks():
    w = TruncationWindow.plane(6)
    a = finite_range_operator(w, 2, seed=1)
    cutoffs = [1, 2, 3, 4, 5]
    prof = compactness_profile(a, RIGHT, LEFT, cutoffs)
    assert all(b <= x + 1e-12 for x, b in zip(prof.values, prof.values[1:]))
    # direct recomputation of each masked norm
    for r, v in zip(prof.radii, prof.values):
        rows = [
            w.index_of(s)
            for s in w.sites
            if s != (0, 0)
            and LEFT.contains(direction_of(s))
            and s[0] ** 2 + s[1] ** 2 >= r * r
        ]
        cols = [
            w.index_of(s)
            for s in w.sites
            if s != (0, 0) and RIGHT.contains(direction_of(s))
        ]
        oracle = (
            np.linalg.norm(a.entries[np.ix_(rows, cols)], 2) if rows and cols else 0.0
        )
        assert abs(v - oracle) < 1e-13


def test_profile_of_twisted_finite_range_reaches_zero():
    # f(L) D g(L) with diagonal circle-function factors and finite-range D
    w = TruncationWindow.plane(7)
    u = laughlin_operator(w)
    phases = np.diag(u.entries)
    f = Operator.diagonal(w, CircleFunction.from_coefficients({1: 1.0, -2: 0.5})(phases))
    g = Operator.diagonal(w, CircleFunction.from_coefficients({0: 1.0, 3: -1.0})(phases))
    a = f @ finite_range_operator(w, 1, seed=2) @ g
    prof = compactness_profile(a, RIGHT, LEFT, [2, 4, 6, 7])
    assert prof.values[-1] == 0.0


def test_profile_requires_disjoint_arcs():
    w = TruncationWindow.plane(3)
    with pytest.raises(PreconditionError):
        compactness_profile(Operator.identity(w), RIGHT, RIGHT, [1])


def test_decay_profile_validation():
    with pytest.raises(PreconditionError):
        DecayProfile((1, 2), (0.5,))
    with pytest.raises(PreconditionError):
        DecayProfile((2, 1), (0.5, 0.5))
    with pytest.raises(PreconditionError):
        DecayProfile((1, 2), (0.5, -0.1))
    rows = list(DecayProfile((1, Fraction(5, 2)), (1.0, 0.0)).csv_rows())
    assert rows[0] == ("radius", "value")
    assert rows[1][0] == "1" and rows[2][0] == "5/2"


# ---------------------------------------------------------------------------
# cone_split


def test_cone_split_diagonal_all_bad():
    w = TruncationWindow.plane(5)
    split = cone_split(laughlin_operator(w), RIGHT, 0.25)
    assert split.good == frozenset()
    assert split.achieved_bound == 0.0
    complement = {
        s
        for s in w.sites
        if s != (0, 0) and not RIGHT.contains(direction_of(s))
    }
    assert split.bad == complement


def test_cone_split_captures_forced_hop():
    w = TruncationWindow.plane(6)
    eps = 0.1
    src, dst = (4, 0), (0, 4)  # src in RIGHT cone, dst well outside
    a = Operator.identity(w) + hop_operator(w, src, dst, 2.0 * eps)
    split = cone_split(a, RIGHT, eps)
    assert dst in split.good
    assert split.achieved_bound <= eps + 1e-12


def test_cone_split_partitions_complement():
    w = TruncationWindow.plane(5)
    a = finite_range_operator(w, 2, seed=3)
    eps = 0.5 * a.norm()
    split = cone_split(a, RIGHT, eps)
    complement = {
        s for s in w.sites if s != (0, 0) and not RIGHT.contains(direction_of(s))
    }
    assert split.good | split.bad == complement
    assert not (split.good & split.bad)
    # the promised bound, recomputed from scratch
    rows = [w.index_of(s) for s in split.bad]
    cols = [
        w.index_of(s)
        for s in w.sites
        if s != (0, 0) and RIGHT.contains(direction_of(s))
    ]
    direct = np.linalg.norm(a.entries[np.ix_(rows, cols)], 2) if rows and cols else 0.0
    assert direct <= eps + 1e-12
    assert abs(direct - split.achieved_bound) < 1e-13


def test_cone_split_full_circle_is_empty():
    w = TruncationWindow.plane(3)
    full = Arc(Direction(1, 0), Direction(1, 0))
    split = cone_split(finite_range_operator(w, 1, seed=4), full, 0.5)
    assert split.good == frozenset() and split.bad == frozenset()


def test_cone_split_bails_out_as_a_stage_error(monkeypatch):
    # a neighborhood that never shrinks captures no shell at any stage
    full = Arc(Direction(1, 0), Direction(1, 0))
    monkeypatch.setattr(oplab.locality, "widen_arc", lambda arc, k: full)
    w = TruncationWindow.plane(3)
    with pytest.raises(OplabError) as err:
        cone_split(laughlin_operator(w), RIGHT, 0.5)
    assert isinstance(err.value, StageError)
    assert err.value.stage == "cone-split"


def test_cone_split_csv_rows():
    w = TruncationWindow.plane(3)
    split = cone_split(laughlin_operator(w), RIGHT, 0.5)
    rows = list(split.csv_rows())
    assert rows[0] == ("site", "kind")
    assert len(rows) == 1 + len(split.good) + len(split.bad)


def test_cone_split_validation():
    with pytest.raises(PreconditionError):
        ConeSplit(frozenset({(1, 0)}), frozenset({(1, 0)}), 0.1)
    with pytest.raises(PreconditionError):
        ConeSplit(frozenset(), frozenset(), -0.1)


# ---------------------------------------------------------------------------
# annulus_confine


def test_annulus_identity_trivial_bounds():
    w = TruncationWindow.plane(6)
    thetas = [Direction(1, 0), Direction(0, 1), Direction(-1, 1)]
    plan = annulus_confine(Operator.identity(w), thetas, [0.5, 0.5, 0.5])
    assert len(plan) == 3
    for k, (center, theta) in enumerate(zip(plan.centers, thetas)):
        assert Direction.from_vector(*center) == theta
        n2 = center[0] ** 2 + center[1] ** 2
        assert plan.inner_radius(k) ** 2 <= n2 < plan.radii[k] ** 2


def test_annulus_bounds_recomputed_for_gaussian():
    w = TruncationWindow.plane(8)
    d = w.dimension
    entries = np.zeros((d, d), dtype=np.complex128)
    for i, si in enumerate(w.sites):
        for k, sk in enumerate(w.sites):
            entries[i, k] = math.exp(-_dist2(si, sk) / 2.0)
    a = Operator(w, entries)
    thetas = [Direction(1, 0), Direction(0, 1)]
    eps = [0.8, 0.6]
    plan = annulus_confine(a, thetas, eps)
    norms2 = np.array([s[0] ** 2 + s[1] ** 2 for s in w.sites])
    for k, center in enumerate(plan.centers):
        inner = plan.inner_radius(k)
        outer = plan.radii[k]
        mask = (norms2 >= float(outer) ** 2) | (norms2 < float(inner) ** 2)
        col = a.entries[mask, w.index_of(center)]
        assert np.linalg.norm(col) <= eps[k] + 1e-12


def test_annulus_nested_radii_and_shells():
    w = TruncationWindow.plane(10)
    a = finite_range_operator(w, 1, seed=8)
    thetas = [Direction(1, 0), Direction(1, 1), Direction(0, 1)]
    plan = annulus_confine(a, thetas, [0.9, 0.9, 0.9])
    assert all(b > x for x, b in zip(plan.radii, plan.radii[1:]))
    for k, center in enumerate(plan.centers):
        n2 = center[0] ** 2 + center[1] ** 2
        assert n2 >= plan.inner_radius(k) ** 2
        assert n2 < plan.radii[k] ** 2


def test_annulus_window_exhaustion_names_index():
    w = TruncationWindow.plane(3)
    d = w.dimension
    rng = np.random.default_rng(12)
    a = Operator(w, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    with pytest.raises(WindowExhaustedError) as err:
        annulus_confine(a, [Direction(1, 0)] * 4, [1e-9] * 4)
    assert "index 2" in str(err.value)


def test_annulus_input_validation():
    w = TruncationWindow.plane(3)
    a = Operator.identity(w)
    with pytest.raises(PreconditionError):
        annulus_confine(a, [], [])
    with pytest.raises(PreconditionError):
        annulus_confine(a, [Direction(1, 0)], [0.5, 0.5])
    with pytest.raises(PreconditionError):
        annulus_confine(a, [Direction(1, 0)], [-1.0])


# ---------------------------------------------------------------------------
# CentersPlan type


def test_centers_plan_validation():
    with pytest.raises(PreconditionError):
        CentersPlan(((1, 0),), (2, 3), (0.5,))  # length mismatch
    with pytest.raises(PreconditionError):
        CentersPlan(((1, 0), (3, 0)), (4, 2), (0.5, 0.5))  # radii not increasing
    with pytest.raises(PreconditionError):
        CentersPlan(((1, 0),), (2,), (0.5,), ranges=(frozenset({(0, 5)}),))
    with pytest.raises(PreconditionError):
        CentersPlan(
            ((1, 0), (3, 0)),
            (2, 4),
            (0.5, 0.5),
            ranges=(frozenset({(1, 0), (9, 9)}), frozenset({(3, 0), (9, 9)})),
        )


def test_centers_plan_json_shape():
    plan = CentersPlan(
        ((1, 0), (0, 3)),
        (2, 4),
        (0.5, 0.25),
        ranges=(frozenset({(1, 0)}), frozenset({(0, 3), (0, 2)})),
        source="unit-test",
    )
    blob = plan.to_json_dict()
    assert blob["format"] == "centersplan v1"
    assert blob["centers"] == [[1, 0], [0, 3]]
    assert blob["radii"] == ["2", "4"]
    assert blob["ranges"][1] == [[0, 2], [0, 3]]
