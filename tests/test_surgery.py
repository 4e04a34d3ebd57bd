"""Deletion series, localized centers, corrective unitary, greedy matching."""


import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oplab.errors import PreconditionError
from oplab.geometry import (
    Arc,
    Ball,
    Direction,
    Explicit,
    FULL_REGION,
    direction_of,
    region_sites,
)
from oplab.locality import CentersPlan
from oplab.operators import Operator, Projection, laughlin_operator, spectral_norm
from oplab.surgery import (
    GreedyIsometry,
    ProjectionPair,
    corrective_unitary,
    deletion_series,
    greedy_isometry,
    localized_centers,
    mixing_indices,
)
from oplab.surgery import _center_arc
from oplab.windows import TruncationWindow

from conftest import greedy_operator, traced_peak

RIGHT = Arc(Direction(1, -1), Direction(1, 1))
LEFT = Arc(Direction(-1, 1), Direction(-1, -1))


def random_operator(window, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    d = window.dimension
    entries = scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return Operator(window, entries)


def region_pair(window, row_sites, col_sites, a):
    p = Projection.from_region(Explicit(frozenset(row_sites)), window)
    q = Projection.from_region(Explicit(frozenset(col_sites)), window)
    return ProjectionPair.for_operator(p, q, a)


def small_perturbation_of_phase(window, seed=0, scale=0.01):
    """Diagonal angular phase plus a small nearest-neighbor hopping term."""
    rng = np.random.default_rng(seed)
    base = laughlin_operator(window)
    d = window.dimension
    bump = np.zeros((d, d), dtype=np.complex128)
    for i, si in enumerate(window.sites):
        for k, sk in enumerate(window.sites):
            if (si[0] - sk[0]) ** 2 + (si[1] - sk[1]) ** 2 <= 1 and i != k:
                bump[i, k] = scale * (rng.normal() + 1j * rng.normal())
    return Operator(window, base.entries + bump)


# ---------------------------------------------------------------------------
# deletion_series


def test_projection_pair_validation():
    w = TruncationWindow.plane(2)
    p = Projection.from_region(Ball(1), w)
    with pytest.raises(ValueError):
        ProjectionPair(p, p, -0.5)


def test_single_pair_deletes_block_exactly():
    w = TruncationWindow.plane(3)
    a = random_operator(w, seed=1, scale=0.1)
    pair = region_pair(w, [(0, 1), (1, 1)], [(2, 0), (-1, 0)], a)
    eps = 4.0 * pair.bound
    b = deletion_series(a, [pair], eps)
    manual = a.entries - pair.p.entries @ a.entries @ pair.q.entries
    assert np.allclose(b.entries, manual, atol=1e-14)
    # masked block is structurally zero after the snap
    rows = [w.index_of(s) for s in ((0, 1), (1, 1))]
    cols = [w.index_of(s) for s in ((2, 0), (-1, 0))]
    assert not np.any(b.entries[np.ix_(rows, cols)])


def test_two_pair_series_formula():
    w = TruncationWindow.plane(3)
    a = random_operator(w, seed=2, scale=0.05)
    pair1 = region_pair(w, [(0, 1), (1, 1)], [(2, 0), (1, -1)], a)
    pair2 = region_pair(w, [(1, 1), (0, -1)], [(2, 0), (0, 2)], a)
    eps = 16.0 * max(pair1.bound, pair2.bound)
    b = deletion_series(a, [pair1, pair2], eps)
    p1, q1 = pair1.p.entries, pair1.q.entries
    p2, q2 = pair2.p.entries, pair2.q.entries
    s2 = p1 @ a.entries @ q1 + p2 @ a.entries @ q2 - p1 @ p2 @ a.entries @ q1 @ q2
    assert np.allclose(b.entries, a.entries - s2, atol=1e-13)
    assert spectral_norm(a.entries - b.entries) <= pair1.bound + 2 * pair2.bound + 1e-12


def test_orthogonal_pairs_subtract_independently():
    w = TruncationWindow.plane(3)
    a = random_operator(w, seed=3, scale=0.05)
    pair1 = region_pair(w, [(0, 1)], [(2, 0)], a)
    pair2 = region_pair(w, [(1, 1)], [(0, 2)], a)  # disjoint rows and columns
    eps = 16.0 * max(pair1.bound, pair2.bound, 1e-9)
    b = deletion_series(a, [pair1, pair2], eps)
    manual = (
        a.entries
        - pair1.p.entries @ a.entries @ pair1.q.entries
        - pair2.p.entries @ a.entries @ pair2.q.entries
    )
    assert np.allclose(b.entries, manual, atol=1e-14)


def test_deletion_budget_recheck_names_offender():
    w = TruncationWindow.plane(3)
    a = random_operator(w, seed=4)
    pair1 = region_pair(w, [(0, 1)], [(2, 0)], a)
    pair2 = region_pair(w, [(1, 1), (2, 0)], [(0, 2), (0, -2)], a)
    # eps small enough that the second budget eps/8 is violated
    eps = pair2.bound * 4.0
    if pair1.bound <= eps / 2.0:  # keep pair 1 legal
        with pytest.raises(PreconditionError) as err:
            deletion_series(a, [pair1, pair2], eps)
        assert "pair 2" in str(err.value)


@given(
    radius=st.integers(2, 4),
    n_pairs=st.integers(1, 4),
    density=st.floats(0.05, 0.6),
    eps=st.floats(1e-3, 0.9),
    excess=st.floats(1e-6, 4.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_deletion_budget_check_on_random_sparse_operators(
    radius, n_pairs, density, eps, excess, seed, data
):
    """Pair k's block just over eps/2^(2k-1) raises a PreconditionError
    naming pair k; the same block scaled just under its budget passes."""
    offender = data.draw(st.integers(1, n_pairs))
    w = TruncationWindow.plane(radius)
    d = w.dimension
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    entries = np.where(rng.random((d, d)) < density, values, 0.0)
    # pair k cuts the rows and the columns that draw owner k, so the
    # blocks share no row and no column; each pair owns one of each
    owners = rng.integers(0, n_pairs + 1, size=(2, d))
    owners[0, :n_pairs] = owners[1, d - n_pairs :] = np.arange(1, n_pairs + 1)
    pairs, blocks = [], []
    for k in range(1, n_pairs + 1):
        rows, cols = (np.flatnonzero(o == k) for o in owners)
        block = np.ix_(rows, cols)
        if not np.any(entries[block]):
            entries[rows[0], cols[0]] = 1.0
        entries[block] *= 0.5 / spectral_norm(entries[block])  # half its budget
        masks = [Explicit(frozenset(w.sites[i] for i in idx)) for idx in (rows, cols)]
        pairs.append(ProjectionPair(*(Projection.from_region(m, w) for m in masks)))
        blocks.append(block)
    budgets = [eps / 2.0 ** (2 * k - 1) for k in range(1, n_pairs + 1)]
    for block, budget in zip(blocks, budgets):
        entries[block] *= budget
    cut = blocks[offender - 1]

    over = entries.copy()
    over[cut] *= 2.0 * (1.0 + excess)
    with pytest.raises(PreconditionError, match=f"pair {offender}:"):
        deletion_series(Operator(w, over), pairs, eps)

    under = entries.copy()
    under[cut] *= 2.0 * (1.0 - 1e-9)
    b = deletion_series(Operator(w, under), pairs, eps)
    for block in blocks:
        assert not np.any(b.entries[block])


def test_deletion_residuals_are_structural_zeros():
    w = TruncationWindow.plane(4)
    a = random_operator(w, seed=5, scale=0.02)
    pairs = [
        region_pair(w, [(0, 1), (1, 1)], [(3, 0)], a),
        region_pair(w, [(2, 2)], [(3, 0), (0, 3)], a),
        region_pair(w, [(0, 1), (2, 2)], [(0, 3), (-3, 0)], a),
    ]
    eps = 64.0 * max(p.bound for p in pairs)
    b = deletion_series(a, pairs, eps)
    for pair in pairs:
        block = pair.p.entries @ b.entries @ pair.q.entries
        assert not np.any(block)
    assert spectral_norm(a.entries - b.entries) <= eps + 1e-12


def test_single_pair_perturbation_norm_is_block_norm():
    w = TruncationWindow.plane(3)
    a = random_operator(w, seed=6)
    pair = region_pair(w, [(1, 1), (0, 1)], [(2, 0), (2, -1)], a)
    b = deletion_series(a, [pair], eps=4.0 * pair.bound)
    assert abs(spectral_norm(a.entries - b.entries) - pair.bound) < 1e-12


# ---------------------------------------------------------------------------
# localized_centers


def test_localized_centers_identity_is_fixed():
    w = TruncationWindow.plane(6)
    thetas = [Direction(1, 0), Direction(0, 1)]
    b, plan = localized_centers(Operator.identity(w), thetas, 0.5)
    assert np.array_equal(b.entries, np.eye(w.dimension))
    assert plan.ranges == tuple(frozenset([c]) for c in plan.centers)


def test_localized_centers_diagonal_phase_is_fixed():
    w = TruncationWindow.plane(6)
    u = laughlin_operator(w)
    b, plan = localized_centers(u, [Direction(1, 1)], 0.25)
    assert np.array_equal(b.entries, u.entries)
    assert plan.ranges == (frozenset([plan.centers[0]]),)


def test_localized_centers_perturbed_plan_properties():
    w = TruncationWindow.plane(8)
    a = small_perturbation_of_phase(w, seed=7)
    thetas = [Direction(1, 0), Direction(0, 1)]
    eps = 0.5
    b, plan = localized_centers(a, thetas, eps)
    assert spectral_norm(a.entries - b.entries) <= eps + 1e-12
    assert len(plan) == 2
    for k, (center, theta) in enumerate(zip(plan.centers, thetas)):
        assert direction_of(center) == theta
        # range sits inside the half-open shell, exactly
        inner, outer = plan.inner_radius(k), plan.radii[k]
        for site in plan.ranges[k]:
            n2 = site[0] ** 2 + site[1] ** 2
            assert inner * inner <= n2 < outer * outer
        # the confined column vanishes outside its range, structurally
        col = b.entries[:, w.index_of(center)]
        outside = [i for i, s in enumerate(w.sites) if s not in plan.ranges[k]]
        assert not np.any(col[outside])
    assert "localized-centers" in plan.source


def test_mixing_indices_checks():
    w = TruncationWindow.plane(8)
    a = small_perturbation_of_phase(w, seed=8)
    _, plan = localized_centers(a, [Direction(1, 0), Direction(0, 1)], 0.5)
    mix = mixing_indices(plan, RIGHT, LEFT)
    assert isinstance(mix, tuple)
    with pytest.raises(PreconditionError):
        mixing_indices(plan, RIGHT, RIGHT)
    bare = CentersPlan(plan.centers, plan.radii, plan.budgets)
    with pytest.raises(PreconditionError):
        mixing_indices(bare, RIGHT, LEFT)


# ---------------------------------------------------------------------------
# corrective_unitary


def test_corrective_identity_when_columns_are_centered():
    w = TruncationWindow.plane(4)
    plan = CentersPlan(
        ((1, 0), (0, 2)),
        (2, 3),
        (0.5, 0.5),
        ranges=(frozenset([(1, 0)]), frozenset([(0, 2)])),
    )
    v = corrective_unitary(Operator.identity(w), plan)
    assert np.array_equal(v.entries, np.eye(w.dimension))


def test_corrective_transposition_block():
    w = TruncationWindow.plane(4)
    center, other = (1, 0), (1, 1)
    d = w.dimension
    entries = np.eye(d, dtype=np.complex128)
    i, j = w.index_of(center), w.index_of(other)
    entries[:, i] = 0.0
    entries[j, i] = 1.0  # B delta_center = delta_other
    plan = CentersPlan(
        (center,), (3,), (0.5,), ranges=(frozenset([center, other]),)
    )
    v = corrective_unitary(Operator(w, entries), plan)
    assert v.entries[i, j] == 1.0 and v.entries[j, i] == 1.0
    assert v.entries[i, i] == 0.0 and v.entries[j, j] == 0.0
    assert v.unitarity_defect() < 1e-12


def test_corrective_pipeline_block_form():
    w = TruncationWindow.plane(8)
    a = small_perturbation_of_phase(w, seed=9)
    thetas = [Direction(1, 0), Direction(0, 1)]
    b, plan = localized_centers(a, thetas, 0.5)
    v = corrective_unitary(b, plan)
    assert v.unitarity_defect() <= 1e-10
    # identity outside the union of ranges, exactly
    inside = {w.index_of(s) for y in plan.ranges for s in y}
    outside = sorted(set(range(w.dimension)) - inside)
    eye = np.eye(w.dimension)
    assert np.array_equal(v.entries[np.ix_(outside, outside)], eye[np.ix_(outside, outside)])
    assert not np.any(v.entries[np.ix_(outside, sorted(inside))])
    assert not np.any(v.entries[np.ix_(sorted(inside), outside)])
    # each corrected column collapses onto its center coordinate
    vb = v.entries @ b.entries
    for center in plan.centers:
        i = w.index_of(center)
        col = vb[:, i]
        norm = np.linalg.norm(b.entries[:, i])
        assert abs(col[i] - norm) <= 1e-10
        rest = np.delete(col, i)
        assert np.linalg.norm(rest) <= 1e-10


def test_corrective_error_cases():
    w = TruncationWindow.plane(4)
    d = w.dimension
    center = (1, 0)
    dead = np.eye(d, dtype=np.complex128)
    dead[:, w.index_of(center)] = 0.0
    plan = CentersPlan((center,), (2,), (0.5,), ranges=(frozenset([center]),))
    with pytest.raises(PreconditionError):
        corrective_unitary(Operator(w, dead), plan)
    leaky = np.eye(d, dtype=np.complex128)
    leaky[w.index_of((0, 2)), w.index_of(center)] = 0.5  # outside the range
    with pytest.raises(PreconditionError):
        corrective_unitary(Operator(w, leaky), plan)
    rangeless = CentersPlan((center,), (2,), (0.5,))
    with pytest.raises(PreconditionError):
        corrective_unitary(Operator.identity(w), rangeless)


# ---------------------------------------------------------------------------
# greedy_isometry


def test_greedy_self_match_is_identity_on_s():
    w = TruncationWindow.plane(4)
    out = greedy_isometry(FULL_REGION, 0, w)
    assert out.unmatched == ()
    assert np.array_equal(greedy_operator(out), np.eye(w.dimension))
    for m in out.matches:
        assert m.source == m.target and m.stack == 0


def test_greedy_structure_with_one_extra_copy():
    w = TruncationWindow.plane(4)
    out = greedy_isometry(FULL_REGION, 1, w)
    v = greedy_operator(out)
    gram = v.conj().T @ v
    # V*V is the exact 0/1 diagonal of matched sources
    expected = np.zeros_like(gram)
    amp = out.window
    for m in out.matches:
        i = amp.index_of(m.stack, m.source)
        expected[i, i] = 1.0
    assert np.array_equal(gram, expected)
    # VV* is a 0/1 diagonal supported on stack-0 sites of S
    proj = v @ v.conj().T
    assert np.array_equal(proj, np.diag(np.diag(proj)))
    diag = np.diag(proj).real
    assert set(np.unique(diag)) <= {0.0, 1.0}
    assert not np.any(diag[w.dimension:])
    # every source is either matched or reported unmatched
    assert len(out.matches) + len(out.unmatched) == 2 * w.dimension
    assert len(out.unmatched) > 0  # capacity shortfall is visible, not hidden
    # deterministic rerun
    again = greedy_isometry(FULL_REGION, 1, w)
    assert again.matches == out.matches and again.unmatched == out.unmatched


def test_greedy_isometry_holds_only_its_matches():
    w = TruncationWindow.plane(20)
    greedy_isometry(FULL_REGION, 1, w)  # fills the window's cached sites
    out, peak = traced_peak(lambda: greedy_isometry(FULL_REGION, 1, w))
    stacked = (2 * w.dimension) ** 2 * 16  # one dense (2d) x (2d) complex array
    assert peak < stacked / 20
    assert len(out.matches) + len(out.unmatched) == 2 * w.dimension


def test_greedy_matches_respect_their_arcs():
    w = TruncationWindow.plane(5)
    out = greedy_isometry(FULL_REGION, 1, w)
    for m in out.matches:
        if m.source == (0, 0):
            continue
        if m.exact:
            assert direction_of(m.target) == direction_of(m.source)
        else:
            arc = _center_arc(direction_of(m.source), m.index)
            assert arc.contains(direction_of(m.target))


def test_greedy_premise_failure_lists_directions():
    w = TruncationWindow.plane(4)
    with pytest.raises(PreconditionError) as err:
        greedy_isometry(Ball(2), 0, w)
    assert "direction classes" in str(err.value)
    out = greedy_isometry(Ball(2), 0, w, require_ray_dense=False)
    assert len(out.matches) == len(region_sites(Ball(2), w))


def test_greedy_no_cross_matches_across_wide_gap():
    for radius in (3, 4, 5):
        w = TruncationWindow.plane(radius)
        out = greedy_isometry(FULL_REGION, 1, w)
        crossings = [
            m
            for m in out.matches
            if m.source != (0, 0)
            and RIGHT.contains(direction_of(m.source))
            and LEFT.contains(direction_of(m.target))
        ]
        assert crossings == []


def test_greedy_cross_matches_bounded_for_narrow_gap():
    i_arc = Arc(Direction(1, 0), Direction(1, 1))
    j_arc = Arc(Direction(1, 2), Direction(0, 1))  # gap arctan(1/3) from i_arc
    for radius in (3, 4, 5, 6):
        w = TruncationWindow.plane(radius)
        out = greedy_isometry(FULL_REGION, 1, w)
        crossings = [
            m
            for m in out.matches
            if m.source != (0, 0)
            and i_arc.contains(direction_of(m.source))
            and j_arc.contains(direction_of(m.target))
        ]
        # only the k = 1 source has an arc wide enough to cross the gap
        assert len(crossings) <= 1


def test_greedy_rejects_bad_inputs():
    w = TruncationWindow.plane(3)
    with pytest.raises(PreconditionError):
        greedy_isometry(FULL_REGION, -1, w)
    with pytest.raises(PreconditionError):
        greedy_isometry(FULL_REGION, 0, TruncationWindow.line(3))
