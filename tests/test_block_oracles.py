"""Fast paths pinned to their dense references.

Norms, masked products and index defects skip structural zeros, path
segments sample closed forms built once, certificates bound spectral
segments from their factors, and factorizations run one connected
component of the nonzero pattern at a time; each test here recomputes
the same quantity over the full window with plain numpy (or through the
dense fallback) and requires agreement, or that the bound contains the
dense value.
"""

import dataclasses
import json
import math
from fractions import Fraction
from functools import cached_property, partial

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st

from oplab.errors import BoundaryContaminationError, MethodDisagreementError, PreconditionError
from oplab.geometry import Arc, Ball, Cone, Direction, Explicit
import oplab.homotopy
import oplab.locality
from oplab.homotopy import (
    BOUND_SLACK,
    AffineSegment,
    BlockSample,
    CertifyConfig,
    SpectralSegment,
    _block_peel,
    _locality_indices,
    _log_segment,
    block_peel,
    block_unitary_homotopy,
    certify_path,
    conjugation_path,
    log_path,
    polar_path,
    straight_line,
)
from oplab.index import (
    DEFAULT_INDEX_CONFIG,
    GAP_FACTOR,
    IndexConfig,
    _compressed,
    _count_localized,
    _cut_neighborhood_mask,
    _defects,
    _kernel_index,
    _masks,
    _nonzero,
    _split,
    cut_interface,
    fredholm_index,
    index_k_projection,
    interior_mask,
    projection_index,
)
import oplab.operators
from oplab.operators import (
    BRACKET_SLACK,
    Operator,
    Projection,
    block_stacks,
    components,
    gram_eigenvalues,
    norm_at_most,
    norm_bracket,
    shift_operator,
    spectral_norm,
    unitarity_defect,
)
from oplab.runner import DEFAULT_ARC_PAIR, ExperimentConfig, run, seeded_local_unitary
from oplab.surgery import ProjectionPair, _center_arc, deletion_series, greedy_isometry
from oplab.windows import TruncationWindow

from conftest import dense_factors, with_factors


def sparse_complex(rng, rows, cols, density):
    values = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return np.where(rng.random((rows, cols)) < density, values, 0.0)


def dense_norm(m):
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


# ---------------------------------------------------------------------------
# operators


@given(
    rows=st.integers(0, 12),
    cols=st.integers(0, 12),
    density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=0, cols=5, density=1.0, seed=0)
@example(rows=6, cols=6, density=0.0, seed=0)
@example(rows=7, cols=3, density=1.0, seed=1)
def test_spectral_norm_matches_dense_norm(rows, cols, density, seed):
    m = sparse_complex(np.random.default_rng(seed), rows, cols, density)
    assert abs(spectral_norm(m) - dense_norm(m)) <= 1e-12 * max(1.0, dense_norm(m))


@given(
    rows=st.integers(1, 10),
    cols=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_norm_of_a_single_entry(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = np.zeros((rows, cols), dtype=np.complex128)
    value = complex(rng.standard_normal(), rng.standard_normal())
    m[rng.integers(rows), rng.integers(cols)] = value
    assert abs(spectral_norm(m) - abs(value)) <= 1e-15 * max(1.0, abs(value))
    assert abs(spectral_norm(m) - dense_norm(m)) <= 1e-12 * max(1.0, abs(value))


def ulps_from(value, steps):
    """value moved by ``steps`` units in the last place (either way)."""
    toward = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, toward))
    return value


def assert_decision_is_the_svd(m):
    """norm_at_most against spectral_norm at bounds on and around the
    norm, and far from it on both sides."""
    norm = spectral_norm(m)
    bounds = [norm * f for f in (0.0, 0.5, 0.99, 1.01, 2.0)] + [1e-50, 1.0, 1e50]
    bounds += [ulps_from(norm, k) for k in range(-4, 5)]
    for bound in bounds:
        assert norm_at_most(m, bound) == (spectral_norm(m) <= bound), (norm, bound)


@given(
    rows=st.integers(0, 12),
    cols=st.integers(0, 12),
    density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=0, cols=5, density=1.0, seed=0)
@example(rows=6, cols=6, density=0.0, seed=0)
def test_norm_at_most_is_the_svd_decision(rows, cols, density, seed):
    assert_decision_is_the_svd(sparse_complex(np.random.default_rng(seed), rows, cols, density))


@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    scale=st.sampled_from([1e-300, 1e-200, 1e-12, 1.0, 3.0, 1e12, 1e170]),
    seed=st.integers(0, 2**32 - 1),
)
def test_norm_at_most_on_rank_one_blocks(rows, cols, scale, seed):
    # ‖X‖_F = ‖X‖_2 for rank one, so bounds within a few ulp of the norm
    # fall inside the bracket's band and the SVD must decide
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    v = rng.standard_normal(cols) + 1j * rng.standard_normal(cols)
    m = scale * np.outer(u, v.conj())
    if 1e-100 < scale < 1e100:  # the squares neither underflow nor overflow
        fro, edge = norm_bracket(m)
        norm = spectral_norm(m)
        slack = BRACKET_SLACK * max(rows, cols) * np.finfo(float).eps
        assert edge <= norm * (1 + slack) and norm <= fro * (1 + slack)
    assert_decision_is_the_svd(m)


def scanned_mask(entries):
    """Full scan of a d x d matrix: the 0/1 diagonal, or None."""
    diag = np.diag(entries)
    if np.any(entries - np.diag(diag)) or not np.all((diag == 0) | (diag == 1)):
        return None
    return diag == 1


@given(
    radius=st.integers(1, 5),
    density=st.sampled_from([0.0, 0.2, 0.7, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_region_projection_mask_matches_a_full_scan(radius, density, seed):
    w = TruncationWindow.plane(radius)
    rng = np.random.default_rng(seed)
    sites = frozenset(s for s in w.sites if rng.random() < density)
    p = Projection.from_region(Explicit(sites), w)
    mask = p.diagonal_mask()
    assert np.array_equal(mask, scanned_mask(p.entries))
    assert {w.sites[i] for i in np.flatnonzero(mask)} == sites
    perp = p.perp()
    assert np.array_equal(perp.diagonal_mask(), ~mask)
    assert np.array_equal(perp.diagonal_mask(), scanned_mask(perp.entries))
    rebuilt = Projection.from_operator(Operator(w, p.entries))
    assert np.array_equal(rebuilt.diagonal_mask(), mask)


def test_stored_mask_is_read_only():
    w = TruncationWindow.plane(2)
    mask = Projection.from_region(Ball(2), w).diagonal_mask()
    with pytest.raises(ValueError):
        mask[0] = not mask[0]


# ---------------------------------------------------------------------------
# surgery


class DenseProjection(Projection):
    """The same projection with its mask hidden: surgery takes the dense
    products, which serve as the reference route."""

    def diagonal_mask(self):
        return None


def dense_only(pair):
    p, q = DenseProjection(pair.p.operator), DenseProjection(pair.q.operator)
    return ProjectionPair(p, q, pair.bound)


@given(
    radius=st.integers(2, 4),
    n_pairs=st.integers(1, 3),
    overlap=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_deletion_series_block_route_matches_dense_route(radius, n_pairs, overlap, seed):
    w = TruncationWindow.plane(radius)
    rng = np.random.default_rng(seed)
    a = Operator(w, sparse_complex(rng, w.dimension, w.dimension, 0.5))
    # disjoint row sets keep the cut blocks disjoint; overlapping ones make
    # a later block rewrite entries an earlier one already wrote into S.
    # Either way the series stays under its cap (removing k - 1 rectangles
    # from a block at most doubles its norm each time), so every bound the
    # series checks holds by construction
    owner = rng.integers(0, n_pairs + 1, size=w.dimension)
    region_pairs, operator_pairs, scale = [], [], 0.0
    for k in range(1, n_pairs + 1):
        taken = rng.random(w.dimension) < 0.5 if overlap else owner == k
        rows = Explicit(frozenset(s for i, s in enumerate(w.sites) if taken[i]))
        cols = Explicit(frozenset(s for s in w.sites if rng.random() < 0.5))
        p, q = Projection.from_region(rows, w), Projection.from_region(cols, w)
        region_pairs.append(ProjectionPair.for_operator(p, q, a))
        p_op = Projection.from_operator(Operator(w, p.entries))
        q_op = Projection.from_operator(Operator(w, q.entries))
        operator_pairs.append(ProjectionPair.for_operator(p_op, q_op, a))
        scale = max(scale, 2.0 ** (2 * k - 1) * region_pairs[-1].bound)
    eps = 2.0 * scale + 1e-3

    b = deletion_series(a, region_pairs, eps)
    assert np.array_equal(deletion_series(a, operator_pairs, eps).entries, b.entries)
    for region, oracle in zip(region_pairs, map(dense_only, region_pairs)):
        pe, qe = oracle.p.entries, oracle.q.entries
        assert oracle.p.diagonal_mask() is None
        assert abs(region.bound - dense_norm(pe @ a.entries @ qe)) <= 1e-12
    dense = deletion_series(a, [dense_only(pair) for pair in region_pairs], eps)
    assert np.max(np.abs(dense.entries - b.entries)) <= 1e-12
    # B is A off the union of the blocks and exactly zero on it
    cut = np.zeros(a.entries.shape, dtype=bool)
    for pair in region_pairs:
        cut[np.ix_(pair.p.diagonal_mask(), pair.q.diagonal_mask())] = True
    assert np.array_equal(b.entries, np.where(cut, 0.0, a.entries))


def svd_shortest_prefix(entries, ordered_rows, cols, budget, probes):
    """The binary search of ``_shortest_prefix`` with an SVD at every
    probe; each probe is appended to ``probes``."""
    rows = np.asarray(ordered_rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)

    def tail(m):
        if m >= rows.size or cols.size == 0:
            return 0.0
        probes.append(m)
        return dense_norm(entries[np.ix_(rows[m:], cols)])

    if tail(0) <= budget:
        return 0
    lo, hi = 0, rows.size
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail(mid) <= budget:
            hi = mid
        else:
            lo = mid
    return hi


def cone_split_cases():
    """(operator, arc, eps): tailed unitaries, whose blocks have no zero
    entry, and sparse random operators, against the centers' arcs."""
    from conftest import tailed_unitary

    cases = []
    for radius, seed in ((6, 1), (8, 2), (10, 3)):
        u = tailed_unitary(TruncationWindow.plane(radius), seed)
        for k, theta in enumerate((Direction(1, 0), Direction(0, 1), Direction(-2, 1)), start=1):
            for eps in (0.5 / 2.0 ** (4 * k - 3), 0.05, 1e-6):
                cases.append((f"tailed-r{radius}-k{k}-{eps:g}", u, _center_arc(theta, k), eps))
    w = TruncationWindow.plane(5)
    rng = np.random.default_rng(5)
    for density in (0.05, 0.3):
        a = Operator(w, sparse_complex(rng, w.dimension, w.dimension, density))
        cases.append((f"sparse-{density}", a, Arc(Direction(1, -1), Direction(1, 1)), 0.3))
    return cases


@pytest.mark.parametrize("case", cone_split_cases(), ids=lambda case: case[0])
def test_cone_split_matches_the_svd_only_prefix_search(case, monkeypatch):
    _, a, arc, eps = case
    svds = []
    norm = oplab.operators.spectral_norm
    monkeypatch.setattr(oplab.operators, "spectral_norm", lambda x: svds.append(x.shape) or norm(x))
    split = oplab.locality.cone_split(a, arc, eps)
    probes = []
    monkeypatch.setattr(
        oplab.locality, "_shortest_prefix", lambda *args: svd_shortest_prefix(*args, probes)
    )
    oracle = oplab.locality.cone_split(a, arc, eps)
    assert split.good == oracle.good and split.bad == oracle.bad
    assert split.achieved_bound == oracle.achieved_bound
    # one SVD is the achieved bound; the probes take one only where the
    # bracket straddles the budget
    assert len(svds) - 1 <= len(probes)


# ---------------------------------------------------------------------------
# index


def dense_compression(p, base):
    pe = p.entries
    return pe @ base.entries @ pe + (np.eye(p.window.dimension) - pe)


def block_compression_oracle(diag, sites, blk, base):
    """P B P + 1 - P as one dense d x d array, for P diagonal off the
    sites and ``blk`` on them: the route certify_path took before T was
    built as its nonzero list, and the order of operations that list
    must reproduce bit for bit."""
    s, p = sites, diag
    pb = p[:, None] * base
    pb[s] = blk @ base[s]
    out = pb * p[None, :]
    out[:, s] = pb[:, s] @ blk
    out[np.diag_indices_from(out)] += 1.0 - p
    out[np.ix_(s, s)] -= blk
    return out


def assert_same_nonzero(got, want):
    for part, expected in zip(got, want):
        assert part.dtype == expected.dtype
        assert np.array_equal(part, expected)


def dense_defects_of(t):
    """1 - T*T and 1 - TT* as two whole-window products."""
    eye = np.eye(t.shape[0])
    return eye - t.conj().T @ t, eye - t @ t.conj().T


def full_window_traces(t, window):
    """Interior traces of (1 - T*T)^m and (1 - TT*)^m over the whole
    window: the dense reference for the trace formula."""
    inside = interior_mask(window, DEFAULT_INDEX_CONFIG.buffer)
    out = []
    for d in dense_defects_of(t):
        power = np.linalg.matrix_power(d, DEFAULT_INDEX_CONFIG.trace_power)
        out.append(float(np.diag(power)[inside].real.sum()))
    return tuple(out)


@pytest.mark.parametrize("k", range(-3, 4))
def test_index_defects_on_support_match_full_window(k):
    w = TruncationWindow.line(64)
    base, p = index_k_projection(k, w)
    t = dense_compression(p, base)
    right, left = full_window_traces(t, w)
    result = fredholm_index(Operator(w, t), "trace_formula")
    assert result.value == k
    assert abs(result.diagnostics["trace_right"] - right) <= 1e-9
    assert abs(result.diagnostics["trace_left"] - left) <= 1e-9

    be = base.entries
    pe = p.entries
    via_mask = projection_index(p, base, "trace_formula")
    assert via_mask.value == k
    assert abs(via_mask.diagnostics["trace_raw"] - (right - left)) <= 1e-9
    commutator = dense_norm(pe @ be - be @ pe)
    assert abs(via_mask.diagnostics["commutator_norm"] - commutator) <= 1e-12
    gram = be.conj().T @ be
    unitarity = float(np.max(np.abs(np.linalg.eigvalsh(gram) - 1.0)))
    assert abs(via_mask.diagnostics["base_unitarity_defect"] - unitarity) <= 1e-12


def assert_defects_equal(t):
    for split, dense in zip(_defects(t), dense_defects_of(t)):
        assert split.dtype == dense.dtype
        assert np.array_equal(split, dense)


def weighted_partial_permutation(rng, d, fill, weights):
    """A d x d matrix with one weight in each of about ``fill * d`` rows
    and columns; the other rows and columns are empty.

    ``real`` weights are standard normal; ``dyadic`` ones are (m + ni)/4
    for small integers m and n, so every product of two of them, and 1
    minus such a product, is exact in floating point.  Arbitrary complex
    weights are left to the rounding test below: there the whole-window
    BLAS product may round conj(t) t with a fused multiply-add and leave
    an imaginary part of order 1e-22 where the exact value is 0.
    """
    t = np.zeros((d, d), dtype=np.complex128)
    rows = np.flatnonzero(rng.random(d) < fill)
    if weights == "real":
        values = rng.standard_normal(rows.size)
    else:
        m, n = rng.integers(-8, 9, size=(2, rows.size))
        values = (m + 1j * n) / 4
    t[rows, rng.permutation(d)[: rows.size]] = values
    return t


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("k", range(-3, 4))
def test_defects_of_shifts_and_compressions_equal_the_dense_products(k, boundary):
    # each product entry has at most one nonzero term, so the split route
    # is exact, not merely close
    w = TruncationWindow.line(16)
    assert_defects_equal(shift_operator(w, k, boundary).entries)
    base, p = index_k_projection(k, w)
    assert_defects_equal(dense_compression(p, base))


@given(
    d=st.integers(1, 24),
    fill=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    weights=st.sampled_from(["real", "dyadic"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=9, fill=0.0, weights="real", seed=0)  # the all-zero matrix
def test_defects_of_partial_permutations_equal_the_dense_products(d, fill, weights, seed):
    rng = np.random.default_rng(seed)
    assert_defects_equal(weighted_partial_permutation(rng, d, fill, weights))


@given(
    d=st.integers(1, 14),
    density=st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=12, density=1.0, seed=3)  # irreducible: one whole-window block
@example(d=3, density=0.3, seed=4)  # a complex partial permutation
def test_defects_of_sparse_matrices_match_the_dense_products(d, density, seed):
    # both routes sum the same nonzero terms of each entry, in possibly
    # different orders, so they may differ by the rounding of a d-term
    # complex inner product (4 d eps |T|*|T|) plus that of the
    # subtraction from 1 (4 d eps on the diagonal)
    t = sparse_complex(np.random.default_rng(seed), d, d, density)
    magnitude = np.abs(t)
    scale = np.eye(d) + magnitude.T @ magnitude, np.eye(d) + magnitude @ magnitude.T
    allowance = 4 * d * np.finfo(float).eps
    for split, dense, size in zip(_defects(t), dense_defects_of(t), scale):
        assert np.all(np.abs(split - dense) <= allowance * size)


@given(
    radius=st.integers(1, 8),
    density=st.sampled_from([0.0, 0.1, 0.4, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_trace_formula_support_power_matches_matrix_power(radius, density, seed):
    # T is the identity plus a small sparse perturbation, so 1 - T*T is
    # supported on the perturbed rows and columns, and its interior trace
    # stays near the integer 0
    w = TruncationWindow.line(radius)
    d = w.dimension
    t = np.eye(d) + 0.05 * sparse_complex(np.random.default_rng(seed), d, d, density)
    right, left = full_window_traces(t, w)
    result = fredholm_index(Operator(w, t), "trace_formula")
    assert abs(result.diagnostics["trace_right"] - right) <= 1e-9
    assert abs(result.diagnostics["trace_left"] - left) <= 1e-9


def loop_masks(window, buffer, cut_sites, cut_radius):
    """The interior and cut-neighbourhood masks as one math.hypot per
    site and cut site: the reference for the numpy masks."""

    def vector(site):
        return (site, 0) if isinstance(site, int) else site

    def distance(a, b):
        (a1, a2), (b1, b2) = vector(a), vector(b)
        return math.hypot(a1 - b1, a2 - b2)

    limit = (1.0 - buffer) * float(window.radius)
    inside = np.array([math.hypot(*vector(s)) <= limit for s in window.sites])
    near = np.array(
        [any(distance(s, c) <= cut_radius for c in cut_sites) for s in window.sites]
    )
    return inside, near


@pytest.mark.parametrize("radius", [8, 37, 256])
@pytest.mark.parametrize("representation", ["Z", "Z2"])
def test_masks_match_the_site_loop(representation, radius):
    w = TruncationWindow(representation, radius)
    if representation == "Z":
        cut_sites = (0, 1, radius // 2)
    else:
        cut_sites = ((0, 0), (radius // 3, 1), (-radius // 2, radius // 5))
    for buffer, cut_radius in ((0.25, radius / 4.0), (0.1, 3.0), (0.5, math.sqrt(2.0))):
        inside, near = loop_masks(w, buffer, cut_sites, cut_radius)
        assert np.array_equal(interior_mask(w, buffer), inside)
        assert np.array_equal(_cut_neighborhood_mask(w, cut_sites, cut_radius), near)


def walked_interface(p):
    """cut_interface as a walk over the sites: a site is on the cut when
    one of its lattice neighbours inside the window is on the other side
    of the mask.  The reference for the grid lookup."""
    window, mask = p.window, p.diagonal_mask()

    def neighbors(site):
        if isinstance(site, int):
            return (site - 1, site + 1)
        x1, x2 = site
        return ((x1 - 1, x2), (x1 + 1, x2), (x1, x2 - 1), (x1, x2 + 1))

    interface = [
        site
        for i, site in enumerate(window.sites)
        if any(nb in window and mask[window.index_of(nb)] != mask[i] for nb in neighbors(site))
    ]
    return tuple(interface)  # window.sites is in basis order


def interface_cases():
    """(name, projection): half-lines, intervals, cones, half-planes and
    balls, regions whose only edge is the window edge, and scattered
    masks, on line and plane windows."""
    line, plane = TruncationWindow.line(16), TruncationWindow.plane(7)
    east = Arc(Direction(1, -1), Direction(1, 1))
    regions = {
        "half-line": (line, Explicit(frozenset(x for x in line.sites if x >= 1))),
        "interval": (line, Explicit(frozenset(range(-3, 5)))),
        "line-edge": (line, Explicit(frozenset(line.sites))),
        "right-end": (line, Explicit(frozenset((15, 16)))),
        "cone": (plane, Cone(east)),
        "half-plane": (plane, Explicit(frozenset(s for s in plane.sites if s[0] >= 0))),
        "ball": (plane, Ball(Fraction(3))),
        "plane-edge": (plane, Ball(Fraction(8))),  # open ball: every site
        "rim": (plane, ~Ball(Fraction(6))),
    }
    for name, (window, region) in regions.items():
        yield name, Projection.from_region(region, window)
    rng = np.random.default_rng(30)
    for window in (line, TruncationWindow.plane("5/2"), plane):
        mask = rng.random(window.dimension) < 0.4
        yield f"scattered-{window.representation}-{window.dimension}", Projection(
            Operator.diagonal(window, mask.astype(float))
        )


INTERFACE_CASES = dict(interface_cases())


@pytest.mark.parametrize("case", sorted(INTERFACE_CASES))
def test_cut_interface_matches_the_site_walk(case):
    p = INTERFACE_CASES[case]
    interface = cut_interface(p)
    assert interface == walked_interface(p)
    if case in ("line-edge", "plane-edge"):
        assert interface == ()  # the window edge is no cut


def full_svd_kernel_index(entries, window, cut_sites, config):
    """Kernel count from one SVD of the whole window: the reference for
    the count on the stripped core.  Returns (value, near singular
    values, kernel fractions, cokernel fractions)."""
    u, s, vh = np.linalg.svd(entries)
    thr = config.sv_threshold
    if np.any((s >= thr) & (s < thr * GAP_FACTOR)):
        raise BoundaryContaminationError("singular value inside the gap")
    near = np.nonzero(s < thr)[0]
    cut_mask = _cut_neighborhood_mask(
        window, tuple(cut_sites), config.resolved_cut_radius(window)
    )
    kernel, kernel_fracs = _count_localized(vh[near].conj(), cut_mask)
    coker, coker_fracs = _count_localized(u[:, near].T, cut_mask)
    return kernel - coker, s[near], kernel_fracs, coker_fracs


def assert_kernel_index_matches_full_svd(entries, window, config):
    split = _split(_nonzero(entries), window.dimension)
    result = _kernel_index(split, window, config.cut_sites, config, _masks(window, config)[1])
    value, near, kernel_fracs, coker_fracs = full_svd_kernel_index(
        entries, window, config.cut_sites, config
    )
    diag = result.diagnostics
    assert result.value == value
    assert len(diag["near_singular_values"]) == len(near) == len(kernel_fracs)
    assert np.allclose(diag["near_singular_values"], near, rtol=1e-12, atol=1e-15)
    # inside a degenerate cluster the basis is free; the sorted fractions are not
    assert np.allclose(sorted(diag["kernel_cut_fractions"]), sorted(kernel_fracs), atol=1e-12)
    assert np.allclose(sorted(diag["cokernel_cut_fractions"]), sorted(coker_fracs), atol=1e-12)
    assert diag["core_dim"] + diag["pairs_stripped"] == window.dimension
    return result


def rotation(window, a, angle):
    """The unitary mixing the basis vectors at sites a and a + 1."""
    u = np.eye(window.dimension, dtype=np.complex128)
    i, j = window.index_of(a), window.index_of(a + 1)
    c, s = np.cos(angle), np.sin(angle)
    u[i, i], u[i, j], u[j, i], u[j, j] = c, -s, s, c
    return Operator(window, u)


def theorem2_path(radius, site, angle):
    """The half-line projection conjugated along the rotation of sites
    site and site + 1, as the theorem2 experiment builds it."""
    window = TruncationWindow.line(radius)
    q = Projection.from_region(Explicit(frozenset(x for x in window.sites if x >= 1)), window)
    path = conjugation_path(q, log_path(rotation(window, site, angle)).reverse())
    return window, q, path


def dense_conjugation(path, t):
    """U_t* Q U_t as one dense product: the reference for the block route."""
    seg = path.segments[0]
    ut = seg.upath.at(1.0 - t if seg.flip else t)
    return ut.conj().T @ seg.q.dense() @ ut


@pytest.mark.parametrize("site", [42, 0])  # inside the range of Q, across the cut
def test_kernel_index_on_the_core_matches_full_svd_on_theorem2_samples(site):
    window, q, path = theorem2_path(128, site, 0.7)
    base = shift_operator(window, 1).entries
    config = IndexConfig(cut_sites=cut_interface(q))
    for t in (0.0, 0.3, 0.5, 1.0):
        p = dense_conjugation(path, t)
        t_op = p @ base @ p + (np.eye(window.dimension) - p)
        result = assert_kernel_index_matches_full_svd(t_op, window, config)
        assert result.value == -1
        assert result.diagnostics["core_dim"] <= 4  # 253 of 257 columns are lone pairs


def test_kernel_index_on_a_dense_operator_is_the_full_svd():
    window = TruncationWindow.line(6)
    d = window.dimension
    rng = np.random.default_rng(21)
    u, v = random_unitary(d, rng), random_unitary(d, rng)
    s = np.linspace(2.0, 0.5, d)
    s[-1] = 1e-9
    entries = (u * s[None, :]) @ v
    # a cut neighbourhood covering the window keeps the tiny value's
    # vectors, which spread over every site, at the cut
    config = IndexConfig(cut_sites=(0,), cut_radius=float(d))
    result = assert_kernel_index_matches_full_svd(entries, window, config)
    assert result.diagnostics["core_dim"] == d
    assert result.diagnostics["pairs_stripped"] == 0
    assert result.value == 0
    assert result.diagnostics["near_singular_values"] == pytest.approx((1e-9,), rel=1e-6)


def lone_pair_operator(modulus, col_site, row_site):
    """Compressed shift of index -1 on the line of radius 16 whose lone
    entry from col_site to row_site is scaled to the given modulus."""
    window = TruncationWindow.line(16)
    base, p = index_k_projection(-1, window)
    entries = dense_compression(p, base)
    i, j = window.index_of(row_site), window.index_of(col_site)
    assert np.count_nonzero(entries[i]) == 1 and np.count_nonzero(entries[:, j]) == 1
    assert abs(entries[i, j]) == 1.0
    entries[i, j] = modulus * np.exp(0.3j)
    return window, p, entries


@pytest.mark.parametrize(
    "col_site, row_site, value",
    [
        (-2, -2, -1),  # both vectors at the cut: one more kernel and cokernel vector
        (5, 6, 0),  # right vector e_5 at the cut, left vector e_6 just outside it
    ],
)
def test_kernel_index_keeps_a_small_lone_pair_in_the_near_kernel(col_site, row_site, value):
    window, p, entries = lone_pair_operator(1e-8, col_site, row_site)
    config = IndexConfig(cut_sites=cut_interface(p))
    result = assert_kernel_index_matches_full_svd(entries, window, config)
    assert max(result.diagnostics["near_singular_values"]) == pytest.approx(1e-8, rel=1e-12)
    assert result.value == value


def test_kernel_index_keeps_an_entry_that_shares_its_column():
    # row 1 (the cokernel row at the cut) gets an entry in column 2, whose
    # lone entry sits in row 3: both rows hold one entry, neither is a pair
    window, p, entries = lone_pair_operator(1.0, 2, 3)
    entries[window.index_of(1), window.index_of(2)] = 0.5
    config = IndexConfig(cut_sites=cut_interface(p))
    result = assert_kernel_index_matches_full_svd(entries, window, config)
    assert result.value == -1
    # the core: rows 1 and 3 against column 2 and the zero column at the edge
    assert result.diagnostics["core_dim"] == 2


def test_kernel_index_rejects_a_lone_pair_inside_the_gap():
    window, p, entries = lone_pair_operator(1e-5, 5, 6)
    config = IndexConfig(cut_sites=cut_interface(p))
    with pytest.raises(BoundaryContaminationError):
        full_svd_kernel_index(entries, window, config.cut_sites, config)
    with pytest.raises(BoundaryContaminationError):
        split = _split(_nonzero(entries), window.dimension)
        _kernel_index(split, window, config.cut_sites, config, _masks(window, config)[1])


def split_case(window, core, core_kind, empties, small, gap, weights, edge, seed):
    """A line-window operator made of what ``_split`` separates: a
    ``core`` x ``core`` block on random rows and columns, ``empties``
    empty rows and columns, and lone pairs on the rest, ``small`` of
    them below sv_threshold and ``gap`` of them inside the threshold
    gap, the others of modulus 1.

    A ``dense`` core holds random weights and a ``unitary`` one a
    random unitary.  ``dyadic`` weights are (m + ni)/4 in the core,
    phases from {1, -1, i, -i} and powers of 2 for the small and gap
    moduli, so every product and power the estimators and the oracles
    form of them is exact; ``complex`` weights are arbitrary.  With
    ``edge`` the defective rows and columns (a dense core, the empty
    ones, the small and gap pairs) take the sites farthest from the
    origin first, so the base check can pass.
    """
    rng = np.random.default_rng(seed)
    d = window.dimension
    distance = np.abs(np.array(window.sites))

    def order():
        if edge:  # jitter below 1 breaks ties at random
            return np.argsort(-distance + 0.5 * rng.random(d), kind="stable")
        return rng.permutation(d)

    rows, cols = order(), order()
    if weights == "dyadic":
        phases = np.array([1, -1, 1j, -1j])[rng.integers(4, size=d)]
        block = rng.integers(-4, 5, size=(2, core, core)) / 4
        moduli = np.concatenate((2.0 ** -(27 + np.arange(small)), np.full(gap, 2.0**-17)))
    else:
        phases = np.exp(2j * np.pi * rng.random(d))
        block = rng.standard_normal((2, core, core)) / 2
        moduli = np.concatenate((1e-8 * (1 + np.arange(small)), np.full(gap, 1e-5)))
    block = block[0] + 1j * block[1]
    if core_kind == "unitary":
        block = random_unitary(core, rng)
        pieces = (("empty", empties), ("pair", small + gap), ("core", core))
    else:
        pieces = (("core", core), ("empty", empties), ("pair", small + gap))
    t = np.zeros((d, d), dtype=np.complex128)
    at = 0
    for kind, n in pieces:
        r, c = rows[at : at + n], cols[at : at + n]
        if kind == "core":
            t[np.ix_(r, c)] = block
        elif kind == "pair":
            t[r, c] = moduli * phases[at : at + n]
        at += n
    t[rows[at:], cols[at:]] = phases[at:]  # the rest are pairs of modulus 1
    return t


def oracle_fredholm(t, window, method, config):
    """fredholm_index from whole-window products and one full SVD:
    (value, diagnostics), or the exception it must raise.  Per-vector
    cut fractions depend on the basis the SVD picks inside a degenerate
    cluster, so their sums over the near kernel stand for them."""
    diag = {}
    if method in ("auto", "kernel_count"):
        value, near, kernel_fracs, coker_fracs = full_svd_kernel_index(
            t, window, config.cut_sites, config
        )
        diag["near_singular_values"] = near
        diag["kernel_cut_mass"] = sum(kernel_fracs)
        diag["cokernel_cut_mass"] = sum(coker_fracs)
    if method in ("auto", "trace_formula"):
        right, left = full_window_traces(t, window)
        raw = right - left
        if abs(raw - round(raw)) > 0.1:
            raise BoundaryContaminationError("trace not integral")
        if method == "auto" and round(raw) != value:
            raise MethodDisagreementError("methods disagree")
        value = round(raw)
        diag["trace_raw"] = raw
        if method == "trace_formula":
            diag["trace_right"], diag["trace_left"] = right, left
    right, left = dense_defects_of(t)
    diag["defect_mass_total"] = float(np.abs(np.diag(right)).sum() + np.abs(np.diag(left)).sum())
    return value, diag


def assert_index_matches_oracle(estimate, t, window, method, config, exact):
    """``estimate()`` gives the oracle's value and diagnostics, within
    1e-12, or exactly when ``exact`` for the products and powers of the
    trace formula and the defect mass; or it raises the oracle's
    exception class.  Returns whether the oracle gave a value."""
    try:
        value, want = oracle_fredholm(t, window, method, config)
    except (BoundaryContaminationError, MethodDisagreementError) as exc:
        with pytest.raises(type(exc)):
            estimate()
        return False
    result = estimate()
    got = dict(result.diagnostics)
    assert result.value == value
    if "near_singular_values" in want:
        near = want.pop("near_singular_values")
        assert np.allclose(got["near_singular_values"], near, rtol=1e-12, atol=1e-15)
        for side in ("kernel", "cokernel"):
            mass = sum(got[f"{side}_cut_fractions"])
            assert abs(mass - want.pop(f"{side}_cut_mass")) <= 1e-12
    if method == "auto":
        got["trace_raw"] = got["cross_check"]["trace_raw"]
    for key, expected in want.items():
        if exact:
            assert got[key] == expected, key
        else:
            assert abs(got[key] - expected) <= 1e-12 * max(1.0, abs(expected)), key
    return True


@given(
    radius=st.integers(4, 10),
    core=st.integers(0, 4),
    core_kind=st.sampled_from(["dense", "unitary"]),
    empties=st.integers(0, 2),
    small=st.integers(0, 2),
    gap=st.integers(0, 1),
    weights=st.sampled_from(["dyadic", "complex"]),
    edge=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(radius=8, core=3, core_kind="unitary", empties=0, small=0, gap=0, weights="complex", edge=True, seed=1)
@example(radius=8, core=2, core_kind="dense", empties=2, small=1, gap=0, weights="dyadic", edge=True, seed=2)
@example(radius=6, core=4, core_kind="dense", empties=1, small=2, gap=1, weights="dyadic", edge=False, seed=3)
# an empty row, then a small pair's row, inside the interior and its
# column at the edge: only 1 - BB* is defective there
@example(radius=8, core=0, core_kind="unitary", empties=1, small=0, gap=0, weights="dyadic", edge=False, seed=2)
@example(radius=8, core=0, core_kind="unitary", empties=0, small=1, gap=0, weights="dyadic", edge=False, seed=2)
def test_split_estimators_match_the_whole_window_oracles(
    radius, core, core_kind, empties, small, gap, weights, edge, seed
):
    window = TruncationWindow.line(radius)
    t = split_case(window, core, core_kind, empties, small, gap, weights, edge, seed)
    exact = weights == "dyadic" and core_kind == "dense"
    config = IndexConfig(cut_sites=(0,))
    for method in ("auto", "kernel_count", "trace_formula"):
        estimate = partial(fredholm_index, Operator(window, t), method, config)
        assert_index_matches_oracle(estimate, t, window, method, config, exact)

    # the same operator as the base of the half-line compression
    base = Operator(window, t)
    p = Projection.from_region(Explicit(frozenset(x for x in window.sites if x >= 1)), window)
    right, left = dense_defects_of(t)
    inside = np.ix_(*[interior_mask(window, DEFAULT_INDEX_CONFIG.buffer)] * 2)
    interior = max(dense_norm(right[inside]), dense_norm(left[inside]))
    if interior > 1e-6:
        with pytest.raises(PreconditionError):
            projection_index(p, base)
        return
    config = IndexConfig(cut_sites=cut_interface(p))
    estimate = partial(projection_index, p, base)
    compressed = dense_compression(p, base)
    if not assert_index_matches_oracle(estimate, compressed, window, "auto", config, exact):
        return
    diag = estimate().diagnostics
    pe, be = p.entries, base.entries
    for key, expected in (
        ("base_interior_defect", interior),
        ("base_unitarity_defect", dense_norm(right)),
        ("commutator_norm", dense_norm(pe @ be - be @ pe)),
    ):
        assert abs(diag[key] - expected) <= 1e-12 * max(1.0, expected), key


def dense_row(p, base):
    """(unitarity defect, smallest singular value, idempotency defect,
    compression) of a dense sample P."""
    unit, sv = dense_defects(p)
    idem = dense_norm(p @ p - p)
    return unit, sv, idem, p @ base @ p + (np.eye(p.shape[0]) - p)


def conjugation_cases():
    window = TruncationWindow.line(16)
    half = Projection.from_region(Explicit(frozenset(x for x in window.sites if x >= 1)), window)
    rng = np.random.default_rng(22)
    # a projection with off-diagonal entries on sites 3 and 4
    mix = np.eye(window.dimension, dtype=np.complex128)
    idx = [window.index_of(3), window.index_of(4)]
    mix[np.ix_(idx, idx)] = random_unitary(2, rng)
    tilted = mix.conj().T @ half.entries @ mix
    dense_u = Operator(window, random_unitary(window.dimension, rng))
    return {
        "inside": (half.entries, log_path(rotation(window, 5, 0.8)).reverse()),
        "across": (half.entries, log_path(rotation(window, 0, 0.8)).reverse()),
        "tilted": (tilted, log_path(rotation(window, 0, 0.8)).reverse()),
        "dense": (half.entries, log_path(dense_u).reverse()),
    }


@pytest.mark.parametrize("case", ["inside", "across", "tilted", "dense"])
def test_conjugation_samples_match_the_dense_product(case):
    q, upath = conjugation_cases()[case]
    window = upath.window
    path = conjugation_path(Operator(window, q), upath)
    for piece in (path, path.reverse()):
        seg = piece.segments[0]
        moving = seg.sample(0.5).sites.size
        assert moving == {"inside": 2, "across": 2, "tilted": 4, "dense": window.dimension}[case]
        base = shift_operator(window, 1).entries
        report = certify_path(piece, CertifyConfig(samples=7))
        assert report.is_projection_path
        for t, unit, sv, _, idem, _, measure in report.series:
            sample = seg.sample(t)
            p = dense_conjugation(piece, t)
            assert np.max(np.abs(sample.dense() - p)) <= 1e-14
            dense_unit, dense_sv, dense_idem, compressed = dense_row(p, base)
            assert measure == "dense"
            assert abs(unit - dense_unit) <= 1e-14
            assert abs(sv - dense_sv) <= 1e-14
            assert abs(idem - dense_idem) <= 1e-14
            oracle = block_compression_oracle(sample.diag, sample.sites, sample.block, base)
            assert np.max(np.abs(oracle - compressed)) <= 1e-14
            t = _compressed(window, sample.diag, sample.sites, sample.block, _nonzero(base), ())
            assert_same_nonzero(t.nonzero, _nonzero(oracle))


@given(
    d=st.integers(4, 40),
    where=st.sampled_from(["empty", "interior", "edge", "whole"]),
    diagonal=st.sampled_from(["mask", "real"]),
    base_diagonal=st.booleans(),
    dense_rows=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=4, where="edge", diagonal="real", base_diagonal=True, dense_rows=True, seed=1)
@example(d=40, where="interior", diagonal="mask", base_diagonal=False, dense_rows=False, seed=2)
def test_compression_list_is_the_dense_compression_bit_for_bit(
    d, where, diagonal, base_diagonal, dense_rows, seed
):
    """The nonzero list of T = P B P + 1 - P equals the nonzero entries
    of the dense oracle exactly, in row-major order."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, d - 1))
    if where == "empty":
        sites = np.arange(0)
    elif where == "whole":
        sites = np.arange(d)
    elif where == "interior":  # any sites but the two end ones
        sites = np.sort(rng.choice(np.arange(1, d - 1), size, replace=False))
    else:  # a run from either end
        sites = np.arange(size) + (0, d - size)[seed % 2]
    if diagonal == "mask":
        diag = (rng.random(d) < 0.5).astype(float)
    else:
        diag = rng.standard_normal(d)
    diag[sites] = 0.0
    blk = sparse_complex(rng, sites.size, sites.size, 1.0)
    base = sparse_complex(rng, d, d, 0.2)
    if not base_diagonal:
        np.fill_diagonal(base, 0.0)
    if dense_rows:
        base[sites] = sparse_complex(rng, sites.size, d, 1.0)
    oracle = block_compression_oracle(diag, sites, blk, base)
    # the window and the masks only travel with the list
    got = _compressed(None, diag, sites, blk, _nonzero(base), ()).nonzero
    assert_same_nonzero(got, _nonzero(oracle))


@st.composite
def rotations(draw):
    """(radius, site, angle) of a rotation of sites site and site + 1."""
    radius = draw(st.integers(8, 48))
    return radius, draw(st.integers(-radius, radius - 1)), draw(st.floats(0.05, 3.0))


@given(rotations())
@example((128, 0, 0.7))  # across the cut at the benchmark's radius
@example((128, 42, 0.7))  # the theorem2 sites at the benchmark's radius
def test_theorem2_index_trace_matches_the_oracle(rotation_case):
    radius, site, angle = rotation_case
    window, q, path = theorem2_path(radius, site, angle)
    base = shift_operator(window, 1)
    config = IndexConfig(cut_sites=cut_interface(q))
    report = certify_path(path, CertifyConfig(samples=5, index_base=base, index_config=config))
    assert report.index_trace == (-1,) * 5
    for t in np.linspace(0.0, 1.0, 5):
        p = dense_conjugation(path, float(t))
        t_op = p @ base.entries @ p + (np.eye(window.dimension) - p)
        oracle, *_ = full_svd_kernel_index(t_op, window, config.cut_sites, config)
        assert oracle == -1


# ---------------------------------------------------------------------------
# path segments

TIMES = (0.0, 0.3, 0.5, 1.0)


def random_unitary(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def assert_samples(path, oracle):
    """The path and its reverse against a dense formula of t."""
    for t in TIMES:
        assert np.max(np.abs(path.at(t) - oracle(t))) <= 1e-12
        assert np.max(np.abs(path.reverse().at(t) - oracle(1.0 - t))) <= 1e-12


def test_polar_segment_matches_dense_formula():
    w = TruncationWindow.plane(2)
    rng = np.random.default_rng(11)
    d = w.dimension
    g = np.eye(d) + 0.3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    u, s, vh = np.linalg.svd(g)
    assert_samples(
        polar_path(Operator(w, g)), lambda t: (u * (s ** (1.0 - t))[None, :]) @ vh
    )


@pytest.mark.parametrize("with_right", [False, True])
@pytest.mark.parametrize("flip", [False, True])
def test_log_segment_matches_dense_formula(with_right, flip):
    w = TruncationWindow.plane(2)
    d = w.dimension
    rng = np.random.default_rng(12)
    blocks = [[0, 3, 4], [7, 8], [10]]
    v = np.eye(d, dtype=np.complex128)
    q = np.eye(d, dtype=np.complex128)
    theta = np.zeros(d)
    for idx in blocks:
        v[np.ix_(idx, idx)] = random_unitary(len(idx), rng)
        schur_t, q_block = scipy.linalg.schur(v[np.ix_(idx, idx)], output="complex")
        phases = np.angle(np.diag(schur_t))
        q[np.ix_(idx, idx)] = q_block
        theta[idx] = np.where(phases <= -np.pi + 1e-12, phases + 2.0 * np.pi, phases)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    right = g if with_right else np.eye(d)

    def oracle(t):
        t = 1.0 - t if flip else t
        return (q * np.exp(1j * (1.0 - t) * theta)[None, :]) @ q.conj().T @ right

    seg = _log_segment(w, v, blocks, right=g if with_right else None, flip=flip)
    assert dense_factors(seg)["left"].shape[1] == 6  # only the block columns move
    for t in TIMES:
        assert np.max(np.abs(seg.at(t) - oracle(t))) <= 1e-12
        assert np.max(np.abs(seg.reversed().at(t) - oracle(1.0 - t))) <= 1e-12


@pytest.mark.parametrize("flip", [False, True])
def test_log_segment_of_a_diagonal_factor_splits_into_the_blocks(flip):
    """With a diagonal right factor g and no phase at zero, nothing but
    the rotations' modes links the sites of a block (C = (1 - LL*) g is
    zero on its rows), so only the modes make each block one component."""
    w = TruncationWindow.plane(2)
    d = w.dimension
    rng = np.random.default_rng(35)
    blocks = [[0, 3, 4], [7, 8], [10]]
    v = np.eye(d, dtype=np.complex128)
    for idx in blocks:
        v[np.ix_(idx, idx)] = random_unitary(len(idx), rng)
    g = np.diag(1.0 + rng.random(d)).astype(np.complex128)
    seg = _log_segment(w, v, blocks, right=g, flip=flip)
    moved = sorted(sum(blocks, []))
    want = sorted(blocks + [[i] for i in range(d) if i not in moved])
    assert [part.tolist() for part in seg.components()] == want
    assert [part.tolist() for part in seg.components()] == dense_components(seg)
    assert seg.spectrum_bound() is not None
    assert_bound_matches_the_dense_formulas(seg)  # g's scale comes from every site
    schur_t, q = scipy.linalg.schur(v, output="complex")
    theta = np.angle(np.diag(schur_t))
    for t in TIMES:
        s = 1.0 - t if flip else t
        oracle = (q * np.exp(1j * (1.0 - s) * theta)[None, :]) @ q.conj().T @ g
        assert np.max(np.abs(seg.at(t) - oracle)) <= 1e-12


def test_log_path_matches_dense_formula():
    w = TruncationWindow.plane(2)
    u = random_unitary(w.dimension, np.random.default_rng(13))
    schur_t, q = scipy.linalg.schur(u, output="complex")
    theta = np.angle(np.diag(schur_t))
    assert_samples(
        log_path(Operator(w, u)),
        lambda t: (q * np.exp(1j * (1.0 - t) * theta)[None, :]) @ q.conj().T,
    )


def dense_intertwiner(p, v_iso):
    """The 0/1 intertwiner V as a matrix: stack-zero columns off P map to
    their own sites, and each match sends its source column to its target."""
    base, amp = p.window, v_iso.window
    d = base.dimension
    v = np.zeros((d, amp.dimension), dtype=np.complex128)
    v[:, :d] = np.eye(d) - p.entries
    for match in v_iso.matches:
        v[base.index_of(match.target), amp.index_of(match.stack, match.source)] = 1.0
    return v


def assert_move_matches_the_intertwining(seg, u, p, v_iso):
    """The stacked move's segment, run 1 -> U, against the dense route
    V W_t V* + (1 - VV*), with W_t the dense log contraction of U (+) 1
    on the stacked window and V the dense intertwiner."""
    amp, d = v_iso.window, u.window.dimension
    target = np.eye(amp.dimension, dtype=np.complex128)
    target[:d, :d] = u.entries
    inner = log_path(Operator(amp, target)).reverse()
    v = dense_intertwiner(p, v_iso)
    vh = v.conj().T
    complement = np.eye(d) - v @ vh
    for t in (0.0, 0.3, 1.0):
        assert np.max(np.abs(seg.at(t) - (v @ inner.at(t) @ vh + complement))) <= 1e-12


def stacked_case(seed):
    """A unitary acting as the identity on P, P and its greedy isometry."""
    w = TruncationWindow.plane(2)
    region = Explicit(frozenset(w.sites) - {(0, 0)})
    p = Projection.from_region(region, w)
    d = w.dimension
    perp = np.flatnonzero(~p.diagonal_mask())
    u = np.eye(d, dtype=np.complex128)
    u[np.ix_(perp, perp)] = random_unitary(perp.size, np.random.default_rng(seed))
    return Operator(w, u), p, greedy_isometry(region, 1, w)


def shared_column(v_iso):
    """The second match moved onto the first match's source column."""
    first, second, *rest = v_iso.matches
    moved = dataclasses.replace(second, stack=first.stack, source=first.source)
    return dataclasses.replace(v_iso, matches=(first, moved, *rest))


@pytest.mark.parametrize("case", ["dropped-match", "shared-column", "no-mask"])
def test_block_unitary_rejects_a_broken_intertwiner(case):
    u, p, v_iso = stacked_case(14)
    if case == "dropped-match":
        v_iso = dataclasses.replace(v_iso, matches=v_iso.matches[1:])
        message = r"site \(-?\d+, -?\d+\) is hit 0 times"
    elif case == "shared-column":
        v_iso, message = shared_column(v_iso), r"stacked column \d+ carries 2 sites"
    else:
        p, message = DenseProjection(p.operator), "0/1 diagonal"
    with pytest.raises(PreconditionError, match=message):
        block_unitary_homotopy(u, p, v_iso)


def test_pipeline_segment_list_is_pinned(tmp_path):
    expected = [
        ["straight_line", "onto-deformed", False],
        ["log", "", True],
        ["straight_line", "normalize-centers", False],
        ["block_peel", "", True],
        ["polar", "", False],
        ["block_unitary", "", False],
    ]
    for seed in (1, 2, 3):
        out = tmp_path / str(seed)
        config = ExperimentConfig(
            experiment="theorem1",
            representation="Z2",
            radius=12,
            seed=seed,
            out_dir=str(out),
            samples=2,
        )
        run(config)
        blob = json.loads((out / "pipeline.json").read_text())
        listed = [[s["kind"], s["label"], s["reversed"]] for s in blob["segments"]]
        assert listed == expected


# ---------------------------------------------------------------------------
# certificate bounds


def dense_defects(x):
    """Unitarity defect and smallest singular value of a d x d sample."""
    eigs = np.linalg.eigvalsh(x.conj().T @ x)
    return float(np.max(np.abs(eigs - 1.0))), float(np.sqrt(max(eigs[0], 0.0)))


def nudged(seg, eps):
    """The segment with moving columns scaled off the unitary form by
    c = 1 +- eps, in L and in R, so ||L*L - 1|| moves.  A rotation keeps
    C = (1 - LL*) g, so the defect it gains is bounded only by the
    ||L*L - 1|| term; a polar climb gains it in its extreme singular
    values, bounded only by the factor terms."""
    f = dense_factors(seg)
    k = f["left"].shape[1]
    c = np.ones(k)
    if np.any(f["exponents"].imag):
        c[int(np.argmax(np.abs(f["exponents"])))] = 1.0 + eps
    else:
        c[0], c[-1] = 1.0 + eps, 1.0 - eps
    left = f["left"] * c[None, :]
    right = c[:, None] * f["right"]
    const = f["const"]
    if np.any(f["exponents"].imag):
        g = np.eye(f["left"].shape[0]) if f["factor"] is None else f["factor"]
        const = const - (f["left"] * (c * c - 1.0)[None, :]) @ (f["left"].conj().T @ g)
    return with_factors(seg, left=left, right=right, const=const)


def bounded_forms(tailed_pipeline):
    _, path, _, _ = tailed_pipeline
    u = random_unitary(TruncationWindow.plane(3).dimension, np.random.default_rng(15))
    return {
        "polar": path.segments[4],
        "log": log_path(Operator(TruncationWindow.plane(3), u)).segments[0],
        "log-right": path.segments[1],
        "stacked": path.segments[5],
    }


@pytest.mark.parametrize("eps", [0.0, 5e-12])
@pytest.mark.parametrize("form", ["polar", "log", "log-right", "stacked"])
def test_spectrum_bound_contains_the_dense_spectrum(tailed_pipeline, form, eps):
    seg = nudged(bounded_forms(tailed_pipeline)[form], eps)
    if form == "polar":
        s = np.exp(seg.exponents.real)
        assert s.max() - s.min() > 0.05  # a climb that really moves
    if form == "log-right":
        assert seg.factor is not None
    for piece in (seg, seg.reversed()):
        bound = piece.spectrum_bound()
        assert bound is not None
        for t in (0.0, 0.13, 0.5, 0.87, 1.0):
            unit, sv = dense_defects(piece.at(t))
            unit_bound, sv_bound = bound.at(t)
            assert unit - 1e-12 <= unit_bound <= unit + 1e-10
            assert sv - 1e-10 <= sv_bound <= sv + 1e-12


def test_spectrum_bound_refuses_a_broken_form(tailed_pipeline):
    seg = bounded_forms(tailed_pipeline)["log-right"]
    assert with_factors(seg, factor=None).spectrum_bound() is None
    assert nudged(seg, 1e-6).spectrum_bound() is None  # too loose to be useful
    polar = bounded_forms(tailed_pipeline)["polar"]
    const = dense_factors(polar)["const"] + 1e-3
    assert with_factors(polar, const=const).spectrum_bound() is None


def assert_rows_match_the_dense_oracle(path, report, certify):
    """Every row of a certificate against a dense measurement of the same
    sample: dense rows agree, bound rows contain it."""
    window = path.window
    allowance = window.radius / 2
    pairs = [
        (_locality_indices(window, row, allowance), _locality_indices(window, col, allowance))
        for row, col in certify.arc_pairs
    ]
    for t, unit, sv, loc, _, _, measure in report.series:
        x = path.at(t)
        dense_unit, dense_sv = dense_defects(x)
        dense_loc = max((dense_norm(x[np.ix_(r, c)]) for r, c in pairs), default=0.0)
        assert abs(loc - dense_loc) <= 1e-12
        if measure == "dense":
            assert abs(unit - dense_unit) <= 1e-12
            assert abs(sv - dense_sv) <= 1e-12
        else:
            assert dense_unit - 1e-12 <= unit <= dense_unit + 1e-10
            assert dense_sv - 1e-10 <= sv <= dense_sv + 1e-12


def test_certificate_matches_the_dense_oracle(tailed_pipeline):
    _, path, report, certify = tailed_pipeline
    assert {row[-1] for row in report.series} == {"dense", "bound"}
    assert_rows_match_the_dense_oracle(path, report, certify)
    assert report.max_locality_defect > 0.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pipeline_bounds_hold_and_intertwiner_is_exact(seed):
    window = TruncationWindow.plane(12)
    u = seeded_local_unitary(window, seed)
    (_, report), (_, p, v_iso) = with_the_move(lambda: oplab.homotopy.theorem1_pipeline(u, 0.5))
    v = dense_intertwiner(p, v_iso)
    assert np.array_equal(v @ v.conj().T, np.eye(window.dimension))
    stats = report.segment_stats
    assert [s["kind"] for s in stats if s["max_bound_excess"] is not None] == [
        "log",
        "polar",
        "block_unitary",
    ]
    # the bound carries its own rounding allowance, so it dominates the
    # dense end values with no tolerance on top
    assert all(s["max_bound_excess"] <= 0.0 for s in stats if s["max_bound_excess"] is not None)
    assert sum(s["dense_samples"] for s in stats) <= 26


# ---------------------------------------------------------------------------
# spectral segments per component


def dense_spectral_at(seg, t):
    """X(t) = (L e^{(1-t) z}) R + C as one whole-window product."""
    s = 1.0 - t if seg.flip else t
    f = dense_factors(seg)
    return (f["left"] * np.exp((1.0 - s) * f["exponents"])[None, :]) @ f["right"] + f["const"]


def dense_spectrum_bound(seg):
    """(alpha, beta, slack, scale, rates) of the segment's SpectrumBound
    from whole-window products of its factors, or None: the formulas
    of SpectralSegment.spectrum_bound with no split."""
    f = dense_factors(seg)
    z, left, right, const = f["exponents"], f["left"], f["right"], f["const"]
    factor = f["factor"]
    d, k = left.shape
    eye_k = np.eye(k)
    if not np.any(z.imag) and not np.any(const) and k == d:
        a = np.linalg.norm(left.conj().T @ left - eye_k)
        b = np.linalg.norm(right @ right.conj().T - eye_k)
        if max(a, b) > BOUND_SLACK:
            return None
        rates = (float(z.real.max()), float(z.real.min()))
        return math.sqrt((1 - a) * (1 - b)), math.sqrt((1 + a) * (1 + b)), 0.0, (1.0, 1.0), rates
    if np.any(z.real):
        return None
    lh = left.conj().T
    f = np.linalg.norm(lh @ left - eye_k)
    base = np.eye(d) if factor is None else factor
    target = lh if factor is None else lh @ factor
    pairing = np.einsum("ij,ij->i", target.conj(), right)
    if not np.all(pairing):
        return None
    phase = pairing / np.abs(pairing)
    drift = np.linalg.norm(right - phase[:, None] * target)
    slack = math.sqrt(1.0 + f) * drift + np.linalg.norm(const - base + left @ target)
    if max(f, slack) > BOUND_SLACK:
        return None
    delta = 4.0 * f * (1.0 + f)
    scale = (1.0, 1.0)
    if factor is not None:
        s = np.linalg.svd(factor, compute_uv=False)
        scale = (float(s.max()), float(s.min()))
    return math.sqrt(1.0 - delta), math.sqrt(1.0 + delta), slack, scale, (0.0, 0.0)


def hand_built_segments():
    """Rotations of a right factor g on a seven-site line.  V turns the
    sites {0, 2, 5} together and spins site 3; g links sites 1 and 4,
    which have no mode, and leaves site 6 alone, with no mode and no
    link.  ``idle`` adds a mode whose L column and R row are zero.
    ``tail`` puts an entry 3e-11 between sites 6 and 1 into g only (C
    and R keep the g without it), so only a pattern that holds g joins
    those sites."""
    w = TruncationWindow.line(3)
    d = w.dimension
    rng = np.random.default_rng(31)
    moved = [0, 2, 5]
    v = np.eye(d, dtype=np.complex128)
    v[np.ix_(moved, moved)] = random_unitary(3, rng)
    v[3, 3] = np.exp(0.7j)
    g = np.eye(d, dtype=np.complex128)
    g[np.ix_(moved, moved)] += 0.2 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    g[1, 4], g[4, 1] = 0.3, -0.2j
    seg = _log_segment(w, v, [moved, [3]], right=g)
    f = dense_factors(seg)
    idle = with_factors(
        seg,
        left=np.hstack([f["left"], np.zeros((d, 1))]),
        exponents=np.append(f["exponents"], 0.4j),
        right=np.vstack([f["right"], np.zeros((1, d))]),
    )
    tailed_g = g.copy()
    tailed_g[6, 1] = 3e-11
    return {"hand": seg, "idle": idle, "tail": with_factors(seg, factor=tailed_g)}


HAND_BUILT = hand_built_segments()

_CAPTURED = {}


def with_the_move(run):
    """(run(), the stacked move's inputs: U, P and the greedy isometry)
    for a run that makes the move once."""
    calls = []
    build = oplab.homotopy._stacked_segment
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            oplab.homotopy, "_stacked_segment", lambda *args: calls.append(args) or build(*args)
        )
        out = run()
    (args,) = calls
    return out, args


PIPELINE_CASES = ["seed1", "seed2", "seed3", "tailed", "copies2"]


def captured_pipeline(case, tailed_u):
    """(path, report) of the radius-12 pipeline of a case with the
    default arc pair, run once per case; the stacked move's inputs go to
    ``_MOVES``."""
    if case not in _CAPTURED:
        if case == "tailed":
            u = tailed_u
        else:
            seed = 1 if case == "copies2" else int(case[-1])
            u = seeded_local_unitary(TruncationWindow.plane(12), seed)
        config = oplab.homotopy.PipelineConfig(
            copies=2 if case == "copies2" else 1,
            certify=CertifyConfig(arc_pairs=(DEFAULT_ARC_PAIR,)),
        )
        _CAPTURED[case], _MOVES[case] = with_the_move(
            lambda: oplab.homotopy.theorem1_pipeline(u, 0.5, config)
        )
    return _CAPTURED[case]


_MOVES = {}


@pytest.fixture(params=PIPELINE_CASES)
def pipeline_case(request, tailed_pipeline):
    return request.param, captured_pipeline(request.param, tailed_pipeline[0])


@pytest.mark.parametrize("case", ["stacked"] + PIPELINE_CASES)
def test_block_unitary_matches_dense_intertwining(case, tailed_pipeline):
    """The stacked move, built on the base window, against the paper's
    route through the stacked window: the block move of stacked_case and
    the pipeline's last segment, reversed to run 1 -> U."""
    if case == "stacked":
        u, p, v_iso = stacked_case(14)
        (seg,) = block_unitary_homotopy(u, p, v_iso).segments
    else:
        path, _ = captured_pipeline(case, tailed_pipeline[0])
        u, p, v_iso = _MOVES[case]
        seg = path.segments[-1].reversed()
        copies = 2 if case == "copies2" else 1
        assert v_iso.window.dimension == (copies + 1) * u.window.dimension
    assert seg.kind == "block_unitary" and seg.flip
    assert_move_matches_the_intertwining(seg, u, p, v_iso)


def spectral_pieces(segments):
    """Each spectral segment of the list and its reverse."""
    spectral = [seg for seg in segments if isinstance(seg, SpectralSegment)]
    return spectral + [seg.reversed() for seg in spectral]


def assert_samples_match_the_dense_product(seg):
    """at(t) per component against the whole-window product: to the bit
    when the segment is one component, within 1e-12 otherwise."""
    for t in (0.0, 0.3, 1.0):
        x, want = seg.at(t), dense_spectral_at(seg, t)
        if len(seg.components()) == 1:
            assert np.array_equal(x, want)
        else:
            assert np.max(np.abs(x - want)) <= 1e-12


def assert_bound_matches_the_dense_formulas(seg):
    bound, want = seg.spectrum_bound(), dense_spectrum_bound(seg)
    if want is None:
        assert bound is None
        return
    got = (bound.alpha, bound.beta, bound.slack, bound.scale, bound.rates)
    d = dense_factors(seg)["left"].shape[0]
    assert bound.flip == seg.flip and bound.rounding == d * np.finfo(float).eps
    if len(seg.components()) == 1:
        assert got == want
    else:
        assert np.max(np.abs(np.hstack(got) - np.hstack(want))) <= 1e-12


def test_spectral_segments_match_the_whole_window_route(pipeline_case):
    name, (path, _) = pipeline_case
    pieces = spectral_pieces(path.segments)
    assert [seg.kind for seg in pieces] == ["log", "polar", "block_unitary"] * 2
    sizes = [max(part.size for part in seg.components()) for seg in pieces]
    if name == "tailed":  # only the polar climb and the stacked move split
        d = path.window.dimension
        assert sizes[:3] == [d, d - 2, d - 2] and len(pieces[0].components()) == 1
    else:
        assert max(sizes) == 2
    for seg in pieces:
        assert_samples_match_the_dense_product(seg)
        assert_bound_matches_the_dense_formulas(seg)
    assert all(seg.spectrum_bound() is not None for seg in pieces[:3])


def dense_components(seg):
    """A segment's components from its whole-window factors: of the
    pattern of C, g, L and R (mode k joining the rows of L[:, k] and the
    columns of R[k, :]) for a spectral segment, of A | B for an affine
    one."""
    f = dense_factors(seg)
    if isinstance(seg, AffineSegment):
        return [part.tolist() for part in components((f["start"] != 0) | (f["end"] != 0))]
    d, k = f["left"].shape
    pattern = np.zeros((d + k, d + k), dtype=bool)
    pattern[:d, :d] = f["const"] != 0
    if f["factor"] is not None:
        pattern[:d, :d] |= f["factor"] != 0
    pattern[:d, d:] = f["left"] != 0
    pattern[d:, :d] = f["right"] != 0
    parts = [part[part < d] for part in components(pattern)]
    return [part.tolist() for part in parts if part.size]


def dense_moving_sites(seg):
    """Rows and columns where A or B (affine), or L, R or C - 1 (spectral),
    is nonzero."""
    f = dense_factors(seg)
    eye = np.eye(seg.window.dimension)

    def support(x):
        return np.any(x, axis=0) | np.any(x, axis=1)

    if isinstance(seg, AffineSegment):
        return support(f["start"] - eye) | support(f["end"] - eye)
    return np.any(f["left"], axis=1) | np.any(f["right"], axis=0) | support(f["const"] - eye)


def dense_at(seg, t):
    if isinstance(seg, AffineSegment):
        s = 1.0 - t if seg.flip else t
        f = dense_factors(seg)
        return (1.0 - s) * f["start"] + s * f["end"]
    return dense_spectral_at(seg, t)


def test_segments_match_their_dense_factors(pipeline_case):
    """Every segment of the pipeline against its whole-window factors:
    samples, blocks, moving sites and components."""
    _, (path, _) = pipeline_case
    rng = np.random.default_rng(34)
    for seg in path.segments:
        d = seg.window.dimension
        rows, cols = np.sort(rng.choice(d, d // 3, replace=False)), np.arange(1, d, 3)
        for t in (0.0, 0.4, 1.0):
            whole = dense_at(seg, t)
            assert np.max(np.abs(seg.at(t) - whole)) <= 1e-12
            assert np.max(np.abs(seg.block(t, rows, cols) - whole[np.ix_(rows, cols)])) <= 1e-12
        assert np.array_equal(seg.moving_sites(), dense_moving_sites(seg))
        assert [part.tolist() for part in seg.components()] == dense_components(seg)


def test_spectral_blocks_match_the_all_mode_product(pipeline_case):
    """SpectralSegment.block cuts one stack at a time, over each stack's
    own mode slots, and starts from the identity or g off the stacks;
    the product over all modes is the reference.  Cuts that share rows
    or columns, repeat, are empty or lie wholly off the stacks all
    match it, and cutting keeps no state beyond the cached properties."""
    _, (path, _) = pipeline_case
    window = path.window
    allowance = window.radius / 2
    locality = [
        (_locality_indices(window, row, allowance), _locality_indices(window, col, allowance))
        for row, col in (DEFAULT_ARC_PAIR,)
    ]
    fields = {f.name for f in dataclasses.fields(SpectralSegment)}
    cached = {name for name, x in vars(SpectralSegment).items() if isinstance(x, cached_property)}
    rng = np.random.default_rng(0)
    d = window.dimension
    for seg in spectral_pieces(path.segments):
        rows, cols = np.sort(rng.choice(d, d // 3, replace=False)), np.arange(0, d, 4)
        off = np.setdiff1d(np.arange(d), np.concatenate([st.sites.ravel() for st in seg.stacks]))
        # one cut after another that shares its rows or its columns
        cuts = [(rows, cols), (rows, cols[1:]), (rows[1:], cols[1:]), (rows[1:], cols[1:])]
        cuts += [(rows[:0], cols), (rows, cols[:0]), (off, off), (off, cols)]
        cuts += locality
        for t in (0.0, 0.3, 1.0):
            whole = dense_spectral_at(seg, t)
            for rows, cols in cuts:
                got = seg.block(t, rows, cols)
                assert got.shape == (rows.size, cols.size)
                assert np.max(np.abs(got - whole[np.ix_(rows, cols)]), initial=0.0) <= 1e-12
        assert set(vars(seg)) <= fields | cached


def record_formed(mp, form, formed, entry=lambda seg, t: t) -> None:
    """Patch ``form._sample`` to append ``entry(seg, t)`` to ``formed``
    for each sample it forms: a new array, not a read-only view of the
    segment's own data (a constant affine segment's A)."""
    sample = form._sample

    def recorded(seg, t):
        out = sample(seg, t)
        if out.block.flags.writeable:
            formed.append(entry(seg, t))
        return out

    mp.setattr(form, "_sample", recorded)


def certify_forming_every_affine_sample(path, config, monkeypatch):
    """certify_path with every affine sample formed by ``seg.at(t)`` and
    its locality blocks cut from it with numpy, and the Gram defects of
    each affine sample measured on the formed sample with numpy, keyed
    by (segment, segment time)."""
    formed = {}

    def cut(seg, t, rows, cols):
        x = seg.at(t)
        (i,) = [i for i, other in enumerate(path.segments) if other is seg]
        formed[i, t] = dense_defects(x)
        return x[np.ix_(rows, cols)]

    with monkeypatch.context() as mp:
        mp.setattr(AffineSegment, "block", cut)
        return certify_path(path, config), formed


def test_affine_samples_are_measured_without_being_formed(tailed_pipeline, monkeypatch):
    u, path, report, certify = tailed_pipeline
    line = straight_line(u, Operator.identity(u.window))
    formed = []
    record_formed(monkeypatch, AffineSegment, formed)
    for p in (line, path):
        formed.clear()
        got = certify_path(p, certify)
        # the path's first sample, and its last when an affine segment ends it
        assert formed == ([0.0, 1.0] if p is line else [0.0])
        want, dense = certify_forming_every_affine_sample(p, certify, monkeypatch)
        assert got.series == want.series and got.endpoint_errors == want.endpoint_errors
        assert got.segment_stats == want.segment_stats
        n = len(p.segments)
        rows = {(p.segment_of(t), t * n - p.segment_of(t)): row for t, *row in got.series}
        assert dense and all(
            np.allclose(rows[key][:2], defects, rtol=0.0, atol=1e-12)
            for key, defects in dense.items()
        )
    assert got.series == report.series


@pytest.mark.parametrize("case", ["seed1", "tailed"])
def test_certify_path_forms_only_the_first_and_last_samples(case, tailed_pipeline, monkeypatch):
    """Every other sample is measured from its segment's form (the bound,
    or the Gram spectrum from the form's own data) and cut by its
    ``block``, so a unitary path forms two samples however many it has:
    one when its first segment is constant, whose sample is A itself."""
    if case == "tailed":
        _, path, _, certify = tailed_pipeline
    else:
        certify = CertifyConfig(arc_pairs=(DEFAULT_ARC_PAIR,))
        path, _ = oplab.homotopy.theorem1_pipeline(
            seeded_local_unitary(TruncationWindow.plane(12), 1),
            0.5,
            oplab.homotopy.PipelineConfig(certify=certify),
        )
    formed = []
    for form in (AffineSegment, SpectralSegment, oplab.homotopy.ConjugationSegment):
        record_formed(monkeypatch, form, formed, lambda seg, t: (seg, t))
    report = certify_path(path, certify)
    # a finite-range input leaves surgery nothing to do
    constant = path.segments[0].is_constant()
    assert constant == (case == "seed1")
    assert report.samples == 50 and len(formed) == (1 if constant else 2)
    if not constant:
        first, t0 = formed[0]  # _sample takes the unflipped time
        assert first is path.segments[0] and t0 == (1.0 if first.flip else 0.0)
    last, t1 = formed[-1]
    assert last is path.segments[-1] and t1 == (0.0 if last.flip else 1.0)


def test_certify_path_forms_one_sample_per_t_on_projection_paths(monkeypatch):
    """A projection path keeps its first sample as the t = 0 one and cuts
    its locality blocks from the one sample formed at each t, so it
    forms ``samples`` samples; each block matches the dense sample's."""
    window = TruncationWindow.plane(6)
    upath = log_path(seeded_local_unitary(window, 1)).reverse()  # from the identity, a projection
    conj = conjugation_path(Projection.from_region(Ball(3), window), upath)
    certify = CertifyConfig(samples=10, arc_pairs=(DEFAULT_ARC_PAIR,))
    # a second, adjacent cone pair and no allowance, so the blocks hold
    # entries that move
    near = (Arc(Direction(1, -1), Direction(1, 1)), Arc(Direction(2, 3), Direction(-1, 1)))
    blocks = CertifyConfig(samples=10, arc_pairs=(DEFAULT_ARC_PAIR, near), allowance_radius=0)
    pairs = [
        (_locality_indices(window, row, 0), _locality_indices(window, col, 0))
        for row, col in blocks.arc_pairs
    ]
    worst = 0.0
    for path, form in ((conj, oplab.homotopy.ConjugationSegment), (upath, SpectralSegment)):
        formed = []
        with monkeypatch.context() as mp:
            record_formed(mp, form, formed)
            report = certify_path(path, certify)
        assert report.is_projection_path and len(formed) == 10
        for t, _, _, loc, *_ in certify_path(path, blocks).series:
            whole = path.at(t)
            want = max(spectral_norm(whole[np.ix_(r, c)]) for r, c in pairs)
            assert abs(loc - want) <= 1e-12
            worst = max(worst, loc)
    assert worst > 0.1
    sample = conj.segments[0].sample(0.4)
    inside, outside = sample.sites, np.setdiff1d(np.arange(window.dimension), sample.sites)
    assert inside.size and outside.size
    mixed = np.sort(np.concatenate([inside[::2], outside[::3]]))
    for rows, cols in (
        (mixed, mixed), (inside, outside), (outside, outside), (mixed, inside[1::2]),
        (mixed[:0], mixed), (mixed, mixed[:0]),
    ):
        assert np.array_equal(sample.cut(rows, cols), sample.dense()[np.ix_(rows, cols)])


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built_segment_matches_the_whole_window_route(case):
    seg = HAND_BUILT[case]
    parts = [part.tolist() for part in seg.components()]
    assert [0, 2, 5] in parts and [3] in parts
    assert ([1, 4] in parts and [6] in parts) == (case != "tail")
    for piece in (seg, seg.reversed()):
        assert_samples_match_the_dense_product(piece)
        assert_bound_matches_the_dense_formulas(piece)
    bound = seg.spectrum_bound()
    assert (bound is None) == (case == "idle")
    if case == "tail":
        assert bound.slack >= 2e-11  # the entry only g holds is in the slack


def test_endpoint_errors_match_the_whole_window_norm(pipeline_case):
    _, (path, report) = pipeline_case
    diffs = (
        path.segments[0].at(0.0) - path.declared_start.dense(),
        path.segments[-1].at(1.0) - path.declared_end.dense(),
    )
    for got, diff in zip(report.endpoint_errors, diffs):
        want = spectral_norm(diff)
        if len(components(diff)) == 1:
            assert got == want
        else:
            assert abs(got - want) <= 1e-12
    assert report.endpoint_errors[0] == 0.0  # the path starts at the input


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built_endpoint_error_matches_the_whole_window_norm(case):
    seg = HAND_BUILT[case]
    end = seg.at(1.0)
    end[6, 1] += 4e-10  # between two components
    end[0, 0] += 3e-10
    path = oplab.homotopy.HomotopyPath(
        (seg,), BlockSample.whole(seg.at(0.0)), BlockSample.whole(end)
    )
    report = certify_path(path, CertifyConfig(samples=3))
    assert abs(report.endpoint_errors[1] - spectral_norm(seg.at(1.0) - end)) <= 1e-12
    assert report.endpoint_errors[1] >= 4e-10


def test_split_norm_matches_the_whole_window_norm():
    rng = np.random.default_rng(33)
    m, _ = permuted_blocks(rng, (1, 2, 2, 5, 3), unitary=False)
    for x in (m, 1e-3 * m, np.zeros((6, 6)), np.diag(rng.random(5))):
        assert abs(oplab.homotopy._split_norm(x) - spectral_norm(x)) <= 1e-12
    dense = rng.standard_normal((7, 7))
    assert oplab.homotopy._split_norm(dense) == spectral_norm(dense)  # one component


def block_sample(rng, d, sites):
    """A random complex block sample on the sorted ``sites``: a random
    complex diagonal off them and a random complex block on them."""
    diag = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    diag[sites] = 0.0
    n = sites.size
    block = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return BlockSample(diag, sites, block)


def site_sets(rng, d, a_kind, b_kind):
    """Two sorted site sets: a's empty, some or every site; b's empty,
    disjoint from a's, overlapping it, equal to it or every site."""
    every = np.arange(d)
    some = np.sort(rng.choice(d, int(rng.integers(1, d)), replace=False))
    a = {"empty": every[:0], "some": some, "whole": every}[a_kind]
    rest = np.setdiff1d(every, a)
    if b_kind == "disjoint":
        b = rest[rng.random(rest.size) < 0.5]
    elif b_kind == "overlapping":
        b = np.union1d(a[: max(a.size // 2, 1)], rest[rng.random(rest.size) < 0.5])
    else:
        b = {"empty": every[:0], "same": a, "whole": every}[b_kind]
    return a, b


@given(
    d=st.integers(2, 12),
    a_kind=st.sampled_from(["empty", "some", "whole"]),
    b_kind=st.sampled_from(["empty", "disjoint", "overlapping", "same", "whole"]),
    near=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=6, a_kind="whole", b_kind="empty", near=True, seed=3)  # a dense end and the identity
@example(d=6, a_kind="some", b_kind="same", near=True, seed=4)  # a conjugation joint
@example(d=6, a_kind="some", b_kind="whole", near=False, seed=5)  # a block against a dense end
def test_block_comparisons_match_the_dense_difference(d, a_kind, b_kind, near, seed):
    """Joint and end comparisons of two block samples equal the norms of
    the dense difference: the Frobenius norm within 1e-14 relative, the
    spectral norm per component within 1e-12 relative, either way round,
    and the two ways round agree bit for bit.  A read-only side given up
    with ``spare`` is measured the same and left as it was, and so is
    the other side.  ``near`` makes b a small perturbation of a on their
    common sites."""
    rng = np.random.default_rng(seed)
    a_sites, b_sites = site_sets(rng, d, a_kind, b_kind)
    a = block_sample(rng, d, a_sites)
    b = block_sample(rng, d, b_sites)
    if near:
        diag = a.dense().diagonal() + 1e-9 * rng.standard_normal(d)
        diag[b_sites] = 0.0
        shift = 1e-9 * rng.standard_normal((b_sites.size,) * 2)
        b = BlockSample(diag, b_sites, a.cut(b_sites, b_sites) + shift)
    frobenius, spectral = oplab.homotopy._frobenius_gap, oplab.homotopy._spectral_gap
    for x, y in ((a, b), (b, a)):
        diff = x.dense() - y.dense()
        want = np.linalg.norm(diff)
        assert abs(frobenius(x, y) - want) <= 1e-14 * want
        want = spectral_norm(diff)
        assert abs(spectral(x, y) - want) <= 1e-12 * want
        assert frobenius(x, y) == frobenius(y, x) and spectral(x, y) == spectral(y, x)
        frozen = BlockSample(x.diag, x.sites, x.block.copy())
        frozen.block.flags.writeable = False
        other = y.block.copy()
        assert frobenius(frozen, y, spare=True) == frobenius(x, y)
        assert spectral(frozen, y, spare=True) == spectral(x, y)
        assert np.array_equal(frozen.block, x.block) and np.array_equal(y.block, other)


def dense_is_projection(x, tol):
    """The dense projection test the block test replaced: hermitian and
    idempotent within tol, as norms of the whole-window defects."""
    return norm_at_most(x - x.conj().T, tol) and norm_at_most(x @ x - x, tol)


@given(
    d=st.integers(2, 10),
    sites_kind=st.sampled_from(["empty", "some", "whole"]),
    block_kind=st.sampled_from(["projection", "skew", "scaled"]),
    diag_kind=st.sampled_from(["mask", "imaginary", "half"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=8, sites_kind="some", block_kind="projection", diag_kind="imaginary", seed=1)
@example(d=8, sites_kind="some", block_kind="projection", diag_kind="mask", seed=2)
def test_block_projection_test_matches_the_dense_test(d, sites_kind, block_kind, diag_kind, seed):
    """The projection test decided on the block sample gives the dense
    test's answer: a projection block with a 0/1 diagonal off S passes;
    a non-hermitian or non-idempotent block, a diagonal entry off S with
    an imaginary part, or one of 1/2 fails."""
    rng = np.random.default_rng(seed)
    sites, _ = site_sets(rng, d, sites_kind, "empty")
    n = sites.size
    u = random_unitary(n, rng) if n else np.zeros((0, 0))
    rank = rng.random(n) < 0.5
    block = (u * rank) @ u.conj().T
    if block_kind == "skew" and n:
        block[0, -1] += 0.25j
    if block_kind == "scaled":
        block = 0.5 * block
    diag = (rng.random(d) < 0.5).astype(np.complex128)
    off = np.setdiff1d(np.arange(d), sites)
    if off.size and diag_kind == "imaginary":
        diag[off[0]] = 1.0 + 1e-3j
    if off.size and diag_kind == "half":
        diag[off[-1]] = 0.5
    diag[sites] = 0.0
    sample = BlockSample(diag, sites, block)
    tol = 1e-6
    got = oplab.homotopy._is_projection(sample, tol)
    assert got == dense_is_projection(sample.dense(), tol)
    moved = (block_kind == "skew" and n > 0) or (block_kind == "scaled" and rank.any())
    assert got == (not moved and (off.size == 0 or diag_kind == "mask"))


@pytest.mark.parametrize("where", ["moving", "diagonal"])
def test_conjugation_path_rejects_a_nudged_end(where):
    """A declared end 1e-8 off the segment's sample at t = 1, ten times
    the joint tolerance, is rejected whether the nudge sits on a moving
    site or on a diagonal site off the block."""
    _, _, path = theorem2_path(32, 5, 0.7)
    end = path.declared_end
    diag, block = end.diag.copy(), end.block.copy()
    if where == "moving":
        block[0, 1] += 1e-8
    else:
        diag[np.setdiff1d(np.arange(diag.size), end.sites)[0]] += 1e-8
    nudged = BlockSample(diag, end.sites, block)
    with pytest.raises(PreconditionError, match="declared endpoints off"):
        oplab.homotopy.HomotopyPath(path.segments, path.declared_start, nudged)
    # the unnudged end passes
    oplab.homotopy.HomotopyPath(path.segments, path.declared_start, end)


# ---------------------------------------------------------------------------
# connected components


def closure_components(pattern):
    """Components by brute force: the transitive closure of the linked
    pattern by repeated boolean squaring, one sorted tuple per component."""
    linked = pattern != 0
    reach = linked | linked.T | np.eye(pattern.shape[0], dtype=bool)
    while True:
        grown = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if np.array_equal(grown, reach):
            return sorted({tuple(np.flatnonzero(row)) for row in reach})
        reach = grown


@given(
    n=st.integers(1, 40),
    density=st.sampled_from([0.0, 0.02, 0.08, 0.3]),
    dense_block=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, density=0.0, dense_block=0, seed=0)
@example(n=30, density=0.0, dense_block=30, seed=0)  # one fully dense block
@example(n=30, density=0.02, dense_block=6, seed=5)
def test_components_match_the_transitive_closure(n, density, dense_block, seed):
    rng = np.random.default_rng(seed)
    pattern = sparse_complex(rng, n, n, density)
    empty = rng.random(n) < 0.2  # empty rows and columns
    pattern[empty] = 0.0
    pattern[:, empty] = 0.0
    block = rng.choice(n, size=min(dense_block, n), replace=False)  # scattered sites
    pattern[np.ix_(block, block)] = 1.0
    parts = components(pattern)
    assert [tuple(part) for part in parts] == closure_components(pattern)
    assert all(part.dtype.kind == "i" for part in parts)


def test_components_of_a_small_pattern():
    pattern = np.zeros((7, 7))
    pattern[0, 4] = pattern[2, 4] = 1.0  # one-way entries still link
    pattern[6, 3] = 2.0
    pattern[5, 5] = 1.0
    assert [part.tolist() for part in components(pattern)] == [[0, 2, 4], [1], [3, 6], [5]]
    assert components(np.zeros((0, 0))) == []
    assert unitarity_defect(np.zeros((0, 0), dtype=np.complex128)) == 0.0  # an empty union block


def permuted_blocks(rng, sizes, unitary):
    """A block-diagonal matrix with the given block sizes, its sites
    permuted; returns it with its blocks as sorted site arrays."""
    d = sum(sizes)
    m = np.zeros((d, d), dtype=np.complex128)
    start = 0
    for size in sizes:
        block = random_unitary(size, rng)
        if not unitary:
            block = block @ np.diag(0.5 + rng.random(size))
        m[start : start + size, start : start + size] = block
        start += size
    perm = rng.permutation(d)
    inverse = np.argsort(perm)
    m = m[np.ix_(perm, perm)]
    bounds = np.cumsum((0,) + tuple(sizes))
    blocks = [np.sort(inverse[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    return m, sorted(blocks, key=lambda part: part[0])


def split_cases():
    """(name, window, unitary) for the permuted blocks of sizes 1, 2 and
    5 (and a trailing singleton, to fill a line window) and for the
    radius-12 pipeline inputs."""
    rng = np.random.default_rng(16)
    line = TruncationWindow.line(4)
    u, _ = permuted_blocks(rng, (1, 2, 5, 1), unitary=True)
    yield "blocks", line, u
    plane = TruncationWindow.plane(12)
    for seed in (1, 2, 3):
        yield f"seed{seed}", plane, seeded_local_unitary(plane, seed).entries


SPLIT_CASES = {name: (window, u) for name, window, u in split_cases()}


def test_permuted_blocks_are_found():
    m, blocks = permuted_blocks(np.random.default_rng(17), (1, 2, 5), unitary=False)
    parts = components(m)
    assert [part.tolist() for part in parts] == [block.tolist() for block in blocks]
    assert sorted(part.size for part in parts) == [1, 2, 5]


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_split_defects_match_the_whole_window(case):
    window, u = SPLIT_CASES[case]
    d = window.dimension
    g = u @ np.diag(0.5 + np.random.default_rng(18).random(d))  # same pattern
    assert len(components(u)) > 1
    for x in (u, g):
        dense = np.linalg.eigvalsh(x.conj().T @ x)
        split = np.sort(gram_eigenvalues(x, block_stacks(components(x))))
        assert np.max(np.abs(split - dense)) <= 1e-12
        assert abs(unitarity_defect(x) - np.max(np.abs(dense - 1.0))) <= 1e-12


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_split_schur_and_polar_match_the_whole_window(case):
    window, u = SPLIT_CASES[case]
    d = window.dimension
    schur_t, q = scipy.linalg.schur(u, output="complex")
    theta = np.angle(np.diag(schur_t))
    theta = np.where(theta <= -np.pi + 1e-12, theta + 2.0 * np.pi, theta)
    assert_samples(
        log_path(Operator(window, u)),
        lambda t: (q * np.exp(1j * (1.0 - t) * theta)[None, :]) @ q.conj().T,
    )
    g = u @ np.diag(0.5 + np.random.default_rng(19).random(d))
    left, s, right = np.linalg.svd(g)
    polar = polar_path(Operator(window, g))
    assert_samples(polar, lambda t: (left * (s ** (1.0 - t))[None, :]) @ right)
    f = dense_factors(polar.segments[0])
    for part in components(g):  # the factors hold exact zeros off the blocks
        off = np.setdiff1d(np.arange(d), part)
        assert not np.any(f["left"][np.ix_(part, off)])
        assert not np.any(f["right"][np.ix_(part, off)])


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_split_certificates_match_the_dense_oracle(case):
    window, u = SPLIT_CASES[case]
    g = u @ np.diag(0.5 + np.random.default_rng(20).random(window.dimension))
    certify = CertifyConfig(samples=7)
    paths = [
        straight_line(Operator(window, u), Operator(window, g)),  # affine sampler
        straight_line(Operator(window, g), Operator(window, g)),  # constant sampler
        log_path(Operator(window, u)),  # bound sampler, dense ends
        polar_path(Operator(window, g)),
    ]
    largest = max(part.size for part in components(u))
    for path in paths:
        report = certify_path(path, certify)
        assert_rows_match_the_dense_oracle(path, report, certify)
        assert report.segment_stats[0]["largest_block"] <= largest


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_split_pipeline_certificate_matches_the_dense_oracle(seed):
    window = TruncationWindow.plane(12)
    certify = CertifyConfig(arc_pairs=(DEFAULT_ARC_PAIR,))
    path, report = oplab.homotopy.theorem1_pipeline(
        seeded_local_unitary(window, seed), 0.5, oplab.homotopy.PipelineConfig(certify=certify)
    )
    assert_rows_match_the_dense_oracle(path, report, certify)
    # the finite-range input splits into components of at most two sites
    assert [s["largest_block"] for s in report.segment_stats] == [2] * 6


def whole_window(pattern):
    """The split turned off: every pattern is one component."""
    return [np.arange(np.asarray(pattern).shape[0])]


def whole_window_order(pattern):
    """component_order with the split turned off."""
    return np.arange(np.asarray(pattern).shape[0]), np.zeros(1, dtype=np.intp)


def test_tailed_input_runs_the_whole_window_route_bit_for_bit(tailed_pipeline, monkeypatch):
    """An irreducible input is one component: wherever a segment is one
    component, the split route is the whole-window route, to the bit.
    Only the polar climb and the stacked move split (the first peel
    factor is the identity on the centers)."""
    u, path, report, certify = tailed_pipeline
    d = u.window.dimension
    assert [part.size for part in components(u.entries)] == [d]
    split_log = log_path(u)
    split_log_report = certify_path(split_log, certify)
    monkeypatch.setattr(oplab.homotopy, "components", whole_window)
    monkeypatch.setattr(oplab.operators, "components", whole_window)
    monkeypatch.setattr(oplab.homotopy, "component_order", whole_window_order)
    whole_log = log_path(u)
    whole_factors, split_factors = (dense_factors(p.segments[0]) for p in (whole_log, split_log))
    for name in ("left", "exponents", "right", "const"):
        assert np.array_equal(whole_factors[name], split_factors[name])
    assert certify_path(whole_log, certify).series == split_log_report.series

    whole_path, whole_report = oplab.homotopy.theorem1_pipeline(
        u, 0.5, oplab.homotopy.PipelineConfig(certify=certify)
    )
    sizes = [s["largest_block"] for s in report.segment_stats]
    assert sizes == [d, d, d, d, d - 2, d - 2]
    for i, (split, whole) in enumerate(zip(report.segment_stats, whole_report.segment_stats)):
        rows = [k for k, row in enumerate(report.series) if path.segment_of(row[0]) == i]
        # the stacked move leaves the identity on the two center sites
        # implicit, so even the unsplit route keeps it off its block
        assert whole["largest_block"] == (d - 2 if whole["kind"] == "block_unitary" else d)
        if split["largest_block"] == d:
            assert {**split, "largest_block": d} == whole
            assert [report.series[k] for k in rows] == [whole_report.series[k] for k in rows]
        else:
            for k in rows:
                assert np.allclose(report.series[k][1:4], whole_report.series[k][1:4], rtol=0.0, atol=1e-12)


def dense_block_peel(m, p):
    """The factors of block_peel from dense products with P and P~."""
    pe = p.entries
    qe = np.eye(pe.shape[0]) - pe
    me = m.entries
    return pe + qe @ me @ qe, pe @ me @ qe, pe + pe @ me @ qe + qe @ me @ qe


def random_peelable(window, seed):
    rng = np.random.default_rng(seed)
    d = window.dimension
    mask = rng.random(d) < 0.3
    pe = np.diag(mask).astype(np.complex128)
    qe = np.eye(d) - pe
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return Operator(window, pe + pe @ raw @ qe + qe @ raw @ qe), Projection(Operator(window, pe))


@pytest.mark.parametrize("case", ["random", "pipeline"])
def test_block_peel_on_index_blocks_matches_the_dense_factor_product(case, monkeypatch):
    if case == "random":
        m, p = random_peelable(TruncationWindow.plane(4), 26)
    else:
        calls = []
        peel = oplab.homotopy._block_peel
        monkeypatch.setattr(
            oplab.homotopy, "_block_peel", lambda m, p: calls.append((m, p)) or peel(m, p)
        )
        oplab.homotopy.theorem1_pipeline(
            seeded_local_unitary(TruncationWindow.plane(12), 1),
            0.5,
            oplab.homotopy.PipelineConfig(certify=CertifyConfig(samples=2)),
        )
        ((m, p),) = calls
    (f1, f2), path = block_peel(m, p)
    seg, product = path.segments[0], path.declared_end.dense()
    dense_f1, dense_nil, peelable = dense_block_peel(m, p)
    nil = f2.entries - np.eye(m.window.dimension)
    assert np.array_equal(f1.entries, dense_f1)
    assert np.array_equal(nil, dense_nil)
    assert np.array_equal(f1.entries @ nil, nil)  # f1 N = N, because P~P = 0
    # the factor product, formed densely, is the peelable part
    assert np.linalg.norm(f1.entries @ f2.entries - peelable) <= 1e-10
    assert np.array_equal(product, peelable)
    f = dense_factors(seg)
    assert np.array_equal(f["start"], f1.entries) and np.array_equal(f["end"], product)


def test_block_peel_needs_a_mask():
    m, p = random_peelable(TruncationWindow.plane(2), 27)
    with pytest.raises(PreconditionError, match="0/1 diagonal"):
        _block_peel(m, DenseProjection(p.operator))
