"""Index estimators: kernel counting, trace formula, probes."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oplab.errors import (
    BoundaryContaminationError,
    PreconditionError,
    RepresentationError,
)
from oplab.geometry import Arc, Cone, Direction, Explicit
from oplab.index import (
    COMPACT_FLOOR,
    IndexConfig,
    IndexResult,
    cut_interface,
    fredholm_index,
    index_k_projection,
    interior_mask,
    nontriviality_probe,
    projection_index,
)
from oplab.operators import (
    CircleFunction,
    Operator,
    Projection,
    _laurent_apply,
    laughlin_operator,
    shift_operator,
)
from oplab.windows import TruncationWindow

from conftest import traced_peak
from test_block_oracles import weighted_partial_permutation


def half_line(window):
    region = Explicit(frozenset(x for x in window.sites if x >= 1))
    return Projection.from_region(region, window)


def compression(p, base):
    pe = p.entries
    t = pe @ base.entries @ pe + (np.eye(p.window.dimension) - pe)
    return Operator(p.window, t)


def zero_line_oracle(entries, window, cut_limit):
    """Brute-force zero columns/rows split by distance to the origin.

    Independent arithmetic: no classification code from the package.
    """
    col_zero = [s for i, s in enumerate(window.sites) if not entries[:, i].any()]
    row_zero = [s for i, s in enumerate(window.sites) if not entries[i, :].any()]
    ker_cut = sum(1 for s in col_zero if abs(s) <= cut_limit)
    coker_cut = sum(1 for s in row_zero if abs(s) <= cut_limit)
    return ker_cut - coker_cut


# ---------------------------------------------------------------------------
# shift representation anchors


def test_half_line_shift_index_minus_one():
    window = TruncationWindow.line(16)
    result = projection_index(half_line(window), shift_operator(window, 1))
    assert result.value == -1
    assert result.method == "kernel_count"
    assert result.diagnostics["cross_check"]["value"] == -1


def test_half_line_shift_kernel_count():
    window = TruncationWindow.line(16)
    result = projection_index(
        half_line(window), shift_operator(window, 1), method="kernel_count"
    )
    assert result.value == -1
    assert result.diagnostics["kernel_at_cut"] == 0
    assert result.diagnostics["cokernel_at_cut"] == 1


def test_half_line_shift_trace_formula():
    window = TruncationWindow.line(16)
    result = projection_index(
        half_line(window), shift_operator(window, 1), method="trace_formula"
    )
    assert result.value == -1
    assert result.diagnostics["trace_residual"] < 1e-12


def test_unitary_periodic_shift_has_index_zero():
    window = TruncationWindow.line(16)
    t = shift_operator(window, 1, "periodic")
    result = fredholm_index(t)
    assert result.value == 0
    assert result.method == "kernel_count"


@given(
    radius=st.integers(1, 12),
    fill=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_count_on_partial_permutations_matches_oracle(radius, fill, seed):
    # dyadic weights are 0 or at least 1/4 in modulus, so none falls into
    # the threshold gap; every nonzero entry is a lone pair, so the core
    # left for the SVD is the empty rows against the empty columns
    w = TruncationWindow.line(radius)
    t = weighted_partial_permutation(np.random.default_rng(seed), w.dimension, fill, "dyadic")
    result = fredholm_index(Operator(w, t), "kernel_count", IndexConfig(cut_sites=(0,)))
    assert result.value == zero_line_oracle(t, w, w.radius / 4)
    assert result.diagnostics["core_dim"] == sum(1 for row in t if not row.any())


def test_two_step_compression_gives_plus_two():
    window = TruncationWindow.line(16)
    p = half_line(window)
    base = shift_operator(window, -2)
    oracle = zero_line_oracle(
        compression(p, base).entries, window, float(window.radius) / 4
    )
    assert oracle == 2
    result = projection_index(p, base)
    assert result.value == 2


def test_trivial_projections():
    window = TruncationWindow.line(12)
    base = shift_operator(window, 1)
    zero = Projection.from_operator(Operator.zero(window))
    full = Projection.from_operator(Operator.identity(window))
    assert projection_index(zero, base).value == 0
    assert projection_index(full, base).value == 0


@given(radius=st.integers(12, 64), k=st.integers(-3, 3))
@example(radius=32, k=-3)
@example(radius=32, k=3)
def test_index_k_sweep_matches_oracle(radius, k):
    window = TruncationWindow.line(radius)
    base, p = index_k_projection(k, window)
    oracle = zero_line_oracle(compression(p, base).entries, window, float(window.radius) / 4)
    assert oracle == k
    for method in ("auto", "kernel_count", "trace_formula"):
        assert projection_index(p, base, method=method).value == k


@pytest.mark.parametrize("k", [1, -3])
def test_index_peak_memory_is_the_compression_alone(k):
    # T = PBP + P⊥ has at most one nonzero per row, so the split holds
    # O(d) entries: the estimators allocate well under one d x d array,
    # and projection_index builds T as its nonzero list from the shift's
    # own list, so its peak is a few O(d) arrays
    window = TruncationWindow.line(1024)
    base, p = index_k_projection(k, window)
    mask = p.diagonal_mask()
    t = Operator(window, base.entries * np.outer(mask, mask) + np.diag(~mask))
    config = IndexConfig(cut_sites=cut_interface(p))
    one_array = window.dimension**2 * np.dtype(np.complex128).itemsize
    result, peak = traced_peak(lambda: fredholm_index(t, "auto", config))
    assert result.value == k
    assert peak <= 0.25 * one_array
    result, peak = traced_peak(lambda: projection_index(p, base))
    assert result.value == k
    assert peak <= 0.01 * one_array


@pytest.mark.parametrize("k", [-3, 0, 3])
def test_projection_index_on_the_shift_forms_no_dense_array(k):
    """The shift is built as its nonzero list and read through it, so an
    index reading at radius 4095 (d = 8191) peaks far below one d x d."""
    window = TruncationWindow.line(4095)
    p = half_line(window)
    one_array = window.dimension**2 * np.dtype(np.complex128).itemsize
    result, peak = traced_peak(lambda: projection_index(p, shift_operator(window, k)))
    assert result.value == -k
    assert peak <= 0.01 * one_array


def test_index_k_needs_room():
    window = TruncationWindow.line(32)
    with pytest.raises(PreconditionError):
        index_k_projection(9, window)
    with pytest.raises(RepresentationError):
        index_k_projection(1, TruncationWindow.plane(8))


def test_adjoint_negates_index():
    window = TruncationWindow.line(16)
    p = half_line(window)
    t = compression(p, shift_operator(window, 1))
    config = IndexConfig(cut_sites=cut_interface(p))
    forward = fredholm_index(t, config=config)
    backward = fredholm_index(t.adjoint(), config=config)
    assert backward.value == -forward.value == 1


@given(radius=st.integers(12, 64), k=st.integers(-3, 3))
@example(radius=16, k=-1)  # the half line under the unit shift
def test_perp_negates_index(radius, k):
    window = TruncationWindow.line(radius)
    base, p = index_k_projection(k, window)
    assert projection_index(p, base).value == k
    assert projection_index(p.perp(), base).value == -k


def test_conjugation_invariance_exact():
    window = TruncationWindow.line(16)
    p = half_line(window)
    base = shift_operator(window, 1)
    u = np.eye(window.dimension, dtype=np.complex128)
    i, j = window.index_of(3), window.index_of(4)
    c, s = np.cos(0.7), np.sin(0.7)
    u[i, i], u[i, j], u[j, i], u[j, j] = c, -s, s, c
    base_conj = Operator(window, u.conj().T @ base.entries @ u)
    p_conj = Projection.from_operator(
        Operator(window, u.conj().T @ p.entries @ u), region=None
    )
    config = IndexConfig(cut_sites=cut_interface(p))
    before = projection_index(p, base)
    after = projection_index(p_conj, base_conj, config=config)
    assert after.value == before.value == -1
    assert after.method == "kernel_count"


def test_local_perturbation_keeps_methods_agreeing():
    window = TruncationWindow.line(24)
    p = half_line(window)
    v = np.eye(window.dimension, dtype=np.complex128)
    i, j = window.index_of(6), window.index_of(7)
    c, s = np.cos(0.4), np.sin(0.4)
    v[i, i], v[i, j], v[j, i], v[j, j] = c, -s, s, c
    base = shift_operator(window, 1)
    twisted = Operator(window, v @ base.entries @ v.conj().T)
    # auto cross-checks kernel_count against trace_formula internally
    assert projection_index(p, twisted).value == -1


def test_additivity_of_composite_cuts():
    window = TruncationWindow.line(24)
    sites = window.sites
    lam_a = Explicit(frozenset(x for x in sites if x >= -7))
    lam_b = Explicit(frozenset(x for x in sites if x >= 9))
    pa = Projection.from_region(lam_a, window)
    pb = Projection.from_region(lam_b, window)
    ta = compression(pa, shift_operator(window, 1))
    tb = compression(pb, shift_operator(window, 2))
    combined = ta @ tb
    cuts = cut_interface(pa) + cut_interface(pb)
    config = IndexConfig(cut_sites=cuts, cut_radius=3.0)
    total = fredholm_index(combined, config=config)
    part_a = fredholm_index(ta, config=IndexConfig(cut_sites=cut_interface(pa)))
    part_b = fredholm_index(tb, config=IndexConfig(cut_sites=cut_interface(pb)))
    assert part_a.value == -1
    assert part_b.value == -2
    assert total.value == part_a.value + part_b.value


def test_gap_contamination_raises():
    window = TruncationWindow.line(16)
    p = half_line(window)
    t = compression(p, shift_operator(window, 1)).entries.copy()
    t[:, window.index_of(5)] *= 1e-5
    op = Operator(window, t)
    config = IndexConfig(cut_sites=cut_interface(p))
    with pytest.raises(BoundaryContaminationError):
        fredholm_index(op, method="kernel_count", config=config)


def test_trace_contamination_raises():
    window = TruncationWindow.line(16)
    p = half_line(window)
    t = compression(p, shift_operator(window, 1)).entries.copy()
    # interior column defect whose partner row defect sits outside the
    # interior mask, so the traces cannot cancel to an integer
    t[:, window.index_of(12)] *= 0.5
    op = Operator(window, t)
    with pytest.raises(BoundaryContaminationError):
        fredholm_index(op, method="trace_formula")


def test_cut_interface_half_line():
    window = TruncationWindow.line(16)
    assert cut_interface(half_line(window)) == (0, 1)


def test_cut_interface_cone():
    window = TruncationWindow.plane(6)
    arc = Arc(Direction(1, -1), Direction(1, 1))
    p = Projection.from_region(Cone(arc), window)
    interface = cut_interface(p)
    assert interface
    mask = p.diagonal_mask()
    for site in interface:
        flips = [
            nb
            for nb in ((site[0] + 1, site[1]), (site[0] - 1, site[1]),
                       (site[0], site[1] + 1), (site[0], site[1] - 1))
            if nb in window
            and mask[window.index_of(nb)] != mask[window.index_of(site)]
        ]
        assert flips


def test_interior_mask_counts():
    window = TruncationWindow.line(16)
    inside = interior_mask(window, 0.25)
    assert int(inside.sum()) == 25  # |x| <= 12


def test_result_serialization():
    window = TruncationWindow.line(12)
    result = projection_index(half_line(window), shift_operator(window, 1))
    blob = result.to_json_dict()
    assert blob["format"] == "indexresult v1"
    assert blob["value"] == -1
    assert blob["diagnostics"]["config"]["trace_power"] == 4


def test_bad_method_and_config():
    window = TruncationWindow.line(8)
    t = shift_operator(window, 1, "periodic")
    with pytest.raises(PreconditionError):
        fredholm_index(t, method="divination")
    with pytest.raises(PreconditionError):
        IndexConfig(sv_threshold=2.0)
    with pytest.raises(PreconditionError):
        IndexConfig(buffer=1.0)
    with pytest.raises(PreconditionError):
        IndexResult(0, "mystery", {})


def test_projection_index_rejects_bad_base():
    window = TruncationWindow.line(16)
    p = half_line(window)
    halved = Operator(window, 0.5 * shift_operator(window, 1, "periodic").entries)
    with pytest.raises(PreconditionError):
        projection_index(p, halved)


# ---------------------------------------------------------------------------
# non-triviality probes


def test_probe_half_line_shift_full_norms():
    window = TruncationWindow.line(16)
    p = half_line(window)
    base = shift_operator(window, 1)
    f = CircleFunction.monomial(1)
    report = nontriviality_probe(p, base, [f], [6, 7, -6, -7])
    assert report.minimum(0, "P") == pytest.approx(1.0)
    assert report.minimum(0, "Pperp") == pytest.approx(1.0)
    assert not report.trivial_suspect
    assert not report.degenerate


def test_probe_zero_function_degenerate():
    window = TruncationWindow.line(16)
    p = half_line(window)
    base = shift_operator(window, 1)
    report = nontriviality_probe(p, base, [CircleFunction({})], [4, -4])
    assert report.degenerate == (0,)
    assert all(r.p_side == 0.0 and r.perp_side == 0.0 for r in report.records)
    assert report.is_trivial_suspect(0)


def test_probe_cone_function_away_from_arc():
    window = TruncationWindow.plane(12)
    arc = Arc(Direction(1, -1), Direction(1, 1))
    p = Projection.from_region(Cone(arc), window)
    base = laughlin_operator(window)
    bump = CircleFunction({0: 0.5, 1: -0.25, -1: -0.25})  # (1 - cos t) / 2
    f = bump * bump
    report = nontriviality_probe(p, base, [f], [(6, 0), (-6, 0)])
    assert report.is_trivial_suspect(0, "P")
    assert not report.is_trivial_suspect(0, "Pperp")
    # diagonal base: the P-side norm is literally |f| at the probe's angle
    assert report.minimum(0, "P") == pytest.approx(abs(f(1.0)), abs=1e-12)
    assert report.minimum(0, "Pperp") == pytest.approx(abs(f(-1.0)), abs=1e-12)


def test_probe_single_side_minimum_is_none():
    window = TruncationWindow.line(16)
    p = half_line(window)
    base = shift_operator(window, 1)
    report = nontriviality_probe(p, base, [CircleFunction.monomial(1)], [5, 6])
    assert report.minimum(0, "Pperp") is None
    assert report.minimum(0, "P") == pytest.approx(1.0)
    assert report.unreached == ((0, "Pperp"),)
    assert not report.trivial_suspect


def test_probe_reports_a_side_no_probe_reaches():
    # a finite-rank projection onto sites 0..5, probed only outside it:
    # its own side carries no evidence, which is reported, not passed
    window = TruncationWindow.line(16)
    p = Projection.from_region(Explicit(frozenset(range(6))), window)
    base = shift_operator(window, 1)
    report = nontriviality_probe(p, base, [CircleFunction.monomial(1)], [-4, 8, 10])
    assert report.minimum(0, "P") is None
    assert report.unreached == ((0, "P"),)
    assert not report.is_trivial_suspect(0, "P")
    assert report.to_json_dict()["unreached"] == [[0, "P"]]


def test_probe_validation():
    window = TruncationWindow.line(16)
    p = half_line(window)
    base = shift_operator(window, 1)
    f = CircleFunction.monomial(1)
    with pytest.raises(PreconditionError):
        nontriviality_probe(p, base, [], [4])
    with pytest.raises(PreconditionError):
        nontriviality_probe(p, base, [f], [])
    with pytest.raises(PreconditionError):
        nontriviality_probe(p, base, [f], [15])  # inside the boundary buffer


def test_probe_report_serialization():
    window = TruncationWindow.line(16)
    p = half_line(window)
    report = nontriviality_probe(
        p, shift_operator(window, 1), [CircleFunction.monomial(1)], [5, -5]
    )
    blob = report.to_json_dict()
    assert blob["format"] == "nontrivialityreport v2"
    assert len(blob["records"]) == 2
    assert blob["unreached"] == []
    assert blob["compact_floor"] == COMPACT_FLOOR


# ---------------------------------------------------------------------------
# translation invariance


def test_translation_invariance_random_laurent():
    # the periodic shift is a cyclic permutation, so f of it is a circulant
    # and every column norm agrees up to floating-point error
    rng = np.random.default_rng(20240817)
    window = TruncationWindow.line(20)
    coeffs = {
        n: complex(rng.standard_normal(), rng.standard_normal())
        for n in range(-5, 6)
    }
    base = shift_operator(window, 1, "periodic")
    norms = np.linalg.norm(_laurent_apply(CircleFunction(coeffs), base.entries), axis=0)
    assert norms.max() - norms.min() <= 1e-12
