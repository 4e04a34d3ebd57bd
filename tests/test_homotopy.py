"""Operator paths: segments, certification, and the full pipeline."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oplab.homotopy
from oplab.errors import (
    PreconditionError,
    SingularOperatorError,
    StageError,
    UnitarityError,
    WindowMismatchError,
)
from oplab.geometry import Arc, Direction, Explicit
from oplab.homotopy import (
    AffineSegment,
    BlockSample,
    CertifyConfig,
    HomotopyPath,
    PipelineConfig,
    _log_segment,
    _polar_segment,
    block_peel,
    block_unitary_homotopy,
    certify_path,
    conjugation_path,
    log_path,
    polar_path,
    straight_line,
    theorem1_pipeline,
)
from oplab.index import IndexConfig, cut_interface
from oplab.operators import (
    CircleFunction,
    Operator,
    Projection,
    laughlin_operator,
    shift_operator,
    spectral_norm,
)
from oplab.runner import seeded_local_unitary
from oplab.surgery import greedy_isometry
from oplab.windows import TruncationWindow

from conftest import dense_factors, traced_peak

ROOT = Path(__file__).resolve().parents[1]
RIGHT = Arc(Direction(1, -1), Direction(1, 1))
LEFT = Arc(Direction(-1, 1), Direction(-1, -1))


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def local_rotation(window, a, b, angle):
    u = np.eye(window.dimension, dtype=np.complex128)
    i, j = window.index_of(a), window.index_of(b)
    c, s = np.cos(angle), np.sin(angle)
    u[i, i], u[i, j], u[j, i], u[j, j] = c, -s, s, c
    return Operator(window, u)


def finite_range_unitary(window, seed, angle=0.25):
    """Diagonal angular phase composed with disjoint neighbor rotations."""
    rng = np.random.default_rng(seed)
    u = laughlin_operator(window).entries.copy()
    taken = set()
    for site in window.sites:
        nb = (site[0] + 1, site[1])
        if site in taken or nb not in window or nb in taken:
            continue
        if rng.random() < 0.5:
            continue
        taken.update((site, nb))
        i, j = window.index_of(site), window.index_of(nb)
        rot = np.eye(window.dimension, dtype=np.complex128)
        c, s = np.cos(angle), np.sin(angle)
        rot[i, i], rot[i, j], rot[j, i], rot[j, j] = c, -s, s, c
        u = u @ rot
    return Operator(window, u)


# ---------------------------------------------------------------------------
# straight lines


def test_straight_line_endpoints_and_midpoint():
    window = TruncationWindow.plane(3)
    a = laughlin_operator(window)
    b = Operator.identity(window)
    path = straight_line(a, b)
    assert np.allclose(path.at(0.0), a.entries)
    assert np.allclose(path.at(1.0), b.entries)
    assert np.allclose(path.at(0.5), 0.5 * (a.entries + b.entries))


def test_straight_line_constant_when_endpoints_equal():
    window = TruncationWindow.plane(2)
    a = laughlin_operator(window)
    path = straight_line(a, a)
    for t in (0.0, 0.3, 1.0):
        assert np.array_equal(path.at(t), a.entries)


@pytest.mark.parametrize("moved", ["every-entry", "some-rows", "some-columns"])
def test_affine_sample_forms_one_matrix(moved):
    """An affine sample is formed a chunk of rows at a time: its traced
    peak stays near one d x d, and its entries are (1 - t) A + t B bit
    for bit."""
    window = TruncationWindow.plane(10)
    d = window.dimension
    rng = np.random.default_rng(13)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    fresh = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = fresh if moved == "every-entry" else a.copy()
    if moved == "some-rows":
        rows = rng.random(d) < 0.7
        b[rows] = fresh[rows]
    elif moved == "some-columns":
        cols = rng.random(d) < 0.3
        b[:, cols] = fresh[:, cols]
    seg = straight_line(Operator(window, a), Operator(window, b)).segments[0]
    for t in (0.3, 1.0):
        sample, peak = traced_peak(lambda: seg._sample(t))
        # the sample, plus a few temporaries of one chunk (1/32 of it) each
        assert peak < 1.125 * 16 * d * d
        assert np.array_equal(sample.dense(), (1.0 - t) * a + t * b)


def test_affine_segment_decides_once_whether_it_is_constant():
    """Whether B = A is settled when the segment is made, from its kept
    rows or columns against A's; reading it later allocates nothing."""
    window = TruncationWindow.plane(6)
    d = window.dimension
    a = np.random.default_rng(3).standard_normal((d, d)) + 0j
    picked = np.arange(0, d, 2)
    by_rows = AffineSegment("straight_line", window, a, picked, a[picked], picked[:0], a[:, :0])
    by_cols = AffineSegment("straight_line", window, a, picked[:0], a[:0], picked, a[:, picked])
    for seg in (by_rows, by_cols):
        assert seg.is_constant()
        assert np.array_equal(seg.sample(0.5).dense(), a)
    last_moves = np.where(picked[:, None] == d - 1, 2.0, a[picked])
    moved_row = dataclasses.replace(by_rows, row_entries=last_moves)
    moved_col = dataclasses.replace(by_cols, col_entries=a[:, picked] + 1.0)
    assert picked[-1] == d - 1  # the last kept row moves, so every chunk is compared
    for seg in (moved_row, moved_col):
        constant, peak = traced_peak(seg.is_constant)
        assert not constant and peak < 1024  # a compared chunk of rows takes 7 KB
        assert not seg.reversed().is_constant()


def test_straight_line_window_mismatch():
    with pytest.raises(WindowMismatchError):
        straight_line(
            Operator.identity(TruncationWindow.plane(2)),
            Operator.identity(TruncationWindow.plane(3)),
        )


def test_straight_line_small_perturbation_keeps_invertibility():
    window = TruncationWindow.plane(3)
    u = Operator.identity(window)
    rng = np.random.default_rng(7)
    bump = rng.standard_normal((window.dimension, window.dimension))
    bump *= 0.3 / spectral_norm(bump)
    g = Operator(window, u.entries + bump)
    report = certify_path(straight_line(u, g), CertifyConfig(samples=21))
    assert report.min_singular_value >= 1.0 - 0.3 - 1e-12


# ---------------------------------------------------------------------------
# polar paths


def test_polar_path_of_scaled_identity():
    window = TruncationWindow.plane(2)
    g = Operator(window, 2.0 * np.eye(window.dimension, dtype=np.complex128))
    path = polar_path(g)
    for t in (0.0, 0.25, 0.5, 1.0):
        expected = 2.0 ** (1.0 - t) * np.eye(window.dimension)
        assert np.allclose(path.at(t), expected, atol=1e-12)


def test_polar_path_endpoints():
    window = TruncationWindow.plane(3)
    d = window.dimension
    rng = np.random.default_rng(11)
    g_entries = random_unitary(d, 3) @ np.diag(rng.uniform(0.5, 2.0, d)) @ random_unitary(d, 4)
    g = Operator(window, g_entries)
    path = polar_path(g)
    assert spectral_norm(path.at(0.0) - g.entries) <= 1e-9
    end = path.at(1.0)
    assert spectral_norm(end.conj().T @ end - np.eye(d)) <= 1e-10
    smin = float(np.linalg.svd(g_entries, compute_uv=False)[-1])
    report = certify_path(path, CertifyConfig(samples=33))
    assert report.min_singular_value >= min(1.0, smin) - 1e-9


def test_polar_path_fixes_unitaries():
    window = TruncationWindow.plane(2)
    u = laughlin_operator(window)
    path = polar_path(u)
    for t in (0.0, 0.4, 1.0):
        assert np.allclose(path.at(t), u.entries, atol=1e-12)


def test_polar_path_rejects_singular():
    window = TruncationWindow.line(2)
    g = Operator.diagonal(window, np.array([1.0, 1.0, 0.0, 1.0, 1.0]))
    with pytest.raises(SingularOperatorError):
        polar_path(g)


# ---------------------------------------------------------------------------
# block peel


def peelable_operator(window, seed):
    d = window.dimension
    rng = np.random.default_rng(seed)
    pe = np.zeros((d, d))
    picks = rng.choice(d, size=d // 3, replace=False)
    pe[picks, picks] = 1.0
    qe = np.eye(d) - pe
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = pe + pe @ raw @ qe + qe @ raw @ qe
    p = Projection.from_operator(Operator(window, pe.astype(np.complex128)))
    return Operator(window, m), p


def test_block_peel_factors_reproduce():
    window = TruncationWindow.plane(3)
    m, p = peelable_operator(window, 21)
    factors, path = block_peel(m, p)
    product = factors[0].entries @ factors[1].entries
    assert spectral_norm(product - m.entries) <= 1e-10
    assert spectral_norm(path.at(0.0) - factors[0].entries) <= 1e-12
    assert spectral_norm(path.at(1.0) - m.entries) <= 1e-10


def test_block_peel_nilpotent_is_structural():
    window = TruncationWindow.plane(3)
    m, p = peelable_operator(window, 22)
    factors, _ = block_peel(m, p)
    nil = factors[1].entries - np.eye(window.dimension)
    assert not np.any(nil @ nil)  # exactly zero, not just small


def test_block_peel_inverse_identity_exact():
    window = TruncationWindow.plane(3)
    m, p = peelable_operator(window, 23)
    factors, _ = block_peel(m, p)
    d = window.dimension
    nil = factors[1].entries - np.eye(d)
    for t in (0.25, 0.5, 0.875):
        forward = np.eye(d) + t * nil
        backward = np.eye(d) - t * nil
        assert np.array_equal(forward @ backward, np.eye(d))


def test_block_peel_rejects_entangled_operator():
    window = TruncationWindow.plane(3)
    _, p = peelable_operator(window, 24)
    rng = np.random.default_rng(25)
    messy = Operator(window, rng.standard_normal((window.dimension,) * 2))
    with pytest.raises(PreconditionError, match="block form"):
        block_peel(messy, p)


# ---------------------------------------------------------------------------
# log paths


def test_log_path_diagonal_phases():
    window = TruncationWindow.line(2)
    phases = np.array([0.3, -1.2, 0.0, 2.5, -3.0])
    u = Operator.diagonal(window, np.exp(1j * phases))
    path = log_path(u)
    for t in (0.0, 0.5, 1.0):
        expected = np.diag(np.exp(1j * (1.0 - t) * phases))
        assert np.allclose(path.at(t), expected, atol=1e-12)


def test_log_path_of_identity_is_constant():
    window = TruncationWindow.plane(2)
    path = log_path(Operator.identity(window))
    assert np.allclose(path.at(0.37), np.eye(window.dimension), atol=1e-12)


def test_log_path_random_unitary_certifies():
    window = TruncationWindow.plane(3)
    u = Operator(window, random_unitary(window.dimension, 31))
    path = log_path(u)
    report = certify_path(path, CertifyConfig(samples=41))
    assert report.max_unitarity_defect <= 1e-8
    assert report.endpoint_errors[0] <= 1e-9
    assert report.endpoint_errors[1] <= 1e-9


def test_log_path_branch_tie_recorded():
    window = TruncationWindow.line(1)
    diag = np.array([np.exp(1j * (-np.pi + 1e-13)), 1.0, 1.0])
    path = log_path(Operator.diagonal(window, diag))
    assert path.segments[0].label == "branch-ties:1"
    # the tied phase runs down from +pi, not up from -pi
    assert abs(path.at(0.5)[0, 0] - np.exp(1j * np.pi / 2)) < 1e-9


def test_log_path_puts_an_exact_minus_one_at_plus_pi():
    # each -1 is a component of its own; the sign of its zero imaginary
    # part carries no phase, so neither is a tie
    window = TruncationWindow.line(1)
    diag = np.array([complex(-1.0, 0.0), complex(-1.0, -0.0), 1.0])
    path = log_path(Operator.diagonal(window, diag))
    assert path.segments[0].label == ""
    assert np.array_equal(dense_factors(path.segments[0])["exponents"], [1j * np.pi, 1j * np.pi])
    assert np.allclose(np.diag(path.at(0.5)), [1j, 1j, 1.0], atol=1e-15)


def test_log_path_rejects_nonunitary():
    window = TruncationWindow.line(2)
    with pytest.raises(UnitarityError):
        log_path(Operator.diagonal(window, np.array([2.0, 1, 1, 1, 1.0])))


# ---------------------------------------------------------------------------
# conjugation


def test_conjugation_constant_identity_path():
    window = TruncationWindow.line(8)
    q = Projection.from_region(
        Explicit(frozenset(x for x in window.sites if x >= 1)), window
    )
    eye = Operator.identity(window)
    upath = straight_line(eye, eye)
    path = conjugation_path(q, upath)
    for t in (0.0, 0.6, 1.0):
        assert np.allclose(path.at(t), q.entries, atol=1e-14)


def test_conjugation_requires_identity_start():
    window = TruncationWindow.line(4)
    q = Projection.from_operator(Operator.zero(window))
    u = Operator(window, random_unitary(window.dimension, 41))
    with pytest.raises(PreconditionError, match="identity"):
        conjugation_path(q, straight_line(u, u))


def test_conjugation_idempotency_tracks_unitarity():
    window = TruncationWindow.line(6)
    q = Projection.from_region(
        Explicit(frozenset(x for x in window.sites if x >= 0)), window
    )
    u = Operator(window, random_unitary(window.dimension, 43))
    upath = log_path(u).reverse()
    upath_report = certify_path(upath, CertifyConfig(samples=21))
    path = conjugation_path(q, upath)
    report = certify_path(path, CertifyConfig(samples=21))
    assert report.is_projection_path
    assert report.max_idempotency_defect <= upath_report.max_unitarity_defect + 1e-12


def test_conjugation_index_trace_constant():
    window = TruncationWindow.line(16)
    q = Projection.from_region(
        Explicit(frozenset(x for x in window.sites if x >= 1)), window
    )
    mover = local_rotation(window, 5, 6, 0.8)
    upath = log_path(mover).reverse()
    path = conjugation_path(q, upath)
    config = CertifyConfig(
        samples=20,
        index_base=shift_operator(window, 1),
        index_config=IndexConfig(cut_sites=cut_interface(q)),
    )
    report = certify_path(path, config)
    assert report.is_projection_path
    assert report.index_trace == tuple([-1] * 20)
    assert report.max_idempotency_defect <= 1e-8


def test_index_trace_needs_a_projection_path():
    window = TruncationWindow.line(16)
    upath = log_path(local_rotation(window, 0, 1, 0.8))  # starts at the rotation
    config = CertifyConfig(samples=5, index_base=shift_operator(window, 1))
    with pytest.raises(PreconditionError, match="projection path"):
        certify_path(upath, config)
    # without an index base the same path certifies as a unitary path
    report = certify_path(upath, CertifyConfig(samples=5))
    assert not report.is_projection_path
    assert report.index_trace == ()


# ---------------------------------------------------------------------------
# the stacked-isometry move


def blocked_unitary(window, p, seed):
    """Unitary equal to the identity on the range of p, random off it."""
    d = window.dimension
    mask = p.diagonal_mask()
    perp = np.nonzero(~mask)[0]
    ue = np.eye(d, dtype=np.complex128)
    sub = random_unitary(perp.size, seed)
    ue[np.ix_(perp, perp)] = sub
    return Operator(window, ue)


def test_block_unitary_endpoints_exact():
    window = TruncationWindow.plane(3)
    s_region = Explicit(frozenset(window.sites) - {(0, 0)})
    p = Projection.from_region(s_region, window)
    u = blocked_unitary(window, p, 51)
    v_iso = greedy_isometry(s_region, 1, window)
    path = block_unitary_homotopy(u, p, v_iso)
    assert spectral_norm(path.at(0.0) - np.eye(window.dimension)) <= 1e-12
    assert spectral_norm(path.at(1.0) - u.entries) <= 1e-8


def test_block_unitary_unitary_throughout():
    window = TruncationWindow.plane(3)
    s_region = Explicit(frozenset(window.sites) - {(0, 0)})
    p = Projection.from_region(s_region, window)
    u = blocked_unitary(window, p, 52)
    v_iso = greedy_isometry(s_region, 1, window)
    path = block_unitary_homotopy(u, p, v_iso)
    report = certify_path(path, CertifyConfig(samples=50))
    assert report.max_unitarity_defect <= 1e-9


def test_block_unitary_rejects_moving_range():
    window = TruncationWindow.plane(3)
    s_region = Explicit(frozenset(window.sites) - {(0, 0)})
    p = Projection.from_region(s_region, window)
    u = Operator(window, random_unitary(window.dimension, 54))
    v_iso = greedy_isometry(s_region, 1, window)
    with pytest.raises(PreconditionError, match="identity on the projection"):
        block_unitary_homotopy(u, p, v_iso)


def test_block_unitary_rejects_a_nudged_end(monkeypatch):
    """The stacked move's segment has no end check of its own: the path
    that holds it catches an end 2e-8 off, twice the block tolerance,
    made by scaling the first stack's L."""
    build = oplab.homotopy._stacked_segment

    def nudged(*args):
        seg = build(*args)
        first, *rest = seg.stacks
        first = first._replace(left=(1.0 + 2e-8) * first.left)
        return dataclasses.replace(seg, stacks=(first, *rest))

    monkeypatch.setattr(oplab.homotopy, "_stacked_segment", nudged)
    window = TruncationWindow.plane(3)
    s_region = Explicit(frozenset(window.sites) - {(0, 0)})
    p = Projection.from_region(s_region, window)
    u = blocked_unitary(window, p, 57)
    v_iso = greedy_isometry(s_region, 1, window)
    assert spectral_norm(nudged(u, p, v_iso).at(1.0) - u.entries) >= 1e-8
    with pytest.raises(PreconditionError, match="declared endpoints off"):
        block_unitary_homotopy(u, p, v_iso)
    with pytest.raises(StageError, match="stage 'path'"):
        theorem1_pipeline(seeded_local_unitary(TruncationWindow.plane(6), 1), 0.5)


# ---------------------------------------------------------------------------
# path machinery


def test_path_reverse_and_concat():
    window = TruncationWindow.plane(2)
    a = Operator.identity(window)
    b = laughlin_operator(window)
    forward = straight_line(a, b)
    backward = forward.reverse()
    assert np.allclose(backward.at(0.25), forward.at(0.75))
    assert backward.declared_start is forward.declared_end
    ends = BlockSample.whole(a.entries)
    joined = HomotopyPath(forward.segments + backward.segments, ends, ends)
    assert tuple(s.kind for s in joined.segments) == ("straight_line", "straight_line")
    assert np.allclose(joined.at(0.5), b.entries, atol=1e-12)
    assert np.allclose(joined.at(1.0), a.entries, atol=1e-12)


def test_concat_rejects_gap():
    window = TruncationWindow.plane(2)
    a = Operator.identity(window)
    b = laughlin_operator(window)
    with pytest.raises(PreconditionError, match="joint"):
        HomotopyPath(
            straight_line(a, a).segments + straight_line(b, b).segments,
            BlockSample.whole(a.entries),
            BlockSample.whole(b.entries),
        )


def test_path_validates_on_assembly_only(monkeypatch):
    window = TruncationWindow.plane(2)
    a = Operator.identity(window)
    b = laughlin_operator(window)
    start = BlockSample.whole(a.entries)
    with pytest.raises(PreconditionError, match="declared endpoints"):
        HomotopyPath(straight_line(a, b).segments, start, start)
    checks = []
    check = HomotopyPath.__post_init__
    monkeypatch.setattr(
        HomotopyPath, "__post_init__", lambda path: checks.append(1) or check(path)
    )
    line, polar = straight_line(a, b), polar_path(b)
    forward = HomotopyPath(line.segments + polar.segments, start, polar.declared_end)
    assert len(checks) == 3
    backward = forward.reverse()  # mirrors checked closed forms: no re-check
    assert len(checks) == 3
    assert np.array_equal(backward.at(1.0), forward.at(0.0))
    theorem1_pipeline(finite_range_unitary(TruncationWindow.plane(6), 5), 0.5)
    assert len(checks) == 4  # the pipeline assembles its path once


def test_sample_range_validation():
    window = TruncationWindow.plane(2)
    path = straight_line(Operator.identity(window), Operator.identity(window))
    with pytest.raises(PreconditionError):
        path.at(1.2)
    with pytest.raises(PreconditionError):
        path.at(-0.1)


def test_segment_kind_validation():
    window = TruncationWindow.plane(2)
    with pytest.raises(PreconditionError):
        AffineSegment.between("wiggle", window, np.eye(1), np.eye(1))


# ---------------------------------------------------------------------------
# certification details


def test_certify_locality_defect_detects_cross_cone_hop():
    window = TruncationWindow.plane(6)
    d = window.dimension
    entries = np.eye(d, dtype=np.complex128)
    src = window.index_of((5, 0))
    dst = window.index_of((-5, 0))
    entries[dst, src] = 0.25
    op = Operator(window, entries)
    path = straight_line(op, op)
    config = CertifyConfig(samples=5, arc_pairs=((LEFT, RIGHT),), allowance_radius=4)
    report = certify_path(path, config)
    assert report.max_locality_defect == pytest.approx(0.25)
    inside = CertifyConfig(samples=5, arc_pairs=((LEFT, RIGHT),), allowance_radius=6)
    assert certify_path(path, inside).max_locality_defect == 0.0


def test_certify_diagonal_path_has_no_locality_defect():
    window = TruncationWindow.plane(5)
    u = laughlin_operator(window)
    path = straight_line(u, Operator.identity(window))
    config = CertifyConfig(samples=7, arc_pairs=((LEFT, RIGHT), (RIGHT, LEFT)))
    assert certify_path(path, config).max_locality_defect == 0.0


def test_certify_config_validation():
    with pytest.raises(PreconditionError):
        CertifyConfig(samples=1)
    overlap = Arc(Direction(1, -1), Direction(-1, 1))
    with pytest.raises(PreconditionError, match="disjoint"):
        CertifyConfig(arc_pairs=((overlap, RIGHT),))


def test_certify_doubled_samples_consistent():
    window = TruncationWindow.plane(3)
    u = Operator(window, random_unitary(window.dimension, 61))
    path = log_path(u)
    once = certify_path(path, CertifyConfig(samples=25))
    twice = certify_path(path, CertifyConfig(samples=49))
    assert abs(once.max_unitarity_defect - twice.max_unitarity_defect) <= 1e-10
    assert once.endpoint_errors == twice.endpoint_errors
    assert once.max_locality_defect == twice.max_locality_defect == 0.0


def test_certify_evaluates_each_sample_once(monkeypatch):
    window = TruncationWindow.plane(2)
    u = laughlin_operator(window)
    line = straight_line(u, Operator(window, u.entries @ u.entries))
    constant = straight_line(u, u)
    calls = []
    sample = AffineSegment._sample

    def formed(seg, t):
        out = sample(seg, t)
        if out.block.flags.writeable:  # a read-only view of A is not formed
            calls.append(t)
        return out

    monkeypatch.setattr(AffineSegment, "_sample", formed)
    report = certify_path(line, CertifyConfig(samples=10))
    # the Gram spectrum comes from the segment's terms, so only the first
    # sample (the projection test) and the last (the endpoint error) are formed
    assert calls == [0.0, 1.0]
    assert not report.is_projection_path
    assert report.segment_stats[0]["dense_samples"] == 10
    assert {row[-1] for row in report.series} == {"dense"}
    # a constant segment is measured once, on its start
    calls.clear()
    report = certify_path(constant, CertifyConfig(samples=10))
    assert calls == []  # its first and last samples are A itself
    assert report.segment_stats[0]["dense_samples"] == 1
    assert len({row[1:] for row in report.series}) == 1


def test_certificate_serialization_roundtrip():
    window = TruncationWindow.plane(2)
    path = straight_line(Operator.identity(window), Operator.identity(window))
    report = certify_path(path, CertifyConfig(samples=5))
    blob = report.to_json_dict()
    assert blob["format"] == "certificate v1"
    assert len(blob["series"]) == 5
    rows = list(report.csv_rows())
    assert rows[0].startswith("t,unitarity_defect")
    assert rows[0].endswith(",index,measure")
    assert all(row.endswith(",dense") for row in rows[1:])
    assert len(rows) == 6
    assert report.segment_stats[0]["kind"] == "straight_line"
    assert report.segment_stats[0]["samples"] == 5


# ---------------------------------------------------------------------------
# the full pipeline


def test_pipeline_identity_is_near_constant():
    window = TruncationWindow.plane(6)
    path, report = theorem1_pipeline(Operator.identity(window), 0.5)
    eye = np.eye(window.dimension)
    for t in np.linspace(0.0, 1.0, 13):
        assert spectral_norm(path.at(float(t)) - eye) <= 1e-9
    assert report.max_unitarity_defect <= 1e-9
    assert max(report.endpoint_errors) <= 1e-9


def test_pipeline_diagonal_phase_unitary():
    window = TruncationWindow.plane(6)
    phases = np.diag(laughlin_operator(window).entries)
    u = Operator.diagonal(window, CircleFunction.monomial(1)(phases))
    path, report = theorem1_pipeline(u, 0.5)
    assert max(report.endpoint_errors) <= 1e-8
    assert spectral_norm(path.at(0.0) - u.entries) <= 1e-9
    assert spectral_norm(path.at(1.0) - np.eye(window.dimension)) <= 1e-9
    assert report.max_unitarity_defect <= 1e-6


def test_pipeline_finite_range_unitary_certifies():
    window = TruncationWindow.plane(8)
    u = finite_range_unitary(window, 71)
    config = PipelineConfig(certify=CertifyConfig(samples=100))
    path, report = theorem1_pipeline(u, 0.5, config)
    assert max(report.endpoint_errors) <= 1e-8
    assert report.max_unitarity_defect <= 1e-6
    assert tuple(s.kind for s in path.segments) == (
        "straight_line",
        "log",
        "straight_line",
        "block_peel",
        "polar",
        "block_unitary",
    )
    # every sample away from the polar climb stays solidly invertible
    for stats in report.segment_stats:
        if stats["samples"]:
            assert stats["min_singular_value"] >= 0.4


def test_pipeline_certifies_a_tailed_unitary(tailed_pipeline):
    u, path, report, _ = tailed_pipeline
    assert np.all(u.entries != 0)
    assert max(report.endpoint_errors) <= 1e-8
    polar = [s["kind"] for s in report.segment_stats].index("polar")
    for stats in report.segment_stats[:polar]:
        if stats["samples"]:
            assert stats["min_singular_value"] >= 0.5
    # the first segment runs from u to the surgically deformed g
    g = path.segments[0].at(1.0)
    assert 0.0 < spectral_norm(u.entries - g) < 0.5
    # the rotation, the polar climb and the stacked move are bounded from
    # their factors, and each bound holds at its densely measured ends
    bounded = [s["kind"] for s in report.segment_stats if s["max_bound_excess"] is not None]
    assert bounded == ["log", "polar", "block_unitary"]
    assert all(s["max_bound_excess"] <= 1e-12 for s in report.segment_stats if s["kind"] in bounded)


def test_pipeline_input_validation():
    window = TruncationWindow.plane(4)
    u = laughlin_operator(window)
    with pytest.raises(PreconditionError):
        theorem1_pipeline(u, 1.0)
    with pytest.raises(UnitarityError):
        theorem1_pipeline(Operator(window, 2.0 * np.eye(window.dimension)), 0.5)
    with pytest.raises(PreconditionError):
        theorem1_pipeline(shift_operator(TruncationWindow.line(4), 1), 0.5)


def test_pipeline_stage_errors_are_named():
    # a dense unitary leaks mass at every radius, so no confinement
    # budget this small can be met and the first stage must exhaust
    window = TruncationWindow.plane(4)
    u = Operator(window, random_unitary(window.dimension, 73))
    with pytest.raises(StageError) as err:
        theorem1_pipeline(u, 1e-9)
    assert err.value.stage == "localized-centers"


# ---------------------------------------------------------------------------
# memory: segments keep per-component stacks, never d x d factors


def paired_unitary(window, fixed, seed):
    """Identity on the site ``fixed``; seeded 2 x 2 unitaries on the other
    sites, taken in pairs in basis order (a plane window has an odd
    number of sites)."""
    d = window.dimension
    u = np.eye(d, dtype=np.complex128)
    rest = np.delete(np.arange(d), window.index_of(fixed))
    for k, pair in enumerate(rest.reshape(-1, 2)):
        u[np.ix_(pair, pair)] = random_unitary(2, seed + k)
    return Operator(window, u)


def held_bytes(seg):
    """The bytes of the arrays a spectral segment keeps."""
    arrays = [seg.exponents] + [x for st in seg.stacks for x in st if x is not None]
    return sum(x.nbytes for x in arrays)


def test_stacked_move_forms_no_stacked_array():
    window = TruncationWindow.plane(20)
    d = window.dimension
    centers = Explicit(frozenset({(0, 0)}))
    u = paired_unitary(window, (0, 0), 5)
    p = Projection.from_region(centers, window)
    v_iso = greedy_isometry(centers, 1, window, require_ray_dense=False)
    path, peak = traced_peak(lambda: block_unitary_homotopy(u, p, v_iso))
    assert peak < 16 * (2 * d) ** 2  # one (2d) x (2d) complex array
    assert spectral_norm(path.at(1.0) - u.entries) <= 1e-12


def test_segments_hold_no_dense_factor():
    window = TruncationWindow.plane(20)
    d = window.dimension
    u = paired_unitary(window, (0, 0), 6)
    g = Operator(window, u.entries * (1.0 + 0.5 * np.arange(d) / d)[None, :])
    segments = {
        "polar": _polar_segment(g),
        "log": _log_segment(window, u.entries, [range(d)]),
        "log-right": _log_segment(window, u.entries, [range(d)], right=g.entries),
    }
    for name, seg in segments.items():
        assert held_bytes(seg) < 16 * d * d / 20, name
        assert max(part.size for part in seg.components()) == 2, name


def test_pipeline_peaks_below_sixteen_dense_arrays():
    window = TruncationWindow.plane(16)
    d = window.dimension
    u = seeded_local_unitary(window, 3)
    (_, report), peak = traced_peak(lambda: theorem1_pipeline(u, 0.5))
    assert max(report.endpoint_errors) <= 1e-8
    assert peak < 16 * (16 * d * d)  # sixteen d x d complex arrays


def test_theorem2_path_peaks_below_two_dense_arrays():
    """Building and certifying a theorem2 path with a given dense mover
    keeps every sample and check on the moving block: what remains is
    one whole-window sample of the log path at each of its two end
    checks, into which the check writes its difference (at radius 256,
    about one d x d complex array; six before the checks moved to
    blocks)."""
    window = TruncationWindow.line(256)
    d = window.dimension
    q = Projection.from_region(Explicit(frozenset(x for x in window.sites if x >= 1)), window)
    mover = local_rotation(window, 85, 86, 0.7)
    config = CertifyConfig(
        samples=50,
        index_base=shift_operator(window, 1),
        index_config=IndexConfig(cut_sites=cut_interface(q)),
    )
    report, peak = traced_peak(
        lambda: certify_path(conjugation_path(q, log_path(mover).reverse()), config)
    )
    assert report.index_trace == (-1,) * 50
    assert max(report.endpoint_errors) <= 1e-12
    assert peak < 2 * 16 * d * d


def test_conjugation_block_is_cut_from_the_block_sample():
    """A conjugation path's block is cut from its block sample on the
    moving sites, entry for entry the dense sample's, with no d x d
    array formed (a cut from the dense sample peaks at 1.12 d x d
    complex arrays at radius 256)."""
    window = TruncationWindow.line(256)
    d = window.dimension
    q = Projection.from_region(Explicit(frozenset(x for x in window.sites if x >= 1)), window)
    path = conjugation_path(q, log_path(local_rotation(window, 85, 86, 0.7)).reverse())
    moving = path.segments[0].q.sites
    rng = np.random.default_rng(6)
    rest = np.setdiff1d(np.arange(d), moving)
    rows, cols = (np.union1d(moving, rng.choice(rest, 58, replace=False)) for _ in range(2))
    assert rows.size == cols.size == 60
    block, peak = traced_peak(lambda: path.block(0.4, rows, cols))
    assert np.array_equal(block, path.segments[0].sample(0.4).dense()[np.ix_(rows, cols)])
    assert np.any(block[np.ix_(np.isin(rows, moving), np.isin(cols, moving))] != 0)
    assert peak < 0.1 * 16 * d * d


def test_import_leaves_scipy_unloaded(tmp_path):
    """``import oplab`` loads no scipy; the one Schur decomposition, of a
    rotation that turns two sites together, loads it when first used."""
    code = """
import sys
import numpy as np
import oplab
from oplab.homotopy import log_path
from oplab.operators import Operator
from oplab.windows import TruncationWindow

assert "scipy" not in sys.modules, sorted(name for name in sys.modules if "scipy" in name)
window = TruncationWindow.line(4)
u = np.eye(window.dimension, dtype=np.complex128)
c, s = np.cos(0.7), np.sin(0.7)
u[np.ix_([5, 6], [5, 6])] = [[c, -s], [s, c]]
path = log_path(Operator(window, u))
assert np.abs(path.at(0.0) - u).max() <= 1e-12
assert np.abs(path.at(1.0) - np.eye(window.dimension)).max() <= 1e-12
assert "scipy.linalg" in sys.modules
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr[-2000:]
