"""End-to-end acceptance gate: one test per shipped guarantee.

Each test exercises a headline capability at its stated tolerance and
prints a single [PASS] line with the measured numbers (run with -s to
see them).  Criterion 7 drives five full desk-scale pipelines and
dominates the runtime of this module.
"""

import json
import time
from fractions import Fraction

import numpy as np

from oplab.cli import main
from oplab.geometry import (
    ORIGIN,
    Arc,
    Cone,
    Direction,
    Explicit,
    arcs_disjoint,
    direction_of,
)
from oplab.homotopy import (
    CertifyConfig,
    PipelineConfig,
    block_unitary_homotopy,
    certify_path,
    conjugation_path,
    log_path,
    theorem1_pipeline,
)
from oplab.index import (
    IndexConfig,
    cut_interface,
    fredholm_index,
    index_k_projection,
    nontriviality_probe,
    projection_index,
)
from oplab.operators import (
    CircleFunction,
    Operator,
    Projection,
    laughlin_operator,
    shift_operator,
    spectral_norm,
)
from oplab.reports import emit_plots
from oplab.runner import DEFAULT_ARC_PAIR, seeded_local_unitary
from oplab.surgery import (
    ProjectionPair,
    corrective_unitary,
    deletion_series,
    greedy_isometry,
    localized_centers,
    mixing_indices,
)
from oplab.windows import TruncationWindow

from conftest import greedy_operator


def half_line_projection(window):
    region = Explicit(frozenset(x for x in window.sites if x >= 1))
    return Projection.from_region(region, window)


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def blocked_unitary(window, p, seed):
    """Unitary equal to the identity on the range of p, random off it."""
    d = window.dimension
    perp = np.nonzero(~p.diagonal_mask())[0]
    ue = np.eye(d, dtype=np.complex128)
    ue[np.ix_(perp, perp)] = random_unitary(perp.size, seed)
    return Operator(window, ue)


def local_rotation(window, a, b, angle):
    """Plane rotation mixing the basis vectors at sites a and b."""
    ue = np.eye(window.dimension, dtype=np.complex128)
    i, j = window.index_of(a), window.index_of(b)
    c, s = np.cos(angle), np.sin(angle)
    ue[i, i] = c
    ue[j, j] = c
    ue[i, j] = -s
    ue[j, i] = s
    return Operator(window, ue)


def seeded_ray_dense_region(window, seed):
    """Random subset of the window holding at least one site per ray."""
    rng = np.random.default_rng(seed)
    by_dir = {}
    for s in window.sites:
        if s != ORIGIN:
            by_dir.setdefault(direction_of(s), []).append(s)
    keep = {ORIGIN}
    for _, group in sorted(by_dir.items(), key=lambda kv: kv[0].angle_key()):
        group = sorted(group)
        keep.add(group[rng.integers(len(group))])
        for s in group:
            if rng.random() < 0.5:
                keep.add(s)
    return Explicit(frozenset(keep))


# ---------------------------------------------------------------------------
# 1. compressed shift


def test_criterion_01_compressed_shift_index():
    t0 = time.perf_counter()
    window = TruncationWindow.line(16)
    lam = half_line_projection(window)
    shift = shift_operator(window, 1, "open")
    eye = np.eye(window.dimension)
    compressed = Operator(
        window, lam.entries @ shift.entries @ lam.entries + (eye - lam.entries)
    )
    config = IndexConfig(cut_sites=cut_interface(lam))
    by_kernel = fredholm_index(compressed, "kernel_count", config)
    by_trace = fredholm_index(compressed, "trace_formula", config)
    elapsed = time.perf_counter() - t0
    assert by_kernel.value == -1 and isinstance(by_kernel.value, int)
    assert by_trace.value == -1 and isinstance(by_trace.value, int)
    assert elapsed < 1.0
    print(
        f"\n[PASS] criterion 1: compressed half-line shift has index -1 by "
        f"kernel counting and by the trace formula ({elapsed:.3f}s)"
    )


# ---------------------------------------------------------------------------
# 2. every integer is an index


def test_criterion_02_index_surjectivity_sweep():
    t0 = time.perf_counter()
    window = TruncationWindow.line(32)
    values = {}
    for k in range(-3, 4):
        base, proj = index_k_projection(k, window)
        result = projection_index(proj, base)
        assert isinstance(result.value, int)
        values[k] = result.value
    elapsed = time.perf_counter() - t0
    assert values == {k: k for k in range(-3, 4)}
    assert elapsed < 10.0
    print(
        f"\n[PASS] criterion 2: factory projections hit every index in "
        f"-3..3 exactly ({elapsed:.3f}s)"
    )


# ---------------------------------------------------------------------------
# 3. complement flips the sign


def test_criterion_03_complement_negates_index():
    window = TruncationWindow.line(32)
    for k in range(-3, 4):
        base, proj = index_k_projection(k, window)
        direct = projection_index(proj, base)
        flipped = projection_index(proj.perp(), base)
        assert isinstance(direct.value, int) and isinstance(flipped.value, int)
        assert flipped.value == -direct.value == -k
    print(
        "\n[PASS] criterion 3: complement projection negates the index for "
        "every factory output in -3..3"
    )


# ---------------------------------------------------------------------------
# 4. deletion series


def test_criterion_04_deletion_series_budgets():
    t0 = time.perf_counter()
    window = TruncationWindow.line(100)
    dim = window.dimension
    rng = np.random.default_rng(42)
    entries = (
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    ) / np.sqrt(dim)

    eps = 0.5
    blocks = []
    for k in range(1, 11):
        rows = frozenset(range(-100 + 10 * (k - 1), -100 + 10 * k))
        cols = frozenset(range(100 - 10 * k + 1, 100 - 10 * (k - 1) + 1))
        sel = np.ix_(
            [window.index_of(x) for x in rows], [window.index_of(x) for x in cols]
        )
        budget = eps / 2.0 ** (2 * k - 1)
        entries[sel] *= 0.8 * budget / np.linalg.norm(entries[sel], 2)
        blocks.append((rows, cols))

    a = Operator(window, entries)
    pairs = [
        ProjectionPair.for_operator(
            Projection.from_region(Explicit(rows), window),
            Projection.from_region(Explicit(cols), window),
            a,
        )
        for rows, cols in blocks
    ]
    b = deletion_series(a, pairs, eps)
    worst = max(
        spectral_norm(pair.p.entries @ b.entries @ pair.q.entries) for pair in pairs
    )
    moved = spectral_norm(a.entries - b.entries)
    assert worst <= 1e-12
    assert moved <= eps

    # overlapping two-pair run against the additive series bound
    entries2 = (
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    ) / np.sqrt(dim)
    two = (
        (frozenset(range(-50, 1)), frozenset(range(-50, 1)), 0.8 * eps / 2),
        (frozenset(range(-10, 41)), frozenset(range(-10, 41)), 0.8 * eps / 8),
    )
    for rows, cols, scale in two:
        sel = np.ix_(
            [window.index_of(x) for x in rows], [window.index_of(x) for x in cols]
        )
        entries2[sel] *= scale / np.linalg.norm(entries2[sel], 2)
    a2 = Operator(window, entries2)
    pair1, pair2 = (
        ProjectionPair.for_operator(
            Projection.from_region(Explicit(rows), window),
            Projection.from_region(Explicit(cols), window),
            a2,
        )
        for rows, cols, _ in two
    )
    b2 = deletion_series(a2, [pair1, pair2], eps)
    series_norm = spectral_norm(a2.entries - b2.entries)
    bound = pair1.bound + 2 * pair2.bound
    slack = bound - series_norm
    elapsed = time.perf_counter() - t0
    assert series_norm <= bound
    assert elapsed < 5.0
    print(
        f"\n[PASS] criterion 4: ten-pair deletion leaves residual {worst:.1e} "
        f"moving {moved:.3f} <= {eps}; two-pair series {series_norm:.4f} <= "
        f"{bound:.4f} (slack {slack:.4f}) ({elapsed:.2f}s)"
    )


# ---------------------------------------------------------------------------
# 5. localized centers


CONE_PAIRS = (
    (Arc(Direction(1, -1), Direction(1, 1)), Arc(Direction(-1, 1), Direction(-1, -1))),
    (Arc(Direction(1, 1), Direction(-1, 1)), Arc(Direction(-1, -1), Direction(1, -1))),
    (Arc(Direction(2, -1), Direction(2, 1)), Arc(Direction(1, 2), Direction(-1, 2))),
)

FOUR_DIRECTIONS = (
    Direction(1, 0),
    Direction(0, 1),
    Direction(-1, 0),
    Direction(0, -1),
)


def test_criterion_05_localized_centers_recomputed():
    t0 = time.perf_counter()
    window = TruncationWindow.plane(20)
    for seed in (3, 11):
        u = seeded_local_unitary(window, seed=seed)
        b, plan = localized_centers(u, FOUR_DIRECTIONS, 0.5)

        # ranges recomputed from the deformed operator itself
        for k, center in enumerate(plan.centers):
            col = b.entries[:, window.index_of(center)]
            support = {window.sites[i] for i in np.flatnonzero(col)} | {center}
            assert support == set(plan.ranges[k])
            assert len(support) < window.dimension  # finite, strictly local
        for i in range(len(plan.ranges)):
            for j in range(i + 1, len(plan.ranges)):
                assert not (plan.ranges[i] & plan.ranges[j])
        # each range sits inside its own shell (balls are open)
        for k, y in enumerate(plan.ranges):
            outer, inner = plan.radii[k], plan.inner_radius(k)
            for s in y:
                n2 = Fraction(s[0] * s[0] + s[1] * s[1])
                assert inner * inner <= n2 < outer * outer

        for left, right in CONE_PAIRS:
            assert arcs_disjoint(left, right)
            mixing = mixing_indices(plan, left, right)
            assert all(k <= 1 for k in mixing)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"\n[PASS] criterion 5: localized centers verified by direct "
        f"recomputation on two radius-20 seeds; cross-cone mixing confined "
        f"to the innermost shells for three disjoint cone pairs ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# 6. corrective unitary


def test_criterion_06_corrective_unitary_structure():
    window = TruncationWindow.plane(20)
    u = seeded_local_unitary(window, seed=3)
    b, plan = localized_centers(u, FOUR_DIRECTIONS, 0.5)
    v = corrective_unitary(b, plan)

    gram_defect = spectral_norm(
        v.entries.conj().T @ v.entries - np.eye(window.dimension)
    )
    assert gram_defect <= 1e-10

    union = set().union(*plan.ranges)
    outside = [window.index_of(s) for s in window.sites if s not in union]
    eye = np.eye(window.dimension, dtype=np.complex128)
    assert np.array_equal(v.entries[outside, :], eye[outside, :])
    assert np.array_equal(v.entries[:, outside], eye[:, outside])

    centers_idx = [window.index_of(c) for c in plan.centers]
    vb = v.entries @ b.entries
    sel = np.ix_(centers_idx, centers_idx)
    masked = np.zeros_like(vb)
    masked[sel] = vb[sel]
    diag = np.zeros_like(vb)
    for c in plan.centers:
        i = window.index_of(c)
        diag[i, i] = np.linalg.norm(b.entries[:, i])
    residual = spectral_norm(masked - diag)
    assert residual <= 1e-10
    print(
        f"\n[PASS] criterion 6: corrective unitary has gram defect "
        f"{gram_defect:.1e}, is exactly the identity outside the ranges, and "
        f"matches the diagonal of column norms to {residual:.1e}"
    )


# ---------------------------------------------------------------------------
# 7. full pipeline at desk scale


def test_criterion_07_pipeline_five_seeds(tmp_path):
    t0 = time.perf_counter()
    window = TruncationWindow.plane(20)
    certify = CertifyConfig(
        samples=100, arc_pairs=(DEFAULT_ARC_PAIR,), allowance_radius=6
    )
    config = PipelineConfig(certify=certify)
    summaries = []
    for seed in (3, 7, 11, 19, 23):
        u = seeded_local_unitary(window, seed=seed)
        path, report = theorem1_pipeline(u, 0.25, config)

        assert report.samples >= 100
        assert max(report.endpoint_errors) <= 1e-8
        assert report.max_unitarity_defect <= 1e-6
        kinds = [s["kind"] for s in report.segment_stats]
        polar_at = kinds.index("polar")
        for stats in report.segment_stats[:polar_at]:
            assert stats["min_singular_value"] >= 0.5

        out = tmp_path / f"seed{seed}"
        out.mkdir()
        files = emit_plots(report, out)
        names = {f.name for f in files}
        assert "certificate_locality_defect.svg" in names
        segments_csv = (out / "certificate_segments.csv").read_text()
        header = segments_csv.splitlines()[0].split(",")
        assert "max_locality_defect" in header
        assert len(segments_csv.strip().splitlines()) == len(kinds) + 1

        summaries.append(
            (seed, max(report.endpoint_errors), report.max_unitarity_defect)
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    worst_end = max(s[1] for s in summaries)
    worst_unit = max(s[2] for s in summaries)
    print(
        f"\n[PASS] criterion 7: five radius-20 pipelines certified at 100 "
        f"samples; worst endpoint error {worst_end:.1e}, worst unitarity "
        f"defect {worst_unit:.1e}, pre-polar singular values >= 0.5, "
        f"locality profiles emitted ({elapsed:.0f}s)"
    )


# ---------------------------------------------------------------------------
# 8. conjugation keeps the index


def test_criterion_08_conjugation_index_trace():
    window = TruncationWindow.line(16)
    base, proj = index_k_projection(-1, window)
    mover = local_rotation(window, 5, 6, 0.8)
    path = conjugation_path(proj, log_path(mover).reverse())
    report = certify_path(
        path,
        CertifyConfig(
            samples=20,
            index_base=base,
            index_config=IndexConfig(cut_sites=cut_interface(proj)),
        ),
    )
    assert report.is_projection_path
    assert report.index_trace == tuple([-1] * 20)
    assert all(isinstance(v, int) for v in report.index_trace)
    assert report.max_idempotency_defect <= 1e-8
    print(
        f"\n[PASS] criterion 8: conjugated projection keeps index -1 at all "
        f"20 samples with idempotency defect "
        f"{report.max_idempotency_defect:.1e}"
    )


# ---------------------------------------------------------------------------
# 9. non-triviality probe


def test_criterion_09_nontriviality_probe():
    window = TruncationWindow.line(32)
    lam = half_line_projection(window)
    report = nontriviality_probe(
        lam,
        shift_operator(window, 1, "open"),
        (CircleFunction.monomial(1),),
        (16, -16),
    )
    minima = {side: value for _, side, value in report.minima}
    assert minima["P"] >= 0.9
    assert minima["Pperp"] >= 0.9
    assert not report.trivial_suspect

    plane = TruncationWindow.plane(16)
    arc = Arc(Direction(1, -1), Direction(1, 1))
    cone_proj = Projection.from_region(Cone(arc), plane)
    off_cone = CircleFunction({0: 0.5, 1: -0.25, -1: -0.25})
    probes = ((8, 0), (0, 8))
    first = nontriviality_probe(cone_proj, laughlin_operator(plane), (off_cone,), probes)
    second = nontriviality_probe(cone_proj, laughlin_operator(plane), (off_cone,), probes)
    assert first.is_trivial_suspect(0, "P")
    assert first.to_json_dict() == second.to_json_dict()
    print(
        f"\n[PASS] criterion 9: half-line probe minima "
        f"({minima['P']:.2f}, {minima['Pperp']:.2f}) >= 0.9; off-cone "
        f"function flagged trivial-suspect, reports identical across reruns"
    )


# ---------------------------------------------------------------------------
# 10. stacked block move


def test_criterion_10_block_unitary_endpoints():
    window = TruncationWindow.plane(3)
    region = Explicit(frozenset(window.sites) - {ORIGIN})
    proj = Projection.from_region(region, window)
    u = blocked_unitary(window, proj, 51)
    v_iso = greedy_isometry(region, 1, window)
    path = block_unitary_homotopy(u, proj, v_iso)
    start_gap = spectral_norm(path.at(0.0) - np.eye(window.dimension))
    end_gap = spectral_norm(path.at(1.0) - u.entries)
    report = certify_path(path, CertifyConfig(samples=50))
    assert start_gap <= 1e-8
    assert end_gap <= 1e-8
    assert report.max_unitarity_defect <= 1e-9
    print(
        f"\n[PASS] criterion 10: stacked block move runs from the identity "
        f"(gap {start_gap:.1e}) to the target (gap {end_gap:.1e}) with "
        f"unitarity defect {report.max_unitarity_defect:.1e}"
    )


# ---------------------------------------------------------------------------
# 11. greedy matching


def test_criterion_11_greedy_isometry_exactness():
    window = TruncationWindow.plane(5)
    region = seeded_ray_dense_region(window, seed=2026)
    region_set = set(region.sites)
    for n in (1, 2):
        out = greedy_isometry(region, n, window)
        amp = out.window
        v = greedy_operator(out)
        matched = np.zeros(amp.dimension)
        for m in out.matches:
            matched[amp.index_of(m.stack, m.source)] = 1.0
        support = np.zeros(amp.dimension)
        for s in region_set:
            support[amp.index_of(0, s)] = 1.0
        for stack in range(1, n + 1):
            for s in window.sites:
                support[amp.index_of(stack, s)] = 1.0
        used = np.zeros(amp.dimension)
        for m in out.matches:
            assert m.target in region_set
            used[amp.index_of(0, m.target)] = 1.0

        # exact 0/1 algebra, no tolerances anywhere
        assert np.array_equal(v.conj().T @ v, np.diag(matched))
        assert np.array_equal(v @ v.conj().T, np.diag(used))
        assert np.all(matched <= support)

        again = greedy_isometry(region, n, window)
        assert again.matches == out.matches
        assert again.unmatched == out.unmatched
    print(
        "\n[PASS] criterion 11: greedy matching is an exact 0/1 partial "
        "isometry onto the seeded ray-dense region for one and two extra "
        "copies, deterministic across reruns"
    )


# ---------------------------------------------------------------------------
# 12. run determinism


def test_criterion_12_run_determinism(tmp_path, capsys):
    config = {
        "experiment": "index-sweep",
        "representation": "Z",
        "radius": 12,
        "seed": 9,
        "out_dir": str(tmp_path / "out1"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    rc1 = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out1")])
    rc2 = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out2")])
    capsys.readouterr()
    assert rc1 == 0 and rc2 == 0
    first = json.loads((tmp_path / "out1" / "manifest.json").read_text())
    second = json.loads((tmp_path / "out2" / "manifest.json").read_text())
    hashes1 = {f["path"]: f["sha256"] for f in first["files"]}
    hashes2 = {f["path"]: f["sha256"] for f in second["files"]}
    assert hashes1 == hashes2
    assert len(hashes1) >= 4
    print(
        f"\n[PASS] criterion 12: repeated run with identical config and seed "
        f"reproduced identical hashes for all {len(hashes1)} emitted files"
    )
