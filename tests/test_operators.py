"""Operator layer: model unitaries, projections, circle functions, polar."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from oplab.errors import (
    PreconditionError,
    RepresentationError,
    SingularOperatorError,
    WindowMismatchError,
)
from oplab.geometry import Arc, Ball, Cone, Direction, region_mask
from oplab.homotopy import polar_path
from oplab.operators import (
    CircleFunction,
    Operator,
    Projection,
    _laurent_apply,
    laughlin_operator,
    shift_operator,
    spectral_norm,
)
from oplab.windows import TruncationWindow

from conftest import traced_peak
from test_block_oracles import assert_same_nonzero, dense_nonzero


# ---------------------------------------------------------------------------
# Operator basics


def test_operator_entries_are_immutable():
    w = TruncationWindow.line(2)
    op = Operator.identity(w)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0


def test_operator_shape_must_match_window():
    w = TruncationWindow.line(2)
    with pytest.raises(ValueError):
        Operator(w, np.zeros((3, 3), dtype=complex))


def test_window_mismatch_raises():
    a = Operator.identity(TruncationWindow.line(2))
    b = Operator.identity(TruncationWindow.line(3))
    with pytest.raises(WindowMismatchError):
        _ = a @ b
    with pytest.raises(WindowMismatchError):
        _ = a + b


def test_algebra_against_numpy():
    rng = np.random.default_rng(7)
    w = TruncationWindow.line(3)
    d = w.dimension
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    y = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a, b = Operator(w, x), Operator(w, y)
    assert np.array_equal((a @ b).entries, x @ y)
    assert np.array_equal((a + b).entries, x + y)
    assert np.array_equal((a - b).entries, x - y)
    assert np.array_equal((2j * a).entries, 2j * x)
    assert np.array_equal(a.adjoint().entries, x.conj().T)


def test_unitarity_defect_values():
    w = TruncationWindow.line(4)
    assert Operator.identity(w).unitarity_defect() == 0.0
    # (2I)*(2I) = 4I, so the defect is exactly 3
    assert abs((2.0 * Operator.identity(w)).unitarity_defect() - 3.0) < 1e-12


def test_spectral_norm_of_zero_block():
    assert spectral_norm(np.zeros((4, 4), dtype=complex)) == 0.0
    assert spectral_norm(np.zeros((0, 3), dtype=complex)) == 0.0


# ---------------------------------------------------------------------------
# model unitaries


def test_angular_phase_entries_against_cmath():
    w = TruncationWindow.plane(2)
    op = laughlin_operator(w)
    diag = np.diag(op.entries)
    assert np.array_equal(op.entries, np.diag(diag))
    for i, site in enumerate(w.sites):
        if site == (0, 0):
            expected = 1.0
        else:
            z = complex(site[0], site[1])
            expected = z / abs(z)
        assert cmath.isclose(diag[i], expected, abs_tol=1e-15)
    assert op.unitarity_defect() < 1e-15


def test_angular_phase_frozen_prefix():
    # canonical order: origin, then radius-1 ring swept counterclockwise
    w = TruncationWindow.plane(2)
    diag = np.diag(laughlin_operator(w).entries)
    s = 1.0 / math.sqrt(2.0)
    expected = [1, 1, 1j, -1, -1j, s + s * 1j, -s + s * 1j, -s - s * 1j, s - s * 1j]
    assert np.allclose(diag[:9], expected, atol=1e-15)


def test_angular_phase_commutes_exactly_with_region_projections():
    w = TruncationWindow.plane(4)
    u = laughlin_operator(w)
    regions = (
        Cone(Arc(Direction(1, 0), Direction(0, 1))),
        Ball(Fraction(5, 2)),
        ~Ball(2) & Cone(Arc(Direction(0, 1), Direction(0, -1))),
    )
    for region in regions:
        p = Projection.from_region(region, w)
        left = u.entries @ p.entries
        right = p.entries @ u.entries
        assert np.array_equal(left, right)


def test_angular_phase_needs_planar_window():
    with pytest.raises(RepresentationError):
        laughlin_operator(TruncationWindow.line(3))


def test_open_shift_structure():
    w = TruncationWindow.line(3)
    s = shift_operator(w, 1, "open")
    # each site x <= 2 goes to x+1; the rightmost column is dropped
    for x in range(-3, 4):
        col = s.entries[:, w.index_of(x)]
        if x == 3:
            assert not np.any(col)
        else:
            assert col[w.index_of(x + 1)] == 1.0
            assert np.sum(np.abs(col)) == 1.0
    # adjoint of shift-by-1 is shift-by-(-1)
    back = shift_operator(w, -1, "open")
    assert np.array_equal(s.adjoint().entries, back.entries)


def test_open_shift_defect_counts_dropped_sites():
    w = TruncationWindow.line(5)
    for k in (1, 2, 3):
        s = shift_operator(w, k, "open")
        gram = s.adjoint() @ s
        dropped = w.dimension - round(np.trace(gram.entries).real)
        assert dropped == k


def test_periodic_shift_is_unitary_and_cyclic():
    w = TruncationWindow.line(4)
    s = shift_operator(w, 1, "periodic")
    assert s.unitarity_defect() < 1e-15
    assert np.array_equal(s.entries[w.index_of(-4), w.index_of(4)], 1.0)
    # d applications of the wrap come back to the identity
    power = Operator.identity(w)
    for _ in range(w.dimension):
        power = s @ power
    assert np.array_equal(power.entries, np.eye(w.dimension))


def test_shift_needs_line_window():
    with pytest.raises(RepresentationError):
        shift_operator(TruncationWindow.plane(2))


def dense_shift(window, k, boundary):
    """The shift as a dense loop over the sites: column x holds a 1 in
    the row of x + k (wrapped, if periodic) when that site is in the
    window."""
    d = window.dimension
    n = (d - 1) // 2
    entries = np.zeros((d, d), dtype=np.complex128)
    for x in range(-n, n + 1):
        y = x + k
        if boundary == "periodic":
            y = (y + n) % d - n
        if -n <= y <= n:
            entries[window.index_of(y), window.index_of(x)] = 1.0
    return entries


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("radius", [1, 2, 16, 256])
def test_shift_list_and_entries_are_the_dense_loop(radius, boundary):
    w = TruncationWindow.line(radius)
    d = w.dimension
    for k in (0, 1, -1, 3, -3, d - 1, 1 - d, d, -d, d + 1, -d - 1):
        s = shift_operator(w, k, boundary)
        oracle = dense_shift(w, k, boundary)
        assert_same_nonzero(s.nonzero(), dense_nonzero(oracle))
        entries = s.entries
        assert entries.dtype == np.complex128
        assert entries.flags.c_contiguous and not entries.flags.writeable
        assert np.array_equal(entries, oracle)
        assert s.entries is entries  # formed once
        if boundary == "open" and abs(k) >= d:
            assert s.nonzero()[0].size == 0 and not np.any(entries)


def test_shift_forms_no_dense_array_until_entries_are_read():
    w = TruncationWindow.line(4095)
    d = w.dimension
    shift_operator(w, 1)  # fills the window's cached sites
    s, peak = traced_peak(lambda: shift_operator(w, 3))
    assert peak < 16 * d * d / 1000
    rows, cols, values = s.nonzero()
    assert rows.size == d - 3 and np.all(values == 1.0)
    for part in s.nonzero():
        assert not part.flags.writeable


def test_dense_nonzero_list_is_the_value_based_scan():
    """An operator built from its entries lists the entries that compare
    unequal to 0: -0.0 is dropped and NaN kept."""
    w = TruncationWindow.line(3)
    rng = np.random.default_rng(5)
    entries = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    entries[rng.random((7, 7)) < 0.6] = 0.0
    entries[0, 1] = complex(-0.0, -0.0)
    entries[2, 3] = complex(0.0, -0.0)
    entries[4, 5] = complex(np.nan, 0.0)
    entries[6, 0] = complex(0.0, np.inf)
    op = Operator(w, entries)
    got = op.nonzero()
    assert_same_nonzero(got, dense_nonzero(op.entries))
    listed = set(zip(got[0].tolist(), got[1].tolist()))
    assert (0, 1) not in listed and (2, 3) not in listed
    assert {(4, 5), (6, 0)} <= listed
    assert op.nonzero() is got  # scanned once
    for part in got:
        assert not part.flags.writeable


def test_from_nonzero_is_the_operator_of_its_list():
    w = TruncationWindow.plane(3)
    d = w.dimension
    rng = np.random.default_rng(11)
    entries = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    entries[rng.random((d, d)) < 0.8] = 0.0
    rows, cols, values = dense_nonzero(entries)
    op = Operator.from_nonzero(w, rows.tolist(), cols.astype(np.int32), values, name="sparse")
    assert op.tags["name"] == "sparse"
    assert_same_nonzero(op.nonzero(), (rows, cols, values))
    assert np.array_equal(op.entries, entries)
    assert op.entries.flags.c_contiguous and not op.entries.flags.writeable
    assert np.array_equal((op @ op).entries, entries @ entries)
    empty = Operator.from_nonzero(w, [], [], [])
    assert empty.nonzero()[0].size == 0
    assert np.array_equal(empty.entries, np.zeros((d, d)))


def test_from_nonzero_rejects_positions_outside_the_window():
    w = TruncationWindow.line(2)
    for rows, cols in (([0, 5], [1, 0]), ([0, 1], [1, -1])):
        with pytest.raises(PreconditionError, match="outside"):
            Operator.from_nonzero(w, rows, cols, [1.0, 2.0])


def test_from_nonzero_rejects_positions_out_of_row_major_order():
    w = TruncationWindow.line(2)
    for rows, cols in (([1, 0], [0, 1]), ([0, 0], [3, 1]), ([2, 2], [1, 1])):
        with pytest.raises(PreconditionError, match="row-major"):
            Operator.from_nonzero(w, rows, cols, [1.0, 2.0])


def test_from_nonzero_rejects_explicit_zeros():
    w = TruncationWindow.line(2)
    for zero in (0.0, -0.0, complex(0.0, -0.0)):
        with pytest.raises(PreconditionError, match="zero"):
            Operator.from_nonzero(w, [0, 1], [0, 1], [1.0, zero])


def test_from_nonzero_rejects_mismatched_lengths():
    w = TruncationWindow.line(2)
    for rows, cols, values in (
        ([0, 1], [0, 1], [1.0]),
        ([0], [0, 1], [1.0, 1.0]),
        ([[0, 1]], [[0, 1]], [[1.0, 1.0]]),
    ):
        with pytest.raises(PreconditionError, match="one length"):
            Operator.from_nonzero(w, rows, cols, values)


def test_from_nonzero_rejects_positions_and_values_of_the_wrong_kind():
    w = TruncationWindow.line(2)
    with pytest.raises(PreconditionError, match="integers"):
        Operator.from_nonzero(w, [0.0, 1.0], [0, 1], [1.0, 1.0])
    with pytest.raises(PreconditionError, match="numbers"):
        Operator.from_nonzero(w, [0, 1], [0, 1], ["a", "b"])


# ---------------------------------------------------------------------------
# projections


def test_region_projection_is_exact_diagonal():
    w = TruncationWindow.plane(3)
    p = Projection.from_region(Ball(2), w)
    assert p.trace() == 9.0  # 1 + 4 + 4 sites with |x|^2 < 4
    mask = p.diagonal_mask()
    assert mask is not None
    assert np.array_equal(mask, region_mask(p.region, w))
    assert p.perp().trace() == w.dimension - 9.0


def test_region_projection_forms_no_dense_array_until_entries_are_read():
    w = TruncationWindow.plane(20)
    d = w.dimension
    region = Cone(Arc(Direction(1, -1), Direction(1, 1)))
    Projection.from_region(region, w)  # fills the window's cached sites
    dense = d * d * 16  # one d x d complex array

    def build():
        p = Projection.from_region(region, w)
        q = p.perp()
        assert p.trace() + q.trace() == d
        return p, q

    (p, q), held = traced_peak(build)
    entries, formed = traced_peak(lambda: p.entries)
    assert held < dense / 100
    assert formed >= dense
    assert p.entries is entries  # formed once
    assert np.array_equal(entries, np.diag(p.diagonal_mask()).astype(complex))
    assert np.array_equal(q.entries, np.eye(d) - entries)


def test_projection_validation_rejects_junk():
    w = TruncationWindow.line(2)
    half = 0.5 * Operator.identity(w)
    with pytest.raises(PreconditionError):
        Projection.from_operator(half)
    skew = Operator(w, 1j * np.eye(w.dimension))
    with pytest.raises(PreconditionError):
        Projection.from_operator(skew)


def test_projection_accepts_rank_one_projector():
    w = TruncationWindow.line(2)
    v = np.full((w.dimension, 1), 1.0 / math.sqrt(w.dimension), dtype=complex)
    p = Projection.from_operator(Operator(w, v @ v.conj().T))
    assert abs(p.trace() - 1.0) < 1e-12
    assert p.diagonal_mask() is None


# ---------------------------------------------------------------------------
# circle functions


def test_circle_function_product_is_convolution():
    f = CircleFunction.from_coefficients({1: 1.0, -1: 1.0})  # z + conj(z)
    g = CircleFunction.from_coefficients({1: 1.0, -1: -1.0})  # z - conj(z)
    prod = f * g
    assert dict(prod.coefficients) == {2: 1.0, -2: -1.0}


def test_circle_function_sup_norm():
    two_cos = CircleFunction.from_coefficients({1: 1.0, -1: 1.0})
    assert abs(two_cos.sup_norm() - 2.0) < 1e-10
    assert CircleFunction.from_coefficients({}).sup_norm() == 0.0


def test_circle_function_conj():
    f = CircleFunction.from_coefficients({1: 1j})
    assert dict(f.conj().coefficients) == {-1: -1j}


def test_apply_laurent_route_matches_schur_oracle():
    w = TruncationWindow.line(6)
    u = shift_operator(w, 1, "periodic")
    f = CircleFunction.from_coefficients({2: 1.0, 1: -0.5j, -1: 2.0, -3: 0.25})
    got = _laurent_apply(f, u.entries)
    # independent route: unitary matrices are normal, so the complex Schur
    # form is diagonal and f acts on the eigenvalues
    t, q = scipy.linalg.schur(u.entries, output="complex")
    oracle = q @ np.diag(f(np.diag(t))) @ q.conj().T
    assert spectral_norm(got - oracle) < 1e-12


# ---------------------------------------------------------------------------
# polar factor: the end of the polar path


def test_polar_part_of_diagonal():
    # d singleton components: one 1 x 1 SVD each
    w = TruncationWindow.line(1)
    g = Operator.diagonal(w, np.array([2.0, 3.0j, -5.0]))
    u = polar_path(g).at(1.0)
    assert np.array_equal(u, np.diag(np.diag(u)))  # exact zeros off the blocks
    assert np.allclose(np.diag(u), [1.0, 1.0j, -1.0], atol=1e-14)
    assert Operator(w, u).unitarity_defect() < 1e-14


def test_polar_part_fixes_unitary():
    w = TruncationWindow.line(4)
    u = shift_operator(w, 1, "periodic")
    assert spectral_norm(polar_path(u).at(1.0) - u.entries) < 1e-12


def test_polar_part_rejects_singular():
    # the zero sits in one component, apart from a well-conditioned 2 x 2 block
    w = TruncationWindow.line(2)
    g = np.diag([1.0, 1.0, 0.0, 1.0, 1.0]).astype(np.complex128)
    g[0, 1], g[1, 0] = 0.5, -0.5
    with pytest.raises(SingularOperatorError, match="0.000e"):
        polar_path(Operator(w, g))


def test_polar_recovers_factor_of_stretched_unitary():
    rng = np.random.default_rng(11)
    w = TruncationWindow.line(4)
    d = w.dimension
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(x)
    pos = np.eye(d) + 0.3 * np.diag(rng.uniform(size=d))
    g = Operator(w, q @ pos)
    assert spectral_norm(polar_path(g).at(1.0) - q) < 1e-10


# ---------------------------------------------------------------------------
# cone projections interact with arcs the way the realized sites say


def test_cone_projection_matches_direction_classes():
    w = TruncationWindow.plane(4)
    arc = Arc(Direction(1, 0), Direction(0, 1))
    p = Projection.from_region(Cone(arc), w)
    mask = p.diagonal_mask()
    for i, site in enumerate(w.sites):
        if site == (0, 0):
            assert not mask[i]
        else:
            assert mask[i] == arc.contains(Direction.from_vector(site[0], site[1]))
