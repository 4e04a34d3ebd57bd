"""Dense operators on truncation windows, and the model operators.

The laboratory works with plain dense complex128 matrices wrapped in an
``Operator`` that remembers its window.  The two model operators are the
diagonal angular-phase unitary on the planar window and the bilateral
shift on the line window (exact unitary with periodic boundary, partial
isometry with open boundary).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import (
    PreconditionError,
    RepresentationError,
    WindowMismatchError,
)
from .geometry import ORIGIN, Region, region_mask
from .windows import AmplifiedWindow, TruncationWindow, Window

TOL_IDEMPOTENT = 1e-10
# ``norm_at_most``: its rounding band, this many max(m, n) eps relative,
# and the bounds its bracket decides (outside them the SVD does)
BRACKET_SLACK = 4
BRACKET_RANGE = (1e-100, 1e100)
_EPS = float(np.finfo(np.float64).eps)


def _freeze(entries: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(entries, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Operator:
    """A square matrix bound to its window.  Entries are immutable."""

    window: Window
    entries: np.ndarray
    tags: Mapping[str, str] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        entries = _freeze(self.entries)
        d = self.window.dimension
        if entries.shape != (d, d):
            raise ValueError(f"entries shape {entries.shape} != window dimension {d}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "tags", MappingProxyType(dict(self.tags)))

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, window: Window, **tags: str) -> "Operator":
        return cls(window, np.eye(window.dimension, dtype=np.complex128), tags)

    @classmethod
    def zero(cls, window: Window, **tags: str) -> "Operator":
        return cls(window, np.zeros((window.dimension,) * 2, dtype=np.complex128), tags)

    @classmethod
    def diagonal(cls, window: Window, diag: np.ndarray, **tags: str) -> "Operator":
        return cls(window, np.diag(np.asarray(diag, dtype=np.complex128)), tags)

    # -- algebra ------------------------------------------------------------

    def _check_window(self, other: "Operator") -> None:
        if self.window != other.window:
            raise WindowMismatchError(
                f"operands live on different windows: {self.window} vs {other.window}"
            )

    def adjoint(self) -> "Operator":
        return Operator(self.window, self.entries.conj().T)

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_window(other)
        return Operator(self.window, self.entries @ other.entries)

    def __add__(self, other: "Operator") -> "Operator":
        self._check_window(other)
        return Operator(self.window, self.entries + other.entries)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_window(other)
        return Operator(self.window, self.entries - other.entries)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.window, self.entries * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(self.window, -self.entries)

    # -- metrics ------------------------------------------------------------

    def norm(self) -> float:
        """Operator norm (largest singular value)."""
        return spectral_norm(self.entries)

    def unitarity_defect(self) -> float:
        """|| A*A - 1 ||, from the eigenvalues of A*A (:func:`unitarity_defect`)."""
        return unitarity_defect(self.entries)


def spectral_norm(entries: np.ndarray) -> float:
    """Largest singular value of a dense block, taken on its nonzero block.

    All-zero rows and columns carry no singular value, so they are
    dropped before the SVD.  The result is the exact norm of the whole
    block, not a bound; empty and all-zero blocks have norm 0.
    """
    rows = np.flatnonzero(np.any(entries, axis=1))
    if rows.size == 0:
        return 0.0
    cols = np.flatnonzero(np.any(entries, axis=0))
    if rows.size < entries.shape[0] or cols.size < entries.shape[1]:
        entries = entries[np.ix_(rows, cols)]
    return float(np.linalg.norm(entries, 2))


def squared_moduli(entries: np.ndarray) -> np.ndarray:
    """|x_ij|^2 of every entry, as re^2 + im^2 (no square root); a square
    past the float range is inf, one under it is subnormal or 0."""
    with np.errstate(over="ignore", under="ignore"):
        return entries.real * entries.real + entries.imag * entries.imag


def norm_bracket(block: np.ndarray) -> tuple:
    """(Frobenius norm, largest row or column norm) of a block: an upper
    and a lower bound on its spectral norm."""
    sq = squared_moduli(block)
    edge = max(sq.sum(axis=1).max(initial=0.0), sq.sum(axis=0).max(initial=0.0))
    return math.sqrt(sq.sum()), math.sqrt(edge)


def norm_at_most(block: np.ndarray, bound: float, bracket: tuple | None = None) -> bool:
    """Whether ``spectral_norm(block) <= bound``, a decision and never a value.

    The largest row or column norm bounds ‖X‖₂ from below and the
    Frobenius norm bounds it from above (Horn & Johnson, *Matrix
    Analysis*, §5.6), so "yes" when ‖X‖_F (1 + slack) <= bound, "no"
    when max(row norm, column norm) (1 - slack) > bound, and otherwise
    ``spectral_norm`` decides.  The slack, ``BRACKET_SLACK`` max(m, n)
    eps relative, covers the rounding of the sums and of the SVD, so
    the bracket's answer is the one the SVD would give; within the
    slack of either end (a rank-one block has ‖X‖_F = ‖X‖₂) the SVD
    decides.  ``bracket`` is ``norm_bracket(block)`` (or the same two
    norms summed another way), passed when the caller already has it;
    without it, a cheap Frobenius test settles most "yes" answers first.

    The squares behind the bracket lose at most a few subnormal units
    to underflow and overflow only past 1e154, so the bracket decides
    only bounds in ``BRACKET_RANGE``, where neither can turn a decision;
    other bounds go to the SVD.
    """
    if not BRACKET_RANGE[0] <= bound <= BRACKET_RANGE[1]:
        return spectral_norm(block) <= bound
    slack = BRACKET_SLACK * max(block.shape, default=1) * _EPS
    if bracket is None:
        # the bracket's "yes" on a BLAS Frobenius norm, which forms no
        # squares; summed in any order it is within size eps of its value
        with np.errstate(over="ignore", under="ignore"):
            fro = np.linalg.norm(block)
        if fro * (1.0 + slack + block.size * _EPS) <= bound:
            return True
        bracket = norm_bracket(block)
    fro, edge = bracket
    if fro * (1.0 + slack) <= bound:
        return True
    if edge * (1.0 - slack) > bound:
        return False
    return spectral_norm(block) <= bound


def unitarity_defect(entries: np.ndarray) -> float:
    """|| A*A - 1 || of a square block, from the eigenvalues of A*A, taken
    per connected component of its nonzero pattern (exact; see
    :func:`components`)."""
    eigs = gram_eigenvalues(entries, block_stacks(components(entries)))
    return float(np.max(np.abs(eigs - 1.0))) if eigs.size else 0.0


# ---------------------------------------------------------------------------
# connected components of a nonzero pattern


def components(pattern: np.ndarray) -> list:
    """Connected components of a square nonzero pattern, as sorted site arrays.

    Sites i and j are linked when entry (i, j) or (j, i) is nonzero; a
    site with an empty row and column is a component of its own.  Listed
    one component after another, a matrix with this pattern is block
    diagonal, so its singular values, Gram spectrum and Schur form are
    the union (the direct sum) of its diagonal blocks': factorizing the
    blocks one at a time is exact.  An irreducible pattern is one
    component, the whole window.  Components come in the order of their
    smallest site.  They are views of ``component_order``'s list.
    """
    order, starts = component_order(pattern)
    ends = [*starts[1:].tolist(), order.size]
    # views of ``order`` between the starts, sliced in C
    return list(map(order.__getitem__, map(slice, starts.tolist(), ends)))


def component_order(pattern: np.ndarray) -> tuple:
    """(order, starts): the sites of ``components(pattern)`` listed one
    component after another, and where each component starts in order.

    The walk keeps a parent for every site, never larger than the site,
    so following parents ends at the smallest site of a tree.  First
    every site hooks onto the smallest site in its row when that is
    smaller (one pass over the boolean pattern, which settles a dense
    block at once); then, while some entry links two different trees,
    the larger root hooks onto the smaller, over those entries only.
    """
    linked = np.asarray(pattern) != 0
    if not linked.size:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    n = linked.shape[0]
    sites = np.arange(n)
    parent = np.minimum(sites, np.where(linked.any(axis=1), linked.argmax(axis=1), sites))
    root = _roots(parent)
    crossing = np.not_equal.outer(root, root)
    crossing &= linked
    rows, cols = np.divmod(np.flatnonzero(crossing), n)
    while rows.size:
        ends = root[rows], root[cols]
        np.minimum.at(parent, ends[0], ends[1])
        np.minimum.at(parent, ends[1], ends[0])
        root = _roots(parent)
        keep = root[rows] != root[cols]
        rows, cols = rows[keep], cols[keep]
    order = np.argsort(root, kind="stable")
    ranked = root[order]
    return order, np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])


def _roots(parent: np.ndarray) -> np.ndarray:
    """Follow parents (each at most its site) until they stop moving."""
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            return up
        parent = up


def block_stacks(parts: list) -> tuple:
    """The components grouped by size: one (n, s) index array per size s,
    so each group is factorized by one stacked numpy call."""
    sizes = sorted({part.size for part in parts})
    return tuple(np.stack([part for part in parts if part.size == s]) for s in sizes)


def diagonal_blocks(entries: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The (n, s, s) diagonal blocks entries[c, c] of a stack of components."""
    return stacked_blocks(entries, stack, stack)


def stacked_blocks(entries: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (n, r, c) blocks entries[rows[i]][:, cols[i]] of an (n, r) row
    stack and an (n, c) column stack."""
    if rows.shape == (1, entries.shape[0]) and cols.shape == (1, entries.shape[1]):
        return entries[None]  # one component: the whole matrix, no copy
    return entries[rows[:, :, None], cols[:, None, :]]


def gram_eigenvalues(entries: np.ndarray, stacks: tuple) -> np.ndarray:
    """Eigenvalues of A*A for a square A that is block diagonal over the
    components in ``stacks``: the union of the blocks' Gram spectra."""
    return block_gram_eigenvalues(diagonal_blocks(entries, stack) for stack in stacks)


def block_gram_eigenvalues(stacked) -> np.ndarray:
    """Eigenvalues of X*X for every block X of each (n, s, s) stack in
    ``stacked``, flat: one Hermitian eigendecomposition call per stack."""
    eigs = [np.linalg.eigvalsh(hermitian_part(adjoints(x) @ x)).ravel() for x in stacked]
    return np.concatenate(eigs) if eigs else np.zeros(0)


def adjoints(blocks: np.ndarray) -> np.ndarray:
    """G* of a matrix, or of each matrix in a stack."""
    return np.swapaxes(blocks.conj(), -1, -2)


def hermitian_part(g: np.ndarray) -> np.ndarray:
    """(G + G*) / 2 of a matrix or a stack of matrices."""
    return 0.5 * (g + adjoints(g))


# ---------------------------------------------------------------------------
# projections


def _diagonal_mask_of(a: np.ndarray) -> np.ndarray | None:
    """Boolean site mask when ``a`` is an exact 0/1 diagonal, else None."""
    diag = np.diag(a)
    if np.any(a - np.diag(diag)) or np.any(diag.imag):
        return None
    if not np.all((diag.real == 0.0) | (diag.real == 1.0)):
        return None
    return diag.real == 1.0


class Projection:
    """An orthogonal projection, optionally backed by a diagonal region.

    ``mask`` is the single source of truth for diagonal structure: the
    0/1 site mask when the projection is an exact 0/1 diagonal, else
    None.  A projection built ``from_region`` holds only its mask and
    forms the dense diagonal the first time ``operator`` or ``entries``
    is read; ``perp`` and ``trace`` read the mask.  A projection built
    from an operator derives the mask once here.  Code that can work on
    index blocks instead of dense products reads it through
    :meth:`diagonal_mask`.
    """

    def __init__(self, operator: Operator, region: Region | None = None) -> None:
        self._operator = operator
        self.window = operator.window
        self.region = region
        self.mask = _diagonal_mask_of(operator.entries)
        if self.mask is not None:
            self.mask.setflags(write=False)

    @classmethod
    def _of_mask(cls, window: Window, mask: np.ndarray, region: Region | None) -> "Projection":
        """The 0/1 diagonal projection onto a site mask, made read-only."""
        mask.setflags(write=False)
        out = cls.__new__(cls)
        out._operator = None
        out.window, out.region, out.mask = window, region, mask
        return out

    @classmethod
    def from_region(cls, region: Region, window: Window) -> "Projection":
        """Exact 0/1 diagonal projection onto the region's window sites."""
        if isinstance(window, AmplifiedWindow):
            raise RepresentationError("region projections live on plain windows")
        return cls._of_mask(window, region_mask(region, window), region)

    @classmethod
    def from_operator(
        cls,
        operator: Operator,
        region: Region | None = None,
        tol: float = TOL_IDEMPOTENT,
    ) -> "Projection":
        """Validate self-adjointness and idempotency before wrapping."""
        a = operator.entries
        herm = spectral_norm(a - a.conj().T)
        if herm > tol:
            raise PreconditionError(f"not self-adjoint: defect {herm:.3e} > {tol:.1e}")
        idem = spectral_norm(a @ a - a)
        if idem > tol:
            raise PreconditionError(f"not idempotent: defect {idem:.3e} > {tol:.1e}")
        return cls(operator, region)

    @property
    def operator(self) -> Operator:
        if self._operator is None:
            self._operator = Operator.diagonal(self.window, self.mask)
        return self._operator

    @property
    def entries(self) -> np.ndarray:
        return self.operator.entries

    def perp(self) -> "Projection":
        region = None if self.region is None else self.region.complement()
        if self.mask is None:
            return Projection(Operator.identity(self.window) - self.operator, region)
        return Projection._of_mask(self.window, ~self.mask, region)

    def diagonal_mask(self) -> np.ndarray | None:
        """Boolean site mask when the projection is an exact 0/1 diagonal."""
        return self.mask

    def trace(self) -> float:
        if self.mask is None:
            return float(np.trace(self.entries).real)
        return float(np.count_nonzero(self.mask))


# ---------------------------------------------------------------------------
# circle functions


@dataclass(frozen=True)
class CircleFunction:
    """Finite Laurent polynomial on the unit circle: sum_n c_n z^n."""

    coefficients: tuple
    name: str = ""

    def __post_init__(self) -> None:
        cleaned = tuple(
            sorted((int(n), complex(c)) for n, c in dict(self.coefficients).items() if c != 0)
        )
        object.__setattr__(self, "coefficients", cleaned)

    @classmethod
    def from_coefficients(cls, coeffs: Mapping[int, complex], name: str = "") -> "CircleFunction":
        return cls(tuple(coeffs.items()), name)

    @classmethod
    def monomial(cls, n: int, c: complex = 1.0) -> "CircleFunction":
        label = {1: "z", -1: "conj(z)", 0: "1"}.get(n, f"z^{n}")
        return cls(((n, c),), label if c == 1.0 else f"{c}*{label}")

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        out = np.zeros_like(z)
        for n, c in self.coefficients:
            out = out + c * z**n
        return out

    def __mul__(self, other: "CircleFunction") -> "CircleFunction":
        prod: dict[int, complex] = {}
        for n, a in self.coefficients:
            for m, b in other.coefficients:
                prod[n + m] = prod.get(n + m, 0.0) + a * b
        return CircleFunction.from_coefficients(prod, f"({self.name})*({other.name})")

    def conj(self) -> "CircleFunction":
        return CircleFunction.from_coefficients(
            {-n: np.conj(c) for n, c in self.coefficients}, f"conj({self.name})"
        )

    def sup_norm(self, samples: int = 4096) -> float:
        """Sup norm over the circle, estimated on a uniform grid."""
        if self.is_zero:
            return 0.0
        z = np.exp(2j * np.pi * np.arange(samples) / samples)
        return float(np.max(np.abs(self(z))))


def _laurent_apply(f: CircleFunction, u: np.ndarray) -> np.ndarray:
    """Evaluate the Laurent sum in matrix powers of u and its adjoint."""
    d = u.shape[0]
    out = np.zeros((d, d), dtype=np.complex128)
    pos = {n: c for n, c in f.coefficients if n >= 0}
    neg = {-n: c for n, c in f.coefficients if n < 0}
    if pos:
        power = np.eye(d, dtype=np.complex128)
        top = max(pos)
        for n in range(0, top + 1):
            if n > 0:
                power = power @ u
            if n in pos:
                out += pos[n] * power
    if neg:
        adj = u.conj().T
        power = np.eye(d, dtype=np.complex128)
        top = max(neg)
        for n in range(1, top + 1):
            power = power @ adj
            if n in neg:
                out += neg[n] * power
    return out


# ---------------------------------------------------------------------------
# model operators


def laughlin_operator(window: TruncationWindow) -> Operator:
    """Diagonal angular-phase unitary: site x maps to (x1 + i x2)/|x|.

    The origin carries phase 1 so the operator stays exactly unitary.
    Commutes exactly with every region-backed diagonal projection.
    """
    if window.representation != "Z2":
        raise RepresentationError("the angular-phase unitary lives on the planar window")
    diag = np.empty(window.dimension, dtype=np.complex128)
    for i, site in enumerate(window.sites):
        if site == ORIGIN:
            diag[i] = 1.0
        else:
            z = complex(site[0], site[1])
            diag[i] = z / abs(z)
    return Operator.diagonal(window, diag, name="angular-phase")


def shift_operator(window: TruncationWindow, k: int = 1, boundary: str = "open") -> Operator:
    """Bilateral shift by k on the line window.

    ``open`` drops amplitudes shifted past the edge (a partial isometry);
    ``periodic`` wraps them (an exact unitary).  Periodic boundaries are
    for translation-invariance checks only: the wraparound cancels any
    index content, so index computations must use open boundaries.
    """
    if window.representation != "Z":
        raise RepresentationError("shifts live on the line window")
    if boundary not in ("open", "periodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    d = window.dimension
    n = (d - 1) // 2
    entries = np.zeros((d, d), dtype=np.complex128)
    for x in range(-n, n + 1):
        y = x + k
        if boundary == "periodic":
            y = (y + n) % d - n
        if -n <= y <= n:
            entries[window.index_of(y), window.index_of(x)] = 1.0
    return Operator(window, entries, {"name": f"shift[{k},{boundary}]"})
