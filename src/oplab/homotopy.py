"""Norm-continuous operator paths and their certification.

A path is a tuple of equally weighted segments.  Each segment is one of
three closed forms built once from a cached factorization, so sampling
needs no fresh decomposition: affine (1-t) A + t B, spectral
L e^{(1-t) z} R + C, and conjugation U_t* Q U_t.  A spectral segment
keeps L, R and C only as stacks of the connected components of their
pattern (sites S, modes M), grouped by block shape; off the components
X(t) is implicit, the identity or the right factor g.  Its sample is
C + L[S, M] e^{(1-t) z_M} R[M, S] on the block of each component, one
stacked product per block shape; an irreducible segment is one
component and one whole-window product.  An affine segment keeps A and
only the rows or columns where B differs from A, and a conjugation
sample is formed on the block of sites that move.  Constructors cover
the deformation moves used by the full unitary-to-identity pipeline:
straight lines, polar interpolation, peeling an upper-triangular block
factor, logarithmic rotation of a unitary, conjugation of a projection
along a unitary path, and the stacked-isometry move that absorbs a
block unitary into the identity.  A segment's flip (t -> 1 - t) acts in
one place, ``PathSegment``; each form is written in its own time.  The
stacked move conjugates a contraction of U ⊕ 1 by a 0/1 intertwiner
that fixes every site U moves, so it is built as the log contraction of
U on the base window, after an integer check that the intertwiner's
range covers the window.

Certification never assumes a segment is what it claims to be: the
certificate reports unitarity defects and smallest singular values,
each either measured on the exact Gram spectrum that the segment's form
gives from its own data or a rigorous bound computed from its factors
(and then checked against a measurement at the segment's ends),
measured locality defects against configured cone pairs, and (for
projection paths) measured idempotency defects and an integer index
trace.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import (
    OplabError,
    PreconditionError,
    SingularOperatorError,
    StageError,
    UnitarityError,
    WindowMismatchError,
)
from .geometry import Arc, Ball, Cone, Direction, Explicit, arcs_disjoint, region_mask
from .index import IndexConfig, _compressed, _masks, _nonzero, fredholm_index
from .operators import (
    Operator,
    Projection,
    adjoints,
    block_gram_eigenvalues,
    block_stacks,
    component_order,
    components,
    diagonal_blocks,
    gram_eigenvalues,
    hermitian_part,
    norm_at_most,
    spectral_norm,
    squared_moduli,
    stacked_blocks,
)
from .surgery import (
    GreedyIsometry,
    corrective_unitary,
    greedy_isometry,
    localized_centers,
)
from .windows import AmplifiedWindow, TruncationWindow, Window

TOL_JOINT = 1e-9
TOL_BLOCK_FORM = 1e-8
TOL_POLAR = 1e-8  # smallest singular value a polar climb accepts
TOL_PROJECTION = 1e-6  # hermitian and idempotent defects of a projection path's start
BRANCH_TIE = 1e-12
BOUND_SLACK = 1e-10

SEGMENT_KINDS = (
    "straight_line",
    "polar",
    "block_peel",
    "log",
    "conjugation",
    "block_unitary",
)


def _fro(entries: np.ndarray) -> float:
    return float(np.linalg.norm(entries))


def _support(entries: np.ndarray) -> np.ndarray:
    """Site mask of the rows and columns where a square matrix is nonzero."""
    return np.any(entries, axis=0) | np.any(entries, axis=1)


def _off_identity(entries: np.ndarray) -> np.ndarray:
    """The pattern of entries - 1 for a square matrix, with no identity formed."""
    pattern = entries != 0
    np.fill_diagonal(pattern, entries.diagonal() != 1)
    return pattern


def _split_norm(entries: np.ndarray, outside: np.ndarray | None = None) -> float:
    """Spectral norm of a square matrix, per connected component of its
    pattern.  The matrix is block diagonal over them, and the norm of a
    block-diagonal matrix is the largest norm of its blocks, so this is
    exact; one component is the whole-window ``spectral_norm``.  With
    ``outside`` it is the norm of entries ⊕ diag(outside), each nonzero
    diagonal entry a 1 x 1 component of its own, as the whole window
    would give it."""
    parts = components(entries)
    if outside is None and len(parts) == 1:
        return spectral_norm(entries)
    blocks = [diagonal_blocks(entries, stack) for stack in block_stacks(parts)]
    if outside is not None:
        blocks.append(outside[outside != 0][:, None, None])
    return max(
        (float(np.linalg.svd(b, compute_uv=False).max()) for b in blocks if b.size),
        default=0.0,
    )


_NO_SITES = np.empty(0, dtype=np.intp)
_SAMPLE_CHUNKS = 32  # row chunks an affine sample is formed in


# ---------------------------------------------------------------------------
# segments


@dataclass(frozen=True)
class PathSegment:
    """One homotopy leg, evaluated in closed form by its subclass.

    The form is the subclass (affine, spectral or conjugation); ``kind``
    only names the move for reports and must be one of
    ``SEGMENT_KINDS``.  ``flip`` runs the leg backwards (t -> 1 - t), so
    paths reverse without recomputing anything.

    A form gives, in its own time, ``_sample`` (X(t) as a
    :class:`BlockSample`, its one full evaluator), ``_gram`` and, if it
    cuts blocks from its factors, ``_block``; ``at``, ``block`` and
    ``sample`` derive from these.
    """

    kind: str
    window: Window
    flip: bool = field(default=False, kw_only=True)
    label: str = field(default="", kw_only=True)

    def __post_init__(self) -> None:
        if self.kind not in SEGMENT_KINDS:
            raise PreconditionError(f"unknown segment kind {self.kind!r}")

    def _time(self, t: float) -> float:
        """The form's own time of the leg's t: the one place a flip acts."""
        return 1.0 - t if self.flip else t

    def at(self, t: float) -> np.ndarray:
        return self.sample(t).dense()

    def block(self, t: float, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """X(t)[rows, cols]; forms that can cut it from their factors do."""
        return self._block(self._time(t), rows, cols)

    def _block(self, t: float, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._sample(t).cut(rows, cols)

    def sample(self, t: float) -> "BlockSample":
        """X(t) formed, as a block sample (of the whole window unless the
        form narrows it).  Its block is a new array, the caller's to
        overwrite, or a read-only view of the segment's own data."""
        return self._sample(self._time(t))

    def gram(self) -> tuple:
        """(spectrum, largest block measured): spectrum(t, sample) is the
        exact Gram spectrum of X(t) from the form's data (or from the
        caller's ``sample`` of X(t), for a form that is its sample)."""
        spectrum, largest = self._gram()
        return (lambda t, sample=None: spectrum(self._time(t), sample)), largest

    def _gram(self) -> tuple:
        """``gram`` in the form's own time."""
        raise NotImplementedError

    def spectrum_bound(self) -> "SpectrumBound | None":
        """A rigorous bracket on the singular values of every X(t), if any."""
        return None

    def is_constant(self) -> bool:
        """Whether X(t) is one matrix for every t, as the form's data show."""
        return False

    def moving_sites(self) -> np.ndarray:
        """Mask of the sites where some X(t) may differ from the identity;
        forms that can read it off their factors narrow it."""
        return np.ones(self.window.dimension, dtype=bool)

    def reversed(self) -> "PathSegment":
        return dataclasses.replace(self, flip=not self.flip)


def _positions(d: int, idx: np.ndarray) -> np.ndarray:
    """where[i] = the position of site i in ``idx``, or -1."""
    where = np.full(d, -1, dtype=np.intp)
    where[idx] = np.arange(idx.size)
    return where


@dataclass(frozen=True)
class AffineSegment(PathSegment):
    """X(t) = (1 - t) A + t B, with A = ``start``.

    B is kept only on the rows ``rows`` (entries ``row_entries``) and the
    columns ``cols`` (``col_entries``) where it differs from A; elsewhere
    it is A.  B and every sample are A overwritten there, never A plus a
    difference, so each entry is the one the dense B would give.
    """

    start: np.ndarray
    rows: np.ndarray
    row_entries: np.ndarray
    cols: np.ndarray
    col_entries: np.ndarray

    @classmethod
    def between(cls, kind: str, window: Window, a: np.ndarray, b: np.ndarray, **kw):
        """The segment from A to B, keeping B's rows where it differs from
        A, or its columns if those are fewer."""
        differ = a != b
        rows = np.flatnonzero(differ.any(axis=1))
        cols = np.flatnonzero(differ.any(axis=0))
        if rows.size <= cols.size:
            entries = b if rows.size == b.shape[0] else b[rows]
            return cls(kind, window, a, rows, entries, _NO_SITES, a[:, :0], **kw)
        return cls(kind, window, a, _NO_SITES, a[:0], cols, b[:, cols], **kw)

    def _end(self, ri: np.ndarray, ci: np.ndarray) -> np.ndarray:
        """B[ri, ci] for broadcastable index arrays: A's entries,
        overwritten on B's rows and columns."""
        ri, ci = np.broadcast_arrays(ri, ci)
        out = self.start[ri, ci]
        # B's rows, then its columns as the rows of B^T
        for idx, entries, own, other in (
            (self.rows, self.row_entries, ri, ci),
            (self.cols, self.col_entries.T, ci, ri),
        ):
            at = _positions(self.start.shape[0], idx)[own]
            hit = at >= 0
            out[hit] = entries[at[hit], other[hit]]
        return out

    def _block(self, t: float, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        ix = np.ix_(rows, cols)
        return (1.0 - t) * self.start[ix] + t * self._end(*ix)

    def is_constant(self) -> bool:
        """Whether B = A."""
        return np.array_equal(self.start[self.rows], self.row_entries) and np.array_equal(
            self.start[:, self.cols], self.col_entries
        )

    def _sample(self, t: float) -> "BlockSample":
        """X(t) formed on the whole window, a chunk of rows at a time so
        that only one d x d is made; every sample of a constant segment
        is A itself, as a read-only view."""
        if self.is_constant():
            start = self.start.view()
            start.flags.writeable = False
            return BlockSample.whole(start)
        a = self.start
        d = a.shape[0]
        where = _positions(d, self.rows)
        out = np.empty_like(a)
        step = -(-d // _SAMPLE_CHUNKS)
        for first in range(0, d, step):
            chunk = slice(first, first + step)
            end = a[chunk].copy()  # B on these rows: A, overwritten on B's rows and columns
            at = where[chunk]
            hit = at >= 0
            end[hit] = self.row_entries[at[hit]]
            end[:, self.cols] = self.col_entries[chunk]
            out[chunk] = (1.0 - t) * a[chunk]
            out[chunk] += t * end
        return BlockSample.whole(out)

    def moving_sites(self) -> np.ndarray:
        """Sites whose row or column of A or B differs from the identity."""
        moved = _support(_off_identity(self.start))
        # B's rows, then its columns as the rows of B^T
        for idx, entries in ((self.rows, self.row_entries), (self.cols, self.col_entries.T)):
            n = np.arange(idx.size)
            off = entries != 0
            off[n, idx] = entries[n, idx] != 1
            moved[idx] |= off.any(axis=1)
            moved |= off.any(axis=0)
        return moved

    def components(self) -> list:
        """Site sets over which every X(t) is block diagonal: the
        components of the pattern of A | B."""
        linked = self.start != 0
        linked[self.rows] |= self.row_entries != 0
        linked[:, self.cols] |= self.col_entries != 0
        return components(linked)

    def _gram(self) -> tuple:
        """Per component of A | B, X(s)*X(s) = (1 - s)^2 A*A + s (1 - s)
        (A*B + B*A) + s^2 B*B, from three terms built here and released
        with the spectrum; a constant segment is measured on A."""
        stacks = block_stacks(self.components())
        largest = max(stack.shape[1] for stack in stacks)
        if self.is_constant():
            return (lambda t, sample=None: gram_eigenvalues(self.start, stacks)), largest
        terms = []
        for stack in stacks:
            a = diagonal_blocks(self.start, stack)
            b = self._end(stack[:, :, None], stack[:, None, :])
            ah = adjoints(a)
            aa, ab = hermitian_part(ah @ a), 2.0 * hermitian_part(ah @ b)
            terms.append((aa, ab, hermitian_part(adjoints(b) @ b)))

        def spectrum(s: float, sample=None) -> np.ndarray:
            eigs = []
            for aa, ab, bb in terms:
                gram = (1.0 - s) ** 2 * aa
                gram += (s * (1.0 - s)) * ab
                gram += s * s * bb
                eigs.append(np.linalg.eigvalsh(gram).ravel())
            return np.concatenate(eigs)

        return spectrum, largest


class Stack(NamedTuple):
    """Components of one shape (|S| sites, |M| modes), stacked: their
    (n, |S|) ``sites`` and (n, |M|) ``modes``, each ascending, and the
    (n, ...) blocks L[S, M] (``left``), R[M, S] (``right``) and C[S, S]
    (``const``, None when it is zero)."""

    sites: np.ndarray
    modes: np.ndarray
    left: np.ndarray
    right: np.ndarray
    const: np.ndarray | None


def _stacked(parts) -> tuple:
    """Stacks of one shape joined, ordered by shape (|S|, |M|) and within
    a shape by smallest site: the order in which samples, bounds and
    norms run over them."""
    by_shape = {}
    for part in parts:
        if part.sites.shape[0]:
            by_shape.setdefault((part.sites.shape[1], part.modes.shape[1]), []).append(part)
    out = []
    for shape in sorted(by_shape):
        same = by_shape[shape]
        part = same[0]
        if len(same) > 1:  # C is None (zero) on all of them or on none
            part = Stack(*(None if x[0] is None else np.concatenate(x) for x in zip(*same)))
        first = part.sites[:, 0]
        if np.any(first[1:] < first[:-1]):
            order = np.argsort(first)
            part = Stack(*(None if x is None else x[order] for x in part))
        out.append(part)
    return tuple(out)


@dataclass(frozen=True)
class SpectralSegment(PathSegment):
    """X(t) = L diag(exp((1 - t) z)) R + C, kept one component at a time.

    L (d x k), z (``exponents``, k) and R (k x d) hold only the modes
    that move; everything constant in t is in C.  A polar climb has
    L = U, z = log s, R = V*, C = 0; a logarithmic rotation has a Schur
    basis and z = i theta.  A rotation applied to a right factor g keeps
    g as ``factor`` (R = L* g and C = (1 - LL*) g), so its spectrum can
    be bounded from g's.

    L, R and C are kept only as ``stacks`` (see :class:`Stack`): the
    connected components of their pattern, with mode k joining the rows
    of L[:, k] and the columns of R[k, :], grouped by shape.  Every X(t)
    is C + L[S, M] e^{(1-t) z_M} R[M, S] on the block of a component
    with sites S and modes M, and zero between components.  Off the
    stacks X(t) is implicit: the identity, or g when there is one (the
    components hold g's pattern, so g links no stacked site to another
    site).  A mode in no stack has a zero L column and R row: it is idle
    and moves nothing.  An irreducible segment is one stack of shape
    (1, d), the whole-window factors.
    """

    exponents: np.ndarray
    stacks: tuple
    factor: np.ndarray | None = field(default=None, kw_only=True)

    def _wave(self, t: float) -> np.ndarray:
        return np.exp((1.0 - t) * self.exponents)

    @cached_property
    def _index(self) -> np.ndarray:
        """(stack, component, slot) of every site, a 3 x d array; -1 off
        the stacks."""
        where = np.full((3, self.window.dimension), -1, dtype=np.intp)
        for i, st in enumerate(self.stacks):
            where[0, st.sites] = i
            where[1, st.sites] = np.arange(st.sites.shape[0])[:, None]
            where[2, st.sites] = np.arange(st.sites.shape[1])[None, :]
        return where

    @cached_property
    def _rest(self) -> list:
        """The components off the stacks: single sites, or with a factor
        g the components of g's pattern there."""
        rest = np.flatnonzero(self._index[0] < 0)
        if self.factor is None:
            return list(rest[:, None])
        if not rest.size:
            return []
        return [rest[part] for part in components((self.factor != 0)[np.ix_(rest, rest)])]

    def _blocks(self, t: float):
        """X(t) on each stack: its (n, s) sites and (n, s, s) blocks, one
        stacked product per stack."""
        wave = self._wave(t)
        for st in self.stacks:
            lw = st.left * wave[st.modes][:, None, :]
            yield st.sites, lw @ st.right + (0.0 if st.const is None else st.const)

    def _sample(self, t: float) -> "BlockSample":
        """X(t) on the whole window: the identity or g, under the stacks' blocks."""
        d = self.window.dimension
        blocks = list(self._blocks(t))
        if len(blocks) == 1 and blocks[0][0].shape == (1, d):
            return BlockSample.whole(blocks[0][1][0])  # one component: the whole-window product
        if self.factor is None:
            out = np.eye(d, dtype=np.complex128)
        else:
            out = self.factor.astype(np.complex128)
        for sites, x in blocks:
            out[sites[:, :, None], sites[:, None, :]] = x
        return BlockSample.whole(out)

    def _block(self, t: float, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """X(t)[rows, cols], cut one stack at a time: the identity's
        entries, or g's (X(t) off the stacks, and zero between a stacked
        site and another component), then on each stack that the rows
        and the columns both meet (L[r] e^z) R[:, c] over its m mode
        slots, zeroed between components, plus C within one."""
        at_rows, at_cols = self._index[:, rows], self._index[:, cols]
        if self.factor is None:
            out = (rows[:, None] == cols[None, :]).astype(np.complex128)
        else:
            out = self.factor[np.ix_(rows, cols)].astype(np.complex128, copy=False)
        wave = self._wave(t)
        for i in sorted(set(at_rows[0].tolist()) & set(at_cols[0].tolist()) - {-1}):
            st = self.stacks[i]
            r, c = np.flatnonzero(at_rows[0] == i), np.flatnonzero(at_cols[0] == i)
            (comp_r, slot_r), (comp_c, slot_c) = at_rows[1:, r], at_cols[1:, c]
            x = (st.left[comp_r, slot_r] * wave[st.modes[comp_r]]) @ st.right[comp_c, :, slot_c].T
            apart = comp_r[:, None] != comp_c[None, :]
            x[apart] = 0.0
            if st.const is not None:
                j, k = np.nonzero(~apart)
                x[j, k] += st.const[comp_r[j], slot_r[j], slot_c[k]]
            out[np.ix_(r, c)] = x
        return out

    def moving_sites(self) -> np.ndarray:
        """Sites in a row of L, a column of R or the support of C - 1."""
        moved = np.zeros(self.window.dimension, dtype=bool)
        for st in self.stacks:
            n, size = st.sites.shape
            off = (np.zeros((n, size, size)) if st.const is None else st.const) - np.eye(size)
            moved[st.sites] = (
                np.any(st.left, axis=2)
                | np.any(st.right, axis=1)
                | np.any(off, axis=1)
                | np.any(off, axis=2)
            )
        if self.factor is not None:
            moved |= (self._index[0] < 0) & _support(_off_identity(self.factor))
        return moved

    def components(self) -> list:
        """Site sets over which every X(t) is block diagonal: the stacked
        components and those off the stacks, by smallest site."""
        parts = [sites for st in self.stacks for sites in st.sites] + self._rest
        order = np.argsort([part[0] for part in parts], kind="stable")
        return [parts[i] for i in order]

    def _gram(self) -> tuple:
        """The Gram blocks of ``_blocks(t)``, one stacked eigendecomposition
        per stack, with the spectrum off the stacks, which does not move:
        ones for the identity, or g's per component of its pattern."""
        if self.factor is None:
            still = np.ones(len(self._rest))
        else:
            still = gram_eigenvalues(self.factor, block_stacks(self._rest))
        largest = max(part.size for part in self.components())

        def spectrum(t: float, sample=None) -> np.ndarray:
            blocks = self._blocks(t)
            return np.concatenate((block_gram_eigenvalues(x for _, x in blocks), still))

        return spectrum, largest

    def spectrum_bound(self) -> "SpectrumBound | None":
        """A rigorous bracket on the singular values of every X(t), or
        None when the factors do not have a form it covers or their
        defects exceed ``BOUND_SLACK`` (the bracket would be loose).

        Polar (z real, C = 0, L and R square): X = L S R with S =
        diag(s^(1-t)), so sigma_min(L) s_i^(1-t) sigma_min(R) <= sigma_i
        <= ||L|| s_i^(1-t) ||R|| (Horn & Johnson, Topics, 3.3), with
        ||L||^2 and sigma_min(L)^2 within ||L*L - 1||_F of 1, and R alike.

        Rotation (z imaginary): R = D T with D a unit diagonal read off
        the rows and T = L* g, g = ``factor`` or 1.  Then X = Y g + L W G
        + E with Y = 1 + L (WD - 1) L*, G = R - D T and E = C - (1 - LL*) g.
        ||Y*Y - 1|| = ||L M* (L*L - 1) M L*|| <= 4 f (1 + f) with M =
        WD - 1 and f = ||L*L - 1||_F; the remainder moves each singular
        value by at most sqrt(1 + f) ||G||_F + ||E||_F (Weyl), and
        sigma_i(Y g) lies within the singular values of Y times those
        of g, computed once.

        Both brackets hold for the exact X(t); the bound adds a rounding
        allowance of d eps ||X||^2 (``SpectrumBound.at``), d the window
        dimension, so that it also holds for the sample as computed in
        floating point.

        Every product runs per stack: L*L, RR*, L* g and C - g + L L* g
        are block diagonal over the components, a Frobenius norm is the
        root sum of squares of the blocks', and g's singular values are
        the union of its blocks' on the stacks and off them.  Off the
        stacks every term is zero.  An idle mode (a zero column of L)
        fails either form, as the whole-window formulas do.
        """
        z = self.exponents
        d, k = self.window.dimension, z.size
        if k != sum(st.modes.size for st in self.stacks):
            return None  # an idle mode
        rounding = d * float(np.finfo(np.float64).eps)
        blocks = [(st, np.eye(st.modes.shape[1])) for st in self.stacks]
        zero_const = not self._rest and not any(
            st.const is not None and np.any(st.const) for st in self.stacks
        )
        if not np.any(z.imag) and zero_const and k == d:
            a = math.hypot(*(_fro(adjoints(st.left) @ st.left - eye) for st, eye in blocks))
            b = math.hypot(*(_fro(st.right @ adjoints(st.right) - eye) for st, eye in blocks))
            if max(a, b) > BOUND_SLACK:
                return None
            rates = (float(z.real.max()), float(z.real.min()))
            return SpectrumBound(
                math.sqrt((1.0 - a) * (1.0 - b)),
                math.sqrt((1.0 + a) * (1.0 + b)),
                0.0,
                (1.0, 1.0),
                rates,
                self.flip,
                rounding,
            )
        if np.any(z.real):
            return None
        fs, drifts, offsets, sings = [], [], [], []
        for st, eye in blocks:
            lb, rb = st.left, st.right
            lh = adjoints(lb)
            fs.append(_fro(lh @ lb - eye))
            if self.factor is None:
                base, target = np.eye(st.sites.shape[1]), lh
            else:
                base = diagonal_blocks(self.factor, st.sites)
                target = lh @ base
                sings.append(np.linalg.svd(base, compute_uv=False).ravel())
            pairing = np.einsum("nij,nij->ni", target.conj(), rb)
            if not np.all(pairing):
                return None
            phase = pairing / np.abs(pairing)
            drifts.append(_fro(rb - phase[:, :, None] * target))
            const = 0.0 if st.const is None else st.const
            offsets.append(_fro(const - base + lb @ target))
        if self.factor is not None:
            sings += [
                np.linalg.svd(diagonal_blocks(self.factor, stack), compute_uv=False).ravel()
                for stack in block_stacks(self._rest)
            ]
        f = math.hypot(*fs)
        slack = math.sqrt(1.0 + f) * math.hypot(*drifts) + math.hypot(*offsets)
        if max(f, slack) > BOUND_SLACK:
            return None
        delta = 4.0 * f * (1.0 + f)
        scale = (1.0, 1.0)
        if sings:
            s = np.concatenate(sings)
            scale = (float(s.max()), float(s.min()))
        return SpectrumBound(
            math.sqrt(1.0 - delta),
            math.sqrt(1.0 + delta),
            slack,
            scale,
            (0.0, 0.0),
            self.flip,
            rounding,
        )


@dataclass(frozen=True)
class SpectrumBound:
    """Where the singular values of a spectral segment's X(t) can lie.

    The i-th largest singular value is within [alpha w_i - slack,
    beta w_i + slack], where the core values w(t) run between
    ``scale[0] e^{(1 - t) rates[0]}`` (largest) and ``scale[1] e^{(1 - t)
    rates[1]}`` (smallest).  ``at`` turns this into an upper bound on
    the unitarity defect max |sigma_i^2 - 1| and a lower bound on the
    smallest singular value.

    Those bracket the exact X(t).  A dense measurement forms X(t) and its
    Gram matrix in floating point, from inner products of length up to
    d, each with relative error of order d eps (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 3.1), so its eigenvalues may
    leave the exact bracket by about d eps ||X||^2.  ``rounding`` is
    d eps, and ``at`` widens both bounds by ``rounding`` ||X||^2, with
    ||X|| bounded by the largest core value, so that the bound dominates
    the computed sample as well.
    """

    alpha: float
    beta: float
    slack: float
    scale: tuple
    rates: tuple
    flip: bool
    rounding: float

    def at(self, t: float) -> tuple:
        """(unitarity defect bound, smallest singular value bound) at t."""
        if self.flip:
            t = 1.0 - t
        # the largest and the smallest core value
        core = [s * math.exp((1.0 - t) * rate) for s, rate in zip(self.scale, self.rates)]
        his = [self.beta * w + self.slack for w in core]
        los = [max(self.alpha * w - self.slack, 0.0) for w in core]
        unit = max(abs(x * x - 1.0) for x in his + los)
        allowance = self.rounding * his[0] * his[0]
        return unit + allowance, math.sqrt(max(los[-1] * los[-1] - allowance, 0.0))


@dataclass(frozen=True)
class BlockSample:
    """A d x d matrix that is diagonal off a sorted site set S: ``diag``
    there (``diag`` is zero on S), ``block`` on S x S, and zero between
    the two.  Every path sample (a form's ``_sample``, which ``at`` reads
    dense) and declared path end takes this form.  A dense matrix is the
    sample with S = every site (``whole``); the identity is the one with
    S empty (``identity``)."""

    diag: np.ndarray
    sites: np.ndarray
    block: np.ndarray

    @classmethod
    def whole(cls, entries: np.ndarray) -> "BlockSample":
        d = entries.shape[0]
        return cls(np.zeros(d), np.arange(d), entries)

    @classmethod
    def identity(cls, d: int) -> "BlockSample":
        return cls(np.ones(d), _NO_SITES, np.zeros((0, 0), dtype=np.complex128))

    def is_whole(self) -> bool:
        return self.sites.size == self.diag.size

    def _off(self) -> np.ndarray:
        off = np.ones(self.diag.size, dtype=bool)
        off[self.sites] = False
        return off

    def outside(self) -> np.ndarray:
        """The diagonal entries off S."""
        return self.diag[self._off()]

    def dense(self) -> np.ndarray:
        if self.is_whole():
            return self.block
        every = np.arange(self.diag.size)
        return self.cut(every, every)

    def cut(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The sample's entries on rows x cols: its diagonal where a row
        meets its own column, overwritten by the block on S x S."""
        out = (rows[:, None] == cols[None, :]) * self.diag[rows][:, None].astype(np.complex128)
        where = _positions(self.diag.size, self.sites)
        r, c = where[rows], where[cols]
        inr, inc = np.flatnonzero(r >= 0), np.flatnonzero(c >= 0)
        out[np.ix_(inr, inc)] = self.block[np.ix_(r[inr], c[inc])]
        return out


def _fold(out: np.ndarray, sample: BlockSample, op) -> None:
    """out = op(out, sample) in place for a dense ``out``, on the entries
    where the sample may be nonzero: its block on S x S and its diagonal
    off S."""
    ix = np.ix_(sample.sites, sample.sites)
    out[ix] = op(out[ix], sample.block)
    off = np.flatnonzero(sample._off())
    out[off, off] = op(out[off, off], sample.diag[off])


def _difference(a: BlockSample, b: BlockSample, spare: bool = False) -> tuple:
    """a - b, or b - a when only b is whole, as (its block on U x U, its
    diagonal off U, or None when U is the whole window), U the union of
    the two samples' site sets: both are diagonal off U, and so is their
    difference.  The two are each other's negation entry for entry, so
    their norms agree bit for bit.

    A whole-window side enters as its own block, with the other side
    folded into a copy of it (``_fold``), so a difference on the whole
    window is the dense one entry for entry and no side is cut.  With
    ``spare`` the caller gives up a, a sample it formed for this check:
    a whole-window a's block then becomes the difference, unless it is
    read-only, and no d x d array is formed."""
    if b.is_whole() and not a.is_whole():
        a, b, spare = b, a, False
    if a.is_whole():
        own = a.block if spare and a.block.flags.writeable else None
        if b.is_whole():
            return np.subtract(a.block, b.block, out=own), None
        diff = a.block.copy() if own is None else own
        _fold(diff, b, np.subtract)
        return diff, None
    union = np.union1d(a.sites, b.sites)
    diff = a.cut(union, union) - b.cut(union, union)
    if union.size == a.diag.size:
        return diff, None
    off = np.ones(a.diag.size, dtype=bool)
    off[union] = False
    return diff, a.diag[off] - b.diag[off]


def _frobenius_gap(a: BlockSample, b: BlockSample, spare: bool = False) -> float:
    """||a - b||_F, from ``_difference``."""
    diff, outside = _difference(a, b, spare)
    return _fro(diff) if outside is None else math.hypot(_fro(diff), _fro(outside))


def _spectral_gap(a: BlockSample, b: BlockSample, spare: bool = False) -> float:
    """||a - b||, per component of the difference's pattern (``_split_norm``)."""
    return _split_norm(*_difference(a, b, spare))


@dataclass(frozen=True)
class ConjugationSegment(PathSegment):
    """X(t) = U_t* Q U_t, with U_t sampled from the inner path ``upath``.

    Q is kept as a block sample ``q`` on a site set S that holds the
    sites where a factor of ``upath`` differs from the identity
    (``moving_sites`` of each inner segment) and every site where Q has
    an off-diagonal entry; ``conjugation_path`` builds it.  Off S, U_t
    is the identity and Q is diagonal, so X(t) is exactly diag(Q) there,
    W_t* Q_SS W_t on S x S with W_t = U_t[S, S], and zero between: each
    sample is built from that block alone.  When S is the whole window
    this is the dense product.
    """

    q: BlockSample
    upath: "HomotopyPath"

    def _sample(self, t: float) -> BlockSample:
        """The sample at t, as diag(Q) off S and its block on S."""
        q = self.q
        w = self.upath.block(t, q.sites, q.sites)
        return BlockSample(q.diag, q.sites, w.conj().T @ q.block @ w)

    def _gram(self) -> tuple:
        """The block sample's Gram spectrum: its block's, with |q_ii|^2 off
        it.  A sample the caller formed is measured as it is."""

        def spectrum(t: float, sample: BlockSample | None = None) -> np.ndarray:
            sample = self._sample(t) if sample is None else sample
            block = block_gram_eigenvalues((sample.block[None],))
            return np.concatenate((block, squared_moduli(sample.outside())))

        return spectrum, self.q.sites.size


# ---------------------------------------------------------------------------
# paths


@dataclass(frozen=True)
class HomotopyPath:
    """Equal-weight concatenation of segments with declared endpoints.

    The declared ends are block samples (:class:`BlockSample`); a dense
    end is ``BlockSample.whole(x)``.  Construction verifies that
    adjacent segments agree at their joint and that the sampled
    endpoints match the declared ones, both within 1e-9 in the
    Frobenius norm (which dominates the operator norm).  Each check
    compares two block samples on the union of their site sets, plus
    the diagonal off it (``_difference``): a conjugation path is
    checked on its moving block, and two whole-window samples as dense
    arrays.
    """

    segments: tuple
    declared_start: BlockSample
    declared_end: BlockSample

    def __post_init__(self) -> None:
        if not self.segments:
            raise PreconditionError("a path needs at least one segment")
        window = self.segments[0].window
        for seg in self.segments:
            if seg.window != window:
                raise WindowMismatchError("segments live on different windows")
        # each sample is formed for its check alone, spared to it and
        # released with it
        for i in range(len(self.segments) - 1):
            gap = _frobenius_gap(
                self.segments[i].sample(1.0), self.segments[i + 1].sample(0.0), spare=True
            )
            if gap > TOL_JOINT:
                raise PreconditionError(
                    f"segments {i} and {i + 1} disagree at their joint: {gap:.3e}"
                )
        start_err = _frobenius_gap(self.segments[0].sample(0.0), self.declared_start, spare=True)
        end_err = _frobenius_gap(self.segments[-1].sample(1.0), self.declared_end, spare=True)
        if start_err > TOL_JOINT or end_err > TOL_JOINT:
            raise PreconditionError(
                f"declared endpoints off by ({start_err:.3e}, {end_err:.3e})"
            )

    @property
    def window(self) -> Window:
        return self.segments[0].window

    def segment_of(self, t: float) -> int:
        n = len(self.segments)
        return min(int(t * n), n - 1)

    def _locate(self, t: float) -> tuple:
        """(segment, segment time) of the path parameter t."""
        if not 0.0 <= t <= 1.0:
            raise PreconditionError(f"path parameter {t} outside [0, 1]")
        i = self.segment_of(t)
        return self.segments[i], t * len(self.segments) - i

    def at(self, t: float) -> np.ndarray:
        seg, s = self._locate(t)
        return seg.at(s)

    def block(self, t: float, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """X(t)[rows, cols], cut from the owning segment's factors."""
        seg, s = self._locate(t)
        return seg.block(s, rows, cols)

    def reverse(self) -> "HomotopyPath":
        # the mirror samples the same closed forms at 1 - t, so its joints
        # and endpoints are this path's, already checked: skip __init__
        mirror = object.__new__(HomotopyPath)
        object.__setattr__(
            mirror, "segments", tuple(seg.reversed() for seg in reversed(self.segments))
        )
        object.__setattr__(mirror, "declared_start", self.declared_end)
        object.__setattr__(mirror, "declared_end", self.declared_start)
        return mirror


# ---------------------------------------------------------------------------
# elementary constructors


def straight_line(a0: Operator, a1: Operator, label: str = "") -> HomotopyPath:
    """Linear interpolation t -> (1-t) a0 + t a1."""
    if a0.window != a1.window:
        raise WindowMismatchError("straight line endpoints on different windows")
    seg = AffineSegment.between("straight_line", a0.window, a0.entries, a1.entries, label=label)
    return HomotopyPath((seg,), BlockSample.whole(a0.entries), BlockSample.whole(a1.entries))


def _polar_segment(g: Operator) -> SpectralSegment:
    """The polar climb t -> U |G|^(1-t) for G = U S V*.

    The SVD is taken per connected component of G's nonzero pattern
    (one stacked call per component size), which is exact: G is block
    diagonal over its components, so U S V* is the direct sum of the
    blocks' SVDs.  Each component is its own sites and modes, with
    L = U and R = V* on its block and C = 0, written straight into the
    segment's stacks.  An irreducible G is one component, and this is
    one whole-window SVD.
    """
    entries = g.entries
    sing = np.zeros(entries.shape[0])
    stacks = []
    for stack in block_stacks(components(entries)):
        u, s, vh = np.linalg.svd(diagonal_blocks(entries, stack))
        sing[stack] = s
        stacks.append(Stack(stack, stack, u, vh, None))
    smin = float(sing.min())
    if smin <= TOL_POLAR:
        raise SingularOperatorError(
            f"smallest singular value {smin:.3e} <= {TOL_POLAR:.1e}; "
            "the polar path would leave the invertibles"
        )
    return SpectralSegment("polar", g.window, np.log(sing), tuple(stacks))


def polar_path(g: Operator) -> HomotopyPath:
    """t -> U |G|^(1-t) from G to its unitary polar factor U."""
    seg = _polar_segment(g)
    return HomotopyPath((seg,), BlockSample.whole(g.entries), seg.sample(1.0))


def _log_segment(window: Window, entries, blocks, right=None, flip=False) -> SpectralSegment:
    """Eigenphase contraction t -> W e^{i (1-t) Theta} W* g from U g to g.

    Only the listed index blocks of the unitary ``entries`` are
    decomposed; off them the basis is the identity and the phases zero.
    Each listed block is first split into the connected components of
    its nonzero pattern, and each component gets its own Schur
    decomposition: the block is block diagonal over them, so its Schur
    form is their direct sum, exactly.  A block with an irreducible
    pattern is one component and one Schur decomposition.
    Eigenphases lie in (-pi, pi]; those within 1e-12 of the cut at -pi
    move to +pi and are counted in the label.  An exactly real negative
    eigenvalue (such as an entry -1 alone in its component) is at +pi
    whatever the sign of its zero imaginary part.  A component of one
    site is its own Schur form, so all of those are read off at once.
    Columns of phase exactly zero never move: they go straight into C.
    Modes are numbered spins first (one-site components that turn),
    then each component's moving columns.  Without a right factor each
    component's L, R = L* and C are written into the segment as one
    stack, and every other site is the identity.  A component of U's
    pattern stays connected in the patterns of L, R and C, since
    U[a, b] != 0 needs a mode or a C entry linking a and b.  The right
    factor g is folded into R and C once (see :func:`_factor_stacks`).
    """
    linked = entries != 0
    parts = []
    for idx in blocks:
        idx = np.array(sorted(idx), dtype=np.intp)
        parts.extend(idx[part] for part in components(linked[np.ix_(idx, idx)]))
    # a 1 x 1 block [x] is its own Schur form, with basis [1]
    singles = np.array([part[0] for part in parts if part.size == 1], dtype=np.intp)
    phases, ties = _eigenphases(entries[singles, singles])
    spins = singles[phases != 0.0]
    moving = [phases[phases != 0.0]]
    rotations = []  # (sites, modes, moving Schur columns, fixed part) per component
    for part in (part for part in parts if part.size > 1):
        import scipy.linalg  # loaded on first use: ``import oplab`` leaves scipy out
        schur_t, q = scipy.linalg.schur(entries[np.ix_(part, part)], output="complex")
        phases, tied = _eigenphases(np.diag(schur_t))
        ties += tied
        live = phases != 0.0
        q_live, q_dead = q[:, live], q[:, ~live]
        col = sum(x.size for x in moving)
        modes = np.arange(col, col + q_live.shape[1])
        rotations.append((part, modes, q_live, q_dead @ q_dead.conj().T))
        moving.append(phases[live])
    z = 1j * np.concatenate(moving)
    if right is None:
        ones = np.ones((spins.size, 1, 1), dtype=np.complex128)
        modes = np.arange(spins.size)[:, None]
        stacks = [Stack(spins[:, None], modes, ones, ones.conj(), np.zeros_like(ones))]
        stacks += [
            Stack(part[None], modes[None], q[None], q.conj().T[None], fixed[None])
            for part, modes, q, fixed in rotations
        ]
    else:
        stacks = _factor_stacks(right, spins, rotations, z.size)
    label = f"branch-ties:{ties}" if ties else ""
    return SpectralSegment(
        "log", window, z, _stacked(stacks), factor=right, flip=flip, label=label
    )


def _factor_stacks(g: np.ndarray, spins: np.ndarray, rotations: list, k: int) -> list:
    """The stacks of a rotation applied to the right factor g.

    R = L* g and C = (1 - LL*) g differ from (0, g) only on the rows of
    the rotated sites, so those rows are formed (a spin's R row is g's
    row and its C row is zero).  The components are those of the
    pattern of g, C, L and R, each mode linking the sites of its L
    column and R row; a component enters the stacks when it holds a
    mode or a rotated row, with C = g elsewhere on its block.
    """
    d = g.shape[0]
    rows = np.concatenate([spins] + [part for part, *_ in rotations])
    at = _positions(d, rows)
    left = np.zeros((rows.size, k), dtype=np.complex128)
    left[np.arange(spins.size), np.arange(spins.size)] = 1.0
    right = np.empty((k, d), dtype=np.complex128)
    right[: spins.size] = g[spins]
    const = np.zeros((rows.size, d), dtype=np.complex128)
    for part, modes, q_live, fixed in rotations:
        left[np.ix_(at[part], modes)] = q_live
        right[modes] = q_live.conj().T @ g[part]
        const[at[part]] = fixed @ g[part]
    linked = g != 0
    linked[rows] |= const != 0
    reach = right != 0  # the sites each mode links
    reach[:, rows] |= (left != 0).T
    first = reach.argmax(axis=1)
    mode_of, site_of = np.nonzero(reach)
    linked[first[mode_of], site_of] = True
    order, starts = component_order(linked)
    label = np.empty(d, dtype=np.intp)
    label[order] = np.repeat(np.arange(starts.size), np.diff(starts, append=order.size))
    mode_label = np.where(reach.any(axis=1), label[first], -1)
    ends = np.append(starts[1:], order.size)
    stacks = []
    for c in np.unique(np.concatenate([label[rows], mode_label[mode_label >= 0]])):
        sites = order[starts[c] : ends[c]]  # ascending
        modes = np.flatnonzero(mode_label == c)
        mine = np.flatnonzero(at[sites] >= 0)
        lb = np.zeros((1, sites.size, modes.size), dtype=np.complex128)
        lb[0, mine] = left[np.ix_(at[sites[mine]], modes)]
        cb = diagonal_blocks(g, sites[None]).astype(np.complex128)
        cb[0, mine] = const[np.ix_(at[sites[mine]], sites)]
        # one component over every site and mode takes R itself, no copy
        rb = stacked_blocks(right, modes[None], sites[None])
        stacks.append(Stack(sites[None], modes[None], lb, rb, cb))
    return stacks


def _eigenphases(diag: np.ndarray) -> tuple:
    """Phases in (-pi, pi] of Schur diagonal entries, with those within
    ``BRANCH_TIE`` of the cut moved to +pi, and how many moved.  Adding
    0.0 turns a zero imaginary part of either sign into +0.0, so an
    exactly real negative entry is at +pi and is not a tie."""
    phases = np.angle(diag + 0.0)
    tied = phases <= (-np.pi + BRANCH_TIE)
    return np.where(tied, phases + 2.0 * np.pi, phases), int(tied.sum())


def log_path(u: Operator) -> HomotopyPath:
    """Eigenphase contraction t -> W e^{i (1-t) Theta} W* from U to 1.

    The branch cut sits at -pi; eigenphases within 1e-12 of the cut are
    moved to +pi and the count is recorded in the segment label.  The
    unitarity check and the Schur decomposition run per connected
    component of U's nonzero pattern, so a U that moves two sites
    decomposes a 2 x 2 block.  The path declares U (dense) as its start
    and the identity as a block sample with no sites as its end, so no
    identity matrix is formed.
    """
    defect = u.unitarity_defect()
    if defect > TOL_BLOCK_FORM:
        raise UnitarityError(
            f"log path needs a unitary: defect {defect:.3e} > {TOL_BLOCK_FORM:.1e}"
        )
    seg = _log_segment(u.window, u.entries, [range(u.window.dimension)])
    return HomotopyPath(
        (seg,), BlockSample.whole(u.entries), BlockSample.identity(u.window.dimension)
    )


def block_peel(m: Operator, p: Projection) -> tuple:
    """Factor M = (P + P⊥ M P⊥)(1 + P M P⊥) and the straightening path.

    Requires M to act as the identity out of P and to leave P⊥ alone
    up to the stated tolerance; the returned path runs from the first
    factor to the peelable part of M (their product), and the second
    factor's nilpotent part N = P M P⊥ satisfies N^2 = 0 exactly, so
    1 - t N inverts the moving factor on the nose.
    """
    f1, seg = _block_peel(m, p)
    # f1 is the identity on P's rows, so 1 + N and f1 + N share them
    second = np.eye(m.window.dimension, dtype=np.complex128)
    second[seg.rows] = seg.row_entries
    path = HomotopyPath((seg,), BlockSample.whole(f1.entries), seg.sample(1.0))
    return (f1, Operator(m.window, second)), path


def _mask_sites(p: Projection, move: str) -> tuple:
    """(on, off): index arrays of the sites in P's 0/1 site mask and of
    the rest, through which the block moves read P instead of forming
    products with it.  A projection without a 0/1 mask raises a
    PreconditionError naming ``move``."""
    mask = p.diagonal_mask()
    if mask is None:
        raise PreconditionError(f"the {move} needs a 0/1 diagonal projection")
    return np.flatnonzero(mask), np.flatnonzero(~mask)


def _block_peel(m: Operator, p: Projection) -> tuple:
    """The first factor and the straightening segment of block_peel.

    Built on the index blocks of P's 0/1 mask (p its sites, q the rest):
    PMP - P = M[p, p] - 1, P~MP = M[q, p] and N = M[p, q].  Because
    P~P = 0, f1 N = N exactly, so the product f1 (1 + N) is f1 + N: f1
    with N added on P's rows, which are all the segment keeps of it.
    """
    if m.window != p.window:
        raise WindowMismatchError("operator and projection on different windows")
    on, off = _mask_sites(p, "block peel")
    me = m.entries
    blocks = (me[np.ix_(on, on)] - np.eye(on.size), me[np.ix_(off, on)])
    if not all(norm_at_most(block, TOL_BLOCK_FORM) for block in blocks):
        r_fix, r_low = map(spectral_norm, blocks)
        raise PreconditionError(
            "operator is not in block form over the projection: "
            f"|PMP - P| = {r_fix:.3e}, |P~MP| = {r_low:.3e}"
        )
    d = m.window.dimension
    f1 = me.copy()  # 1 on P's rows and columns, M[q, q] elsewhere
    f1[on] = 0.0
    f1[:, on] = 0.0
    f1[on, on] = 1.0
    nil = np.zeros((on.size, d), dtype=np.complex128)
    nil[:, off] = me[np.ix_(on, off)]
    seg = AffineSegment("block_peel", m.window, f1, on, f1[on] + nil, _NO_SITES, f1[:, :0])
    return Operator(m.window, f1), seg


def conjugation_path(q: Projection | Operator, upath: HomotopyPath) -> HomotopyPath:
    """t -> U_t* Q U_t along a unitary path starting at the identity.

    Q is read as a block sample on the site set S of the segment (see
    :class:`ConjugationSegment`): the sites where a factor of the inner
    path moves, plus every site where Q has an off-diagonal entry.  A
    projection with a 0/1 site mask is read from its mask, so no d x d
    array is formed; any other Q from its entries.  The inner path's
    start is checked on S x S alone, since off S each of its segments is
    the identity by its own data (``moving_sites``).  The path declares
    Q and the segment's sample at t = 1 as its ends.
    """
    window = q.window
    if window != upath.window:
        raise WindowMismatchError("projection and unitary path on different windows")
    moving = np.zeros(window.dimension, dtype=bool)
    for seg in upath.segments:
        moving |= seg.moving_sites()
    mask = q.diagonal_mask() if isinstance(q, Projection) else None
    if mask is None:
        entries = q.entries
        diag = np.diag(entries)
        moving |= _support(entries - np.diag(diag))
    else:
        diag = mask.astype(np.complex128)
    sites = np.flatnonzero(moving)
    block = np.diag(diag[sites]) if mask is not None else entries[np.ix_(sites, sites)]
    q_sample = BlockSample(np.where(moving, 0.0, diag), sites, block)
    start = upath.block(0.0, sites, sites) - np.eye(sites.size)
    if not norm_at_most(start, TOL_BLOCK_FORM):
        raise PreconditionError(
            f"conjugation needs a unitary path from the identity; "
            f"start is {spectral_norm(start):.3e} away"
        )
    seg = ConjugationSegment("conjugation", window, q_sample, upath)
    return HomotopyPath((seg,), q_sample, seg.sample(1.0))


# ---------------------------------------------------------------------------
# the stacked-isometry move


def _check_intertwiner(off: np.ndarray, v_iso: GreedyIsometry) -> None:
    """Check that the 0/1 intertwiner V has VV* = 1.  V's nonzero set is
    {(i, i) : i off P} and {(target, source)} over the matches, a pair
    listed twice counting once.

    VV* = 1 exactly when that set hits every base site once and uses no
    stacked column twice, and then (V*V)^2 = V*(VV*)V = V*V.  Any other
    set raises a PreconditionError naming the first site or column at
    fault.
    """
    amp = v_iso.window
    base = amp.base
    pairs = {(i, i) for i in off.tolist()} | {
        (base.index_of(m.target), amp.index_of(m.stack, m.source)) for m in v_iso.matches
    }
    rows, cols = np.array(sorted(pairs), dtype=np.intp).reshape(-1, 2).T
    hits = np.bincount(rows, minlength=base.dimension)
    uses = np.bincount(cols, minlength=amp.dimension)
    faults = [f"site {base.sites[i]} is hit {hits[i]} times" for i in np.flatnonzero(hits != 1)[:1]]
    faults += [f"stacked column {c} carries {uses[c]} sites" for c in np.flatnonzero(uses > 1)[:1]]
    if faults:
        raise PreconditionError(
            f"isometry range misses the window: {', '.join(faults)}, so VV* != 1; "
            "every site of the matched region must be used as a target once"
        )


def block_unitary_homotopy(u: Operator, p: Projection, v_iso: GreedyIsometry) -> HomotopyPath:
    """Path 1 -> U for a unitary acting as the identity on the range of P.

    The move reads P's 0/1 site mask and the greedy match list: U must
    be the identity on the index blocks of P's range, and the matches
    must cover the range of P exactly (every site of the matched region
    used as a target, no stacked column twice), an integer check that
    makes VV* = 1 for the 0/1 intertwiner V.  The path is Z_t = V W_t V*
    for the log contraction W_t of U ⊕ 1 on the stacked window.  V fixes
    every site off P (the cover check leaves those rows only their own
    column) and U ⊕ 1 moves only those sites, so Z_t is, entry for
    entry, the log contraction of U on the block of P⊥ in the base
    window, which is what the move builds: no stacked array is formed.
    """
    seg = _stacked_segment(u, p, v_iso)
    return HomotopyPath(
        (seg,), BlockSample.identity(p.window.dimension), BlockSample.whole(u.entries)
    )


def _stacked_segment(u: Operator, p: Projection, v_iso: GreedyIsometry) -> SpectralSegment:
    """The segment 1 -> U of block_unitary_homotopy, after the checks on
    its inputs; the path that holds it checks its ends."""
    base = p.window
    if u.window != base:
        raise WindowMismatchError("operator and projection on different windows")
    amp = v_iso.window
    if not isinstance(amp, AmplifiedWindow) or amp.base != base:
        raise WindowMismatchError("isometry does not stack the projection's window")
    on, off = _mask_sites(p, "stacked move")
    ue = u.entries
    blocks = (ue[np.ix_(on, on)] - np.eye(on.size), ue[np.ix_(on, off)], ue[np.ix_(off, on)])
    if not all(norm_at_most(block, TOL_BLOCK_FORM) for block in blocks):
        r_fix, r_up, r_low = map(spectral_norm, blocks)
        raise PreconditionError(
            "operator does not act as the identity on the projection range: "
            f"|PUP - P| = {r_fix:.3e}, |PUP~| = {r_up:.3e}, |P~UP| = {r_low:.3e}"
        )
    _check_intertwiner(off, v_iso)
    return dataclasses.replace(_log_segment(base, ue, [off], flip=True), kind="block_unitary")


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class CertifyConfig:
    """What to measure along a path.

    ``arc_pairs`` lists disjoint cone pairs for the locality defect; the
    block norm is taken outside a ball of ``allowance_radius`` (default
    half the window radius) so a fixed finite-rank part is exempt.
    ``index_base`` enables the integer index trace on projection paths
    (a first sample hermitian and idempotent within ``TOL_PROJECTION``).
    """

    samples: int = 50
    arc_pairs: tuple = ()
    allowance_radius: object = None
    index_base: Operator | None = None
    index_config: IndexConfig | None = None

    def __post_init__(self) -> None:
        if self.samples < 2:
            raise PreconditionError("certification needs at least two samples")
        for pair in self.arc_pairs:
            if len(pair) != 2:
                raise PreconditionError("arc_pairs entries must be (row, col) arcs")
            if not arcs_disjoint(pair[0], pair[1]):
                raise PreconditionError("locality arcs must be disjoint")


@dataclass(frozen=True)
class CertificateReport:
    """Path quality; aggregates plus the per-sample series.

    Each series row ends with its ``measure``: ``dense`` when the
    unitarity defect and smallest singular value were measured on the
    sample, ``bound`` when they are rigorous bounds (an upper and a
    lower bound) from the segment's factors.  The aggregates combine
    both, so they are themselves bounds wherever a bound row enters.
    """

    samples: int
    max_unitarity_defect: float
    min_singular_value: float
    max_locality_defect: float
    max_idempotency_defect: float
    index_trace: tuple
    endpoint_errors: tuple
    segment_stats: tuple
    series: tuple
    is_projection_path: bool

    def __post_init__(self) -> None:
        reals = (
            self.max_unitarity_defect,
            self.min_singular_value,
            self.max_locality_defect,
            self.max_idempotency_defect,
            *self.endpoint_errors,
        )
        if any(x < 0.0 for x in reals):
            raise PreconditionError("certificate reals must be non-negative")
        if len(self.endpoint_errors) != 2:
            raise PreconditionError("endpoint_errors is a pair")

    def to_json_dict(self) -> dict:
        return {
            "format": "certificate v1",
            "samples": self.samples,
            "max_unitarity_defect": self.max_unitarity_defect,
            "min_singular_value": self.min_singular_value,
            "max_locality_defect": self.max_locality_defect,
            "max_idempotency_defect": self.max_idempotency_defect,
            "index_trace": list(self.index_trace),
            "endpoint_errors": list(self.endpoint_errors),
            "segment_stats": [dict(s) for s in self.segment_stats],
            "is_projection_path": self.is_projection_path,
            "series_columns": list(self.series_columns()),
            "series": [list(row) for row in self.series],
        }

    @staticmethod
    def series_columns() -> tuple:
        return (
            "t",
            "unitarity_defect",
            "min_singular_value",
            "locality_defect",
            "idempotency_defect",
            "index",
            "measure",
        )

    def csv_rows(self):
        yield ",".join(self.series_columns())
        for t, unit, sv, loc, idem, idx, measure in self.series:
            tail = "" if idx is None else str(int(idx))
            yield f"{t!r},{unit!r},{sv!r},{loc!r},{idem!r},{tail},{measure}"


def _locality_indices(window, arc: Arc, allowance) -> np.ndarray:
    """Sites of cone(arc) with |x| >= allowance."""
    return np.flatnonzero(region_mask(Cone(arc) & ~Ball(allowance), window))


def _gram_defects(eigs: np.ndarray) -> tuple:
    """(max |lambda - 1|, sqrt(lambda_min)) over Gram eigenvalues."""
    return float(np.max(np.abs(eigs - 1.0))), math.sqrt(max(float(eigs.min()), 0.0))


def _locality(block, pair_indices) -> float:
    return max(
        (spectral_norm(block(rows, cols)) for rows, cols in pair_indices if rows.size and cols.size),
        default=0.0,
    )


def _skew_parts(sample: BlockSample) -> tuple:
    """X - X* of a sample, which is block diagonal over S and the sites
    off it, in two parts: the largest modulus off S, 2 max |Im p_i|
    (p - p̄ is 2i Im p exactly), and B - B* on S."""
    out, blk = sample.outside(), sample.block
    return 2.0 * float(np.max(np.abs(out.imag), initial=0.0)), blk - blk.conj().T


def _idempotency_parts(sample: BlockSample) -> tuple:
    """X^2 - X of a sample in the same two parts: max |p_i^2 - p_i| off S,
    and B^2 - B on S."""
    out, blk = sample.outside(), sample.block
    return float(np.max(np.abs(out * out - out), initial=0.0)), blk @ blk - blk


def _is_projection(sample: BlockSample, tol: float) -> bool:
    """Hermitian and idempotent within tol, decided on the sample's two
    parts: each defect's norm is the larger of its parts' norms.  A skew
    part over tol settles "no" before the square is formed."""
    for parts in (_skew_parts, _idempotency_parts):
        outside, block = parts(sample)
        if outside > tol or not norm_at_most(block, tol):
            return False
    return True


def _idempotency_defect(sample: BlockSample) -> float:
    """||P^2 - P|| of a sample: the larger of its parts' norms."""
    outside, block = _idempotency_parts(sample)
    return max(outside, spectral_norm(block))


def certify_path(path: HomotopyPath, config: CertifyConfig | None = None) -> CertificateReport:
    """Sample the path and measure everything the certificate promises.

    One loop measures every sample through its segment's form.  At the
    interior samples of a segment of a unitary path whose form has a
    :class:`SpectrumBound` (polar climbs, rotations, rotations of a right
    factor, the stacked move), the unitarity defect and the smallest
    singular value are that rigorous bound.  Everywhere else they are
    measured on the exact Gram spectrum that the form gives from its own
    data (``gram``): an affine segment from a quadratic in t of three
    products, a spectral segment from its stacks' blocks and the
    identity's or g's spectrum off them, a conjugation segment from its
    block sample.  A bound segment is so measured at its first and last
    sample, where the certificate records how far the value lies inside
    the bound; a constant affine segment is measured once, on its start.
    Each spectrum runs per connected component of the form's pattern,
    stacked by size, which is exact (every sample is block diagonal over
    them); an irreducible segment is one component.  Segment stats
    record ``largest_block``, the largest block measured.

    The locality defect is always measured: the largest block norm over
    the configured cone pairs, outside the allowance ball, each block
    cut from the segment's factors (``block``) on a unitary path and
    from the sample formed at t (``BlockSample.cut``) on a projection
    path.  Projection paths add the idempotency defect and, with
    ``index_base``, the index of P B P + 1 - P at every sample.  B is read
    once per path into its nonzero list, and the index's window masks
    are computed once per path (``_masks``); each sample's T is built as
    a nonzero list from the sample's diagonal, sites and block
    (``_compressed``), with no d x d array unless the block is the whole
    window.  ``index_base`` on a path that does not start at a
    projection raises PreconditionError.

    The first sample, ``sample(0.0)`` of the first segment, is formed for
    the projection test and the start error, and the last for the end
    error.  The projection test is decided on the block sample: X is
    block diagonal over S and the sites off it, so ||X - X*|| and
    ||X^2 - X|| are each the larger of a diagonal part off S and a
    block part on S.  Both errors compare the sample with the path's
    declared end on the union of their site sets (``_difference``), as
    spectral norms per component of the difference's pattern, which is
    exact.  A unitary path releases the first sample and forms no other:
    two samples in all.  A projection path keeps it as its t = 0 sample
    and forms one per t after it (a block sample on a conjugation
    segment): ``samples`` in all.  On a conjugation path every check is
    made on the moving block, with no d x d array.
    """
    config = config or CertifyConfig()
    window = path.window
    if config.arc_pairs:
        if not isinstance(window, TruncationWindow) or window.representation != "Z2":
            raise PreconditionError("locality arcs need a planar window")
        allowance = (
            config.allowance_radius
            if config.allowance_radius is not None
            else Fraction(window.radius) / 2
        )
        pair_indices = [
            (_locality_indices(window, row, allowance), _locality_indices(window, col, allowance))
            for row, col in config.arc_pairs
        ]
    else:
        pair_indices = []

    sample = path.segments[0].sample(0.0)
    is_projection = _is_projection(sample, TOL_PROJECTION)
    if config.index_base is not None and not is_projection:
        raise PreconditionError(
            "an index trace needs a projection path, but the path does not start "
            f"at a projection (tolerance {TOL_PROJECTION:.1e})"
        )
    start_error = _spectral_gap(sample, path.declared_start)
    if not is_projection:
        sample = None  # a unitary path is measured from its forms

    index_config = config.index_config or IndexConfig()
    index_method = "kernel_count" if index_config.cut_sites else "trace_formula"
    base = masks = None
    if config.index_base is not None:  # read once per path
        base = _nonzero(config.index_base.entries)
        masks = _masks(window, index_config)

    ts = [float(t) for t in np.linspace(0.0, 1.0, config.samples)]
    owners = [path.segment_of(t) for t in ts]
    n_segs = len(path.segments)
    series, index_trace, stats = [], [], []
    for i, seg in enumerate(path.segments):
        picks = [k for k, owner in enumerate(owners) if owner == i]
        bound = None if is_projection else seg.spectrum_bound()
        once = not is_projection and seg.is_constant()
        spectrum, largest = seg.gram()
        rows, excesses, dense = [], [], 0
        for j, k in enumerate(picks):
            t = ts[k]
            if once and j:
                rows.append((t,) + rows[0][1:])
                continue
            s = 0.0 if once else t * n_segs - i
            if is_projection and k:
                sample = seg.sample(s)  # the first is the one formed above
            if bound is not None and 0 < j < len(picks) - 1:
                unit, sv = bound.at(s)
                measure = "bound"
            else:
                dense += 1
                unit, sv = _gram_defects(spectrum(s, sample))
                measure = "dense"
                if bound is not None:
                    unit_bound, sv_bound = bound.at(s)
                    excesses.append(max(unit - unit_bound, sv_bound - sv))
            loc = _locality(sample.cut if is_projection else partial(seg.block, s), pair_indices)
            idem_defect, sample_index = 0.0, None
            if is_projection:
                idem_defect = _idempotency_defect(sample)
                if base is not None:
                    compressed = _compressed(
                        window, sample.diag, sample.sites, sample.block, base, masks
                    )
                    sample_index = fredholm_index(compressed, index_method, index_config).value
                    index_trace.append(sample_index)
            rows.append((t, unit, sv, loc, idem_defect, sample_index, measure))
        del spectrum  # a form's Gram terms live only while it is measured
        series.extend(rows)
        stats.append(
            {
                "kind": seg.kind,
                "label": seg.label,
                "reversed": seg.flip,
                "samples": len(picks),
                "dense_samples": dense,
                "max_unitarity_defect": max((row[1] for row in rows), default=0.0),
                "min_singular_value": min((row[2] for row in rows), default=None),
                "max_locality_defect": max((row[3] for row in rows), default=0.0),
                "max_bound_excess": max(excesses, default=None),
                "largest_block": largest,
            }
        )

    if not is_projection:
        sample = path.segments[-1].sample(1.0)
    endpoint_errors = (start_error, _spectral_gap(sample, path.declared_end, spare=True))
    return CertificateReport(
        samples=config.samples,
        max_unitarity_defect=max(row[1] for row in series),
        min_singular_value=min(row[2] for row in series),
        max_locality_defect=max(row[3] for row in series),
        max_idempotency_defect=max(row[4] for row in series),
        index_trace=tuple(index_trace),
        endpoint_errors=endpoint_errors,
        segment_stats=tuple(stats),
        series=tuple(series),
        is_projection_path=is_projection,
    )


# ---------------------------------------------------------------------------
# the full pipeline


CENTER_DIRECTIONS = (Direction(1, 0), Direction(0, 1))


@dataclass(frozen=True)
class PipelineConfig:
    """The unitary-to-identity pipeline localizes its centers along
    ``CENTER_DIRECTIONS``.  ``copies`` is how many stacked copies its
    greedy matching may use: it changes the matching, not the path."""

    copies: int = 1
    certify: CertifyConfig | None = None

    def __post_init__(self) -> None:
        if self.copies < 1:
            raise PreconditionError("the stacked move needs at least one extra copy")


def theorem1_pipeline(
    u: Operator, eps: float, config: PipelineConfig | None = None
) -> tuple:
    """Deform a localizable unitary to the identity and certify the path.

    Stages: straight line onto the surgically deformed operator, a
    per-block rotation that straightens the confined columns, a short
    normalization line, the reversed block peel, the polar climb back
    to the unitaries, the reversed stacked-isometry move, and the
    certificate.  The path is assembled once from the segments, in the
    stage ``path``, which checks every joint.  Any stage failure,
    including a failed decomposition (``LinAlgError``), is re-raised as
    a StageError with its stage name attached.
    """
    config = config or PipelineConfig()
    window = u.window
    if not isinstance(window, TruncationWindow) or window.representation != "Z2":
        raise PreconditionError("the pipeline runs on a planar window")
    defect = u.unitarity_defect()
    if defect > TOL_BLOCK_FORM:
        raise UnitarityError(f"pipeline input unitarity defect {defect:.3e}")
    if not 0.0 < eps < 1.0:
        raise PreconditionError("eps must lie in (0, 1) to keep the line invertible")
    dim = window.dimension

    def stage(name, fn):
        try:
            return fn()
        except StageError:
            raise  # already carries the more precise inner stage name
        except (OplabError, np.linalg.LinAlgError) as exc:
            raise StageError(name, f"{type(exc).__name__}: {exc}") from exc

    g, plan = stage("localized-centers", lambda: localized_centers(u, CENTER_DIRECTIONS, eps))
    # ‖U - G‖ < 1 is ‖U - G‖ <= the double below 1
    if not norm_at_most(u.entries - g.entries, np.nextafter(1.0, 0.0)):
        raise StageError(
            "localized-centers",
            f"deformation size {spectral_norm(u.entries - g.entries):.3e} reaches 1",
        )
    line = AffineSegment.between(
        "straight_line", window, u.entries, g.entries, label="onto-deformed"
    )

    def straighten():
        # V is exactly the identity off the union of the ranges
        v = corrective_unitary(g, plan)
        blocks = [[window.index_of(site) for site in block] for block in plan.ranges]
        union = np.unique(np.concatenate(blocks))
        vg = g.entries.copy()
        vg[union] = v.entries[np.ix_(union, union)] @ g.entries[union]
        return vg, _log_segment(window, v.entries, blocks, right=g.entries, flip=True)

    vg, correct = stage("corrective-unitary", straighten)

    centers = Explicit(frozenset(plan.centers))
    p_centers = Projection.from_region(centers, window)
    on, _ = _mask_sites(p_centers, "pipeline")
    # snap each confined column to its basis vector so the peel
    # precondition is exact (the corrective rotation already left it
    # within 1e-10 of a multiple of that vector)
    snapped = np.zeros((dim, on.size), dtype=np.complex128)
    snapped[on, np.arange(on.size)] = 1.0
    normalize = AffineSegment(
        "straight_line", window, vg, _NO_SITES, vg[:0], on, snapped, label="normalize-centers"
    )

    f1, peel = stage(
        "block-peel",
        lambda: _block_peel(Operator(window, normalize.sample(1.0).dense()), p_centers),
    )
    polar = stage("polar", lambda: _polar_segment(f1))

    v_iso = stage(
        "greedy-isometry",
        lambda: greedy_isometry(centers, config.copies, window, require_ray_dense=False),
    )

    # the polar end W rotates back to the identity off P
    absorbed = stage(
        "block-unitary",
        lambda: _stacked_segment(Operator(window, polar.at(1.0)), p_centers, v_iso),
    )

    path = stage(
        "path",
        lambda: HomotopyPath(
            (line, correct, normalize, peel.reversed(), polar, absorbed.reversed()),
            BlockSample.whole(u.entries),
            BlockSample.identity(dim),
        ),
    )
    report = stage("certify", lambda: certify_path(path, config.certify or CertifyConfig()))
    return path, report
