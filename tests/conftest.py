"""Shared test settings.

Property tests draw a fixed, bounded set of examples: ``derandomize``
seeds Hypothesis from each test's own source, so every run checks the
same inputs, and no deadline applies because dense linear algebra on a
shared machine has no stable per-example time.

``tailed_pipeline`` runs the full pipeline once per test run on a
unitary with no zero entry, for the tests that inspect its path.

``dense_factors`` and ``with_factors`` are test oracles for the path
segments, which keep their factors per connected component:
``dense_factors`` rebuilds the whole-window arrays, and ``with_factors``
builds a segment from whole-window arrays.  ``traced_peak`` measures
the memory a call allocates.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from oplab.geometry import Arc, Direction
from oplab.homotopy import (
    AffineSegment,
    CertifyConfig,
    PipelineConfig,
    SpectralSegment,
    Stack,
    _stacked,
    theorem1_pipeline,
)
from oplab.operators import Operator, component_order, laughlin_operator
from oplab.windows import TruncationWindow

settings.register_profile(
    "oplab", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("oplab")


def tailed_unitary(window, seed):
    """Angular phase times exp(iH), H a seeded nearest-neighbour Hermitian:
    no entry is zero, so the deletion series has real blocks to cut."""
    rng = np.random.default_rng(seed)
    h = np.diag(rng.standard_normal(window.dimension)).astype(np.complex128)
    for site in window.sites:
        for nb in ((site[0] + 1, site[1]), (site[0], site[1] + 1)):
            if nb in window:
                i, j = window.index_of(site), window.index_of(nb)
                z = complex(rng.standard_normal(), rng.standard_normal())
                hop = 0.3 * z / np.sqrt(2.0)
                h[i, j] = hop
                h[j, i] = np.conj(hop)
    return Operator(window, laughlin_operator(window).entries @ scipy.linalg.expm(1j * h))


def greedy_operator(iso):
    """The dense 0/1 matrix V of a greedy isometry, built from its
    matches: column (stack, source) holds a 1 in row (0, target)."""
    amp = iso.window
    v = np.zeros((amp.dimension, amp.dimension), dtype=np.complex128)
    for m in iso.matches:
        v[amp.index_of(0, m.target), amp.index_of(m.stack, m.source)] = 1.0
    return v


def traced_peak(fn):
    """(fn(), the peak of the memory traced while fn runs, in bytes)."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def dense_factors(seg):
    """The whole-window factors of a segment, from what it keeps.

    A spectral segment gives L (d x k), its exponents z, R (k x d), C
    (d x d) and its factor g: the stacks' blocks placed on their sites
    and modes, C the identity (or g) off the stacks and zero between
    components.  An affine segment gives A and B, B being A with its
    kept rows and columns written over it.
    """
    if isinstance(seg, AffineSegment):
        end = seg.start.copy()
        end[seg.rows] = seg.row_entries
        end[:, seg.cols] = seg.col_entries
        return {"start": seg.start, "end": end}
    d, k = seg.window.dimension, seg.exponents.size
    left = np.zeros((d, k), dtype=np.complex128)
    right = np.zeros((k, d), dtype=np.complex128)
    if seg.factor is None:
        const = np.eye(d, dtype=np.complex128)
    else:
        const = seg.factor.astype(np.complex128)
    for st in seg.stacks:
        sites, modes = st.sites[:, :, None], st.modes[:, :, None]
        left[sites, st.modes[:, None, :]] = st.left
        right[modes, st.sites[:, None, :]] = st.right
        const[sites, st.sites[:, None, :]] = 0.0 if st.const is None else st.const
    return {
        "left": left,
        "exponents": seg.exponents,
        "right": right,
        "const": const,
        "factor": seg.factor,
    }


def with_factors(seg, **changes):
    """The spectral segment ``seg`` with some of its whole-window factors
    (keys of ``dense_factors``) replaced, kept as stacks: the components
    of the full pattern of C, g, L and R (mode k joins the rows of
    L[:, k] and the columns of R[k, :]), each stacked when it holds a
    mode or its C block differs from the identity (or g)."""
    f = {**dense_factors(seg), **changes}
    left, right, const, g = f["left"], f["right"], f["const"], f["factor"]
    d, k = left.shape
    pattern = np.zeros((d + k, d + k), dtype=bool)
    pattern[:d, :d] = const != 0
    if g is not None:
        pattern[:d, :d] |= g != 0
    pattern[:d, d:] = left != 0
    pattern[d:, :d] = right != 0
    order, starts = component_order(pattern)
    base = np.eye(d) if g is None else g
    stacks = []
    for nodes in np.split(order, starts[1:]):
        sites, modes = nodes[nodes < d], nodes[nodes >= d] - d
        block = const[np.ix_(sites, sites)]
        if sites.size and (modes.size or not np.array_equal(block, base[np.ix_(sites, sites)])):
            stacks.append(
                Stack(
                    sites[None],
                    modes[None],
                    left[np.ix_(sites, modes)][None],
                    right[np.ix_(modes, sites)][None],
                    block[None],
                )
            )
    return SpectralSegment(
        seg.kind,
        seg.window,
        f["exponents"],
        _stacked(stacks),
        factor=g,
        flip=seg.flip,
        label=seg.label,
    )


TAILED_ARCS = ((Arc(Direction(1, -1), Direction(1, 1)), Arc(Direction(-1, 1), Direction(-1, -1))),)


@pytest.fixture(scope="session")
def tailed_pipeline():
    """(u, path, report, config) of the pipeline at radius 12, seed 1,
    eps 0.5, certified with one cone pair."""
    u = tailed_unitary(TruncationWindow.plane(12), 1)
    certify = CertifyConfig(arc_pairs=TAILED_ARCS)
    path, report = theorem1_pipeline(u, 0.5, PipelineConfig(certify=certify))
    return u, path, report, certify
