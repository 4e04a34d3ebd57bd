"""Shared test settings.

Property tests draw a fixed, bounded set of examples: ``derandomize``
seeds Hypothesis from each test's own source, so every run checks the
same inputs, and no deadline applies because dense linear algebra on a
shared machine has no stable per-example time.

``tailed_pipeline`` runs the full pipeline once per test run on a
unitary with no zero entry, for the tests that inspect its path.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from oplab.geometry import Arc, Direction
from oplab.homotopy import CertifyConfig, PipelineConfig, theorem1_pipeline
from oplab.operators import Operator, laughlin_operator
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


TAILED_ARCS = ((Arc(Direction(1, -1), Direction(1, 1)), Arc(Direction(-1, 1), Direction(-1, -1))),)


@pytest.fixture(scope="session")
def tailed_pipeline():
    """(u, path, report, config) of the pipeline at radius 12, seed 1,
    eps 0.5, certified with one cone pair."""
    u = tailed_unitary(TruncationWindow.plane(12), 1)
    certify = CertifyConfig(arc_pairs=TAILED_ARCS)
    path, report = theorem1_pipeline(u, 0.5, PipelineConfig(certify=certify))
    return u, path, report, certify
