"""Shared test settings.

Property tests draw a fixed, bounded set of examples: ``derandomize``
seeds Hypothesis from each test's own source, so every run checks the
same inputs, and no deadline applies because dense linear algebra on a
shared machine has no stable per-example time.
"""

from hypothesis import settings

settings.register_profile(
    "oplab", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("oplab")
