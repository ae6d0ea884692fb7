"""Hypothesis profiles for the test suite.

``deterministic``, the default, draws the same examples on every run and
keeps no example database, so a checkout's result depends on its code
only: each property test keeps its own ``max_examples`` and deadline, and
a counterexample is pinned with ``@example`` next to the test. ``explore``
draws fresh random examples (and stores failures in ``.hypothesis/``); run
it on purpose, not as part of the test tier:

    HYPOTHESIS_PROFILE=explore python -m pytest -q tests
"""

import os

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))
