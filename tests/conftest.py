"""Test-session set-up.

karnet is imported first, before anything loads numpy, so the tests run
BLAS at karnet's thread policy (one thread unless the environment sets a
count), as the CLI does.

Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` selects ``ci``, which
derandomizes example generation and drops the deadline, so a property that
fails there fails the same way on any machine; unset, the default profile
applies."""

import karnet  # noqa: F401  (sets the BLAS thread variables numpy reads as it loads)
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
