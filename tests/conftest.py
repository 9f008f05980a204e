"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` selects ``ci``, which
derandomizes example generation and drops the deadline, so a property that
fails there fails the same way on any machine; unset, the default profile
applies."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
