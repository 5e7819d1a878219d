"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` runs tests that take the
profile's example count (the cross-check against the cycle-stepped
oracle) with more examples than the default."""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=600)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
