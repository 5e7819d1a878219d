"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` runs tests that take the
profile's example count (the cross-check against the cycle-stepped
oracle) with more examples than the default.

Hypothesis's pytest plugin imports ``hypothesis.extra._patching`` while it
reports a failing test.  With libcst installed, that import warns about
``mypy_extensions.TypedDict``, and under ``-W error`` the warning ends the
session with an INTERNALERROR, so no later test runs.  The module is
imported here once, with only that warning ignored.
"""

import os
import warnings

from hypothesis import settings

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # an optional dependency is missing; the plugin then skips the import too
        pass

settings.register_profile("ci", max_examples=600)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
