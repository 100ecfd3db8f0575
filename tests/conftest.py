"""Hypothesis settings for the test suite: a failing example prints the
blob that reproduces it (``@reproduce_failure``), so a failure seen only
on a CI runner can be replayed locally."""

from hypothesis import settings

settings.register_profile("nodecurves", print_blob=True)
settings.load_profile("nodecurves")
