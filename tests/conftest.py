"""Shared test configuration.

Property tests use a registered hypothesis profile: derandomized, so every
run draws the same examples, and without a per-example deadline, so that a
slow or busy machine cannot make them fail.
"""

from hypothesis import settings

settings.register_profile("ght", deadline=None, derandomize=True)
settings.load_profile("ght")
