"""Suite-wide test configuration.

Hypothesis draws its examples from a fixed seed, so tier-1 is the same
run every time: a property that can fail fails on every run, not one
run in twenty.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
