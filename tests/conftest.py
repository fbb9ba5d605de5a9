"""Shared test settings: Hypothesis runs a fixed example sequence, untimed."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
