"""Test-suite configuration: hypothesis runs the same examples on every run."""

from hypothesis import settings

settings.register_profile("gausstomo", derandomize=True, deadline=None)
settings.load_profile("gausstomo")
