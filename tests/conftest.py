"""Shared test configuration.

Keeps hypothesis deterministic-ish and patient: the exact engine does real
work per example, so the default deadline is too strict for the larger hosts.
Every test starts at the default size cap, whatever MESHPERM_MAX_N the
calling shell exports; a test that needs another cap sets it itself.
"""

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "meshperm",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.load_profile("meshperm")


@pytest.fixture(autouse=True)
def _default_cap(monkeypatch):
    monkeypatch.delenv("MESHPERM_MAX_N", raising=False)
