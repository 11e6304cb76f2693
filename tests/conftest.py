"""Shared test configuration: a deterministic hypothesis profile and cold memo caches."""

import pytest
from hypothesis import HealthCheck, settings

from ppmod.memo import CACHES

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


@pytest.fixture
def cold_caches():
    """Every memo cache empty for the test, and given back its entries after."""
    saved = [(wrapper, list(wrapper.cache.items())) for wrapper in CACHES]
    for wrapper in CACHES:
        wrapper.cache.clear()
    yield
    for wrapper, entries in saved:
        wrapper.cache.clear()
        wrapper.cache.update(entries)
