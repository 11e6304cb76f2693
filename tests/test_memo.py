"""The one result cache: keyed by fingerprints, transparent to introspection."""

import pytest

from ppmod import evaluate, fixtures
from ppmod.errors import SideMismatch
from ppmod.memo import memo
from ppmod.modules import dual_module, make_module
from ppmod.scalars import end_and_biend


def test_memo_computes_once_per_key_and_keeps_metadata():
    calls = []

    @memo(lambda x, y: x)
    def first(x, y):
        """Doc read by tracers."""
        calls.append((x, y))
        return [x, y]

    assert first(1, "a") is first(1, "b")
    assert first(2, "c") == [2, "c"]
    assert calls == [(1, "a"), (2, "c")]
    assert first.__name__ == "first" and first.__doc__ == "Doc read by tracers."
    assert first.__wrapped__(3, "d") == [3, "d"]
    assert set(first.cache) == {1, 2}


def test_cached_layers_share_results_by_fingerprint():
    rr = fixtures.mod_rr()
    twin = make_module(rr.algebra, rr.side, rr.dim, rr.actions.copy())
    assert twin is not rr
    assert end_and_biend(rr) is end_and_biend(twin)
    assert rr.fingerprint() in end_and_biend.cache
    assert evaluate(fixtures.xt0(), rr) is evaluate(fixtures.xt0(), twin)


def test_failed_calls_are_not_cached():
    phi, left = fixtures.xt0(), dual_module(fixtures.mod_rr())
    for _ in range(2):
        with pytest.raises(SideMismatch):
            evaluate(phi, left)
    assert (phi.fingerprint(), left.fingerprint()) not in evaluate.cache
