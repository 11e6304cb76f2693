"""The one result cache: keyed by fingerprints, bounded, counted, transparent to introspection."""

import contextlib
import io

import numpy as np
import pytest

import ppmod.memo as memo_module
from ppmod import acceptance, evaluate, fixtures, linalg
from ppmod.algebras import make_algebra
from ppmod.cli import main
from ppmod.errors import SideMismatch
from ppmod.formulas import pp_formula
from ppmod.memo import CACHES, memo
from ppmod.modules import dual_module, hom_basis, make_module
from ppmod.scalars import end_and_biend
from test_cli import DEMO, GOLDEN_EVAL, GOLDEN_PREENVELOPE


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


def test_memo_counts_hits_misses_size_and_evictions(monkeypatch):
    monkeypatch.setattr(memo_module, "BOUND", 2)

    @memo(lambda x: x)
    def double(x):
        if x < 0:
            raise ValueError(x)
        return 2 * x

    assert double.stats() == {"hits": 0, "misses": 0, "evictions": 0, "size": 0, "bound": 2}
    double(1), double(1), double(2), double(1)  # 1 is now the most recent
    assert double.stats() == {"hits": 2, "misses": 2, "evictions": 0, "size": 2, "bound": 2}
    assert double(3) == 6  # evicts 2, the least recently used
    assert list(double.cache) == [1, 3]
    with pytest.raises(ValueError):
        double(-1)  # a failed call is a miss and is not cached
    assert double.stats() == {"hits": 2, "misses": 4, "evictions": 1, "size": 2, "bound": 2}
    assert double in CACHES


def test_cached_layers_share_results_by_fingerprint():
    rr = fixtures.mod_rr()
    twin = make_module(rr.algebra, rr.side, rr.dim, rr.actions.copy())
    assert twin is not rr
    assert end_and_biend(rr) is end_and_biend(twin)
    assert rr.fingerprint() in end_and_biend.cache
    assert evaluate(fixtures.xt0(), rr) is evaluate(fixtures.xt0(), twin)
    assert hom_basis(rr, twin) is hom_basis(twin, rr)


def test_failed_calls_are_not_cached():
    phi, left = fixtures.xt0(), dual_module(fixtures.mod_rr())
    for _ in range(2):
        with pytest.raises(SideMismatch):
            evaluate(phi, left)
        with pytest.raises(SideMismatch):
            hom_basis(fixtures.mod_rr(), left)
    assert (phi.fingerprint(), left.fingerprint()) not in evaluate.cache
    assert (fixtures.mod_rr().fingerprint(), left.fingerprint()) not in hom_basis.cache


def test_evaluate_keys_share_the_module_and_algebra_tuples(cold_caches):
    alg = fixtures.r2()
    modules = fixtures.right_grid(alg)[:3]
    formulas = fixtures.formula_corpus(alg)
    for m in modules:
        for phi in formulas:
            evaluate(phi, m)
    for m in modules:
        keys = [k for k in evaluate.cache if k[1] == m.fingerprint()]
        assert len(keys) == len({phi.fingerprint() for phi in formulas})
        # one tuple per module, and every key names the algebra by one tuple
        assert all(k[1] is m.fingerprint() for k in keys)
        assert all(k[0][0] is k[1][0] is alg.fingerprint() for k in keys)
    assert fixtures.mod_rr().fingerprint() is fixtures.mod_rr().fingerprint()


def test_fingerprinted_arrays_are_read_only_and_callers_keep_theirs():
    base = fixtures.r2()
    constants, unit = base.constants.copy(), base.unit.copy()
    alg = make_algebra(base.field, base.labels, constants, unit)
    actions = fixtures.mod_rr().actions.copy()
    m = make_module(alg, "right", 2, actions)
    a, b = np.array([[[0, 1]]], np.int16), np.array([[[1, 1]]], np.int16)
    phi = pp_formula(alg, "right", 1, a, b)
    before = [obj.fingerprint() for obj in (alg, m, phi)]
    for arr in (alg.constants, alg.unit, m.actions, phi.a, phi.b, hom_basis(m, m)):
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1
    for source in (constants, unit, actions, a, b):
        assert source.flags.writeable
        source.flat[0] ^= 1  # the objects copied what they were given
    assert [obj.fingerprint() for obj in (alg, m, phi)] == before
    assert np.array_equal(m.actions, fixtures.mod_rr().actions)


def test_criterion_3_solves_each_hom_space_once(monkeypatch, cold_caches):
    solved = []
    original = linalg.intertwiners
    monkeypatch.setattr(linalg, "intertwiners", lambda *args: solved.append(1) or original(*args))
    before = hom_basis.stats()
    ok, _ = acceptance.criterion_3_free_realisation()
    assert ok
    # one Sylvester null space per distinct (module, module) pair asked for
    after = hom_basis.stats()
    misses, hits = (after[k] - before[k] for k in ("misses", "hits"))
    assert len(solved) == misses == after["size"] < hits


def reports():
    """The golden eval and preenvelope reports, and criterion 5's verdict, in process."""
    out = []
    for args in (
        ["eval", "--workspace", DEMO, "--formula", "xt0", "--module", "RR"],
        ["preenvelope", "--workspace", DEMO, "--module", "RR", "--tuple", "[1, 0]",
         "--context", "envS", "--budget", "small"],
    ):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(args) == 0
        out.append(buffer.getvalue())
    return out, acceptance.criterion_5_construction()


def test_no_report_depends_on_eviction(monkeypatch, cold_caches):
    want = reports()
    assert want[0] == [GOLDEN_EVAL, GOLDEN_PREENVELOPE] and want[1][0]
    for wrapper in CACHES:
        wrapper.cache.clear()
    monkeypatch.setattr(memo_module, "BOUND", 2)
    before = evaluate.stats()["evictions"]
    assert reports() == want
    assert evaluate.stats()["evictions"] > before
    assert all(len(wrapper.cache) <= 2 for wrapper in CACHES)
