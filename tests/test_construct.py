"""Preenvelope chain construction and its verification reports."""

import numpy as np
import pytest

import ppmod.construct
import ppmod.formulas

from ppmod import (
    Budget,
    Field,
    are_isomorphic,
    consequence_enum,
    direct_sum,
    evaluate,
    leq_relative,
    make_context,
    pp_type_generator,
    run_construction,
    top,
    verify_factorisation,
    verify_generator,
)
from ppmod.errors import CapExceeded, ValidationFailure
from ppmod.fixtures import divt, mod_rr, mod_s, r2, xt0

F2 = Field(2)


def standard_run(budget=None):
    return run_construction(
        mod_rr(),
        [[1, 0]],
        make_context([mod_s()]),
        budget or Budget(2, 2, 64, 3),
    )


@pytest.fixture(scope="module")
def chain():
    """One shared default run; the state is frozen, so sharing is safe."""
    return standard_run()


def test_consequence_enum_collects_context_consequences():
    theta = top(r2(), "right", 1)
    ctx = make_context([mod_s()])
    out = consequence_enum(theta, ctx, Budget(2, 2, 64, 3))
    assert out.theta.fingerprint() == theta.fingerprint()
    assert not out.truncated
    assert len(out.formulas) == 2
    # every listed formula is a relative consequence of theta
    for phi in out.formulas:
        assert leq_relative(theta, phi, ctx)
    rendered = [p.render() for p in out.formulas]
    assert "x1*t = 0" in rendered  # S is killed by t


def test_consequence_enum_respects_candidate_cap():
    theta = top(r2(), "right", 1)
    ctx = make_context([mod_s()])
    out = consequence_enum(theta, ctx, Budget(2, 2, 1, 3))
    assert out.truncated
    assert len(out.formulas) == 1


def test_consequence_enum_refuses_a_block_past_the_cap():
    # arity 11 over R2: the first block (no bound variables, one
    # equation) already lists 4^11 > 2^20 candidates
    theta = top(r2(), "right", 11)
    with pytest.raises(CapExceeded, match="4\\^11"):
        consequence_enum(theta, make_context([mod_s()]), Budget(2, 2, 64, 3))


def test_a_demo_run_builds_formulas_only_for_accepted_candidates(monkeypatch):
    # consequences are decided on solution sets: rejected candidates
    # leave no evaluate entry and build no formula
    built = []
    # chi is built from blocks of the listing, past the door
    for module, name in ((ppmod.construct, "normalised"), (ppmod.formulas, "pp_formula")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=original: built.append(1) or _f(*a))
    saved = dict(evaluate.cache)
    evaluate.cache.clear()
    try:
        standard_run()
        assert len(evaluate.cache) <= 10
    finally:
        evaluate.cache.update(saved)
    assert len(built) <= 20


def test_worked_chain_stabilises_at_the_simple_module(chain):
    st = chain
    assert [stage.module.dim for stage in st.stages] == [2, 1, 1, 1]
    assert st.iso_stable_at == 1
    assert not st.budget_exhausted
    assert are_isomorphic(st.stages[1].module, mod_s())
    assert are_isomorphic(st.final, mod_s())


def test_iso_stable_at_marks_the_first_isomorphism_not_stability():
    # S in Def(R_R): B_1 and B_2 are both R_R, so the first isomorphism is
    # at step 1, but B_3 has odd dimension and so is not in add(R_R), whose
    # members all have even dimension
    rr = mod_rr()
    st = run_construction(mod_s(), [[1]], make_context([rr]), Budget(1, 1, 8, 3))
    assert [stage.module.dim for stage in st.stages] == [1, 2, 2, 3]
    assert st.iso_stable_at == 1
    assert are_isomorphic(st.stages[1].module, rr) and are_isomorphic(st.stages[2].module, rr)
    assert st.final.dim % rr.dim == 1


def test_chain_maps_compose_and_track_the_tuple(chain):
    st = chain
    for n, h in enumerate(st.maps):
        assert h.source.fingerprint() == st.stages[n].module.fingerprint()
        assert h.target.fingerprint() == st.stages[n + 1].module.fingerprint()
        got = h.apply_tuple(st.stages[n].a_image)
        assert np.array_equal(got, st.stages[n + 1].a_image)
    comp = st.maps[0]
    for h in st.maps[1:]:
        comp = comp.compose(h)
    assert np.array_equal(comp.apply_tuple(st.initial_tuple), st.stages[-1].a_image)


def test_stages_realise_their_conjunction(chain):
    st = chain
    for stage in st.stages[1:]:
        assert stage.realised is not None
        sol = evaluate(stage.realised, stage.module)
        assert sol.contains(stage.a_tuple)


def test_budget_exhaustion_is_flagged():
    st = standard_run(Budget(2, 2, 1, 2))
    assert st.budget_exhausted
    assert any(row.truncated for row in st.rows)


def test_factorisation_through_context_targets(chain):
    st = chain
    s = mod_s()
    s2 = direct_sum([s, s]).module
    rep = verify_factorisation(st, [s, s2])
    assert rep.ok
    assert rep.checked > 0
    assert rep.failures == ()


def test_factorisation_fails_outside_the_context(chain):
    st = chain
    rep = verify_factorisation(st, [mod_rr()])
    assert not rep.ok
    assert len(rep.failures) >= 1


def test_generator_check_accepts_the_type_generator(chain):
    st = chain
    assert verify_generator(st, top(r2(), "right", 1))
    gen = pp_type_generator(mod_rr(), F2.asarray([[1, 0]]))
    assert verify_generator(st, gen)


def test_generator_check_builds_no_type_generator(chain, monkeypatch):
    # each stage's image type is read off Hom(B_m, X)·a_m, never built
    def forbidden(*args):
        raise AssertionError("verify_generator built a pp-type generator")

    monkeypatch.setattr(ppmod.construct, "pp_type_generator", forbidden)
    monkeypatch.setattr(ppmod.formulas, "pp_type_generator", forbidden)
    assert verify_generator(chain, top(r2(), "right", 1))
    assert verify_generator(chain, chain.stages[0].theta)


def test_generator_check_rejects_non_generators(chain):
    st = chain
    with pytest.raises(ValidationFailure):
        verify_generator(st, divt("right"))


def test_construction_is_deterministic(chain):
    a = chain
    b = standard_run()
    assert len(a.stages) == len(b.stages)
    for sa, sb in zip(a.stages, b.stages):
        assert sa.module.fingerprint() == sb.module.fingerprint()
        assert np.array_equal(sa.a_image, sb.a_image)
        assert sa.theta.render() == sb.theta.render()
    for ha, hb in zip(a.maps, b.maps):
        assert np.array_equal(ha.matrix, hb.matrix)


def test_budget_controls_chain_length():
    st = standard_run(Budget(2, 2, 64, 1))
    assert len(st.stages) == 2
    assert len(standard_run(Budget(2, 2, 64, 2)).stages) == 3
