"""Purity, pullback/pushout transfer, and definable context membership."""

import itertools
import random

import numpy as np
import pytest

from ppmod import (
    Field,
    direct_sum,
    evaluate,
    linalg,
    make_context,
    make_map,
    member_check,
    pair_closed,
    pullback_pure,
    purity_check,
    pushout_pure,
    strict_atomic_witness,
)
from ppmod.errors import (
    AlgebraMismatch,
    EmptyContext,
    NoExplicitPairs,
    NotInSolutionSet,
    ValidationFailure,
)
from ppmod.acceptance import _random_automorphism, _random_hom
from ppmod.fixtures import divt, mod_rr, mod_s, r2, right_grid, xt0

F2 = Field(2)


def identity_on(m):
    return make_map(m, m, linalg.eye(F2, m.dim))


def test_identity_is_pure_both_ways():
    rep = purity_check(identity_on(mod_rr()))
    assert rep.pure_mono and rep.pure_epi
    assert rep.mono_witness is None and rep.epi_witness is None


def test_split_maps_are_pure():
    ds = direct_sum([mod_s(), mod_rr()])
    inj = ds.injections[0]
    rep = purity_check(inj)
    assert rep.pure_mono and not rep.pure_epi
    proj = ds.projections[1]
    rep2 = purity_check(proj)
    assert rep2.pure_epi and not rep2.pure_mono


def test_split_sides_list_no_elements(monkeypatch):
    import ppmod.defcat

    rr = mod_rr()
    ds = direct_sum([mod_s(), rr])
    inj, proj = ds.injections[0], ds.projections[1]
    # the first pullback of acceptance criterion 4: its projection is a pure epi
    rng = random.Random(404)
    grid = [m for m in right_grid(r2()) if 1 <= m.dim <= 2]
    n, b, m = (grid[rng.randrange(len(grid))] for _ in range(3))
    sq = direct_sum([n, b])
    p = _random_automorphism(rng, sq.module).compose(sq.projections[0])
    to_source = pullback_pure(_random_hom(rng, m, n), p).to_source
    homs, walks = [], []
    hom_basis, first_outside = ppmod.defcat.hom_basis, ppmod.defcat._first_outside

    def counted_homs(a, b):
        homs.append((a, b))
        return hom_basis(a, b)

    def counted_walks(field, dim, stack):
        walks.append(dim)
        return first_outside(field, dim, stack)

    monkeypatch.setattr(ppmod.defcat, "hom_basis", counted_homs)
    monkeypatch.setattr(ppmod.defcat, "_first_outside", counted_walks)
    maps = (identity_on(rr), inj, proj, to_source)
    reports = [purity_check(f) for f in maps]
    assert reports[0].pure_mono and reports[0].pure_epi
    assert reports[1].pure_mono and reports[2].pure_epi and reports[3].pure_epi
    # a side that does not split walks elements for its witness; a split side never
    assert walks == [
        dim
        for f, rep in zip(maps, reports)
        for dim, pure in ((f.source.dim, rep.pure_mono), (f.target.dim, rep.pure_epi))
        if not pure
    ]
    # one Hom(target, source) per purity_check
    assert [(a.fingerprint(), b.fingerprint()) for a, b in homs] == [
        (f.target.fingerprint(), f.source.fingerprint()) for f in maps
    ]


def test_purity_builds_a_type_generator_only_for_a_reported_witness(monkeypatch):
    import ppmod.defcat

    calls = []
    real = ppmod.defcat.pp_type_generator

    def counted(m, vectors):
        calls.append(m)
        return real(m, vectors)

    monkeypatch.setattr(ppmod.defcat, "pp_type_generator", counted)
    rng = random.Random(5)
    grid = [m for m in right_grid(r2()) if m.dim <= 2]
    for m, n in itertools.product(grid, repeat=2):
        ds = direct_sum([m, n])
        maps = [make_map(m, n, np.zeros((m.dim, n.dim), dtype=np.int16)), _random_hom(rng, m, n)]
        for f_map in maps + list(ds.injections) + list(ds.projections):
            calls.clear()
            rep = purity_check(f_map)
            # at most one per side that is not pure: the reported witness's type
            assert len(calls) == (rep.mono_witness is not None) + (rep.epi_witness is not None)
            assert len(calls) <= (not rep.pure_mono) + (not rep.pure_epi)


def test_strict_atomic_witness_builds_and_evaluates_no_formula(monkeypatch):
    import ppmod.defcat

    def forbidden(*args):
        raise AssertionError("strict_atomic_witness built or evaluated a formula")

    for name in ("pp_type_generator", "evaluate"):
        monkeypatch.setattr(ppmod.defcat, name, forbidden)
    rr, s = mod_rr(), mod_s()
    assert strict_atomic_witness(rr, [[1, 0]], s, [[1]]).target is s
    with pytest.raises(NotInSolutionSet, match="^target tuple does not satisfy the pp-type generator$"):
        strict_atomic_witness(s, [[1]], rr, [[1, 0]])


def test_radical_embedding_is_not_pure():
    # s |-> t lands in the radical: t is divisible by t in RR, s is not in S
    emb = make_map(mod_s(), mod_rr(), [[0, 1]])
    assert emb.is_injective()
    rep = purity_check(emb)
    assert not rep.pure_mono
    assert rep.mono_witness is not None


def test_top_quotient_is_not_pure():
    quo = make_map(mod_rr(), mod_s(), [[1], [0]])
    assert linalg.rank(F2, quo.matrix) == quo.target.dim
    rep = purity_check(quo)
    assert not rep.pure_epi
    assert rep.epi_witness is not None


def test_pullback_of_pure_epi_is_pure_epi():
    rr, s = mod_rr(), mod_s()
    ds = direct_sum([s, rr])
    p = ds.projections[0]  # split, hence pure, epi onto S
    f = make_map(rr, s, [[1], [0]])
    res = pullback_pure(f, p)
    assert res.module.dim == rr.dim + ds.module.dim - s.dim
    # square commutes
    left = res.to_source.compose(f)
    right = res.to_cover.compose(p)
    assert np.array_equal(left.matrix, right.matrix)
    assert res.to_source_report.pure_epi
    assert res.inclusion_report.pure_mono


def test_pullback_transfers_pair_closure():
    rr = mod_rr()
    ds = direct_sum([rr, rr])
    ident = make_map(rr, rr, linalg.eye(F2, 2))
    res = pullback_pure(ident, ds.projections[0])
    phi, psi = xt0("right"), divt("right")
    # the pair is closed on every corner module, so it closes on X
    assert pair_closed(phi, psi, rr) and pair_closed(phi, psi, ds.module)
    assert pair_closed(phi, psi, res.module)
    from ppmod import are_isomorphic

    assert are_isomorphic(res.module, ds.module)


def test_pushout_of_pure_mono_is_pure_mono():
    rr, s = mod_rr(), mod_s()
    ds = direct_sum([s, rr])
    i = ds.injections[0]  # split, hence pure, mono from S
    f = make_map(s, rr, [[0, 1]])  # radical embedding as the pushed map
    res = pushout_pure(i, f)
    assert res.module.dim == ds.module.dim + rr.dim - s.dim
    left = i.compose(res.from_cover)
    right = f.compose(res.from_source)
    assert np.array_equal(left.matrix, right.matrix)
    assert res.from_source_report.pure_mono
    assert res.antidiagonal_report.pure_mono


def test_pullback_reports_honestly_without_purity():
    # along a non-pure epi the inclusion into the sum loses purity
    rr, s = mod_rr(), mod_s()
    quo = make_map(rr, s, [[1], [0]])
    res = pullback_pure(quo, quo)
    assert res.module.dim == 3
    assert not res.inclusion_report.pure_mono


def test_pullback_pushout_reject_mismatched_corners():
    rr, s = mod_rr(), mod_s()
    quo = make_map(rr, s, [[1], [0]])
    ident = make_map(rr, rr, linalg.eye(F2, 2))
    with pytest.raises(AlgebraMismatch):
        pullback_pure(quo, ident)
    with pytest.raises(AlgebraMismatch):
        pushout_pure(make_map(s, rr, [[0, 1]]), ident)


def test_member_check_needs_pairs():
    ctx = make_context([mod_s()])
    with pytest.raises(NoExplicitPairs):
        member_check(mod_rr(), ctx)


def test_member_check_with_explicit_pairs():
    pair = (xt0("right"), divt("right"))
    ctx = make_context([mod_rr()], pairs=[pair])
    assert member_check(mod_rr(), ctx)
    assert not member_check(mod_s(), ctx)


def test_make_context_validates():
    with pytest.raises(EmptyContext):
        make_context([])
    with pytest.raises(ValidationFailure):
        # wrong way around: the annihilator does not imply divisibility
        make_context([mod_rr()], pairs=[(divt("right"), xt0("right"))])


def test_pair_closed_matches_evaluation():
    phi, psi = xt0("right"), divt("right")
    for m in (mod_rr(), mod_s(), direct_sum([mod_rr(), mod_s()]).module):
        same = linalg.subspace_eq(evaluate(phi, m).basis, evaluate(psi, m).basis)
        assert pair_closed(phi, psi, m) == same


def test_strict_atomic_witness_maps_tuple():
    rr, s = mod_rr(), mod_s()
    w = strict_atomic_witness(rr, [[1, 0]], s, [[1]])
    assert w.source is rr and w.target is s
    assert np.array_equal(w.apply_tuple(F2.asarray([[1, 0]])), F2.asarray([[1]]))


def test_strict_atomic_witness_rejects_bad_target():
    rr, s = mod_rr(), mod_s()
    with pytest.raises(NotInSolutionSet):
        # 1 in RR fails x*t = 0, which generates the pp-type of 1 in S
        strict_atomic_witness(s, [[1]], rr, [[1, 0]])
