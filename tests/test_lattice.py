"""pp-definable subgroup lattices, filters, and definability checks."""

import itertools
import signal

import numpy as np
import pytest

from ppmod import (
    Field,
    PpFilter,
    direct_sum,
    evaluate,
    filter_analysis,
    hasse_edges,
    is_pp_definable,
    linalg,
    pp_lattice,
    regular_module,
)
from ppmod.acceptance import criterion_7_lattice
from ppmod.errors import ArityMismatch, CapExceeded, ValidationFailure
from ppmod.fixtures import mod_rr, mod_s, r2, tri2
from ppmod.lattice import principal_closures

F2 = Field(2)


def test_rr_lattice_is_the_three_chain():
    lat = pp_lattice(mod_rr(), 1)
    assert lat.size == 3
    assert [e.dim for e in lat.elements] == [0, 1, 2]
    assert lat.bottom == 0 and lat.top == 2
    # total order
    for i in range(3):
        for j in range(3):
            assert bool(lat.leq[i, j]) == (i <= j)
    assert hasse_edges(lat) == [(0, 1), (1, 2)]


def test_witnesses_evaluate_to_their_elements():
    for m in (mod_rr(), regular_module(tri2(), "right")):
        lat = pp_lattice(m, 1)
        for i in range(lat.size):
            sol = evaluate(lat.witnesses[i], m)
            assert linalg.subspace_eq(sol.basis, lat.elements[i].basis)


def intersection_by_listing(field, u, w):
    """The members of rowspace(u) that lie in rowspace(w), as a canonical basis."""
    members = linalg.matmul(field, linalg.all_vectors(field, u.shape[0]), u)
    inside = [v for v in members if linalg.in_span(field, w, v)]
    return linalg.row_space(field, np.array(inside, dtype=u.dtype).reshape(-1, u.shape[1]))


def test_lattice_operations_match_subspace_operations():
    m = regular_module(tri2(), "right")
    lat = pp_lattice(m, 1)
    assert lat.size == 7
    f = m.algebra.field
    for i in range(lat.size):
        for j in range(lat.size):
            want_meet = intersection_by_listing(
                f, lat.elements[i].basis, lat.elements[j].basis
            )
            got_meet = lat.elements[lat.meet[i, j]].basis
            assert linalg.subspace_eq(got_meet, want_meet)
            want_join = linalg.row_space(
                f, np.concatenate([lat.elements[i].basis, lat.elements[j].basis])
            )
            got_join = lat.elements[lat.join[i, j]].basis
            assert linalg.subspace_eq(got_join, want_join)


def test_leq_is_a_partial_order_and_absorption_holds():
    lat = pp_lattice(regular_module(tri2(), "right"), 1)
    n = lat.size
    for i in range(n):
        assert lat.leq[i, i]
        assert lat.meet[i, lat.top] == i
        assert lat.join[i, lat.bottom] == i
        for j in range(n):
            if lat.leq[i, j] and lat.leq[j, i]:
                assert i == j
            for k in range(n):
                if lat.leq[i, j] and lat.leq[j, k]:
                    assert lat.leq[i, k]


def test_lattice_is_modular():
    """Subgroup lattices of modules satisfy the modular law."""
    lat = pp_lattice(regular_module(tri2(), "right"), 1)
    n = lat.size
    for a, b, c in itertools.product(range(n), repeat=3):
        if lat.leq[a, c]:
            lhs = lat.join[a, lat.meet[b, c]]
            rhs = lat.meet[lat.join[a, b], c]
            assert lhs == rhs


def test_index_of_roundtrip():
    lat = pp_lattice(mod_rr(), 1)
    for i in range(lat.size):
        assert lat.index_of(lat.elements[i].basis) == i
    with pytest.raises(ValidationFailure):
        lat.index_of(linalg.row_space(F2, F2.asarray([[1, 0]])))
    # any spanning set is canonicalised first, not only an RREF basis
    for rows in ([[1, 1], [0, 1]], [[0, 1], [1, 0]]):
        assert lat.index_of(F2.asarray(rows)) == lat.top


def test_pp_lattice_builds_witnesses_only_when_they_are_read(monkeypatch):
    import ppmod.lattice
    import ppmod.modules

    names = ("hom_basis", "hom_orbits", "is_pp_definable", "pp_type_generator", "evaluate")
    calls = dict.fromkeys(names, 0)

    def counted(module, name):
        fn = getattr(module, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    counted(ppmod.modules, "hom_basis")
    for name in names[1:]:
        counted(ppmod.lattice, name)
    for m, arity in ((mod_rr(), 1), (regular_module(tri2(), "right"), 1), (mod_s(), 2)):
        calls.update(dict.fromkeys(names, 0))
        lat = pp_lattice(m, arity)
        # one End basis and one orbit batch; no witness, and no definability check
        assert calls == {**dict.fromkeys(names, 0), "hom_basis": 1, "hom_orbits": 1}
        filter_analysis(lat, lat.bottom)
        lat.index_of(lat.elements[-1].basis)
        assert calls == {**dict.fromkeys(names, 0), "hom_basis": 1, "hom_orbits": 1}
        # one generator per non-zero element on each read; the bottom is bot
        for reads in (1, 2):
            witnesses = lat.witnesses
            assert len(witnesses) == lat.size
            assert calls["pp_type_generator"] == reads * (lat.size - 1)
        assert calls["is_pp_definable"] == calls["evaluate"] == 0
    calls.update(dict.fromkeys(names, 0))
    assert criterion_7_lattice()[0]
    assert calls["pp_type_generator"] == calls["is_pp_definable"] == calls["evaluate"] == 0


def test_pp_lattice_sums_each_element_with_each_principal_once(monkeypatch):
    # a sum grows a copy of a non-zero element's basis; a principal grows
    # an empty one, once per projective point
    sums = points = 0
    real = linalg.grow_basis

    def spy(field, basis, rows):
        nonlocal sums, points
        if basis:
            sums += 1
        else:
            points += 1
        return real(field, basis, rows)

    for m, arity in ((mod_rr(), 1), (regular_module(tri2(), "right"), 1), (mod_s(), 2)):
        closures = principal_closures(m, arity)
        principals = {tuple(tuple(row) for _, row in c) for c in closures}
        monkeypatch.setattr(linalg, "grow_basis", spy)
        sums = points = 0
        lat = pp_lattice(m, arity)
        monkeypatch.setattr(linalg, "grow_basis", real)
        # the closure sums every non-zero element with every principal;
        # the join table folds those sums and adds none of its own
        assert sums == (lat.size - 1) * len(principals)
        assert points == len(closures)


def test_arity_two_lattice_contains_diagonal():
    lat = pp_lattice(mod_s(), 2)
    f = F2
    diag = linalg.row_space(f, f.asarray([[1, 1]]))
    found = any(
        e.dim == 1 and linalg.subspace_eq(e.basis, diag) for e in lat.elements
    )
    assert found  # x1 = x2 is pp-definable in two variables


def test_cap_is_enforced():
    with pytest.raises(CapExceeded):
        pp_lattice(mod_rr(), 1, cap=2)


def test_a_lattice_past_the_table_bound_is_refused_while_it_grows():
    # S has dim 1, so the pointed power of arity 7 passes the cap, but its
    # lattice has 29,212 elements: tables of 3.4 GB each
    def interrupted(signum, frame):
        raise TimeoutError("the join-closure ran on")

    previous = signal.signal(signal.SIGALRM, interrupted)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        with pytest.raises(CapExceeded, match=r"^lattice tables need at least 1025\^2 = "):
            pp_lattice(mod_s(), 7)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_the_table_bound_reads_the_enumeration_cap_at_call_time(monkeypatch):
    # RR has 3 elements: 9 table entries pass a cap of 9 and not one of 8
    monkeypatch.setattr(linalg, "ENUMERATION_CAP", 9)
    assert pp_lattice(mod_rr(), 1).size == 3
    monkeypatch.setattr(linalg, "ENUMERATION_CAP", 8)
    with pytest.raises(CapExceeded, match=r"^lattice tables need at least 3\^2 = 9 entries > cap 8"):
        pp_lattice(mod_rr(), 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: pp_lattice(mod_rr(), -1),
        lambda: pp_lattice(mod_rr(), 1.5),
        lambda: pp_lattice(mod_rr(), True),
        lambda: is_pp_definable(mod_rr(), [], -1),
    ],
    ids=["lattice-negative", "lattice-float", "lattice-bool", "definable-negative"],
)
def test_a_bad_arity_is_refused(call):
    with pytest.raises(ArityMismatch, match=r"^arity must be an int >= 0, not "):
        call()


def test_s_squared_lattice_collapses():
    # the matrix ring acts transitively, so only 0 and the whole survive
    m = direct_sum([mod_s(), mod_s()]).module
    lat = pp_lattice(m, 1)
    assert lat.size == 2
    assert [e.dim for e in lat.elements] == [0, 2]


def test_a_filter_is_its_generator():
    lat = pp_lattice(regular_module(tri2(), "right"), 1)
    for g in range(lat.size):
        filt = PpFilter(lat, g)
        assert filt.generator == g
        assert filt.members == frozenset(np.flatnonzero(lat.leq[g]).tolist())


def test_filter_analysis_on_rr():
    lat = pp_lattice(mod_rr(), 1)
    out = filter_analysis(lat, avoid=lat.bottom)
    assert len(out) == 1
    assert out[0].ziegler
    filt = out[0].filter
    assert filt.generator == 1
    assert lat.bottom not in filt.members


def test_filter_analysis_avoiding_top_is_empty():
    lat = pp_lattice(mod_rr(), 1)
    assert filter_analysis(lat, avoid=lat.top) == []


def test_definability_positive_and_negative():
    reg = regular_module(tri2(), "right")
    pos = is_pp_definable(reg, F2.asarray([[1, 0, 0]]))
    assert pos.definable
    assert pos.witness is not None
    sol = evaluate(pos.witness, reg)
    assert linalg.subspace_eq(sol.basis, linalg.row_space(F2, F2.asarray([[1, 0, 0]])))
    neg = is_pp_definable(reg, F2.asarray([[0, 0, 1]]))
    assert not neg.definable
    # the witness formula defines the pp-closure, strictly above the input
    assert linalg.subspace_eq(evaluate(neg.witness, reg).basis, neg.closure)
    assert linalg.subspace_le(F2, linalg.row_space(F2, F2.asarray([[0, 0, 1]])), neg.closure)
    assert neg.closure.shape[0] > 1


def test_definability_closure_is_itself_definable():
    reg = regular_module(tri2(), "right")
    neg = is_pp_definable(reg, F2.asarray([[0, 0, 1]]))
    again = is_pp_definable(reg, neg.closure)
    assert again.definable
    assert linalg.subspace_eq(again.closure, neg.closure)
