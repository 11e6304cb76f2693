"""Module representations, maps, and the hom-space machinery."""

import itertools
import signal

import numpy as np
import pytest

from ppmod import (
    Field,
    are_isomorphic,
    constrained_hom,
    direct_sum,
    dual_module,
    hom_space,
    linalg,
    make_map,
    make_module,
    presentation,
    quotient,
    regular_module,
    strict_atomic_witness,
    submodule,
    zero_module,
)
from ppmod.errors import CapExceeded, DimensionMismatch, NotARepresentation, NotASubmodule, NotGenerating, SideMismatch
from ppmod.fixtures import (
    f3,
    k2,
    left_grid,
    mod_lr,
    mod_rr,
    mod_rr_alt,
    mod_s,
    r2,
    right_grid,
    tri2,
    tri2_p1,
    tri2_s1,
    tri2_s2,
)
from ppmod.modules import extend_to_generators, free_module, hom_basis, module_span

F2 = Field(2)


def test_make_module_rejects_non_representation():
    alg = r2()
    actions = np.zeros((2, 2, 2), dtype=np.int16)
    actions[0] = np.eye(2, dtype=np.int16)
    actions[1] = [[0, 1], [0, 1]]  # t-action whose square is not zero
    with pytest.raises(NotARepresentation):
        make_module(alg, "right", 2, actions)


def constructed_modules(alg) -> list:
    """Every dual, pairwise sum, cyclic and whole submodule, and quotient by
    one, of the right and left grid modules over ``alg``."""
    grid = right_grid(alg) + left_grid(alg)
    out = []
    for m in grid:
        out.append(dual_module(m))
        out += [direct_sum([m, n]).module for n in grid if n.side == m.side]
        for rows in [v[None] for v in m.enumerate_elements()] + [np.eye(m.dim, dtype=np.int16)]:
            span = module_span(m, rows)
            out += [submodule(m, span).module, quotient(m, span).module]
    return out


@pytest.mark.parametrize("alg", [r2, f3, tri2], ids=lambda a: a.__name__)
def test_constructed_modules_pass_the_law_check(alg):
    # dual_module, direct_sum, submodule and quotient build their records
    # without make_module, the one check of the module law; each result
    # must pass it and come back with the same fingerprint
    for m in constructed_modules(alg()):
        assert make_module(m.algebra, m.side, m.dim, m.actions).fingerprint() == m.fingerprint()


def test_regular_module_action_matches_multiplication():
    alg = tri2()
    m = regular_module(alg, "right")
    for i in range(alg.dim):
        for j in range(alg.dim):
            got = m.act(alg.basis_elem(i), alg.basis_elem(j))
            assert np.array_equal(got, alg.mul_elems(alg.basis_elem(i), alg.basis_elem(j)))


def test_rho_is_an_algebra_map():
    m = mod_rr()
    alg = m.algebra
    for r_el in alg.enumerate_elements():
        for s_el in alg.enumerate_elements():
            lhs = m.rho(alg.mul_elems(r_el, s_el))
            rhs = linalg.matmul(alg.field, m.rho(r_el), m.rho(s_el))
            assert np.array_equal(lhs, rhs)
    assert np.array_equal(m.rho(alg.unit), linalg.eye(alg.field, m.dim))


def test_make_map_rejects_non_equivariant_matrix():
    with pytest.raises(NotARepresentation):
        make_map(mod_rr(), mod_s(), [[0], [1]])
    h = make_map(mod_rr(), mod_s(), [[1], [0]])
    assert linalg.rank(F2, h.matrix) == h.target.dim and not h.is_injective()


def test_make_map_refuses_the_transposed_matrix():
    # a 3 x 2 transpose of a Hom(RR, RR + S) map was once read row-major
    rr = mod_rr()
    rs = direct_sum([rr, mod_s()]).module
    for g in hom_basis(rr, rs):
        with pytest.raises(DimensionMismatch, match=r"^map matrix of shape \(3, 2\), expected \(2, 3\)$"):
            make_map(rr, rs, g.T)


def test_make_map_rejects_mismatched_sides():
    with pytest.raises(SideMismatch):
        make_map(mod_rr(), mod_lr(), np.eye(2, dtype=np.int16))


def test_constrained_hom_reports_mismatched_modules_before_the_tuples():
    # the module mismatch wins over a malformed or unequal-length tuple,
    # through constrained_hom and the one strict_atomic_witness built on it
    rr, lr = mod_rr(), mod_lr()
    for src, tgt in [([[1, 0]], [[1, 0], [0, 1]]), ([[1, 0, 0]], [[1, 0]])]:
        with pytest.raises(SideMismatch):
            constrained_hom(rr, lr, src, tgt)
        with pytest.raises(SideMismatch):
            strict_atomic_witness(rr, src, lr, tgt)


def test_hom_space_matches_brute_force():
    """Every equivariant matrix must lie in the span hom_space returns."""
    src, tgt = mod_rr(), mod_rr()
    basis = hom_space(src, tgt)
    assert len(basis) == 2
    mats = np.stack([h.matrix.reshape(-1) for h in basis])
    found = []
    for bits in itertools.product(range(2), repeat=4):
        mat = F2.asarray(np.array(bits).reshape(2, 2))
        ok = all(
            np.array_equal(
                linalg.matmul(F2, src.rho(src.algebra.basis_elem(i)), mat),
                linalg.matmul(F2, mat, tgt.rho(tgt.algebra.basis_elem(i))),
            )
            for i in range(src.algebra.dim)
        )
        if ok:
            found.append(mat.reshape(-1))
    assert len(found) == 4  # q ** dim hom
    for v in found:
        assert linalg.in_span(F2, linalg.row_space(F2, mats), v)


def test_hom_space_known_dimensions():
    assert len(hom_space(mod_rr(), mod_s())) == 1
    assert len(hom_space(mod_s(), mod_rr())) == 1
    assert len(hom_space(tri2_s1(), tri2_s2())) == 0


def test_direct_sum_injections_projections():
    parts = [mod_rr(), mod_s(), mod_s()]
    ds = direct_sum(parts)
    assert ds.module.dim == 4
    for i, part in enumerate(parts):
        comp = ds.injections[i].compose(ds.projections[i])
        assert np.array_equal(comp.matrix, linalg.eye(F2, part.dim))
        for j in range(len(parts)):
            if j != i:
                cross = ds.injections[i].compose(ds.projections[j])
                assert not cross.matrix.any()
    total = np.zeros((ds.module.dim, ds.module.dim), dtype=np.int16)
    for i in range(len(parts)):
        chain = ds.projections[i].compose(ds.injections[i])
        total = F2.add(total, chain.matrix)
    assert np.array_equal(total, linalg.eye(F2, ds.module.dim))


def test_submodule_and_quotient():
    rr = mod_rr()
    sub = submodule(rr, F2.asarray([[0, 1]]))  # the radical t R
    assert sub.module.dim == 1
    assert sub.inclusion.is_injective()
    quo = quotient(rr, F2.asarray([[0, 1]]))
    assert quo.module.dim == 1
    assert linalg.rank(F2, quo.projection.matrix) == quo.module.dim
    assert linalg.subspace_eq(
        linalg.null_space(F2, quo.projection.matrix.T),
        linalg.row_space(F2, F2.asarray([[0, 1]])),
    )
    assert are_isomorphic(quo.module, mod_s())


def test_submodule_rejects_unclosed_rows():
    with pytest.raises(NotASubmodule):
        submodule(mod_rr(), F2.asarray([[1, 0]]))  # 1 . t = t escapes


def test_are_isomorphic_on_fixtures():
    assert are_isomorphic(mod_rr(), mod_rr_alt())
    assert not are_isomorphic(mod_rr(), direct_sum([mod_s(), mod_s()]).module)
    assert not are_isomorphic(mod_rr(), mod_s())
    assert are_isomorphic(zero_module(r2(), "right"), zero_module(r2(), "right"))


def test_are_isomorphic_caps_the_hom_combination_search():
    # F2^5 with the trivial action: Hom is every 5x5 matrix, 2^25 combinations
    m = free_module(k2(), "right", 5)
    n = direct_sum([free_module(k2(), "right", 2), free_module(k2(), "right", 3)]).module
    assert len(hom_space(m, n)) == 25
    with pytest.raises(CapExceeded):
        are_isomorphic(m, n)


def test_are_isomorphic_refuses_before_walking(monkeypatch):
    # F2^5 against itself: Hom is every 5x5 matrix, and the walk of its
    # 2^25 combinations is refused at the call, before one is tried
    def interrupted(signum, frame):
        raise TimeoutError("are_isomorphic walked past 2 s")

    m = free_module(k2(), "right", 5)
    monkeypatch.setattr(linalg, "rank", lambda *a: pytest.fail("a combination was tried"))
    previous = signal.signal(signal.SIGALRM, interrupted)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        with pytest.raises(CapExceeded, match=r"^listing F_2\^25 needs 33554432 rows > cap 1048576$"):
            are_isomorphic(m, m)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_dual_module_is_an_involution():
    for m in right_grid(r2())[:6]:
        d = dual_module(m)
        assert d.side == "left"
        assert d.dim == m.dim
        dd = dual_module(d)
        assert dd.fingerprint() == m.fingerprint()


def test_dual_module_of_tri2_projective_is_injective_side():
    p1 = tri2_p1()
    d = dual_module(p1)
    assert d.side == "left" and d.dim == p1.dim


def test_constrained_hom_respects_pp_type():
    rr, s = mod_rr(), mod_s()
    # 1 |-> generator of S works: the quotient map
    h = constrained_hom(rr, s, F2.asarray([[1, 0]]), F2.asarray([[1]]))
    assert h is not None
    assert np.array_equal(h.apply_tuple(F2.asarray([[1, 0]])), F2.asarray([[1]]))
    # s |-> 1 is impossible: s is killed by t, 1 is not
    assert constrained_hom(s, rr, F2.asarray([[1]]), F2.asarray([[1, 0]])) is None


def test_presentation_relations_annihilate_generators():
    s = mod_s()
    rel = presentation(s, F2.asarray([[1]]))
    assert rel.shape == (1, 1, 2)
    assert np.array_equal(rel[0, 0], F2.asarray([0, 1]))  # s . t = 0
    rr = mod_rr()
    rel_free = presentation(rr, F2.asarray([[1, 0]]))
    assert rel_free.shape[0] == 0


def test_presentation_builds_no_free_module(monkeypatch):
    import ppmod.modules

    def refuse(*args):
        raise AssertionError("presentation built a module")

    cases = [(m, extend_to_generators(m, m.enumerate_elements()[1:2])) for m in right_grid(tri2())]
    for name in ("free_module", "regular_module"):
        monkeypatch.setattr(ppmod.modules, name, refuse)
    for m, gens in cases:
        rel = presentation(m, gens)
        assert rel.shape[1:] == (gens.shape[0], m.algebra.dim)


def test_presentation_spans_the_tuple_only_to_name_a_witness(monkeypatch):
    import ppmod.modules

    calls = 0
    real = ppmod.modules.module_span

    def spy(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    cases = [(m, extend_to_generators(m, m.enumerate_elements()[1:2])) for m in right_grid(tri2())]
    monkeypatch.setattr(ppmod.modules, "module_span", spy)
    for m, gens in cases:
        presentation(m, gens)
    # a generating tuple is read off the kernel's dimension
    assert calls == 0
    with pytest.raises(NotGenerating) as err:
        presentation(mod_rr(), F2.asarray([[0, 1]]))  # t generates only tR
    assert calls == 1
    assert np.array_equal(err.value.witness, F2.asarray([1, 0]))


def test_map_apply_and_compose():
    rr, s = mod_rr(), mod_s()
    q = make_map(rr, s, [[1], [0]])
    v = F2.asarray([1, 1])
    assert np.array_equal(q.apply(v), F2.asarray([1]))
    back = make_map(s, rr, [[0, 1]])
    comp = back.compose(q)  # S -> RR -> S
    assert not comp.matrix.any()  # t maps to 0 in S


def test_zero_module_edge_cases():
    z = zero_module(r2(), "right")
    assert z.dim == 0
    assert len(hom_space(z, mod_rr())) == 0
    assert len(hom_space(mod_rr(), z)) == 0
    assert direct_sum([z, mod_s()]).module.dim == 1


def test_enumerate_elements_counts():
    assert len(list(mod_rr().enumerate_elements())) == 4
    assert len(list(mod_s().enumerate_elements())) == 2
    assert len(list(zero_module(r2(), "right").enumerate_elements())) == 1
