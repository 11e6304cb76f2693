"""Formula semantics against an independent brute-force enumerator.

The oracle below walks every assignment of module elements to the free
and bound variables with plain Python loops. It shares no code with
the solver, so agreement on every small module pins the semantics.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmod import (
    annihilator,
    bot,
    conj,
    divisibility,
    dual,
    equivalent,
    evaluate,
    formula_sum,
    free_realisation,
    constrained_hom,
    leq_absolute,
    leq_relative,
    linalg,
    make_context,
    pp_formula,
    pp_type_generator,
    substitute,
    top,
)
from ppmod.errors import ArityMismatch, SideMismatch
from ppmod.fixtures import (
    divt,
    f3,
    formula_corpus,
    left_grid,
    mod_rr,
    mod_s,
    r2,
    random_formula,
    right_grid,
    tri2,
    xt0,
)


def solutions_by_enumeration(phi, m):
    """Free-variable rows satisfying phi in m, one loop per variable."""
    field = m.algebra.field
    total = phi.nfree + phi.nbound
    elements = list(m.enumerate_elements())
    found = set()
    for assign in itertools.product(elements, repeat=total):
        ok = True
        for j in range(phi.neq):
            acc = np.zeros(m.dim, dtype=np.int16)
            for i in range(phi.nfree):
                acc = field.add(acc, linalg.matvec(field, assign[i], m.rho(phi.a[i, j])))
            for k in range(phi.nbound):
                acc = field.add(
                    acc,
                    linalg.matvec(field, assign[phi.nfree + k], m.rho(phi.b[k, j])),
                )
            if acc.any():
                ok = False
                break
        if ok:
            if phi.nfree == 0:
                found.add(b"")
            else:
                found.add(bytes(np.concatenate(assign[: phi.nfree])))
    return found


def solver_solutions(phi, m):
    return {bytes(row) for row in evaluate(phi, m).elements()}


def small_modules(alg, side, max_count=10):
    grid = right_grid(alg) if side == "right" else left_grid(alg)
    return [m for m in grid if m.algebra.field.q**m.dim <= max_count]


@pytest.mark.parametrize("alg_fn,side", [
    (r2, "right"), (r2, "left"), (tri2, "right"), (f3, "right"),
])
def test_evaluate_matches_enumeration_on_corpus(alg_fn, side):
    alg = alg_fn()
    mods = small_modules(alg, side, max_count=9)
    for phi in formula_corpus(alg, side):
        for m in mods:
            assert solver_solutions(phi, m) == solutions_by_enumeration(phi, m), (
                f"{phi.render()} disagrees on a dim-{m.dim} module"
            )


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25)
def test_evaluate_matches_enumeration_random(seed):
    rng = random.Random(seed)
    alg = rng.choice([r2(), tri2()])
    side = rng.choice(["right", "left"])
    phi = random_formula(alg, side, rng)
    for m in small_modules(alg, side, max_count=8)[:3]:
        assert solver_solutions(phi, m) == solutions_by_enumeration(phi, m)


def test_known_solution_sets_by_hand():
    rr, s = mod_rr(), mod_s()
    f = rr.algebra.field
    assert np.array_equal(evaluate(xt0("right"), rr).basis, f.asarray([[0, 1]]))
    assert np.array_equal(evaluate(divt("right"), rr).basis, f.asarray([[0, 1]]))
    assert evaluate(xt0("right"), s).dim == 1  # t kills everything
    assert evaluate(divt("right"), s).dim == 0  # nothing is divisible
    assert evaluate(top(rr.algebra, "right", 1), rr).dim == 2
    assert evaluate(bot(rr.algebra, "right", 1), rr).dim == 0


def test_annihilator_and_divisibility_agree_with_defs():
    alg = r2()
    rr = mod_rr()
    t = alg.basis_elem(1)
    ann = evaluate(annihilator(alg, "right", t), rr)
    by_hand = [v for v in rr.enumerate_elements() if not rr.act(v, t).any()]
    assert {bytes(v) for v in by_hand} == {bytes(r) for r in ann.elements()}
    div = evaluate(divisibility(alg, "right", t), rr)
    images = {bytes(rr.act(v, t)) for v in rr.enumerate_elements()}
    assert images == {bytes(r) for r in div.elements()}


def test_conjunction_is_intersection():
    alg = r2()
    rng = random.Random(5)
    mods = small_modules(alg, "right")
    for _ in range(25):
        phi = random_formula(alg, "right", rng)
        psi = random_formula(alg, "right", rng)
        while psi.nfree != phi.nfree:
            psi = random_formula(alg, "right", rng)
        both = conj(phi, psi)
        for m in mods:
            want = solver_solutions(phi, m) & solver_solutions(psi, m)
            assert solver_solutions(both, m) == want


def test_sum_is_subgroup_sum():
    alg = r2()
    rng = random.Random(6)
    mods = small_modules(alg, "right")
    for _ in range(25):
        phi = random_formula(alg, "right", rng)
        psi = random_formula(alg, "right", rng)
        while psi.nfree != phi.nfree:
            psi = random_formula(alg, "right", rng)
        tot = formula_sum(phi, psi)
        for m in mods:
            want = linalg.row_space(
                m.algebra.field, np.concatenate([evaluate(phi, m).basis, evaluate(psi, m).basis])
            )
            assert linalg.subspace_eq(evaluate(tot, m).basis, want)


def test_conj_requires_matching_shape():
    alg = r2()
    with pytest.raises(ArityMismatch):
        conj(top(alg, "right", 1), top(alg, "right", 2))
    with pytest.raises(SideMismatch):
        conj(top(alg, "right", 1), top(alg, "left", 1))


def test_dual_is_involutive_semantically():
    rng = random.Random(7)
    for alg in (r2(), tri2(), f3()):
        for _ in range(20):
            phi = random_formula(alg, "right", rng)
            assert dual(phi).side == "left"
            assert equivalent(dual(dual(phi)), phi)


def test_dual_swaps_conjunction_and_sum():
    rng = random.Random(8)
    alg = r2()
    for _ in range(15):
        phi = random_formula(alg, "right", rng)
        psi = random_formula(alg, "right", rng)
        while psi.nfree != phi.nfree:
            psi = random_formula(alg, "right", rng)
        assert equivalent(dual(conj(phi, psi)), formula_sum(dual(phi), dual(psi)))
        assert equivalent(dual(formula_sum(phi, psi)), conj(dual(phi), dual(psi)))


def test_dual_exchanges_top_and_bot():
    alg = r2()
    assert equivalent(dual(top(alg, "right", 1)), bot(alg, "left", 1))
    assert equivalent(dual(bot(alg, "right", 2)), top(alg, "left", 2))


def test_dual_exchanges_annihilator_and_divisibility():
    alg = r2()
    t = alg.basis_elem(1)
    assert equivalent(dual(annihilator(alg, "right", t)), divisibility(alg, "left", t))
    assert equivalent(dual(divisibility(alg, "right", t)), annihilator(alg, "left", t))


def test_leq_absolute_is_containment_everywhere():
    alg = r2()
    rng = random.Random(9)
    mods = small_modules(alg, "right")
    checked_true = 0
    for _ in range(40):
        phi = random_formula(alg, "right", rng)
        psi = random_formula(alg, "right", rng)
        while psi.nfree != phi.nfree:
            psi = random_formula(alg, "right", rng)
        if leq_absolute(phi, psi):
            checked_true += 1
            for m in mods:
                assert solver_solutions(phi, m) <= solver_solutions(psi, m)
    assert checked_true > 0  # the sample saw genuine implications


def test_leq_absolute_decided_by_free_realisation():
    alg = r2()
    rng = random.Random(10)
    for _ in range(30):
        phi = random_formula(alg, "right", rng)
        psi = random_formula(alg, "right", rng)
        while psi.nfree != phi.nfree:
            psi = random_formula(alg, "right", rng)
        fr = free_realisation(phi)
        direct = evaluate(psi, fr.module).contains(fr.tuple)
        assert leq_absolute(phi, psi) == direct


def test_leq_relative_is_weaker_than_absolute():
    alg = r2()
    ctx = make_context([mod_s()])
    phi, psi = xt0("right"), divt("right")
    # on S the t-annihilator is everything, divisibility nothing
    assert not leq_absolute(phi, psi)
    assert not leq_relative(phi, psi, ctx)
    assert leq_relative(psi, phi, ctx)
    # relative to <RR> both orders hold: the two sets agree on RR
    ctx_rr = make_context([mod_rr()])
    assert leq_relative(phi, psi, ctx_rr)
    assert leq_relative(psi, phi, ctx_rr)


def test_free_realisation_satisfies_its_formula():
    rng = random.Random(11)
    for alg in (r2(), tri2()):
        for _ in range(15):
            phi = random_formula(alg, "right", rng)
            fr = free_realisation(phi)
            assert evaluate(phi, fr.module).contains(fr.tuple)


def test_free_realisation_is_universal():
    """Every solution anywhere is the image of the distinguished tuple."""
    rng = random.Random(12)
    alg = r2()
    mods = small_modules(alg, "right")
    for _ in range(10):
        phi = random_formula(alg, "right", rng)
        fr = free_realisation(phi)
        for m in mods:
            sol = evaluate(phi, m)
            for row in list(sol.elements())[:4]:
                target = row.reshape(phi.nfree, m.dim)
                h = constrained_hom(fr.module, m, fr.tuple, target)
                assert h is not None
                assert np.array_equal(h.apply_tuple(fr.tuple), target)


def test_pp_type_generator_characterises_the_type():
    """phi is in the type of a tuple iff the generator implies phi."""
    alg = r2()
    rr = mod_rr()
    corpus = [p for p in formula_corpus(alg, "right") if p.nfree == 1]
    f = alg.field
    for v in rr.enumerate_elements():
        gen = pp_type_generator(rr, v.reshape(1, -1))
        assert evaluate(gen, rr).contains(v.reshape(1, -1))
        for phi in corpus:
            holds = evaluate(phi, rr).contains(v.reshape(1, -1))
            assert leq_absolute(gen, phi) == holds


def test_substitute_semantics_by_enumeration():
    alg = r2()
    f = alg.field
    rng = random.Random(13)
    mods = small_modules(alg, "right")
    for _ in range(12):
        phi = random_formula(alg, "right", rng)
        nnew = rng.randrange(1, 3)
        coeffs = [[0, 0], [1, 0], [0, 1], [1, 1]]
        t_mat = f.asarray(
            [[rng.choice(coeffs) for _ in range(phi.nfree)] for _ in range(nnew)]
        )
        psi = substitute(phi, t_mat)
        assert psi.nfree == nnew
        for m in mods:
            sol_phi = evaluate(phi, m)
            for v in itertools.product(m.enumerate_elements(), repeat=nnew):
                image = []
                for j in range(phi.nfree):
                    acc = np.zeros(m.dim, dtype=np.int16)
                    for i in range(nnew):
                        acc = f.add(acc, linalg.matvec(f, v[i], m.rho(t_mat[i, j])))
                    image.append(acc)
                want = sol_phi.contains(np.stack(image)) if phi.nfree else True
                got = evaluate(psi, m).contains(np.stack(v))
                assert got == want


def test_normalisation_is_idempotent_and_stable():
    rng = random.Random(14)
    for alg in (r2(), f3()):
        for _ in range(20):
            phi = random_formula(alg, "right", rng)
            again = pp_formula(alg, phi.side, phi.nfree, phi.a, phi.b)
            assert again.fingerprint() == phi.fingerprint()
            assert again.render() == phi.render()


def test_equivalence_is_reflexive_and_symmetric():
    rng = random.Random(15)
    alg = r2()
    for _ in range(10):
        phi = random_formula(alg, "right", rng)
        psi = random_formula(alg, "right", rng)
        while psi.nfree != phi.nfree:
            psi = random_formula(alg, "right", rng)
        assert equivalent(phi, phi)
        assert equivalent(phi, psi) == equivalent(psi, phi)


def test_render_mentions_all_pieces():
    phi = divt("right")
    text = phi.render()
    assert text.startswith("E y1 .")
    assert "x1" in text and "= 0" in text
    assert top(r2(), "right", 1).render() == "0 = 0"
