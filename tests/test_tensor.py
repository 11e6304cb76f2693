"""Tensor products and the zero-test bridge.

The independent oracle builds the relation space from every element
triple (v, r, w) rather than trusting basis-triple closure, then the
two constructions are compared as subspaces of the ambient space.
"""

import itertools

import numpy as np
import pytest

from ppmod import (
    Field,
    direct_sum,
    dual_module,
    evaluate,
    herzog_zero_test,
    linalg,
    regular_module,
    relative_ml_check,
    tensor_product,
    zero_module,
)
from ppmod.errors import LengthMismatch, SideMismatch
from ppmod.fixtures import (
    formula_corpus,
    left_grid,
    mod_lr,
    mod_ls,
    mod_rr,
    mod_s,
    r2,
    right_grid,
    tri2,
)
from ppmod.tensor import dual_satisfies

F2 = Field(2)


def dual_satisfies_direct(m, functional, phi):
    """Reference route: evaluate phi on the dual module directly."""
    f_vec = m.algebra.field.asarray(functional).reshape(-1)
    return evaluate(phi, dual_module(m)).contains(f_vec)


def kron_vec(field, v, w):
    out = np.zeros(v.shape[0] * w.shape[0], dtype=np.int16)
    for i in range(v.shape[0]):
        for j in range(w.shape[0]):
            out[i * w.shape[0] + j] = field.mul(v[i], w[j])
    return out


def relations_by_full_enumeration(m, l_mod):
    """Span of (v.r (x) w) - (v (x) r.w) over all element triples."""
    field = m.algebra.field
    rows = []
    for v in m.enumerate_elements():
        for r in m.algebra.enumerate_elements():
            for w in l_mod.enumerate_elements():
                lhs = kron_vec(field, m.act(v, r), w)
                rhs = kron_vec(field, v, l_mod.act(w, r))
                rows.append(field.sub(lhs, rhs))
    if not rows:
        return np.zeros((0, m.dim * l_mod.dim), dtype=np.int16)
    return linalg.row_space(field, np.stack(rows))


def test_known_tensor_dimensions():
    assert tensor_product(mod_rr(), mod_lr()).dim == 2  # R (x) R = R
    assert tensor_product(mod_s(), mod_ls()).dim == 1
    assert tensor_product(mod_rr(), mod_ls()).dim == 1
    assert tensor_product(mod_s(), mod_lr()).dim == 1
    t2 = tri2()
    assert tensor_product(regular_module(t2, "right"), regular_module(t2, "left")).dim == 3
    z = zero_module(r2(), "right")
    assert tensor_product(z, mod_lr()).dim == 0


def test_relation_space_matches_full_enumeration():
    pairs = [
        (mod_rr(), mod_lr()),
        (mod_rr(), mod_ls()),
        (mod_s(), mod_lr()),
        (direct_sum([mod_s(), mod_rr()]).module, mod_lr()),
    ]
    for m, l_mod in pairs:
        tp = tensor_product(m, l_mod)
        want = relations_by_full_enumeration(m, l_mod)
        assert linalg.subspace_eq(linalg.row_space(F2, tp.rel_basis), want)
        assert tp.dim == m.dim * l_mod.dim - want.shape[0]


def test_class_of_is_balanced_and_bilinear():
    m, l_mod = mod_rr(), mod_lr()
    tp = tensor_product(m, l_mod)
    alg = m.algebra
    for v in m.enumerate_elements():
        for w in l_mod.enumerate_elements():
            for r in alg.enumerate_elements():
                lhs = tp.class_of(m.act(v, r), w)
                rhs = tp.class_of(v, l_mod.act(w, r))
                assert np.array_equal(lhs, rhs)
    v1 = F2.asarray([1, 0])
    v2 = F2.asarray([0, 1])
    w = F2.asarray([1, 1])
    lhs = tp.class_of(F2.add(v1, v2), w)
    rhs = F2.add(tp.class_of(v1, w), tp.class_of(v2, w))
    assert np.array_equal(lhs, rhs)


def test_tuple_class_is_additive_in_terms():
    m, l_mod = mod_rr(), mod_lr()
    tp = tensor_product(m, l_mod)
    vs = F2.asarray([[1, 0], [0, 1]])
    ws = F2.asarray([[1, 1], [1, 0]])
    total = tp.tuple_class(vs, ws)
    split = F2.add(tp.class_of(vs[0], ws[0]), tp.class_of(vs[1], ws[1]))
    assert np.array_equal(total, split)


def test_herzog_matches_tensor_exhaustively_small():
    for m in right_grid(r2()):
        if m.dim > 2:
            continue
        for l_mod in left_grid(r2()):
            if l_mod.dim > 2:
                continue
            tp = tensor_product(m, l_mod)
            for v in m.enumerate_elements():
                for w in l_mod.enumerate_elements():
                    vanishes = not tp.class_of(v, w).any()
                    assert herzog_zero_test(m, v.reshape(1, -1), l_mod, w.reshape(1, -1)) == vanishes


def test_herzog_on_length_two_tuples():
    m, l_mod = mod_rr(), mod_lr()
    tp = tensor_product(m, l_mod)
    els_m = list(m.enumerate_elements())
    els_l = list(l_mod.enumerate_elements())
    for v1, v2 in itertools.product(els_m[:3], repeat=2):
        for w1, w2 in itertools.product(els_l[:3], repeat=2):
            vs = np.stack([v1, v2])
            ws = np.stack([w1, w2])
            vanishes = not tp.tuple_class(vs, ws).any()
            assert herzog_zero_test(m, vs, l_mod, ws) == vanishes


def test_herzog_edge_cases():
    m, l_mod = mod_rr(), mod_lr()
    empty_m = np.zeros((0, 2), dtype=np.int16)
    empty_l = np.zeros((0, 2), dtype=np.int16)
    assert herzog_zero_test(m, empty_m, l_mod, empty_l)
    with pytest.raises(LengthMismatch):
        herzog_zero_test(m, F2.asarray([[1, 0]]), l_mod, empty_l)
    with pytest.raises(SideMismatch):
        herzog_zero_test(m, F2.asarray([[1, 0]]), mod_s(), F2.asarray([[1]]))


def test_dual_satisfaction_bridge_agrees_with_direct_route():
    alg = r2()
    left_formulas = [p for p in formula_corpus(alg, "left") if p.nfree == 1]
    for m in right_grid(alg):
        if m.dim > 2:
            continue
        for functional in m.enumerate_elements():
            for phi in left_formulas:
                assert dual_satisfies(m, functional, phi) == dual_satisfies_direct(
                    m, functional, phi
                )


def test_relative_ml_small_families():
    rr = mod_rr()
    rep = relative_ml_check(rr, [mod_ls()])
    assert rep.injective and rep.kernel_witness is None
    rep2 = relative_ml_check(rr, [mod_ls(), mod_lr()])
    assert rep2.injective
    empty = relative_ml_check(rr, [])
    assert empty.injective


def test_tensor_rejects_bad_sides():
    with pytest.raises(SideMismatch):
        tensor_product(mod_rr(), mod_s())
    with pytest.raises(SideMismatch):
        tensor_product(mod_lr(), mod_rr())
