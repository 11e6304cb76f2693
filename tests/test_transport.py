"""Invariants transport along isomorphisms.

For an invertible g, the module M^g with actions g^-1 A_i g is isomorphic
to M by v -> v g, and a map F: M -> N becomes g^-1 F h: M^g -> N^h.  So
every answer about M up to isomorphism must be the same for M^g: the
pp-lattice (its size, and ``leq``, ``meet`` and ``join`` under the
relabelling that v -> v g induces), the dimensions of End and Biend, the
number of greedy generators, purity verdicts, Hom and tensor dimensions
and the number of consequences ``consequence_enum`` lists.  These guard
the lattice and the rings built by construction with no second
implementation.  Witness elements and generators are the first in code
order, which g does not preserve, so only invariants are compared.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmod import fixtures, linalg
from ppmod.construct import Budget, consequence_enum
from ppmod.defcat import make_context, purity_check
from ppmod.fields import ELEM
from ppmod.lattice import pp_lattice
from ppmod.modules import hom_basis, make_map, make_module
from ppmod.scalars import end_and_biend
from ppmod.tensor import tensor_product

ALGEBRAS = [fixtures.r2(), fixtures.tri2(), fixtures.f3()]
GRIDS = {
    alg.labels: {"right": fixtures.right_grid(alg), "left": fixtures.left_grid(alg)}
    for alg in ALGEBRAS
}
transports = settings(max_examples=50, deadline=None)


def invertible(data, field, d):
    """A drawn invertible d x d matrix P L U and its inverse: P a permutation,
    L unit lower triangular, U upper triangular with a non-zero diagonal."""
    entries = st.integers(0, field.q - 1)
    low, up = np.eye(d, dtype=ELEM), np.zeros((d, d), dtype=ELEM)
    for i in range(d):
        up[i, i] = data.draw(st.integers(1, field.q - 1))
        for j in range(i + 1, d):
            low[j, i], up[i, j] = data.draw(entries), data.draw(entries)
    perm = np.eye(d, dtype=ELEM)[data.draw(st.permutations(range(d)))]
    g = linalg.matmul(field, perm, linalg.matmul(field, low, up))
    reduced, _ = linalg.rref(field, np.concatenate([g, linalg.eye(field, d)], axis=1))
    return g, reduced[:, d:]


def conjugated(data, m):
    """M^g, g and g^-1 for a drawn invertible g."""
    field = m.algebra.field
    g, g_inv = invertible(data, field, m.dim)
    acts = [linalg.matmul(field, g_inv, linalg.matmul(field, a, g)) for a in m.actions]
    return make_module(m.algebra, m.side, m.dim, np.stack(acts)), g, g_inv


def modules(data, alg, side):
    return data.draw(st.sampled_from(GRIDS[alg.labels][side]))


@transports
@given(data=st.data(), alg=st.sampled_from(ALGEBRAS), side=st.sampled_from(["right", "left"]))
def test_the_pp_lattice_and_the_rings_transport(data, alg, side):
    m = modules(data, alg, side)
    mg, g, _ = conjugated(data, m)
    field = alg.field
    for arity in (1, 2) if m.dim <= 2 else (1,):
        lat, lat_g = pp_lattice(m, arity), pp_lattice(mg, arity)
        assert lat.size == lat_g.size
        # element x of M^arity goes to x (I (x) g) in (M^g)^arity
        moved = linalg.kron(field, linalg.eye(field, arity), g)
        perm = np.array([lat_g.index_of(linalg.matmul(field, el.basis, moved)) for el in lat.elements])
        assert sorted(perm.tolist()) == list(range(lat.size))
        assert np.array_equal(lat_g.leq[np.ix_(perm, perm)], lat.leq)
        for table in ("meet", "join"):
            assert np.array_equal(getattr(lat_g, table)[np.ix_(perm, perm)], perm[getattr(lat, table)])
    eb, eb_g = end_and_biend(m), end_and_biend(mg)
    assert (eb.end.dim, eb.biend.dim) == (eb_g.end.dim, eb_g.biend.dim)
    assert eb.generators.shape == eb_g.generators.shape


@transports
@given(data=st.data(), alg=st.sampled_from(ALGEBRAS), side=st.sampled_from(["right", "left"]))
def test_hom_and_purity_transport(data, alg, side):
    m, n = modules(data, alg, side), modules(data, alg, side)
    (mg, _, g_inv), (ng, h, _) = conjugated(data, m), conjugated(data, n)
    field = alg.field
    basis = hom_basis(m, n)
    assert basis.shape[0] == hom_basis(mg, ng).shape[0]
    coeffs = np.array([data.draw(st.integers(0, field.q - 1)) for _ in basis], dtype=ELEM)
    f = field.sum(field.mul(coeffs[:, None, None], basis)) if len(basis) else np.zeros((m.dim, n.dim), ELEM)
    f_g = linalg.matmul(field, g_inv, linalg.matmul(field, f, h))
    got, got_g = purity_check(make_map(m, n, f)), purity_check(make_map(mg, ng, f_g))
    assert (got.pure_mono, got.pure_epi) == (got_g.pure_mono, got_g.pure_epi)


@transports
@given(data=st.data(), alg=st.sampled_from(ALGEBRAS))
def test_tensor_dimensions_and_consequences_transport(data, alg):
    m, l_mod = modules(data, alg, "right"), modules(data, alg, "left")
    (mg, _, _), (lg, _, _) = conjugated(data, m), conjugated(data, l_mod)
    assert tensor_product(m, l_mod).dim == tensor_product(mg, lg).dim
    theta = data.draw(st.sampled_from(fixtures.formula_corpus(alg)))
    budget = Budget(1, 1, 64, 1)
    got = consequence_enum(theta, make_context([m]), budget)
    got_g = consequence_enum(theta, make_context([mg]), budget)
    assert (len(got), got.truncated) == (len(got_g), got_g.truncated)
