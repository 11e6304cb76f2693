"""Endomorphism rings, bicommutants, and definable scalar synthesis."""

import itertools
import signal
import tracemalloc

import numpy as np
import pytest

from ppmod import (
    Field,
    direct_sum,
    evaluate,
    hom_space,
    linalg,
    regular_module,
    scalar_ring,
    synthesize_scalar,
    end_and_biend,
)
from ppmod.algebras import make_algebra
from ppmod.errors import CapExceeded, DimensionMismatch, ValidationFailure
from ppmod.fields import ELEM
from ppmod.fixtures import k2, mod_rr, mod_rr_alt, mod_s, r2, tri2
from ppmod.modules import free_module, hom_basis, make_module
from ppmod.scalars import ScalarRing, ScalarSynthesis, _greedy_generators
from test_oracles import kron

F2 = Field(2)


def ring_isomorphic(field, table_a, unit_a, table_b, unit_b):
    """Brute-force F-algebra isomorphism test on structure tables: every k x k T."""
    k = table_a.shape[0]
    if table_b.shape[0] != k:
        return False
    flat_a = np.asarray(table_a, ELEM).reshape(k * k, k)
    flat_b = np.asarray(table_b, ELEM).reshape(k * k, k)
    for flat in itertools.product(range(field.q), repeat=k * k):
        t_mat = np.array(flat, dtype=ELEM).reshape(k, k)
        if linalg.rank(field, t_mat) != k:
            continue
        if not np.array_equal(linalg.matvec(field, unit_a, t_mat), unit_b):
            continue
        # T is multiplicative iff (e_i e_j) T == (e_i T)(e_j T) for every pair
        lhs = linalg.matmul(field, flat_a, t_mat)
        rhs = linalg.matmul(field, kron(field, t_mat, t_mat), flat_b)
        if np.array_equal(lhs, rhs):
            return True
    return False


def kronecker_brick(k):
    """The preprojective Kronecker module of dimension 2k + 1 over F2.

    The algebra is the path algebra of two arrows a, b from vertex 1 to
    vertex 2 (basis e1, e2, a, b); the module has F2^k at vertex 1 and
    F2^(k+1) at vertex 2, with a = [I_k | 0] and b = [0 | I_k].  It is a
    brick: End = F2, so Biend is all of M_(2k+1) and has (2k+1)^2 scalars.
    """
    c = np.zeros((4, 4, 4), dtype=ELEM)
    c[0, 0, 0] = c[1, 1, 1] = 1  # e1 e1 = e1, e2 e2 = e2
    c[0, 2, 2] = c[2, 1, 2] = 1  # e1 a = a = a e2
    c[0, 3, 3] = c[3, 1, 3] = 1  # e1 b = b = b e2
    alg = make_algebra(F2, ["e1", "e2", "a", "b"], c, [1, 1, 0, 0])
    d = 2 * k + 1
    acts = np.zeros((4, d, d), dtype=ELEM)
    acts[0, :k, :k] = np.eye(k, dtype=ELEM)
    acts[1, k:, k:] = np.eye(k + 1, dtype=ELEM)
    acts[2, :k, k:] = np.eye(k, k + 1, dtype=ELEM)
    acts[3, :k, k:] = np.eye(k, k + 1, 1, dtype=ELEM)
    return make_module(alg, "right", d, acts)


def split_f2_pair_table():
    """Structure constants of F_2 x F_2: two orthogonal idempotents."""
    table = np.zeros((2, 2, 2), dtype=np.int16)
    table[0, 0] = [1, 0]
    table[1, 1] = [0, 1]
    unit = F2.asarray([1, 1])
    return table, unit


def test_end_of_regular_module_is_the_algebra():
    eb = end_and_biend(mod_rr())
    alg = r2()
    assert eb.end.dim == 2
    assert ring_isomorphic(F2, eb.end.constants, eb.end.unit, alg.constants, alg.unit)
    assert eb.biend.dim == 2
    assert eb.biend.from_r is not None
    # the algebra covers the whole bicommutant here
    assert linalg.rank(F2, eb.biend.from_r) == 2


def test_end_of_simple_module_is_the_field():
    eb = end_and_biend(mod_s())
    assert eb.end.dim == 1
    assert eb.biend.dim == 1
    assert len(eb.generators) <= 1


def test_matrix_ring_collapses_the_bicommutant():
    s2 = direct_sum([mod_s(), mod_s()]).module
    eb = end_and_biend(s2)
    assert eb.end.dim == 4  # all of M_2(F_2)
    assert eb.biend.dim == 1  # scalars only


def test_tri2_regular_bicommutant_recovers_the_algebra():
    alg = tri2()
    eb = end_and_biend(regular_module(alg, "right"))
    assert eb.biend.dim == 3
    assert ring_isomorphic(
        F2, eb.biend.constants, eb.biend.unit, alg.constants, alg.unit
    )


def test_ring_table_is_associative_and_unital():
    eb = end_and_biend(mod_rr())
    rt = eb.end
    vecs = [F2.asarray(v) for v in itertools.product(range(2), repeat=rt.dim)]
    unit = rt.unit
    for u in vecs:
        assert np.array_equal(rt.mul_elems(u, unit), u)
        assert np.array_equal(rt.mul_elems(unit, u), u)
        for v in vecs:
            for w in vecs:
                lhs = rt.mul_elems(rt.mul_elems(u, v), w)
                rhs = rt.mul_elems(u, rt.mul_elems(v, w))
                assert np.array_equal(lhs, rhs)


def test_ring_isomorphic_rejects_the_split_algebra():
    # F_2[t]/t^2 is local; F_2 x F_2 is not
    alg = r2()
    table, unit = split_f2_pair_table()
    assert not ring_isomorphic(F2, alg.constants, alg.unit, table, unit)
    assert ring_isomorphic(F2, table, unit, table, unit)


def test_synthesized_scalar_has_the_graph_of_its_matrix():
    m = mod_rr()
    g = m.rho(m.algebra.basis_elem(1))  # right multiplication by t
    syn = synthesize_scalar(m, g)
    assert syn.total and syn.functional
    sol = evaluate(syn.formula, m)
    graph = linalg.row_space(
        F2, np.concatenate([linalg.eye(F2, 2), g], axis=1)
    )
    assert linalg.subspace_eq(sol.basis, graph)


def test_kronecker_brick_scalars_have_the_graphs_of_their_matrices():
    # the check synthesize_scalar no longer makes: the solution set of
    # each formula is the graph [I | g], byte for byte
    m = kronecker_brick(2)
    ring = scalar_ring(m)
    assert (ring.end.dim, ring.biend.dim) == (1, 25)
    for syn in ring.syntheses:
        graph = np.concatenate([linalg.eye(F2, 5), syn.matrix], axis=1)
        sol = evaluate(syn.formula, m).basis
        assert sol.dtype == graph.dtype and sol.shape == graph.shape
        assert sol.tobytes() == graph.tobytes()


def test_scalar_ring_evaluates_no_formula():
    before = evaluate.stats()
    ring = scalar_ring(kronecker_brick(3))
    assert ring.ring.dim == 49
    after = evaluate.stats()
    assert (after["hits"], after["misses"]) == (before["hits"], before["misses"])


def test_scalar_ring_of_the_9_dimensional_brick_finishes_in_time():
    def interrupted(signum, frame):
        raise TimeoutError("scalar_ring ran past 10 s")

    previous = signal.signal(signal.SIGALRM, interrupted)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        ring = scalar_ring(kronecker_brick(4))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert ring.ring.dim == 81 and ring.matches_biend


def test_greedy_generators_refuse_before_walking(monkeypatch):
    # F2^21 over k2, End the identity alone: the walk of its 2^21 elements
    # is refused at the call, before one orbit is built
    def interrupted(signum, frame):
        raise TimeoutError("_greedy_generators walked past 2 s")

    m = free_module(k2(), "right", 21)
    monkeypatch.setattr(linalg, "images", lambda *a: pytest.fail("an orbit was built"))
    previous = signal.signal(signal.SIGALRM, interrupted)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        with pytest.raises(CapExceeded, match=r"^listing F_2\^21 needs 2097152 rows > cap 1048576$"):
            _greedy_generators(m, np.eye(21, dtype=ELEM)[None])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("bad", [[[1]], [1, 0, 1], [], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
def test_synthesize_refuses_a_matrix_with_the_wrong_number_of_entries(bad):
    with pytest.raises(DimensionMismatch, match=r"^a scalar of M needs 2\*2 entries, got \d+$"):
        synthesize_scalar(mod_rr(), bad)


@pytest.mark.parametrize("bad", [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]])
def test_synthesize_rejects_matrices_outside_the_commutant(bad):
    # each fails to commute with t, an endomorphism of RR
    with pytest.raises(ValidationFailure, match="^matrix is not a biendomorphism$"):
        synthesize_scalar(mod_rr(), F2.asarray(bad))


@pytest.mark.parametrize("mod_fn", [mod_rr, mod_s, mod_rr_alt], ids=["RR", "S", "RRalt"])
def test_scalar_ring_matches_biend(mod_fn):
    ring = scalar_ring(mod_fn())
    assert ring.matches_biend
    for syn in ring.syntheses:
        assert syn.total and syn.functional


def test_syntheses_keep_phi_and_g_and_no_formula():
    # rho is assembled when read, and the flags state theorems: neither is a field
    assert ScalarSynthesis.__record_fields__ == ("type_generator", "generators", "matrix")
    assert ScalarRing.__record_fields__ == ("ring", "end", "biend", "generators", "syntheses")
    syn = scalar_ring(mod_rr()).syntheses[0]
    assert syn.formula is not syn.formula
    assert syn.formula.fingerprint() == syn.formula.fingerprint()


def test_scalar_ring_of_sum():
    m = direct_sum([mod_rr(), mod_s()]).module
    ring = scalar_ring(m)
    assert ring.matches_biend
    assert ring.ring.dim == ring.biend.dim


def test_generators_span_the_module_over_its_endomorphisms():
    for mod_fn in (mod_rr, mod_s):
        m = mod_fn()
        eb = end_and_biend(m)
        rows = [
            linalg.matvec(F2, g, h.matrix)
            for g in eb.generators
            for h in hom_space(m, m)
        ]
        span = linalg.row_space(F2, np.stack(rows))
        assert span.shape[0] == m.dim


def test_greedy_generators_take_the_orbits_in_bounded_chunks():
    # F2^12 over k2: End is every 12 x 12 matrix (144 maps), and all 4096
    # orbits at once were a 4096 x 1728 int64 product, about 108 MB traced
    m = make_module(k2(), "right", 12, np.eye(12, dtype=ELEM)[None])
    end_mats = hom_basis(m, m)
    tracemalloc.start()
    try:
        generators = _greedy_generators(m, end_mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert generators.tolist() == [[1] + [0] * 11]
    assert peak < 8 * 2**20


def test_a_greedy_round_stops_at_the_orbit_that_completes_the_span(monkeypatch):
    # F2^12 over k2: the orbit of e_1 is everything, so the one round reads
    # the zero vector and e_1, where scanning every element made 4,096 calls
    m = make_module(k2(), "right", 12, np.eye(12, dtype=ELEM)[None])
    end_mats = hom_basis(m, m)
    calls = []
    grow_basis = linalg.grow_basis

    def spy(field, basis, rows):
        calls.append(len(rows))
        return grow_basis(field, basis, rows)

    monkeypatch.setattr(linalg, "grow_basis", spy)
    assert _greedy_generators(m, end_mats).tolist() == [[1] + [0] * 11]
    assert calls == [144, 144]


def test_ring_tables_are_read_at_the_pivots_without_a_membership_check(monkeypatch):
    def refused(*args):
        raise AssertionError("coords_in_rref was called")

    monkeypatch.setattr(linalg, "coords_in_rref", refused)
    for m in (mod_rr(), mod_s(), regular_module(tri2(), "right"), regular_module(tri2(), "left")):
        eb = end_and_biend.__wrapped__(m)  # past the memo
        for ring in (eb.end, eb.biend):
            # the unit's coordinates combine the basis into the identity
            ident = np.eye(m.dim, dtype=ELEM)
            assert np.array_equal(F2.sum(F2.mul(ring.unit[:, None, None], ring.basis)), ident)
