"""Linear algebra over finite fields against brute-force oracles.

Small shapes over F_2 and F_3 admit full enumeration of the solution
space, which pins down rank, null space, and solvability exactly.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmod import Field
from ppmod import linalg
from ppmod.errors import CapExceeded

F2 = Field(2)
F3 = Field(3)


def all_vectors(field, n):
    for tup in itertools.product(range(field.q), repeat=n):
        yield field.asarray(tup)


def kernel_by_enumeration(field, a):
    """Every x with a @ x = 0, found by trying all of them."""
    n = a.shape[1]
    out = []
    for x in all_vectors(field, n):
        img = linalg.matmul(field, a, x.reshape(-1, 1)).ravel()
        if not img.any():
            out.append(x)
    return out


def random_matrix(field, rng, m, n):
    return field.asarray(rng.integers(0, field.q, size=(m, n)))


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
def test_rank_and_null_space_against_enumeration(field):
    rng = np.random.default_rng(23)
    for _ in range(60):
        m, n = rng.integers(1, 4), rng.integers(1, 4)
        a = random_matrix(field, rng, m, n)
        ker = kernel_by_enumeration(field, a)
        r = linalg.rank(field, a)
        assert len(ker) == field.q ** (n - r)
        ns = linalg.null_space(field, a)
        assert ns.shape[0] == n - r
        for row in ns:
            img = linalg.matmul(field, a, row.reshape(-1, 1)).ravel()
            assert not img.any()
        assert linalg.rank(field, ns) == ns.shape[0]


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
def test_solve_against_enumeration(field):
    rng = np.random.default_rng(29)
    for _ in range(40):
        m, n = rng.integers(1, 4), rng.integers(1, 4)
        a = random_matrix(field, rng, m, n)
        images = set()
        for x in all_vectors(field, n):
            images.add(bytes(linalg.matmul(field, a, x.reshape(-1, 1)).ravel()))
        for b_tup in itertools.product(range(field.q), repeat=int(m)):
            b = field.asarray(b_tup)
            x = linalg.solve(field, a, b)
            if bytes(b) in images:
                assert x is not None
                got = linalg.matmul(field, a, x.reshape(-1, 1)).ravel()
                assert np.array_equal(got, b)
            else:
                assert x is None


def test_rref_shape_and_idempotence():
    rng = np.random.default_rng(31)
    for _ in range(30):
        a = random_matrix(F3, rng, 3, 4)
        r, pivots = linalg.rref(F3, a)
        r2, pivots2 = linalg.rref(F3, r)
        assert np.array_equal(r, r2)
        assert pivots == pivots2
        assert len(pivots) == linalg.rank(F3, a)
        for k, p in enumerate(pivots):
            assert int(r[k, p]) == 1
            col = r[:, p]
            assert int(col.sum()) == 1  # pivot column is a standard vector


def test_row_space_is_canonical():
    a = F2.asarray([[1, 1, 0], [0, 1, 1]])
    b = F2.asarray([[1, 0, 1], [0, 1, 1], [1, 1, 0]])  # same span
    assert np.array_equal(linalg.row_space(F2, a), linalg.row_space(F2, b))
    assert linalg.subspace_eq(linalg.row_space(F2, a), linalg.row_space(F2, b))


def intersection_by_enumeration(field, u, w):
    """Every vector of both row spaces, found by trying all of them."""
    n = u.shape[1]
    both = [
        v for v in all_vectors(field, n) if linalg.in_span(field, u, v) and linalg.in_span(field, w, v)
    ]
    return linalg.row_space(field, np.array(both, dtype=u.dtype).reshape(-1, n))


def test_subspace_dimension_formula():
    rng = np.random.default_rng(37)
    for _ in range(40):
        u = linalg.row_space(F2, random_matrix(F2, rng, 2, 4))
        w = linalg.row_space(F2, random_matrix(F2, rng, 2, 4))
        s = linalg.row_space(F2, np.concatenate([u, w]))
        i = intersection_by_enumeration(F2, u, w)
        assert s.shape[0] + i.shape[0] == u.shape[0] + w.shape[0]
        assert linalg.subspace_le(F2, u, s)
        assert linalg.subspace_le(F2, i, u)
        assert linalg.subspace_le(F2, i, w)


def test_in_span_and_reduce_mod():
    basis = linalg.row_space(F3, F3.asarray([[1, 2, 0], [0, 0, 1]]))
    v = F3.asarray([2, 1, 1])  # 2 * (1,2,0) + (0,0,1)
    assert linalg.in_span(F3, basis, v)
    assert not np.any(linalg.reduce_mod(F3, basis, v))
    w = F3.asarray([0, 1, 0])
    assert not linalg.in_span(F3, basis, w)
    res = linalg.reduce_mod(F3, basis, w)
    assert np.any(res)
    # the residue differs from w by something in the span
    diff = F3.sub(w, res)
    assert linalg.in_span(F3, basis, diff)


def test_coords_in_rref_roundtrip():
    basis = linalg.row_space(F3, F3.asarray([[1, 0, 2], [0, 1, 1]]))
    for coeffs in itertools.product(range(3), repeat=2):
        c = F3.asarray(coeffs)
        v = linalg.matvec(F3, c, basis)
        got = linalg.coords_in_rref(F3, basis, v)
        assert got is not None
        assert np.array_equal(linalg.matvec(F3, got, basis), v)
    assert linalg.coords_in_rref(F3, basis, F3.asarray([0, 0, 1])) is None


@given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3]))
@settings(max_examples=30)
def test_matmul_associates(seed, p):
    field = Field(p)
    rng = np.random.default_rng(seed)
    a = random_matrix(field, rng, 2, 3)
    b = random_matrix(field, rng, 3, 2)
    c = random_matrix(field, rng, 2, 2)
    lhs = linalg.matmul(field, linalg.matmul(field, a, b), c)
    rhs = linalg.matmul(field, a, linalg.matmul(field, b, c))
    assert np.array_equal(lhs, rhs)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30)
def test_matvec_is_row_convention(seed):
    rng = np.random.default_rng(seed)
    v = random_matrix(F3, rng, 1, 3).ravel()
    a = random_matrix(F3, rng, 3, 2)
    got = linalg.matvec(F3, v, a)
    want = linalg.matmul(F3, v.reshape(1, -1), a).ravel()
    assert np.array_equal(got, want)


def test_eye_and_zeros():
    assert np.array_equal(linalg.eye(F3, 3), np.eye(3, dtype=linalg.eye(F3, 3).dtype))
    assert linalg.zeros(2, 3).shape == (2, 3)
    assert not linalg.zeros(2, 3).any()


def test_all_vectors_is_capped_before_allocating():
    assert 2**21 > linalg.ENUMERATION_CAP
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            linalg.all_vectors(F2, 21)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # none of the 2^21 x 21 table (about 88 MB) was built
    assert linalg.all_vectors(F3, 4).shape == (81, 4)
