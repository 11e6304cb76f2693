"""Structure-constant algebras: construction, validation, element codes."""

import itertools

import numpy as np
import pytest

from ppmod import Field, linalg, make_algebra
from ppmod.errors import BadUnit, DimensionMismatch, NonAssociative
from ppmod.fields import ELEM
from ppmod.fixtures import f3, k2, r2, tri2

F2 = Field(2)


def test_fixture_algebras_have_expected_shape():
    assert r2().labels == ("1", "t")
    assert tri2().labels == ("e11", "e12", "e22")
    assert k2().labels == ("1",)
    assert f3().dim == 1
    assert r2().constants.shape == (2, 2, 2)


def test_r2_relation_t_squared_zero():
    alg = r2()
    t = alg.basis_elem(1)
    assert not alg.mul_elems(t, t).any()
    one = alg.unit
    assert np.array_equal(alg.mul_elems(one, t), t)
    assert np.array_equal(alg.mul_elems(t, one), t)


def test_tri2_idempotents_and_radical():
    alg = tri2()
    e11, e12, e22 = (alg.basis_elem(i) for i in range(3))
    assert np.array_equal(alg.mul_elems(e11, e11), e11)
    assert np.array_equal(alg.mul_elems(e22, e22), e22)
    assert np.array_equal(alg.mul_elems(e11, e12), e12)
    assert np.array_equal(alg.mul_elems(e12, e22), e12)
    assert not alg.mul_elems(e12, e12).any()
    assert not alg.mul_elems(e22, e11).any()
    assert np.array_equal(alg.unit, F2.add(e11, e22))


@pytest.mark.parametrize("alg_fn", [r2, f3, tri2, k2])
def test_associativity_holds_exhaustively(alg_fn):
    alg = alg_fn()
    basis = [alg.basis_elem(i) for i in range(alg.dim)]
    for a, b, c in itertools.product(basis, repeat=3):
        lhs = alg.mul_elems(alg.mul_elems(a, b), c)
        rhs = alg.mul_elems(a, alg.mul_elems(b, c))
        assert np.array_equal(lhs, rhs)


def test_non_associative_table_rejected_with_witness():
    f = F2
    # x * x = y, y * anything = x: (xx)x = yx = x but x(xx) = xy = 0
    constants = np.zeros((2, 2, 2), dtype=np.int16)
    constants[0, 0] = [0, 1]
    constants[1, 0] = [1, 0]
    with pytest.raises(NonAssociative) as exc:
        make_algebra(f, ["x", "y"], constants, f.asarray([1, 0]))
    assert len(exc.value.args[0]) > 0  # names the witness triple


def test_bad_unit_rejected():
    alg = r2()
    with pytest.raises(BadUnit):
        make_algebra(alg.field, list(alg.labels), alg.constants, alg.field.asarray([0, 1]))


def test_wrong_shapes_rejected():
    f = F2
    with pytest.raises(DimensionMismatch):
        make_algebra(f, ["a"], np.zeros((2, 2, 2), dtype=np.int16), f.asarray([1]))
    with pytest.raises(DimensionMismatch):
        make_algebra(f, ["a", "b"], np.zeros((2, 2, 2), dtype=np.int16), f.asarray([1]))


@pytest.mark.parametrize("alg_fn", [r2, f3, tri2])
def test_elem_codes_roundtrip(alg_fn):
    alg = alg_fn()
    count = alg.field.q**alg.dim
    seen = set()
    for code in range(count):
        v = alg.elem_from_code(code)
        assert alg.elem_code(v) == code
        seen.add(bytes(v))
    assert len(seen) == count
    listed = list(alg.enumerate_elements())
    assert len(listed) == count


def test_elem_codes_roundtrip_past_the_listing_cap():
    # F_9^7, seven orthogonal idempotents: 9^7 elements, more than a listing may hold
    f9, k = Field(3, 2), 7
    constants = np.zeros((k, k, k), dtype=np.int16)
    constants[range(k), range(k), range(k)] = 1
    alg = make_algebra(f9, [f"e{i}" for i in range(k)], constants, f9.asarray([1] * k))
    top = f9.q**k - 1
    assert top + 1 > linalg.ENUMERATION_CAP
    for code in (0, 1, 8, 9, 123_456, top):
        v = alg.elem_from_code(code)
        assert v.dtype == np.int16 and v.shape == (k,)
        assert alg.elem_code(v) == code
    assert np.array_equal(alg.elem_from_code(top), np.full(k, 8, dtype=np.int16))
    for code in (-1, top + 1):
        with pytest.raises(DimensionMismatch):
            alg.elem_from_code(code)


def test_label_index_and_scalar_multiple_of_the_unit():
    alg = r2()
    assert alg.label_index("t") == 1
    with pytest.raises(KeyError):
        alg.label_index("u")
    two = f3().field.mul(np.full(1, 2, ELEM), f3().unit)
    assert np.array_equal(two, f3().elem_from_code(2))


def test_render_elem_forms():
    alg = r2()
    assert alg.render_elem(alg.elem_zero()) == "0"
    assert alg.render_elem(alg.basis_elem(1)) == "t"
    both = alg.field.add(alg.basis_elem(0), alg.basis_elem(1))
    assert alg.render_elem(both) == "(1 + t)"
    assert f3().render_elem(f3().elem_from_code(2)) == "2*1"


@pytest.mark.parametrize("alg_fn", [r2, tri2])
def test_regular_actions_are_multiplication(alg_fn):
    alg = alg_fn()
    right = alg.right_regular_actions()
    left = alg.left_regular_actions()
    for i in range(alg.dim):
        for j in range(alg.dim):
            ei, ej = alg.basis_elem(i), alg.basis_elem(j)
            # right action of e_j on e_i is the product e_i e_j
            from ppmod import linalg

            got_r = linalg.matvec(alg.field, ei, right[j])
            assert np.array_equal(got_r, alg.mul_elems(ei, ej))
            got_l = linalg.matvec(alg.field, ei, left[j])
            assert np.array_equal(got_l, alg.mul_elems(ej, ei))
