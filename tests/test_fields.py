"""Finite field arithmetic checked exhaustively against the axioms.

Every field with q <= 9 is small enough to verify the full ring axioms
by brute force, which keeps the rest of the suite honest: all linear
algebra reduces to these tables.  ``Field`` itself checks only the order
bound, primality and unique inverses; the ring axioms of every extension
field up to q = 256 are re-proved in ``test_oracles``.
"""

import itertools
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppmod import Field
from ppmod.errors import DimensionMismatch, PpmodError
from ppmod.fields import ELEM

SMALL_FIELDS = [Field(2), Field(3), Field(5), Field(7), Field(2, 2), Field(3, 2), Field(2, 3)]


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=lambda f: f"F{f.q}")
def test_field_axioms_exhaustive(field):
    els = list(range(field.q))
    arr = field.asarray(els)
    add = {(a, b): int(field.add(arr[a], arr[b])) for a in els for b in els}
    mul = {(a, b): int(field.mul(arr[a], arr[b])) for a in els for b in els}
    for a, b in itertools.product(els, repeat=2):
        assert add[a, b] == add[b, a]
        assert mul[a, b] == mul[b, a]
        assert add[a, 0] == a
        assert mul[a, 1] == a
        assert mul[a, 0] == 0
    for a, b, c in itertools.product(els, repeat=3):
        assert add[add[a, b], c] == add[a, add[b, c]]
        assert mul[mul[a, b], c] == mul[a, mul[b, c]]
        assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=lambda f: f"F{f.q}")
def test_field_inverses(field):
    for a in range(field.q):
        v = field.asarray(a)
        assert int(field.add(v, field.neg(v))) == 0
        assert int(field.sub(v, v)) == 0
        if a != 0:
            assert int(field.mul(v, field.inv(v))) == 1


def test_inv_of_zero_rejected():
    f = Field(3)
    with pytest.raises(ZeroDivisionError):
        f.inv(f.asarray(0))


@pytest.mark.parametrize("field", [Field(2), Field(3), Field(2, 2)], ids=lambda f: f"F{f.q}")
def test_vectorised_ops_match_scalar(field):
    rng = np.random.default_rng(7)
    a = field.asarray(rng.integers(0, field.q, size=(4, 5)))
    b = field.asarray(rng.integers(0, field.q, size=(4, 5)))
    s = field.add(a, b)
    p = field.mul(a, b)
    for i in range(4):
        for j in range(5):
            assert int(s[i, j]) == int(field.add(a[i, j], b[i, j]))
            assert int(p[i, j]) == int(field.mul(a[i, j], b[i, j]))
    col_sums = field.sum(a, axis=0)
    for j in range(5):
        assert int(col_sums[j]) == int(_fold_add(field, a[:, j]))


def _fold_add(field, flat):
    acc = field.asarray(0)
    for v in flat:
        acc = field.add(acc, v)
    return acc


def test_inv_and_dot_validate_their_arguments():
    f = Field(2)
    for bad in (-1, 2, 3, 1.0, True, np.True_, "1", [1, 1]):
        with pytest.raises(DimensionMismatch):
            f.inv(bad)
    for u in ([3], [1.7], [-1], [True], [2**70]):
        with pytest.raises(DimensionMismatch):
            f.dot(u, [1])
        with pytest.raises(DimensionMismatch):
            f.dot([1], u)
    for zero in (0, np.int16(0), f.asarray(0)):
        with pytest.raises(ZeroDivisionError, match="0 has no inverse"):
            f.inv(zero)
    assert f.inv(1) == 1 and Field(5).inv(np.int64(2)) == 3
    assert f.dot([1, 1], [1, 1]) == 0 and f.dot([], []) == 0


def test_dot_is_bilinear():
    f = Field(3, 2)
    rng = np.random.default_rng(11)
    u = f.asarray(rng.integers(0, f.q, size=6))
    v = f.asarray(rng.integers(0, f.q, size=6))
    w = f.asarray(rng.integers(0, f.q, size=6))
    lhs = f.dot(u, f.add(v, w))
    rhs = f.add(f.dot(u, v), f.dot(u, w))
    assert int(lhs) == int(rhs)


def test_asarray_validates_range():
    f = Field(2)
    with pytest.raises(DimensionMismatch):
        f.asarray([2])
    with pytest.raises(DimensionMismatch):
        f.asarray([[-1]])


_SCALARS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(-2, 10),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.booleans(),
)
_ENTRIES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=4), max_leaves=8
)


@given(field=st.sampled_from(SMALL_FIELDS), x=_ENTRIES)
def test_asarray_returns_field_elements_or_raises(field, x):
    """Any input gives in-range ELEM entries or DimensionMismatch."""
    try:
        a = field.asarray(x)
    except DimensionMismatch:
        return
    assert a.dtype == ELEM
    assert a.size == 0 or (a.min() >= 0 and a.max() < field.q)
    assert np.array_equal(a, np.asarray(x))


def test_asarray_rejects_non_integer_and_ragged_input():
    f = Field(5)
    for bad in ([1.0, 2], ["1", 0], [[1], 0], [True, False], [70000, 0], 2**80):
        with pytest.raises(DimensionMismatch):
            f.asarray(bad)
    assert f.asarray([]).dtype == ELEM
    assert np.array_equal(f.asarray(np.int64(4)), 4)


def test_asarray_rejects_booleans_mixed_with_integers():
    # numpy reads these lists as integer arrays
    f = Field(5)
    for bad in ([True, 0], [[True], [False], [0]], [0, np.True_], [[1, 2], [False, 3]]):
        with pytest.raises(DimensionMismatch):
            f.asarray(bad)
    assert f.asarray([[1, 0], [np.int64(4), 2]]).tolist() == [[1, 0], [4, 2]]


def test_prime_subfield_embeds():
    # In F_4 the prime subfield {0, 1} must behave like F_2.
    f4 = Field(2, 2)
    one = f4.asarray(1)
    assert int(f4.add(one, one)) == 0


def test_fingerprint_distinguishes_fields():
    assert Field(2).fingerprint() != Field(3).fingerprint()
    assert Field(2).fingerprint() != Field(2, 2).fingerprint()
    assert Field(5).fingerprint() == Field(5).fingerprint()


def test_huge_field_orders_are_refused_before_the_primality_search():
    def interrupted(signum, frame):
        raise TimeoutError("the search for a prime factor ran")

    previous = signal.signal(signal.SIGALRM, interrupted)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        for p, d in ((257, 1), (1000, 1), (2**31 - 1, 2), (2**61 - 1, 1), (2**89 - 1, 1), (2, 9)):
            with pytest.raises(PpmodError, match=f"field order {p**d} exceeds the table limit 256"):
                Field(p, d)
        with pytest.raises(PpmodError, match="degree 0 must be >= 1"):
            Field(2**61 - 1, 0)
        # orders too large to print: 2^20000 has 6,021 digits
        for p, d in ((2, 20000), (3, 10000), (2, 10**9), (-5, 10**9)):
            with pytest.raises(PpmodError, match=rf"field order {p}\^{d} exceeds the table limit 256"):
                Field(p, d)
        for p in (-1, 0, 1):
            with pytest.raises(PpmodError, match=f"characteristic {p} is not prime"):
                Field(p, 10**9)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    for p, d in ((-3, 1), (0, 1), (1, 3), (6, 1), (4, 2), (255, 1)):
        with pytest.raises(PpmodError, match=f"characteristic {p} is not prime"):
            Field(p, d)
    assert Field(2, 8).modulus == [1, 1, 0, 1, 1, 0, 0, 0, 1] and Field(251).modulus is None


@pytest.mark.parametrize(
    "args, message",
    [
        ((3.0,), "characteristic must be an int, not float"),
        (("2",), "characteristic must be an int, not str"),
        ((True,), "characteristic must be an int, not bool"),
        ((np.int64(3),), "characteristic must be an int, not int64"),
        ((2, True), "degree must be an int, not bool"),
        ((3, 1.0), "degree must be an int, not float"),
        ((10**5000,), "a 16610-bit characteristic exceeds the table limit 256"),
        ((-(10**5000),), "a 16610-bit characteristic exceeds the table limit 256"),
        ((10**1000, 8), "a 3322-bit characteristic exceeds the table limit 256"),
        ((10**1000, 10**9), "a 3322-bit characteristic exceeds the table limit 256"),
    ],
)
def test_field_arguments_must_be_ints_small_enough_to_name(args, message):
    # Field(3.0) was a field with q = 3.0 equal to Field(3); a characteristic
    # past the int-to-str digit limit raised Python's ValueError
    with pytest.raises(PpmodError, match=f"^{message}$"):
        Field(*args)


def test_building_f256_stays_small():
    # the tables need one (256, 256, 15) int64 digit convolution, 7.9 MB;
    # the q^3 re-proof of the ring axioms peaked at 97.7 MB
    tracemalloc.start()
    try:
        field = Field(2, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.mul_list[2][field.inv_list[2]] == 1
    assert peak < 16 * 2**20
