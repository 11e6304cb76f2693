"""Exact arithmetic in small finite fields F_{p^d}.

An element of F_{p^d} is a plain int in ``0..q-1``: its base-p digits are
the coefficients of a polynomial of degree < d in the power basis of the
canonical modulus (digit i is the coefficient of X^i).  The modulus is
the least monic irreducible of degree d over F_p in code order (its low
d coefficients read as such a code), so the encoding is canonical and
equality of elements is equality of ints.  :func:`digits` decodes codes
into digit vectors; the tables are built from it with whole-array
operations: add and neg digitwise mod p, mul as the digit convolution.

Arrays of elements are ``ELEM`` numpy arrays and the operations here
broadcast elementwise through the add/mul tables, which keeps q small
(q <= 256 enforced; q <= 9 is the intended working range).  In
characteristic 2 a code is a vector of base-2 digits, so the code of a
sum is the XOR of the codes (``add_table[a, b] == a ^ b`` and
``neg_table[a] == a``): ``add``, ``sub`` and ``sum`` are bitwise there,
and over F2, where ``mul_table[a, b] == a & b``, ``mul`` is too.  Linear
combinations and matrix products are not written here but in
:mod:`ppmod.linalg`, whose row elimination uses the list copies
``add_list``/``mul_list``/``neg_list``/``inv_list`` of the tables for
every q.
:meth:`Field.asarray` is the one validated entry point for outside data:
it accepts integer arrays with entries in 0..q-1 and raises
``DimensionMismatch`` on anything else.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, PpmodError

ELEM = np.int16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for k in range(2, int(n**0.5) + 1):
        if n % k == 0:
            return False
    return True


def digits(codes, base: int, width: int) -> np.ndarray:
    """The low ``width`` base-``base`` digits of each code, least significant first.

    Shape ``codes.shape + (width,)``, int64.  One ``divmod`` per digit, so
    no intermediate exceeds the codes themselves.
    """
    codes = np.asarray(codes, dtype=np.int64)
    out = np.empty(codes.shape + (width,), dtype=np.int64)
    for i in range(width):
        codes, out[..., i] = divmod(codes, base)
    return out


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unreduced products of the digit polynomials a (..., m) and b (..., n)."""
    m, n = a.shape[-1], b.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (m + n - 1,), np.int64)
    for i in range(m):
        out[..., i : i + n] += a[..., i, None] * b
    return out


def _monics(p: int, k: int) -> np.ndarray:
    """Every monic of degree k over F_p in code order, coefficients low-first."""
    return np.concatenate([digits(np.arange(p**k), p, k), np.ones((p**k, 1), np.int64)], axis=1)


def _canonical_modulus(p: int, d: int) -> list[int]:
    """Least monic irreducible of degree d over F_p, coefficients low-first.

    A reducible monic of degree d is a product of monics of degrees i and
    d - i for some i <= d/2; the modulus is the first code no product hits.
    """
    powers = p ** np.arange(d)
    reducible = np.zeros(p**d, dtype=bool)
    for i in range(1, d // 2 + 1):
        prod = _convolve(_monics(p, i)[:, None], _monics(p, d - i)[None, :]) % p
        reducible[prod[..., :d] @ powers] = True
    return digits(np.argmin(reducible), p, d).tolist() + [1]


def read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; ``a`` itself stays writable."""
    view = a.view()
    view.flags.writeable = False
    return view


def freeze(obj, *names: str) -> None:
    """Replace the named array attributes of a record by read-only views."""
    for name in names:
        object.__setattr__(obj, name, read_only(getattr(obj, name)))


def is_int(x) -> bool:
    """Whether x is a Python int and not a bool: what a count, an arity or a cap must be."""
    return isinstance(x, int) and not isinstance(x, bool)


def _holds_bool(x) -> bool:
    return any(isinstance(e, (bool, np.bool_)) for e in np.asarray(x, dtype=object).flat)


class Field:
    """F_{p^d} with precomputed add/mul/neg/inv tables.

    Args:
        p: characteristic, a prime int.
        d: extension degree, an int >= 1.

    Attributes:
        p, d, q: characteristic, degree, and order q = p**d.
        modulus: coefficients (low-first) of the canonical modulus, or
            None when d == 1.
    """

    def __init__(self, p: int, d: int = 1):
        for name, value in (("characteristic", p), ("degree", d)):
            if not is_int(value):
                raise PpmodError(f"{name} must be an int, not {type(value).__name__}")
        # the order bound first: _is_prime is trial division up to sqrt(p)
        if d < 1:
            raise PpmodError(f"degree {d} must be >= 1")
        # a p past 256 bits is named by its length, so no int printed below has 640 digits
        if abs(p).bit_length() > 256:
            raise PpmodError(f"a {abs(p).bit_length()}-bit characteristic exceeds the table limit 256")
        # |p| >= 2 and d > 8 exceed 256; a power past 64 bits is named, not
        # taken, for it may be too large to take or to print
        if abs(p) >= 2 and d > 8 and d * abs(p).bit_length() > 64:
            raise PpmodError(f"field order {p}^{d} exceeds the table limit 256")
        q = p**d
        if q > 256:
            raise PpmodError(f"field order {q} exceeds the table limit 256")
        if not _is_prime(p):
            raise PpmodError(f"characteristic {p} is not prime")
        self.p = p
        self.d = d
        self.q = q
        self.modulus = None if d == 1 else _canonical_modulus(p, d)
        self._build_tables()

    def _build_tables(self) -> None:
        """Every table from the digits of the elements: add and neg digitwise
        mod p, mul the digit convolution reduced by X^k mod the modulus.
        F_p[X]/(f) is a commutative ring for every monic f; only that it is
        a field depends on f, and the unique inverses below check it."""
        p, d, q = self.p, self.d, self.q
        powers = p ** np.arange(d)
        el = digits(np.arange(q), p, d)
        # row k is X^k mod the modulus, for the 2d - 1 degrees of a product
        reduce = np.eye(2 * d - 1, d, dtype=np.int64)
        for k in range(d, 2 * d - 1):
            reduce[k, 1:] = reduce[k - 1, :-1]
            reduce[k] = (reduce[k] - reduce[k - 1, -1] * np.asarray(self.modulus[:d])) % p
        self.add_table = ((el[:, None] + el[None, :]) % p @ powers).astype(ELEM)
        self.mul_table = ((_convolve(el[:, None], el[None, :]) @ reduce) % p @ powers).astype(ELEM)
        self.neg_table = ((-el) % p @ powers).astype(ELEM)
        hits = self.mul_table == 1
        bad = np.flatnonzero(hits[1:].sum(axis=1) != 1)
        if bad.size:
            raise PpmodError(f"element {bad[0] + 1} has no unique inverse")
        # row 0 has no hit, so 0 maps to 0
        self.inv_table = hits.argmax(axis=1).astype(ELEM)
        # nested-list copies for the row elimination in linalg
        self.add_list, self.mul_list, self.neg_list, self.inv_list = (
            t.tolist() for t in (self.add_table, self.mul_table, self.neg_table, self.inv_table)
        )

    # -- elementwise operations (broadcasting) --------------------------

    def asarray(self, x, copy: bool = False) -> np.ndarray:
        """Validated array of field elements: the entry point for user data.

        With ``copy`` the result never shares the caller's memory, so it
        can be frozen (:func:`read_only`) without touching the caller's array.

        Raises:
            DimensionMismatch: ragged input, non-integer entries (booleans
                included), or entries outside 0..q-1.  Empty input is
                always legal.
        """
        try:
            a = np.asarray(x)
        except ValueError:
            raise DimensionMismatch("ragged input is not an array") from None
        if a.size:
            # numpy reads a list mixing booleans and ints as ints
            mixed = not isinstance(x, np.ndarray) and _holds_bool(x)
            if mixed or a.dtype.kind not in "iu" or a.min() < 0 or a.max() >= self.q:
                raise DimensionMismatch(
                    f"entries must be integers in 0..{self.q - 1} "
                    f"for F_{self.p}^{self.d}"
                )
        return a.astype(ELEM, copy=copy)

    def add(self, a, b) -> np.ndarray:
        if self.p == 2:
            return np.asarray(a, ELEM) ^ np.asarray(b, ELEM)
        return self.add_table[np.asarray(a, ELEM), np.asarray(b, ELEM)]

    def sub(self, a, b) -> np.ndarray:
        if self.p == 2:
            return self.add(a, b)
        return self.add_table[np.asarray(a, ELEM), self.neg_table[np.asarray(b, ELEM)]]

    def neg(self, a) -> np.ndarray:
        return self.neg_table[np.asarray(a, ELEM)]

    def mul(self, a, b) -> np.ndarray:
        if self.q == 2:
            return np.asarray(a, ELEM) & np.asarray(b, ELEM)
        return self.mul_table[np.asarray(a, ELEM), np.asarray(b, ELEM)]

    def inv(self, a) -> int:
        a = self.asarray(a)
        if a.ndim:
            raise DimensionMismatch("inv takes one element")
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return int(self.inv_table[a])

    def sum(self, arr, axis: int = 0) -> np.ndarray:
        """Field sum along an axis (plain ``np.sum`` would leave F_p): one
        XOR reduce in characteristic 2, a loop of ``add_table`` gathers over
        the summed axis otherwise.  An empty axis sums to zeros."""
        arr = np.asarray(arr, ELEM)
        if self.p == 2:
            return np.bitwise_xor.reduce(arr, axis=axis)
        if arr.shape[axis] == 0:
            return np.zeros(np.delete(arr.shape, axis), dtype=ELEM)
        arr = np.moveaxis(arr, axis, 0)
        out = arr[0].copy()
        for i in range(1, arr.shape[0]):
            out = self.add_table[out, arr[i]]
        return out

    def dot(self, u, v) -> int:
        """The dot product of two vectors of equal length.

        Raises:
            DimensionMismatch: an operand that is not a 1-D vector, or
                vectors of unequal length.
        """
        u = self.asarray(u)
        v = self.asarray(v)
        if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
            raise DimensionMismatch(
                f"dot takes two vectors of equal length, not shapes {u.shape} and {v.shape}"
            )
        return int(self.sum(self.mul(u, v)))

    def fingerprint(self) -> tuple:
        return ("F", self.p, self.d)

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.p, self.d) == (other.p, other.d)

    def __hash__(self) -> int:
        return hash(("Field", self.p, self.d))

    def __repr__(self) -> str:
        return f"Field({self.p})" if self.d == 1 else f"Field({self.p}, {self.d})"
