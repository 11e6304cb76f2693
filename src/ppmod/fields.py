"""Exact arithmetic in small finite fields F_{p^d}.

An element of F_{p^d} is a plain int in ``0..q-1``: its base-p digits are
the coefficients of a polynomial of degree < d in the power basis of the
canonical modulus (digit i is the coefficient of X^i).  The modulus is
the lexicographically least monic irreducible of degree d over F_p, so
the encoding is canonical and equality of elements is equality of ints.

Arrays of elements are ``ELEM`` numpy arrays and the operations here
broadcast elementwise through the add/mul tables, which keeps q small
(q <= 256 enforced; q <= 9 is the intended working range).  Linear
combinations and matrix products are not written here but in
:mod:`ppmod.linalg`, whose row elimination uses the list copies
``add_list``/``mul_list``/``neg_list``/``inv_list`` of the tables.
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


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and any(a):
        shift = len(a) - 1 - dm
        c = (a[-1] * inv_lead) % p
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        while len(a) > 1 and a[-1] == 0:
            a.pop()
    return a


def _canonical_modulus(p: int, d: int) -> list[int]:
    """Least monic irreducible of degree d over F_p, coefficients low-first."""
    monics_by_degree: dict[int, list[list[int]]] = {}

    def monics(deg):
        if deg not in monics_by_degree:
            out = []
            for code in range(p**deg):
                coeffs = [(code // p**i) % p for i in range(deg)]
                out.append(coeffs + [1])
            monics_by_degree[deg] = out
        return monics_by_degree[deg]

    for cand in monics(d):
        reducible = False
        for deg in range(1, d // 2 + 1):
            for f in monics(deg):
                if _poly_mod(cand, f, p) == [0]:
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return cand
    raise PpmodError(f"no irreducible of degree {d} over F_{p}")


def read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; ``a`` itself stays writable."""
    view = a.view()
    view.flags.writeable = False
    return view


def freeze(obj, *names: str) -> None:
    """Replace the named array attributes of a record by read-only views."""
    for name in names:
        object.__setattr__(obj, name, read_only(getattr(obj, name)))


def _holds_bool(x) -> bool:
    return any(isinstance(e, (bool, np.bool_)) for e in np.asarray(x, dtype=object).flat)


class Field:
    """F_{p^d} with precomputed add/mul/neg/inv tables.

    Args:
        p: characteristic, a prime.
        d: extension degree, >= 1.

    Attributes:
        p, d, q: characteristic, degree, and order q = p**d.
        modulus: coefficients (low-first) of the canonical modulus, or
            None when d == 1.
    """

    def __init__(self, p: int, d: int = 1):
        if not _is_prime(p):
            raise PpmodError(f"characteristic {p} is not prime")
        if d < 1:
            raise PpmodError(f"degree {d} must be >= 1")
        q = p**d
        if q > 256:
            raise PpmodError(f"field order {q} exceeds the table limit 256")
        self.p = p
        self.d = d
        self.q = q
        self.modulus = None if d == 1 else _canonical_modulus(p, d)
        self._build_tables()
        if d > 1:
            self._check_axioms()

    def _digits(self, a: int) -> list[int]:
        return [(a // self.p**i) % self.p for i in range(self.d)]

    def _from_digits(self, digits: list[int]) -> int:
        digits = digits + [0] * (self.d - len(digits))
        return sum((c % self.p) * self.p**i for i, c in enumerate(digits[: self.d]))

    def _build_tables(self) -> None:
        p, d, q = self.p, self.d, self.q
        if d == 1:
            rng = np.arange(q, dtype=np.int64)
            self.add_table = ((rng[:, None] + rng[None, :]) % p).astype(ELEM)
            self.mul_table = ((rng[:, None] * rng[None, :]) % p).astype(ELEM)
            self.neg_table = ((-rng) % p).astype(ELEM)
        else:
            add = np.zeros((q, q), dtype=ELEM)
            mul = np.zeros((q, q), dtype=ELEM)
            neg = np.zeros(q, dtype=ELEM)
            for a in range(q):
                da = self._digits(a)
                neg[a] = self._from_digits([(-c) % p for c in da])
                for b in range(q):
                    db = self._digits(b)
                    add[a, b] = self._from_digits(
                        [(x + y) % p for x, y in zip(da, db)]
                    )
                    prod = _poly_mod(_poly_mul(da, db, p), self.modulus, p)
                    mul[a, b] = self._from_digits(prod)
            self.add_table = add
            self.mul_table = mul
            self.neg_table = neg
        inv = np.zeros(q, dtype=ELEM)
        for a in range(1, q):
            hits = np.nonzero(self.mul_table[a] == 1)[0]
            if len(hits) != 1:
                raise PpmodError(f"element {a} has no unique inverse")
            inv[a] = hits[0]
        self.inv_table = inv
        # nested-list copies for the row elimination in linalg
        self.add_list, self.mul_list, self.neg_list, self.inv_list = (
            t.tolist() for t in (self.add_table, self.mul_table, self.neg_table, inv)
        )

    def _check_axioms(self) -> None:
        q = self.q
        a = np.arange(q, dtype=ELEM)
        am = self.add_table
        mm = self.mul_table
        if not np.array_equal(am, am.T) or not np.array_equal(mm, mm.T):
            raise PpmodError("field tables are not commutative")
        # associativity and distributivity on all q^3 triples
        lhs = am[am[a[:, None, None], a[None, :, None]], a[None, None, :]]
        rhs = am[a[:, None, None], am[a[None, :, None], a[None, None, :]]]
        if not np.array_equal(lhs, rhs):
            raise PpmodError("addition is not associative")
        lhs = mm[mm[a[:, None, None], a[None, :, None]], a[None, None, :]]
        rhs = mm[a[:, None, None], mm[a[None, :, None], a[None, None, :]]]
        if not np.array_equal(lhs, rhs):
            raise PpmodError("multiplication is not associative")
        lhs = mm[a[:, None, None], am[a[None, :, None], a[None, None, :]]]
        rhs = am[
            mm[a[:, None, None], a[None, :, None]],
            mm[a[:, None, None], a[None, None, :]],
        ]
        if not np.array_equal(lhs, rhs):
            raise PpmodError("distributivity fails")

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
        return self.add_table[np.asarray(a, ELEM), np.asarray(b, ELEM)]

    def sub(self, a, b) -> np.ndarray:
        return self.add_table[np.asarray(a, ELEM), self.neg_table[np.asarray(b, ELEM)]]

    def neg(self, a) -> np.ndarray:
        return self.neg_table[np.asarray(a, ELEM)]

    def mul(self, a, b) -> np.ndarray:
        return self.mul_table[np.asarray(a, ELEM), np.asarray(b, ELEM)]

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError("0 has no inverse")
        return int(self.inv_table[a])

    def sum(self, arr, axis: int = 0) -> np.ndarray:
        """Field sum along an axis (plain ``np.sum`` would leave F_p)."""
        arr = np.asarray(arr, ELEM)
        if arr.shape[axis] == 0:
            return np.zeros(np.delete(arr.shape, axis), dtype=ELEM)
        arr = np.moveaxis(arr, axis, 0)
        out = arr[0]
        for i in range(1, arr.shape[0]):
            out = self.add_table[out, arr[i]]
        return out

    def dot(self, u, v) -> int:
        u = np.asarray(u, ELEM)
        v = np.asarray(v, ELEM)
        if u.shape != v.shape:
            raise DimensionMismatch("dot of unequal shapes")
        if u.size == 0:
            return 0
        return int(self.sum(self.mul_table[u, v]))

    def fingerprint(self) -> tuple:
        return ("F", self.p, self.d)

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.p, self.d) == (other.p, other.d)

    def __hash__(self) -> int:
        return hash(("Field", self.p, self.d))

    def __repr__(self) -> str:
        return f"Field({self.p})" if self.d == 1 else f"Field({self.p}, {self.d})"
