"""Exact linear algebra over a finite field.

Conventions: matrices are 2-D numpy arrays of field-element codes.
``solve``/``null_space`` use the column convention (unknowns x with
A @ x = b); subspaces are represented by their reduced-row-echelon
basis, which is a canonical form, so two subspaces are equal iff their
bases are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .fields import ELEM, Field


def zeros(m: int, n: int) -> np.ndarray:
    return np.zeros((m, n), dtype=ELEM)


def eye(field: Field, n: int) -> np.ndarray:
    return np.eye(n, dtype=ELEM)


def matmul(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the field."""
    a = np.asarray(a, ELEM)
    b = np.asarray(b, ELEM)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    if a.shape[1] == 0:
        return zeros(a.shape[0], b.shape[1])
    if field.d == 1:
        return ((a.astype(np.int64) @ b.astype(np.int64)) % field.p).astype(ELEM)
    prod = field.mul_table[a[:, :, None], b[None, :, :]]
    return field.sum(prod, axis=1)


def matvec(field: Field, v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row vector times matrix: v @ a."""
    return matmul(field, np.asarray(v, ELEM).reshape(1, -1), a)[0]


def kron(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with field multiplication."""
    ma, na = a.shape
    mb, nb = b.shape
    if min(ma, na, mb, nb) == 0:
        return zeros(ma * mb, na * nb)
    out = field.mul(a[:, None, :, None], b[None, :, None, :])
    return out.reshape(ma * mb, na * nb)


def all_vectors(field: Field, n: int) -> np.ndarray:
    """All of F_q^n in code order, shape (q^n, n).

    Row ``code`` holds the base-q digits of ``code``, digit i in
    coordinate i, so coordinate 0 varies fastest.  This is the one
    definition of the code order of elements and coefficient tuples.
    """
    q = field.q
    digits = np.indices((q,) * n, dtype=ELEM).reshape(n, q**n)
    return np.ascontiguousarray(digits[::-1].T)


def rref(field: Field, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the pivot column list."""
    m = np.array(a, dtype=ELEM, copy=True)
    if m.ndim != 2:
        raise DimensionMismatch("rref expects a 2-D array")
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if len(nz) == 0:
            continue
        pivot_row = r + int(nz[0])
        if pivot_row != r:
            m[[r, pivot_row]] = m[[pivot_row, r]]
        inv = field.inv(int(m[r, c]))
        m[r] = field.mul_table[np.full(cols, inv, ELEM), m[r]]
        col = m[:, c].copy()
        col[r] = 0
        factors = field.neg_table[col]
        m = field.add_table[m, field.mul_table[factors[:, None], m[r][None, :]]]
        pivots.append(c)
        r += 1
    return m, pivots


def row_space(field: Field, a: np.ndarray) -> np.ndarray:
    """Canonical (RREF, no zero rows) basis of the row space."""
    m, pivots = rref(field, a)
    return m[: len(pivots)]


def rank(field: Field, a: np.ndarray) -> int:
    return len(rref(field, a)[1])


def null_space(field: Field, a: np.ndarray) -> np.ndarray:
    """Canonical basis (as rows) of {x : a @ x = 0}."""
    a = np.asarray(a, ELEM)
    m, n = a.shape
    red, pivots = rref(field, a)
    free = [c for c in range(n) if c not in pivots]
    basis = zeros(len(free), n)
    for idx, fc in enumerate(free):
        basis[idx, fc] = 1
        for r, pc in enumerate(pivots):
            basis[idx, pc] = field.neg_table[red[r, fc]]
    return row_space(field, basis)


def solve(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution of a @ x = b, or None when inconsistent."""
    a = np.asarray(a, ELEM)
    b = np.asarray(b, ELEM).reshape(-1)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"matrix {a.shape} vs rhs {b.shape}")
    aug = np.concatenate([a, b[:, None]], axis=1)
    red, pivots = rref(field, aug)
    if a.shape[1] in pivots:
        return None
    x = np.zeros(a.shape[1], dtype=ELEM)
    for r, pc in enumerate(pivots):
        x[pc] = red[r, a.shape[1]]
    return x


@dataclass(frozen=True)
class LinearSolution:
    """Particular solution plus a canonical kernel basis (rows)."""

    particular: np.ndarray | None
    kernel: np.ndarray

    @property
    def consistent(self) -> bool:
        return self.particular is not None


def solve_linear(field: Field, a: np.ndarray, b: np.ndarray) -> LinearSolution:
    """Full solution set of a @ x = b in column convention."""
    return LinearSolution(solve(field, a, b), null_space(field, np.asarray(a, ELEM)))


# -- subspaces (rows of an RREF basis span the space) -------------------


def reduce_mod(field: Field, basis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Residue of v after eliminating the pivots of an RREF basis."""
    v = np.array(v, dtype=ELEM, copy=True)
    for row in basis:
        nz = np.nonzero(row)[0]
        if len(nz) == 0:
            continue
        c = int(nz[0])
        if v[c]:
            factor = field.neg_table[field.mul_table[v[c], field.inv(int(row[c]))]]
            v = field.add_table[v, field.mul_table[np.full_like(row, factor), row]]
    return v

def in_span(field: Field, basis: np.ndarray, v: np.ndarray) -> bool:
    return not np.any(reduce_mod(field, basis, v))


def coords_in_rref(field: Field, basis: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """Coefficients expressing v in an RREF basis, or None if outside."""
    if not in_span(field, basis, v):
        return None
    pivots = [int(np.nonzero(row)[0][0]) for row in basis]
    return np.asarray(v, ELEM)[pivots]


def subspace_sum(field: Field, b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    return row_space(field, np.concatenate([b1, b2], axis=0))


def subspace_intersect(field: Field, b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Canonical basis of rowspace(b1) & rowspace(b2)."""
    if b1.shape[0] == 0 or b2.shape[0] == 0:
        return zeros(0, b1.shape[1])
    stacked = np.concatenate([b1, b2], axis=0)
    coeffs = null_space(field, stacked.T)
    part = matmul(field, coeffs[:, : b1.shape[0]], b1)
    return row_space(field, part)


def subspace_le(field: Field, b1: np.ndarray, b2: np.ndarray) -> bool:
    return all(in_span(field, b2, row) for row in b1)


def subspace_eq(b1: np.ndarray, b2: np.ndarray) -> bool:
    return b1.shape == b2.shape and np.array_equal(b1, b2)
