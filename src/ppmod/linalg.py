"""Exact linear algebra over a finite field.

Conventions: matrices are 2-D numpy arrays of field-element codes.
``solve``/``null_space`` use the column convention (unknowns x with
A @ x = b); subspaces are represented by their reduced-row-echelon
basis, which is a canonical form, so two subspaces are equal iff their
bases are byte-identical.  Every Hom space and commutant is the one
Sylvester null space :func:`intertwiners`.

Every elimination is :func:`_insert` of rows into a reduced echelon list
kept sorted by lead, the (unique) RREF basis, and every membership test
the one sequential reduction :func:`_residue`, both on Python list rows
through the field's list tables; numpy is only the boundary, crossed
once per call (one ``tolist`` in, one ``ELEM`` array out), since the
matrices are small and per-call numpy overhead would dominate.  A
caller that grows a basis row by row (:func:`grow_basis`) keeps the
echelon list across its whole loop and crosses the boundary once at
each end.  Over F2 a product's terms are 0 or 1, so ``matmul`` is the
parity of the int16 integer product, which a wraparound keeps; over
F_{2^d} its terms sum through ``Field.sum``'s XOR reduce.  Every search
of F_q^n in code order is one :func:`walk`, with one cell budget,
``WALK_CELLS``, and one refusal past ``ENUMERATION_CAP``.
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from .errors import CapExceeded, DimensionMismatch
from .fields import ELEM, Field, digits

# The most rows any listing of F_q^n may have (elements, coefficient tuples).
ENUMERATION_CAP = 2**20
# The most cells (rows times the caller's width) one chunk of a ``walk`` makes.
WALK_CELLS = 2**14


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
    if field.q == 2:
        return (a @ b) & 1
    if field.d == 1:
        return ((a.astype(np.int64) @ b.astype(np.int64)) % field.p).astype(ELEM)
    prod = field.mul_table[a[:, :, None], b[None, :, :]]
    return field.sum(prod, axis=1)


def matvec(field: Field, v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row vector times matrix: v @ a."""
    return matmul(field, np.asarray(v, ELEM).reshape(1, -1), a)[0]


def images(field: Field, rows: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """rows[r] @ mats[i] for every r and i: one ``matmul`` of the (r, d)
    rows against the (s, d, e) stack side by side, reshaped to (r, s, e)."""
    s, d, e = mats.shape
    side_by_side = mats.transpose(1, 0, 2).reshape(d, s * e)
    return matmul(field, rows, side_by_side).reshape(rows.shape[0], s, e)


def pair_products(field: Field, mats: np.ndarray) -> np.ndarray:
    """mats[i] @ mats[j] for every i and j of a (k, d, d) stack, shape (k, k, d, d)."""
    k, d = mats.shape[0], mats.shape[1]
    # row a of mats[i] times every mats[j]
    rows = images(field, mats.reshape(k * d, d), mats)
    return rows.reshape(k, d, k, d).transpose(0, 2, 1, 3)


def kron(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with field multiplication."""
    ma, na = a.shape
    mb, nb = b.shape
    if min(ma, na, mb, nb) == 0:
        return zeros(ma * mb, na * nb)
    out = field.mul(a[:, None, :, None], b[None, :, None, :])
    return out.reshape(ma * mb, na * nb)


def sylvester_rows(field: Field, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Rows of kron(left[i], I) - kron(I, right[i]) for each i, stacked.

    ``left`` is (s, a, a) and ``right`` is (s, b, b); the result is
    (s*a*b, a*b).  A row-major vec(X) of an a x b matrix X is annihilated
    by every row iff left[i] X = X right[i]^T for all i.
    """
    s, a, b = left.shape[0], left.shape[1], right.shape[1]
    lk = field.mul(left[:, :, None, :, None], eye(field, b)[None, None, :, None, :])
    rk = field.mul(eye(field, a)[None, :, None, :, None], right[:, None, :, None, :])
    return field.sub(lk, rk).reshape(s * a * b, a * b)


def intertwiners(field: Field, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Canonical basis, as an (h, a, b) stack, of {X : left[i] X = X right[i] for all i}.

    ``left`` is (s, a, a) and ``right`` is (s, b, b): the null space of
    ``sylvester_rows`` with ``right`` transposed, reshaped.  Hom spaces
    and commutants are such spaces.
    """
    a, b = left.shape[1], right.shape[1]
    if a == 0 or b == 0:
        return np.zeros((0, a, b), dtype=ELEM)
    rows = sylvester_rows(field, left, right.transpose(0, 2, 1))
    return null_space(field, rows).reshape(-1, a, b)


def all_vectors(field: Field, n: int) -> np.ndarray:
    """All of F_q^n in code order, shape (q^n, n).

    Row ``code`` holds the base-q digits of ``code``, digit i in
    coordinate i, so coordinate 0 varies fastest.  This is the one
    definition of the code order of elements and coefficient tuples.
    Raises ``CapExceeded`` before allocating when q^n exceeds
    ``ENUMERATION_CAP``.
    """
    q = field.q
    _refuse_past_cap(q, n, q**n)
    coords = np.indices((q,) * n, dtype=ELEM).reshape(n, q**n)
    return np.ascontiguousarray(coords[::-1].T)


def _refuse_past_cap(q: int, n: int, rows: int) -> None:
    if rows > ENUMERATION_CAP:
        raise CapExceeded(f"listing F_{q}^{n} needs {q**n} rows > cap {ENUMERATION_CAP}")


def walk(field: Field, n: int, width: int, stop: int | None = None):
    """The rows of ``all_vectors(field, n)`` below code ``stop`` (all by default)
    in chunks of at most ``WALK_CELLS // width`` rows (one at least), ``width``
    the cells a caller builds per row.  A walk past ``ENUMERATION_CAP`` rows
    raises ``CapExceeded`` at the call, before any chunk."""
    q = field.q
    total = q**n if stop is None else min(stop, q**n)
    _refuse_past_cap(q, n, total)
    step = max(1, WALK_CELLS // max(1, width))
    return (
        digits(np.arange(start, min(start + step, total)), q, n).astype(ELEM)
        for start in range(0, total, step)
    )


def _array(rows: list[list[int]], ncols: int) -> np.ndarray:
    """The rows as one compact (len(rows), ncols) array, not a view: results are cached."""
    return np.array(rows, dtype=ELEM) if rows else zeros(0, ncols)


def _leads(basis: np.ndarray) -> list[tuple[int, list[int]]]:
    """(leading column, row) of each non-zero basis row, in order."""
    out = []
    for row in np.asarray(basis, ELEM).tolist():
        for c, x in enumerate(row):
            if x:
                out.append((c, row))
                break
    return out


def _residue(field: Field, leads, v: list[int]) -> list[int]:
    """Eliminate each leading column from v, walking the rows in order."""
    add, mul, neg, inv = field.add_list, field.mul_list, field.neg_list, field.inv_list
    for c, row in leads:
        if v[c]:
            s = mul[neg[mul[v[c]][inv[row[c]]]]]
            v = [add[x][s[y]] for x, y in zip(v, row)]
    return v


def _insert(field: Field, leads: list, rows: list[list[int]]) -> list:
    """Insert rows into the (lead, row) pairs of an RREF basis, in place, and
    return them.  Rows are replaced, never changed, so a shallow copy of
    ``leads`` is a basis of its own."""
    add, mul, neg, inv = field.add_list, field.mul_list, field.neg_list, field.inv_list
    for v in rows:
        if len(leads) == len(v):  # the whole space
            break
        if leads:
            v = _residue(field, leads, v)
        for c, x in enumerate(v):
            if x:
                break
        else:
            continue
        if x != 1:
            scale = mul[inv[x]]
            v = [scale[y] for y in v]
        for i, (d, row) in enumerate(leads):
            if row[c]:
                s = mul[neg[row[c]]]
                leads[i] = (d, [add[y][s[z]] for y, z in zip(row, v)])
        insort(leads, (c, v))  # leads are distinct, so rows are never compared
    return leads


def rref(field: Field, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the pivot column list."""
    m = np.asarray(a, ELEM)
    if m.ndim != 2:
        raise DimensionMismatch("rref expects a 2-D array")
    leads = _insert(field, [], m.tolist())
    out = zeros(*m.shape)
    if leads:
        out[: len(leads)] = [row for _, row in leads]
    return out, [c for c, _ in leads]


def row_space(field: Field, a: np.ndarray) -> np.ndarray:
    """Canonical (RREF, no zero rows) basis of the row space."""
    m, pivots = rref(field, a)
    return m[: len(pivots)]


def rank(field: Field, a: np.ndarray) -> int:
    return len(rref(field, a)[1])


def null_space(field: Field, a: np.ndarray, width: int | None = None) -> np.ndarray:
    """Canonical basis (as rows) of {x : a @ x = 0}, projected onto its
    first ``width`` coordinates (all of them by default).

    One elimination of ``a`` with its columns reversed: a pivot row then
    has entries only at the free columns f left of its pivot p (in the
    original order), so the kernel vectors e_f - sum_p red_p[f] e_p lead
    at f and vanish at every other free column.  Ordered by f they are
    the RREF basis, which is unique.  The vectors leading at f >= width
    project to zero, and the others, cut to ``width`` columns, are still
    reduced and echelon: only those are built.
    """
    a = np.asarray(a, ELEM)
    n = a.shape[1]
    width = n if width is None else width
    leads = _insert(field, [], a[:, ::-1].tolist())
    pivots = {c for c, _ in leads}
    neg = field.neg_list
    basis = []
    # reversed columns: original column n-1-fc ascending, below width
    for fc in range(n - 1, n - 1 - width, -1):
        if fc in pivots:
            continue
        row = [0] * n
        row[fc] = 1
        for pc, red in leads:
            if pc > fc:
                break
            row[pc] = neg[red[fc]]
        basis.append(row[::-1][:width])
    return _array(basis, width)


def solve(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution of a @ x = b, or None when inconsistent."""
    a = np.asarray(a, ELEM)
    b = np.asarray(b, ELEM).reshape(-1)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"matrix {a.shape} vs rhs {b.shape}")
    n = a.shape[1]
    x = [0] * n
    for pc, row in _insert(field, [], [row + [x] for row, x in zip(a.tolist(), b.tolist())]):
        if pc == n:
            return None
        x[pc] = row[n]
    return np.array(x, dtype=ELEM)


# -- subspaces (rows of an RREF basis span the space) -------------------


def grow_basis(field: Field, leads: list, rows: list[list[int]]) -> int:
    """``_insert`` of list rows: how many grew the reduced echelon list ``leads``.

    ``leads`` is the (lead, row) list of an RREF basis, kept by the caller
    across its loop, and its rows are lists: a caller converts its arrays
    once (one ``tolist`` of a whole product) and builds one array at the end.
    """
    size = len(leads)
    return len(_insert(field, leads, rows)) - size


def reduce_mod(field: Field, basis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Residue of v after eliminating the pivots of an RREF basis."""
    v = np.asarray(v, ELEM)
    return np.array(_residue(field, _leads(basis), v.tolist()), dtype=ELEM).reshape(v.shape)


def in_span(field: Field, basis: np.ndarray, v: np.ndarray) -> bool:
    return subspace_le(field, np.asarray(v, ELEM).reshape(1, -1), basis)


def coords_in_rref(field: Field, basis: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """Coefficients (the pivot entries) of v in an RREF basis, or None if outside.

    ``v`` is one vector or an (m, n) stack; None if any of the stack lies outside.
    """
    v = np.asarray(v, ELEM)
    if not subspace_le(field, v if v.ndim == 2 else v[None], basis):
        return None
    return v[..., [c for c, _ in _leads(basis)]]


def residue_map(field: Field, basis: np.ndarray, pivots: list[int]) -> np.ndarray:
    """The matrix R with v @ R the residue of v modulo an RREF basis.

    ``pivots`` are the pivot columns of the first rows of ``basis`` (as
    ``rref`` returns them).  Row j of R is the residue of e_j: itself on a
    free column, minus its basis row off the pivot on a pivot column.  A
    residue is zero iff v lies in the span, and two residues are equal
    iff the classes are.
    """
    out = eye(field, basis.shape[1])
    out[pivots] = field.neg(basis[: len(pivots)])
    out[pivots, pivots] = 0
    return out


def quotient_map(field: Field, basis: np.ndarray, n: int) -> tuple[list[int], np.ndarray]:
    """Free columns and projection table of F^n -> F^n / rowspace(RREF basis).

    Row j of the (n, #free) table is the class of e_j: the residue of e_j
    read on the free columns.
    """
    pivots = [c for c, _ in _leads(basis)]
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    free_cols = np.flatnonzero(free)
    return free_cols.tolist(), residue_map(field, basis, pivots)[:, free_cols]


def subspace_le(field: Field, b1: np.ndarray, b2: np.ndarray) -> bool:
    leads = _leads(b2)
    return not any(any(_residue(field, leads, v)) for v in np.asarray(b1, ELEM).tolist())


def subspace_eq(b1: np.ndarray, b2: np.ndarray) -> bool:
    """Equality of the subspaces two canonical (RREF) bases span: equal
    shapes and equal bytes.  Each basis is cast to ``ELEM`` first (no copy
    when it is one already), so any integer array compares by value."""
    b1, b2 = np.asarray(b1, ELEM), np.asarray(b2, ELEM)
    return b1.shape == b2.shape and b1.tobytes() == b2.tobytes()
