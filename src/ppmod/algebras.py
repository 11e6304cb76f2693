"""Finite-dimensional unital algebras given by structure constants.

An algebra is a based F_q-space with multiplication table
``e_i * e_j = sum_k constants[i, j, k] e_k`` and a distinguished unit
vector.  Elements are coordinate vectors of length ``dim`` (numpy,
field-element codes).  Construction validates associativity on every
basis triple and both unit laws, so downstream code may assume a genuine
unital associative algebra.  ``constants`` and ``unit`` are read-only
and the fingerprint is computed once, so every cache key naming the
algebra shares one tuple.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import BadUnit, DimensionMismatch, NonAssociative
from .fields import ELEM, Field, freeze
from .records import record


@record
class Algebra:
    field: Field
    labels: tuple[str, ...]
    constants: np.ndarray  # (dim, dim, dim); e_i e_j = sum_k c[i,j,k] e_k
    unit: np.ndarray  # (dim,)

    def __post_init__(self):
        freeze(self, "constants", "unit")
        fingerprint = (
            self.field.fingerprint(),
            self.labels,
            self.constants.tobytes(),
            self.unit.tobytes(),
        )
        object.__setattr__(self, "_fingerprint", fingerprint)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def mul_elems(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Product of two elements in basis coordinates.

        sum_ij u_i v_j constants[i, j], computed as one ``matvec`` of the
        flattened outer product u v against constants as a (k*k, k) matrix.
        """
        k = self.dim
        uv = self.field.mul(np.asarray(u, ELEM)[:, None], np.asarray(v, ELEM)[None, :])
        return linalg.matvec(self.field, uv.reshape(k * k), self.constants.reshape(k * k, k))

    def elem_zero(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=ELEM)

    def basis_elem(self, i: int) -> np.ndarray:
        v = self.elem_zero()
        v[i] = 1
        return v

    def elem_code(self, v: np.ndarray) -> int:
        """Integer code of an element (base-q digits = coordinates)."""
        return int(sum(int(c) * self.field.q**i for i, c in enumerate(v)))

    def elem_from_code(self, code: int) -> np.ndarray:
        """The element whose base-q digits are ``code`` (inverse of ``elem_code``)."""
        q = self.field.q
        if not 0 <= code < q**self.dim:
            raise DimensionMismatch(f"element code {code} outside 0..{q**self.dim - 1}")
        return np.array([code // q**i % q for i in range(self.dim)], dtype=ELEM)

    def enumerate_elements(self) -> np.ndarray:
        """All q^dim elements in code order, shape (q^dim, dim)."""
        return linalg.all_vectors(self.field, self.dim)

    def right_regular_actions(self) -> np.ndarray:
        """Matrices of right multiplication, row convention (v @ m)."""
        # row l of actions[i] is e_l * e_i
        return self.constants.transpose(1, 0, 2).astype(ELEM, order="C")

    def left_regular_actions(self) -> np.ndarray:
        """Matrices of left multiplication in row-applied storage."""
        # row l of actions[i] is e_i * e_l
        return self.constants.astype(ELEM, order="C")

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no basis label {label!r}") from None

    def render_elem(self, v: np.ndarray) -> str:
        """Human form of an element, e.g. ``(1 + t)`` or ``t``."""
        terms = []
        for i in np.nonzero(v)[0]:
            c = int(v[i])
            terms.append(self.labels[i] if c == 1 else f"{c}*{self.labels[i]}")
        if not terms:
            return "0"
        if len(terms) == 1:
            return terms[0]
        return "(" + " + ".join(terms) + ")"

    def fingerprint(self) -> tuple:
        return self._fingerprint

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim}, labels={'/'.join(self.labels)})"


def make_algebra(
    field: Field,
    labels: list[str] | tuple[str, ...],
    constants: np.ndarray,
    unit: np.ndarray,
) -> Algebra:
    """Validate structure constants and build an :class:`Algebra`.

    Raises:
        DimensionMismatch: inconsistent shapes or duplicate labels.
        NonAssociative: some basis triple breaks associativity (the
            witness triple is attached to the error).
        BadUnit: the unit vector is not a two-sided identity.
    """
    labels = tuple(labels)
    m = len(labels)
    if len(set(labels)) != m or m == 0:
        raise DimensionMismatch("labels must be nonempty and distinct")
    constants = field.asarray(constants, copy=True)
    unit = field.asarray(unit, copy=True)
    if constants.shape != (m, m, m):
        raise DimensionMismatch(
            f"constants shape {constants.shape}, expected {(m, m, m)}"
        )
    if unit.shape != (m,):
        raise DimensionMismatch(f"unit shape {unit.shape}, expected ({m},)")
    # (e_i e_j) e_k = sum_a c[i, j, a] c[a, k], e_i (e_j e_k) = sum_b c[j, k, b] c[i, b]
    flat = constants.reshape(m * m, m)
    left = linalg.matmul(field, flat, constants.reshape(m, m * m)).reshape(m, m, m, m)
    right = linalg.images(field, flat, constants).reshape(m, m, m, m).transpose(2, 0, 1, 3)
    bad = np.argwhere((left != right).any(axis=3))
    if bad.size:
        raise NonAssociative(tuple(bad[0].tolist()), labels)
    # row j of unit_products[0] is unit e_j, of unit_products[1] is e_j unit
    both_sides = np.stack([constants, constants.transpose(1, 0, 2)])
    unit_products = linalg.images(field, unit[None], both_sides.reshape(2, m, m * m))
    ident = np.eye(m, dtype=ELEM)
    bad = np.flatnonzero((unit_products.reshape(2, m, m) != ident).any(axis=(0, 2)))
    if bad.size:
        raise BadUnit(f"unit laws fail on basis element {labels[bad[0]]!r}")
    return Algebra(field, labels, constants, unit)
