"""Tensor products of finite modules and the dual-formula zero test.

The tensor of a right module M with a left module L is computed head
on: take the field tensor space spanned by basis pairs, quotient by
the balance relations (v.e_i) (x) w - v (x) (e_i.w), whose rows are
the Sylvester rows kron(act_M[i], I) - kron(I, act_L[i]), and
canonicalize classes by echelon reduction.  The class of each basis
pair is read off the echelon basis by ``linalg.quotient_map`` (a free
column is its own class, a pivot column minus its relation row), and
every class is a product with that table: a tuple's class projects
vs^T ws, and the Mittag-Leffler matrix reads each factor's table
through its projection.  The zero test for a simple tensor of
tuples goes the other way, through the dual of a pp-type generator;
agreement of the two routes is a strong end-to-end check on the
formula layer.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    LengthMismatch,
    SideMismatch,
)
from .fields import ELEM
from .formulas import dual, evaluate, pp_type_generator
from .modules import (
    LEFT,
    RIGHT,
    ModuleRep,
    direct_sum,
    tuple_rows,
)
from .records import record


@record
class TensorResult:
    """M (x) L over the algebra, with canonical class coordinates.

    ``rel_basis`` is the RREF basis of the balance subspace inside the
    field tensor space of dimension dim M * dim L; ``free_columns``
    are the non-pivot ambient coordinates, which index the canonical
    basis of the quotient.
    """

    right: ModuleRep
    left: ModuleRep
    dim: int
    rel_basis: np.ndarray
    free_columns: tuple[int, ...]
    pair_table: np.ndarray  # (dim M, dim L, dim): classes of basis tensors

    def class_of(self, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Canonical class of the simple tensor v (x) w."""
        field = self.right.algebra.field
        v = field.asarray(v).reshape(-1)
        w = field.asarray(w).reshape(-1)
        if v.shape[0] != self.right.dim or w.shape[0] != self.left.dim:
            raise LengthMismatch("tensor factors of the wrong dimension")
        # entry (i, j) of the outer product is the coefficient of e_i (x) e_j
        return self._project(field.mul(v[:, None], w[None, :]).reshape(-1))

    def tuple_class(self, vs: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """Class of sum_i vs[i] (x) ws[i]."""
        field = self.right.algebra.field
        vs = tuple_rows(field.asarray(vs), self.right.dim)
        ws = tuple_rows(field.asarray(ws), self.left.dim)
        if vs.shape[0] != ws.shape[0]:
            raise LengthMismatch("tuples of different lengths")
        # entry (i, j) of vs^T ws is the coefficient of e_i (x) e_j
        return self._project(linalg.matmul(field, vs.T, ws).reshape(-1))

    def _project(self, amb: np.ndarray) -> np.ndarray:
        field = self.right.algebra.field
        ambient = self.right.dim * self.left.dim
        return linalg.matvec(field, amb, self.pair_table.reshape(ambient, self.dim))


def tensor_product(m: ModuleRep, l_mod: ModuleRep) -> TensorResult:
    """Tensor of a right module with a left module over one algebra."""
    if m.algebra.fingerprint() != l_mod.algebra.fingerprint():
        raise AlgebraMismatch("tensor factors over different algebras")
    if m.side != RIGHT or l_mod.side != LEFT:
        raise SideMismatch("tensor needs a right module and a left module")
    field = m.algebra.field
    # (v_i . e_r) (x) w_j - v_i (x) (e_r . w_j) over all basis triples
    rel_rows = linalg.sylvester_rows(field, m.actions, l_mod.actions)
    rel_basis = linalg.row_space(field, rel_rows)
    free_cols, table = linalg.quotient_map(field, rel_basis, m.dim * l_mod.dim)
    return TensorResult(
        m, l_mod, len(free_cols), rel_basis, tuple(free_cols),
        table.reshape(m.dim, l_mod.dim, len(free_cols)),
    )


def herzog_zero_test(
    m: ModuleRep, vectors, l_mod: ModuleRep, l_vectors
) -> bool:
    """Does the simple tensor of the two tuples vanish in M (x) L?

    Decided without building the tensor: the dual of a generator of
    the right tuple's pp-type must hold of the left tuple.
    """
    if m.side != RIGHT or l_mod.side != LEFT:
        raise SideMismatch("zero test needs a right module and a left module")
    vecs = tuple_rows(vectors, m.dim)
    lvecs = tuple_rows(l_vectors, l_mod.dim)
    if vecs.shape[0] != lvecs.shape[0]:
        raise LengthMismatch("tuples of different lengths")
    if vecs.shape[0] == 0:
        return True
    phi = pp_type_generator(m, vecs)
    return evaluate(dual(phi), l_mod).contains(lvecs)


@record
class MittagLefflerReport:
    injective: bool
    matrix: np.ndarray  # canonical map on canonical tensor classes
    kernel_witness: np.ndarray | None  # class coords in M (x) prod L_i


def relative_ml_check(m: ModuleRep, family) -> MittagLefflerReport:
    """Injectivity of M (x) prod L_i -> prod (M (x) L_i), finite family.

    At finite scale the product is the direct sum.  The canonical map
    is assembled on canonical classes; free ambient columns are pure
    tensors, so the matrix rows are classes of mapped pure tensors.
    """
    family = list(family)
    field = m.algebra.field
    if not family:
        return MittagLefflerReport(
            True, np.zeros((0, 0), dtype=ELEM), None
        )
    prod = direct_sum(family)
    t_all = tensor_product(m, prod.module)
    # row (i, u): the class of e_i (x) proj(e_u) in each factor, that is
    # row u of proj times the factor's pair-table block of e_i
    blocks = []
    for l_mod, proj in zip(family, prod.projections):
        t_fac = tensor_product(m, l_mod)
        block = linalg.images(field, proj.matrix, t_fac.pair_table)  # (u, i, class)
        blocks.append(block.transpose(1, 0, 2).reshape(m.dim * prod.module.dim, t_fac.dim))
    matrix = np.concatenate(blocks, axis=1)[list(t_all.free_columns)]
    kernel = linalg.null_space(field, matrix.T)
    if kernel.shape[0] == 0:
        return MittagLefflerReport(True, matrix, None)
    return MittagLefflerReport(False, matrix, kernel[0])


def dual_satisfies(m: ModuleRep, functional, phi) -> bool:
    """Does the dual module satisfy phi at the given functional?

    Decided on m itself: the dual of phi must have its solution set
    inside the kernel of the functional.  phi lives on the opposite
    side to m and has one free variable.
    """
    if phi.nfree != 1:
        raise ArityMismatch("dual satisfaction bridge needs one free variable")
    if phi.side == m.side:
        raise SideMismatch("formula must live on the side opposite to m")
    field = m.algebra.field
    f_vec = field.asarray(functional).reshape(-1)
    if f_vec.shape[0] != m.dim:
        raise LengthMismatch("functional of the wrong dimension")
    sol = evaluate(dual(phi), m)
    ker = linalg.null_space(field, f_vec.reshape(1, -1))
    return linalg.subspace_le(field, sol.basis, ker)
