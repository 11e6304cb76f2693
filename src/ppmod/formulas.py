"""Positive-primitive formulas and their calculus.

A pp formula with n free and t bound variables over an m_R-dimensional
algebra is stored as two coefficient arrays

    a: (n, neq, m_R)    b: (t, neq, m_R)

one algebra element per (variable, equation) slot.  For a right-side
formula, equation j reads  sum_i x_i . a[i,j] + sum_k y_k . b[k,j] = 0
with coefficients acting on the right; for the left side the
coefficients act on the left.  Thanks to the row-applied action storage
of :mod:`ppmod.modules`, evaluation code is identical for both sides.

Solution sets are computed by building the F_q-linear system of the
quantifier-free part over the module and taking its kernel projected
to the free coordinates, one elimination (``solution_basis``, which
``evaluate`` wraps with its checks and cache); elements are never
enumerated here.  Every system and formula is assembled from whole
coefficient blocks: the block rho(c) of every (variable, equation) slot
comes from one product of the stacked coefficients with the stacked
action matrices, and the constructors place coefficient blocks and unit
diagonals by slicing.

Formulas are immutable: ``a`` and ``b`` are read-only (normalisation
copies them, so no caller's array is shared) and the fingerprint is
computed once, on the algebra's own tuple, so a memo key holds only the
formula's bytes.  Formulas are normalised on construction: zero
equations are dropped, bound variables that appear in no equation are
dropped, and equation columns are sorted lexicographically.
``pp_formula`` validates outside arrays and then normalises; the
constructors build their blocks from formulas and arrays that already
passed a door, so they normalise directly.  Equality of formulas is
always semantic (mutual :func:`leq_absolute`); no syntactic equality is
offered.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .algebras import Algebra
from .errors import (
    ArityMismatch,
    DimensionMismatch,
    EmptyContext,
    LengthMismatch,
    SideMismatch,
)
from .fields import ELEM, freeze, is_int
from .memo import memo
from .modules import (
    ModuleRep,
    PointedModule,
    extend_to_generators,
    free_module,
    module_span,
    presentation,
    quotient,
    require_compatible,
    tuple_rows,
)
from .records import record


@record
class PpFormula:
    algebra: Algebra
    side: str
    nfree: int
    nbound: int
    neq: int
    a: np.ndarray  # (nfree, neq, alg.dim)
    b: np.ndarray  # (nbound, neq, alg.dim)

    def __post_init__(self):
        freeze(self, "a", "b")
        fingerprint = (
            self.algebra.fingerprint(),
            self.side,
            self.nfree,
            self.nbound,
            self.neq,
            self.a.tobytes(),
            self.b.tobytes(),
        )
        object.__setattr__(self, "_fingerprint", fingerprint)

    def fingerprint(self) -> tuple:
        return self._fingerprint

    def render(self) -> str:
        """Workspace text syntax, e.g. ``E y1 . x1*t + y1*1 = 0``."""
        alg = self.algebra
        parts = []
        for j in range(self.neq):
            terms = []
            for i in range(self.nfree):
                if np.any(self.a[i, j]):
                    terms.append(_render_term(alg, self.side, f"x{i + 1}", self.a[i, j]))
            for k in range(self.nbound):
                if np.any(self.b[k, j]):
                    terms.append(_render_term(alg, self.side, f"y{k + 1}", self.b[k, j]))
            parts.append((" + ".join(terms) if terms else "0") + " = 0")
        body = " & ".join(parts) if parts else "0 = 0"
        if self.nbound:
            names = " ".join(f"y{k + 1}" for k in range(self.nbound))
            return f"E {names} . {body}"
        return body

    def __repr__(self) -> str:
        return f"PpFormula({self.side}, {self.nfree} free: {self.render()})"


def _render_term(alg: Algebra, side: str, var: str, coeff: np.ndarray) -> str:
    if np.array_equal(coeff, alg.unit):
        return var
    txt = alg.render_elem(coeff)
    return f"{var}*{txt}" if side == "right" else f"{txt}*{var}"


def pp_formula(algebra: Algebra, side: str, nfree: int, a, b) -> PpFormula:
    """Build and normalise a pp formula: the validated door for outside
    coefficient arrays, as ``make_module`` is for modules."""
    f = algebra.field
    a = f.asarray(a)
    b = f.asarray(b)
    if a.ndim != 3:
        if nfree == 0:
            neq0 = b.shape[1] if b.ndim == 3 else 0
            a = a.reshape(0, neq0, algebra.dim)
        else:
            a = a.reshape(nfree, -1, algebra.dim)
    neq = a.shape[1]
    if b.ndim != 3:
        b = (
            b.reshape(-1, neq, algebra.dim)
            if b.size
            else np.zeros((0, neq, algebra.dim), dtype=ELEM)
        )
    if a.shape != (nfree, neq, algebra.dim) or b.shape[1:] != (neq, algebra.dim):
        raise DimensionMismatch(
            f"coefficient blocks {a.shape} / {b.shape} do not agree"
        )
    _require_side(side)
    return normalised(algebra, side, nfree, a, b)


def normalised(algebra: Algebra, side: str, nfree: int, a: np.ndarray, b: np.ndarray) -> PpFormula:
    """The normal form of ``ELEM`` blocks a (nfree, neq, dim) and b (t, neq, dim)
    that already passed a door: ``pp_formula``'s, or a constructor's own."""
    neq = a.shape[1]
    # drop bound variables that never occur
    b = b[b.reshape(b.shape[0], neq * algebra.dim).any(axis=1)]
    # drop all-zero equations, sort the rest lexicographically
    cols = np.flatnonzero(a.any(axis=(0, 2)) | b.any(axis=(0, 2)))
    keys = sorted(cols, key=lambda j: (a[:, j].tobytes(), b[:, j].tobytes()))
    a = a[:, keys]
    b = b[:, keys]
    return PpFormula(algebra, side, nfree, b.shape[0], len(keys), a, b)


def _require_side(side) -> None:
    """The one side check, at the door of ``pp_formula``, ``top`` and ``bot``."""
    if side not in ("right", "left"):
        raise SideMismatch(f"bad side {side!r}")


def require_arity(arity) -> None:
    """The one arity check, at the door of ``top``, ``bot``, ``prefix_restriction``,
    ``pp_lattice`` and ``is_pp_definable``: an int >= 0, not a bool or a numpy integer."""
    if not is_int(arity) or arity < 0:
        raise ArityMismatch(f"arity must be an int >= 0, not {arity!r}")


def _diagonal(algebra: Algebra, n: int, r) -> np.ndarray:
    """An (n, n, dim) coefficient block with r on the diagonal."""
    out = np.zeros((n, n, algebra.dim), dtype=ELEM)
    out[np.arange(n), np.arange(n)] = r
    return out


def top(algebra: Algebra, side: str, nfree: int = 1) -> PpFormula:
    """x = x: no equations."""
    require_arity(nfree)
    _require_side(side)
    a = np.zeros((nfree, 0, algebra.dim), dtype=ELEM)
    return normalised(algebra, side, nfree, a, a[:0])


def bot(algebra: Algebra, side: str, nfree: int = 1) -> PpFormula:
    """x = 0 in every free variable."""
    require_arity(nfree)
    _require_side(side)
    a = _diagonal(algebra, nfree, algebra.unit)
    return normalised(algebra, side, nfree, a, np.zeros((0, nfree, algebra.dim), ELEM))


def _coefficient(algebra: Algebra, r) -> np.ndarray:
    """The algebra element r, of dim A entries, as a (1, 1, dim A) block."""
    r = algebra.field.asarray(r)
    if r.size != algebra.dim:
        raise DimensionMismatch(f"element r of {r.size} entries, algebra dim {algebra.dim}")
    return r.reshape(1, 1, algebra.dim)


def annihilator(algebra: Algebra, side: str, r) -> PpFormula:
    """x . r = 0 (or r . x = 0 on the left)."""
    a = _coefficient(algebra, r)
    return pp_formula(algebra, side, 1, a, np.zeros((0, 1, algebra.dim), ELEM))


def divisibility(algebra: Algebra, side: str, r) -> PpFormula:
    """r | x: exists y with x = y . r (x = r . y on the left)."""
    a = algebra.unit.reshape(1, 1, algebra.dim)
    b = algebra.field.neg(_coefficient(algebra, r))
    return pp_formula(algebra, side, 1, a, b)


# -- evaluation -----------------------------------------------------------


@record
class SubgroupRep:
    """A pp-definable subgroup of M^arity: canonical echelon basis.

    Rows of ``basis`` are flat vectors of length arity * dim laid out
    slot-major: [x_1 coords | x_2 coords | ...].
    """

    __slots__ = ("module", "arity", "basis")

    module: ModuleRep
    arity: int
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, vectors) -> bool:
        flat = np.asarray(vectors, ELEM).reshape(-1)
        if flat.shape[0] != self.arity * self.module.dim:
            raise LengthMismatch(
                f"tuple of length {flat.shape[0]}, "
                f"expected {self.arity} * {self.module.dim}"
            )
        return linalg.in_span(self.module.algebra.field, self.basis, flat)

    def key(self) -> bytes:
        return self.basis.tobytes() + bytes([self.arity % 251])

    def elements(self) -> np.ndarray:
        """All members, shape (q^dim, arity*dim); small subgroups only."""
        f = self.module.algebra.field
        return linalg.matmul(f, linalg.all_vectors(f, self.dim), self.basis)

    def __repr__(self) -> str:
        return f"SubgroupRep(arity={self.arity}, dim={self.dim})"


def solution_basis(a: np.ndarray, b: np.ndarray, m: ModuleRep) -> np.ndarray:
    """Canonical basis of the solutions in m^n of the blocks a (n free) and b.

    Kernel-then-project: the kernel of the quantifier-free system over
    F_q in all (free + bound) coordinates, projected onto the free block,
    is one ``linalg.null_space`` cut to the free width.
    The blocks need not be normalised; their solution set is the same.
    """
    f = m.algebra.field
    n, d = a.shape[0], m.dim
    if d == 0 or n == 0:
        return linalg.zeros(0, n * d)
    sys = system_rows(np.concatenate([a, b], axis=0), m)
    return linalg.null_space(f, sys.T, n * d)  # rows u with u @ sys = 0, cut


def system_rows(coeff: np.ndarray, m: ModuleRep) -> np.ndarray:
    """The F_q system of a (v, neq, m_R) coefficient block over m.

    One block row per variable, one block column per equation: block
    (v, j) is rho(coeff[v, j]), all blocks from one product of the
    stacked coefficients with the stacked action matrices.  A row vector
    x in m^v solves the block iff x @ rows = 0; shape (v*dim, neq*dim).
    """
    v, neq, k = coeff.shape
    d = m.dim
    blocks = linalg.matmul(
        m.algebra.field, coeff.reshape(v * neq, k), m.actions.reshape(k, d * d)
    )
    return blocks.reshape(v, neq, d, d).transpose(0, 2, 1, 3).reshape(v * d, neq * d)


@memo(lambda phi, m: (phi.fingerprint(), m.fingerprint()))
def evaluate(phi: PpFormula, m: ModuleRep) -> SubgroupRep:
    """Solution set phi(m) as a canonical subgroup of m^nfree."""
    require_compatible(phi, m, "formula and module")
    return SubgroupRep(m, phi.nfree, solution_basis(phi.a, phi.b, m))


# -- lattice operations ---------------------------------------------------


def _require_same_shape(phi: PpFormula, psi: PpFormula) -> None:
    require_compatible(phi, psi, "formulas")
    if phi.nfree != psi.nfree:
        raise ArityMismatch(f"arity {phi.nfree} vs {psi.nfree}")


def conj(phi: PpFormula, psi: PpFormula) -> PpFormula:
    """phi and psi on shared free variables, bound variables disjoint."""
    _require_same_shape(phi, psi)
    alg = phi.algebra
    n = phi.nfree
    neq = phi.neq + psi.neq
    a = np.concatenate([phi.a, psi.a], axis=1)
    b = np.zeros((phi.nbound + psi.nbound, neq, alg.dim), dtype=ELEM)
    if phi.nbound:
        b[: phi.nbound, : phi.neq] = phi.b
    if psi.nbound:
        b[phi.nbound :, phi.neq :] = psi.b
    return normalised(alg, phi.side, n, a, b)


def formula_sum(phi: PpFormula, psi: PpFormula) -> PpFormula:
    """{x : x = x1 + x2, phi(x1), psi(x2)}."""
    _require_same_shape(phi, psi)
    alg = phi.algebra
    f = alg.field
    n = phi.nfree
    neq = n + phi.neq + psi.neq
    nbound = 2 * n + phi.nbound + psi.nbound
    a = np.zeros((n, neq, alg.dim), dtype=ELEM)
    b = np.zeros((nbound, neq, alg.dim), dtype=ELEM)
    # x_i - x1_i - x2_i = 0
    a[:, :n] = _diagonal(alg, n, alg.unit)
    neg_diagonal = _diagonal(alg, n, f.neg(alg.unit))
    b[:n, :n] = neg_diagonal
    b[n : 2 * n, :n] = neg_diagonal
    # x1 block satisfies phi, x2 block satisfies psi; psi's equations
    # start at column e, its bound variables at row y
    e, y = n + phi.neq, 2 * n + phi.nbound
    b[:n, n:e] = phi.a
    b[2 * n : y, n:e] = phi.b
    b[n : 2 * n, e:] = psi.a
    b[y:, e:] = psi.b
    return normalised(alg, phi.side, n, a, b)


def dual(phi: PpFormula) -> PpFormula:
    """Elementary dual, a formula for modules on the other side.

    For right-side phi(x) = E y (x A + y B = 0) this is
    D phi(x) = E z (x = A z  and  B z = 0) with coefficients acting on
    the left; the recipe at the array level is side-uniform and the
    expected identities (involution, exchange of conj and sum) are
    validated semantically by the test suite, not assumed.
    """
    alg = phi.algebra
    f = alg.field
    n, t = phi.nfree, phi.nbound
    other = "left" if phi.side == "right" else "right"
    a = _diagonal(alg, n + t, alg.unit)[:n]
    b = np.concatenate([f.neg(phi.a), phi.b]).transpose(1, 0, 2)
    return normalised(alg, other, n, a, b)


def substitute(phi: PpFormula, t_matrix) -> PpFormula:
    """phi(x . T) for an R-coefficient matrix T with nfree columns.

    The result has one free variable per row of T; on the left side the
    coefficients multiply from the left with the same array layout.
    """
    alg = phi.algebra
    f = alg.field
    t_matrix = f.asarray(t_matrix)
    if t_matrix.ndim == 2:  # allow scalar entries for 1-dim algebras
        t_matrix = t_matrix[:, :, None]
    if t_matrix.shape[1] != phi.nfree or t_matrix.shape[2] != alg.dim:
        raise DimensionMismatch(
            f"substitution matrix {t_matrix.shape} does not match "
            f"arity {phi.nfree} over a dim-{alg.dim} algebra"
        )
    nnew = t_matrix.shape[0]
    n, t, m = phi.nfree, phi.nbound, phi.neq
    neq = n + m
    a = np.zeros((nnew, neq, alg.dim), dtype=ELEM)
    b = np.zeros((n + t, neq, alg.dim), dtype=ELEM)
    # equations x_new . T[:, j] - x_old_j = 0
    a[:, :n] = t_matrix
    b[:n, :n] = _diagonal(alg, n, f.neg(alg.unit))
    # original system on (x_old, y)
    b[:n, n:] = phi.a
    b[n:, n:] = phi.b
    return normalised(alg, phi.side, nnew, a, b)


def prefix_restriction(phi: PpFormula, new_arity: int) -> PpFormula:
    """View an arity-k formula in the first k of new_arity variables."""
    require_arity(new_arity)
    if new_arity < phi.nfree:
        raise ArityMismatch("prefix narrower than the formula arity")
    alg = phi.algebra
    return substitute(phi, _diagonal(alg, new_arity, alg.unit)[:, : phi.nfree])


# -- free realisations and pp-type generators ------------------------------


@memo(lambda phi: phi.fingerprint())
def free_realisation(phi: PpFormula) -> PointedModule:
    """Finitely presented module with a tuple whose pp-type phi generates.

    The module is R^(nfree+nbound) modulo the submodule generated by the
    equation rows; the tuple is the image of the first nfree slot units.
    Any solution of phi in any module is a morphic image of this tuple.
    """
    alg = phi.algebra
    n, t, m = phi.nfree, phi.nbound, phi.neq
    slots = n + t
    free = free_module(alg, phi.side, slots)
    width = slots * alg.dim
    coeff = np.concatenate([phi.a, phi.b], axis=0)
    rel_rows = coeff.transpose(1, 0, 2).reshape(m, width)
    rel_span = module_span(free, rel_rows) if m else linalg.zeros(0, width)
    q = quotient(free, rel_span)
    unit_rows = _diagonal(alg, slots, alg.unit)[:n].reshape(n, width)
    tup = linalg.matmul(alg.field, unit_rows, q.projection.matrix)
    return PointedModule(q.module, tup)


def _typegen_key(m: ModuleRep, vectors) -> tuple:
    vecs = tuple_rows(vectors, m.dim)
    return (m.fingerprint(), vecs.tobytes(), vecs.shape[0])


@memo(_typegen_key)
def pp_type_generator(m: ModuleRep, vectors) -> PpFormula:
    """Generator of the pp-type of a tuple (holds in every module).

    Extends the tuple to a generating one, presents the module on it,
    and existentially quantifies the added generators.  When the tuple
    already generates, the result is quantifier-free.
    """
    vecs = tuple_rows(vectors, m.dim)
    n = vecs.shape[0]
    gens = extend_to_generators(m, vecs)
    rels = presentation(m, gens)
    a = np.transpose(rels[:, :n, :], (1, 0, 2))
    b = np.transpose(rels[:, n:, :], (1, 0, 2))
    return normalised(m.algebra, m.side, n, a, b)


# -- ordering ---------------------------------------------------------------


def leq_absolute(phi: PpFormula, psi: PpFormula) -> bool:
    """phi <= psi in every module: test psi on phi's free realisation."""
    _require_same_shape(phi, psi)
    pointed = free_realisation(phi)
    return evaluate(psi, pointed.module).contains(pointed.tuple)


def leq_relative(phi: PpFormula, psi: PpFormula, ctx) -> bool:
    """phi(G) <= psi(G) on every generator module G of the context.

    Sound and complete for the definable subcategory the generators
    generate; pp-definable subgroups are determined on generators.
    """
    _require_same_shape(phi, psi)
    gens = tuple(ctx.generators)
    if not gens:
        raise EmptyContext("ordering relative to a context needs generators")
    f = phi.algebra.field
    for g in gens:
        sphi = evaluate(phi, g)
        spsi = evaluate(psi, g)
        if not linalg.subspace_le(f, sphi.basis, spsi.basis):
            return False
    return True


def equivalent(phi: PpFormula, psi: PpFormula) -> bool:
    return leq_absolute(phi, psi) and leq_absolute(psi, phi)
