"""Finite modules over a structure-constant algebra.

A module of dimension n stores one n x n matrix per algebra basis
element.  Vectors are 1-D numpy arrays and every action is applied on
the right of a row vector: ``v @ actions[i]``.  The side determines the
composition law the matrices must satisfy:

* right module:  actions[i] @ actions[j] == rho(e_i e_j)
* left module:   actions[j] @ actions[i] == rho(e_i e_j)

so a left module is stored through the transposes of its usual
column-convention action matrices.  This makes homomorphisms, solution
sets and duals side-uniform: a map is a matrix applied on the right of
a row vector for both sides, and the dual of a module transposes each
action matrix and flips the side.

All objects are immutable after construction: a module's ``actions``
are read-only and its fingerprint is computed once, so every cache key
naming the module shares one tuple.  Linear combinations of action
matrices and the code-order listing and walk of F_q^n go through
:mod:`ppmod.linalg` (``matvec``, ``all_vectors``, ``walk``).  Each question is
one product over whole stacks: orbits and covers are ``linalg.images``
of the rows under every action, a submodule's actions are the batched
``coords_in_rref`` of those images, a quotient is ``quotient_map`` plus
one ``matmul`` of the kept action rows, and the validators compare
whole product tables and report the first failure in label order.

``make_module`` is the one check of the module law.  The duals, sums,
powers, submodules and quotients start from checked modules, so they
build the record directly, from fresh arrays they own and never touch
again.  ``power`` is the one construction of M^k.

Hom(m, n) is one canonical (h, m.dim, n.dim) stack, ``hom_basis``, and
``hom_orbits`` sends tuples through all of it with one ``images``; a
finite module freely realises its tuples, so callers read phi_b(n) =
Hom(m, n)·b off an orbit instead of building and evaluating phi_b.
``constrained_hom`` builds no system of its own: the map carrying b to
a target tuple is one ``solve`` for the coefficients that combine the
orbit of b into that tuple, times the basis.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .algebras import Algebra
from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    LengthMismatch,
    NotARepresentation,
    NotASubmodule,
    NotGenerating,
    SideMismatch,
)
from .fields import ELEM, freeze, is_int, read_only
from .memo import memo
from .records import record

RIGHT = "right"
LEFT = "left"
SIDES = (RIGHT, LEFT)


@record
class ModuleRep:
    algebra: Algebra
    side: str
    dim: int
    actions: np.ndarray  # (alg.dim, dim, dim), applied as v @ actions[i]

    def __post_init__(self):
        freeze(self, "actions")
        fingerprint = (self.algebra.fingerprint(), self.side, self.dim, self.actions.tobytes())
        object.__setattr__(self, "_fingerprint", fingerprint)

    def rho(self, r: np.ndarray) -> np.ndarray:
        """Matrix of the action of an algebra element (row-applied)."""
        k, d = self.algebra.dim, self.dim
        flat = self.actions.reshape(k, d * d)
        return linalg.matvec(self.algebra.field, r, flat).reshape(d, d)

    def act(self, v: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Action of algebra element r on a single vector."""
        return linalg.matvec(self.algebra.field, v, self.rho(r))

    def zero(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=ELEM)

    def basis_vector(self, j: int) -> np.ndarray:
        v = self.zero()
        v[j] = 1
        return v

    def enumerate_elements(self) -> np.ndarray:
        """All q^dim elements in code order, shape (q^dim, dim)."""
        return linalg.all_vectors(self.algebra.field, self.dim)

    def fingerprint(self) -> tuple:
        return self._fingerprint

    def __repr__(self) -> str:
        return f"ModuleRep({self.side}, dim={self.dim})"


def make_module(algebra: Algebra, side: str, dim: int, actions) -> ModuleRep:
    """Build a module after checking the representation law.

    ``actions`` has one dim x dim matrix per algebra basis element and
    acts on row vectors.  For a left module pass the transposes of the
    usual column-convention matrices.  The one check of the module law.

    Raises:
        SideMismatch, DimensionMismatch: a bad side, dim or actions shape.
        NotARepresentation: the law or the unit action fails.
    """
    if side not in SIDES:
        raise SideMismatch(f"side must be one of {SIDES}")
    if not is_int(dim) or dim < 0:
        raise DimensionMismatch(f"dim must be an int >= 0, not {dim!r}")
    f, k = algebra.field, algebra.dim
    actions = f.asarray(actions, copy=True)
    if actions.shape != (k, dim, dim):
        raise DimensionMismatch(f"actions shape {actions.shape}, expected {(k, dim, dim)}")
    mod = ModuleRep(algebra, side, dim, actions)
    if not np.array_equal(mod.rho(algebra.unit), np.eye(dim, dtype=ELEM)):
        raise NotARepresentation("unit does not act as the identity")
    # pair (i, j): the two actions composed in the side's order, and rho(e_i e_j)
    got = linalg.pair_products(f, actions)
    if side == LEFT:
        got = got.transpose(1, 0, 2, 3)
    target = linalg.matmul(
        f, algebra.constants.reshape(k * k, k), actions.reshape(k, dim * dim)
    ).reshape(k, k, dim, dim)
    bad = np.argwhere((got != target).any(axis=(2, 3)))
    if bad.size:
        i, j = (algebra.labels[x] for x in bad[0])
        raise NotARepresentation(f"law fails on basis pair ({i}, {j})")
    return mod


def zero_module(algebra: Algebra, side: str) -> ModuleRep:
    return make_module(algebra, side, 0, np.zeros((algebra.dim, 0, 0), dtype=ELEM))


def regular_module(algebra: Algebra, side: str) -> ModuleRep:
    acts = (
        algebra.right_regular_actions()
        if side == RIGHT
        else algebra.left_regular_actions()
    )
    return make_module(algebra, side, algebra.dim, acts)


def free_module(algebra: Algebra, side: str, slots: int) -> ModuleRep:
    """R^slots as a module; coordinates are slot-major blocks of dim R."""
    if not is_int(slots) or slots < 0:
        raise DimensionMismatch(f"slots must be an int >= 0, not {slots!r}")
    return power(regular_module(algebra, side), slots)


@memo(lambda m, k: (m.fingerprint(), k))
def power(m: ModuleRep, k: int) -> ModuleRep:
    """M^k with block-diagonal actions, coordinates slot-major blocks of dim M.

    The one construction of a power: the module of ``direct_sum([m] * k)``,
    without its k injections and k projections, and for k = 1 no new
    module (the first call caches ``m`` itself).  Cached, so the pointed
    powers of the lattice and the free modules R^slots keep one
    fingerprint per (M, k).
    """
    if k == 1:
        return m
    s, d = m.algebra.dim, m.dim
    actions = np.zeros((s, k, d, k, d), dtype=ELEM)
    slot = np.arange(k)
    # the advanced indices lead the assigned view, of shape (k, s, d, d)
    actions[:, slot, :, slot, :] = m.actions
    return ModuleRep(m.algebra, m.side, k * d, actions.reshape(s, k * d, k * d))


def dual_module(m: ModuleRep) -> ModuleRep:
    """Vector-space dual with the opposite side.

    In row-applied storage each action matrix is transposed; applying
    the dual twice returns the original arrays.
    """
    acts = m.actions.transpose(0, 2, 1).copy()
    other = LEFT if m.side == RIGHT else RIGHT
    return ModuleRep(m.algebra, other, m.dim, acts)


# -- maps ----------------------------------------------------------------


@record
class PointedModule:
    """A module with a distinguished tuple of elements, rows of ``tuple``."""

    module: ModuleRep
    tuple: np.ndarray  # (k, module.dim)

    @property
    def arity(self) -> int:
        return self.tuple.shape[0]


@record
class ModuleMap:
    source: ModuleRep
    target: ModuleRep
    matrix: np.ndarray  # (source.dim, target.dim), applied as v @ matrix

    def apply(self, v: np.ndarray) -> np.ndarray:
        return linalg.matvec(self.source.algebra.field, v, self.matrix)

    def apply_tuple(self, vectors: np.ndarray) -> np.ndarray:
        vectors = tuple_rows(vectors, self.source.dim)
        return linalg.matmul(self.source.algebra.field, vectors, self.matrix)

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self followed by other."""
        if other.source is not self.target and (
            other.source.fingerprint() != self.target.fingerprint()
        ):
            raise DimensionMismatch("composition through mismatched modules")
        f = self.source.algebra.field
        return ModuleMap(
            self.source, other.target, linalg.matmul(f, self.matrix, other.matrix)
        )

    def is_injective(self) -> bool:
        f = self.source.algebra.field
        return linalg.rank(f, self.matrix) == self.source.dim

    def is_isomorphism(self) -> bool:
        return self.source.dim == self.target.dim and self.is_injective()


def require_compatible(x, y, what: str) -> None:
    """Refuse a pair (modules, formulas or a context) over different
    algebras or on different sides; ``what`` names the pair."""
    if x.algebra.fingerprint() != y.algebra.fingerprint():
        raise AlgebraMismatch(f"{what} over different algebras")
    if x.side != y.side:
        raise SideMismatch(f"{what} on different sides: {x.side} and {y.side}")


def make_map(source: ModuleRep, target: ModuleRep, matrix) -> ModuleMap:
    """Validated homomorphism (commutes with every basis action).

    A 2-D ``matrix`` must have the shape (source.dim, target.dim), so a
    transposed matrix is refused rather than read as another map; other
    shapes are read row-major when they hold source.dim·target.dim entries.
    """
    require_compatible(source, target, "modules")
    f = source.algebra.field
    k, s, t = source.algebra.dim, source.dim, target.dim
    matrix = f.asarray(matrix)
    if matrix.size != s * t or (matrix.ndim == 2 and matrix.shape != (s, t)):
        raise DimensionMismatch(f"map matrix of shape {matrix.shape}, expected {(s, t)}")
    matrix = matrix.reshape(s, t)
    # label i of both tables: actions[i] @ matrix and matrix @ target.actions[i]
    lhs = linalg.matmul(f, source.actions.reshape(k * s, s), matrix).reshape(k, s, t)
    rhs = linalg.images(f, matrix, target.actions).transpose(1, 0, 2)
    bad = np.flatnonzero((lhs != rhs).any(axis=(1, 2)))
    if bad.size:
        raise NotARepresentation(
            f"matrix does not commute with {source.algebra.labels[bad[0]]!r}"
        )
    return ModuleMap(source, target, matrix)


@memo(lambda m, n: (m.fingerprint(), n.fingerprint()))
def hom_basis(m: ModuleRep, n: ModuleRep) -> np.ndarray:
    """Canonical F_q-basis of Hom(m, n) as one (h, m.dim, n.dim) stack.

    Cached, so the stack is shared between callers and read-only.
    """
    require_compatible(m, n, "modules")
    return read_only(linalg.intertwiners(m.algebra.field, m.actions, n.actions))


def hom_space(m: ModuleRep, n: ModuleRep) -> list[ModuleMap]:
    """Canonical F_q-basis of Hom(m, n)."""
    return [ModuleMap(m, n, g) for g in hom_basis(m, n)]


def hom_orbits(m: ModuleRep, n: ModuleRep, tuples: np.ndarray) -> np.ndarray:
    """Each k-tuple of m under every basis map of Hom(m, n).

    Entry (j, i) of the (p, h, k*n.dim) result is tuples[j], of shape
    (p, k, m.dim), sent through ``hom_basis(m, n)[i]``, slot-major.  m is
    finite, so it freely realises the pp-type of each tuple b: phi_b(n) =
    Hom(m, n)·b for the generator phi_b (Prest, Purity, Spectra and
    Localisation, 2009, 1.2), the row space of entry j.
    """
    homs = hom_basis(m, n)
    p, k, h = tuples.shape[0], tuples.shape[1], homs.shape[0]
    orbits = linalg.images(m.algebra.field, tuples.reshape(p * k, m.dim), homs)
    return orbits.reshape(p, k, h, n.dim).swapaxes(1, 2).reshape(p, h, k * n.dim)


def constrained_hom(
    m: ModuleRep,
    n: ModuleRep,
    source_tuple: np.ndarray,
    target_tuple: np.ndarray,
) -> ModuleMap | None:
    """A homomorphism sending source_tuple to target_tuple, or None.

    The source tuple under every basis map of ``hom_basis(m, n)`` is the
    ``hom_orbits`` row; the coefficients that combine those images into
    the target tuple are one ``linalg.solve``, and the map is that
    combination of the basis.
    """
    require_compatible(m, n, "modules")
    f = m.algebra.field
    src = tuple_rows(source_tuple, m.dim)
    tgt = tuple_rows(target_tuple, n.dim)
    if src.shape[0] != tgt.shape[0]:
        raise LengthMismatch("tuples of different lengths")
    homs = hom_basis(m, n)
    h = homs.shape[0]
    # row (v, j) reads coordinate j of src[v] under each basis map
    images = linalg.images(f, src, homs).transpose(0, 2, 1).reshape(tgt.size, h)
    coeffs = linalg.solve(f, images, tgt.reshape(-1))
    if coeffs is None:
        return None
    matrix = linalg.matvec(f, coeffs, homs.reshape(h, m.dim * n.dim))
    return ModuleMap(m, n, matrix.reshape(m.dim, n.dim))


# -- span and generation -------------------------------------------------


def _orbit(m: ModuleRep, rows: np.ndarray) -> np.ndarray:
    """Each row acted on by every basis element: with the rows, the submodule's span."""
    images = linalg.images(m.algebra.field, rows, m.actions)
    return images.reshape(rows.shape[0] * m.algebra.dim, m.dim)


def module_span(m: ModuleRep, rows: np.ndarray) -> np.ndarray:
    """Canonical basis of the submodule generated by the given vectors."""
    f = m.algebra.field
    rows = tuple_rows(rows, m.dim)
    if rows.shape[0] == 0 or m.dim == 0:
        return linalg.zeros(0, m.dim)
    return linalg.row_space(f, np.concatenate([_orbit(m, rows), rows], axis=0))


def is_submodule(m: ModuleRep, basis: np.ndarray) -> bool:
    """Whether the rows span an action-closed subspace: their orbit lies in their span."""
    f = m.algebra.field
    rows = tuple_rows(basis, m.dim)
    return linalg.subspace_le(f, _orbit(m, rows), linalg.row_space(f, rows))


def extend_to_generators(m: ModuleRep, vectors: np.ndarray) -> np.ndarray:
    """Append standard basis vectors (in order) until the tuple generates.

    The span so far is one reduced echelon list of Python rows
    (``linalg.grow_basis``), kept across the loop, of the orbits of the
    tuple and of each kept e_j.  The orbit of e_j is row j of each action,
    read from one ``tolist`` of the actions.
    """
    f = m.algebra.field
    vectors = tuple_rows(vectors, m.dim)
    span: list = []
    linalg.grow_basis(f, span, np.concatenate([vectors, _orbit(m, vectors)], axis=0).tolist())
    kept = []
    actions = m.actions.tolist() if len(span) < m.dim else []
    for j in range(m.dim):
        if len(span) == m.dim:
            break
        ej = [0] * m.dim
        ej[j] = 1
        if linalg.grow_basis(f, span, [ej]):
            kept.append(j)
            linalg.grow_basis(f, span, [action[j] for action in actions])
    return np.concatenate([vectors, linalg.eye(f, m.dim)[kept]], axis=0)


def presentation(m: ModuleRep, generators: np.ndarray) -> np.ndarray:
    """Relation rows of the free cover on the given generating tuple.

    Returns an array of shape (k, s, alg.dim): each row is an s-tuple of
    algebra elements r with ``sum_i g_i . r_i = 0`` (coefficients acting
    on the module side).  The rows generate the whole kernel of
    R^s -> m as a module; a greedy pass keeps the list short, keeping a
    kernel row iff it lies outside the submodule the kept rows generate:
    one reduced echelon list of Python rows (``linalg.grow_basis``),
    kept across the loop, of their orbits.  The kernel crosses to lists
    once, with the orbits of all its rows from one ``images`` product,
    and the kept rows are picked out by index.

    Raises:
        NotGenerating: the tuple does not generate (witness attached).
    """
    f = m.algebra.field
    alg = m.algebra
    gens = tuple_rows(generators, m.dim)
    s = gens.shape[0]
    # row (i, l) of the cover matrix is g_i acted on by e_l; its rows span
    # the submodule the tuple generates, of dimension s·dim R − dim kernel
    cover = _orbit(m, gens)
    kernel = linalg.null_space(f, cover.T)
    if cover.shape[0] - kernel.shape[0] != m.dim:
        span = module_span(m, gens)
        for j in range(m.dim):
            if not linalg.in_span(f, span, m.basis_vector(j)):
                raise NotGenerating(m.basis_vector(j))
    h = kernel.shape[0]
    if not h:
        return np.zeros((0, s, alg.dim), dtype=ELEM)
    regular = alg.right_regular_actions() if m.side == RIGHT else alg.left_regular_actions()
    # row r acted on by e_l is r_i @ regular[l] in each slot i: orbits[r][l]
    orbits = linalg.images(f, kernel.reshape(h * s, alg.dim), regular)
    orbits = orbits.reshape(h, s, alg.dim, alg.dim).swapaxes(1, 2).reshape(h, alg.dim, s * alg.dim)
    chosen = []
    closure: list = []
    for r, (row, orbit) in enumerate(zip(kernel.tolist(), orbits.tolist())):
        if linalg.grow_basis(f, closure, [row]):
            chosen.append(r)
            linalg.grow_basis(f, closure, orbit)
    return kernel[chosen].reshape(-1, s, alg.dim)


# -- sums, submodules, quotients -----------------------------------------


@record
class DirectSum:
    module: ModuleRep
    injections: tuple[ModuleMap, ...]
    projections: tuple[ModuleMap, ...]


def direct_sum(parts: list[ModuleRep]) -> DirectSum:
    if not parts:
        raise DimensionMismatch("direct sum of an empty list")
    first = parts[0]
    for p in parts[1:]:
        require_compatible(first, p, "modules")
    alg = first.algebra
    total = sum(p.dim for p in parts)
    actions = np.zeros((alg.dim, total, total), dtype=ELEM)
    offsets = []
    pos = 0
    for p in parts:
        offsets.append(pos)
        actions[:, pos : pos + p.dim, pos : pos + p.dim] = p.actions
        pos += p.dim
    module = ModuleRep(alg, first.side, total, actions)
    injections = []
    projections = []
    for p, off in zip(parts, offsets):
        inj = np.zeros((p.dim, total), dtype=ELEM)
        inj[:, off : off + p.dim] = np.eye(p.dim, dtype=ELEM)
        injections.append(ModuleMap(p, module, inj))
        projections.append(ModuleMap(module, p, inj.T.copy()))
    return DirectSum(module, tuple(injections), tuple(projections))


@record
class Submodule:
    module: ModuleRep
    inclusion: ModuleMap  # submodule -> ambient


def submodule(m: ModuleRep, rows: np.ndarray) -> Submodule:
    """Action-closed subspace as a module with its inclusion."""
    f = m.algebra.field
    s = m.algebra.dim
    basis = linalg.row_space(f, tuple_rows(rows, m.dim))
    k = basis.shape[0]
    # row (i, r): basis[r] acted on by e_i, read in the basis
    moved = linalg.images(f, basis, m.actions).transpose(1, 0, 2)
    coords = linalg.coords_in_rref(f, basis, moved.reshape(s * k, m.dim))
    if coords is None:
        raise NotASubmodule("subspace is not closed under the action")
    sub = ModuleRep(m.algebra, m.side, k, coords.reshape(s, k, k))
    return Submodule(sub, ModuleMap(sub, m, basis.copy()))


@record
class Quotient:
    module: ModuleRep
    projection: ModuleMap  # ambient -> quotient


def quotient(m: ModuleRep, rows: np.ndarray) -> Quotient:
    """Quotient by an action-closed subspace, with the canonical map."""
    f = m.algebra.field
    sub_basis = linalg.row_space(f, tuple_rows(rows, m.dim))
    if not is_submodule(m, sub_basis):
        raise NotASubmodule("relations are not closed under the action")
    keep, proj = linalg.quotient_map(f, sub_basis, m.dim)
    s, qdim = m.algebra.dim, len(keep)
    # row (i, r) of the quotient action: the class of kept row keep[r] of actions[i]
    kept_rows = m.actions[:, keep].reshape(s * qdim, m.dim)
    actions = linalg.matmul(f, kept_rows, proj).reshape(s, qdim, qdim)
    q = ModuleRep(m.algebra, m.side, qdim, actions)
    return Quotient(q, ModuleMap(m, q, proj))


def are_isomorphic(m: ModuleRep, n: ModuleRep) -> bool:
    """Search Hom(m, n) for an invertible element (exhaustive, small q)."""
    require_compatible(m, n, "modules")
    if m.dim != n.dim:
        return False
    if m.dim == 0:
        return True
    basis = hom_basis(m, n)
    if not len(basis):
        return False
    f = m.algebra.field
    # every combination of the hom basis in code order (zero has rank 0 < m.dim)
    stacked = basis.reshape(len(basis), m.dim * n.dim)
    for coeffs in linalg.walk(f, len(basis), m.dim * n.dim):
        mats = linalg.matmul(f, coeffs, stacked).reshape(-1, m.dim, n.dim)
        if any(linalg.rank(f, mat) == m.dim for mat in mats):
            return True
    return False


def tuple_rows(vectors, dim: int) -> np.ndarray:
    """Normalize a tuple of module elements to a (k, dim) array.

    Accepts a (k, dim) array, a flat array of length k*dim, or any
    nested sequence with those shapes.  Over a 0-dimensional module
    only 2-D input can convey the tuple length; flat input means the
    empty tuple.
    """
    arr = np.asarray(vectors, ELEM)
    if arr.ndim == 2:
        if arr.shape[1] != dim:
            raise DimensionMismatch(
                f"tuple rows of length {arr.shape[1]}, module dim {dim}"
            )
        return arr
    arr = arr.reshape(-1)
    if dim == 0:
        return np.zeros((0, 0), dtype=ELEM)
    if arr.shape[0] % dim:
        raise DimensionMismatch(
            f"flat tuple of size {arr.shape[0]} over module dim {dim}"
        )
    return arr.reshape(-1, dim)
