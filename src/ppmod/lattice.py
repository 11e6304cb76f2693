"""The lattice of pp-definable subgroups of a finite module.

Definability of a subspace S <= M^n is decided by the pointed-power
method: point the k-th power of M by the diagonal tuple collecting the
coordinates of a spanning set of S, take the generator of that tuple's
pp-type, and evaluate it back on M.  The result is the least
pp-definable subgroup containing S, so S is definable iff the closure
is S itself.

A tuple a has the principal closure <a>, the least pp-definable
subgroup containing it, and every pp-definable subgroup is the sum of
the <a> over its elements; sums of pp-definable subgroups are
pp-definable.  Whole lattices are therefore the join-closure of the
principal closures, one a per projective point of F_q^n (scalar
multiples have the same closure), with no subspace enumeration.  One
cap bounds the pointed power of the top M^arity, which is the largest
any element's witness needs.

Filters of the finite lattice are exactly the principal up-sets, so
filter analysis (neg-isolation with respect to an avoided element, and
the join/meet irreducibility test) runs over generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CapExceeded, ValidationFailure
from .formulas import (
    PpFormula,
    SubgroupRep,
    bot,
    evaluate,
    pp_type_generator,
)
from .modules import ModuleRep, direct_sum, tuple_rows

DEFAULT_CAP = 2**16


@dataclass(frozen=True)
class DefinabilityResult:
    definable: bool
    witness: PpFormula  # defines the closure; on success, defines S
    closure: np.ndarray  # canonical basis of the least definable superset


def is_pp_definable(
    m: ModuleRep, basis, arity: int = 1, cap: int = DEFAULT_CAP
) -> DefinabilityResult:
    """Is the subspace spanned by ``basis`` rows pp-definable in M^arity?

    The rows live in M^arity, flattened.  Cost is governed by the
    pointed power M^k with k the spanning-set size; the cap bounds
    |M|^k.
    """
    field = m.algebra.field
    rows = linalg.row_space(
        field, tuple_rows(basis, m.dim * arity)
    )
    k = rows.shape[0]
    if k == 0:
        phi = bot(m.algebra, m.side, arity)
        return DefinabilityResult(True, phi, rows)
    if field.q ** (m.dim * k) > cap:
        raise CapExceeded(
            f"pointed power needs |M|^{k} = {field.q ** (m.dim * k)} > cap {cap}"
        )
    power = direct_sum([m] * k).module
    # diagonal tuple: the j-th entry collects the j-th coordinate block
    # of every spanning row
    diag = rows.reshape(k, arity, m.dim).transpose(1, 0, 2).reshape(arity, power.dim)
    phi = pp_type_generator(power, diag)
    closure = evaluate(phi, m).basis
    definable = linalg.subspace_eq(closure, rows)
    return DefinabilityResult(definable, phi, closure)


@dataclass(frozen=True, eq=False)
class PpLattice:
    """All pp-definable subgroups of M^arity with order and operations.

    Elements are canonical subspace bases sorted by (dimension, bytes);
    ``leq``, ``meet``, ``join`` are dense tables over element indices.
    """

    module: ModuleRep
    arity: int
    elements: tuple[SubgroupRep, ...]
    witnesses: tuple[PpFormula, ...]
    leq: np.ndarray  # bool (k, k)
    meet: np.ndarray  # int (k, k)
    join: np.ndarray  # int (k, k)

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return len(self.elements) - 1

    def index_of(self, basis: np.ndarray) -> int:
        for i, el in enumerate(self.elements):
            if linalg.subspace_eq(el.basis, basis):
                return i
        raise ValidationFailure("subspace is not a lattice element")


def pp_lattice(
    m: ModuleRep, arity: int = 1, cap: int = DEFAULT_CAP
) -> PpLattice:
    """The full lattice of pp-definable subgroups of M^arity.

    The lattice is the join-closure of the principal closures <a>, one
    a per projective point of F_q^n.  The cap bounds the pointed power
    of the top M^arity, the largest any element's witness needs.
    """
    field = m.algebra.field
    n = m.dim * arity
    top_power = field.q ** (m.dim * n)
    if top_power > cap:
        raise CapExceeded(
            f"pointed power needs |M|^{n} = {top_power} > cap {cap}"
        )
    principal: dict[bytes, np.ndarray] = {}
    for a in linalg.all_vectors(field, n):
        nonzero = a[a != 0]
        if nonzero.size and nonzero[0] == 1:  # one a per projective point
            closure = is_pp_definable(m, a[None, :], arity, cap).closure
            principal.setdefault(closure.tobytes(), closure)
    bottom = linalg.zeros(0, n)
    found = {bottom.tobytes(): bottom, **principal}
    frontier = list(principal.values())
    while frontier:
        grown = []
        for s in frontier:
            for p in principal.values():
                t = linalg.subspace_sum(field, s, p)
                if t.tobytes() not in found:
                    found[t.tobytes()] = t
                    grown.append(t)
        frontier = grown
    bases = sorted(found.values(), key=lambda b: (b.shape[0], b.tobytes()))
    elements = tuple(SubgroupRep(m, arity, basis) for basis in bases)
    witnesses = []
    for basis in bases:
        res = is_pp_definable(m, basis, arity, cap)
        if not res.definable:
            raise ValidationFailure("a sum of pp closures is not pp-definable")
        witnesses.append(res.witness)
    k = len(elements)
    leq = np.zeros((k, k), dtype=bool)
    meet = np.zeros((k, k), dtype=np.int32)
    join = np.zeros((k, k), dtype=np.int32)
    index = {el.basis.tobytes(): i for i, el in enumerate(elements)}

    def _find(basis: np.ndarray, what: str) -> int:
        got = index.get(basis.tobytes())
        if got is None:
            raise ValidationFailure(
                f"lattice is not closed under {what}; join-closure broken"
            )
        return got

    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            leq[i, j] = linalg.subspace_le(field, a.basis, b.basis)
            meet[i, j] = _find(linalg.subspace_intersect(field, a.basis, b.basis), "intersection")
            join[i, j] = _find(linalg.subspace_sum(field, a.basis, b.basis), "sum")
    return PpLattice(m, arity, elements, tuple(witnesses), leq, meet, join)


def hasse_edges(lat: PpLattice) -> list[tuple[int, int]]:
    """Covering pairs (i, j) with element i covered by element j."""
    below = lat.leq & ~np.eye(lat.size, dtype=bool)
    # i < j with nothing strictly between, in row-major order
    covers = below & ~(below @ below)
    return [(i, j) for i, j in np.argwhere(covers).tolist()]


@dataclass(frozen=True, eq=False)
class PpFilter:
    """An upward-closed, meet-closed nonempty subset of a PpLattice."""

    lattice: PpLattice
    members: frozenset[int]

    @property
    def generator(self) -> int:
        """Least member; finite filters are principal."""
        lat = self.lattice
        for i in sorted(self.members):
            if all(lat.leq[i, j] for j in self.members):
                return i
        raise ValidationFailure("filter has no least element")


def make_filter(lat: PpLattice, members) -> PpFilter:
    members = frozenset(int(i) for i in members)
    if not members:
        raise ValidationFailure("filters are nonempty")
    for i in members:
        for j in range(lat.size):
            if lat.leq[i, j] and j not in members:
                raise ValidationFailure("filter is not upward closed")
        for j in members:
            if int(lat.meet[i, j]) not in members:
                raise ValidationFailure("filter is not meet closed")
    return PpFilter(lat, members)


def principal_filter(lat: PpLattice, g: int) -> PpFilter:
    return make_filter(
        lat, [j for j in range(lat.size) if lat.leq[g, j]]
    )


def all_filters(lat: PpLattice) -> list[PpFilter]:
    """Every filter of the finite lattice, i.e. every principal up-set."""
    return [principal_filter(lat, g) for g in range(lat.size)]


def ziegler_irreducible(filt: PpFilter) -> bool:
    """Irreducibility, read off the lattice literally.

    For every pair outside the filter there must be a member whose
    meets with the two stay jointly outside after summing.
    """
    lat = filt.lattice
    outside = [i for i in range(lat.size) if i not in filt.members]
    for p1 in outside:
        for p2 in outside:
            if not any(
                int(lat.join[lat.meet[p1, c], lat.meet[p2, c]])
                not in filt.members
                for c in filt.members
            ):
                return False
    return True


@dataclass(frozen=True, eq=False)
class NegIsolatedFilter:
    filter: PpFilter
    ziegler: bool


def filter_analysis(lat: PpLattice, avoid: int) -> list[NegIsolatedFilter]:
    """Filters maximal with respect to excluding ``avoid``, with flags."""
    if not 0 <= avoid < lat.size:
        raise ValidationFailure("avoided element is not in the lattice")
    candidates = [
        f for f in all_filters(lat) if avoid not in f.members
    ]
    out = []
    for f in candidates:
        if any(
            other.members > f.members for other in candidates
        ):
            continue
        out.append(NegIsolatedFilter(f, ziegler_irreducible(f)))
    return out
