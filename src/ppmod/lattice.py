"""The lattice of pp-definable subgroups of a finite module.

Definability of a subspace S <= M^n is decided by the pointed-power
method: point the k-th power of M by the diagonal tuple collecting the
coordinates of a spanning set of S, take the generator of that tuple's
pp-type, and evaluate it back on M.  The result is the least
pp-definable subgroup containing S, so S is definable iff the closure
is S itself.

M is finite-dimensional, so it freely realises the pp-type of each of
its tuples: the principal closure <a>, the least pp-definable subgroup
containing a, is the orbit End(M)·a under the diagonal action on M^n,
and the pp-definable subgroups are the End(M)-submodules of M^n (Prest,
Purity, Spectra and Localisation, 2009, 1.2).  A whole lattice is the
join-closure of the orbits, one a per projective point of F_q^n, with
no subspace enumeration and no element to prove definable; the pointed
power only gives an element its witness, when it is read.  The closure
sums each element once with each principal, and x + y is x plus, one
stored sum at a time, the principals that first reached y.  Until the
closure ends, each element is a reduced echelon list of Python rows
(``linalg.grow_basis``) keyed by its rows, so a sum crosses no numpy
boundary; each element found gets its one ``ELEM`` array at the end.
a <= b iff a + b = b, and the meet of a and b, their intersection, is
their common lower bound of largest dimension.  Two refusals bound a
lattice: the cap bounds the pointed power of the top M^arity, which is
the largest any element's witness needs, and ``linalg.ENUMERATION_CAP``
bounds the k^2 entries of each table of a k-element lattice, checked as
the closure grows, since k can outgrow the pointed power: for S over
F_2[t]/(t^2), |S|^n = 2^n, and every subspace of F_2^n is an element.

Every filter of the finite lattice is a principal up-set up(g), so a
filter is its generator g and every filter question is read off ``leq``:
- the filters maximal among those avoiding an element a are generated
  by the minimal g with g not below a, since up(g) avoids a iff g is
  not below a, and up(h) strictly contains up(g) iff h < g;
- up(g) is Ziegler irreducible (for all p1, p2 outside it some c in it
  has (p1 & c) + (p2 & c) outside it) iff g has at most one lower
  cover: the sum is monotone in c, so c = g decides, and every x < g
  is p & g for some p outside (take p = x), so up(g) fails iff g is
  the join of two elements below it, which in a finite lattice holds
  iff g has two or more lower covers.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import CapExceeded, ValidationFailure
from .fields import ELEM, is_int
from .formulas import PpFormula, SubgroupRep, bot, evaluate, pp_type_generator, require_arity
from .modules import ModuleRep, hom_orbits, power, tuple_rows
from .records import record

DEFAULT_CAP = 2**16


@record(eq=True)
class DefinabilityResult:
    definable: bool
    witness: PpFormula  # defines the closure; on success, defines S
    closure: np.ndarray  # canonical basis of the least definable superset


def _pointed_generator(m: ModuleRep, rows: np.ndarray, arity: int) -> PpFormula:
    """The pp-type generator of the diagonal tuple of M^k that the k RREF rows
    of a subspace S of M^arity point; it defines the least definable S' >= S."""
    k = rows.shape[0]
    if k == 0:
        return bot(m.algebra, m.side, arity)
    # diagonal tuple: the j-th entry collects the j-th coordinate block
    # of every spanning row
    diag = rows.reshape(k, arity, m.dim).transpose(1, 0, 2).reshape(arity, k * m.dim)
    return pp_type_generator(power(m, k), diag)


def _require_pointed_power(m: ModuleRep, k: int, cap) -> None:
    """Refuse a non-int cap, and a pointed power M^k past cap elements (M^0 is never built)."""
    if not is_int(cap):
        raise ValidationFailure(f"cap must be an int, not {cap!r}")
    size = m.algebra.field.q ** (m.dim * k)
    if k and size > cap:
        raise CapExceeded(f"pointed power needs |M|^{k} = {size} > cap {cap}")


def is_pp_definable(
    m: ModuleRep, basis, arity: int = 1, cap: int = DEFAULT_CAP
) -> DefinabilityResult:
    """Is the subspace spanned by ``basis`` rows pp-definable in M^arity?

    The rows live in M^arity, flattened.  The witness is the pp-type
    generator of a tuple of the pointed power M^k, k the spanning-set
    size; the cap bounds |M|^k.  The work is linear algebra of
    dimension k·dim M, not a walk of M^k, so the cap is a size bound
    rather than the cost: lifted, |M|^k = 2^40 (R_R, 20 rows) takes
    milliseconds.
    """
    require_arity(arity)
    rows = linalg.row_space(m.algebra.field, tuple_rows(basis, m.dim * arity))
    k = rows.shape[0]
    _require_pointed_power(m, k, cap)
    phi = _pointed_generator(m, rows, arity)
    closure = evaluate(phi, m).basis if k else rows
    return DefinabilityResult(linalg.subspace_eq(closure, rows), phi, closure)


@record
class PpLattice:
    """All pp-definable subgroups of M^arity with order and operations.

    Elements are canonical subspace bases sorted by (dimension, bytes);
    ``leq``, ``meet``, ``join`` are dense tables over element indices.
    """

    module: ModuleRep
    arity: int
    elements: tuple[SubgroupRep, ...]
    leq: np.ndarray  # bool (k, k)
    meet: np.ndarray  # int (k, k)
    join: np.ndarray  # int (k, k)

    @property
    def witnesses(self) -> tuple[PpFormula, ...]:
        """Each element's ``is_pp_definable`` witness, built on each read (the
        ``pp_type_generator`` memo makes a second read cheap)."""
        return tuple(_pointed_generator(self.module, el.basis, self.arity) for el in self.elements)

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
        field, n = self.module.algebra.field, self.module.dim * self.arity
        rows = linalg.row_space(field, tuple_rows(basis, n))
        for i, el in enumerate(self.elements):
            if linalg.subspace_eq(el.basis, rows):
                return i
        raise ValidationFailure("subspace is not a lattice element")


def principal_closures(m: ModuleRep, arity: int) -> list[list]:
    """The orbit <a> = End(M)·a of each projective point a of F_q^n, in code
    order, as the reduced echelon (lead, row) list of its RREF basis: one
    ``tolist`` of the ``hom_orbits`` product, one ``linalg.grow_basis`` per orbit."""
    field, n = m.algebra.field, m.dim * arity
    if n == 0:
        return []
    points = linalg.all_vectors(field, n)
    lead = points[np.arange(len(points)), (points != 0).argmax(axis=1)]
    points = points[lead == 1]  # one a per projective point
    out = []
    for orbit in hom_orbits(m, m, points.reshape(len(points), arity, m.dim)).tolist():
        leads: list = []
        linalg.grow_basis(field, leads, orbit)
        out.append(leads)
    return out


def _key(leads: list) -> tuple:
    """The rows of an echelon list, as one hashable tuple: equal iff the subspaces are."""
    return tuple([tuple(row) for _, row in leads])


def pp_lattice(m: ModuleRep, arity: int = 1, cap: int = DEFAULT_CAP) -> PpLattice:
    """The full lattice of pp-definable subgroups of M^arity.

    The join-closure of the orbits End(M)·a, one a per projective point
    of F_q^n, sums each non-zero element with each principal once: a copy
    of the element's echelon list grown by the principal's rows.  Elements
    are keyed by their rows until the closure ends, and then each gets one
    ``ELEM`` array; they are sorted by (dimension, bytes).  Column y of
    ``join`` folds the stored sums along the principals that first reached
    y, so no join needs a lookup check.  ``leq`` and ``meet`` are read
    off ``join``.  The cap bounds the pointed power of the top M^arity,
    the largest any witness needs; the closure stops with CapExceeded
    once its k elements would make tables of k^2 > ``linalg.ENUMERATION_CAP``
    entries.
    """
    require_arity(arity)
    field = m.algebra.field
    n = m.dim * arity
    _require_pointed_power(m, n, cap)
    principal = {_key(c): c for c in principal_closures(m, arity)}
    rows = [[row for _, row in c] for c in principal.values()]
    bottom = ()
    # found[x]: the echelon list of x; path[x]: the principals whose sums
    # first reached x, so x is their sum; plus[x][j]: the key of x + principal[j]
    found, path, plus = {bottom: []}, {bottom: ()}, {}
    frontier = [bottom]
    while frontier:
        grown = []
        for key in frontier:
            s = found[key]
            plus[key] = sums = []
            for j, (p_key, p) in enumerate(principal.items()):
                if s:
                    t = list(s)
                    t_key = _key(t) if linalg.grow_basis(field, t, rows[j]) else key
                else:
                    t, t_key = p, p_key
                sums.append(t_key)
                if t_key not in found:
                    size = len(found) + 1
                    if size * size > linalg.ENUMERATION_CAP:
                        raise CapExceeded(
                            f"lattice tables need at least {size}^2 = {size * size} "
                            f"entries > cap {linalg.ENUMERATION_CAP}"
                        )
                    found[t_key], path[t_key] = t, path[key] + (j,)
                    grown.append(t_key)
        frontier = grown
    arrays = {key: np.array(key, dtype=ELEM).reshape(len(key), n) for key in found}
    order = sorted(found, key=lambda key: (len(key), arrays[key].tobytes()))
    k = len(order)
    index = {key: i for i, key in enumerate(order)}
    table = np.array([[index[t] for t in plus[key]] for key in order], dtype=np.int32)
    join = np.zeros((k, k), dtype=np.int32)
    for y, key in enumerate(order):
        # x + y = (x + p1) + p2 + ... over y's path, for every x at once
        col = np.arange(k, dtype=np.int32)
        for j in path[key]:
            col = table[col, j]
        join[:, y] = col
    leq = join == np.arange(k)  # a <= b iff a + b = b
    meet = np.zeros((k, k), dtype=np.int32)
    for i in range(k):
        # the common lower bound of largest dimension: the last in sort order
        meet[i] = k - 1 - (leq[:, i, None] & leq)[::-1].argmax(axis=0)
    elements = tuple(SubgroupRep(m, arity, arrays[key]) for key in order)
    return PpLattice(m, arity, elements, leq, meet, join)


def _covers(lat: PpLattice) -> np.ndarray:
    """covers[i, j]: i < j with nothing strictly between."""
    below = lat.leq & ~np.eye(lat.size, dtype=bool)
    return below & ~(below @ below)


def hasse_edges(lat: PpLattice) -> list[tuple[int, int]]:
    """Covering pairs (i, j) with element i covered by element j, in row-major order."""
    return [(i, j) for i, j in np.argwhere(_covers(lat)).tolist()]


@record
class PpFilter:
    """The filter of a PpLattice generated by ``generator``: its up-set.

    Every filter of a finite lattice is principal, so the generator is
    the filter.
    """

    lattice: PpLattice
    generator: int

    @property
    def members(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.lattice.leq[self.generator]).tolist())


@record
class NegIsolatedFilter:
    filter: PpFilter
    ziegler: bool


def filter_analysis(lat: PpLattice, avoid: int) -> list[NegIsolatedFilter]:
    """Filters maximal with respect to excluding ``avoid``, with flags.

    They are generated by the minimal g with g not below ``avoid``,
    listed in ascending g; g's filter is Ziegler irreducible iff g has
    at most one lower cover.  So every reported filter is irreducible:
    were g the join of two smaller elements, both would lie below
    ``avoid`` by the minimality of g, and so would g.  The flag is read
    off the covers all the same, and reads yes on every reported filter.
    """
    index = isinstance(avoid, (int, np.integer)) and not isinstance(avoid, bool)
    if not index or not 0 <= avoid < lat.size:
        raise ValidationFailure("avoided element is not in the lattice")
    covers = _covers(lat)
    outside = ~lat.leq[:, avoid]
    # outside is an up-set, so g is minimal in it iff no lower cover of g is
    minimal = outside & ~(outside @ covers)
    irreducible = covers.sum(axis=0) <= 1
    return [
        NegIsolatedFilter(PpFilter(lat, g), bool(irreducible[g]))
        for g in np.flatnonzero(minimal).tolist()
    ]
