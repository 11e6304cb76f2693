"""Endomorphism rings, their commutants, and definable scalars.

Endomorphisms of a finite module act by matrices on row vectors; the
biendomorphism ring is the commutant of that matrix algebra.  A
biendomorphism g becomes a definable scalar by a fully explicit
two-variable formula: fix a tuple of generators of the module over its
endomorphism ring, take a generator phi of the pp-type of the tuple
joined with its g-image, and say that u and v decompose as sums whose
i-th summand pair satisfies phi's i-th coordinate projection.  The
graph of that formula is the graph of g by construction, so the ring of
definable scalars is Biend(M) itself: M freely realises the pp-type of
its tuples (Prest, Purity, Spectra and Localisation, 2009, 1.2), so
phi(M) = End(M)·(m, g m) for the generators m, and the formula defines
the sum over i of the (i, k+i) projections of that orbit, which is
{(u, g u)} because g commutes with End(M) and m generates M over it.

End(M) and Biend(M) are ``RingTable``s: algebras (``algebras.Algebra``)
over a canonical matrix basis.  End(M) is the ``hom_basis`` stack and
Biend(M) is ``linalg.intertwiners`` of that stack with itself.  Their
products, the identity and (in Biend) the actions lie in them by
definition, and their bases are RREF, so the structure constants (one
``linalg.pair_products``), unit and ``from_r`` are read at the pivots.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .algebras import Algebra
from .errors import DimensionMismatch, ValidationFailure
from .fields import ELEM, Field
from .formulas import PpFormula, normalised, pp_type_generator
from .memo import memo
from .modules import ModuleRep, RIGHT, hom_basis
from .records import record, replace


@record
class RingTable(Algebra):
    """A matrix algebra as an :class:`Algebra` over its canonical basis.

    ``basis[i]`` acts on row vectors by right multiplication and is basis
    element i of the structure constants; ``from_r`` maps base algebra
    basis elements to coordinate rows when the base algebra acts through
    this ring.
    """

    basis: np.ndarray  # (k, d, d)
    from_r: np.ndarray | None = None  # (algebra dim, k)


def _make_ring_table(
    field: Field,
    mats: np.ndarray,
    prefix: str,
    actions: np.ndarray | None = None,
) -> RingTable:
    """Structure table of a matrix algebra given by its canonical basis.

    Each product, the identity and each of ``actions`` (read into
    ``from_r``) must lie in the span; its coordinates are its entries at
    the pivot columns of the RREF basis rows (flattened matrices).
    """
    k, d = mats.shape[0], mats.shape[1]
    vec = mats.reshape(k, d * d)
    pivots = [int(np.flatnonzero(row)[0]) for row in vec]
    table = linalg.pair_products(field, mats).reshape(k, k, d * d)[..., pivots]
    unit = linalg.eye(field, d).reshape(d * d)[pivots]
    from_r = None if actions is None else actions.reshape(-1, d * d)[:, pivots]
    labels = tuple(f"{prefix}{i}" for i in range(k))
    return RingTable(field, labels, table, unit, mats, from_r)


@record
class EndBiend:
    end: RingTable
    biend: RingTable
    generators: np.ndarray  # (g, dim): module generators over End


@memo(lambda m: m.fingerprint())
def end_and_biend(m: ModuleRep) -> EndBiend:
    """End(M), its commutant, and greedy module generators over End."""
    field = m.algebra.field
    d = m.dim
    end_mats = hom_basis(m, m)
    end = _make_ring_table(field, end_mats, "f")
    biend_mats = linalg.intertwiners(field, end_mats, end_mats)
    actions = m.actions if m.side == RIGHT and d else None
    biend = _make_ring_table(field, biend_mats, "g", actions)
    generators = _greedy_generators(m, end_mats)
    return EndBiend(end, biend, generators)


def _greedy_generators(m: ModuleRep, end_mats: np.ndarray) -> np.ndarray:
    """Module generators over End, greedy by the rows each End-orbit adds
    to a copy of the echelon span (``linalg.grow_basis``).  Each round
    walks M in code order (``linalg.walk``), one ``images`` and one
    ``tolist`` per chunk.
    No orbit adds more than min(d - len(span), dim End) rows, so a round
    ends at the first that does; End holds the identity, so one grows."""
    field = m.algebra.field
    d = m.dim
    span: list = []
    chosen: list[np.ndarray] = []
    while len(span) < d:
        best = None
        best_gain = 0
        best_span = span
        most = min(d - len(span), end_mats.shape[0])
        chunks = linalg.walk(field, d, end_mats.shape[0] * d)
        # image lists v @ h for every h in end_mats, a chunk at a time
        orbits = (o for c in chunks for o in zip(c, linalg.images(field, c, end_mats).tolist()))
        for v, image in orbits:
            cand = list(span)
            gain = linalg.grow_basis(field, cand, image)
            if gain > best_gain:
                best, best_gain, best_span = v, gain, cand
                if gain == most:
                    break
        chosen.append(best)
        span = best_span
    return np.stack(chosen) if chosen else np.zeros((0, d), dtype=ELEM)


@record
class ScalarSynthesis:
    formula: PpFormula  # rho(u, v)
    type_generator: PpFormula  # phi for the joined tuple
    generators: np.ndarray
    matrix: np.ndarray  # the biendomorphism realised
    total: bool  # True: the solution set is the graph [I | g], a theorem
    functional: bool  # True, by the same theorem


def synthesize_scalar(m: ModuleRep, g) -> ScalarSynthesis:
    """The two-variable formula whose graph is the graph of g on M.

    Raises ``DimensionMismatch`` unless g has d·d entries and
    ``ValidationFailure`` unless g commutes with End(M); the graph of
    the formula is then [I | g] (see the module docstring).
    """
    field = m.algebra.field
    d = m.dim
    g = field.asarray(g)
    if g.size != d * d:
        raise DimensionMismatch(f"a scalar of M needs {d}*{d} entries, got {g.size}")
    g = g.reshape(d, d)
    eb = end_and_biend(m)
    ends = eb.end.basis
    # g h and h g for every basis endomorphism h
    gh = linalg.images(field, g, ends).transpose(1, 0, 2)
    hg = linalg.matmul(field, ends.reshape(len(ends) * d, d), g).reshape(ends.shape)
    if not np.array_equal(gh, hg):
        raise ValidationFailure("matrix is not a biendomorphism")
    return _synthesis(m, eb.generators, g)


def _synthesis(m: ModuleRep, gens: np.ndarray, g: np.ndarray) -> ScalarSynthesis:
    """rho for a (d, d) ``ELEM`` biendomorphism g of M and M's generators over End."""
    field = m.algebra.field
    alg = m.algebra
    k = gens.shape[0]
    joined = np.concatenate([gens, linalg.matmul(field, gens, g)], axis=0)
    phi = pp_type_generator(m, joined)
    # rho(u, v): bounds are x_1..x_k, y_1..y_k, then per conjunct i the
    # 2k-2 unshared slot variables of phi plus phi's own bound block
    per_conj = (2 * k - 2) + phi.nbound
    nbound = 2 * k + k * per_conj
    neq = 2 + k * phi.neq
    a = np.zeros((2, neq, alg.dim), dtype=ELEM)
    b = np.zeros((nbound, neq, alg.dim), dtype=ELEM)
    a[0, 0] = alg.unit
    a[1, 1] = alg.unit
    for i in range(k):
        b[i, 0] = field.neg(alg.unit)
        b[k + i, 1] = field.neg(alg.unit)
    for i in range(k):
        base = 2 * k + i * per_conj
        # slots i and k + i share x_i and y_i; the others take fresh rows
        fresh = iter(range(base, base + 2 * k - 2))
        col0 = 2 + i * phi.neq
        for s in range(2 * k):
            b[s if s in (i, k + i) else next(fresh), col0 : col0 + phi.neq] = phi.a[s]
        for r in range(phi.nbound):
            b[base + 2 * k - 2 + r, col0 : col0 + phi.neq] = phi.b[r]
    rho = normalised(alg, m.side, 2, a, b)
    return ScalarSynthesis(rho, phi, gens, g, True, True)


@record
class ScalarRing:
    """``ring`` is ``biend`` relabelled r0, r1, ...: every basis biendomorphism
    has a formula that defines its graph, so the definable scalars of a
    finite module are Biend(M) (Prest, Purity, Spectra and Localisation,
    2009), and ``matches_biend``, which the reports print, states that
    theorem: it is always true."""

    ring: RingTable
    end: RingTable
    biend: RingTable
    generators: np.ndarray
    syntheses: tuple[ScalarSynthesis, ...]
    matches_biend: bool


def scalar_ring(m: ModuleRep) -> ScalarRing:
    """Definable scalars of M: one synthesis per Biend basis element, which
    commutes with End(M) by construction, so unchecked."""
    eb = end_and_biend(m)
    synths = tuple(_synthesis(m, eb.generators, g) for g in eb.biend.basis)
    ring = replace(eb.biend, labels=tuple(f"r{i}" for i in range(eb.biend.dim)))
    return ScalarRing(ring, eb.end, eb.biend, eb.generators, synths, True)
