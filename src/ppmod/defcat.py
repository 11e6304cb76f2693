"""Definable contexts, pp-pair closure, and purity.

A definable subcategory is presented here in either (or both) of two
finite ways: by generator modules, or by an explicit list of ordered
pp-pairs (phi, psi) with psi <= phi that every member must close
(equal solution sets).  Membership testing demands the explicit list;
with generators only it is refused rather than approximated.

Purity is decided by splitting: a finite-dimensional module over a
finite-dimensional algebra is pure-projective and pure-injective, so a
pure mono out of it or a pure epi onto it splits.  ``purity_check``
solves once over a basis of Hom(target, source) for a retraction and a
section, and walks elements only on a side that does not split, to find
its first single-element witness in code order.  A finite module freely
realises its tuples, phi_b(M) = Hom(N, M)·b, so that walk and
``strict_atomic_witness`` ask about Hom spans, not formulas.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import (
    AlgebraMismatch,
    CapExceeded,
    EmptyContext,
    NoExplicitPairs,
    NotInSolutionSet,
    ValidationFailure,
)
from .formulas import PpFormula, evaluate, leq_absolute, pp_type_generator
from .modules import (
    ModuleMap,
    ModuleRep,
    constrained_hom,
    direct_sum,
    hom_basis,
    quotient,
    require_compatible,
    submodule,
)
from .records import record


@record
class DefinableContext:
    """Generators and/or explicit closed pairs cutting out a subcategory."""

    algebra: object
    side: str
    generators: tuple[ModuleRep, ...] = ()
    pairs: tuple[tuple[PpFormula, PpFormula], ...] = ()


def make_context(generators=(), pairs=()) -> DefinableContext:
    """Validated context; needs at least one generator or pair.

    Every pair (phi, psi) must be ordered (psi <= phi absolutely) and
    closed on every generator.
    """
    generators = tuple(generators)
    pairs = tuple((p, q) for p, q in pairs)
    if not generators and not pairs:
        raise EmptyContext("a context needs generators or pairs")
    members = (*generators, *(phi for pair in pairs for phi in pair))
    for x in members:
        require_compatible(members[0], x, "context generators and pairs")
    alg, side = members[0].algebra, members[0].side
    for phi, psi in pairs:
        if not leq_absolute(psi, phi):
            raise ValidationFailure(
                f"pair not ordered: {psi.render()} is not below {phi.render()}"
            )
        for g in generators:
            if not pair_closed(phi, psi, g):
                raise ValidationFailure(
                    f"pair ({phi.render()}, {psi.render()}) is open on a generator"
                )
    return DefinableContext(alg, side, generators, pairs)


def pair_closed(phi: PpFormula, psi: PpFormula, m: ModuleRep) -> bool:
    """Does the pp-pair phi/psi close on m (equal solution sets)?

    Callers supply an ordered pair (psi <= phi); only solution-set
    equality is tested here.
    """
    return linalg.subspace_eq(evaluate(phi, m).basis, evaluate(psi, m).basis)


def member_check(n: ModuleRep, ctx: DefinableContext) -> bool:
    """Is n in the subcategory cut out by the explicit pairs?

    Raises:
        NoExplicitPairs: the context carries generators only; a finite
            generator list does not decide membership, so refuse.
    """
    if not ctx.pairs:
        raise NoExplicitPairs(
            "membership needs an explicit pair list; generators alone "
            "do not decide it"
        )
    return all(pair_closed(phi, psi, n) for phi, psi in ctx.pairs)


# -- purity ------------------------------------------------------------------


@record(eq=True)
class PurityReport:
    pure_mono: bool
    pure_epi: bool
    mono_witness: tuple | None  # (element, formula) with type not preserved
    epi_witness: tuple | None  # (element, formula) with no lift in phi(source)


def _splits(field, products: np.ndarray) -> bool:
    """Is the identity a linear combination of the (h, d, d) stack?

    An empty stack splits only the zero identity.
    """
    h, d = products.shape[:2]
    if h == 0:
        return d == 0
    lhs = products.reshape(h, d * d).T
    return linalg.solve(field, lhs, linalg.eye(field, d).reshape(-1)) is not None


def _first_outside(field, dim: int, stack: np.ndarray) -> np.ndarray | None:
    """First e of F_q^dim in code order outside span{e S_i}, or None.

    ``stack`` holds the (h, dim, dim) matrices S_i: one ``linalg.images``
    per chunk of a ``linalg.walk`` stopped at ``linalg.ENUMERATION_CAP``,
    past which a search without a witness raises CapExceeded."""
    q, cap = field.q, linalg.ENUMERATION_CAP
    total = q**dim
    for chunk in linalg.walk(field, dim, stack.shape[0] * dim, min(total, cap)):
        for e, orbit in zip(chunk, linalg.images(field, chunk, stack)):
            if linalg.solve(field, orbit.T, e) is None:
                return e
    if total > cap:
        raise CapExceeded(f"no witness among the first {cap} of {q}^{dim} elements (cap)")
    return None


def purity_check(f_map: ModuleMap) -> PurityReport:
    """Purity of a finite map f: M -> N, decided by splitting.

    With F the matrix of f and G_i a basis of Hom(N, M), pure_mono holds
    iff F G = I_M for some G in the span (a retraction), and pure_epi iff
    S F = I_N for some S (a section).  A side that does not split names
    its first witness in code order: a source element a failing the
    generator psi of its image's pp-type, or a target element a with no
    preimage in phi(M), phi its type's generator.  N freely realises
    both, so psi(M) = span{a F G_i} and f(phi(M)) = span{a G_i F}: a is a
    witness iff it lies outside span{a S_i}, S_i the F G_i or G_i F just
    tested for splitting.  Only the reported witness's generator is built.
    """
    m, n = f_map.source, f_map.target
    field = m.algebra.field
    gs = hom_basis(n, m)
    h = len(gs)
    # F G_i and G_i F for every basis map G_i of Hom(N, M)
    fg = linalg.images(field, f_map.matrix, gs).transpose(1, 0, 2)
    gf = linalg.matmul(field, gs.reshape(h * n.dim, m.dim), f_map.matrix).reshape(h, n.dim, n.dim)
    mono_wit = epi_wit = None
    if not _splits(field, fg) and (a := _first_outside(field, m.dim, fg)) is not None:
        mono_wit = (a, pp_type_generator(n, f_map.apply(a).reshape(1, -1)))
    if not _splits(field, gf) and (aa := _first_outside(field, n.dim, gf)) is not None:
        epi_wit = (aa, pp_type_generator(n, aa.reshape(1, -1)))
    return PurityReport(mono_wit is None, epi_wit is None, mono_wit, epi_wit)


@record
class PullbackResult:
    module: ModuleRep
    to_source: ModuleMap  # X -> M
    to_cover: ModuleMap  # X -> D
    inclusion: ModuleMap  # X -> M (+) D
    inclusion_report: PurityReport
    to_source_report: PurityReport


def pullback_pure(f_map: ModuleMap, p_map: ModuleMap) -> PullbackResult:
    """Pullback X = {(m, d) : f m = p d} with its purity reports.

    With p a pure epimorphism, X -> M is again a pure epimorphism and
    pp-pairs closed on the corner modules close on X.
    """
    if f_map.target.fingerprint() != p_map.target.fingerprint():
        raise AlgebraMismatch("pullback needs a common codomain")
    m, d = f_map.source, p_map.source
    field = m.algebra.field
    ds = direct_sum([m, d])
    amb = ds.module
    # rows: basis of the kernel of (x, y) |-> f x - p y
    diff = np.concatenate(
        [f_map.matrix, field.neg(p_map.matrix)], axis=0
    )  # (m.dim + d.dim, target.dim)
    ker = linalg.null_space(field, diff.T)
    sub = submodule(amb, ker)
    x = sub.module
    incl = sub.inclusion
    to_m = incl.compose(ds.projections[0])
    to_d = incl.compose(ds.projections[1])
    return PullbackResult(
        x, to_m, to_d, incl, purity_check(incl), purity_check(to_m)
    )


@record
class PushoutResult:
    module: ModuleRep
    from_source: ModuleMap  # M -> Y
    from_cover: ModuleMap  # D -> Y
    antidiagonal: ModuleMap  # D' -> M (+) D, d |-> (f d, -i d)
    antidiagonal_report: PurityReport
    from_source_report: PurityReport


def pushout_pure(i_map: ModuleMap, f_map: ModuleMap) -> PushoutResult:
    """Pushout Y = (M (+) D) / {(f d', -i d')} with purity reports.

    i: D' -> D and f: D' -> M share the source D'.  With i a pure
    monomorphism the antidiagonal embedding is one too, and so is the
    pushed-out map M -> Y; pairs closed on the corners close on Y.
    """
    if i_map.source.fingerprint() != f_map.source.fingerprint():
        raise AlgebraMismatch("pushout needs a common domain")
    dprime = i_map.source
    d, m = i_map.target, f_map.target
    field = m.algebra.field
    ds = direct_sum([m, d])
    anti = np.concatenate(
        [f_map.matrix, field.neg(i_map.matrix)], axis=1
    )  # (dprime.dim, m.dim + d.dim)
    anti_map = ModuleMap(dprime, ds.module, anti)
    q = quotient(ds.module, anti)
    from_m = ds.injections[0].compose(q.projection)
    from_d = ds.injections[1].compose(q.projection)
    return PushoutResult(
        q.module,
        from_m,
        from_d,
        anti_map,
        purity_check(anti_map),
        purity_check(from_m),
    )


def strict_atomic_witness(
    m: ModuleRep,
    vectors,
    n: ModuleRep,
    target_vectors,
) -> ModuleMap:
    """Morphism m -> n carrying the tuple to the target tuple.

    m is finite, so it freely realises the pp-type of the tuple: a
    morphism exists iff the target tuple satisfies the type's generator.
    Finite modules are strictly atomic in every definable context, so the
    answer takes no context.  One ``constrained_hom`` finds the morphism
    or decides that none exists: the target tuple lies in Hom(m, n)·b.

    Raises:
        NotInSolutionSet: the target tuple fails the generator formula
            (an input mismatch, not a strictness failure).
    """
    hom = constrained_hom(m, n, vectors, target_vectors)
    if hom is None:
        raise NotInSolutionSet(
            "target tuple does not satisfy the pp-type generator"
        )
    return hom
