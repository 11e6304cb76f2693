"""Staged preenvelope construction inside a definable context.

The construction grows a chain A = B_0 -> B_1 -> ... by freely
realising, at stage n, the conjunction of scheduled consequence
formulas phi_{1,n+1} and phi_{2,n} and ... and phi_{n+1,1}, where row
i enumerates the context-closed strengthenings of theta_{i-1}, the
generator of the pp-type of the stage-(i-1) generating tuple.  The
diagonal schedule guarantees every consequence of every theta is
eventually realised, which is what makes the limit a preenvelope; at
finite stage the same bookkeeping yields machine-checkable factor and
generator properties.

Enumerations here are finite, budgeted and capped.  A consequence
list always starts with theta itself, and the schedule reads row i at
position j mod len(row i), so the schedule never starves.  Candidates
theta and chi, chi with coefficient blocks (a, b), are decided on
solution sets, (theta and chi)(X) = theta(X) & chi(X), and two linear
facts decide a run of a-codes for every b at once: x lies in chi(X)
iff L_a(x) lies in W_b(X), with L_a(x) bilinear in (a, x) and W_b(X)
independent of a, so closure on the generators is a zero row of one
product, and the signature on C_theta depends on a only through one
matrix M_a, a row of a second product.  The accepted candidates are
merged in code order, a_code * E^(t*neq) + b_code, and a formula is
built only for an accepted one.  A budget can truncate a row (more
closed strengthenings existed than the candidate allowance), reported
as ``budget_exhausted`` on the state; a block of candidates longer
than ``linalg.ENUMERATION_CAP`` raises CapExceeded.
The verifiers work on Hom spaces: a ``hom_basis`` decides factoring,
and the generator check reads each stage's image type off ``hom_orbits``.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import CapExceeded, EmptyContext, NotGenerating, ValidationFailure
from .defcat import DefinableContext, member_check
from .fields import is_int
from .formulas import (
    PpFormula,
    conj,
    equivalent,
    evaluate,
    free_realisation,
    normalised,
    pp_type_generator,
    prefix_restriction,
    system_rows,
)
from .modules import (
    ModuleMap,
    ModuleRep,
    constrained_hom,
    extend_to_generators,
    hom_basis,
    hom_orbits,
    module_span,
    require_compatible,
    tuple_rows,
)
from .records import record


@record(eq=True)
class Budget:
    """Finite allowances for consequence enumeration and staging."""

    bound_vars: int
    equations: int
    candidates: int
    stages: int

    def __post_init__(self):
        for name in ("bound_vars", "equations", "candidates", "stages"):
            value = getattr(self, name)
            if not is_int(value):
                raise ValidationFailure(f"budget field {name} must be an int, not {value!r}")
            if value < 1:
                raise ValidationFailure(f"budget field {name} must be positive")


@record
class ConsequenceList:
    """Budgeted enumeration of the context-closed strengthenings of theta."""

    theta: PpFormula
    formulas: tuple[PpFormula, ...]
    truncated: bool

    def __len__(self) -> int:
        return len(self.formulas)

    def scheduled(self, j: int) -> PpFormula:
        """The j-th scheduled formula (1-based), cycling the finite list."""
        return self.formulas[j % len(self.formulas)]


def consequence_enum(
    theta: PpFormula, ctx: DefinableContext, budget: Budget
) -> ConsequenceList:
    """Strengthenings of theta that stay closed on the context generators.

    Candidates are conjunctions theta and chi with chi ranging over all
    coefficient blocks (a, b) in theta's free variables within the
    budget's bound-variable and equation allowances, in code order.
    Bound variables are disjoint, so (theta and chi)(X) = theta(X) &
    chi(X): a candidate closes on a generator G iff theta(G) <= chi(G),
    and the accepted ones, all equal to theta on the generators, are
    deduplicated by their solution sets on C_theta, the free realisation
    of theta.

    Both questions are linear in a for a fixed block b.  x lies in
    chi(X) iff L_a(x) lies in W_b(X), where L_a(x)_e = sum_i x_i rho(a_ie)
    is bilinear in (a, x) and W_b(X), spanned by the b rows, does not
    depend on a.  So the product of the a listing with the tables of
    every b side by side gives L_a(v) mod W_b(X) for every basis row v of
    theta(X), and a chunk of a-codes makes two products per block:

    * one with every generator's tables: (a, b) closes iff its row is zero;
    * one with C = C_theta's tables, for the a that close for some b: the
      row M_a of each closing pair.  The signature theta(C) & chi(C) is
      the image in theta(C) of the left kernel of M_a, so equal M_a share
      one ``null_space``.

    The closing pairs come out in ``product`` order, index a_code *
    E^(t*neq) + b_code for E algebra elements (the a slots come first),
    and one ``np.unique`` of their M_a rows as opaque bytes finds where
    each distinct M_a first occurs.  So each signature is met where a
    candidate-by-candidate walk would meet it.  The a-codes are the
    chunks of one ``linalg.walk``, at most ``linalg.WALK_CELLS`` product
    entries per chunk, so the products do not grow with the listing and
    a truncating budget stops at the chunk it fills up in.  Only an
    accepted candidate becomes a formula, normalised without
    ``pp_formula``'s door: its blocks come from the listing.  The list is
    capped at budget.candidates; theta itself is element 0.  A block that
    would list more than ``linalg.ENUMERATION_CAP`` raises CapExceeded.
    """
    if not ctx.generators:
        raise EmptyContext("consequence enumeration needs context generators")
    alg = theta.algebra
    field = alg.field
    n, k = theta.nfree, alg.dim
    c_theta = free_realisation(theta).module
    on_c = evaluate(theta, c_theta).basis
    # the generators decide closure, C_theta the signature
    gen_moves = [(g, _moves(g, evaluate(theta, g).basis, n)) for g in ctx.generators]
    c_moves = _moves(c_theta, on_c, n)
    results = [theta]
    seen = {on_c.tobytes()}
    elems = field.q**k
    for t in range(budget.bound_vars + 1):
        for neq in range(1, budget.equations + 1):
            slots = (n + t) * neq
            if elems**slots > linalg.ENUMERATION_CAP:
                raise CapExceeded(
                    f"listing {elems}^{slots} candidate formulas "
                    f"exceeds the cap {linalg.ENUMERATION_CAP}"
                )
            # ``product`` order is ``all_vectors`` order with the slots reversed
            nb = field.q ** (t * neq * k)
            b_list = linalg.all_vectors(field, t * neq * k).reshape(nb, t * neq, k)[:, ::-1]
            b_list = b_list.reshape(nb, t, neq, k)
            gen_tables = np.concatenate(
                [_residue_tables(g, moves, b_list) for g, moves in gen_moves], axis=2
            )
            c_tables = _residue_tables(c_theta, c_moves, b_list)
            m_shape = (on_c.shape[0], neq * c_theta.dim)
            walked = set()  # M_a met in earlier chunks of this block
            # a chunk holds every b-code of a run of a-codes, so the chunks
            # meet the candidates in code order.  Per a-code it counts the
            # terms of the generator product (the F_{2^d} product gathers
            # each one) and the entries of C_theta's
            width = gen_tables.size + nb * c_tables.shape[2]
            for chunk in linalg.walk(field, n * neq * k, width):
                chunk = chunk.reshape(len(chunk), n * neq, k)[:, ::-1].reshape(chunk.shape)
                closes = ~linalg.images(field, chunk, gen_tables).any(axis=2)
                live = closes.any(axis=1)
                # row-major, so the closing (a, b) pairs come in code order
                pair_a, pair_b = np.nonzero(closes)
                m_rows = linalg.images(field, chunk[live], c_tables)[closes[live]]
                for i in _first_rows(m_rows):
                    key = m_rows[i].tobytes()
                    if key in walked:
                        continue
                    walked.add(key)
                    kernel = linalg.null_space(field, m_rows[i].reshape(m_shape).T)
                    # kernel and on_c are in RREF, so kernel @ on_c is too
                    sig = linalg.matmul(field, kernel, on_c).tobytes()
                    if sig in seen:
                        continue
                    if len(results) >= budget.candidates:
                        return ConsequenceList(theta, tuple(results), True)
                    seen.add(sig)
                    a = chunk[pair_a[i]].reshape(n, neq, k)
                    chi = normalised(alg, theta.side, n, a, b_list[pair_b[i]])
                    results.append(conj(theta, chi))
    return ConsequenceList(theta, tuple(results), False)


def _moves(x: ModuleRep, basis: np.ndarray, n: int) -> np.ndarray:
    """v_i rho(e_l) for every basis row v of theta(X), slot i and element l.

    Shape (h, n, k, dim): L_a(v)_e is the sum of a_iel times entry (v, i, l).
    """
    h, d, k = basis.shape[0], x.dim, x.algebra.dim
    moved = linalg.images(x.algebra.field, basis.reshape(h * n, d), x.actions)
    return moved.reshape(h, n, k, d)


def _residue_tables(x: ModuleRep, moves: np.ndarray, b_list: np.ndarray) -> np.ndarray:
    """For every b, the table T_b with (flat a) @ T_b = L_a(v) mod W_b(X).

    Rows of T_b are the (i, e, l) coefficient slots of a, columns the
    basis rows v of theta(X) times the residue in F^(neq*dim); shape
    (#b, n*neq*k, h*neq*dim).
    """
    field = x.algebra.field
    h, n, k, d = moves.shape
    nb, t, neq, _ = b_list.shape
    width = neq * d
    systems = system_rows(b_list.reshape(nb * t, neq, k), x).reshape(nb, t * d, width)
    residue = np.stack([linalg.residue_map(field, *linalg.rref(field, w)) for w in systems])
    blocks = residue.reshape(nb * neq, d, width)  # block e: the rows of equation e
    tables = linalg.images(field, moves.reshape(h * n * k, d), blocks)
    tables = tables.reshape(h, n, k, nb, neq, width).transpose(3, 1, 4, 2, 0, 5)
    return tables.reshape(nb, n * neq * k, h * width)


def _first_rows(rows: np.ndarray) -> np.ndarray:
    """The index of the first of each distinct row, in increasing order.

    Rows are compared as opaque bytes; rows of no entries are all equal."""
    if rows.shape[1] == 0:
        return np.arange(min(1, len(rows)))
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    return np.sort(np.unique(keys.ravel(), return_index=True)[1])


@record
class Stage:
    """One rung of the chain: module, tuples, type generator, schedule."""

    index: int
    module: ModuleRep
    realised: PpFormula | None  # conjunction this stage freely realises
    scheduled: tuple[tuple[int, int, PpFormula], ...]  # (row i, slot j, formula)
    a_tuple: np.ndarray  # realisation tuple of the conjunction
    b_tuple: np.ndarray  # generating tuple extending a_tuple
    theta: PpFormula  # generator of the pp-type of b_tuple
    a_image: np.ndarray  # image of the distinguished initial tuple


@record
class ConstructionState:
    ctx: DefinableContext
    budget: Budget
    initial_tuple: np.ndarray
    stages: tuple[Stage, ...]
    maps: tuple[ModuleMap, ...]  # maps[n]: B_n -> B_{n+1}
    rows: tuple[ConsequenceList, ...]  # rows[i-1] enumerates theta_{i-1}
    budget_exhausted: bool
    # least n with maps[n] an isomorphism: the first isomorphism in the
    # chain, not a proof that the chain has stabilised (later maps may
    # still grow the stages)
    iso_stable_at: int | None

    @property
    def final(self) -> ModuleRep:
        return self.stages[-1].module


def run_construction(
    a_mod: ModuleRep, a_tuple, ctx: DefinableContext, budget: Budget
) -> ConstructionState:
    """Execute the diagonal schedule for budget.stages stages."""
    require_compatible(a_mod, ctx, "module and context")
    a_vecs = tuple_rows(a_tuple, a_mod.dim)
    if module_span(a_mod, a_vecs).shape[0] != a_mod.dim:
        raise NotGenerating("initial tuple must generate the module")
    theta0 = pp_type_generator(a_mod, a_vecs)
    stages = [
        Stage(
            0,
            a_mod,
            None,
            (),
            a_vecs,
            a_vecs,
            theta0,
            a_vecs,
        )
    ]
    rows = [consequence_enum(theta0, ctx, budget)]
    maps: list[ModuleMap] = []
    iso_stable_at: int | None = None
    for n in range(budget.stages):
        current = stages[n]
        width = current.b_tuple.shape[0]
        scheduled = []
        conjunction = None
        for i in range(1, n + 2):
            j = n + 2 - i
            phi_ij = rows[i - 1].scheduled(j)
            scheduled.append((i, j, phi_ij))
            padded = prefix_restriction(phi_ij, width)
            conjunction = (
                padded if conjunction is None else conj(conjunction, padded)
            )
        realised = free_realisation(conjunction)
        b_next = realised.module
        a_next = realised.tuple
        f_n = constrained_hom(current.module, b_next, current.b_tuple, a_next)
        if f_n is None:
            raise ValidationFailure(
                "no connecting morphism: the realised tuple must satisfy "
                "the stage type generator"
            )
        b_tuple = extend_to_generators(b_next, a_next)
        theta = pp_type_generator(b_next, b_tuple)
        a_image = f_n.apply_tuple(current.a_image)
        stages.append(
            Stage(
                n + 1,
                b_next,
                conjunction,
                tuple(scheduled),
                a_next,
                b_tuple,
                theta,
                a_image,
            )
        )
        maps.append(f_n)
        rows.append(consequence_enum(theta, ctx, budget))
        if iso_stable_at is None and f_n.is_isomorphism():
            iso_stable_at = n
    return ConstructionState(
        ctx,
        budget,
        a_vecs,
        tuple(stages),
        tuple(maps),
        tuple(rows),
        any(r.truncated for r in rows),
        iso_stable_at,
    )


@record
class FactorisationReport:
    ok: bool
    checked: int
    failures: tuple  # (stage n, target index, unfactorable ModuleMap)


def verify_factorisation(
    state: ConstructionState, targets
) -> FactorisationReport:
    """Does every map B_n -> target factor through f_n, for all n?

    Factoring is linear in the map, so checking a hom-space basis
    decides all maps at once.  Targets are expected to lie in the
    context (generators, or modules closing its explicit pairs); when
    the context carries explicit pairs, that is enforced.
    """
    targets = list(targets)
    field = state.ctx.algebra.field
    if state.ctx.pairs and not all(member_check(t, state.ctx) for t in targets):
        raise ValidationFailure("target does not close the context pairs")
    failures = []
    checked = 0
    for n, f_n in enumerate(state.maps):
        b_n = state.stages[n].module
        b_next = state.stages[n + 1].module
        for t_idx, target in enumerate(targets):
            hs = hom_basis(b_next, target)
            # the span of f_n h over the basis maps h of Hom(B_{n+1}, T)
            composites = linalg.images(field, f_n.matrix, hs).transpose(1, 0, 2)
            through = linalg.row_space(field, composites.reshape(len(hs), b_n.dim * target.dim))
            for g in hom_basis(b_n, target):
                checked += 1
                if not linalg.in_span(field, through, g.reshape(-1)):
                    failures.append((n, t_idx, ModuleMap(b_n, target, g)))
    return FactorisationReport(not failures, checked, tuple(failures))


def verify_generator(state: ConstructionState, phi: PpFormula) -> bool:
    """Does the image type of the initial tuple stay generated by phi?

    At every stage m the generator psi_m of the image tuple a_m's pp-type
    must be below phi absolutely and above it relative to the context.
    B_m freely realises psi_m at a_m, so psi_m is never built: psi_m <=
    phi iff a_m lies in phi(B_m), and phi(G) <= psi_m(G) = Hom(B_m, G)·a_m
    on each generator G.  phi must generate the initial tuple's pp-type.
    """
    theta0 = state.stages[0].theta
    if not equivalent(phi, theta0):
        raise ValidationFailure(
            "formula does not generate the initial tuple's pp-type"
        )
    field = state.ctx.algebra.field
    for stage in state.stages:
        b_m, a_m = stage.module, stage.a_image
        for g in state.ctx.generators:
            reach = linalg.row_space(field, hom_orbits(b_m, g, a_m[None])[0])
            if not linalg.subspace_le(field, evaluate(phi, g).basis, reach):
                return False
        if not evaluate(phi, b_m).contains(a_m):
            return False
    return True
