"""Differential tests: the linalg-routed arithmetic against the loops it replaced.

Structure-constant products, action matrices rho(r), element tables in
code order, subgroup element lists, the hom combinations searched by
``are_isomorphic``, the cover matrix of ``presentation`` and the End
orbits of the greedy generators are computed through
``linalg.matvec``/``linalg.matmul`` and ``linalg.all_vectors``.  The
loops they replaced are kept below, verbatim in substance, as oracles.
The arithmetic oracles run on objects built from random arrays without
the construction-time axiom checks, since the arithmetic must agree on
any array, not only on genuine algebras and modules; presentations and
generators are compared on the fixture grids.

The list-row elimination kernel of ``linalg`` (``rref``, ``null_space``,
``solve``, ``reduce_mod`` and the subspace operations) is compared byte
for byte with the numpy table-broadcast kernel it replaced, and the
one-``matvec`` random hom of the acceptance battery with its
per-element loop.  Every elimination inserts rows into one reduced
echelon list; the column sweep it replaced is kept as
``oracle_eliminate`` and compared with ``rref``, ``row_space``,
``null_space`` and ``solve`` on zero, sparse, tall and wide matrices.
A sum of subspaces is the row space of the concatenation
(``array_sum``).  ``null_space`` eliminates once, on the reversed columns; the two eliminations it
replaced are kept as ``two_pass_null_space``, compared on every shape
including 0 rows and 0 columns.  The Zassenhaus
intersection the library no longer needs is kept here as
``zassenhaus_intersect`` (one ``rref``) for the lattice oracles.
``extend_to_generators`` and the greedy pass of ``presentation`` grow
one reduced echelon span; the loops that re-eliminated the span per kept
vector are ``oracle_extend_to_generators`` and ``oracle_presentation``,
compared on the grids, on modules over F5, F4 and F9[t]/(t^2), and on
the pointed powers with the diagonal tuples ``is_pp_definable`` builds
for the lattices of the lattice benchmark workload.  Each keeps its
echelon list of Python rows across its loop, with one ``tolist`` of a
whole product; the versions that crossed to numpy once per tested row
and per orbit are ``per_row_extend_to_generators`` and
``per_row_presentation``, and ``pp_type_generator`` on them is compared
byte for byte on the r2, tri2 and f3 grids, their duals and the powers
M^2 and M^3.  The join-closure of ``pp_lattice`` keeps its elements as
echelon lists keyed by their rows; the closure over RREF arrays, one
``row_space`` per orbit and per sum, is ``array_join_closure_lattice``,
compared at arity 1 and 2 on the same modules.  A spy checks that no
array reaches ``linalg.grow_basis`` from ``pp_lattice``,
``pp_type_generator`` or ``scalar_ring``.

``pp_lattice`` builds the lattice as the join-closure of principal pp
closures.  The routine it replaced (every subspace of F_q^(dim*arity),
filtered by closure under the diagonal End action, then the
pointed-power test on each survivor) is kept as ``oracle_pp_lattice``;
elements and the leq/meet/join tables must agree byte for byte, every
element must pass ``is_pp_definable`` and have its witness, and where
the pointed-power cap refuses an input the oracle refuses it too.
``pp_lattice`` itself proves no element definable and checks no meet:
the pp-definable subgroups are the End(M)-submodules, and the
intersection of two of them is one.  The pointed-power closure of every such subspace must pass the
old End-closure pair loop and be an element of the lattice.  Each
principal closure is the End(M)-orbit of its point; the pointed-power
closure of each projective point is kept as
``oracle_principal_closures``, and the join-closure over those with
leq, meet and join from three eliminations per pair as
``oracle_join_closure_lattice``, compared on the cases of the lattice
benchmark workload and against their stored element digests.

The linear systems are built from whole coefficient blocks: formula
normalisation, the ``evaluate`` system, ``free_realisation``, the
formula constructors, the pointed tuple of ``is_pp_definable``, and the
one Sylvester builder behind the tensor relations and
``linalg.intertwiners`` (every Hom basis and the commutant).  The
(variable, equation) slot loops they replaced are kept as oracles and
compared byte for byte (shape, dtype, bytes, ``nbound`` and ``neq``)
over F2, F3, F5, F4 and F9, with no free or bound variables, no
equations, and dim-0 modules among the inputs.  ``constrained_hom``
solves for coefficients on that Hom basis; the old solve of the
Sylvester rows with the tuple constraints appended is its byte-for-byte
oracle, dim-0 modules included.

The module layer asks each question with one product over whole stacks
(``linalg.images``, ``pair_products``, ``quotient_map`` and the batched
``coords_in_rref``).  The per-vector, per-pair and per-triple loops
they replaced are kept as oracles: ``module_span``, ``submodule`` and
``quotient`` (with their closure failures), ``TensorResult.tuple_class``,
the ``relative_ml_check`` matrix, the End/Biend structure tables, unit
and ``from_r`` (read at the pivots of the canonical basis, with no
closure check), the matrices the ``scalar_ring`` formulas induce (the Biend
basis) and their solution sets, each [I | g] byte for byte (the check
``synthesize_scalar`` made before it built the formula by construction),
the error type and message of ``make_algebra``, ``make_module`` and
``make_map``, and ``hasse_edges`` on any boolean relation.

``consequence_enum`` decides a chunk of a-codes against every b-block
at once: membership in chi(X) is L_a(x) in W_b(X), with L_a bilinear
in (a, x) and W_b(X) independent of a, so closure and signature are
read off two products per chunk, one with every generator's residue
tables and one with C_theta's.  The two loops it replaced are kept as
oracles: the formula loop (two normalised formulas per candidate,
``pair_closed`` and ``evaluate`` signatures) as
``oracle_consequence_enum``, and the per-candidate solve of the raw
blocks on solution sets as ``oracle_consequence_enum_on_solution_sets``;
the formula fingerprints, their order and ``truncated`` must agree with
both.  The per-b-code walk (one product per b-code and generator on the
a still closing, M_a packed into int64 keys and grouped at their least
code by a lexsort) is kept as ``per_b_consequence_enum`` and compared on
inputs past the formula loops, the S+S construction in Def(R_R) among
them, together with the M_a each solves and their order.  A spy on the
walk checks that each chunk makes two ``images`` products within the
cell budget and one ``matmul`` per solve besides, and the zero-width
cases (theta(C) = 0, C_theta = 0, theta(G) = 0) are covered on purpose.

A filter of a finite lattice is its generator, and ``filter_analysis``
reads the maximal avoiding filters and their Ziegler flags off ``leq``
and its covers.  The loops it replaced (every principal up-set checked
for upward and meet closure, pairwise maximality, the least-member
generator search and the literal irreducibility test) are kept as
``oracle_filter_analysis``; generators, members, flags and their order
must agree on random closure systems, which need not be modular, and on
the lattices of the lattice benchmark workload.  ``verify_factorisation``
spans the maps that factor with one ``linalg.images`` and one
``row_space`` per stage and target, and tests each basis map with one
``in_span``; the per-map loop is ``oracle_verify_factorisation``,
compared on ``ok``, ``checked`` and the failure-map bytes.

``purity_check`` decides each side by one solve for a retraction or a
section over a basis of Hom(target, source), and lists elements only
when a side does not split.  The element loops it ran on every map are
kept as ``oracle_purity_check``; both answers, the witness element bytes
and the witness formula fingerprints must agree on hom combinations
over F2, F3, F5, F4 and F9 (dim-0 modules included), on the k2, r2, f3
and tri2 grids and on the pullbacks and pushouts of criterion 4.

A finite module freely realises its tuples: phi_b(M) = Hom(N, M)·b for
a tuple b of N and the generator phi_b of its pp-type.  ``hom_orbits``
is compared with ``evaluate(pp_type_generator(N, b), M)`` on the grids
and on hypothesis draws (both sides, tuples of length 0 to 2, dim-0
modules), and ``hom_basis`` with the list-building hom basis.  The paths
this replaced are kept as oracles: the per-map list of criterion 3,
``oracle_verify_generator`` (builds each stage's psi_m and orders it
both ways) and ``oracle_strict_atomic_witness`` (generator, evaluation,
then the constrained solve), which must give the same answers and raise
the same exception class and message.

A field element is its base-p digits: ``Field`` builds its tables with
``fields.digits`` and whole-array operations, and finds its modulus as
the first monic no product of lower-degree monics hits.  The builder it
replaced (polynomial multiply and remainder on lists, the modulus by
trial division of each candidate, the loop over element pairs and the
per-element inverse search) is kept as ``oracle_field_tables``; the
tables, their list copies and the modulus must agree for all 70 prime
powers q <= 256.  ``digits`` must give ``linalg.all_vectors`` on
``arange(q**n)``.  The greedy End generators take their orbits a chunk
at a time and end a round at the first orbit that adds
min(d - len(span), h) rows, h the End dimension, the most any orbit
adds; the loop that took every orbit at once and scanned every element
in every round is kept as ``all_at_once_greedy_generators``.

F_p[X]/(f) is a commutative ring for every monic f, so ``Field`` builds
its tables without re-proving the ring axioms.  That re-proof, once
``Field._check_axioms``, is kept as ``check_ring_axioms``: commutativity,
and associativity and distributivity on all q^3 triples, for each of the
16 extension orders q <= 256.

M^k is ``modules.power``, built block-diagonal without the injections
and projections of ``direct_sum``; on the r2, tri2 and f3 grids its
fingerprint must be that of ``direct_sum([m] * k).module`` for k = 1..3,
and a second call returns the cached object.  ``subspace_eq`` compares
canonical bases by their bytes and must agree with ``np.array_equal``
on random RREF bases, empty bases of different widths and int64 copies.
``null_space`` cut to its first c columns builds only the kernel rows
that lead there; the row space of the cut full kernel (what the deleted
``prefix_basis`` computed) is its oracle.  The regular actions are the
structure constants, transposed for the right side, cast once; the
per-basis-element stack is ``oracle_regular_actions``.  The formula
constructors normalise their blocks without ``pp_formula``'s checks;
over F2, F3 and F4 each constructor's formula must have the fingerprint
that ``pp_formula`` gives on the blocks it normalised.

In characteristic 2 ``Field.add``, ``sub`` and ``sum`` XOR the codes,
``Field.mul`` over F2 is AND, and ``linalg.matmul`` over F2 is the
parity of the int16 product.  The table path is kept as ``oracle_add``, ``oracle_sub``, ``oracle_mul``, the term
loop ``oracle_sum``, ``oracle_dot`` and the int64 ``oracle_matmul``,
compared with ``Field.add/sub/mul/sum/dot`` and ``linalg.matmul`` over
the eight orders 2..256 and over F3 and F9: on 0-d operands, broadcast
shapes, empty summed axes and an F2 product whose inner dimension of
40,000 wraps the int16 sum.  The table identities themselves
(``add_table[a, b] == a ^ b``, ``neg_table[a] == a``, and
``mul_table[a, b] == a & b`` over F2 alone) are asserted, and a sum never
shares memory with its input.  ``FIELDS`` holds F2, F4 and F8, so the
column-sweep oracles cover three fields of characteristic 2.
"""

import functools
import hashlib
import json
import random
import sys
from itertools import combinations, product
from operator import and_
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ppmod import Field, construct, fixtures, formulas, linalg, scalars
from ppmod.acceptance import _random_automorphism, _random_hom
from ppmod.algebras import Algebra, make_algebra
from ppmod.construct import (
    Budget,
    ConsequenceList,
    FactorisationReport,
    consequence_enum,
    run_construction,
    verify_factorisation,
    verify_generator,
)
from ppmod.defcat import (
    PurityReport,
    _first_outside,
    make_context,
    pair_closed,
    pullback_pure,
    purity_check,
    pushout_pure,
    strict_atomic_witness,
)
from ppmod.errors import (
    CapExceeded,
    EmptyContext,
    LengthMismatch,
    NonAssociative,
    NotASubmodule,
    NotInSolutionSet,
    PpmodError,
    ValidationFailure,
)
from ppmod.fields import ELEM, _is_prime, digits
from ppmod.formulas import (
    PpFormula,
    SubgroupRep,
    bot,
    conj,
    dual,
    equivalent,
    evaluate,
    formula_sum,
    free_realisation,
    leq_absolute,
    leq_relative,
    normalised,
    pp_formula,
    pp_type_generator,
    prefix_restriction,
    solution_basis,
    substitute,
    system_rows,
    top,
)
from ppmod.lattice import (
    DEFAULT_CAP,
    PpFilter,
    PpLattice,
    _covers,
    filter_analysis,
    hasse_edges,
    is_pp_definable,
    pp_lattice,
    principal_closures,
)
from ppmod.modules import (
    ModuleRep,
    are_isomorphic,
    constrained_hom,
    direct_sum,
    dual_module,
    extend_to_generators,
    free_module,
    hom_basis,
    hom_orbits,
    hom_space,
    make_map,
    make_module,
    module_span,
    power,
    presentation,
    quotient,
    regular_module,
    submodule,
    tuple_rows,
    zero_module,
)
from ppmod.records import replace
from ppmod.scalars import (
    RingTable,
    _greedy_generators,
    _make_ring_table,
    end_and_biend,
    scalar_ring,
    synthesize_scalar,
)
from ppmod.tensor import relative_ml_check, tensor_product
from ppmod.workspace import load_workspace

FIELDS = [Field(2), Field(3), Field(5), Field(2, 2), Field(3, 2), Field(2, 3)]


# -- the replaced loops ------------------------------------------------------


def kron(field, a, b):
    """Kronecker product over the field: block (i, j) is a[i, j] * b."""
    (ma, na), (mb, nb) = a.shape, b.shape
    return field.mul(a[:, None, :, None], b[None, :, None, :]).reshape(ma * mb, na * nb)


def oracle_rho(m, r):
    f = m.algebra.field
    out = np.zeros((m.dim, m.dim), dtype=ELEM)
    for i in np.nonzero(np.asarray(r, ELEM))[0]:
        out = f.add(out, f.mul(r[i], m.actions[i]))
    return out


def oracle_mul_elems(alg, u, v):
    f = alg.field
    out = np.zeros(alg.dim, dtype=ELEM)
    for i in np.nonzero(u)[0]:
        for j in np.nonzero(v)[0]:
            coef = f.mul(f.mul(u[i], v[j]), alg.constants[i, j])
            out = f.add(out, coef)
    return out


def oracle_multiply(rt, x, y):
    field = rt.field
    acc = np.zeros(rt.dim, dtype=ELEM)
    for i in range(rt.dim):
        if not x[i]:
            continue
        for j in range(rt.dim):
            if not y[j]:
                continue
            coeff = field.mul(int(x[i]), int(y[j]))
            acc = field.add(
                acc, field.mul(np.full(rt.dim, coeff, ELEM), rt.constants[i, j])
            )
    return acc


def oracle_enumerate_elements(m):
    q = m.algebra.field.q
    out = np.zeros((q**m.dim, m.dim), dtype=ELEM)
    for code in range(q**m.dim):
        out[code] = [(code // q**i) % q for i in range(m.dim)]
    return out


def oracle_elem_from_code(alg, code):
    q = alg.field.q
    return np.array([(code // q**i) % q for i in range(alg.dim)], dtype=ELEM)


def oracle_subgroup_elements(s):
    f = s.module.algebra.field
    k = s.dim
    width = s.arity * s.module.dim
    out = np.zeros((f.q**k, width), dtype=ELEM)
    for code in range(f.q**k):
        coeffs = [(code // f.q**i) % f.q for i in range(k)]
        v = np.zeros(width, dtype=ELEM)
        for c, row in zip(coeffs, s.basis):
            if c:
                v = f.add(v, f.mul(c, row))
        out[code] = v
    return out


def oracle_are_isomorphic(m, n):
    if m.dim != n.dim:
        return False
    if m.dim == 0:
        return True
    basis = hom_space(m, n)
    if not basis:
        return False
    f = m.algebra.field
    k = len(basis)
    for code in range(1, f.q**k):
        coeffs = [(code // f.q**i) % f.q for i in range(k)]
        mat = np.zeros((m.dim, n.dim), dtype=ELEM)
        for c, h in zip(coeffs, basis):
            if c:
                mat = f.add(mat, f.mul(c, h.matrix))
        if linalg.rank(f, mat) == m.dim:
            return True
    return False


def oracle_presentation(m, generators):
    f = m.algebra.field
    alg = m.algebra
    gens = tuple_rows(generators, m.dim)
    s = gens.shape[0]
    cover = np.zeros((s * alg.dim, m.dim), dtype=ELEM)
    for i in range(s):
        for l in range(alg.dim):
            cover[i * alg.dim + l] = linalg.matvec(f, gens[i], m.actions[l])
    kernel = linalg.null_space(f, cover.T)
    free = free_module(alg, m.side, s) if s else zero_module(alg, m.side)
    chosen = []
    closure = linalg.zeros(0, s * alg.dim)
    for row in kernel:
        if not linalg.in_span(f, closure, row):
            chosen.append(row)
            closure = module_span(free, np.stack(chosen)) if s else closure
    if not chosen:
        return np.zeros((0, s, alg.dim), dtype=ELEM)
    return np.stack(chosen).reshape(-1, s, alg.dim)


def oracle_extend_to_generators(m, vectors):
    f = m.algebra.field
    vectors = tuple_rows(vectors, m.dim)
    out = [v for v in vectors]
    span = module_span(m, vectors)
    for j in range(m.dim):
        if span.shape[0] == m.dim:
            break
        ej = m.basis_vector(j)
        if not linalg.in_span(f, span, ej):
            out.append(ej)
            span = module_span(m, np.stack(out))
    return np.stack(out) if out else np.zeros((0, m.dim), dtype=ELEM)


def array_sum(field, b1, b2):
    """RREF basis of the sum of two subspaces: the row space of the concatenation."""
    return linalg.row_space(field, np.concatenate([b1, b2], axis=0))


def echelon_array(leads, n):
    """The (lead, row) list of an RREF basis as its (len, n) ``ELEM`` array."""
    return np.array([row for _, row in leads], dtype=ELEM).reshape(len(leads), n)


def per_row_extend_to_generators(m, vectors):
    """``extend_to_generators`` with one array crossing per tested e_j and per orbit."""
    f = m.algebra.field
    vectors = tuple_rows(vectors, m.dim)
    out = [v for v in vectors]
    span: list = []
    orbit = linalg.images(f, vectors, m.actions).reshape(len(vectors) * m.algebra.dim, m.dim)
    linalg.grow_basis(f, span, np.concatenate([vectors, orbit], axis=0).tolist())
    for j in range(m.dim):
        if len(span) == m.dim:
            break
        ej = m.basis_vector(j)[None]
        if linalg.grow_basis(f, span, ej.tolist()):
            out.append(ej[0])
            orbit = linalg.images(f, ej, m.actions).reshape(m.algebra.dim, m.dim)
            linalg.grow_basis(f, span, orbit.tolist())
    return np.stack(out) if out else np.zeros((0, m.dim), dtype=ELEM)


def per_row_presentation(m, generators):
    """The greedy pass of ``presentation`` with one ``images`` product per kept kernel row."""
    f = m.algebra.field
    alg = m.algebra
    gens = tuple_rows(generators, m.dim)
    s = gens.shape[0]
    cover = linalg.images(f, gens, m.actions).reshape(s * alg.dim, m.dim)
    kernel = linalg.null_space(f, cover.T)
    regular = alg.right_regular_actions() if m.side == "right" else alg.left_regular_actions()
    chosen: list[np.ndarray] = []
    closure: list = []
    for row in kernel:
        if linalg.grow_basis(f, closure, row[None].tolist()):
            chosen.append(row)
            orbit = linalg.images(f, row.reshape(s, alg.dim), regular)
            orbit = orbit.transpose(1, 0, 2).reshape(alg.dim, s * alg.dim)
            linalg.grow_basis(f, closure, orbit.tolist())
    if not chosen:
        return np.zeros((0, s, alg.dim), dtype=ELEM)
    return np.stack(chosen).reshape(-1, s, alg.dim)


def per_row_pp_type_generator(m, vectors):
    """``pp_type_generator`` on the per-row generators and presentation."""
    vecs = tuple_rows(vectors, m.dim)
    n = vecs.shape[0]
    rels = per_row_presentation(m, per_row_extend_to_generators(m, vecs))
    a = np.transpose(rels[:, :n, :], (1, 0, 2))
    b = np.transpose(rels[:, n:, :], (1, 0, 2))
    return normalised(m.algebra, m.side, n, a, b)


def array_join_closure_lattice(m, arity):
    """``pp_lattice`` with every element an RREF array: each orbit's row space,
    and each sum the row space of a concatenation, keyed by bytes."""
    field = m.algebra.field
    n = m.dim * arity
    if n and field.q ** (m.dim * n) > DEFAULT_CAP:  # the pointed power of the top
        raise CapExceeded(f"pointed power needs |M|^{n} > cap {DEFAULT_CAP}")
    principal = {}
    if n:
        points = linalg.all_vectors(field, n)
        lead = points[np.arange(len(points)), (points != 0).argmax(axis=1)]
        points = points[lead == 1]
        for orbit in hom_orbits(m, m, points.reshape(len(points), arity, m.dim)):
            closure = linalg.row_space(field, orbit)
            principal.setdefault(closure.tobytes(), closure)
    principal = list(principal.values())
    bottom = linalg.zeros(0, n)
    found, path, plus = {bottom.tobytes(): bottom}, {bottom.tobytes(): ()}, {}
    frontier = [bottom]
    while frontier:
        grown = []
        for s in frontier:
            key = s.tobytes()
            plus[key] = []
            for j, p in enumerate(principal):
                t = array_sum(field, s, p) if len(s) else p
                plus[key].append(t.tobytes())
                if t.tobytes() not in found:
                    size = len(found) + 1
                    if size * size > linalg.ENUMERATION_CAP:
                        raise CapExceeded(f"lattice tables need at least {size}^2 entries")
                    found[t.tobytes()], path[t.tobytes()] = t, path[key] + (j,)
                    grown.append(t)
        frontier = grown
    bases = sorted(found.values(), key=lambda b: (b.shape[0], b.tobytes()))
    k = len(bases)
    index = {basis.tobytes(): i for i, basis in enumerate(bases)}
    table = np.array([[index[t] for t in plus[b.tobytes()]] for b in bases], dtype=np.int32)
    join = np.zeros((k, k), dtype=np.int32)
    for y, b in enumerate(bases):
        col = np.arange(k, dtype=np.int32)
        for j in path[b.tobytes()]:
            col = table[col, j]
        join[:, y] = col
    leq = join == np.arange(k)
    meet = np.zeros((k, k), dtype=np.int32)
    for i in range(k):
        meet[i] = k - 1 - (leq[:, i, None] & leq)[::-1].argmax(axis=0)
    elements = tuple(SubgroupRep(m, arity, basis) for basis in bases)
    return PpLattice(m, arity, elements, leq, meet, join)


def oracle_end_closed(field, end_basis, arity, basis):
    if basis.shape[0] == 0:
        return True
    for h in end_basis:
        for row in basis:
            blocks = row.reshape(arity, -1)
            image = linalg.matmul(field, blocks, h.matrix).reshape(-1)
            if not linalg.in_span(field, basis, image):
                return False
    return True


def oracle_enumerate_subspaces(field, n):
    yield np.zeros((0, n), dtype=ELEM)
    for k in range(1, n + 1):
        for pivots in combinations(range(n), k):
            free = [
                (r, c)
                for r in range(k)
                for c in range(n)
                if c > pivots[r] and c not in pivots
            ]
            for values in product(range(field.q), repeat=len(free)):
                basis = np.zeros((k, n), dtype=ELEM)
                for r, p in enumerate(pivots):
                    basis[r, p] = 1
                for (r, c), v in zip(free, values):
                    basis[r, c] = v
                yield basis


def oracle_count_subspaces(field, n):
    q = field.q
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


def oracle_pp_lattice(m, arity, cap=DEFAULT_CAP):
    """Every subspace, filtered by End-closure, then the pointed-power test."""
    field = m.algebra.field
    n_subspaces = oracle_count_subspaces(field, m.dim * arity)
    if n_subspaces > cap:
        raise CapExceeded(f"{n_subspaces} subspace candidates exceed cap {cap}")
    end_basis = hom_space(m, m)
    found = []
    for basis in oracle_enumerate_subspaces(field, m.dim * arity):
        if not oracle_end_closed(field, end_basis, arity, basis):
            continue
        if is_pp_definable(m, basis, arity, cap).definable:
            found.append(basis)
    found.sort(key=lambda b: (b.shape[0], b.tobytes()))
    elements = tuple(SubgroupRep(m, arity, basis) for basis in found)
    index = {el.basis.tobytes(): i for i, el in enumerate(elements)}
    k = len(elements)
    leq = np.zeros((k, k), dtype=bool)
    meet = np.zeros((k, k), dtype=np.int32)
    join = np.zeros((k, k), dtype=np.int32)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            leq[i, j] = linalg.subspace_le(field, a.basis, b.basis)
            meet[i, j] = index[zassenhaus_intersect(field, a.basis, b.basis).tobytes()]
            join[i, j] = index[array_sum(field, a.basis, b.basis).tobytes()]
    return PpLattice(m, arity, elements, leq, meet, join)


def oracle_random_hom_matrix(rng, source, target):
    field = source.algebra.field
    mat = np.zeros((source.dim, target.dim), dtype=ELEM)
    for h in hom_space(source, target):
        c = rng.randrange(field.q)
        if c:
            mat = field.add(mat, field.mul(np.full(mat.shape, c, ELEM), h.matrix))
    return mat


def oracle_greedy_generators(m, end_mats):
    field = m.algebra.field
    d = m.dim
    span = np.zeros((0, d), dtype=ELEM)
    chosen = []
    elements = m.enumerate_elements()
    while span.shape[0] < d:
        best = None
        best_gain = 0
        best_span = span
        for v in elements:
            rows = np.stack([
                linalg.matvec(field, v, h) for h in end_mats
            ]) if end_mats.shape[0] else np.zeros((0, d), dtype=ELEM)
            cand = linalg.row_space(field, np.concatenate([span, rows], axis=0))
            gain = cand.shape[0] - span.shape[0]
            if gain > best_gain:
                best, best_gain, best_span = v, gain, cand
        if best is None:
            raise ValidationFailure("no element extends the End-orbit span")
        chosen.append(best)
        span = best_span
    return np.stack(chosen) if chosen else np.zeros((0, d), dtype=ELEM)


def all_at_once_greedy_generators(m, end_mats):
    """The greedy pass with every End-orbit from one ``images`` call."""
    field = m.algebra.field
    d = m.dim
    span: list = []
    chosen: list[np.ndarray] = []
    elements = m.enumerate_elements()
    images = linalg.images(field, elements, end_mats)
    while len(span) < d:
        best = None
        best_gain = 0
        best_span = span
        for v, image in zip(elements, images):
            cand = list(span)
            gain = linalg.grow_basis(field, cand, image.tolist())
            if gain > best_gain:
                best, best_gain, best_span = v, gain, cand
        if best is None:
            raise ValidationFailure("no element extends the End-orbit span")
        chosen.append(best)
        span = best_span
    return np.stack(chosen) if chosen else np.zeros((0, d), dtype=ELEM)


# -- the replaced numpy elimination kernel -------------------------------------


def oracle_rref(field, a):
    m = np.array(a, dtype=ELEM, copy=True)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if len(nz) == 0:
            continue
        pivot_row = r + int(nz[0])
        if pivot_row != r:
            m[[r, pivot_row]] = m[[pivot_row, r]]
        inv = field.inv(int(m[r, c]))
        m[r] = field.mul_table[np.full(cols, inv, ELEM), m[r]]
        col = m[:, c].copy()
        col[r] = 0
        factors = field.neg_table[col]
        m = field.add_table[m, field.mul_table[factors[:, None], m[r][None, :]]]
        pivots.append(c)
        r += 1
    return m, pivots


def oracle_row_space(field, a):
    m, pivots = oracle_rref(field, a)
    return m[: len(pivots)]


def oracle_null_space(field, a):
    m, n = a.shape
    red, pivots = oracle_rref(field, a)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=ELEM)
    for idx, fc in enumerate(free):
        basis[idx, fc] = 1
        for r, pc in enumerate(pivots):
            basis[idx, pc] = field.neg_table[red[r, fc]]
    return oracle_row_space(field, basis)


def oracle_solve(field, a, b):
    aug = np.concatenate([a, b[:, None]], axis=1)
    red, pivots = oracle_rref(field, aug)
    if a.shape[1] in pivots:
        return None
    x = np.zeros(a.shape[1], dtype=ELEM)
    for r, pc in enumerate(pivots):
        x[pc] = red[r, a.shape[1]]
    return x


def oracle_reduce_mod(field, basis, v):
    v = np.array(v, dtype=ELEM, copy=True)
    for row in basis:
        nz = np.nonzero(row)[0]
        if len(nz) == 0:
            continue
        c = int(nz[0])
        if v[c]:
            factor = field.neg_table[field.mul_table[v[c], field.inv(int(row[c]))]]
            v = field.add_table[v, field.mul_table[np.full_like(row, factor), row]]
    return v


def oracle_subspace_intersect(field, b1, b2):
    if b1.shape[0] == 0 or b2.shape[0] == 0:
        return np.zeros((0, b1.shape[1]), dtype=ELEM)
    stacked = np.concatenate([b1, b2], axis=0)
    coeffs = oracle_null_space(field, stacked.T)
    part = linalg.matmul(field, coeffs[:, : b1.shape[0]], b1)
    return oracle_row_space(field, part)


def zassenhaus_intersect(field, b1, b2):
    """Canonical basis of rowspace(b1) & rowspace(b2).

    Zassenhaus: the rows of [[b1, b1], [b2, 0]] whose pivot lies in the
    right half have right halves forming the RREF basis of the meet.
    """
    n = b1.shape[1]
    stacked = np.concatenate([np.concatenate([b1, b1], axis=1), np.pad(b2, ((0, 0), (0, n)))])
    red, pivots = linalg.rref(field, stacked)
    return red[[r for r, pc in enumerate(pivots) if pc >= n], n:]


def oracle_subspace_le(field, b1, b2):
    return all(not np.any(oracle_reduce_mod(field, b2, row)) for row in b1)


def oracle_eliminate(field, rows, ncols):
    """The column sweep: Gauss-Jordan on list rows, in place; returns the pivot columns."""
    add, mul, neg, inv = field.add_list, field.mul_list, field.neg_list, field.inv_list
    pivots = []
    nrows = len(rows)
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        scale = mul[inv[rows[r][c]]]
        pivot_row = rows[r] = [scale[x] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                s = mul[neg[row[c]]]
                rows[i] = [add[x][s[y]] for x, y in zip(row, pivot_row)]
        pivots.append(c)
    return pivots


def sweep_rref(field, a):
    rows = a.tolist()
    pivots = oracle_eliminate(field, rows, a.shape[1])
    return np.array(rows, dtype=ELEM).reshape(a.shape), pivots


def sweep_null_space(field, a):
    n = a.shape[1]
    red = a.tolist()
    pivots = oracle_eliminate(field, red, n)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        row = [0] * n
        row[fc] = 1
        for r, pc in enumerate(pivots):
            row[pc] = field.neg_list[red[r][fc]]
        basis.append(row)
    dim = len(oracle_eliminate(field, basis, n))
    return np.array(basis[:dim], dtype=ELEM).reshape(dim, n)


def two_pass_null_space(field, a):
    """The two eliminations ``null_space`` made: rref of a, then of the kernel vectors."""
    n = a.shape[1]
    leads = linalg._insert(field, [], a.tolist())
    pivots = {c for c, _ in leads}
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        row = [0] * n
        row[fc] = 1
        for pc, red in leads:
            row[pc] = field.neg_list[red[fc]]
        basis.append(row)
    rows = [row for _, row in linalg._insert(field, [], basis)]
    return np.array(rows, dtype=ELEM).reshape(len(rows), n)


def sweep_solve(field, a, b):
    n = a.shape[1]
    aug = [row + [x] for row, x in zip(a.tolist(), b.tolist())]
    pivots = oracle_eliminate(field, aug, n + 1)
    if n in pivots:
        return None
    x = [0] * n
    for row, pc in zip(aug, pivots):
        x[pc] = row[n]
    return np.array(x, dtype=ELEM)


# -- random objects ------------------------------------------------------------


def elems(data, field, shape):
    return data.draw(hnp.arrays(ELEM, shape, elements=st.integers(0, field.q - 1)))


def random_algebra(data, field, k):
    constants = elems(data, field, (k, k, k))
    unit = elems(data, field, (k,))
    return Algebra(field, tuple(f"e{i}" for i in range(k)), constants, unit)


def random_module(data, alg, d):
    return ModuleRep(alg, "right", d, elems(data, alg.field, (alg.dim, d, d)))


fields = st.sampled_from(FIELDS)
alg_dims = st.integers(1, 3)
mod_dims = st.integers(0, 3)


# -- differential tests --------------------------------------------------------


@given(data=st.data(), field=fields, k=alg_dims)
def test_mul_elems_matches_the_double_loop(data, field, k):
    alg = random_algebra(data, field, k)
    u, v = elems(data, field, (k,)), elems(data, field, (k,))
    got = alg.mul_elems(u, v)
    assert got.dtype == ELEM
    assert np.array_equal(got, oracle_mul_elems(alg, u, v))


@given(data=st.data(), field=fields, k=st.integers(0, 3))
def test_ring_table_multiply_matches_the_double_loop(data, field, k):
    table = elems(data, field, (k, k, k))
    rt = RingTable(
        field, tuple(f"f{i}" for i in range(k)), table, elems(data, field, (k,)),
        np.zeros((k, 0, 0), ELEM),
    )
    x, y = elems(data, field, (k,)), elems(data, field, (k,))
    assert np.array_equal(rt.mul_elems(x, y), oracle_multiply(rt, x, y))


@given(data=st.data(), field=fields, k=alg_dims, d=mod_dims)
def test_rho_matches_the_combination_loop(data, field, k, d):
    m = random_module(data, random_algebra(data, field, k), d)
    r = elems(data, field, (k,))
    got = m.rho(r)
    assert got.shape == (d, d) and got.dtype == ELEM
    assert np.array_equal(got, oracle_rho(m, r))


@given(field=fields, k=alg_dims, d=mod_dims, data=st.data())
def test_element_tables_are_in_code_order(field, k, d, data):
    alg = random_algebra(data, field, k)
    m = random_module(data, alg, d)
    assert np.array_equal(m.enumerate_elements(), oracle_enumerate_elements(m))
    listed = alg.enumerate_elements()
    assert listed.shape == (field.q**k, k)
    for code in range(0, field.q**k, max(1, field.q**k // 7)):
        assert np.array_equal(listed[code], oracle_elem_from_code(alg, code))
        assert np.array_equal(alg.elem_from_code(code), listed[code])
        assert alg.elem_code(listed[code]) == code


@given(data=st.data(), field=fields, d=mod_dims, arity=st.integers(1, 2), s=st.integers(0, 3))
def test_subgroup_elements_match_the_combination_loop(data, field, d, arity, s):
    m = random_module(data, random_algebra(data, field, 1), d)
    basis = elems(data, field, (s, arity * d))
    sub = SubgroupRep(m, arity, basis)
    got = sub.elements()
    assert got.shape == (field.q**s, arity * d)
    assert np.array_equal(got, oracle_subgroup_elements(sub))


@pytest.mark.parametrize("cells", [1, 40, linalg.WALK_CELLS])
@given(data=st.data(), field=st.sampled_from(FIELDS[:4]), k=st.integers(1, 2), d=st.integers(0, 2))
def test_are_isomorphic_matches_the_combination_loop(cells, data, field, k, d):
    # tiny chunks put the first invertible combination past a chunk boundary
    alg = random_algebra(data, field, k)
    m, n = random_module(data, alg, d), random_module(data, alg, d)
    with mock.patch.object(linalg, "WALK_CELLS", cells):
        assert are_isomorphic(m, n) == oracle_are_isomorphic(m, n)
        assert are_isomorphic(m, m)


def same_array(got, want):
    return (
        got.dtype == want.dtype == ELEM
        and got.shape == want.shape
        and got.tobytes() == want.tobytes()
    )


def matrices(data, field, rows=st.integers(0, 10), cols=st.integers(0, 12), tops=None):
    """Random, sparse or all-zero matrices, so pivots are often missing."""
    shape = (data.draw(rows), data.draw(cols))
    top = data.draw(st.sampled_from(tops or [0, 1, field.q - 1]))
    entries = st.integers(0, top)
    return data.draw(hnp.arrays(ELEM, shape, elements=entries, fill=st.nothing()))


@given(data=st.data(), field=fields)
def test_rref_matches_the_numpy_kernel(data, field):
    a = matrices(data, field)
    got, pivots = linalg.rref(field, a)
    want, want_pivots = oracle_rref(field, a)
    assert pivots == want_pivots
    assert same_array(got, want)
    assert same_array(linalg.row_space(field, a), oracle_row_space(field, a))


@given(data=st.data(), field=fields)
def test_null_space_matches_the_numpy_kernel(data, field):
    a = matrices(data, field)
    assert same_array(linalg.null_space(field, a), oracle_null_space(field, a))


@given(data=st.data(), field=fields)
def test_solve_matches_the_numpy_kernel(data, field):
    a = matrices(data, field)
    b = elems(data, field, (a.shape[0],))
    if data.draw(st.booleans()):  # a consistent right-hand side
        b = linalg.matvec(field, elems(data, field, (a.shape[1],)), a.T)
    got, want = linalg.solve(field, a, b), oracle_solve(field, a, b)
    assert (got is None) == (want is None)
    if want is not None:
        assert same_array(got, want)


@given(data=st.data(), field=fields)
def test_reduce_mod_matches_the_numpy_kernel(data, field):
    basis = matrices(data, field)
    if data.draw(st.booleans()):
        basis = oracle_row_space(field, basis)
    v = elems(data, field, (basis.shape[1],))
    assert same_array(linalg.reduce_mod(field, basis, v), oracle_reduce_mod(field, basis, v))
    assert linalg.in_span(field, basis, v) == (not oracle_reduce_mod(field, basis, v).any())


@given(data=st.data(), field=fields)
def test_subspace_operations_match_the_numpy_kernel(data, field):
    n = data.draw(st.integers(0, 12))
    # full-range entries: all-zero inputs are covered above, and large
    # meets are what exercise the reduction above each pivot
    b1, b2 = (
        oracle_row_space(field, matrices(data, field, cols=st.just(n), tops=[field.q - 1]))
        for _ in range(2)
    )
    mode = data.draw(st.sampled_from(["random", "inside", "one more row"]))
    if mode == "inside":
        b1 = oracle_subspace_intersect(field, b1, b2)
    elif mode == "one more row":  # b2's rows, then rows that may leave it
        b1 = np.concatenate([b2, b1], axis=0)
    got = zassenhaus_intersect(field, b1, b2)
    assert same_array(got, oracle_subspace_intersect(field, b1, b2))
    assert linalg.subspace_le(field, b1, b2) == oracle_subspace_le(field, b1, b2)
    assert linalg.subspace_le(field, b2, b1) == oracle_subspace_le(field, b2, b1)


def shaped_matrices(data, field):
    """0-10 x 0-12 matrices: any shape, tall or wide; zero, sparse or dense."""
    rows, cols = data.draw(st.sampled_from([
        (st.integers(0, 10), st.integers(0, 12)),
        (st.integers(6, 10), st.integers(0, 4)),  # tall
        (st.integers(0, 4), st.integers(8, 12)),  # wide
    ]))
    shape = (data.draw(rows), data.draw(cols))
    entries = data.draw(st.sampled_from([
        st.just(0),
        st.sampled_from([0, 0, 0, 1, field.q - 1]),
        st.integers(0, field.q - 1),
    ]))
    return data.draw(hnp.arrays(ELEM, shape, elements=entries, fill=st.nothing()))


@given(data=st.data(), field=fields)
def test_row_insertion_matches_the_column_sweep(data, field):
    a = shaped_matrices(data, field)
    got, pivots = linalg.rref(field, a)
    want, want_pivots = sweep_rref(field, a)
    assert pivots == want_pivots
    assert same_array(got, want)
    assert same_array(linalg.row_space(field, a), want[: len(want_pivots)])
    assert same_array(linalg.null_space(field, a), sweep_null_space(field, a))
    b = elems(data, field, (a.shape[0],))
    if data.draw(st.booleans()):  # a consistent right-hand side
        b = linalg.matvec(field, elems(data, field, (a.shape[1],)), a.T)
    got, want = linalg.solve(field, a, b), sweep_solve(field, a, b)
    assert (got is None) == (want is None)
    if want is not None:
        assert same_array(got, want)


@given(data=st.data(), field=fields)
def test_one_elimination_null_space_matches_the_two_pass_version(data, field):
    shape = data.draw(st.sampled_from(["any", "no rows", "no columns"]))
    if shape == "no rows":
        a = np.zeros((0, data.draw(st.integers(0, 12))), dtype=ELEM)
    elif shape == "no columns":
        a = np.zeros((data.draw(st.integers(0, 10)), 0), dtype=ELEM)
    else:
        a = shaped_matrices(data, field)
    assert same_array(linalg.null_space(field, a), two_pass_null_space(field, a))


GRID_MODULES = [
    m
    for alg in (fixtures.r2(), fixtures.tri2(), fixtures.f3(), fixtures.k2())
    for m in fixtures.right_grid(alg) + fixtures.left_grid(alg)
]


@given(data=st.data(), field=fields)
def test_cut_null_space_is_the_row_space_of_the_prefix(data, field):
    a = matrices(data, field)
    kernel = linalg.null_space(field, a)
    for c in range(a.shape[1] + 1):
        got = linalg.null_space(field, a, c)
        assert same_array(got, linalg.row_space(field, kernel[:, :c]))
        # compact: no view into a wider kernel
        assert got.flags.c_contiguous and (got.base is None or got.base.nbytes == got.nbytes)


def oracle_regular_actions(alg, side):
    """The per-basis-element stack ``right_regular_actions``/``left_regular_actions`` ran."""
    if side == "right":
        return np.stack([alg.constants[:, i, :].astype(ELEM) for i in range(alg.dim)])
    return np.stack([alg.constants[i, :, :].astype(ELEM) for i in range(alg.dim)])


@given(data=st.data(), field=fields, k=alg_dims)
def test_regular_actions_match_the_stack_loop(data, field, k):
    for alg in (random_algebra(data, field, k), *GENUINE):
        assert same_array(alg.right_regular_actions(), oracle_regular_actions(alg, "right"))
        assert same_array(alg.left_regular_actions(), oracle_regular_actions(alg, "left"))


POWER_MODULES = [
    m for alg in (fixtures.r2(), fixtures.tri2(), fixtures.f3())
    for m in fixtures.right_grid(alg) + fixtures.left_grid(alg)
]


@pytest.mark.parametrize("m", POWER_MODULES, ids=repr)
def test_power_is_the_module_of_the_direct_sum(m):
    for k in (1, 2, 3):
        got = power(m, k)
        assert got.fingerprint() == direct_sum([m] * k).module.fingerprint()
        assert power(m, k) is got


@given(data=st.data(), field=fields)
def test_subspace_eq_is_equality_of_the_arrays(data, field):
    b1 = linalg.row_space(field, matrices(data, field))
    n = b1.shape[1]
    twin = linalg.row_space(field, matrices(data, field, cols=st.just(n)))
    for b2 in (b1.copy(), twin, b1[:0], b1[:, : n // 2]):
        want = b1.shape == b2.shape and np.array_equal(b1, b2)
        assert linalg.subspace_eq(b1, b2) == want == linalg.subspace_eq(b2, b1)
        # an int64 copy compares by value, not by its wider bytes
        assert linalg.subspace_eq(b1, b2.astype(np.int64)) == want
    m = data.draw(st.integers(0, 12))
    assert linalg.subspace_eq(linalg.zeros(0, n), linalg.zeros(0, m)) == (n == m)


def same_generators_and_presentation(m, vectors):
    gens = extend_to_generators(m, vectors)
    assert same_array(gens, oracle_extend_to_generators(m, vectors))
    assert same_array(presentation(m, gens), oracle_presentation(m, gens))


@pytest.mark.parametrize("m", GRID_MODULES, ids=repr)
def test_presentation_and_generators_match_the_loops(m):
    for start in m.enumerate_elements()[:3]:
        same_generators_and_presentation(m, start.reshape(1, -1))
    eb = end_and_biend(m)
    assert np.array_equal(eb.generators, oracle_greedy_generators(m, eb.end.basis))


@pytest.mark.parametrize("cells", [1, 40, linalg.WALK_CELLS])
def test_greedy_generators_match_the_all_at_once_orbits(cells, monkeypatch):
    # tiny chunks put most elements past a chunk boundary
    monkeypatch.setattr(linalg, "WALK_CELLS", cells)
    for m in GRID_MODULES:
        end_mats = hom_basis(m, m)
        want = all_at_once_greedy_generators(m, end_mats)
        assert same_array(_greedy_generators(m, end_mats), want)


def upper_triangular_rows(field, n):
    """F^n as a right module over the upper triangular n x n matrices, the
    projective e_11 A: a brick, End = F."""
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    index = {c: x for x, c in enumerate(cells)}
    constants = np.zeros((len(cells),) * 3, dtype=ELEM)
    for (i, j), (k, l) in product(cells, cells):
        if j == k:  # E_ij E_kl = E_il
            constants[index[i, j], index[k, l], index[i, l]] = 1
    unit = np.array([int(i == j) for i, j in cells], dtype=ELEM)
    alg = make_algebra(field, [f"e{i}{j}" for i, j in cells], constants, unit)
    actions = np.zeros((len(cells), n, n), dtype=ELEM)
    for x, (i, j) in enumerate(cells):
        actions[x, i, j] = 1
    return make_module(alg, "right", n, actions)


@pytest.mark.parametrize("field, n", [(Field(2), 4), (Field(3), 3)], ids=["F2^4", "F3^3"])
def test_a_greedy_round_ends_at_the_largest_gain_an_orbit_can_have(field, n, monkeypatch):
    # End = F: each orbit adds at most one row, so a round ends at the first
    # element outside the span, where stopping at d - len(span) scanned all q^n
    m = upper_triangular_rows(field, n)
    end_mats = hom_basis(m, m)
    assert end_mats.shape[0] == 1
    calls = []
    grow_basis = linalg.grow_basis

    def spy(field, basis, rows):
        calls.append(len(rows))
        return grow_basis(field, basis, rows)

    monkeypatch.setattr(linalg, "grow_basis", spy)
    got = _greedy_generators(m, end_mats)
    monkeypatch.setattr(linalg, "grow_basis", grow_basis)
    assert same_array(got, oracle_greedy_generators(m, end_mats))
    # round r reads the zero vector, then e_1 .. e_r in code order up to the
    # first element outside the span, e_r at code q^(r-1)
    assert len(calls) == sum(field.q ** r + 1 for r in range(n))


def same_lattice(got, want):
    """Same elements and tables, and each witness is the one ``is_pp_definable``
    gives the element."""
    definability = [is_pp_definable(want.module, el.basis, want.arity) for el in want.elements]
    return (
        len(got.elements) == len(want.elements)
        and all(same_array(a.basis, b.basis) for a, b in zip(got.elements, want.elements))
        and all(res.definable for res in definability)
        and [w.render() for w in got.witnesses] == [res.witness.render() for res in definability]
        and all(
            getattr(got, t).dtype == getattr(want, t).dtype
            and np.array_equal(getattr(got, t), getattr(want, t))
            for t in ("leq", "meet", "join")
        )
    )


@pytest.mark.parametrize("m", [m for m in GRID_MODULES if m.dim <= 4], ids=repr)
def test_batched_end_closure_matches_the_pair_loop(m):
    """The closure of a whole subspace at once is End-closed and in the lattice.

    ``is_pp_definable`` closes a spanning set in one pointed power; the
    result must pass the per-(endomorphism, row) pair loop that the old
    subspace filter ran, contain the subspace, and be an element of
    ``pp_lattice``, and the subspace is an element iff it is its own
    closure.
    """
    field = m.algebra.field
    end_basis = hom_space(m, m)
    for arity in (1, 2):
        if m.dim * arity > 4:
            continue
        lat = pp_lattice(m, arity)
        index = {el.basis.tobytes(): i for i, el in enumerate(lat.elements)}
        for el in lat.elements:
            assert oracle_end_closed(field, end_basis, arity, el.basis)
        for basis in oracle_enumerate_subspaces(field, m.dim * arity):
            closure = is_pp_definable(m, basis, arity).closure
            assert closure.tobytes() in index
            assert oracle_end_closed(field, end_basis, arity, closure)
            assert linalg.subspace_le(field, basis, closure)
            assert (basis.tobytes() in index) == same_array(basis, closure)


@pytest.mark.parametrize("m", [m for m in GRID_MODULES if m.dim <= 4], ids=repr)
def test_pp_lattice_matches_the_subspace_enumeration(m):
    for arity in (0, 1, 2):
        if m.dim * arity > 4:
            continue
        want = oracle_pp_lattice(m, arity)
        assert same_lattice(pp_lattice(m, arity), want)
        for cap in (1, 4, 16, 50, 300):
            try:
                got = pp_lattice(m, arity, cap)
            except CapExceeded:
                with pytest.raises(CapExceeded):
                    oracle_pp_lattice(m, arity, cap)
            else:
                assert same_lattice(got, want)


def oracle_principal_closures(m, arity):
    """The pointed-power closure of each projective point, one call per point."""
    out = []
    for a in linalg.all_vectors(m.algebra.field, m.dim * arity):
        nonzero = a[a != 0]
        if nonzero.size and nonzero[0] == 1:  # one a per projective point
            out.append(is_pp_definable(m, a[None, :], arity).closure)
    return out


def oracle_join_closure_lattice(m, arity):
    """Join-closure of the per-point closures; leq, meet, join by eliminations per pair."""
    field = m.algebra.field
    principal = {}
    for closure in oracle_principal_closures(m, arity):
        principal.setdefault(closure.tobytes(), closure)
    bottom = linalg.zeros(0, m.dim * arity)
    found = {bottom.tobytes(): bottom, **principal}
    frontier = list(principal.values())
    while frontier:
        grown = []
        for s in frontier:
            for p in principal.values():
                t = array_sum(field, s, p)
                if t.tobytes() not in found:
                    found[t.tobytes()] = t
                    grown.append(t)
        frontier = grown
    bases = sorted(found.values(), key=lambda b: (b.shape[0], b.tobytes()))
    elements = tuple(SubgroupRep(m, arity, basis) for basis in bases)
    index = {el.basis.tobytes(): i for i, el in enumerate(elements)}
    k = len(elements)
    leq = np.zeros((k, k), dtype=bool)
    meet = np.zeros((k, k), dtype=np.int32)
    join = np.zeros((k, k), dtype=np.int32)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            leq[i, j] = linalg.subspace_le(field, a.basis, b.basis)
            meet[i, j] = index[zassenhaus_intersect(field, a.basis, b.basis).tobytes()]
            join[i, j] = index[array_sum(field, a.basis, b.basis).tobytes()]
    return PpLattice(m, arity, elements, leq, meet, join)


ORBIT_MODULES = GRID_MODULES + [fixtures.mod_s(), fixtures.mod_rr(), fixtures.tri2_p1()]


@pytest.mark.parametrize("m", ORBIT_MODULES, ids=repr)
def test_principal_closures_match_the_pointed_power_per_point(m):
    for arity in (0, 1, 2):
        got, want = principal_closures(m, arity), oracle_principal_closures(m, arity)
        assert len(got) == len(want)
        assert all(same_array(echelon_array(g, m.dim * arity), w) for g, w in zip(got, want))


LATTICE_DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected" / "lattices.json").read_text()
)


def lattice_workload_cases():
    """(key, module, arity) of every pp_lattice call of the lattice benchmark."""
    for alg in (fixtures.r2(), fixtures.f3(), fixtures.tri2()):
        for side, grid in (("right", fixtures.right_grid(alg)), ("left", fixtures.left_grid(alg))):
            for i, m in enumerate(grid):
                for arity in (1, 2):
                    yield f"{'/'.join(alg.labels)}:{side}:{i}:{arity}", m, arity


def element_digest(lat):
    h = hashlib.sha256()
    for el in lat.elements:
        h.update(repr(el.basis.shape).encode())
        h.update(el.basis.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "key, m, arity", [pytest.param(*case, id=case[0]) for case in lattice_workload_cases()]
)
def test_pp_lattice_matches_the_per_point_join_closure(key, m, arity):
    # the cases without a stored digest are the ones refused by the cap
    if key not in LATTICE_DIGESTS:
        with pytest.raises(CapExceeded):
            pp_lattice(m, arity)
        return
    got = pp_lattice(m, arity)
    assert element_digest(got) == LATTICE_DIGESTS[key]
    assert same_lattice(got, oracle_join_closure_lattice(m, arity))


@pytest.mark.parametrize(
    "key, m, arity",
    [pytest.param(*case, id=case[0]) for case in lattice_workload_cases() if case[0] in LATTICE_DIGESTS],
)
def test_pointed_power_generators_match_the_span_loops(key, m, arity):
    """The pointed power of each element with the diagonal tuple ``is_pp_definable`` builds."""
    for el in pp_lattice(m, arity).elements[1:]:
        k = el.dim
        power = direct_sum([m] * k).module
        diag = el.basis.reshape(k, arity, m.dim).transpose(1, 0, 2).reshape(arity, power.dim)
        same_generators_and_presentation(power, diag)


PER_ROW_MODULES = [m for base in POWER_MODULES for m in (base, dual_module(base))]


def sample_tuples(m, rng):
    """The empty tuple, one tuple of each length 1 to 3 drawn from ``rng``, and
    the first basis vector with the zero vector."""
    yield np.zeros((0, m.dim), dtype=ELEM)
    for length in (1, 2, 3):
        yield rng.integers(0, m.algebra.field.q, (length, m.dim)).astype(ELEM)
    if m.dim:
        yield np.stack([m.basis_vector(0), m.zero()])


@pytest.mark.parametrize("m", PER_ROW_MODULES, ids=repr)
def test_pp_type_generators_match_the_per_row_loops(m):
    """The echelon lists kept across each loop give the bytes of the per-row
    crossings, on M, M^2 and M^3."""
    rng = np.random.default_rng(27)
    for k in (1, 2, 3):
        mk = power(m, k)
        for vecs in sample_tuples(mk, rng):
            gens = extend_to_generators(mk, vecs)
            assert same_array(gens, per_row_extend_to_generators(mk, vecs))
            assert same_array(presentation(mk, gens), per_row_presentation(mk, gens))
            got, want = pp_type_generator(mk, vecs), per_row_pp_type_generator(mk, vecs)
            assert got.a.dtype == want.a.dtype and got.b.dtype == want.b.dtype
            assert got.fingerprint() == want.fingerprint()


@pytest.mark.parametrize("m", PER_ROW_MODULES, ids=repr)
def test_pp_lattice_matches_the_array_join_closure(m):
    for arity in (1, 2):
        try:
            want = array_join_closure_lattice(m, arity)
        except CapExceeded:
            with pytest.raises(CapExceeded):
                pp_lattice(m, arity)
            continue
        assert same_lattice(pp_lattice(m, arity), want)


def test_grow_basis_receives_only_lists(monkeypatch, cold_caches):
    """Every basis a loop grows stays a list of list rows: no array reaches
    ``grow_basis`` from the lattice, the pp-type generators or the scalar ring."""
    callers = []
    grow_basis = linalg.grow_basis

    def spy(field, basis, rows):
        assert type(basis) is list and type(rows) is list
        assert all(type(row) is list for row in rows)
        callers.append(caller)
        return grow_basis(field, basis, rows)

    monkeypatch.setattr(linalg, "grow_basis", spy)
    for m in POWER_MODULES:
        caller = "pp_lattice"
        if m.dim <= 4:
            pp_lattice(m, 1)
        caller = "pp_type_generator"
        pp_type_generator(m, m.enumerate_elements()[1:3])
        caller = "scalar_ring"
        scalar_ring(m)
    assert set(callers) == {"pp_lattice", "pp_type_generator", "scalar_ring"}


@pytest.mark.parametrize(
    "m, arity, cap",
    [
        (fixtures.mod_s(), 4, 50),  # F2^4 has 67 subspaces, but |M|^4 is 16
        (zero_module(fixtures.r2(), "right"), 2, 1),
        (fixtures.mod_rr(), 0, 1),
    ],
    ids=["S^4", "dim 0", "arity 0"],
)
def test_pp_lattice_cap_bounds_the_top_not_the_subspace_count(m, arity, cap):
    got = pp_lattice(m, arity, cap)
    assert same_lattice(got, oracle_pp_lattice(m, arity))
    if m.dim * arity == 0:
        assert got.size == 1


@pytest.mark.parametrize("m", GRID_MODULES[:12], ids=repr)
def test_random_hom_matches_the_combination_loop(m):
    for target in (m, zero_module(m.algebra, m.side)):
        for seed in range(3):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            got = _random_hom(rng, m, target)
            assert np.array_equal(got.matrix, oracle_random_hom_matrix(oracle_rng, m, target))
            assert rng.random() == oracle_rng.random()  # the same stream consumed


# -- the slot loops that assembled the linear systems --------------------------


def oracle_normalise(alg, a, b):
    neq = a.shape[1]
    used = [k for k in range(b.shape[0]) if np.any(b[k])]
    b = b[used] if used else np.zeros((0, neq, alg.dim), dtype=ELEM)
    cols = []
    for j in range(neq):
        if np.any(a[:, j]) or np.any(b[:, j]):
            cols.append(j)
    keys = sorted(cols, key=lambda j: (a[:, j].tobytes(), b[:, j].tobytes()))
    return a[:, keys], b[:, keys]


def oracle_evaluate(phi, m):
    f = m.algebra.field
    n, t, neq, d = phi.nfree, phi.nbound, phi.neq, m.dim
    if d == 0 or n == 0:
        return linalg.zeros(0, n * d)
    sys = np.zeros(((n + t) * d, neq * d), dtype=ELEM)
    coeff = np.concatenate([phi.a, phi.b], axis=0) if t else phi.a
    for v in range(n + t):
        for j in range(neq):
            if np.any(coeff[v, j]):
                sys[v * d : (v + 1) * d, j * d : (j + 1) * d] = m.rho(coeff[v, j])
    sols = linalg.null_space(f, sys.T)
    return linalg.row_space(f, sols[:, : n * d])


def oracle_free_realisation(phi):
    alg = phi.algebra
    n, t, m = phi.nfree, phi.nbound, phi.neq
    slots = n + t
    free = free_module(alg, phi.side, slots)
    coeff = np.concatenate([phi.a, phi.b], axis=0) if t else phi.a
    rel_rows = np.zeros((m, slots * alg.dim), dtype=ELEM)
    for j in range(m):
        for v in range(slots):
            rel_rows[j, v * alg.dim : (v + 1) * alg.dim] = coeff[v, j]
    rel_span = module_span(free, rel_rows) if m else linalg.zeros(0, slots * alg.dim)
    q = quotient(free, rel_span)
    tup = np.zeros((n, q.module.dim), dtype=ELEM)
    for i in range(n):
        unit_row = np.zeros(slots * alg.dim, dtype=ELEM)
        unit_row[i * alg.dim : (i + 1) * alg.dim] = alg.unit
        tup[i] = q.projection.apply(unit_row)
    return q.module, tup


def oracle_bot(alg, side, nfree):
    a = np.zeros((nfree, nfree, alg.dim), dtype=ELEM)
    for i in range(nfree):
        a[i, i] = alg.unit
    return pp_formula(alg, side, nfree, a, np.zeros((0, nfree, alg.dim), ELEM))


def oracle_formula_sum(phi, psi):
    alg = phi.algebra
    f = alg.field
    n = phi.nfree
    neq = n + phi.neq + psi.neq
    nbound = 2 * n + phi.nbound + psi.nbound
    a = np.zeros((n, neq, alg.dim), dtype=ELEM)
    b = np.zeros((nbound, neq, alg.dim), dtype=ELEM)
    neg_unit = f.neg(alg.unit)
    for i in range(n):
        a[i, i] = alg.unit
        b[i, i] = neg_unit
        b[n + i, i] = neg_unit
    for i in range(n):
        b[i, n : n + phi.neq] = phi.a[i]
    for k in range(phi.nbound):
        b[2 * n + k, n : n + phi.neq] = phi.b[k]
    for i in range(n):
        b[n + i, n + phi.neq :] = psi.a[i]
    for k in range(psi.nbound):
        b[2 * n + phi.nbound + k, n + phi.neq :] = psi.b[k]
    return pp_formula(alg, phi.side, n, a, b)


def oracle_dual(phi):
    alg = phi.algebra
    f = alg.field
    n, t, m = phi.nfree, phi.nbound, phi.neq
    other = "left" if phi.side == "right" else "right"
    neq = n + t
    a = np.zeros((n, neq, alg.dim), dtype=ELEM)
    for i in range(n):
        a[i, i] = alg.unit
    b = np.zeros((m, neq, alg.dim), dtype=ELEM)
    for j in range(m):
        for i in range(n):
            b[j, i] = f.neg(phi.a[i, j])
        for k in range(t):
            b[j, n + k] = phi.b[k, j]
    return pp_formula(alg, other, n, a, b)


def oracle_substitute(phi, t_matrix):
    alg = phi.algebra
    f = alg.field
    nnew = t_matrix.shape[0]
    n, t, m = phi.nfree, phi.nbound, phi.neq
    neq = n + m
    a = np.zeros((nnew, neq, alg.dim), dtype=ELEM)
    b = np.zeros((n + t, neq, alg.dim), dtype=ELEM)
    neg_unit = f.neg(alg.unit)
    for j in range(n):
        for i in range(nnew):
            a[i, j] = t_matrix[i, j]
        b[j, j] = neg_unit
    for j in range(m):
        for i in range(n):
            b[i, n + j] = phi.a[i, j]
        for k in range(t):
            b[n + k, n + j] = phi.b[k, j]
    return pp_formula(alg, phi.side, nnew, a, b)


def oracle_prefix_restriction(phi, new_arity):
    alg = phi.algebra
    t_mat = np.zeros((new_arity, phi.nfree, alg.dim), dtype=ELEM)
    for i in range(phi.nfree):
        t_mat[i, i] = alg.unit
    return oracle_substitute(phi, t_mat)


def oracle_pointed_tuple(rows, arity, d):
    k = rows.shape[0]
    diag = np.zeros((arity, k * d), dtype=ELEM)
    for j in range(arity):
        for s in range(k):
            diag[j, s * d : (s + 1) * d] = rows[s, j * d : (j + 1) * d]
    return diag


def oracle_hom_constraint_matrix(m, n):
    f = m.algebra.field
    blocks = []
    ident_m = np.eye(m.dim, dtype=ELEM)
    ident_n = np.eye(n.dim, dtype=ELEM)
    for i in range(m.algebra.dim):
        t1 = kron(f, m.actions[i], ident_n)
        t2 = kron(f, ident_m, n.actions[i].T)
        blocks.append(f.sub(t1, t2))
    if not blocks:
        return np.zeros((0, m.dim * n.dim), dtype=ELEM)
    return np.concatenate(blocks, axis=0)


def oracle_constrained_hom_rows(m, n, src):
    hom_rows = oracle_hom_constraint_matrix(m, n)
    ident_n = np.eye(n.dim, dtype=ELEM)
    cons = [kron(m.algebra.field, v.reshape(1, m.dim), ident_n) for v in src]
    return np.concatenate([hom_rows] + cons, axis=0)


def oracle_commutant(field, mats, d):
    if d == 0:
        return np.zeros((0, 0, 0), dtype=ELEM)
    ident = linalg.eye(field, d)
    blocks = []
    for m in mats:
        lhs = kron(field, m, ident)
        rhs = kron(field, ident, m.T)
        blocks.append(field.sub(lhs, rhs))
    if not blocks:
        blocks = [np.zeros((0, d * d), dtype=ELEM)]
    rows = linalg.null_space(field, np.concatenate(blocks, axis=0))
    return rows.reshape(-1, d, d)


def oracle_tensor(m, l_mod):
    """Relation rows, RREF basis, free columns and pair table, slot by slot."""
    alg = m.algebra
    field = alg.field
    ambient = m.dim * l_mod.dim
    rels = []
    for r in range(alg.dim):
        acted_m = m.actions[r]
        acted_l = l_mod.actions[r]
        for i in range(m.dim):
            for j in range(l_mod.dim):
                rel = np.zeros(ambient, dtype=ELEM)
                rel[np.arange(m.dim) * l_mod.dim + j] = acted_m[i]
                seg = slice(i * l_mod.dim, (i + 1) * l_mod.dim)
                rel[seg] = field.add(rel[seg], field.neg(acted_l[j]))
                rels.append(rel)
    rel_rows = np.array(rels, dtype=ELEM) if rels else np.zeros((0, ambient), dtype=ELEM)
    red, pivots = linalg.rref(field, rel_rows)
    rel_basis = red[: len(pivots)]
    free_cols = tuple(c for c in range(ambient) if c not in pivots)

    def project(amb):
        return linalg.reduce_mod(field, rel_basis, amb)[list(free_cols)]

    table = np.zeros((m.dim, l_mod.dim, len(free_cols)), dtype=ELEM)
    for i in range(m.dim):
        for j in range(l_mod.dim):
            amb = np.zeros(ambient, dtype=ELEM)
            amb[i * l_mod.dim + j] = 1
            table[i, j] = project(amb)
    return rel_rows, rel_basis, free_cols, table, project


def truncated(field):
    """field[t]/(t^2) with basis {1, t}."""
    c = np.zeros((2, 2, 2), dtype=ELEM)
    c[0, 0], c[0, 1], c[1, 0] = [1, 0], [0, 1], [0, 1]
    return make_algebra(field, ["1", "t"], c, [1, 0])


def genuine_modules(alg):
    """The fixture grids; for field[t]/(t^2): 0, S, R, S+S, R+S, duals, left R."""
    try:
        return fixtures.right_grid(alg) + fixtures.left_grid(alg)
    except KeyError:
        pass
    reg, s = regular_module(alg, "right"), make_module(alg, "right", 1, [[[1]], [[0]]])
    right = [zero_module(alg, "right"), s, reg] + [
        direct_sum(parts).module for parts in ([s, s], [reg, s])
    ]
    return right + [dual_module(m) for m in right] + [regular_module(alg, "left")]


GENUINE = [fixtures.k2(), fixtures.f3(), fixtures.r2(), fixtures.tri2()] + [
    truncated(f) for f in FIELDS[2:]
]
GENUINE_MODULES = [m for alg in GENUINE for m in genuine_modules(alg)]


@pytest.mark.parametrize("m", GENUINE_MODULES, ids=repr)
def test_generators_and_presentation_match_the_span_loops(m):
    rng = np.random.default_rng(m.dim)
    for length in (0, 1, 1, 2, 2):
        vectors = rng.integers(0, m.algebra.field.q, (length, m.dim)).astype(ELEM)
        same_generators_and_presentation(m, vectors)


def algebra_id(alg):
    return f"{alg.field!r}-dim{alg.dim}"


def sparse(data, field, shape):
    """Uniform entries on a dense or a sparse support, from a drawn seed.

    Zero rows and columns are common, yet most draws carry entries of
    every size, which element-wise array strategies rarely give.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    density = data.draw(st.sampled_from([0.8, 0.3]))
    mask = rng.random(shape) < density
    return (rng.integers(0, field.q, size=shape) * mask).astype(ELEM)


def sparse_algebra(data, field, k):
    labels = tuple(f"e{i}" for i in range(k))
    return Algebra(field, labels, sparse(data, field, (k, k, k)), sparse(data, field, (k,)))


def sparse_module(data, alg, d, side="right"):
    return ModuleRep(alg, side, d, sparse(data, alg.field, (alg.dim, d, d)))


def formula_of(data, alg, side="right", nfree=None):
    n = data.draw(st.integers(0, 3)) if nfree is None else nfree
    t, neq = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    a, b = sparse(data, alg.field, (n, neq, alg.dim)), sparse(data, alg.field, (t, neq, alg.dim))
    return pp_formula(alg, side, n, a, b)


def same_formula(got, want):
    return (
        (got.side, got.nfree, got.nbound, got.neq)
        == (want.side, want.nfree, want.nbound, want.neq)
        and got.a.shape == (got.nfree, got.neq, got.algebra.dim)
        and got.b.shape == (got.nbound, got.neq, got.algebra.dim)
        and same_array(got.a, want.a)
        and same_array(got.b, want.b)
    )


@given(data=st.data(), field=fields, k=alg_dims)
def test_normalisation_matches_the_slot_loops(data, field, k):
    alg = sparse_algebra(data, field, k)
    n, t, neq = (data.draw(st.integers(0, 3)) for _ in range(3))
    a, b = sparse(data, field, (n, neq, k)), sparse(data, field, (t, neq, k))
    phi = pp_formula(alg, "right", n, a, b)
    want_a, want_b = oracle_normalise(alg, a, b)
    assert same_array(phi.a, want_a) and same_array(phi.b, want_b)
    assert (phi.nbound, phi.neq) == (want_b.shape[0], want_a.shape[1])


@given(data=st.data(), field=fields, k=alg_dims, d=mod_dims, g=st.sampled_from(GENUINE_MODULES))
def test_evaluate_system_matches_the_block_loop(data, field, k, d, g):
    # random actions make most systems injective; genuine modules do not
    for m in (sparse_module(data, sparse_algebra(data, field, k), d), g):
        phi = formula_of(data, m.algebra, m.side)
        got = evaluate(phi, m)
        assert got.arity == phi.nfree
        assert same_array(got.basis, oracle_evaluate(phi, m))


@given(data=st.data(), alg=st.sampled_from(GENUINE), side=st.sampled_from(["right", "left"]))
def test_free_realisation_matches_the_slot_loops(data, alg, side):
    phi = formula_of(data, alg, side)
    got = free_realisation(phi)
    module, tup = oracle_free_realisation(phi)
    assert got.module.dim == module.dim and got.module.side == side
    assert same_array(got.module.actions, module.actions)
    assert same_array(got.tuple, tup)


@given(data=st.data(), field=fields, k=alg_dims)
def test_formula_constructors_match_the_slot_loops(data, field, k):
    alg = sparse_algebra(data, field, k)
    n = data.draw(st.integers(0, 3))
    phi, psi = formula_of(data, alg, nfree=n), formula_of(data, alg, nfree=n)
    assert same_formula(bot(alg, "right", n), oracle_bot(alg, "right", n))
    assert same_formula(formula_sum(phi, psi), oracle_formula_sum(phi, psi))
    assert same_formula(dual(phi), oracle_dual(phi))
    t_matrix = sparse(data, field, (data.draw(st.integers(0, 3)), n, k))
    assert same_formula(substitute(phi, t_matrix), oracle_substitute(phi, t_matrix))
    new_arity = n + data.draw(st.integers(0, 2))
    assert same_formula(
        prefix_restriction(phi, new_arity), oracle_prefix_restriction(phi, new_arity)
    )


SMALL_FIELD_MODULES = [m for m in GENUINE_MODULES if m.algebra.field.q in (2, 3, 4)]


def normalised_as_at_the_door(build, *args):
    """``build(*args)``, which must normalise once, against ``pp_formula`` on
    the blocks it normalised."""
    seen = []
    real = formulas.normalised

    def spy(*blocks):
        seen.append(blocks)
        return real(*blocks)

    with mock.patch.object(formulas, "normalised", spy):
        got = build(*args)
    assert len(seen) == 1
    assert got.fingerprint() == pp_formula(*seen[0]).fingerprint()


@given(
    data=st.data(),
    field=st.sampled_from([Field(2), Field(3), Field(2, 2)]),
    k=alg_dims,
    side=st.sampled_from(["right", "left"]),
)
def test_formula_constructors_normalise_as_pp_formula_does(data, field, k, side):
    alg = sparse_algebra(data, field, k)
    n = data.draw(st.integers(0, 3))
    phi, psi = formula_of(data, alg, side, nfree=n), formula_of(data, alg, side, nfree=n)
    normalised_as_at_the_door(top, alg, side, n)
    normalised_as_at_the_door(bot, alg, side, n)
    normalised_as_at_the_door(conj, phi, psi)
    normalised_as_at_the_door(formula_sum, phi, psi)
    normalised_as_at_the_door(dual, phi)
    t_matrix = sparse(data, field, (data.draw(st.integers(0, 3)), n, k))
    normalised_as_at_the_door(substitute, phi, t_matrix)
    normalised_as_at_the_door(prefix_restriction, phi, n + data.draw(st.integers(0, 2)))
    # a genuine module, so the tuple extends to a presented generating one
    g = data.draw(st.sampled_from(SMALL_FIELD_MODULES))
    vectors = sparse(data, g.algebra.field, (data.draw(st.integers(0, 2)), g.dim))
    # the uncached generator, so every draw builds its formula
    normalised_as_at_the_door(pp_type_generator.__wrapped__, g, vectors)


def built_past_the_door(module, run):
    """``run()`` with ``module.normalised`` and ``Field.asarray`` watched: the
    blocks each formula was normalised from, the formulas, and the name of
    each function that called ``asarray``."""
    blocks, built, callers = [], [], []
    real, real_asarray = module.normalised, Field.asarray

    def spy(*args):
        blocks.append(args)
        built.append(real(*args))
        return built[-1]

    def asarray(self, *args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_asarray(self, *args, **kwargs)

    with mock.patch.object(module, "normalised", spy), mock.patch.object(Field, "asarray", asarray):
        run()
    return blocks, built, callers


def assert_as_at_the_door(blocks, built):
    assert built
    for args, got in zip(blocks, built):
        want = pp_formula(*args)
        assert (got.nfree, got.nbound, got.neq) == (want.nfree, want.nbound, want.neq)
        assert same_array(got.a, want.a) and same_array(got.b, want.b)


def test_consequences_and_scalars_skip_the_door():
    # chi and rho are built from blocks ppmod made itself: the same bytes as
    # through pp_formula, with no range scan of Field.asarray for them
    for theta, ctx in (
        (pp_type_generator(fixtures.mod_rr(), [[1, 0]]), make_context([fixtures.mod_s()])),
        (top(fixtures.r2(), "right", 2), make_context([fixtures.mod_s()])),
        (fixtures.xt0(), make_context([fixtures.mod_rr()])),
    ):
        run = lambda: consequence_enum(theta, ctx, Budget(1, 2, 64, 3))
        blocks, built, callers = built_past_the_door(construct, run)
        assert_as_at_the_door(blocks, built)
        # C_theta's regular module passes make_module's own door, nothing else
        assert set(callers) <= {"make_module"}
    for m in (fixtures.mod_rr(), fixtures.right_grid(fixtures.tri2())[-1]):
        # scalar_ring keeps phi and g; each rho is built when its formula is read
        run = lambda: [syn.formula for syn in scalar_ring(m).syntheses]
        blocks, built, callers = built_past_the_door(scalars, run)
        assert len(built) == end_and_biend(m).biend.dim
        assert_as_at_the_door(blocks, built)
        assert callers == []
        # the public door checks g once, and builds the same rho
        g = end_and_biend(m).biend.basis[-1]
        blocks, built, callers = built_past_the_door(scalars, lambda: synthesize_scalar(m, g).formula)
        assert callers == ["synthesize_scalar"]
        assert same_array(built[0].b, scalar_ring(m).syntheses[-1].formula.b)


def assert_pointed_tuple_matches(m, basis, arity):
    got = is_pp_definable(m, basis, arity)
    rows = linalg.row_space(m.algebra.field, basis)
    if rows.shape[0] == 0:
        assert same_formula(got.witness, bot(m.algebra, m.side, arity))
        return
    power = direct_sum([m] * rows.shape[0]).module
    want = pp_type_generator(power, oracle_pointed_tuple(rows, arity, m.dim))
    assert same_formula(got.witness, want)
    assert same_array(got.closure, evaluate(want, m).basis)


@pytest.mark.parametrize("alg", GENUINE, ids=algebra_id)
def test_pointed_tuple_matches_the_double_loop_on_the_grids(alg):
    rng = np.random.default_rng(3)
    for m in genuine_modules(alg):
        if m.dim <= 2:
            for arity, k in ((0, 1), (1, 0), (1, 2), (2, 1), (2, 2), (2, 2), (2, 2)):
                basis = rng.integers(0, alg.field.q, size=(k, arity * m.dim)).astype(ELEM)
                assert_pointed_tuple_matches(m, basis, arity)


@given(data=st.data(), field=fields, k=alg_dims, d=mod_dims, e=mod_dims)
def test_sylvester_rows_match_the_hom_and_tensor_loops(data, field, k, d, e):
    alg = sparse_algebra(data, field, k)
    m, n = sparse_module(data, alg, d), sparse_module(data, alg, e)
    rows = linalg.sylvester_rows(field, m.actions, n.actions.transpose(0, 2, 1))
    assert same_array(rows, oracle_hom_constraint_matrix(m, n))
    left = ModuleRep(alg, "left", e, n.actions)
    t = tensor_product(m, left)
    rel_rows, rel_basis, free_cols, table, project = oracle_tensor(m, left)
    assert same_array(linalg.sylvester_rows(field, m.actions, left.actions), rel_rows)
    assert same_array(t.rel_basis, rel_basis) and t.free_columns == free_cols
    assert t.dim == len(free_cols) and same_array(t.pair_table, table)
    v, w = sparse(data, field, (d,)), sparse(data, field, (e,))
    assert same_array(t.class_of(v, w), project(kron(field, v[None], w[None])[0]))


@given(data=st.data(), field=fields, s=st.integers(0, 3), d=mod_dims)
def test_commutant_matches_the_block_loop(data, field, s, d):
    mats = sparse(data, field, (s, d, d))
    assert same_array(linalg.intertwiners(field, mats, mats), oracle_commutant(field, mats, d))


@given(data=st.data(), alg=st.sampled_from(GENUINE), side=st.sampled_from(["right", "left"]))
def test_constrained_hom_matches_the_tuple_loop(data, alg, side):
    field = alg.field
    mods = [m for m in genuine_modules(alg) if m.side == side]
    m, n = data.draw(st.sampled_from(mods)), data.draw(st.sampled_from(mods))
    src = sparse(data, field, (data.draw(st.integers(0, 3)), m.dim))
    basis = hom_space(m, n)
    if basis and data.draw(st.booleans()):  # the image of src under a homomorphism
        stacked = np.stack([g.matrix.reshape(-1) for g in basis])
        coeffs = sparse(data, field, (len(basis),))
        h = linalg.matvec(field, coeffs, stacked).reshape(m.dim, n.dim)
        tgt = linalg.matmul(field, src, h)
    else:
        tgt = sparse(data, field, (src.shape[0], n.dim))
    lhs = oracle_constrained_hom_rows(m, n, src)
    hom_zeros = np.zeros(lhs.shape[0] - tgt.size, dtype=ELEM)
    want = linalg.solve(field, lhs, np.concatenate([hom_zeros, tgt.reshape(-1)]))
    got = constrained_hom(m, n, src, tgt)
    assert (got is None) == (want is None)
    if want is not None:
        assert same_array(got.matrix, want.reshape(m.dim, n.dim))


@pytest.mark.parametrize("alg", GENUINE, ids=algebra_id)
def test_evaluate_and_free_realisation_match_the_slot_loops_on_the_grids(alg):
    rng = random.Random(7)
    for side in ("right", "left"):
        forms = fixtures.formula_corpus(alg, side) + [
            fixtures.random_formula(alg, side, rng, 3, 3, 3) for _ in range(12)
        ]
        for phi in forms:
            got = free_realisation(phi)
            module, tup = oracle_free_realisation(phi)
            assert same_array(got.module.actions, module.actions)
            assert same_array(got.tuple, tup)
            for m in genuine_modules(alg):
                if m.side == side:
                    assert same_array(evaluate(phi, m).basis, oracle_evaluate(phi, m))


@pytest.mark.parametrize("alg", GENUINE, ids=algebra_id)
def test_tensor_products_match_the_relation_loop_on_the_grids(alg):
    mods = genuine_modules(alg)
    for m in (m for m in mods if m.side == "right"):
        for left in (m for m in mods if m.side == "left"):
            t = tensor_product(m, left)
            _, rel_basis, free_cols, table, project = oracle_tensor(m, left)
            assert same_array(t.rel_basis, rel_basis) and t.free_columns == free_cols
            assert same_array(t.pair_table, table)
            for v in m.enumerate_elements()[-3:]:
                for w in left.enumerate_elements()[-3:]:
                    amb = kron(alg.field, v[None], w[None])[0]
                    assert same_array(t.class_of(v, w), project(amb))


# -- the per-vector, per-pair and per-triple loops of the module layer ---------


def oracle_images(field, rows, mats):
    out = np.zeros((rows.shape[0], mats.shape[0], mats.shape[2]), dtype=ELEM)
    for r in range(rows.shape[0]):
        for i in range(mats.shape[0]):
            out[r, i] = linalg.matvec(field, rows[r], mats[i])
    return out


def oracle_coords_in_rref(field, basis, v):
    if not linalg.in_span(field, basis, v):
        return None
    pivots = [int(np.nonzero(row)[0][0]) for row in basis]
    return np.asarray(v, ELEM)[pivots]


def oracle_module_span(m, rows):
    f = m.algebra.field
    rows = tuple_rows(rows, m.dim)
    if rows.shape[0] == 0 or m.dim == 0:
        return linalg.zeros(0, m.dim)
    orbit = [linalg.matmul(f, rows, m.actions[i]) for i in range(m.algebra.dim)]
    orbit.append(rows)
    return linalg.row_space(f, np.concatenate(orbit, axis=0))


def oracle_is_submodule(m, basis):
    f = m.algebra.field
    return linalg.subspace_le(f, oracle_module_span(m, basis), linalg.row_space(f, basis))


def oracle_submodule(m, rows):
    """(basis, actions), or None where the subspace is not action-closed."""
    f = m.algebra.field
    basis = linalg.row_space(f, tuple_rows(rows, m.dim))
    if not oracle_is_submodule(m, basis):
        return None
    k = basis.shape[0]
    actions = np.zeros((m.algebra.dim, k, k), dtype=ELEM)
    for i in range(m.algebra.dim):
        moved = linalg.matmul(f, basis, m.actions[i])
        for r in range(k):
            actions[i, r] = oracle_coords_in_rref(f, basis, moved[r])
    return basis, actions


def oracle_quotient(m, rows):
    """(projection, actions), or None where the relations are not action-closed."""
    f = m.algebra.field
    sub_basis = linalg.row_space(f, tuple_rows(rows, m.dim))
    if not oracle_is_submodule(m, sub_basis):
        return None
    pivots = [int(np.nonzero(r)[0][0]) for r in sub_basis]
    keep = [c for c in range(m.dim) if c not in pivots]

    def project(v):
        return linalg.reduce_mod(f, sub_basis, v)[keep]

    proj = np.zeros((m.dim, len(keep)), dtype=ELEM)
    for j in range(m.dim):
        proj[j] = project(m.basis_vector(j))
    actions = np.zeros((m.algebra.dim, len(keep), len(keep)), dtype=ELEM)
    for i in range(m.algebra.dim):
        for r, c in enumerate(keep):
            actions[i, r] = project(m.actions[i, c])
    return proj, actions


def oracle_tuple_class(t, vs, ws):
    field = t.right.algebra.field
    out = np.zeros(t.dim, dtype=ELEM)
    for v, w in zip(vs, ws):
        out = field.add(out, t.class_of(v, w))
    return out


def oracle_relative_ml_matrix(m, family):
    prod = direct_sum(family)
    t_all = tensor_product(m, prod.module)
    factors = [tensor_product(m, l_mod) for l_mod in family]
    matrix = np.zeros((t_all.dim, sum(t.dim for t in factors)), dtype=ELEM)
    for row, col in enumerate(t_all.free_columns):
        i, u = divmod(col, prod.module.dim)
        v = m.basis_vector(i)
        out = [
            t_fac.class_of(v, proj.matrix[u])
            for t_fac, proj in zip(factors, prod.projections)
        ]
        matrix[row] = np.concatenate(out)
    return matrix


def oracle_ring_table(field, mats):
    """Structure table of an RREF matrix basis, or None if not product-closed."""
    k, d = mats.shape[0], mats.shape[1]
    vec = mats.reshape(k, d * d)
    table = np.zeros((k, k, k), dtype=ELEM)
    for i in range(k):
        for j in range(k):
            prod = linalg.matmul(field, mats[i], mats[j]).reshape(-1)
            coords = oracle_coords_in_rref(field, vec, prod)
            if coords is None:
                return None
            table[i, j] = coords
    return table


def oracle_from_r(m, biend_mats):
    field = m.algebra.field
    d = m.dim
    vec = biend_mats.reshape(biend_mats.shape[0], d * d)
    from_r = np.zeros((m.algebra.dim, biend_mats.shape[0]), dtype=ELEM)
    for l in range(m.algebra.dim):
        from_r[l] = oracle_coords_in_rref(field, vec, m.actions[l].reshape(-1))
    return from_r


def oracle_induced_matrix(m, formula):
    field = m.algebra.field
    d = m.dim
    sol = evaluate(formula, m).basis
    mat = np.zeros((d, d), dtype=ELEM)
    for j in range(d):
        coeffs = linalg.solve(field, sol[:, :d].T, linalg.eye(field, d)[j])
        if coeffs is None:
            return None
        mat[j] = linalg.matvec(field, coeffs, sol[:, d:])
    return mat


def oracle_algebra_error(field, labels, constants, unit):
    """The first failing triple or unit law, as (type, message), or None."""
    alg = Algebra(field, tuple(labels), constants, unit)
    m = len(labels)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                left = alg.mul_elems(constants[i, j], alg.basis_elem(k))
                right = alg.mul_elems(alg.basis_elem(i), constants[j, k])
                if not np.array_equal(left, right):
                    return "NonAssociative", str(NonAssociative((i, j, k), tuple(labels)))
    for j in range(m):
        ej = alg.basis_elem(j)
        if not np.array_equal(alg.mul_elems(unit, ej), ej) or not np.array_equal(
            alg.mul_elems(ej, unit), ej
        ):
            return "BadUnit", f"unit laws fail on basis element {labels[j]!r}"
    return None


def oracle_module_error(alg, side, dim, actions):
    f = alg.field
    mod = ModuleRep(alg, side, dim, actions)
    if not np.array_equal(mod.rho(alg.unit), np.eye(dim, dtype=ELEM)):
        return "NotARepresentation", "unit does not act as the identity"
    for i in range(alg.dim):
        for j in range(alg.dim):
            target = mod.rho(alg.constants[i, j])
            if side == "right":
                got = linalg.matmul(f, actions[i], actions[j])
            else:
                got = linalg.matmul(f, actions[j], actions[i])
            if not np.array_equal(got, target):
                return (
                    "NotARepresentation",
                    f"law fails on basis pair ({alg.labels[i]}, {alg.labels[j]})",
                )
    return None


def oracle_map_error(source, target, matrix):
    f = source.algebra.field
    for i in range(source.algebra.dim):
        lhs = linalg.matmul(f, source.actions[i], matrix)
        rhs = linalg.matmul(f, matrix, target.actions[i])
        if not np.array_equal(lhs, rhs):
            return (
                "NotARepresentation",
                f"matrix does not commute with {source.algebra.labels[i]!r}",
            )
    return None


def oracle_hasse_edges(lat):
    edges = []
    k = lat.size
    for i in range(k):
        for j in range(k):
            if i == j or not lat.leq[i, j]:
                continue
            if any(
                lat.leq[i, between] and lat.leq[between, j]
                for between in range(k)
                if between not in (i, j)
            ):
                continue
            edges.append((i, j))
    return edges


def error_of(fn, *args):
    try:
        fn(*args)
    except PpmodError as err:
        return type(err).__name__, str(err)
    return None


def perturbed(data, field, arr):
    """arr with one drawn entry moved by a non-zero step, if arr has entries."""
    arr = arr.copy()
    if arr.size:
        idx = tuple(data.draw(st.integers(0, s - 1)) for s in arr.shape)
        arr[idx] = field.add(arr[idx], data.draw(st.integers(1, field.q - 1)))
    return arr


def rows_in(data, m):
    """1-2 drawn rows of m, or the span of 0-3 rows, so both closure outcomes occur."""
    if data.draw(st.booleans()):
        return sparse(data, m.algebra.field, (data.draw(st.integers(1, 2)), m.dim))
    return module_span(m, sparse(data, m.algebra.field, (data.draw(st.integers(0, 3)), m.dim)))


# the validators and closure tests need many draws to meet every failure
many = settings(max_examples=150)


@given(data=st.data(), field=fields, s=st.integers(0, 3), d=mod_dims, e=mod_dims)
def test_images_pair_products_and_coords_match_the_loops(data, field, s, d, e):
    rows = sparse(data, field, (data.draw(st.integers(0, 4)), d))
    mats = sparse(data, field, (s, d, e))
    assert same_array(linalg.images(field, rows, mats), oracle_images(field, rows, mats))
    square = sparse(data, field, (s, d, d))
    got = linalg.pair_products(field, square)
    assert got.shape == (s, s, d, d) and got.dtype == ELEM
    for i in range(s):
        for j in range(s):
            assert same_array(got[i, j], linalg.matmul(field, square[i], square[j]))
    w = data.draw(st.integers(0, 5))
    basis = linalg.row_space(field, sparse(data, field, (data.draw(st.integers(0, 3)), w)))
    vs = sparse(data, field, (data.draw(st.integers(0, 3)), w))
    mode = data.draw(st.sampled_from(["inside, then drawn", "drawn", "inside"]))
    if mode != "drawn":
        vs = linalg.matmul(field, sparse(data, field, (vs.shape[0], basis.shape[0])), basis)
    if mode == "inside, then drawn":  # only the last vector may lie outside
        vs = np.concatenate([vs, sparse(data, field, (1, w))], axis=0)
    want = [oracle_coords_in_rref(field, basis, v) for v in vs]
    got = linalg.coords_in_rref(field, basis, vs)
    if any(w is None for w in want):
        assert got is None
    else:
        assert same_array(got, np.array(want, dtype=ELEM).reshape(vs.shape[0], basis.shape[0]))


@given(data=st.data(), field=fields, k=alg_dims, d=mod_dims)
def test_module_span_matches_the_orbit_loop(data, field, k, d):
    # random actions: the drawn rows need not lie in their orbit
    m = sparse_module(data, sparse_algebra(data, field, k), d)
    rows = sparse(data, field, (data.draw(st.integers(0, 3)), d))
    assert same_array(module_span(m, rows), oracle_module_span(m, rows))


@given(data=st.data(), field=fields, n=st.integers(0, 6))
def test_quotient_map_matches_the_residue_loop(data, field, n):
    rows = sparse(data, field, (data.draw(st.integers(0, 4)), n))
    basis = linalg.row_space(field, rows)
    free, table = linalg.quotient_map(field, basis, n)
    pivots = [int(np.nonzero(r)[0][0]) for r in basis]
    assert free == [c for c in range(n) if c not in pivots]
    residues = np.zeros((n, n), dtype=ELEM)
    for j in range(n):
        residues[j] = linalg.reduce_mod(field, basis, np.eye(n, dtype=ELEM)[j])
    assert same_array(table, residues[:, free])
    # the residue map straight from rref, zero rows included
    assert same_array(linalg.residue_map(field, *linalg.rref(field, rows)), residues)


@many
@given(data=st.data(), m=st.sampled_from([m for m in GENUINE_MODULES if m.dim]))
def test_submodule_and_quotient_match_the_per_vector_loops(data, m):
    rows = rows_in(data, m)
    want = oracle_submodule(m, rows)
    if want is None:
        with pytest.raises(NotASubmodule, match="subspace is not closed"):
            submodule(m, rows)
    else:
        got = submodule(m, rows)
        assert same_array(got.inclusion.matrix, want[0])
        assert same_array(got.module.actions, want[1])
    want = oracle_quotient(m, rows)
    if want is None:
        with pytest.raises(NotASubmodule, match="relations are not closed"):
            quotient(m, rows)
    else:
        got = quotient(m, rows)
        assert same_array(got.projection.matrix, want[0])
        assert same_array(got.module.actions, want[1])
    assert same_array(module_span(m, rows), oracle_module_span(m, rows))


@given(data=st.data(), alg=st.sampled_from(GENUINE))
def test_tuple_class_matches_the_sum_of_simple_tensors(data, alg):
    # genuine modules: random actions mostly give a zero tensor product
    mods = genuine_modules(alg)
    m = data.draw(st.sampled_from([m for m in mods if m.side == "right"]))
    left = data.draw(st.sampled_from([m for m in mods if m.side == "left"]))
    t = tensor_product(m, left)
    n = data.draw(st.integers(0, 3))
    vs, ws = sparse(data, alg.field, (n, m.dim)), sparse(data, alg.field, (n, left.dim))
    assert same_array(t.tuple_class(vs, ws), oracle_tuple_class(t, vs, ws))


@given(data=st.data(), field=fields, k=alg_dims, d=mod_dims)
def test_relative_ml_matrix_matches_the_free_column_loop(data, field, k, d):
    alg = sparse_algebra(data, field, k)
    m = sparse_module(data, alg, d)
    family = [
        sparse_module(data, alg, data.draw(mod_dims), "left")
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    got = relative_ml_check(m, family)
    want = oracle_relative_ml_matrix(m, family)
    assert same_array(got.matrix, want)
    kernel = linalg.null_space(field, want.T)
    assert got.injective == (kernel.shape[0] == 0)
    if not got.injective:
        assert same_array(got.kernel_witness, kernel[0])


@pytest.mark.parametrize("alg", GENUINE, ids=algebra_id)
def test_ring_tables_and_from_r_match_the_pair_loops(alg):
    for m in genuine_modules(alg):
        eb = end_and_biend(m)
        for ring in (eb.end, eb.biend):
            assert same_array(ring.constants, oracle_ring_table(alg.field, ring.basis))
            if m.dim:
                ident = linalg.eye(alg.field, m.dim).reshape(-1)
                flat = ring.basis.reshape(ring.dim, m.dim**2)
                assert same_array(ring.unit, oracle_coords_in_rref(alg.field, flat, ident))
        if m.side == "right" and m.dim:
            assert same_array(eb.biend.from_r, oracle_from_r(m, eb.biend.basis))
        else:
            assert eb.biend.from_r is None


@pytest.mark.parametrize("alg", GENUINE, ids=algebra_id)
def test_end_biend_and_scalar_ring_are_algebras(alg):
    for m in genuine_modules(alg):
        sr = scalar_ring(m)
        for ring in (sr.end, sr.biend, sr.ring):
            if m.dim:  # the zero module's rings are the zero ring, which make_algebra refuses
                checked = make_algebra(alg.field, ring.labels, ring.constants, ring.unit)
                assert same_array(checked.constants, ring.constants)
            else:
                assert ring.dim == 0 and ring.constants.shape == (0, 0, 0)
        assert sr.ring.labels == tuple(f"r{i}" for i in range(sr.biend.dim))
        for name in ("constants", "unit", "basis"):
            assert same_array(getattr(sr.ring, name), getattr(sr.biend, name))
        if sr.biend.from_r is None:
            assert sr.ring.from_r is None
        else:
            assert same_array(sr.ring.from_r, sr.biend.from_r)


@many
@given(data=st.data(), field=fields, d=mod_dims)
def test_ring_table_of_a_power_span_matches_the_pair_loop(data, field, d):
    # the span of the powers of one matrix: a ring, so read at the pivots
    g = sparse(data, field, (d, d))
    powers = [linalg.eye(field, d)]
    for _ in range(d):
        powers.append(linalg.matmul(field, powers[-1], g))
    basis = linalg.row_space(field, np.stack(powers).reshape(d + 1, d * d))
    mats = basis.reshape(basis.shape[0], d, d)
    ring = _make_ring_table(field, mats, "x")
    assert same_array(ring.constants, oracle_ring_table(field, mats))
    assert same_array(ring.unit, oracle_coords_in_rref(field, basis, np.eye(d, dtype=ELEM).reshape(-1)))


@pytest.mark.parametrize("alg", GENUINE[:4], ids=algebra_id)
def test_scalar_ring_matches_the_solve_loop(alg):
    for m in (m for m in genuine_modules(alg) if m.side == "right" and m.dim <= 3):
        sr = scalar_ring(m)
        want = [oracle_induced_matrix(m, s.formula) for s in sr.syntheses]
        stacked = np.stack(want) if want else np.zeros((0, m.dim, m.dim), dtype=ELEM)
        assert same_array(sr.ring.basis, stacked)
        assert sr.matches_biend == np.array_equal(stacked, sr.biend.basis)
        # the check synthesize_scalar made: each solution set is [I | g]
        for s in sr.syntheses:
            graph = np.concatenate([linalg.eye(m.algebra.field, m.dim), s.matrix], axis=1)
            assert same_array(evaluate(s.formula, m).basis, graph)


def oracle_scalar_formula(m, gens, g):
    """rho as ``scalars._synthesis`` placed it: one conjunct and one slot at a time."""
    field = m.algebra.field
    alg = m.algebra
    k = gens.shape[0]
    joined = np.concatenate([gens, linalg.matmul(field, gens, g)], axis=0)
    phi = pp_type_generator(m, joined)
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
        fresh = iter(range(base, base + 2 * k - 2))
        col0 = 2 + i * phi.neq
        for s in range(2 * k):
            b[s if s in (i, k + i) else next(fresh), col0 : col0 + phi.neq] = phi.a[s]
        for r in range(phi.nbound):
            b[base + 2 * k - 2 + r, col0 : col0 + phi.neq] = phi.b[r]
    return normalised(alg, m.side, 2, a, b)


def assert_scalar_formulas_match_the_per_conjunct_placement(m):
    eb = end_and_biend(m)
    syntheses = scalar_ring(m).syntheses
    assert len(syntheses) == eb.biend.dim
    for syn, g in zip(syntheses, eb.biend.basis):
        want = oracle_scalar_formula(m, eb.generators, g)
        assert syn.formula.fingerprint() == want.fingerprint()


@pytest.mark.parametrize("alg", GENUINE, ids=algebra_id)
def test_scalar_formulas_match_the_per_conjunct_placement_on_the_grids(alg):
    for m in genuine_modules(alg):
        assert_scalar_formulas_match_the_per_conjunct_placement(m)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_scalar_formulas_match_the_per_conjunct_placement_on_the_bricks(k):
    from test_scalars import kronecker_brick  # test_scalars imports this module

    assert_scalar_formulas_match_the_per_conjunct_placement(kronecker_brick(k))


def oracle_render(phi):
    """``PpFormula.render`` as one ``np.any`` and one rendered term per cell."""
    alg = phi.algebra
    parts = []
    for j in range(phi.neq):
        terms = []
        for i in range(phi.nfree):
            if np.any(phi.a[i, j]):
                terms.append(oracle_render_term(alg, phi.side, f"x{i + 1}", phi.a[i, j]))
        for k in range(phi.nbound):
            if np.any(phi.b[k, j]):
                terms.append(oracle_render_term(alg, phi.side, f"y{k + 1}", phi.b[k, j]))
        parts.append((" + ".join(terms) if terms else "0") + " = 0")
    body = " & ".join(parts) if parts else "0 = 0"
    if phi.nbound:
        names = " ".join(f"y{k + 1}" for k in range(phi.nbound))
        return f"E {names} . {body}"
    return body


def oracle_render_term(alg, side, var, coeff):
    """The ``_render_term`` of ``oracle_render``."""
    if np.array_equal(coeff, alg.unit):
        return var
    txt = alg.render_elem(coeff)
    return f"{var}*{txt}" if side == "right" else f"{txt}*{var}"


@pytest.mark.parametrize("alg", [fixtures.r2(), fixtures.tri2(), fixtures.f3()], ids=algebra_id)
def test_render_matches_the_per_cell_loop_on_the_corpus(alg):
    for side in ("right", "left"):
        for phi in fixtures.formula_corpus(alg, side):
            assert phi.render() == oracle_render(phi)
    # an all-zero equation, which normalisation drops, still renders as 0 = 0
    for side in ("right", "left"):
        zero = PpFormula(
            alg, side, 1, 0, 2, np.zeros((1, 2, alg.dim), ELEM), np.zeros((0, 2, alg.dim), ELEM)
        )
        assert zero.render() == oracle_render(zero) == "0 = 0 & 0 = 0"


@many
@given(
    seed=st.integers(0, 2**32 - 1),
    field=st.sampled_from([Field(2), Field(3), Field(2, 2), Field(5)]),
    side=st.sampled_from(["right", "left"]),
)
def test_render_matches_the_per_cell_loop_on_random_formulas(seed, field, side):
    # over field[t]/(t^2), so unit, scaled and summed coefficients all occur
    phi = fixtures.random_formula(truncated(field), side, random.Random(seed), 3, 3, 3)
    assert phi.render() == oracle_render(phi)


@many
@given(data=st.data(), field=fields, k=alg_dims)
def test_make_algebra_errors_match_the_triple_loop(data, field, k):
    labels = [f"e{i}" for i in range(k)]
    base = [alg for alg in GENUINE if alg.field == field and alg.dim == k]
    if k == 2 and data.draw(st.booleans()):
        # matrices [[a, b], [0, 0]] (basis E11, E12) or their opposite:
        # associative, with E11 a unit on one side only
        constants = np.zeros((2, 2, 2), dtype=ELEM)
        constants[0, 0], constants[0, 1] = [1, 0], [0, 1]
        if data.draw(st.booleans()):
            constants = constants.transpose(1, 0, 2).copy()
        unit = np.array([1, 0], dtype=ELEM)
    elif base and data.draw(st.booleans()):  # a genuine algebra, perhaps perturbed
        alg = data.draw(st.sampled_from(base))
        constants, unit = alg.constants.copy(), alg.unit.copy()
        which = data.draw(st.sampled_from(["none", "constants", "unit"]))
        if which == "constants":
            constants = perturbed(data, field, constants)
        elif which == "unit":
            unit = perturbed(data, field, unit)
    else:
        constants, unit = sparse(data, field, (k, k, k)), sparse(data, field, (k,))
    want = oracle_algebra_error(field, labels, constants, unit)
    assert error_of(make_algebra, field, labels, constants, unit) == want


@many
@given(data=st.data(), m=st.sampled_from(GENUINE_MODULES))
def test_make_module_errors_match_the_pair_loop(data, m):
    alg, field = m.algebra, m.algebra.field
    mode = data.draw(st.sampled_from(["genuine", "perturbed", "random"]))
    if mode == "genuine":
        actions = m.actions
    elif mode == "perturbed":
        actions = perturbed(data, field, m.actions)
    else:
        actions = sparse(data, field, m.actions.shape)
    want = oracle_module_error(alg, m.side, m.dim, actions)
    assert error_of(make_module, alg, m.side, m.dim, actions) == want


@many
@given(data=st.data(), alg=st.sampled_from(GENUINE), side=st.sampled_from(["right", "left"]))
def test_make_map_errors_match_the_label_loop(data, alg, side):
    field = alg.field
    mods = [m for m in genuine_modules(alg) if m.side == side]
    m, n = data.draw(st.sampled_from(mods)), data.draw(st.sampled_from(mods))
    basis = hom_space(m, n)
    mode = data.draw(st.sampled_from(["random", "hom", "perturbed hom"]))
    if basis and mode != "random":
        stacked = np.stack([g.matrix.reshape(-1) for g in basis])
        coeffs = sparse(data, field, (len(basis),))
        matrix = linalg.matvec(field, coeffs, stacked).reshape(m.dim, n.dim)
        if mode == "perturbed hom":
            matrix = perturbed(data, field, matrix)
    else:
        matrix = sparse(data, field, (m.dim, n.dim))
    assert error_of(make_map, m, n, matrix) == oracle_map_error(m, n, matrix)


def fake_lattice(leq):
    k = leq.shape[0]
    zeros = np.zeros((k, k), dtype=np.int32)
    return PpLattice(None, 1, (None,) * k, leq, zeros, zeros)


@given(data=st.data(), k=st.integers(0, 7))
def test_hasse_edges_match_the_triple_loop_on_any_relation(data, k):
    # any boolean relation: the two agree without order axioms
    leq = data.draw(hnp.arrays(bool, (k, k)))
    assert hasse_edges(fake_lattice(leq)) == oracle_hasse_edges(fake_lattice(leq))


@pytest.mark.parametrize("m", [m for m in GRID_MODULES if m.dim <= 3], ids=repr)
def test_hasse_edges_match_the_triple_loop_on_the_grids(m):
    lat = pp_lattice(m, 1)
    assert hasse_edges(lat) == oracle_hasse_edges(lat)


def oracle_ziegler_irreducible(lat, members):
    """For every pair outside the filter some member's meets with the two sum outside it."""
    outside = [i for i in range(lat.size) if i not in members]
    return all(
        any(int(lat.join[lat.meet[p1, c], lat.meet[p2, c]]) not in members for c in members)
        for p1 in outside
        for p2 in outside
    )


def oracle_filter_analysis(lat, avoid):
    """(generator, members, ziegler) of each maximal filter avoiding ``avoid``.

    Every principal up-set is checked to be upward and meet closed, the
    avoiding ones are compared pairwise for maximality, and each
    survivor's generator is searched as its least member.
    """
    if not 0 <= avoid < lat.size:
        raise ValidationFailure("avoided element is not in the lattice")
    k = lat.size
    filters = []
    for g in range(k):
        members = frozenset(j for j in range(k) if lat.leq[g, j])
        for i in members:
            for j in range(k):
                if lat.leq[i, j] and j not in members:
                    raise AssertionError("filter is not upward closed")
            for j in members:
                if int(lat.meet[i, j]) not in members:
                    raise AssertionError("filter is not meet closed")
        filters.append(members)
    candidates = [f for f in filters if avoid not in f]
    out = []
    for members in candidates:
        if any(other > members for other in candidates):
            continue
        generator = next(i for i in sorted(members) if all(lat.leq[i, j] for j in members))
        out.append((generator, members, oracle_ziegler_irreducible(lat, members)))
    return out


def assert_filters_match(lat, avoids):
    """filter_analysis against the loops on each avoid, and the cover test on every up-set.

    A reported generator is minimal outside the down-set of ``avoid``,
    so it is never a join of two smaller elements and every reported
    flag is yes; the cover test is also checked on every principal
    filter, where both answers occur.
    """
    for avoid in avoids:
        got = [(r.filter.generator, r.filter.members, r.ziegler) for r in filter_analysis(lat, avoid)]
        assert got == oracle_filter_analysis(lat, avoid)
    one_lower_cover = _covers(lat).sum(axis=0) <= 1
    for g in range(lat.size):
        members = PpFilter(lat, g).members
        assert one_lower_cover[g] == oracle_ziegler_irreducible(lat, members)


@st.composite
def closure_systems(draw):
    """A random closure system on at most 5 points, as a lattice by inclusion.

    Drawn subsets closed under intersection, plus the full set; meet is
    the intersection and join the least closed superset.  Such lattices
    need not be modular.
    """
    full = (1 << draw(st.integers(0, 5))) - 1
    sets = {full} | set(draw(st.lists(st.integers(0, full), max_size=8)))
    while more := {a & b for a in sets for b in sets} - sets:
        sets |= more
    sets = sorted(sets, key=lambda a: (bin(a).count("1"), a))
    index = {a: i for i, a in enumerate(sets)}
    k = len(sets)
    leq = np.array([[a & b == a for b in sets] for a in sets], dtype=bool)
    meet = np.array([[index[a & b] for b in sets] for a in sets], dtype=np.int32)
    join = np.zeros((k, k), dtype=np.int32)
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            closed_above = [c for c in sets if (a | b) & c == a | b]
            join[i, j] = index[functools.reduce(and_, closed_above)]
    return PpLattice(None, 1, (None,) * k, leq, meet, join)


@many
@given(lat=closure_systems())
def test_filter_analysis_matches_the_up_set_loops_on_closure_systems(lat):
    assert_filters_match(lat, range(lat.size))


# the loops take about 30 ms a call on the two 67-element workload lattices,
# so those get the bottom, the top and one seeded avoid
EVERY_AVOID_UP_TO = 25


@pytest.mark.parametrize(
    "key, m, arity",
    [pytest.param(*case, id=case[0]) for case in lattice_workload_cases() if case[0] in LATTICE_DIGESTS],
)
def test_filter_analysis_matches_the_up_set_loops_on_the_workload_lattices(key, m, arity):
    lat = pp_lattice(m, arity)
    if lat.size <= EVERY_AVOID_UP_TO:
        assert_filters_match(lat, range(lat.size))
    else:
        assert_filters_match(lat, [lat.bottom, lat.top, random.Random(key).randrange(lat.size)])


def test_every_reported_filter_is_ziegler_irreducible_on_the_workload_lattices():
    # a reported generator g is minimal outside the down-set of the avoided
    # element, so g is never the join of two smaller elements: the flag is
    # a theorem; the cover test itself still says no on some principal filters
    refused = 0
    for key, m, arity in lattice_workload_cases():
        if key not in LATTICE_DIGESTS:
            continue
        lat = pp_lattice(m, arity)
        for avoid in range(lat.size):
            assert all(r.ziegler for r in filter_analysis(lat, avoid))
        refused += int((_covers(lat).sum(axis=0) > 1).sum())
    assert refused > 0


@many
@given(lat=closure_systems())
def test_every_reported_filter_is_ziegler_irreducible_on_closure_systems(lat):
    for avoid in range(lat.size):
        assert all(r.ziegler for r in filter_analysis(lat, avoid))


def oracle_consequence_enum(theta, ctx, budget):
    if not ctx.generators:
        raise EmptyContext("consequence enumeration needs context generators")
    alg = theta.algebra
    probes = [free_realisation(theta).module] + list(ctx.generators)

    def signature(psi):
        return tuple(evaluate(psi, x).basis.tobytes() for x in probes)

    results = [theta]
    seen = {signature(theta)}
    n = theta.nfree
    elems = alg.enumerate_elements()
    truncated = False
    for t in range(budget.bound_vars + 1):
        for neq in range(1, budget.equations + 1):
            slots = (n + t) * neq
            for codes in product(range(len(elems)), repeat=slots):
                coeffs = elems[list(codes)].reshape(n + t, neq, alg.dim)
                chi = pp_formula(alg, theta.side, n, coeffs[:n], coeffs[n:])
                psi = conj(theta, chi)
                if any(not pair_closed(theta, psi, g) for g in ctx.generators):
                    continue
                sig = signature(psi)
                if sig in seen:
                    continue
                if len(results) >= budget.candidates:
                    truncated = True
                    return ConsequenceList(theta, tuple(results), truncated)
                seen.add(sig)
                results.append(psi)
    return ConsequenceList(theta, tuple(results), truncated)


def oracle_consequence_enum_on_solution_sets(theta, ctx, budget):
    """The per-candidate loop: solve each candidate's raw blocks on every probe."""
    if not ctx.generators:
        raise EmptyContext("consequence enumeration needs context generators")
    alg = theta.algebra
    field = alg.field
    c_theta = free_realisation(theta).module
    on_gens = [(g, evaluate(theta, g).basis) for g in ctx.generators]
    on_c = evaluate(theta, c_theta).basis
    results = [theta]
    seen = {on_c.tobytes()}
    n = theta.nfree
    elems = alg.enumerate_elements()
    for t in range(budget.bound_vars + 1):
        for neq in range(1, budget.equations + 1):
            slots = (n + t) * neq
            if len(elems) ** slots > linalg.ENUMERATION_CAP:
                raise CapExceeded(
                    f"listing {len(elems)}^{slots} candidate formulas "
                    f"exceeds the cap {linalg.ENUMERATION_CAP}"
                )
            for codes in product(range(len(elems)), repeat=slots):
                coeffs = elems[list(codes)].reshape(n + t, neq, alg.dim)
                a, b = coeffs[:n], coeffs[n:]
                if not all(
                    linalg.subspace_le(field, th, solution_basis(a, b, g))
                    for g, th in on_gens
                ):
                    continue
                chi_c = solution_basis(a, b, c_theta)
                sig = zassenhaus_intersect(field, on_c, chi_c).tobytes()
                if sig in seen:
                    continue
                if len(results) >= budget.candidates:
                    return ConsequenceList(theta, tuple(results), True)
                seen.add(sig)
                results.append(conj(theta, pp_formula(alg, theta.side, n, a, b)))
    return ConsequenceList(theta, tuple(results), False)


def same_consequences(got, want):
    return got.truncated == want.truncated and [p.fingerprint() for p in got.formulas] == [
        p.fingerprint() for p in want.formulas
    ]


def consequence_thetas(alg):
    """Corpus formulas and pp-type generators of grid tuples, arity 1-2."""
    thetas = [p for p in fixtures.formula_corpus(alg, "right") if p.nfree <= 2]
    for m in fixtures.right_grid(alg)[1:]:
        units = np.eye(m.dim, dtype=ELEM)
        thetas.append(pp_type_generator(m, units[:1]))
        thetas.append(pp_type_generator(m, units[[0, -1]]))
    return list({p.fingerprint(): p for p in thetas}.values())


def consequence_contexts(alg, first, second):
    """One- and two-generator contexts; signatures are read in generator order."""
    g, h = (fixtures.right_grid(alg)[i] for i in (first, second))
    return make_context([g]), make_context([g, h]), make_context([h, g])


def consequence_budget(theta, candidates):
    """Two equations where the largest block lists at most 256 candidates, else one."""
    q = theta.algebra.enumerate_elements().shape[0]
    equations = 2 if q ** (2 * (theta.nfree + 1)) <= 256 else 1
    return Budget(1, equations, candidates, 1)


@pytest.mark.parametrize(
    "alg, first, second",
    # grid modules that kill some formulas: S and S+S over r2, the two
    # simples over tri2, F3 and F3^2
    [(fixtures.r2(), 1, 4), (fixtures.tri2(), 1, 2), (fixtures.f3(), 1, 2)],
    ids=["r2", "tri2", "f3"],
)
def test_consequence_enum_matches_the_formula_loop(alg, first, second):
    one, two, swapped = consequence_contexts(alg, first, second)
    for theta in consequence_thetas(alg):
        # every context with the full allowance; truncating allowances on
        # the two-generator context
        runs = [(ctx, 64) for ctx in (one, two, swapped)] + [(two, 1), (two, 2)]
        for ctx, candidates in runs:
            budget = consequence_budget(theta, candidates)
            got = consequence_enum(theta, ctx, budget)
            assert same_consequences(got, oracle_consequence_enum(theta, ctx, budget))
            assert same_consequences(
                got, oracle_consequence_enum_on_solution_sets(theta, ctx, budget)
            )


# the default width splits the largest demo blocks into a few chunks, 2^20
# cells hold every block here, and one cell makes one a-code a chunk
chunk_cells = pytest.mark.parametrize(
    "cells", [linalg.WALK_CELLS, 2**20, 1], ids=["default", "whole", "one-a"]
)


@chunk_cells
def test_consequence_enum_matches_the_formula_loop_on_the_demo_budget(cells, monkeypatch):
    monkeypatch.setattr(linalg, "WALK_CELLS", cells)
    ctx = make_context([fixtures.mod_s()])
    for theta in (pp_type_generator(fixtures.mod_rr(), [[1, 0]]), fixtures.xt0()):
        for candidates in (1, 64):
            budget = Budget(2, 2, candidates, 3)
            got = consequence_enum(theta, ctx, budget)
            assert same_consequences(got, oracle_consequence_enum(theta, ctx, budget))
            assert same_consequences(
                got, oracle_consequence_enum_on_solution_sets(theta, ctx, budget)
            )


@chunk_cells
@pytest.mark.parametrize("alg", [fixtures.r2(), fixtures.tri2(), fixtures.f3()], ids=["r2", "tri2", "f3"])
def test_consequence_enum_matches_both_loops_on_the_edge_cases(alg, cells, monkeypatch):
    # no free variables, theta(X) = 0, theta(X) = X^n, and the zero module
    # as a generator (first or second); one and two bound variables
    monkeypatch.setattr(linalg, "WALK_CELLS", cells)
    grid = fixtures.right_grid(alg)
    thetas = [top(alg, "right", 0), bot(alg, "right", 1), top(alg, "right", 1)]
    contexts = [make_context([grid[0]]), make_context([grid[0], grid[1]]), make_context([grid[1], grid[0]])]
    q = alg.enumerate_elements().shape[0]
    for theta, ctx, candidates in product(thetas, contexts, (1, 64)):
        for budget in (Budget(1, 1, candidates, 1), Budget(2, 1, candidates, 1)):
            if q ** (theta.nfree + budget.bound_vars) > 4096:
                continue
            got = consequence_enum(theta, ctx, budget)
            assert same_consequences(got, oracle_consequence_enum(theta, ctx, budget))
            assert same_consequences(
                got, oracle_consequence_enum_on_solution_sets(theta, ctx, budget)
            )


def signature_groups(theta, ctx, budget):
    """b-codes and, per b-code, the distinct residue maps M_a of the closing a.

    A closing candidate is decided on solution sets; its M_a is the residue
    of L_a(v) = v @ system_rows(a, C) modulo W_b(C) for each basis row v of
    theta(C), one ``reduce_mod`` per row.
    """
    alg = theta.algebra
    field = alg.field
    c_theta = free_realisation(theta).module
    on_c = evaluate(theta, c_theta).basis
    on_gens = [(g, evaluate(theta, g).basis) for g in ctx.generators]
    elems = alg.enumerate_elements()
    n = theta.nfree
    b_codes = groups = 0
    for t in range(budget.bound_vars + 1):
        for neq in range(1, budget.equations + 1):
            for b_digits in product(range(len(elems)), repeat=t * neq):
                b = elems[list(b_digits)].reshape(t, neq, alg.dim)
                w = linalg.row_space(field, system_rows(b, c_theta))
                keys = set()
                for a_digits in product(range(len(elems)), repeat=n * neq):
                    a = elems[list(a_digits)].reshape(n, neq, alg.dim)
                    if all(
                        linalg.subspace_le(field, th, solution_basis(a, b, g))
                        for g, th in on_gens
                    ):
                        moved = linalg.matmul(field, on_c, system_rows(a, c_theta))
                        keys.add(b"".join(linalg.reduce_mod(field, w, v).tobytes() for v in moved))
                b_codes += 1
                groups += len(keys)
    return b_codes, groups


@chunk_cells
def test_consequence_enum_solves_once_per_signature_group(cells, monkeypatch):
    monkeypatch.setattr(linalg, "WALK_CELLS", cells)
    ctx = make_context([fixtures.mod_s()])
    budget = Budget(2, 2, 64, 3)
    calls = []
    original = linalg.null_space
    for theta in (pp_type_generator(fixtures.mod_rr(), [[1, 0]]), fixtures.xt0()):
        b_codes, groups = signature_groups(theta, ctx, budget)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "null_space", lambda *a: calls.append(1) or original(*a))
            got = consequence_enum(theta, ctx, budget)
        assert b_codes == 294  # 4^0 + 4^0 + 4^1 + 4^2 + 4^2 + 4^4 over the six blocks
        assert len(calls) <= b_codes + groups
        # theta's own probes are solved already: one call per distinct M_a
        # at most, where the per-candidate loop made one per candidate and
        # generator and one more per closing candidate
        assert len(calls) <= groups
        assert same_consequences(got, oracle_consequence_enum(theta, ctx, budget))


def test_consequence_enum_on_s_plus_s_in_def_rr():
    # theta's arity grows 2 -> 3 -> 5 -> 7 with the stages; the last call
    # lists 4^8 candidates per block, past what the per-candidate loop does
    # in seconds, so the oracle checks the first three calls
    ctx = make_context([fixtures.mod_rr()])
    budget = Budget(1, 1, 8, 3)
    s_plus_s = fixtures.right_grid(fixtures.r2())[4]
    assert s_plus_s.dim == 2 and not s_plus_s.actions[1].any()
    state = run_construction(s_plus_s, np.eye(2, dtype=ELEM), ctx, budget)
    assert [stage.module.dim for stage in state.stages] == [2, 3, 5, 7]
    assert [stage.theta.nfree for stage in state.stages] == [2, 3, 5, 7]
    for stage, row in list(zip(state.stages, state.rows))[:3]:
        assert row.theta is stage.theta
        assert same_consequences(
            row, oracle_consequence_enum_on_solution_sets(stage.theta, ctx, budget)
        )


def per_b_consequence_enum(theta, ctx, budget):
    """The per-b-code walk: for each chunk of a-codes and each b-code, one
    product per generator on the a still closing (the ``live`` chain) and
    one with C_theta's table; M_a rows packed into int64 keys and grouped
    at their least code by a lexsort; M_a recomputed for each group."""
    if not ctx.generators:
        raise EmptyContext("consequence enumeration needs context generators")
    alg = theta.algebra
    field = alg.field
    n, k = theta.nfree, alg.dim
    c_theta = free_realisation(theta).module
    on_c = evaluate(theta, c_theta).basis
    gen_moves = [(g, construct._moves(g, evaluate(theta, g).basis, n)) for g in ctx.generators]
    c_moves = construct._moves(c_theta, on_c, n)
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
            nb = field.q ** (t * neq * k)
            b_list = linalg.all_vectors(field, t * neq * k).reshape(nb, t * neq, k)[:, ::-1]
            b_list = b_list.reshape(nb, t, neq, k)
            gen_tables = [construct._residue_tables(g, moves, b_list) for g, moves in gen_moves]
            c_tables = construct._residue_tables(c_theta, c_moves, b_list)
            m_shape = (on_c.shape[0], neq * c_theta.dim)
            widest = max(tab[0].size for tab in (*gen_tables, c_tables))
            weights = packed_key_weights(field, m_shape[0] * m_shape[1])
            walked = set()
            start = 0
            for chunk in linalg.walk(field, n * neq * k, widest):
                chunk = chunk.reshape(len(chunk), n * neq, k)[:, ::-1].reshape(chunk.shape)
                codes, keys = [], []
                for b_code in range(nb):
                    live = np.arange(chunk.shape[0])
                    for tables in gen_tables:
                        rows = linalg.matmul(field, chunk[live], tables[b_code])
                        live = live[~rows.any(axis=1)]
                    codes.append((start + live) * nb + b_code)
                    m_rows = linalg.matmul(field, chunk[live], c_tables[b_code])
                    keys.append(m_rows.astype(np.int64) @ weights)
                for code, key in least_codes(np.concatenate(keys), np.concatenate(codes)):
                    if key.tobytes() in walked:
                        continue
                    walked.add(key.tobytes())
                    a_code, b_code = divmod(code, nb)
                    a = chunk[a_code - start : a_code - start + 1]
                    m_a = linalg.matmul(field, a, c_tables[b_code])
                    kernel = linalg.null_space(field, m_a.reshape(m_shape).T)
                    sig = linalg.matmul(field, kernel, on_c).tobytes()
                    if sig in seen:
                        continue
                    if len(results) >= budget.candidates:
                        return ConsequenceList(theta, tuple(results), True)
                    seen.add(sig)
                    chi = normalised(alg, theta.side, n, a.reshape(n, neq, k), b_list[b_code])
                    results.append(conj(theta, chi))
                start += len(chunk)
    return ConsequenceList(theta, tuple(results), False)


def packed_key_weights(field, width):
    """Packs rows of ``width`` field codes into int64 keys (rows @ weights),
    as many entries per key as fit in 62 bits: equal rows iff equal keys."""
    bits = (field.q - 1).bit_length()
    per_key = 62 // bits
    cols = np.arange(width)
    weights = np.zeros((width, -(-width // per_key)), dtype=np.int64)
    weights[cols, cols // per_key] = 1 << (bits * (cols % per_key))
    return weights


def least_codes(keys, codes):
    """(code, key row) at the least code of each distinct key row, in
    increasing code order."""
    order = np.lexsort((codes, *keys.T[::-1]))
    keys, codes = keys[order], codes[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    keys, codes = keys[starts], codes[starts]
    first = np.argsort(codes)
    return zip(codes[first].tolist(), keys[first])


def construction_calls(module, tuple_, ctx, budget):
    """(theta, ctx, budget) of every consequence call of a construction."""
    state = run_construction(module, tuple_, ctx, budget)
    return [(row.theta, ctx, budget) for row in state.rows]


def two_generator_calls(alg):
    """Arity 1 and 2 pp-type generators over the right modules 2 to 4 of
    ``genuine_modules(alg)`` (R, S+S and R+S for field[t]/(t^2); S2, P1
    and S1+S2 for tri2), in a context of modules 1 and 4 in both orders;
    one bound variable, so a block with t = 1 has nb = |alg| > 1."""
    grid = genuine_modules(alg)[:5]
    thetas = []
    for m in grid[2:]:
        units = np.eye(m.dim, dtype=ELEM)
        thetas += [pp_type_generator(m, units[:1]), pp_type_generator(m, units[[0, -1]])]
    contexts = [make_context([grid[1], grid[4]]), make_context([grid[4], grid[1]])]
    return [
        (theta, ctx, Budget(1, 1, candidates, 1))
        for theta in thetas
        for ctx in contexts
        for candidates in (2, 64)
    ]


def s_plus_s_calls():
    """The four calls of the S+S construction in Def(R_R)."""
    s_plus_s = fixtures.right_grid(fixtures.r2())[4]
    ctx = make_context([fixtures.mod_rr()])
    return construction_calls(s_plus_s, np.eye(2, dtype=ELEM), ctx, Budget(1, 1, 8, 3))


def demo_calls():
    """The calls of the RR and S constructions in envS at the demo budget."""
    ctx, budget = make_context([fixtures.mod_s()]), Budget(2, 2, 64, 3)
    rr = construction_calls(fixtures.mod_rr(), [[1, 0]], ctx, budget)
    return rr + construction_calls(fixtures.mod_s(), [[1]], ctx, budget)


PER_B_CALLS = {
    "s-plus-s": s_plus_s_calls,
    "demo": demo_calls,
    "tri2": lambda: two_generator_calls(fixtures.tri2()),
    "f4-dual-numbers": lambda: two_generator_calls(truncated(Field(2, 2))),
}


@pytest.mark.parametrize(
    "cells", [1, 40, linalg.WALK_CELLS, 2**20], ids=["one-a", "40", "default", "whole"]
)
@pytest.mark.parametrize("calls", PER_B_CALLS, ids=str)
def test_consequence_enum_matches_the_per_b_code_walk(calls, cells, monkeypatch):
    # the same formulas, and the same M_a solved in the same order: one
    # null_space per group of equal M_a, met at its least code
    monkeypatch.setattr(linalg, "WALK_CELLS", cells)
    for theta, ctx, budget in PER_B_CALLS[calls]():
        got, got_solved = solving(monkeypatch, consequence_enum, theta, ctx, budget)
        want, want_solved = solving(monkeypatch, per_b_consequence_enum, theta, ctx, budget)
        assert same_consequences(got, want)
        assert got_solved == want_solved


def solving(monkeypatch, enum, theta, ctx, budget):
    """What ``enum`` returns, and each matrix it solves in a walk chunk, in order."""
    with monkeypatch.context() as patch:
        chunks = spy_on_chunks(patch)
        return enum(theta, ctx, budget), [m for chunk in chunks for m in chunk.solved]


def spy_on_chunks(patch):
    """Per walk chunk of what ``patch`` runs: the walk's width, the output
    shape of each ``images`` product, the ``matmul`` calls and each matrix
    handed to ``null_space`` (shape and bytes), made before the next chunk
    or the walk's end."""
    chunks, current = [], [None]
    walk, images, matmul, null_space = linalg.walk, linalg.images, linalg.matmul, linalg.null_space

    def spied_walk(field, n, width, stop=None):
        rows = walk(field, n, width, stop)

        def chunked():
            for chunk in rows:
                current[0] = SimpleNamespace(width=width, products=[], matmuls=0, solved=[])
                chunks.append(current[0])
                yield chunk
            current[0] = None

        return chunked()

    def spied_images(field, rows, mats):
        out = images(field, rows, mats)
        if current[0] is not None:
            current[0].products.append(out.shape)
        return out

    def spied_matmul(field, a, b):
        if current[0] is not None:
            current[0].matmuls += 1
        return matmul(field, a, b)

    def spied_null_space(field, a, *rest):
        if current[0] is not None:
            current[0].solved.append((a.shape, a.tobytes()))
        return null_space(field, a, *rest)

    patch.setattr(linalg, "walk", spied_walk)
    patch.setattr(linalg, "images", spied_images)
    patch.setattr(linalg, "matmul", spied_matmul)
    patch.setattr(linalg, "null_space", spied_null_space)
    return chunks


def guard_inputs():
    """The demo-budget thetas in envS and the edge-case inputs."""
    demo = make_context([fixtures.mod_s()])
    calls = [
        (theta, demo, Budget(2, 2, candidates, 3))
        for theta in (pp_type_generator(fixtures.mod_rr(), [[1, 0]]), fixtures.xt0())
        for candidates in (1, 64)
    ]
    for alg in (fixtures.r2(), fixtures.tri2(), fixtures.f3()):
        grid = fixtures.right_grid(alg)
        thetas = [top(alg, "right", 0), bot(alg, "right", 1), top(alg, "right", 1)]
        contexts = [make_context([grid[0]]), make_context([grid[0], grid[1]]), make_context([grid[1], grid[0]])]
        calls += [(theta, ctx, Budget(2, 1, 64, 1)) for theta in thetas for ctx in contexts]
    return calls


@pytest.mark.parametrize("cells", [1, 40, linalg.WALK_CELLS], ids=["one-a", "40", "default"])
def test_each_walk_chunk_makes_two_products_within_the_cell_budget(cells, monkeypatch):
    # two images products per chunk, none past max(WALK_CELLS, one
    # a-code's cells) entries; besides them one matmul per null_space
    # (the signature), so no product per b-code
    monkeypatch.setattr(linalg, "WALK_CELLS", cells)
    for theta, ctx, budget in guard_inputs():
        with monkeypatch.context() as patch:
            chunks = spy_on_chunks(patch)
            consequence_enum(theta, ctx, budget)
        assert chunks
        for chunk in chunks:
            assert len(chunk.products) == 2
            assert max(np.prod(shape) for shape in chunk.products) <= max(cells, chunk.width)
            assert chunk.matmuls == 2 + len(chunk.solved)


ZERO_WIDTH = {
    # n = 0: theta(C) is the zero subgroup of C^0, and C = 0
    "theta-c-zero": (top(fixtures.r2(), "right", 0), [fixtures.mod_s()], "c"),
    # x = 0: C_theta is the zero module
    "c-theta-zero-dim": (bot(fixtures.r2(), "right", 1), [fixtures.mod_s()], "c"),
    # divisibility by t is x = 0 on S, and theta(0) = 0 for any theta
    "theta-g-zero": (fixtures.divt(), [fixtures.mod_s()], "g"),
    "theta-of-zero-module": (top(fixtures.r2(), "right", 1), [fixtures.right_grid(fixtures.r2())[0]], "g"),
}


def test_zero_width_rows_form_one_group():
    empty = np.zeros((5, 0), dtype=ELEM)
    assert construct._first_rows(empty).tolist() == [0]
    assert construct._first_rows(empty[:0]).tolist() == []
    rows = np.array([[1, 0], [0, 1], [1, 0], [0, 0], [0, 1]], dtype=ELEM)
    assert construct._first_rows(rows).tolist() == [0, 1, 3]


@chunk_cells
@pytest.mark.parametrize("case", ZERO_WIDTH, ids=str)
def test_consequence_enum_on_zero_width_rows(case, cells, monkeypatch):
    # the product of the zero-width side has no columns.  With no M_a
    # columns every closing pair of a block (a = 0 always closes) is one
    # group: one null_space per block
    theta, generators, zero = ZERO_WIDTH[case]
    ctx = make_context(generators)
    monkeypatch.setattr(linalg, "WALK_CELLS", cells)
    for budget in (Budget(1, 1, 64, 1), Budget(1, 2, 64, 1), Budget(1, 2, 1, 1)):
        with monkeypatch.context() as patch:
            chunks = spy_on_chunks(patch)
            got = consequence_enum(theta, ctx, budget)
        side = {"g": 0, "c": 1}[zero]
        assert all(chunk.products[side][2] == 0 for chunk in chunks)
        if zero == "c":
            assert sum(len(chunk.solved) for chunk in chunks) == (budget.bound_vars + 1) * budget.equations
        assert same_consequences(got, per_b_consequence_enum(theta, ctx, budget))
        assert same_consequences(got, oracle_consequence_enum(theta, ctx, budget))
        assert same_consequences(got, oracle_consequence_enum_on_solution_sets(theta, ctx, budget))


def oracle_verify_factorisation(state, targets):
    """The per-map loop: one ``matmul`` per basis map of Hom(B_{n+1}, T)."""
    targets = list(targets)
    field = state.ctx.algebra.field
    for target in targets:
        if state.ctx.pairs and not all(pair_closed(phi, psi, target) for phi, psi in state.ctx.pairs):
            raise ValidationFailure("target does not close the context pairs")
    failures = []
    checked = 0
    for n, f_n in enumerate(state.maps):
        b_n = state.stages[n].module
        b_next = state.stages[n + 1].module
        for t_idx, target in enumerate(targets):
            down = hom_space(b_next, target)
            if down:
                columns = np.stack(
                    [linalg.matmul(field, f_n.matrix, h.matrix).reshape(-1) for h in down], axis=1
                )
            else:
                columns = np.zeros((b_n.dim * target.dim, 0), dtype=ELEM)
            for g in hom_space(b_n, target):
                checked += 1
                if linalg.solve(field, columns, g.matrix.reshape(-1)) is None:
                    failures.append((n, t_idx, g))
    return FactorisationReport(not failures, checked, tuple(failures))


def factorisation_key(rep):
    """``ok``, ``checked`` and each failure's stage, target and map bytes."""
    failures = [(n, t, g.matrix.dtype, g.matrix.shape, g.matrix.tobytes()) for n, t, g in rep.failures]
    return rep.ok, rep.checked, failures


def construction_states():
    """The demo preenvelope and the shorter budgets of test_construct.

    The demo run (RR, [1, 0], context envS, budget small) is also the
    state of acceptance criterion 5 and test_construct's default chain.
    """
    ws = load_workspace(Path(__file__).resolve().parent.parent / "workspaces" / "demo.ws")
    rr, ctx = ws.module("RR"), ws.context("envS")
    yield run_construction(rr, [[1, 0]], ctx, ws.budget("small"))
    for budget in (Budget(2, 2, 1, 2), Budget(2, 2, 64, 1)):
        yield run_construction(rr, [[1, 0]], ctx, budget)


def test_verify_factorisation_matches_the_per_map_loop():
    s = fixtures.mod_s()
    s2, s3 = direct_sum([s, s]).module, direct_sum([s, s, s]).module
    zero = zero_module(fixtures.r2(), "right")
    for state in construction_states():
        # criterion 5's targets, a target outside the context (maps that
        # fail) and a dim-0 target (empty Homs)
        for targets in ([s, s2, s3], [fixtures.mod_rr()], [zero, s]):
            got = verify_factorisation(state, targets)
            assert factorisation_key(got) == factorisation_key(oracle_verify_factorisation(state, targets))


def oracle_purity_check(f_map):
    m, n = f_map.source, f_map.target
    field = m.algebra.field
    mono_ok, mono_wit = True, None
    for a in m.enumerate_elements():
        fa = f_map.apply(a)
        psi = pp_type_generator(n, fa.reshape(1, -1))
        if not evaluate(psi, m).contains(a):
            mono_ok, mono_wit = False, (a, psi)
            break
    epi_ok, epi_wit = True, None
    for aa in n.enumerate_elements():
        phi = pp_type_generator(n, aa.reshape(1, -1))
        sol = evaluate(phi, m)
        lhs = (
            linalg.matmul(field, sol.basis, f_map.matrix).T
            if sol.dim
            else np.zeros((n.dim, 0), dtype=ELEM)
        )
        if linalg.solve(field, lhs, aa) is None:
            epi_ok, epi_wit = False, (aa, phi)
            break
    return PurityReport(mono_ok, epi_ok, mono_wit, epi_wit)


def report_key(rep):
    """Both answers, witness element bytes and witness formula fingerprints."""

    def witness(w):
        return None if w is None else (w[0].dtype, w[0].shape, w[0].tobytes(), w[1].fingerprint())

    return rep.pure_mono, rep.pure_epi, witness(rep.mono_witness), witness(rep.epi_witness)


def assert_purity_matches(f_map):
    assert report_key(purity_check(f_map)) == report_key(oracle_purity_check(f_map))


@many
@given(data=st.data(), alg=st.sampled_from(GENUINE), side=st.sampled_from(["right", "left"]))
def test_purity_matches_the_element_loops_on_hom_combinations(data, alg, side):
    # dim-0 modules are drawn on either end; the zero map and a sum of a
    # split injection and a random hom are among the maps
    mods = [m for m in genuine_modules(alg) if m.side == side]
    m, n = data.draw(st.sampled_from(mods)), data.draw(st.sampled_from(mods))
    field = alg.field
    mode = data.draw(st.sampled_from(["hom", "zero", "injection plus hom"]))
    if mode == "injection plus hom":
        ds = direct_sum([m, n])
        n, base = ds.module, ds.injections[0].matrix
    else:
        base = np.zeros((m.dim, n.dim), dtype=ELEM)
    basis = hom_space(m, n)
    matrix = base
    if basis and mode != "zero":
        stacked = np.stack([g.matrix.reshape(-1) for g in basis])
        coeffs = sparse(data, field, (len(basis),))
        matrix = field.add(base, linalg.matvec(field, coeffs, stacked).reshape(m.dim, n.dim))
    assert_purity_matches(make_map(m, n, matrix))


GRID_ALGEBRAS = [fixtures.k2(), fixtures.r2(), fixtures.f3(), fixtures.tri2()]


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("alg", GRID_ALGEBRAS, ids=["k2", "r2", "f3", "tri2"])
def test_purity_matches_the_element_loops_on_the_grids(alg, side):
    # every ordered pair of grid modules of dimension <= 3: the zero map and
    # two random homs, plus every injection and projection of their sum
    grid = fixtures.right_grid(alg) if side == "right" else fixtures.left_grid(alg)
    grid = [m for m in grid if m.dim <= 3]
    rng = random.Random(8)
    for m, n in product(grid, repeat=2):
        maps = [make_map(m, n, np.zeros((m.dim, n.dim), dtype=ELEM))]
        maps += [_random_hom(rng, m, n) for _ in range(2)]
        ds = direct_sum([m, n])
        maps += list(ds.injections) + list(ds.projections)
        for f_map in maps:
            assert_purity_matches(f_map)


@pytest.mark.parametrize("cells", [1, 40])
@pytest.mark.parametrize("alg", [fixtures.r2(), fixtures.f3()], ids=["r2", "f3"])
def test_purity_witnesses_keep_the_code_order_across_walk_chunks(alg, cells, monkeypatch):
    # tiny chunks put most witnesses past a chunk boundary
    monkeypatch.setattr(linalg, "WALK_CELLS", cells)
    grid = [m for m in fixtures.right_grid(alg) if m.dim <= 3]
    rng = random.Random(9)
    for m, n in product(grid, repeat=2):
        for f_map in [make_map(m, n, np.zeros((m.dim, n.dim), dtype=ELEM)), _random_hom(rng, m, n)]:
            assert_purity_matches(f_map)


def oracle_first_outside(field, dim, stack):
    """The chunk loop the walk replaced: codes decoded with ``digits`` in
    runs of at most ``WALK_CELLS`` image entries, capped by hand."""
    q, cap = field.q, linalg.ENUMERATION_CAP
    total = q**dim
    step = max(1, linalg.WALK_CELLS // max(1, stack.shape[0] * dim))
    for start in range(0, min(total, cap), step):
        chunk = digits(np.arange(start, min(start + step, total, cap)), q, dim).astype(ELEM)
        for e, orbit in zip(chunk, linalg.images(field, chunk, stack)):
            if linalg.solve(field, orbit.T, e) is None:
                return e
    if total > cap:
        raise CapExceeded(f"no witness among the first {cap} of {q}^{dim} elements (cap)")
    return None


def first_outside_or_refusal(field, dim, stack):
    try:
        e = _first_outside(field, dim, stack)
    except CapExceeded as exc:
        return str(exc)
    return None if e is None else e.tobytes()


@pytest.mark.parametrize("cells", [1, 40, linalg.WALK_CELLS])
@settings(max_examples=60)
@given(data=st.data(), field=st.sampled_from(FIELDS[:4]), dim=st.integers(0, 4), h=st.integers(0, 3))
def test_first_outside_matches_the_digit_chunk_loop(cells, data, field, dim, h):
    # a stack holding a scalar matrix has every element inside its span, so
    # the walk runs to the end, or to a cap of 5 elements
    stack = elems(data, field, (h, dim, dim))
    if data.draw(st.booleans()):
        stack = np.concatenate([stack, np.eye(dim, dtype=ELEM)[None]])
    cap = data.draw(st.sampled_from([5, linalg.ENUMERATION_CAP]))
    with mock.patch.object(linalg, "WALK_CELLS", cells), mock.patch.object(linalg, "ENUMERATION_CAP", cap):
        got = first_outside_or_refusal(field, dim, stack)
        try:
            want = oracle_first_outside(field, dim, stack)
        except CapExceeded as exc:
            assert got == str(exc)
        else:
            assert got == (None if want is None else want.tobytes())


def c4_squares():
    """The pullbacks and pushouts of acceptance criterion 4, in its draw order."""
    alg = fixtures.r2()
    rng = random.Random(404)
    grid = [m for m in fixtures.right_grid(alg) if 1 <= m.dim <= 2]
    for _ in range(20):
        n, b, m = (grid[rng.randrange(len(grid))] for _ in range(3))
        ds = direct_sum([n, b])
        p = _random_automorphism(rng, ds.module).compose(ds.projections[0])
        res = pullback_pure(_random_hom(rng, m, n), p)
        yield (res.inclusion, res.inclusion_report), (res.to_source, res.to_source_report)
    for _ in range(20):
        dprime, b, m = (grid[rng.randrange(len(grid))] for _ in range(3))
        ds = direct_sum([dprime, b])
        i = ds.injections[0].compose(_random_automorphism(rng, ds.module))
        res = pushout_pure(i, _random_hom(rng, dprime, m))
        yield (res.antidiagonal, res.antidiagonal_report), (res.from_source, res.from_source_report)


def test_purity_matches_the_element_loops_on_the_c4_squares():
    for pair in c4_squares():
        for f_map, report in pair:
            assert report_key(report) == report_key(oracle_purity_check(f_map))


# -- a finite module freely realises its tuples: phi_b(M) = Hom(N, M)·b ---------


def oracle_hom_space(m, n):
    """The list-building hom basis: one matrix per null-space row of the constraint loop."""
    if m.dim == 0 or n.dim == 0:
        return []
    rows = linalg.null_space(m.algebra.field, oracle_hom_constraint_matrix(m, n))
    return [row.reshape(m.dim, n.dim) for row in rows]


def oracle_hom_stack(m, n):
    """``oracle_hom_space`` stacked, (0, m.dim, n.dim) when empty."""
    want = oracle_hom_space(m, n)
    return np.stack(want) if want else np.zeros((0, m.dim, n.dim), dtype=ELEM)


def oracle_type_solutions(n, b, m):
    """phi_b(m) for a (k, n.dim) tuple b of n, through the generator formula."""
    return evaluate(pp_type_generator(n, b), m).basis


def assert_orbits_match(n, m, tuples):
    got = hom_orbits(n, m, tuples)
    homs = hom_space(n, m)
    p, k = tuples.shape[:2]
    assert got.dtype == ELEM and got.shape == (p, len(homs), k * m.dim)
    field = n.algebra.field
    for orbit, b in zip(got, tuples):
        # entry i is b under the i-th basis map, flattened slot-major
        assert all(same_array(row, h.apply_tuple(b).reshape(-1)) for row, h in zip(orbit, homs))
        assert same_array(linalg.row_space(field, orbit), oracle_type_solutions(n, b, m))


def grid_pairs(alg, side):
    grid = fixtures.right_grid(alg) if side == "right" else fixtures.left_grid(alg)
    return product(grid, repeat=2)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("alg", GRID_ALGEBRAS, ids=["k2", "r2", "f3", "tri2"])
def test_hom_basis_is_the_stack_of_the_hom_space_list(alg, side):
    for n, m in grid_pairs(alg, side):
        want = oracle_hom_space(n, m)
        got = hom_basis(n, m)
        assert got.dtype == ELEM and got.shape == (len(want), n.dim, m.dim)
        assert same_array(got, oracle_hom_stack(n, m))
        homs = hom_space(n, m)
        assert len(homs) == len(want)
        assert all(same_array(h.matrix, w) for h, w in zip(homs, want))


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("alg", GRID_ALGEBRAS, ids=["k2", "r2", "f3", "tri2"])
def test_hom_orbits_are_the_type_generator_solutions_on_the_grids(alg, side):
    # every ordered pair of grid modules, 4 random tuples of each length 0, 1, 2
    rng = np.random.default_rng(11)
    for n, m in grid_pairs(alg, side):
        for k in (0, 1, 2):
            tuples = rng.integers(0, alg.field.q, size=(4, k, n.dim)).astype(ELEM)
            assert_orbits_match(n, m, tuples)


@many
@given(data=st.data(), alg=st.sampled_from(GENUINE), side=st.sampled_from(["right", "left"]))
def test_hom_orbits_are_the_type_generator_solutions(data, alg, side):
    # dim-0 modules are drawn on either end
    mods = [m for m in genuine_modules(alg) if m.side == side]
    n, m = data.draw(st.sampled_from(mods)), data.draw(st.sampled_from(mods))
    k, p = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 3))
    tuples = sparse(data, alg.field, (p, k, n.dim))
    assert same_array(hom_basis(n, m), oracle_hom_stack(n, m))
    assert_orbits_match(n, m, tuples)


def oracle_criterion_3_reach(fr, m, nfree):
    """The per-map list of criterion 3: the witness tuple under each hom_space map."""
    images = [h.apply_tuple(fr.tuple).reshape(-1) for h in hom_space(fr.module, m)]
    stacked = np.stack(images) if images else np.zeros((0, nfree * m.dim), dtype=ELEM)
    return linalg.row_space(m.algebra.field, stacked)


def test_criterion_3_reach_matches_the_per_map_list():
    # the formulas and grids of acceptance criterion 3, in its draw order
    rng = random.Random(303)
    for alg, count in [(fixtures.r2(), 50), (fixtures.f3(), 25), (fixtures.tri2(), 25)]:
        for _ in range(count):
            phi = fixtures.random_formula(alg, "right", rng)
            fr = free_realisation(phi)
            for m in fixtures.right_grid(alg):
                got = linalg.row_space(alg.field, hom_orbits(fr.module, m, fr.tuple[None])[0])
                assert same_array(got, oracle_criterion_3_reach(fr, m, phi.nfree))
                assert same_array(got, evaluate(phi, m).basis)


def oracle_verify_generator(state, phi):
    """The psi_m path: build each stage's type generator and order it both ways."""
    theta0 = state.stages[0].theta
    if not equivalent(phi, theta0):
        raise ValidationFailure("formula does not generate the initial tuple's pp-type")
    for stage in state.stages:
        psi_m = pp_type_generator(stage.module, stage.a_image)
        if not leq_relative(phi, psi_m, state.ctx):
            return False
        if not leq_absolute(psi_m, phi):
            return False
    return True


def with_image(state, m, a_image):
    """The state with stage m's image tuple replaced: a chain the checks can refuse."""
    stages = list(state.stages)
    stages[m] = replace(stages[m], a_image=np.asarray(a_image, dtype=ELEM))
    return replace(state, stages=tuple(stages))


def generator_states():
    """The construction states of the factorisation test, and altered chains.

    Moving the demo's image tuple to t makes its type fail the relative
    check on S; swapping the tuple of R + S, pointed by (1, 0; s), keeps
    the relative check on S and fails the absolute one.
    """
    states = list(construction_states())
    yield from states
    yield with_image(states[0], 0, [[0, 1]])
    yield with_image(states[0], 1, [[0]])
    rr, s = fixtures.mod_rr(), fixtures.mod_s()
    rs = direct_sum([rr, s]).module
    for ctx in (make_context([s]), make_context([s, rr])):
        state = run_construction(rs, [[1, 0, 0], [0, 0, 1]], ctx, Budget(1, 1, 4, 2))
        yield state
        yield with_image(state, 0, [[0, 0, 1], [1, 0, 0]])


def test_verify_generator_matches_the_psi_path():
    seen = set()
    for state in generator_states():
        alg = state.ctx.algebra
        theta0 = state.stages[0].theta
        k = theta0.nfree
        phis = [theta0, top(alg, "right", k), bot(alg, "right", k), fixtures.xt0("right")]
        for phi in phis:
            if phi.nfree != k:
                continue
            err = error_of(verify_generator, state, phi)
            assert err == error_of(oracle_verify_generator, state, phi)
            if err is None:
                got = verify_generator(state, phi)
                assert got == oracle_verify_generator(state, phi)
            seen.add(err[0] if err else got)
    # both answers and the refusal occur
    assert seen == {True, False, "ValidationFailure"}


def oracle_strict_atomic_witness(m, vectors, ctx, n, target_vectors):
    """The formula path: generator, evaluation, then the constrained solve."""
    vecs = tuple_rows(vectors, m.dim)
    tgt = tuple_rows(target_vectors, n.dim)
    if vecs.shape[0] != tgt.shape[0]:
        raise LengthMismatch("tuples of different lengths")
    phi = pp_type_generator(m, vecs)
    if not evaluate(phi, n).contains(tgt):
        raise NotInSolutionSet("target tuple does not satisfy the pp-type generator")
    hom = constrained_hom(m, n, vecs, tgt)
    if hom is None:
        raise ValidationFailure(
            "no constrained morphism despite a satisfied generator; "
            "this contradicts strict atomicity of finite modules"
        )
    return hom


@many
@given(data=st.data(), alg=st.sampled_from(GENUINE), side=st.sampled_from(["right", "left"]))
def test_strict_atomic_witness_matches_the_formula_path(data, alg, side):
    field = alg.field
    mods = [m for m in genuine_modules(alg) if m.side == side]
    m, n = data.draw(st.sampled_from(mods)), data.draw(st.sampled_from(mods))
    k = data.draw(st.integers(0, 2))
    src = sparse(data, field, (k, m.dim))
    basis = hom_basis(m, n)
    mode = data.draw(st.sampled_from(["image", "random", "short"]))
    if mode == "image" and len(basis):  # the image of src under a homomorphism
        coeffs = sparse(data, field, (len(basis),))
        h = linalg.matvec(field, coeffs, basis.reshape(len(basis), -1)).reshape(m.dim, n.dim)
        tgt = linalg.matmul(field, src, h)
    else:
        tgt = sparse(data, field, (k + (mode == "short"), n.dim))
    ctx = make_context([n]) if n.dim else make_context([m])
    err = error_of(strict_atomic_witness, m, src, n, tgt)
    assert err == error_of(oracle_strict_atomic_witness, m, src, ctx, n, tgt)
    if err is None:
        got = strict_atomic_witness(m, src, n, tgt)
        want = oracle_strict_atomic_witness(m, src, ctx, n, tgt)
        assert same_array(got.matrix, want.matrix) and got.source is m and got.target is n


# -- the replaced field builder --------------------------------------------------


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and any(a):
        shift = len(a) - 1 - dm
        c = (a[-1] * inv_lead) % p
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        while len(a) > 1 and a[-1] == 0:
            a.pop()
    return a


def oracle_modulus(p: int, d: int) -> list[int]:
    """The first monic of degree d with no monic factor of degree <= d/2."""
    def monics(deg):
        return [[(code // p**i) % p for i in range(deg)] + [1] for code in range(p**deg)]

    for cand in monics(d):
        if not any(
            _poly_mod(cand, f, p) == [0] for deg in range(1, d // 2 + 1) for f in monics(deg)
        ):
            return cand
    raise AssertionError(f"no irreducible of degree {d} over F_{p}")


def oracle_field_tables(p: int, d: int):
    """(modulus, add, mul, neg, inv) of F_{p^d}: mod p for d == 1, else the
    loop over element pairs, and the inverse of each element searched alone."""
    q = p**d
    if d == 1:
        modulus = None
        rng = np.arange(q, dtype=np.int64)
        add = ((rng[:, None] + rng[None, :]) % p).astype(ELEM)
        mul = ((rng[:, None] * rng[None, :]) % p).astype(ELEM)
        neg = ((-rng) % p).astype(ELEM)
    else:
        modulus = oracle_modulus(p, d)

        def to_digits(a):
            return [(a // p**i) % p for i in range(d)]

        def from_digits(digs):
            digs = digs + [0] * (d - len(digs))
            return sum((c % p) * p**i for i, c in enumerate(digs[:d]))

        add = np.zeros((q, q), dtype=ELEM)
        mul = np.zeros((q, q), dtype=ELEM)
        neg = np.zeros(q, dtype=ELEM)
        for a in range(q):
            da = to_digits(a)
            neg[a] = from_digits([(-c) % p for c in da])
            for b in range(q):
                db = to_digits(b)
                add[a, b] = from_digits([(x + y) % p for x, y in zip(da, db)])
                mul[a, b] = from_digits(_poly_mod(_poly_mul(da, db, p), modulus, p))
    inv = np.zeros(q, dtype=ELEM)
    for a in range(1, q):
        hits = np.nonzero(mul[a] == 1)[0]
        assert len(hits) == 1
        inv[a] = hits[0]
    return modulus, (add, mul, neg, inv)


# the 70 prime powers q <= 256
FIELD_ORDERS = [(p, d) for p in range(2, 257) if _is_prime(p) for d in range(1, 9) if p**d <= 256]


@pytest.mark.parametrize("p, d", FIELD_ORDERS, ids=[f"F{p**d}" for p, d in FIELD_ORDERS])
def test_field_tables_match_the_pair_loop(p, d):
    field = Field(p, d)
    modulus, tables = oracle_field_tables(p, d)
    assert field.modulus == modulus
    for name, want in zip(("add", "mul", "neg", "inv"), tables):
        assert same_array(getattr(field, f"{name}_table"), want)
        assert getattr(field, f"{name}_list") == want.tolist()


def check_ring_axioms(field) -> None:
    """The re-proof ``Field`` ran on every extension field it built."""
    q = field.q
    a = np.arange(q, dtype=ELEM)
    am = field.add_table
    mm = field.mul_table
    if not np.array_equal(am, am.T) or not np.array_equal(mm, mm.T):
        raise PpmodError("field tables are not commutative")
    # associativity and distributivity on all q^3 triples
    lhs = am[am[a[:, None, None], a[None, :, None]], a[None, None, :]]
    rhs = am[a[:, None, None], am[a[None, :, None], a[None, None, :]]]
    if not np.array_equal(lhs, rhs):
        raise PpmodError("addition is not associative")
    lhs = mm[mm[a[:, None, None], a[None, :, None]], a[None, None, :]]
    rhs = mm[a[:, None, None], mm[a[None, :, None], a[None, None, :]]]
    if not np.array_equal(lhs, rhs):
        raise PpmodError("multiplication is not associative")
    lhs = mm[a[:, None, None], am[a[None, :, None], a[None, None, :]]]
    rhs = am[
        mm[a[:, None, None], a[None, :, None]],
        mm[a[:, None, None], a[None, None, :]],
    ]
    if not np.array_equal(lhs, rhs):
        raise PpmodError("distributivity fails")


# the 16 orders q <= 256 with d > 1
EXTENSION_ORDERS = [(p, d) for p, d in FIELD_ORDERS if d > 1]


@pytest.mark.parametrize("p, d", EXTENSION_ORDERS, ids=[f"F{p**d}" for p, d in EXTENSION_ORDERS])
def test_extension_fields_satisfy_the_ring_axioms(p, d):
    check_ring_axioms(Field(p, d))


def test_the_ring_axiom_check_catches_broken_tables():
    assert len(EXTENSION_ORDERS) == 16
    field = Field(2, 2)
    # mul(2, 3) = mul(3, 2) set to mul(2, 2) stays commutative but is no
    # longer associative; add(0, 1) set to 0 is no longer commutative
    cases = []
    mul = field.mul_table.copy()
    mul[2, 3] = mul[3, 2] = mul[2, 2]
    cases.append((field.add_table, mul, "multiplication is not associative"))
    add = field.add_table.copy()
    add[0, 1] = 0
    cases.append((add, field.mul_table, "not commutative"))
    for add_table, mul_table, message in cases:
        broken = SimpleNamespace(q=field.q, add_table=add_table, mul_table=mul_table)
        with pytest.raises(PpmodError, match=message):
            check_ring_axioms(broken)


@pytest.mark.parametrize(
    "p, d, n", [(2, 1, 0), (2, 1, 11), (3, 1, 6), (2, 2, 5), (5, 1, 4), (3, 2, 3), (2, 3, 4)]
)
def test_digits_of_the_codes_are_all_vectors(p, d, n):
    field = Field(p, d)
    got = digits(np.arange(field.q**n), field.q, n)
    assert got.shape == (field.q**n, n)
    assert same_array(got.astype(ELEM), linalg.all_vectors(field, n))


def test_digits_of_codes_past_int32():
    codes = [0, 1, 2**31, 2**40 + 12345, 3**39 + 7, 2**62 + 3, 2**63 - 1]
    for base, width in ((2, 63), (3, 40), (7, 23), (256, 8), (10, 3)):
        got = digits(np.array(codes), base, width)
        assert got.dtype == np.int64 and got.shape == (len(codes), width)
        assert got.tolist() == [[(c // base**i) % base for i in range(width)] for c in codes]
    assert digits(np.array([[5, 6]]), 2, 3).tolist() == [[[1, 0, 1], [0, 1, 1]]]


# -- the one chunked walk of F_q^n ----------------------------------------------


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("field", [Field(2), Field(3), Field(2, 2), Field(5)], ids=repr)
def test_the_walk_is_all_vectors_in_chunks(field, n):
    listing = linalg.all_vectors(field, n)
    total = field.q**n
    for width, stop in product([0, 1, 40, 10**9], [None, total // 3 + 1]):
        chunks = list(linalg.walk(field, n, width, stop))
        rows = listing if stop is None else listing[:stop]
        most = max(1, linalg.WALK_CELLS // max(1, width))
        # full chunks of ``most`` rows, then the rest
        assert [len(chunk) for chunk in chunks] == [
            min(most, len(rows) - start) for start in range(0, len(rows), most)
        ]
        assert same_array(np.concatenate(chunks), rows)


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("field", [Field(2), Field(3), Field(2, 2), Field(5)], ids=repr)
def test_the_walk_refuses_at_the_call(field, n, monkeypatch):
    # a walk of more rows than the cap raises before its first chunk is
    # asked for; a stop at the cap walks
    cap = 20
    monkeypatch.setattr(linalg, "ENUMERATION_CAP", cap)
    total = field.q**n
    message = f"^listing F_{field.q}\\^{n} needs {total} rows > cap {cap}$"
    for width, stop in product([0, 1, 40, 10**9], [None, total // 3 + 1]):
        rows = total if stop is None else stop
        if rows > cap:
            with pytest.raises(CapExceeded, match=message):
                linalg.walk(field, n, width, stop)
        else:
            assert sum(len(chunk) for chunk in linalg.walk(field, n, width, stop)) == rows
    assert sum(len(chunk) for chunk in linalg.walk(field, n, 1, min(total, cap))) == min(total, cap)


# -- the table path of the field arithmetic --------------------------------------


def oracle_add(field, a, b):
    return field.add_table[np.asarray(a, ELEM), np.asarray(b, ELEM)]


def oracle_sub(field, a, b):
    return field.add_table[np.asarray(a, ELEM), field.neg_table[np.asarray(b, ELEM)]]


def oracle_mul(field, a, b):
    return field.mul_table[np.asarray(a, ELEM), np.asarray(b, ELEM)]


def oracle_sum(field, arr, axis=0):
    """One ``add_table`` gather per term of the summed axis."""
    arr = np.asarray(arr, ELEM)
    if arr.shape[axis] == 0:
        return np.zeros(np.delete(arr.shape, axis), dtype=ELEM)
    arr = np.moveaxis(arr, axis, 0)
    out = arr[0]
    for i in range(1, arr.shape[0]):
        out = field.add_table[out, arr[i]]
    return out


def oracle_dot(field, u, v):
    u, v = field.asarray(u), field.asarray(v)
    if u.size == 0:
        return 0
    return int(oracle_sum(field, field.mul_table[u, v]))


def oracle_matmul(field, a, b):
    """The int64 product mod p for d == 1, the ``mul_table`` gather summed by the term loop otherwise."""
    a, b = np.asarray(a, ELEM), np.asarray(b, ELEM)
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=ELEM)
    if field.d == 1:
        return ((a.astype(np.int64) @ b.astype(np.int64)) % field.p).astype(ELEM)
    return oracle_sum(field, field.mul_table[a[:, :, None], b[None, :, :]], axis=1)


# the eight orders 2..256 of characteristic 2, and F3 and F9 for the table path
KERNEL_FIELDS = [Field(2, d) for d in range(1, 9)] + [Field(3), Field(3, 2)]
kernel_fields = st.sampled_from(KERNEL_FIELDS)


def same_value(got, want):
    """Same type (a 0-d result is a numpy scalar on both paths) and same array."""
    return type(got) is type(want) and same_array(np.asarray(got), np.asarray(want))


@pytest.mark.parametrize("d", range(1, 9), ids=[f"F{2**d}" for d in range(1, 9)])
def test_characteristic_2_tables_are_bitwise(d):
    field = Field(2, d)
    a = np.arange(field.q, dtype=ELEM)
    assert same_array(field.add_table, a[:, None] ^ a[None, :])
    assert same_array(field.neg_table, a)
    # AND is the product over F2 alone: over F4, X * X = X + 1 (code 3), not 2 & 2
    assert np.array_equal(field.mul_table, a[:, None] & a[None, :]) == (d == 1)


@given(
    data=st.data(),
    field=kernel_fields,
    shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3, max_side=4),
)
def test_elementwise_arithmetic_matches_the_table_gathers(data, field, shapes):
    a = elems(data, field, shapes.input_shapes[0])
    b = elems(data, field, shapes.input_shapes[1])
    x = data.draw(st.integers(0, field.q - 1))
    for op, oracle in ((field.add, oracle_add), (field.sub, oracle_sub), (field.mul, oracle_mul)):
        for left, right in ((a, b), (x, b), (a, x), (x, x), (np.int16(x), a.tolist())):
            assert same_value(op(left, right), oracle(field, left, right))


@given(
    data=st.data(),
    field=kernel_fields,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
)
def test_sum_matches_the_term_loop(data, field, shape):
    arr = elems(data, field, shape)
    axis = data.draw(st.integers(-len(shape), len(shape) - 1))
    assert same_array(np.asarray(field.sum(arr, axis)), np.asarray(oracle_sum(field, arr, axis)))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_a_sum_is_a_fresh_array(field):
    # a one-term axis is where a loop starting from arr[0] returns a view
    for shape, axis in (((1, 3), 0), ((2, 1), 1), ((3, 2), 0)):
        arr = np.ones(shape, dtype=ELEM)
        got = field.sum(arr, axis)
        assert not np.shares_memory(got, arr)
        got[...] = 0
        assert arr.all()


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_an_empty_axis_sums_to_zeros(field):
    for shape, axis in (((0,), 0), ((0, 4), 0), ((3, 0, 2), 1), ((2, 0), -1)):
        arr = np.zeros(shape, dtype=ELEM)
        got = np.asarray(field.sum(arr, axis))
        assert same_array(got, np.asarray(oracle_sum(field, arr, axis)))
        assert not got.any()


@given(data=st.data(), field=kernel_fields, n=st.integers(0, 12))
def test_dot_matches_the_table_path(data, field, n):
    u, v = elems(data, field, (n,)), elems(data, field, (n,))
    got = field.dot(u, v)
    assert type(got) is int and got == oracle_dot(field, u, v)
    assert field.dot(u.tolist(), v.tolist()) == got


@given(data=st.data(), field=kernel_fields, m=st.integers(0, 6), k=st.integers(0, 6), n=st.integers(0, 6))
def test_matmul_matches_the_table_path(data, field, m, k, n):
    a, b = elems(data, field, (m, k)), elems(data, field, (k, n))
    assert same_array(linalg.matmul(field, a, b), oracle_matmul(field, a, b))


def test_f2_matmul_keeps_the_parity_past_int16():
    # an inner dimension of 40,000 ones wraps the int16 sum; the parity stays
    field = Field(2)
    k = 40_000
    rng = np.random.default_rng(25)
    a = rng.integers(0, 2, size=(4, k)).astype(ELEM)
    b = rng.integers(0, 2, size=(k, 3)).astype(ELEM)
    a[0] = 1
    a[1] = 0
    a[1, :32_769] = 1
    b[:, 0] = 1
    exact = a.astype(np.int64) @ b.astype(np.int64)
    assert exact[0, 0] == 40_000 and exact[1, 0] == 32_769 > np.iinfo(ELEM).max
    got = linalg.matmul(field, a, b)
    assert same_array(got, oracle_matmul(field, a, b))
    assert got[0, 0] == 0 and got[1, 0] == 1
