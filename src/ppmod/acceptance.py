"""Executable acceptance checks for the whole package.

Nine desk-scale criteria, each a function returning a
:class:`CriterionResult`; :func:`run_all` executes them in order and
:func:`main` prints one PASS/FAIL line per criterion.  The checks are
deterministic (fixed seeds) and collectively exercise duality, the
tensor-vanishing criterion, free realisations, purity transfer along
pullbacks and pushouts, the staged preenvelope construction, definable
scalars, the pp lattice, the finite Mittag-Leffler property, and the
evaluator against brute-force enumeration.
"""

from __future__ import annotations

import random
import subprocess
import sys
import tempfile
import time
from itertools import product
from pathlib import Path

import numpy as np

from . import linalg
from .construct import Budget, run_construction, verify_factorisation, verify_generator
from .defcat import make_context, pair_closed, pullback_pure, pushout_pure
from .errors import PpmodError
from .fields import ELEM
from .fixtures import (
    demo_workspace,
    f3,
    formula_corpus,
    left_grid,
    mod_rr,
    mod_rr_alt,
    mod_s,
    r2,
    random_formula,
    right_grid,
    tri2,
)
from .formulas import (
    conj,
    dual,
    evaluate,
    formula_sum,
    free_realisation,
    leq_absolute,
    top,
)
from .lattice import filter_analysis, pp_lattice
from .modules import (
    ModuleMap,
    are_isomorphic,
    constrained_hom,
    direct_sum,
    hom_basis,
    hom_orbits,
    make_map,
)
from .records import record
from .scalars import scalar_ring
from .tensor import herzog_zero_test, relative_ml_check, tensor_product
from .workspace import render_workspace


@record(eq=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"criterion {self.index} ({self.name}): {status} "
            f"[{self.seconds:.2f}s] {self.detail}"
        )


def _timed(index, name, fn) -> CriterionResult:
    start = time.perf_counter()
    passed, detail = fn()
    return CriterionResult(index, name, passed, detail, time.perf_counter() - start)


def _grids(alg):
    rg = [m for m in right_grid(alg) if m.dim <= 3]
    lg = [m for m in left_grid(alg) if m.dim <= 3]
    return rg, lg


def _paired_random_formulas(alg, side, rng, count):
    """Seeded random formula pairs sharing an arity."""
    out = []
    while len(out) < count:
        phi = random_formula(alg, side, rng)
        psi = random_formula(alg, side, rng)
        while psi.nfree != phi.nfree:
            psi = random_formula(alg, side, rng)
        out.append((phi, psi))
    return out


def criterion_1_duality() -> tuple[bool, str]:
    """Involution and exchange law of elementary duality, semantically."""
    rng = random.Random(101)
    checked = 0
    for alg in (r2(), f3(), tri2()):
        rg, lg = _grids(alg)
        for phi, psi in _paired_random_formulas(alg, "right", rng, 200):
            dd = dual(dual(phi))
            d_conj = dual(conj(phi, psi))
            d_sum = formula_sum(dual(phi), dual(psi))
            for m in rg:
                if evaluate(dd, m).key() != evaluate(phi, m).key():
                    return False, f"double dual differs on {alg.labels}, dim {m.dim}"
            for l_mod in lg:
                if (
                    evaluate(d_conj, l_mod).key()
                    != evaluate(d_sum, l_mod).key()
                ):
                    return (
                        False,
                        f"dual of meet differs on {alg.labels}, dim {l_mod.dim}",
                    )
            checked += 1
    return True, f"{checked} formula pairs, both identities on full grids"


def criterion_2_herzog() -> tuple[bool, str]:
    """Tensor-vanishing criterion against the tensor-product oracle."""
    alg = r2()
    rights = [m for m in right_grid(alg) if m.dim <= 2]
    lefts = [l for l in left_grid(alg) if l.dim <= 2]
    agreements = 0
    for m in rights:
        m_elems = m.enumerate_elements()
        for l_mod in lefts:
            l_elems = l_mod.enumerate_elements()
            t = tensor_product(m, l_mod)
            for length in (1, 2):
                for a_idx in product(range(m_elems.shape[0]), repeat=length):
                    a_tup = m_elems[list(a_idx)]
                    for l_idx in product(range(l_elems.shape[0]), repeat=length):
                        l_tup = l_elems[list(l_idx)]
                        oracle = not t.tuple_class(a_tup, l_tup).any()
                        claimed = herzog_zero_test(m, a_tup, l_mod, l_tup)
                        if oracle != claimed:
                            return (
                                False,
                                f"disagreement at dims ({m.dim},{l_mod.dim})",
                            )
                        agreements += 1
    return True, f"{agreements} tuple pairs, 100% agreement"


def criterion_3_free_realisation() -> tuple[bool, str]:
    """Every solution is hit by a morphism from the free realisation.

    The set of witness-tuple images under homomorphisms is the linear
    span of the images under a hom-space basis, the ``hom_orbits`` of the
    tuple, so coverage of the whole solution set is one subspace
    comparison; explicit homomorphisms are still produced for a sample
    of solutions as a direct check.
    """
    rng = random.Random(303)
    plan = [(r2(), 50), (f3(), 25), (tri2(), 25)]
    formulas_checked = 0
    explicit_hits = 0
    for alg, count in plan:
        field = alg.field
        rg, _ = _grids(alg)
        for _ in range(count):
            phi = random_formula(alg, "right", rng)
            fr = free_realisation(phi)
            for m in rg:
                sol = evaluate(phi, m)
                reach = linalg.row_space(field, hom_orbits(fr.module, m, fr.tuple[None])[0])
                if not linalg.subspace_eq(sol.basis, reach):
                    return False, f"unreached solutions over {alg.labels}"
                elements = sol.elements()
                sample = elements[:: max(1, elements.shape[0] // 4)]
                for flat in sample:
                    target = flat.reshape(phi.nfree, m.dim)
                    if constrained_hom(fr.module, m, fr.tuple, target) is None:
                        return False, f"unreached solution over {alg.labels}"
                    explicit_hits += 1
            formulas_checked += 1
    return True, (
        f"{formulas_checked} formulas over full grids, "
        f"{explicit_hits} explicit homomorphisms"
    )


def _random_hom(rng, source, target) -> ModuleMap:
    basis = hom_basis(source, target)
    field = source.algebra.field
    coeffs = [rng.randrange(field.q) for _ in basis]
    flat = basis.reshape(len(basis), source.dim * target.dim)
    mat = linalg.matvec(field, coeffs, flat).reshape(source.dim, target.dim)
    return make_map(source, target, mat)


def _random_automorphism(rng, m) -> ModuleMap:
    for _ in range(200):
        h = _random_hom(rng, m, m)
        if h.is_isomorphism():
            return h
    raise PpmodError("no automorphism found")


def _closed_pairs(alg, modules):
    """Corpus pairs, ordered and closed on every given module."""
    corpus = formula_corpus(alg, "right")
    pairs = []
    for phi in corpus:
        for psi in corpus:
            if phi is psi or phi.nfree != psi.nfree:
                continue
            if not leq_absolute(psi, phi):
                continue
            if all(pair_closed(phi, psi, m) for m in modules):
                pairs.append((phi, psi))
    return pairs


def criterion_4_purity_transfer() -> tuple[bool, str]:
    """Purity survives pullback along pure epis and pushout along pure monos."""
    alg = r2()
    rng = random.Random(404)
    grid = [m for m in right_grid(alg) if 1 <= m.dim <= 2]
    pairs_checked = 0
    for _ in range(20):
        n = grid[rng.randrange(len(grid))]
        b = grid[rng.randrange(len(grid))]
        m = grid[rng.randrange(len(grid))]
        ds = direct_sum([n, b])
        u = _random_automorphism(rng, ds.module)
        p = u.compose(ds.projections[0])
        f = _random_hom(rng, m, n)
        res = pullback_pure(f, p)
        if not res.to_source_report.pure_epi:
            return False, "pullback projection lost pure-epi"
        for phi, psi in _closed_pairs(alg, [m, ds.module, n]):
            if not pair_closed(phi, psi, res.module):
                return False, "closed pair opened on a pullback"
            pairs_checked += 1
    for _ in range(20):
        dprime = grid[rng.randrange(len(grid))]
        b = grid[rng.randrange(len(grid))]
        m = grid[rng.randrange(len(grid))]
        ds = direct_sum([dprime, b])
        u = _random_automorphism(rng, ds.module)
        i = ds.injections[0].compose(u)
        f = _random_hom(rng, dprime, m)
        res = pushout_pure(i, f)
        if not res.from_source_report.pure_mono:
            return False, "pushout map lost pure-mono"
        if not res.antidiagonal_report.pure_mono:
            return False, "pushout antidiagonal is not a pure mono"
        for phi, psi in _closed_pairs(alg, [dprime, ds.module, m]):
            if not pair_closed(phi, psi, res.module):
                return False, "closed pair opened on a pushout"
            pairs_checked += 1
    return True, f"20 pullbacks + 20 pushouts, {pairs_checked} pair closures"


def criterion_5_construction() -> tuple[bool, str]:
    """The worked staged construction, plus byte-identical CLI reports."""
    alg = r2()
    rr, s = mod_rr(), mod_s()
    ctx = make_context([s])
    budget = Budget(bound_vars=2, equations=2, candidates=64, stages=3)
    one = np.array([[1, 0]], dtype=ELEM)
    state = run_construction(rr, one, ctx, budget)
    if state.iso_stable_at is None:
        return False, "construction did not stabilise"
    if not are_isomorphic(state.final, s):
        return False, "final stage is not the expected simple module"
    s2 = direct_sum([s, s]).module
    s3 = direct_sum([s, s, s]).module
    fact = verify_factorisation(state, [s, s2, s3])
    if not fact.ok:
        return False, f"factorisation failed on {len(fact.failures)} maps"
    if not verify_generator(state, top(alg, "right", 1)):
        return False, "generator verification failed"
    with tempfile.TemporaryDirectory() as tmp:
        ws_path = Path(tmp) / "demo.ws"
        ws_path.write_text(render_workspace(demo_workspace()))
        cmd = [
            sys.executable,
            "-m",
            "ppmod.cli",
            "preenvelope",
            "--workspace",
            str(ws_path),
            "--module",
            "RR",
            "--tuple",
            "[1, 0]",
            "--context",
            "envS",
            "--budget",
            "small",
        ]
        runs = [
            subprocess.run(cmd, capture_output=True, timeout=120) for _ in range(2)
        ]
    if any(r.returncode != 0 for r in runs):
        return False, "CLI preenvelope run failed"
    if runs[0].stdout != runs[1].stdout:
        return False, "CLI reports differ between runs"
    if b"generator check: PASS" not in runs[0].stdout:
        return False, "CLI report is missing the generator check"
    return True, (
        f"stable at step {state.iso_stable_at}, {fact.checked} factorisations, "
        "byte-identical CLI reports"
    )


def criterion_6_scalars() -> tuple[bool, str]:
    """Definable scalars coincide with biendomorphisms on the fixture set.

    Each formula ``scalar_ring`` synthesises is evaluated on its module:
    its solution basis must be the graph [I | g] of its biendomorphism g,
    byte for byte (a theorem for finite modules, checked here)."""
    s = mod_s()
    fixtures = [
        mod_rr(),
        s,
        direct_sum([s, s]).module,
        direct_sum([mod_rr(), s]).module,
        mod_rr_alt(),
    ]
    scalars_seen = 0
    for m in fixtures:
        sr = scalar_ring(m)
        if not sr.matches_biend:
            return False, f"scalar ring differs from biendomorphisms at dim {m.dim}"
        for syn in sr.syntheses:
            graph = np.concatenate([linalg.eye(m.algebra.field, m.dim), syn.matrix], axis=1)
            solutions = evaluate(syn.formula, m).basis
            if solutions.dtype != graph.dtype or not linalg.subspace_eq(solutions, graph):
                return False, f"a scalar's formula is not the graph [I | g] at dim {m.dim}"
            scalars_seen += 1
    return True, f"5 modules, {scalars_seen} scalars, each formula's graph is [I | g]"


def criterion_7_lattice() -> tuple[bool, str]:
    """The regular module's pp lattice is the expected three-chain."""
    rr = mod_rr()
    lat = pp_lattice(rr, 1)
    if lat.size != 3:
        return False, f"lattice has {lat.size} elements, expected 3"
    dims = [e.dim for e in lat.elements]
    if dims != [0, 1, 2]:
        return False, f"lattice dimensions {dims}, expected [0, 1, 2]"
    if not (lat.leq[0, 1] and lat.leq[1, 2] and not lat.leq[2, 0]):
        return False, "lattice is not the expected chain"
    results = filter_analysis(lat, avoid=0)
    if len(results) != 1:
        return False, f"{len(results)} neg-isolated filters, expected 1"
    if not results[0].ziegler:
        return False, "the neg-isolated filter fails the irreducibility test"
    return True, "3-chain confirmed, one neg-isolated filter, irreducible"


def criterion_8_mittag_leffler() -> tuple[bool, str]:
    """Relative Mittag-Leffler maps are injective on all fixture families.

    A theorem at finite scale: a finite product is the direct sum and (x)
    commutes with finite sums, so the map is an isomorphism and the
    criterion in fact checks ``tensor_product`` on sums."""
    checked = 0
    for alg in (r2(), f3(), tri2()):
        rg, lg = _grids(alg)
        families = [[l] for l in lg]
        families += [[lg[i], lg[j]] for i in range(len(lg)) for j in range(i, len(lg))]
        for m in rg:
            for family in families:
                report = relative_ml_check(m, family)
                if not report.injective:
                    return (
                        False,
                        f"kernel witness at dim {m.dim} over {alg.labels}",
                    )
                checked += 1
    return True, f"{checked} module-family combinations, all injective"


def _enumeration_solution_set(phi, m) -> frozenset:
    """Brute-force solutions of phi in m, as a set of flat-tuple bytes."""
    field = m.algebra.field
    elems = m.enumerate_elements()
    cnt = elems.shape[0]
    total = phi.nfree + phi.nbound
    if total == 0:
        return frozenset([b""])
    images = []
    for slot in range(total):
        block = phi.a[slot] if slot < phi.nfree else phi.b[slot - phi.nfree]
        images.append(
            [linalg.matmul(field, elems, m.rho(block[j])) for j in range(phi.neq)]
        )
    codes = np.arange(cnt**total)
    idx = [(codes // cnt**s) % cnt for s in range(total)]
    mask = np.ones(len(codes), dtype=bool)
    for j in range(phi.neq):
        acc = np.zeros((len(codes), m.dim), dtype=ELEM)
        for slot in range(total):
            acc = field.add(acc, images[slot][j][idx[slot]])
        mask &= ~acc.any(axis=1)
    if phi.nfree:
        frees = np.concatenate(
            [elems[idx[i]] for i in range(phi.nfree)], axis=1
        )[mask]
    else:
        frees = np.zeros((int(mask.sum()), 0), dtype=ELEM)
    return frozenset(row.tobytes() for row in frees)


def criterion_9_enumeration() -> tuple[bool, str]:
    """The linear-algebra evaluator equals brute-force enumeration."""
    compared = 0
    for alg in (r2(), f3(), tri2()):
        for side in ("right", "left"):
            grid = right_grid(alg) if side == "right" else left_grid(alg)
            small = [m for m in grid if alg.field.q**m.dim <= 16]
            corpus = formula_corpus(alg, side)
            for m in small:
                for phi in corpus:
                    sol = evaluate(phi, m)
                    got = frozenset(row.tobytes() for row in sol.elements())
                    want = _enumeration_solution_set(phi, m)
                    if got != want:
                        return (
                            False,
                            f"mismatch over {alg.labels}, side {side}, dim {m.dim}",
                        )
                    compared += 1
    return True, f"{compared} formula-module evaluations match enumeration"


CRITERIA = (
    (1, "duality-identities", criterion_1_duality, 60.0),
    (2, "herzog-criterion", criterion_2_herzog, 120.0),
    (3, "free-realisation-universality", criterion_3_free_realisation, None),
    (4, "purity-transfer", criterion_4_purity_transfer, None),
    (5, "construction-worked-example", criterion_5_construction, None),
    (6, "definable-scalars", criterion_6_scalars, None),
    (7, "pp-lattice", criterion_7_lattice, None),
    (8, "finite-mittag-leffler", criterion_8_mittag_leffler, None),
    (9, "enumeration-cross-check", criterion_9_enumeration, None),
)


def run_all() -> list[CriterionResult]:
    results = []
    for index, name, fn, limit in CRITERIA:
        res = _timed(index, name, fn)
        if limit is not None and res.seconds > limit:
            res = CriterionResult(
                index,
                name,
                False,
                res.detail + f" (exceeded {limit:.0f}s budget)",
                res.seconds,
            )
        results.append(res)
    return results


def main() -> int:
    results = run_all()
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
