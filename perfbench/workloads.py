"""Seeded workloads of the ppmod benchmark.

Each builder turns a seed into a list of checked operations.  An
operation is a ``(kind, fn)`` pair: ``fn()`` runs one piece of exact
work through ppmod's public entry points and returns True only when
the answer passes its check (an identity, an oracle, or stored
expected output).  Inputs are made before any operation runs, so the
timed region holds only the operations themselves.

The library is always reached through module attributes
(``ppmod.evaluate``, ``linalg.row_space``), never through names bound
here, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np

import ppmod
from ppmod import fixtures, linalg
from ppmod.fields import ELEM

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"
DEMO_WS = Path("workspaces") / "demo.ws"

# Brute-force oracles enumerate (q^dim)^(free + bound) tuples; this keeps
# one enumeration at a few milliseconds.
ENUM_LIMIT = 4096
# Seeded solutions per free-realisation check that get an explicit morphism.
REACH_SAMPLES = 4


class Inputs:
    """Operations plus a digest of everything the seed chose."""

    def __init__(self):
        self.ops: list[tuple[str, object]] = []
        # per operation: None when it runs in this process, else the file in
        # which its child interpreter reports its calibration
        self.calibration_files: list[Path | None] = []
        # per operation: may it end in CapExceeded without failing?
        self.cappable: list[bool] = []
        self._hash = hashlib.sha256()

    def note(self, *parts) -> None:
        for part in parts:
            self._hash.update(repr(part).encode())

    def add(self, kind: str, fn, *noted, calibration_file: Path | None = None,
            cappable: bool = False) -> None:
        self.note(kind, *noted)
        self.ops.append((kind, fn))
        self.calibration_files.append(calibration_file)
        self.cappable.append(cappable)

    def shuffle(self, rng, start: int = 0) -> None:
        """Put the operations from ``start`` on in a seeded order.

        Operations of one kind then spread over the whole repetition, so
        the median latency rests on many calibration slices, not on the
        few timed while one block of a kind ran.
        """
        order = list(range(start, len(self.ops)))
        rng.shuffle(order)
        self.note(order)
        for seq in (self.ops, self.calibration_files, self.cappable):
            seq[start:] = [seq[i] for i in order]

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()


# -- algebras and grids ------------------------------------------------------


def _dual_numbers(field: ppmod.Field) -> ppmod.Algebra:
    """field[t]/(t^2) with basis {1, t}."""
    c = np.zeros((2, 2, 2), dtype=ELEM)
    c[0, 0] = [1, 0]
    c[0, 1] = [0, 1]
    c[1, 0] = [0, 1]
    return ppmod.make_algebra(field, ["1", "t"], c, [1, 0])


def _dual_numbers_grids(alg):
    """S, R_R, S+S, R_R+S and their duals."""
    acts = np.zeros((2, 1, 1), dtype=ELEM)
    acts[0, 0, 0] = 1
    s = ppmod.make_module(alg, "right", 1, acts)
    rr = ppmod.regular_module(alg, "right")
    right = [
        s,
        rr,
        ppmod.direct_sum([s, s]).module,
        ppmod.direct_sum([rr, s]).module,
    ]
    return right, [ppmod.dual_module(m) for m in right]


def _fixture_grids(alg):
    return fixtures.right_grid(alg), fixtures.left_grid(alg)


# -- checked operations: the calculus ---------------------------------------


def _fp(obj) -> str:
    return hashlib.sha256(repr(obj.fingerprint()).encode()).hexdigest()[:16]


def _double_dual(phi, grid) -> bool:
    dd = ppmod.dual(ppmod.dual(phi))
    return all(
        ppmod.evaluate(dd, m).key() == ppmod.evaluate(phi, m).key() for m in grid
    )


def _exchange(phi, psi, grid) -> bool:
    d_conj = ppmod.dual(ppmod.conj(phi, psi))
    d_sum = ppmod.formula_sum(ppmod.dual(phi), ppmod.dual(psi))
    return all(
        ppmod.evaluate(d_conj, l).key() == ppmod.evaluate(d_sum, l).key()
        for l in grid
    )


def _free_reach(phi, m, op_seed) -> bool:
    """phi(M) is the image of the free realisation's tuple under Hom.

    Besides the subspace comparison, a few seeded solutions are each hit
    by an explicit homomorphism.
    """
    field = m.algebra.field
    fr = ppmod.free_realisation(phi)
    sol = ppmod.evaluate(phi, m)
    images = [
        h.apply_tuple(fr.tuple).reshape(-1) for h in ppmod.hom_space(fr.module, m)
    ]
    reach = linalg.row_space(
        field,
        np.stack(images) if images else np.zeros((0, phi.nfree * m.dim), ELEM),
    )
    if not linalg.subspace_eq(sol.basis, reach):
        return False
    rng = random.Random(op_seed)
    for _ in range(REACH_SAMPLES if sol.dim else 0):
        coeffs = np.array([[rng.randrange(field.q) for _ in range(sol.dim)]], ELEM)
        target = linalg.matmul(field, coeffs, sol.basis).reshape(phi.nfree, m.dim)
        if ppmod.constrained_hom(fr.module, m, fr.tuple, target) is None:
            return False
    return True


def _random_hom(rng, source, target):
    field = source.algebra.field
    mat = np.zeros((source.dim, target.dim), dtype=ELEM)
    for h in ppmod.hom_space(source, target):
        c = rng.randrange(field.q)
        if c:
            mat = field.add(mat, field.mul(np.full(mat.shape, c, ELEM), h.matrix))
    return ppmod.make_map(source, target, mat)


def _random_automorphism(rng, m):
    for _ in range(200):
        h = _random_hom(rng, m, m)
        if h.is_isomorphism():
            return h
    raise ppmod.errors.PpmodError("no automorphism found")


class OrderedPairs:
    """Corpus pairs (phi, psi) with psi <= phi, found by the first caller."""

    def __init__(self, corpus):
        self.corpus = corpus
        self._pairs = None

    def get(self):
        if self._pairs is None:
            self._pairs = [
                (phi, psi)
                for phi in self.corpus
                for psi in self.corpus
                if phi is not psi
                and phi.nfree == psi.nfree
                and ppmod.leq_absolute(psi, phi)
            ]
        return self._pairs


def _pairs_close(pairs, modules, target) -> bool:
    """Every ordered pair closed on ``modules`` closes on ``target``."""
    for phi, psi in pairs.get():
        if all(ppmod.pair_closed(phi, psi, m) for m in modules):
            if not ppmod.pair_closed(phi, psi, target):
                return False
    return True


def _pullback(pairs, n, b, m, op_seed) -> bool:
    rng = random.Random(op_seed)
    ds = ppmod.direct_sum([n, b])
    p = _random_automorphism(rng, ds.module).compose(ds.projections[0])
    f = _random_hom(rng, m, n)
    res = ppmod.pullback_pure(f, p)
    if not res.to_source_report.pure_epi:
        return False
    return _pairs_close(pairs, [m, ds.module, n], res.module)


def _pushout(pairs, dprime, b, m, op_seed) -> bool:
    rng = random.Random(op_seed)
    ds = ppmod.direct_sum([dprime, b])
    i = ds.injections[0].compose(_random_automorphism(rng, ds.module))
    f = _random_hom(rng, dprime, m)
    res = ppmod.pushout_pure(i, f)
    if not (res.from_source_report.pure_mono and res.antidiagonal_report.pure_mono):
        return False
    return _pairs_close(pairs, [dprime, ds.module, m], res.module)


def _herzog(m, l_mod, tuple_pairs) -> bool:
    """The zero test agrees with the class in the built tensor product."""
    t = ppmod.tensor_product(m, l_mod)
    for a_tup, l_tup in tuple_pairs:
        oracle = not t.tuple_class(a_tup, l_tup).any()
        if ppmod.herzog_zero_test(m, a_tup, l_mod, l_tup) != oracle:
            return False
    return True


def _mittag_leffler(m, family) -> bool:
    """The canonical map is injective, checked on its matrix.

    For a finite family the map is an isomorphism: the matrix is square,
    of side dim M (x) (+ L_i) = sum of dim M (x) L_i, and of full rank.
    """
    report = ppmod.relative_ml_check(m, family)
    side = ppmod.tensor_product(m, ppmod.direct_sum(family).module).dim
    if report.matrix.shape != (side, side):
        return False
    if side != sum(ppmod.tensor_product(m, l_mod).dim for l_mod in family):
        return False
    full_rank = linalg.null_space(m.algebra.field, report.matrix.T).shape[0] == 0
    return report.injective and full_rank


def enumeration_solutions(phi, m) -> frozenset:
    """Brute-force solutions of phi in m, as flat-tuple bytes."""
    field = m.algebra.field
    elems = m.enumerate_elements()
    cnt = elems.shape[0]
    total = phi.nfree + phi.nbound
    coeff = [phi.a[s] if s < phi.nfree else phi.b[s - phi.nfree] for s in range(total)]
    images = [
        [linalg.matmul(field, elems, m.rho(coeff[s][j])) for j in range(phi.neq)]
        for s in range(total)
    ]
    codes = np.arange(cnt**total)
    idx = [(codes // cnt**s) % cnt for s in range(total)]
    mask = np.ones(len(codes), dtype=bool)
    for j in range(phi.neq):
        acc = np.zeros((len(codes), m.dim), dtype=ELEM)
        for s in range(total):
            acc = field.add(acc, images[s][j][idx[s]])
        mask &= ~acc.any(axis=1)
    frees = np.concatenate([elems[idx[i]] for i in range(phi.nfree)], axis=1)[mask]
    return frozenset(row.tobytes() for row in frees)


def _enumeration(phi, m) -> bool:
    got = frozenset(row.tobytes() for row in ppmod.evaluate(phi, m).elements())
    return got == enumeration_solutions(phi, m)


def _random_pairs(alg, side, rng, count):
    out = []
    while len(out) < count:
        phi = fixtures.random_formula(alg, side, rng)
        psi = fixtures.random_formula(alg, side, rng)
        while psi.nfree != phi.nfree:
            psi = fixtures.random_formula(alg, side, rng)
        out.append((phi, psi))
    return out


def _shaped_formula(alg, side, rng, nfree, nbound, neq):
    """A formula drawn as ``fixtures.random_formula`` draws one, of a given shape."""
    q, d = alg.field.q, alg.dim
    a = np.array(
        [[[rng.randrange(q) for _ in range(d)] for _ in range(neq)] for _ in range(nfree)],
        dtype=ELEM,
    )
    b = np.array(
        [[[rng.randrange(q) for _ in range(d)] for _ in range(neq)] for _ in range(nbound)],
        dtype=ELEM,
    ).reshape(nbound, neq, d)
    return ppmod.pp_formula(alg, side, nfree, a, b)


def _random_tuple(rng, q, length, dim):
    return np.array(
        [[rng.randrange(q) for _ in range(dim)] for _ in range(length)], dtype=ELEM
    )


# Operations per algebra in one repetition of a calculus workload: a few
# seconds on one core, with counts fixed so that the mix of operation kinds,
# and with it the median latency, does not depend on the seed.  The
# enumeration count is a target, split evenly over fixed classes.
CALCULUS_PLAN = {
    "duality_pairs": 60,
    "reach_formulas": 10,
    "herzog_ops": 12,
    "herzog_tuples": 6,
    "ml_ops": 16,
    "enum_ops": 400,
}


def _add_calculus(inputs: Inputs, alg, right, left, rng) -> None:
    plan = CALCULUS_PLAN
    q = alg.field.q
    inputs.note(alg.fingerprint(), [m.fingerprint() for m in right + left])

    for phi, psi in _random_pairs(alg, "right", rng, plan["duality_pairs"]):
        inputs.add("duality", partial(_double_dual, phi, right), _fp(phi))
        inputs.add("duality", partial(_exchange, phi, psi, left), _fp(phi), _fp(psi))

    for _ in range(plan["reach_formulas"]):
        phi = fixtures.random_formula(alg, "right", rng)
        for m in right:
            op_seed = rng.randrange(2**32)
            inputs.add("free-reach", partial(_free_reach, phi, m, op_seed),
                       _fp(phi), _fp(m), op_seed)

    # Fixed module triples: the pullback and pushout dimensions, and so the
    # enumerations inside purity_check, do not depend on the seed.
    pairs = OrderedPairs(fixtures.formula_corpus(alg, "right"))
    small = [m for m in right if 1 <= m.dim <= 2]
    for i in range(len(small)):
        n, b, m = (small[(i + j) % len(small)] for j in range(3))
        op_seed = rng.randrange(2**32)
        square = _pullback if i % 2 == 0 else _pushout
        inputs.add("purity", partial(square, pairs, n, b, m, op_seed),
                   square.__name__, _fp(n), _fp(b), _fp(m), op_seed)

    small_left = [l for l in left if 1 <= l.dim <= 2]
    for _ in range(plan["herzog_ops"]):
        m, l_mod = rng.choice(small), rng.choice(small_left)
        tuples = []
        for _ in range(plan["herzog_tuples"]):
            length = rng.randint(1, 2)
            tuples.append((_random_tuple(rng, q, length, m.dim),
                           _random_tuple(rng, q, length, l_mod.dim)))
        inputs.add("herzog", partial(_herzog, m, l_mod, tuples),
                   _fp(m), _fp(l_mod), [(a.tobytes(), b.tobytes()) for a, b in tuples])

    for _ in range(plan["ml_ops"]):
        m = rng.choice(right)
        family = [rng.choice(left) for _ in range(rng.randint(1, 2))]
        inputs.add("mittag-leffler", partial(_mittag_leffler, m, family),
                   _fp(m), [_fp(l) for l in family])

    # A fixed set of (module, formula shape) classes within the oracle's
    # limit; only the coefficients are seeded.
    classes = [
        (side, m, nfree, nbound)
        for side, grid in (("right", right), ("left", left))
        for m in grid
        for nfree in (1, 2)
        for nbound in (0, 1, 2)
        if (q**m.dim) ** (nfree + nbound) <= ENUM_LIMIT
    ]
    per_class = round(plan["enum_ops"] / len(classes))
    for side, m, nfree, nbound in classes:
        for i in range(per_class):
            phi = _shaped_formula(alg, side, rng, nfree, nbound, 1 + i % 2)
            inputs.add("enumeration", partial(_enumeration, phi, m), _fp(phi), _fp(m))


def build_calculus_f2(seed: int) -> Inputs:
    inputs = Inputs()
    rng = random.Random(seed)
    for alg in (fixtures.r2(), fixtures.tri2()):
        _add_calculus(inputs, alg, *_fixture_grids(alg), rng)
    inputs.shuffle(rng)
    return inputs


def build_calculus_fq(seed: int) -> Inputs:
    inputs = Inputs()
    rng = random.Random(seed)
    f3 = fixtures.f3()
    _add_calculus(inputs, f3, *_fixture_grids(f3), rng)
    for field in (ppmod.Field(5), ppmod.Field(2, 2)):
        alg = _dual_numbers(field)
        _add_calculus(inputs, alg, *_dual_numbers_grids(alg), rng)
    inputs.shuffle(rng)
    return inputs


# -- checked operations: lattices, definability, scalars ---------------------


def _expected_lattices() -> dict:
    return json.loads((EXPECTED_DIR / "lattices.json").read_text())


def lattice_digest(lat) -> str:
    h = hashlib.sha256()
    for el in lat.elements:
        h.update(repr(el.basis.shape).encode())
        h.update(el.basis.tobytes())
    return h.hexdigest()


def _filters_ok(lat, avoid, found) -> bool:
    """Each reported filter avoids ``avoid``, is a filter, and is maximal."""
    size = lat.size
    ups = [frozenset(j for j in range(size) if lat.leq[g, j]) for g in range(size)]
    avoiding = [u for u in ups if avoid not in u]
    maximal = {u for u in avoiding if not any(o > u for o in avoiding)}
    got = set()
    for res in found:
        members = res.filter.members
        for i in members:
            if any(lat.leq[i, j] and j not in members for j in range(size)):
                return False
            if any(int(lat.meet[i, j]) not in members for j in members):
                return False
        got.add(members)
    return got == maximal


def _lattice(m, arity, key, expected, lattices, op_seed) -> bool:
    lat = ppmod.pp_lattice(m, arity)
    lattices[key] = lat
    for el, w in zip(lat.elements, lat.witnesses):
        if not linalg.subspace_eq(ppmod.evaluate(w, m).basis, el.basis):
            return False
    if lat.elements[0].dim != 0 or lat.elements[-1].dim != m.dim * arity:
        return False
    if key in expected and expected[key] != lattice_digest(lat):
        return False
    avoid = random.Random(op_seed).randrange(lat.size)
    if not _filters_ok(lat, avoid, ppmod.filter_analysis(lat, avoid)):
        return False
    return True


def _definable(m, arity, rows, key, lattices) -> bool:
    field = m.algebra.field
    res = ppmod.is_pp_definable(m, rows, arity)
    span = linalg.row_space(field, rows)
    if not linalg.subspace_le(field, span, res.closure):
        return False
    if not linalg.subspace_eq(ppmod.evaluate(res.witness, m).basis, res.closure):
        return False
    if res.definable != linalg.subspace_eq(span, res.closure):
        return False
    lat = lattices.get(key)
    if lat is None:
        return True
    # the closure is the least lattice element above the span
    above = [
        el.basis for el in lat.elements if linalg.subspace_le(field, span, el.basis)
    ]
    return any(linalg.subspace_eq(b, res.closure) for b in above) and all(
        linalg.subspace_le(field, res.closure, b) for b in above
    )


def _scalars(m) -> bool:
    sr = ppmod.scalar_ring(m)
    return sr.matches_biend and all(s.total and s.functional for s in sr.syntheses)


# Queries per (case, span size) class, by arity.  Arity-2 queries cost
# two to five times as much as arity-1 ones; with equal counts the median
# latency fell in the gap between the two and moved by 10 % from run to
# run, so most queries are arity 1 and the median lies among them.
QUERIES_PER_CLASS = {1: 16, 2: 4}


def lattice_cases():
    """(key, module, arity) for every pp_lattice call of the workload."""
    for alg in (fixtures.r2(), fixtures.f3(), fixtures.tri2()):
        right, left = _fixture_grids(alg)
        for side, grid in (("right", right), ("left", left)):
            for i, m in enumerate(grid):
                for arity in (1, 2):
                    yield f"{'/'.join(alg.labels)}:{side}:{i}:{arity}", m, arity


def build_lattice(seed: int) -> Inputs:
    inputs = Inputs()
    rng = random.Random(seed)
    expected = _expected_lattices()
    lattices: dict = {}
    cases = list(lattice_cases())
    # Only the cases that hit CapExceeded when the digests were stored may
    # end in it; on any other case it fails the operation.
    for key, m, arity in cases:
        op_seed = rng.randrange(2**32)
        inputs.add("pp-lattice",
                   partial(_lattice, m, arity, key, expected, lattices, op_seed),
                   key, op_seed, cappable=key not in expected)
    # A fixed set of (case, span size) classes; only the spans are seeded,
    # so the mix of query costs, and the median latency, hardly move.
    for round_ in range(max(QUERIES_PER_CLASS.values())):
        for key, m, arity in cases:
            if round_ >= QUERIES_PER_CLASS[arity]:
                continue
            for k in (1, 2) if m.dim else ():
                rows = _random_tuple(rng, m.algebra.field.q, k, m.dim * arity)
                inputs.add("definable",
                           partial(_definable, m, arity, rows, key, lattices),
                           key, rows.tobytes())
    for key, m, arity in cases:
        if arity == 1:
            inputs.add("scalars", partial(_scalars, m), key)
    # queries read the lattices, so only they are shuffled, after them
    inputs.shuffle(rng, start=len(cases))
    return inputs


# -- checked operations: the command line ------------------------------------


def cli_cases() -> list[dict]:
    """The 15 commands with their arguments and expected exit codes."""
    return json.loads((EXPECTED_DIR / "cli.json").read_text())


def _cli(argv, expected_code, expected_out, calibration_file, trace_file) -> bool:
    cmd = [sys.executable, str(BENCH_DIR / "cli_launch.py"),
           str(calibration_file), str(trace_file or "-"), *argv]
    proc = subprocess.run(cmd, capture_output=True, timeout=120)
    return proc.returncode == expected_code and proc.stdout == expected_out


def build_cli_demo(seed: int, out_dir: Path, traced: bool) -> Inputs:
    """The seed is unused: the commands and the workspace are fixed.

    Each command writes its calibration (and, traced, its layer totals)
    under ``out_dir``.
    """
    del seed
    inputs = Inputs()
    ppmod.load_workspace(DEMO_WS)
    for i, case in enumerate(cli_cases()):
        argv = [a.replace("{workspace}", str(DEMO_WS)) for a in case["args"]]
        expected_out = (EXPECTED_DIR / "cli" / f"{case['name']}.out").read_bytes()
        calibration_file = out_dir / f"cli-{i:02d}.cal"
        trace_file = out_dir / f"cli-{i:02d}.json" if traced else None
        inputs.add(case["name"],
                   partial(_cli, argv, case["code"], expected_out, calibration_file, trace_file),
                   argv, case["code"], expected_out, calibration_file=calibration_file)
    return inputs


# The workloads whose operations run in the worker's own process.
BUILDERS = {
    "calculus-f2": build_calculus_f2,
    "calculus-fq": build_calculus_fq,
    "lattice": build_lattice,
}
