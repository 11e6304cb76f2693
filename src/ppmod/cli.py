"""Command line front end over workspace files.

Every subcommand loads a workspace (``--workspace``), computes one
report, prints it to stdout, and optionally writes the same bytes to
``--out``.  Reports contain no timestamps or machine-specific content,
so a repeated run produces byte-identical output.

Exit codes: 0 when the computation succeeds and any claim it checks
holds, 1 when the computation succeeds but the claim fails (a map is
not pure, an ordering does not hold, rings do not match), 2 on errors
(unparsable workspace, unknown names, invalid objects, exceeded caps).

Tuple arguments are semicolon-separated entries, each either a
bracketed coordinate row like ``[0, 1]`` or, for modules whose
dimension equals the algebra dimension, an algebra element such as
``t`` or ``(1 + t)`` taken as the image of the unit.  Matrices are
nested integer lists in source-row order.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import linalg
from .construct import run_construction, verify_factorisation, verify_generator
from .defcat import pullback_pure, purity_check, pushout_pure
from .errors import ParseError, PpmodError
from .fields import ELEM
from .formulas import (
    dual,
    equivalent,
    evaluate,
    free_realisation,
    leq_absolute,
    leq_relative,
    pp_type_generator,
)
from .lattice import DEFAULT_CAP, filter_analysis, hasse_edges, pp_lattice
from .modules import make_map, module_span
from .scalars import scalar_ring
from .tensor import herzog_zero_test, tensor_product
from .workspace import load_workspace, parse_element, parse_literal, render_workspace


def _vector_row(module, token: str, dim: int) -> np.ndarray:
    token = token.strip()
    field = module.algebra.field
    if token.startswith("["):
        vec = field.asarray(parse_literal(token, "coordinates"))
        if vec.shape != (dim,):
            raise ParseError(None, f"coordinate row {token!r} needs length {dim}")
        return vec
    if module.algebra.dim != dim:
        raise ParseError(
            None,
            f"element syntax {token!r} needs a module of dimension "
            f"{module.algebra.dim}; pass bracketed coordinates",
        )
    elem = parse_element(module.algebra, token)
    return linalg.matvec(field, module.algebra.unit, module.rho(elem))


def _parse_tuple_arg(module, text: str) -> np.ndarray:
    tokens = [t for t in (text or "").split(";") if t.strip()]
    if not tokens:
        return np.zeros((0, module.dim), dtype=ELEM)
    return np.stack([_vector_row(module, t, module.dim) for t in tokens])


def _map_arg(source, target, text: str):
    """The map source -> target whose matrix is the nested-list argument ``text``;
    a 2-D matrix needs the shape (source.dim, target.dim), as in ``make_map``."""
    mat = source.algebra.field.asarray(parse_literal(text, "matrix"))
    shape = (source.dim, target.dim)
    if mat.size != source.dim * target.dim or (mat.ndim == 2 and mat.shape != shape):
        raise ParseError(None, f"matrix needs shape {shape}")
    return make_map(source, target, mat.reshape(shape))


def _rows(vectors: np.ndarray) -> list[str]:
    return [f"  {row.tolist()}" for row in vectors]


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


# -- subcommand handlers -----------------------------------------------------


def _cmd_validate(ws, args):
    lines = ["workspace: valid"]
    for kind, table in (
        ("algebras", ws.algebras),
        ("modules", ws.modules),
        ("formulas", ws.formulas),
        ("contexts", ws.contexts),
        ("budgets", ws.budgets),
    ):
        names = ", ".join(sorted(table)) if table else "(none)"
        lines.append(f"{kind}: {len(table)} ({names})")
    lines.append(f"canonical form: {len(render_workspace(ws))} bytes")
    return lines, True


def _cmd_eval(ws, args):
    phi = ws.formula(args.formula)
    mod = ws.module(args.module)
    sol = evaluate(phi, mod)
    lines = [
        f"formula {args.formula}: {phi.render()}",
        f"module {args.module}: dimension {mod.dim}, side {mod.side}",
        f"solution dimension: {sol.dim}",
    ]
    if sol.dim:
        lines.append("solution basis:")
        lines += _rows(sol.basis)
    else:
        lines.append("solution basis: (zero subgroup)")
    verdict = True
    if args.tuple is not None:
        vecs = _parse_tuple_arg(mod, args.tuple)
        verdict = sol.contains(vecs.reshape(-1))
        lines.append(f"tuple satisfies formula: {_yes(verdict)}")
    return lines, verdict


def _cmd_order(ws, args):
    phi = ws.formula(args.smaller)
    psi = ws.formula(args.larger)
    if args.context:
        ctx = ws.context(args.context)
        holds = leq_relative(phi, psi, ctx)
        scope = f"relative to context {args.context}"
    else:
        holds = leq_absolute(phi, psi)
        scope = "absolute"
    return [
        f"ordering ({scope}): {args.smaller} <= {args.larger}",
        f"holds: {_yes(holds)}",
    ], holds


def _cmd_dual(ws, args):
    phi = ws.formula(args.formula)
    d = dual(phi)
    involutive = equivalent(dual(d), phi)
    return [
        f"formula {args.formula}: {phi.render()}",
        f"dual ({d.side} side): {d.render()}",
        f"double dual equivalent: {_yes(involutive)}",
    ], involutive


def _cmd_freereal(ws, args):
    phi = ws.formula(args.formula)
    fr = free_realisation(phi)
    sat = evaluate(phi, fr.module).contains(fr.tuple.reshape(-1))
    span = module_span(fr.module, fr.tuple).shape[0]
    lines = [
        f"formula {args.formula}: {phi.render()}",
        f"module dimension: {fr.module.dim}",
        "witness tuple:",
        *_rows(fr.tuple),
        f"witness satisfies formula: {_yes(sat)}",
        f"witness submodule span: {span} of {fr.module.dim}",
    ]
    return lines, sat


def _cmd_pptype(ws, args):
    mod = ws.module(args.module)
    vecs = _parse_tuple_arg(mod, args.tuple)
    phi = pp_type_generator(mod, vecs)
    return [
        f"module {args.module}: dimension {mod.dim}, side {mod.side}",
        "tuple:",
        *_rows(vecs),
        f"type generator: {phi.render()}",
    ], True


def _cmd_purity(ws, args):
    src = ws.module(args.source)
    tgt = ws.module(args.target)
    rep = purity_check(_map_arg(src, tgt, args.matrix))
    lines = [
        f"map: {args.source} -> {args.target}",
        f"pure monomorphism: {_yes(rep.pure_mono)}",
    ]
    if not rep.pure_mono:
        vec, psi = rep.mono_witness
        lines.append(f"  witness element {vec.tolist()} with type {psi.render()}")
    lines.append(f"pure epimorphism: {_yes(rep.pure_epi)}")
    if not rep.pure_epi:
        vec, psi = rep.epi_witness
        lines.append(f"  witness element {vec.tolist()} with type {psi.render()}")
    if args.require == "mono":
        verdict = rep.pure_mono
    elif args.require == "epi":
        verdict = rep.pure_epi
    else:
        verdict = rep.pure_mono and rep.pure_epi
    return lines, verdict


def _cmd_pullback(ws, args):
    m = ws.module(args.source)
    d = ws.module(args.cover)
    n = ws.module(args.target)
    f_map = _map_arg(m, n, args.matrix)
    p_map = _map_arg(d, n, args.cover_matrix)
    res = pullback_pure(f_map, p_map)
    lines = [
        f"pullback of {args.source} -> {args.target} along {args.cover} -> {args.target}",
        f"pullback dimension: {res.module.dim}",
        f"projection to {args.source} is a pure epimorphism: "
        f"{_yes(res.to_source_report.pure_epi)}",
        f"inclusion into the direct sum is a pure monomorphism: "
        f"{_yes(res.inclusion_report.pure_mono)}",
    ]
    verdict = res.to_source_report.pure_epi and res.inclusion_report.pure_mono
    return lines, verdict


def _cmd_pushout(ws, args):
    dprime = ws.module(args.corner)
    d = ws.module(args.cover)
    m = ws.module(args.target)
    i_map = _map_arg(dprime, d, args.mono_matrix)
    f_map = _map_arg(dprime, m, args.matrix)
    res = pushout_pure(i_map, f_map)
    lines = [
        f"pushout of {args.corner} -> {args.target} along {args.corner} -> {args.cover}",
        f"pushout dimension: {res.module.dim}",
        f"map from {args.target} is a pure monomorphism: "
        f"{_yes(res.from_source_report.pure_mono)}",
        f"antidiagonal is a pure monomorphism: "
        f"{_yes(res.antidiagonal_report.pure_mono)}",
    ]
    verdict = res.from_source_report.pure_mono and res.antidiagonal_report.pure_mono
    return lines, verdict


def _cmd_herzog(ws, args):
    m = ws.module(args.module)
    l_mod = ws.module(args.other)
    vecs = _parse_tuple_arg(m, args.tuple)
    lvecs = _parse_tuple_arg(l_mod, args.other_tuple)
    zero = herzog_zero_test(m, vecs, l_mod, lvecs)
    lines = [
        f"modules: {args.module} (tensor) {args.other}",
        "tuple:",
        *_rows(vecs),
        "other tuple:",
        *_rows(lvecs),
        f"tensor of the tuples vanishes: {_yes(zero)}",
    ]
    return lines, zero


def _cmd_tensor(ws, args):
    m = ws.module(args.module)
    l_mod = ws.module(args.other)
    t = tensor_product(m, l_mod)
    lines = [
        f"tensor product {args.module} (x) {args.other}",
        f"dimension: {t.dim}",
        f"ambient dimension: {m.dim * l_mod.dim}",
        f"relation rank: {t.rel_basis.shape[0]}",
        "basis pair classes:",
    ]
    for i in range(m.dim):
        for j in range(l_mod.dim):
            lines.append(f"  e{i + 1} (x) e{j + 1} -> {t.pair_table[i, j].tolist()}")
    return lines, True


def _cmd_lattice(ws, args):
    mod = ws.module(args.module)
    lat = pp_lattice(mod, args.arity, cap=args.cap)
    lines = [
        f"pp lattice of {args.module} in arity {args.arity}",
        f"elements: {lat.size}",
    ]
    for i, wit in enumerate(lat.witnesses):
        lines.append(f"  [{i}] dimension {lat.elements[i].dim}: {wit.render()}")
    edges = hasse_edges(lat)
    lines.append(f"covers: {len(edges)}")
    for low, high in edges:
        lines.append(f"  [{low}] < [{high}]")
    return lines, True


def _cmd_filters(ws, args):
    mod = ws.module(args.module)
    lat = pp_lattice(mod, args.arity, cap=args.cap)
    results = filter_analysis(lat, args.avoid)
    lines = [
        f"pp lattice of {args.module} in arity {args.arity}: {lat.size} elements",
        f"avoided element: [{args.avoid}]",
        f"maximal avoiding filters: {len(results)}",
    ]
    for res in results:
        members = ", ".join(f"[{i}]" for i in sorted(res.filter.members))
        lines.append(
            f"  filter {{{members}}}: generator [{res.filter.generator}], "
            f"ziegler irreducible {_yes(res.ziegler)}"
        )
    return lines, True


def _cmd_preenvelope(ws, args):
    mod = ws.module(args.module)
    ctx = ws.context(args.context)
    budget = ws.budget(args.budget)
    vecs = _parse_tuple_arg(mod, args.tuple)
    state = run_construction(mod, vecs, ctx, budget)
    lines = [
        f"preenvelope construction from {args.module} "
        f"(dimension {mod.dim}) over context {args.context}",
        "initial tuple:",
        *_rows(state.initial_tuple),
    ]
    for stage in state.stages:
        lines.append(
            f"stage {stage.index}: dimension {stage.module.dim}, "
            f"type generator: {stage.theta.render()}"
        )
        for i, j, phi in stage.scheduled:
            lines.append(f"  conjunct from row {i} slot {j}: {phi.render()}")
    if state.iso_stable_at is not None:
        lines.append(f"stabilised: yes (first isomorphism at step {state.iso_stable_at})")
    else:
        lines.append("stabilised: no")
    lines.append(f"enumeration budget exhausted: {_yes(state.budget_exhausted)}")
    fact = verify_factorisation(state, list(ctx.generators))
    if fact.ok:
        lines.append(f"factorisation check: PASS ({fact.checked} maps checked)")
    else:
        lines.append(
            f"factorisation check: FAIL ({len(fact.failures)} of "
            f"{fact.checked} maps do not factor)"
        )
    gen_ok = verify_generator(state, state.stages[0].theta)
    lines.append(f"generator check: {'PASS' if gen_ok else 'FAIL'}")
    return lines, fact.ok and gen_ok


def _cmd_scalars(ws, args):
    mod = ws.module(args.module)
    sr = scalar_ring(mod)
    lines = [
        f"module {args.module}: dimension {mod.dim}, side {mod.side}",
        f"endomorphism ring dimension: {sr.end.dim}",
        f"biendomorphism ring dimension: {sr.biend.dim}",
        f"module generators over the endomorphism ring: "
        f"{[row.tolist() for row in sr.generators]}",
    ]
    for label, syn in zip(sr.biend.labels, sr.syntheses):
        lines.append(
            f"scalar {label}: total {_yes(syn.total)}, "
            f"functional {_yes(syn.functional)}, "
            f"formula {syn.formula.render()}"
        )
    lines.append(f"definable scalars match biendomorphisms: {_yes(sr.matches_biend)}")
    return lines, sr.matches_biend


# -- parser ------------------------------------------------------------------


def non_negative_int(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


CAP_HELP = (
    "bound on |M|^(dim*arity), the pointed power that defines the top "
    "M^arity of the lattice; past it the command exits 2 (default 2^16)"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppmod",
        description="pp-formula calculus over finite modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--workspace", required=True, help="workspace file path")
        p.add_argument("--out", help="also write the report to this file")
        p.set_defaults(handler=handler)
        return p

    add("validate", _cmd_validate, "parse a workspace and summarise it")

    p = add("eval", _cmd_eval, "solution set of a formula in a module")
    p.add_argument("--formula", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--tuple", help="optional tuple to test for membership")

    p = add("order", _cmd_order, "pp ordering between two formulas")
    p.add_argument("--smaller", required=True)
    p.add_argument("--larger", required=True)
    p.add_argument("--context", help="restrict to a definable context")

    p = add("dual", _cmd_dual, "elementary dual of a formula")
    p.add_argument("--formula", required=True)

    p = add("freereal", _cmd_freereal, "free realisation of a formula")
    p.add_argument("--formula", required=True)

    p = add("pptype", _cmd_pptype, "pp-type generator of a tuple")
    p.add_argument("--module", required=True)
    p.add_argument("--tuple", required=True)

    p = add("purity", _cmd_purity, "purity of a module map")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--require", choices=("mono", "epi", "both"), default="both")

    p = add("pullback", _cmd_pullback, "pullback along a pure epimorphism")
    p.add_argument("--source", required=True, help="module M of f: M -> N")
    p.add_argument("--cover", required=True, help="module D of p: D -> N")
    p.add_argument("--target", required=True, help="common codomain N")
    p.add_argument("--matrix", required=True, help="matrix of f")
    p.add_argument("--cover-matrix", required=True, help="matrix of p")

    p = add("pushout", _cmd_pushout, "pushout along a pure monomorphism")
    p.add_argument("--corner", required=True, help="module D' of i and f")
    p.add_argument("--cover", required=True, help="module D of i: D' -> D")
    p.add_argument("--target", required=True, help="module M of f: D' -> M")
    p.add_argument("--mono-matrix", required=True, help="matrix of i")
    p.add_argument("--matrix", required=True, help="matrix of f")

    p = add("herzog", _cmd_herzog, "tensor vanishing test for two tuples")
    p.add_argument("--module", required=True)
    p.add_argument("--tuple", required=True)
    p.add_argument("--other", required=True, help="opposite-side module")
    p.add_argument("--other-tuple", required=True)

    p = add("tensor", _cmd_tensor, "tensor product of opposite-side modules")
    p.add_argument("--module", required=True)
    p.add_argument("--other", required=True)

    p = add("lattice", _cmd_lattice, "pp-definable subgroup lattice")
    p.add_argument("--module", required=True)
    p.add_argument("--arity", type=non_negative_int, default=1)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help=CAP_HELP)

    p = add("filters", _cmd_filters, "maximal avoiding filters and irreducibility")
    p.add_argument("--module", required=True)
    p.add_argument("--arity", type=non_negative_int, default=1)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help=CAP_HELP)
    p.add_argument("--avoid", type=int, default=0, help="lattice index to avoid")

    p = add("preenvelope", _cmd_preenvelope, "staged preenvelope construction")
    p.add_argument("--module", required=True)
    p.add_argument("--tuple", required=True, help="generating tuple of the module")
    p.add_argument("--context", required=True)
    p.add_argument("--budget", required=True)

    p = add("scalars", _cmd_scalars, "definable scalars and biendomorphisms")
    p.add_argument("--module", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ws = load_workspace(args.workspace)
        lines, verdict = args.handler(ws, args)
    except (PpmodError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a fault in ppmod, not in the input
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        Path(args.out).write_text(report)
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
