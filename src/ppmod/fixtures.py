"""Standard small algebras, modules, and formula corpora.

These are the worked objects used throughout the test suite and the
acceptance checks:

* ``k2``: F_2 viewed as a one-dimensional algebra.
* ``r2``: F_2[t]/(t^2), basis {1, t}.
* ``f3``: F_3 as a one-dimensional algebra.
* ``tri2``: upper-triangular 2x2 matrices over F_2 (noncommutative,
  basis {e11, e12, e22}), the path algebra of the A2 quiver.

Module grids list small representatives (dimension <= 3) used for
semantic checks; the left grid of an algebra is the dual of its right
grid plus the left regular module.
"""

from __future__ import annotations

import random

import numpy as np

from .algebras import Algebra, make_algebra
from .fields import ELEM, Field
from .formulas import (
    PpFormula,
    annihilator,
    bot,
    conj,
    divisibility,
    dual,
    formula_sum,
    pp_formula,
    substitute,
    top,
)
from .memo import memo
from .modules import (
    LEFT,
    RIGHT,
    ModuleRep,
    direct_sum,
    dual_module,
    make_module,
    regular_module,
    zero_module,
)

_once = memo(lambda: ())


@_once
def f2() -> Field:
    return Field(2)


@_once
def f3_field() -> Field:
    return Field(3)


@_once
def k2() -> Algebra:
    f = f2()
    return make_algebra(f, ["1"], np.ones((1, 1, 1), dtype=ELEM), [1])


@_once
def f3() -> Algebra:
    f = f3_field()
    return make_algebra(f, ["1"], np.ones((1, 1, 1), dtype=ELEM), [1])


@_once
def r2() -> Algebra:
    """F_2[t] / (t^2) with basis {1, t}."""
    f = f2()
    c = np.zeros((2, 2, 2), dtype=ELEM)
    c[0, 0] = [1, 0]  # 1*1 = 1
    c[0, 1] = [0, 1]  # 1*t = t
    c[1, 0] = [0, 1]  # t*1 = t
    c[1, 1] = [0, 0]  # t*t = 0
    return make_algebra(f, ["1", "t"], c, [1, 0])


@_once
def tri2() -> Algebra:
    """Upper-triangular 2x2 matrices over F_2, basis {e11, e12, e22}."""
    f = f2()
    c = np.zeros((3, 3, 3), dtype=ELEM)
    c[0, 0, 0] = 1  # e11 e11 = e11
    c[0, 1, 1] = 1  # e11 e12 = e12
    c[1, 2, 1] = 1  # e12 e22 = e12
    c[2, 2, 2] = 1  # e22 e22 = e22
    return make_algebra(f, ["e11", "e12", "e22"], c, [1, 0, 1])


# -- R2 modules ------------------------------------------------------------


@_once
def mod_rr() -> ModuleRep:
    """The right regular module of r2."""
    return regular_module(r2(), RIGHT)


@_once
def mod_s() -> ModuleRep:
    """One-dimensional right r2-module with t acting as zero."""
    acts = np.zeros((2, 1, 1), dtype=ELEM)
    acts[0, 0, 0] = 1
    return make_module(r2(), RIGHT, 1, acts)


@_once
def mod_lr() -> ModuleRep:
    return regular_module(r2(), LEFT)


@_once
def mod_ls() -> ModuleRep:
    acts = np.zeros((2, 1, 1), dtype=ELEM)
    acts[0, 0, 0] = 1
    return make_module(r2(), LEFT, 1, acts)


@_once
def mod_rr_alt() -> ModuleRep:
    """Two-dimensional right module, t acting by the lower shift.

    Isomorphic to the regular module but presented in another basis, so
    basis independence gets exercised.
    """
    acts = np.zeros((2, 2, 2), dtype=ELEM)
    acts[0] = np.eye(2, dtype=ELEM)
    acts[1, 1, 0] = 1
    return make_module(r2(), RIGHT, 2, acts)


def _sum(parts: list[ModuleRep]) -> ModuleRep:
    return direct_sum(parts).module


def right_grid(alg: Algebra) -> list[ModuleRep]:
    """Deterministic list of right modules of dimension <= 3."""
    fp = alg.fingerprint()
    if fp == r2().fingerprint():
        s, rr = mod_s(), mod_rr()
        return [
            zero_module(alg, RIGHT),
            s,
            rr,
            mod_rr_alt(),
            _sum([s, s]),
            _sum([s, s, s]),
            _sum([rr, s]),
        ]
    if fp == f3().fingerprint() or fp == k2().fingerprint():
        reg = regular_module(alg, RIGHT)
        return [
            zero_module(alg, RIGHT),
            reg,
            _sum([reg, reg]),
            _sum([reg, reg, reg]),
        ]
    if fp == tri2().fingerprint():
        return [
            zero_module(alg, RIGHT),
            tri2_s1(),
            tri2_s2(),
            tri2_p1(),
            _sum([tri2_s1(), tri2_s2()]),
            regular_module(alg, RIGHT),
        ]
    raise KeyError("no fixture grid for this algebra")


def left_grid(alg: Algebra) -> list[ModuleRep]:
    mods = [dual_module(m) for m in right_grid(alg)]
    mods.append(regular_module(alg, LEFT))
    return mods


@_once
def tri2_s1() -> ModuleRep:
    """Simple right module at the first vertex (e11 acts as 1)."""
    acts = np.zeros((3, 1, 1), dtype=ELEM)
    acts[0, 0, 0] = 1
    return make_module(tri2(), RIGHT, 1, acts)


@_once
def tri2_s2() -> ModuleRep:
    acts = np.zeros((3, 1, 1), dtype=ELEM)
    acts[2, 0, 0] = 1
    return make_module(tri2(), RIGHT, 1, acts)


@_once
def tri2_p1() -> ModuleRep:
    """Projective cover of tri2_s1: span{e11, e12} of the regular module."""
    acts = np.zeros((3, 2, 2), dtype=ELEM)
    acts[0, 0, 0] = 1  # .e11 fixes e11
    acts[1, 0, 1] = 1  # e11 . e12 = e12
    acts[2, 1, 1] = 1  # e12 . e22 = e12
    return make_module(tri2(), RIGHT, 2, acts)


# -- named formulas over r2 -------------------------------------------------


def r2_t() -> np.ndarray:
    return np.array([0, 1], dtype=ELEM)


def xt0(side: str = RIGHT) -> PpFormula:
    return annihilator(r2(), side, r2_t())


def divt(side: str = RIGHT) -> PpFormula:
    return divisibility(r2(), side, r2_t())


def formula_corpus(alg: Algebra, side: str = RIGHT) -> list[PpFormula]:
    """A deterministic mixed bag of formulas used by oracle tests."""
    out = [top(alg, side, 1), bot(alg, side, 1), top(alg, side, 2)]
    for i in range(alg.dim):
        r = alg.basis_elem(i)
        out.append(annihilator(alg, side, r))
        out.append(divisibility(alg, side, r))
    ann0 = out[3]
    div0 = out[4]
    out.append(conj(ann0, div0))
    out.append(formula_sum(ann0, div0))
    out.append(dual(dual(ann0)))
    # an arity-2 linking formula: x1 . r = x2 . r' style
    f = alg.field
    a = np.zeros((2, 1, alg.dim), dtype=ELEM)
    a[0, 0] = alg.basis_elem(alg.dim - 1)
    a[1, 0] = f.neg(alg.unit)
    out.append(pp_formula(alg, side, 2, a, np.zeros((0, 1, alg.dim), ELEM)))
    # substitution instance: phi(x1 . r)
    t_mat = alg.basis_elem(alg.dim - 1).reshape(1, 1, alg.dim)
    out.append(substitute(ann0, t_mat))
    # a two-equation, two-bound-variable formula
    b = np.zeros((2, 2, alg.dim), dtype=ELEM)
    a2 = np.zeros((1, 2, alg.dim), dtype=ELEM)
    a2[0, 0] = alg.unit
    b[0, 0] = f.neg(alg.basis_elem(alg.dim - 1))
    b[1, 1] = alg.basis_elem(alg.dim - 1)
    out.append(pp_formula(alg, side, 1, a2, b))
    return out


def random_formula(
    alg: Algebra,
    side: str,
    rng: random.Random,
    max_arity: int = 2,
    max_bound: int = 2,
    max_eqs: int = 2,
) -> PpFormula:
    """Deterministic pseudo-random formula for stress tests."""
    n = rng.randint(1, max_arity)
    t = rng.randint(0, max_bound)
    m = rng.randint(1, max_eqs)
    q = alg.field.q
    a = np.array(
        [[[rng.randrange(q) for _ in range(alg.dim)] for _ in range(m)] for _ in range(n)],
        dtype=ELEM,
    )
    b = np.array(
        [[[rng.randrange(q) for _ in range(alg.dim)] for _ in range(m)] for _ in range(t)],
        dtype=ELEM,
    ).reshape(t, m, alg.dim)
    return pp_formula(alg, side, n, a, b)


def demo_workspace():
    """The standard demo workspace: R2 objects, contexts, a budget.

    Matches the checked-in ``workspaces/demo.ws`` byte for byte (a test
    keeps them in sync).
    """
    from .construct import Budget
    from .workspace import Workspace

    ws = Workspace()
    ws.add_algebra("R2", r2())
    ws.add_module("RR", "R2", mod_rr())
    ws.add_module("S", "R2", mod_s())
    ws.add_module("RS", "R2", _sum([mod_rr(), mod_s()]))
    ws.add_module("LR", "R2", mod_lr())
    ws.add_module("LS", "R2", mod_ls())
    ws.add_formula("xt0", "R2", xt0())
    ws.add_formula("divt", "R2", divt())
    ws.add_context("envS", ["S"])
    ws.add_context("pairsRR", ["RR"], [("xt0", "divt")])
    ws.add_budget("small", Budget(2, 2, 64, 3))
    return ws
