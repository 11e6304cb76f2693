"""Bad arguments to the public constructors raise a PpmodError at the door.

Each case is refused with a named ``PpmodError`` subclass whose message
names the argument, never with numpy's or Python's own error from deep
inside and never by accepting it.
"""

import re

import numpy as np
import pytest

from ppmod import (
    Budget,
    annihilator,
    are_isomorphic,
    bot,
    conj,
    consequence_enum,
    constrained_hom,
    direct_sum,
    divisibility,
    equivalent,
    evaluate,
    filter_analysis,
    formula_sum,
    hom_space,
    is_pp_definable,
    leq_absolute,
    leq_relative,
    make_context,
    make_map,
    make_module,
    pair_closed,
    pp_lattice,
    run_construction,
    top,
)
from ppmod.errors import (
    AlgebraMismatch,
    ArityMismatch,
    CapExceeded,
    DimensionMismatch,
    SideMismatch,
    ValidationFailure,
)
from ppmod.fields import Field
from ppmod.fixtures import divt, f3, mod_lr, mod_ls, mod_rr, mod_s, r2, tri2, tri2_s1, xt0
from ppmod.formulas import prefix_restriction
from ppmod.modules import free_module, regular_module

ARITY = r"^arity must be an int >= 0, not "
DOT = r"^dot takes two vectors of equal length, not shapes "

CASES = {
    "annihilator-short-r": (lambda: annihilator(r2(), "right", [1]), DimensionMismatch, "element r"),
    "divisibility-long-r": (lambda: divisibility(r2(), "right", [1, 0, 1]), DimensionMismatch, "element r"),
    "make-map-entries": (lambda: make_map(mod_rr(), mod_rr(), [1, 0, 0]), DimensionMismatch, "map matrix"),
    "make-module-bool-dim": (
        lambda: make_module(r2(), "right", True, np.zeros((2, 1, 1), dtype=np.int16)),
        DimensionMismatch,
        "^dim must be",
    ),
    "free-module-float-slots": (lambda: free_module(r2(), "right", 1.5), DimensionMismatch, "^slots must be"),
    "free-module-negative-slots": (lambda: free_module(r2(), "right", -1), DimensionMismatch, "^slots must be"),
    "budget-float": (lambda: Budget(1.5, 1, 1, 1), ValidationFailure, "budget field bound_vars"),
    "budget-bool": (lambda: Budget(True, 1, 1, 1), ValidationFailure, "budget field bound_vars"),
    "budget-str": (lambda: Budget("1", 1, 1, 1), ValidationFailure, "budget field bound_vars"),
    "filter-float": (
        lambda: filter_analysis(pp_lattice(mod_rr()), 1.5),
        ValidationFailure,
        "^avoided element is not in the lattice$",
    ),
    "filter-bool": (
        lambda: filter_analysis(pp_lattice(mod_rr()), True),
        ValidationFailure,
        "^avoided element is not in the lattice$",
    ),
    "lattice-str-cap": (lambda: pp_lattice(mod_rr(), 1, cap="x"), ValidationFailure, "^cap must be an int"),
    "definable-none-cap": (
        lambda: is_pp_definable(mod_rr(), [[0, 1]], 1, cap=None),
        ValidationFailure,
        "^cap must be an int",
    ),
    "dot-matrices": (lambda: Field(2).dot([[1, 0], [0, 1]], [[1, 1], [1, 1]]), DimensionMismatch, DOT),
    "dot-1x1-matrices": (lambda: Field(2).dot([[1]], [[1]]), DimensionMismatch, DOT),
    "dot-scalars": (lambda: Field(2).dot(1, 1), DimensionMismatch, DOT),
    "dot-vector-and-matrix": (lambda: Field(3).dot([1, 2], [[1, 2]]), DimensionMismatch, DOT),
    "dot-unequal-lengths": (lambda: Field(2, 2).dot([1, 2], [1, 2, 3]), DimensionMismatch, DOT),
}
for bad in (-1, 1.5, True, np.int64(1)):
    CASES[f"top-{bad!r}"] = (lambda bad=bad: top(r2(), "right", bad), ArityMismatch, ARITY)
    CASES[f"bot-{bad!r}"] = (lambda bad=bad: bot(r2(), "right", bad), ArityMismatch, ARITY)
    CASES[f"prefix-{bad!r}"] = (
        lambda bad=bad: prefix_restriction(top(r2(), "right", 1), bad),
        ArityMismatch,
        ARITY,
    )


# Every public entry that pairs modules, formulas or a context refuses a
# pair over different algebras or on different sides through the one
# ``modules.require_compatible``: mod_ls is a left R2-module, tri2_s1 a
# right module over another algebra (both of dim 1), the rest right
# R2-objects.
PAIRINGS = {
    "make-map": lambda other: make_map(mod_rr(), other, np.zeros((2, other.dim), dtype=np.int16)),
    "hom-space": lambda other: hom_space(mod_rr(), other),
    "are-isomorphic": lambda other: are_isomorphic(mod_s(), other),
    "constrained-hom": lambda other: constrained_hom(mod_rr(), other, [[1, 0]], [[0] * other.dim]),
    "direct-sum": lambda other: direct_sum([mod_rr(), other]),
}
FORMULA_PAIRINGS = {
    "conj": lambda other: conj(xt0(), other),
    "formula-sum": lambda other: formula_sum(xt0(), other),
    "leq-absolute": lambda other: leq_absolute(xt0(), other),
    "leq-relative": lambda other: leq_relative(xt0(), other, make_context([mod_s()])),
    "equivalent": lambda other: equivalent(xt0(), other),
}
ON_MODULE = {
    "evaluate": lambda other: evaluate(xt0(), other),
    "pair-closed": lambda other: pair_closed(xt0(), divt(), other),
}
for name, call in PAIRINGS.items():
    CASES[f"{name}-side"] = (
        lambda call=call: call(mod_ls()),
        SideMismatch,
        "^modules on different sides: right and left$",
    )
    CASES[f"{name}-algebra"] = (
        lambda call=call: call(tri2_s1()),
        AlgebraMismatch,
        "^modules over different algebras$",
    )
for name, call in FORMULA_PAIRINGS.items():
    CASES[f"{name}-side"] = (
        lambda call=call: call(xt0("left")),
        SideMismatch,
        "^formulas on different sides: right and left$",
    )
    CASES[f"{name}-algebra"] = (
        lambda call=call: call(top(tri2(), "right", 1)),
        AlgebraMismatch,
        "^formulas over different algebras$",
    )
for name, call in ON_MODULE.items():
    CASES[f"{name}-side"] = (
        lambda call=call: call(mod_ls()),
        SideMismatch,
        "^formula and module on different sides: right and left$",
    )
    CASES[f"{name}-algebra"] = (
        lambda call=call: call(tri2_s1()),
        AlgebraMismatch,
        "^formula and module over different algebras$",
    )
CASES.update(
    {
        "consequences-side": (
            lambda: consequence_enum(xt0("left"), make_context([mod_s()]), Budget(1, 1, 1, 1)),
            SideMismatch,
            "^formula and module on different sides: left and right$",
        ),
        "construction-side": (
            lambda: run_construction(
                mod_lr(), np.eye(2, dtype=np.int16), make_context([mod_s()]), Budget(1, 1, 1, 1)
            ),
            SideMismatch,
            "^module and context on different sides: left and right$",
        ),
        "construction-algebra": (
            lambda: run_construction(tri2_s1(), [[1]], make_context([mod_s()]), Budget(1, 1, 1, 1)),
            AlgebraMismatch,
            "^module and context over different algebras$",
        ),
        "context-generator-side": (
            lambda: make_context([mod_rr(), mod_lr()]),
            SideMismatch,
            "^context generators and pairs on different sides: right and left$",
        ),
        "context-generator-algebra": (
            lambda: make_context([mod_rr(), tri2_s1()]),
            AlgebraMismatch,
            "^context generators and pairs over different algebras$",
        ),
        "context-pair-side": (
            lambda: make_context([mod_rr()], [(xt0("left"), xt0("left"))]),
            SideMismatch,
            "^context generators and pairs on different sides: right and left$",
        ),
        "context-pair-algebra": (
            lambda: make_context([], [(xt0(), top(tri2(), "right", 1))]),
            AlgebraMismatch,
            "^context generators and pairs over different algebras$",
        ),
        # the pairing is checked before the dimensions are compared
        "are-isomorphic-side-unequal-dims": (
            lambda: are_isomorphic(mod_s(), mod_lr()),
            SideMismatch,
            "^modules on different sides: right and left$",
        ),
        "are-isomorphic-algebra-unequal-dims": (
            lambda: are_isomorphic(mod_rr(), tri2_s1()),
            AlgebraMismatch,
            "^modules over different algebras$",
        ),
    }
)


@pytest.mark.parametrize("case", CASES, ids=str)
def test_a_bad_argument_is_refused_at_the_door(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=message):
        call()


def test_the_pinned_messages_stay():
    with pytest.raises(ValidationFailure, match="^budget field stages must be positive$"):
        Budget(1, 1, 1, 0)
    with pytest.raises(ArityMismatch, match="^prefix narrower than the formula arity$"):
        prefix_restriction(top(r2(), "right", 2), 1)
    with pytest.raises(CapExceeded, match=r"^pointed power needs \|M\|\^2 = 16 > cap 15$"):
        pp_lattice(mod_rr(), 1, cap=15)
    with pytest.raises(CapExceeded, match=r"^pointed power needs \|M\|\^1 = 4 > cap 3$"):
        is_pp_definable(mod_rr(), [[0, 1]], 1, cap=3)
    with pytest.raises(DimensionMismatch, match="^direct sum of an empty list$"):
        direct_sum([])


@pytest.mark.parametrize(
    "m, arity, size",
    [
        (mod_rr(), 15, "1152921504606846976"),  # q^e = 2^60, written out
        (mod_rr(), 16, "2^64"),  # from 64 bits on the power is named
        (regular_module(f3(), "right"), 40, "12157665459056928801"),
        (regular_module(f3(), "right"), 41, "3^41"),  # past 64 bits at e < 64
    ],
)
def test_a_pointed_power_past_64_bits_is_named(m, arity, size):
    k = m.dim * arity
    with pytest.raises(CapExceeded, match=rf"^pointed power needs \|M\|\^{k} = {re.escape(size)} > cap 65536$"):
        pp_lattice(m, arity)
