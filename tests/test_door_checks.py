"""Bad arguments to the public constructors raise a PpmodError at the door.

Each case is refused with a named ``PpmodError`` subclass whose message
names the argument, never with numpy's or Python's own error from deep
inside and never by accepting it.
"""

import numpy as np
import pytest

from ppmod import (
    Budget,
    annihilator,
    bot,
    direct_sum,
    divisibility,
    filter_analysis,
    is_pp_definable,
    make_map,
    make_module,
    pp_lattice,
    top,
)
from ppmod.errors import ArityMismatch, CapExceeded, DimensionMismatch, ValidationFailure
from ppmod.fields import Field
from ppmod.fixtures import mod_rr, r2
from ppmod.formulas import prefix_restriction
from ppmod.modules import free_module

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
