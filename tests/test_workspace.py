"""Workspace text format: canonical rendering, parsing, error reporting."""

import random
import signal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppmod import (
    load_workspace,
    parse_formula_text,
    parse_workspace,
    render_workspace,
    save_workspace,
)
from ppmod.construct import Budget
from ppmod.errors import ParseError, UnknownReference, ValidationFailure
from ppmod.fixtures import (
    demo_workspace,
    f3,
    formula_corpus,
    k2,
    left_grid,
    r2,
    random_formula,
    right_grid,
    tri2,
)
from ppmod.formulas import bot
from ppmod.modules import direct_sum, zero_module
from ppmod.workspace import Workspace, field_from_order

DEMO_PATH = Path(__file__).resolve().parent.parent / "workspaces" / "demo.ws"


def test_checked_in_demo_matches_the_fixture():
    text = DEMO_PATH.read_text()
    assert render_workspace(demo_workspace()) == text


def test_demo_roundtrip_is_byte_stable():
    text = DEMO_PATH.read_text()
    ws = parse_workspace(text)
    assert render_workspace(ws) == text
    again = parse_workspace(render_workspace(ws))
    assert render_workspace(again) == text


def test_parsed_demo_objects_are_coherent():
    ws = parse_workspace(DEMO_PATH.read_text())
    assert set(ws.algebras) == {"R2"}
    assert set(ws.modules) == {"RR", "S", "RS", "LR", "LS"}
    assert set(ws.formulas) == {"xt0", "divt"}
    assert set(ws.contexts) == {"envS", "pairsRR"}
    assert set(ws.budgets) == {"small"}
    assert ws.modules["RS"].dim == 3
    assert ws.contexts["pairsRR"].pairs[0][0].render() == ws.formulas["xt0"].render()


@pytest.mark.parametrize("alg_fn,side", [
    (r2, "right"), (r2, "left"), (tri2, "right"), (tri2, "left"), (f3, "right"),
])
def test_formula_render_parse_roundtrip(alg_fn, side):
    alg = alg_fn()
    for phi in formula_corpus(alg, side):
        body = phi.render()
        back = parse_formula_text(alg, side, phi.nfree, body)
        assert back.fingerprint() == phi.fingerprint()
        assert back.render() == body


def test_save_and_load(tmp_path):
    ws = demo_workspace()
    path = tmp_path / "w.ws"
    save_workspace(ws, path)
    back = load_workspace(path)
    assert render_workspace(back) == render_workspace(ws)


def test_missing_version_line():
    with pytest.raises(ParseError) as exc:
        parse_workspace("[algebra A]\nfield = 2\n")
    assert exc.value.line == 1


def test_unsupported_version():
    with pytest.raises(ParseError):
        parse_workspace("version = 99\n")


def test_duplicate_section_rejected():
    text = (
        "version = 1\n\n[budget b]\nbound_vars = 1\nequations = 1\n"
        "candidates = 1\nstages = 1\n\n[budget b]\nbound_vars = 2\n"
        "equations = 1\ncandidates = 1\nstages = 1\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_workspace(text)
    assert "budget" in str(exc.value)


def test_duplicate_key_rejected():
    text = "version = 1\n\n[budget b]\nbound_vars = 1\nbound_vars = 2\n"
    with pytest.raises(ParseError):
        parse_workspace(text)


def test_unknown_algebra_reference():
    text = (
        "version = 1\n\n[module M]\nalgebra = missing\nside = right\n"
        "dim = 0\nactions = []\n"
    )
    with pytest.raises(UnknownReference) as exc:
        parse_workspace(text)
    assert "missing" in str(exc.value)


def test_bad_module_wrapped_with_section_name():
    base = (
        "version = 1\n\n[algebra R2]\nfield = 2\nlabels = 1, t\n"
        "constants = [[[1,0],[0,1]],[[0,1],[0,0]]]\nunit = [1, 0]\n\n"
    )
    bad_mod = base + (
        "[module M]\nalgebra = R2\nside = right\ndim = 2\n"
        "actions = [[[1,0],[0,1]],[[0,1],[0,1]]]\n"
    )
    with pytest.raises(ValidationFailure) as exc:
        parse_workspace(bad_mod)
    assert "[module M]" in str(exc.value)


def test_unknown_label_in_formula():
    base = (
        "version = 1\n\n[algebra R2]\nfield = 2\nlabels = 1, t\n"
        "constants = [[[1,0],[0,1]],[[0,1],[0,0]]]\nunit = [1, 0]\n\n"
    )
    text = base + "[formula f]\nalgebra = R2\nside = right\narity = 1\nbody = x1*u = 0\n"
    with pytest.raises(ParseError) as exc:
        parse_workspace(text)
    assert "label" in str(exc.value)


def test_bound_variables_must_be_canonical():
    alg = r2()
    with pytest.raises(ParseError):
        parse_formula_text(alg, "right", 1, "E y2 . x1*t + y2 = 0")
    with pytest.raises(ParseError):
        parse_formula_text(alg, "right", 1, "E z1 . x1*t + z1 = 0")


def test_formula_text_variants_parse():
    alg = r2()
    # parenthesised coefficient sum and integer-scaled labels
    phi = parse_formula_text(alg, "right", 1, "x1*(1 + t) = 0")
    assert phi.nfree == 1 and phi.neq == 1
    f3_alg = f3()
    psi = parse_formula_text(f3_alg, "right", 1, "x1*2*1 = 0")
    assert int(psi.a[0, 0, 0]) == 2
    trivial = parse_formula_text(alg, "right", 1, "0 = 0")
    assert trivial.neq == 0
    left = parse_formula_text(tri2(), "left", 1, "e12*x1 = 0")
    assert left.side == "left"


def test_multiline_bracketed_values():
    text = (
        "version = 1\n\n[algebra R2]\nfield = 2\nlabels = 1, t\n"
        "constants = [[[1,0],[0,1]],\n"
        "    [[0,1],[0,0]]]\n"
        "unit = [1, 0]\n"
    )
    ws = parse_workspace(text)
    assert "R2" in ws.algebras
    assert ws.algebras["R2"].dim == 2


def test_comments_and_blank_lines_ignored():
    text = (
        "# leading comment\nversion = 1\n\n# a budget\n[budget b]\n"
        "bound_vars = 1\nequations = 1\n# inner comment\ncandidates = 4\nstages = 1\n"
    )
    ws = parse_workspace(text)
    assert ws.budgets["b"].candidates == 4


def test_missing_required_key():
    text = "version = 1\n\n[budget b]\nbound_vars = 1\n"
    with pytest.raises(ParseError):
        parse_workspace(text)


def test_workspace_add_rejects_duplicates_and_bad_names():
    ws = demo_workspace()
    with pytest.raises(ValidationFailure):
        ws.add_algebra("R2", r2())
    with pytest.raises(ValidationFailure):
        ws.add_algebra("bad name", tri2())


def test_zero_dimensional_module_roundtrip_is_byte_stable():
    ws = demo_workspace()
    ws.add_module("Z", "R2", zero_module(r2(), "right"))
    text = render_workspace(ws)
    assert "actions = [[], []]" in text
    parsed = parse_workspace(text)
    assert parsed.module("Z").actions.shape == (2, 0, 0)
    assert render_workspace(parsed) == text
    assert render_workspace(parse_workspace(render_workspace(parsed))) == text


R2_HEAD = """version = 1

[algebra R2]
field = 2
labels = 1, t
unit = [1, 0]
constants = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]

"""


@pytest.mark.parametrize(
    "section",
    [
        "[module M]\nalgebra = R2\nside = right\ndim = -1\nactions = [[], []]\n",
        "[formula phi]\nalgebra = R2\nside = right\narity = -1\nbody = 0 = 0\n",
    ],
    ids=["dim", "arity"],
)
def test_negative_counts_are_parse_errors_naming_the_line(section):
    with pytest.raises(ParseError) as exc:
        parse_workspace(R2_HEAD + section)
    assert exc.value.line == 12  # the dim or arity line
    assert str(exc.value).endswith("must be >= 0, got -1")


def one_algebra(q: int) -> str:
    return f"version = 1\n\n[algebra A]\nfield = {q}\nlabels = 1\nunit = [1]\nconstants = [[[1]]]\n"


def test_huge_field_orders_are_refused_before_any_search():
    def interrupted(signum, frame):
        raise TimeoutError("the search for a prime factor ran")

    previous = signal.signal(signal.SIGALRM, interrupted)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        for q in (257, 1000, 10000019, 2147483647, 2**61 - 1):
            with pytest.raises(ValidationFailure, match=f"field order {q} exceeds the table limit 256"):
                parse_workspace(one_algebra(q))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    for q in (-3, 0, 1, 6, 100):
        with pytest.raises(ValidationFailure, match=f"{q} is not a prime power") as exc:
            parse_workspace(one_algebra(q))
        assert str(exc.value).startswith("[algebra A] ")
    assert field_from_order(9) is field_from_order(9)
    assert (field_from_order(9).p, field_from_order(9).d) == (3, 2)


ALGEBRAS = {"K2": k2, "F3": f3, "R2": r2, "T2": tri2}


@st.composite
def workspaces(draw):
    """Fixture algebras; direct sums of grid modules, dim 0 included; random
    formulas; contexts of generators and/or closed pairs; budgets."""
    ws = Workspace()
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    counter = iter(range(10**6))
    for alg_name in draw(st.lists(st.sampled_from(sorted(ALGEBRAS)), min_size=1, max_size=2, unique=True)):
        alg = ALGEBRAS[alg_name]()
        ws.add_algebra(alg_name, alg)
        for side, grid in (("right", right_grid(alg)), ("left", left_grid(alg))):
            modules = []
            for _ in range(draw(st.integers(0, 2))):
                parts = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=3))
                modules.append(f"M{next(counter)}")
                ws.add_module(modules[-1], alg_name, direct_sum(parts).module)
            formulas = []
            for _ in range(draw(st.integers(0, 2))):
                formulas.append(f"phi{next(counter)}")
                ws.add_formula(formulas[-1], alg_name, random_formula(alg, side, rng))
            for _ in range(draw(st.integers(0, 2))):
                gens = draw(st.lists(st.sampled_from(modules), max_size=2)) if modules else []
                pairs = []
                if formulas and (not gens or draw(st.booleans())):
                    phi = draw(st.sampled_from(formulas))
                    psi = phi
                    if not gens and draw(st.booleans()):  # bot <= phi, with no generator to open it
                        psi = f"bot{next(counter)}"
                        ws.add_formula(psi, alg_name, bot(alg, side, ws.formulas[phi].nfree))
                    pairs.append((phi, psi))
                if gens or pairs:
                    ws.add_context(f"ctx{next(counter)}", gens, pairs)
    for _ in range(draw(st.integers(0, 2))):
        counts = draw(st.lists(st.integers(1, 99), min_size=4, max_size=4))
        ws.add_budget(f"b{next(counter)}", Budget(*counts))
    return ws


@given(workspaces())
def test_generated_workspaces_roundtrip(ws):
    text = render_workspace(ws)
    parsed = parse_workspace(text)
    assert render_workspace(parsed) == text
    assert {n: a.fingerprint() for n, a in parsed.algebras.items()} == {
        n: a.fingerprint() for n, a in ws.algebras.items()
    }
    assert {n: m.fingerprint() for n, m in parsed.modules.items()} == {
        n: m.fingerprint() for n, m in ws.modules.items()
    }
    assert {n: f.fingerprint() for n, f in parsed.formulas.items()} == {
        n: f.fingerprint() for n, f in ws.formulas.items()
    }
    assert parsed.context_refs == ws.context_refs
    assert {n: vars(b) for n, b in parsed.budgets.items()} == {
        n: vars(b) for n, b in ws.budgets.items()
    }
    assert (parsed.module_algebra, parsed.formula_algebra) == (ws.module_algebra, ws.formula_algebra)
