"""Command line interface: exit codes, report text, determinism.

Exit convention throughout: 0 when the command's claim holds, 1 when
the mathematical answer is negative, 2 on any usage or data error, 3 on
an unexpected exception (an internal error).
"""

import contextlib
import io
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ppmod.cli import main

DEMO = str(Path(__file__).resolve().parent.parent / "workspaces" / "demo.ws")

GOLDEN_PREENVELOPE = """\
preenvelope construction from RR (dimension 2) over context envS
initial tuple:
  [1, 0]
stage 0: dimension 2, type generator: 0 = 0
stage 1: dimension 1, type generator: x1*t = 0
  conjunct from row 1 slot 1: x1*t = 0
stage 2: dimension 1, type generator: x1*t = 0
  conjunct from row 1 slot 2: 0 = 0
  conjunct from row 2 slot 1: x1*t = 0
stage 3: dimension 1, type generator: x1*t = 0
  conjunct from row 1 slot 3: x1*t = 0
  conjunct from row 2 slot 2: x1*t = 0
  conjunct from row 3 slot 1: x1*t = 0
stabilised: yes (first isomorphism at step 1)
enumeration budget exhausted: no
factorisation check: PASS (3 maps checked)
generator check: PASS
"""

GOLDEN_EVAL = """\
formula xt0: x1*t = 0
module RR: dimension 2, side right
solution dimension: 1
solution basis:
  [0, 1]
"""


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_summarises_the_workspace(capsys):
    code, out, err = run(["validate", "--workspace", DEMO], capsys)
    assert code == 0 and err == ""
    assert "algebras: 1" in out
    assert "modules: 5" in out


def test_eval_report_is_golden(capsys):
    code, out, err = run(
        ["eval", "--workspace", DEMO, "--formula", "xt0", "--module", "RR"], capsys
    )
    assert code == 0
    assert out == GOLDEN_EVAL


def test_eval_with_satisfying_tuple(capsys):
    code, out, _ = run(
        ["eval", "--workspace", DEMO, "--formula", "xt0", "--module", "RR",
         "--tuple", "[0, 1]"], capsys
    )
    assert code == 0
    assert "satisfies" in out


def test_eval_with_failing_tuple(capsys):
    code, out, _ = run(
        ["eval", "--workspace", DEMO, "--formula", "xt0", "--module", "RR",
         "--tuple", "[1, 0]"], capsys
    )
    assert code == 1
    assert "satisfies formula: no" in out


def test_eval_accepts_algebra_element_tuples(capsys):
    code, out, _ = run(
        ["eval", "--workspace", DEMO, "--formula", "xt0", "--module", "RR",
         "--tuple", "t"], capsys
    )
    assert code == 0


def test_order_both_directions(capsys):
    code, _, _ = run(
        ["order", "--workspace", DEMO, "--smaller", "divt", "--larger", "xt0"],
        capsys,
    )
    assert code == 0
    code, _, _ = run(
        ["order", "--workspace", DEMO, "--smaller", "xt0", "--larger", "divt"],
        capsys,
    )
    assert code == 1


def test_order_relative_to_context(capsys):
    code, out, _ = run(
        ["order", "--workspace", DEMO, "--smaller", "xt0", "--larger", "divt",
         "--context", "pairsRR"], capsys
    )
    assert code == 0
    assert "relative" in out


def test_dual_and_freereal(capsys):
    code, out, _ = run(["dual", "--workspace", DEMO, "--formula", "xt0"], capsys)
    assert code == 0
    assert "left side" in out
    code, out, _ = run(["freereal", "--workspace", DEMO, "--formula", "divt"], capsys)
    assert code == 0
    assert "witness" in out


def test_pptype(capsys):
    code, out, _ = run(
        ["pptype", "--workspace", DEMO, "--module", "RR", "--tuple", "[0, 1]"], capsys
    )
    assert code == 0
    assert "generator" in out


def test_purity_split_projection_is_pure_epi(capsys):
    code, out, _ = run(
        ["purity", "--workspace", DEMO, "--source", "RS", "--target", "S",
         "--matrix", "[[0], [0], [1]]", "--require", "epi"], capsys
    )
    assert code == 0


def test_purity_radical_embedding_fails_mono(capsys):
    code, out, _ = run(
        ["purity", "--workspace", DEMO, "--source", "S", "--target", "RR",
         "--matrix", "[[0, 1]]", "--require", "mono"], capsys
    )
    assert code == 1
    assert "witness" in out


def test_purity_rejects_non_equivariant_matrix(capsys):
    code, _, err = run(
        ["purity", "--workspace", DEMO, "--source", "RR", "--target", "S",
         "--matrix", "[[0], [1]]", "--require", "epi"], capsys
    )
    assert code == 2
    assert err.startswith("error:")


def test_herzog(capsys):
    code, out, _ = run(
        ["herzog", "--workspace", DEMO, "--module", "RR", "--tuple", "t",
         "--other", "LS", "--other-tuple", "[1]"], capsys
    )
    assert code == 0
    assert "vanishes" in out


def test_tensor(capsys):
    code, out, _ = run(
        ["tensor", "--workspace", DEMO, "--module", "RR", "--other", "LR"], capsys
    )
    assert code == 0
    assert "dimension: 2" in out


def test_lattice_and_filters(capsys):
    code, out, _ = run(["lattice", "--workspace", DEMO, "--module", "RR"], capsys)
    assert code == 0
    assert "elements: 3" in out
    code, out, _ = run(
        ["filters", "--workspace", DEMO, "--module", "RR", "--avoid", "0"], capsys
    )
    assert code == 0
    assert "maximal avoiding filters: 1" in out
    assert "ziegler irreducible yes" in out


def test_a_lattice_past_the_table_bound_exits_2(capsys):
    # S's lattice in arity 7 has 29,212 elements; its pointed power passes the cap
    def interrupted(signum, frame):
        raise TimeoutError("the join-closure ran on")

    previous = signal.signal(signal.SIGALRM, interrupted)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        code, out, err = run(
            ["lattice", "--workspace", DEMO, "--module", "S", "--arity", "7"], capsys
        )
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2 and out == ""
    assert err.startswith("error: lattice tables need at least 1025^2") and err.count("\n") == 1


def test_scalars_command(capsys):
    code, out, _ = run(["scalars", "--workspace", DEMO, "--module", "RR"], capsys)
    assert code == 0
    assert "match biendomorphisms: yes" in out


def test_preenvelope_golden_report(capsys):
    args = ["preenvelope", "--workspace", DEMO, "--module", "RR",
            "--tuple", "[1, 0]", "--context", "envS", "--budget", "small"]
    code, out, _ = run(args, capsys)
    assert code == 0
    assert out == GOLDEN_PREENVELOPE


def test_reports_are_deterministic(capsys):
    args = ["scalars", "--workspace", DEMO, "--module", "RS"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second


def test_out_flag_writes_the_report(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    code, out, _ = run(
        ["eval", "--workspace", DEMO, "--formula", "xt0", "--module", "RR",
         "--out", str(out_file)], capsys
    )
    assert code == 0
    assert out_file.read_text() == out


def test_unknown_name_is_an_error(capsys):
    code, _, err = run(
        ["eval", "--workspace", DEMO, "--formula", "nope", "--module", "RR"], capsys
    )
    assert code == 2
    assert err.startswith("error:")
    assert "nope" in err


def test_missing_workspace_file_is_an_error(capsys):
    code, _, err = run(
        ["validate", "--workspace", "/nonexistent/x.ws"], capsys
    )
    assert code == 2
    assert err.startswith("error:")


def test_pullback_and_pushout_commands(capsys):
    code, out, _ = run(
        ["pullback", "--workspace", DEMO, "--source", "RR", "--cover", "RS",
         "--target", "S", "--matrix", "[[1], [0]]",
         "--cover-matrix", "[[0], [0], [1]]"], capsys
    )
    assert code == 0
    assert "pure epimorphism: yes" in out
    code, out, _ = run(
        ["pushout", "--workspace", DEMO, "--corner", "S", "--cover", "RS",
         "--target", "RR", "--mono-matrix", "[[0, 0, 1]]",
         "--matrix", "[[0, 1]]"], capsys
    )
    assert code == 0
    assert "pure monomorphism: yes" in out


def test_module_entry_point_matches_in_process():
    proc = subprocess.run(
        [sys.executable, "-m", "ppmod.cli", "eval", "--workspace", DEMO,
         "--formula", "xt0", "--module", "RR"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_EVAL


@pytest.mark.parametrize("text", ["[70000, 0]", "[[1],0]", "[1.7, 0]", "['1', 0]"])
def test_bad_tuple_entries_are_data_errors(text, capsys):
    code, out, err = run(
        ["eval", "--workspace", DEMO, "--formula", "xt0", "--module", "RR",
         "--tuple", text], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["[[0], [0], [1.0]]", "[[0], [0, 1], [1]]", "[[0], [0], [9]]"])
def test_bad_matrix_entries_are_data_errors(text, capsys):
    code, _, err = run(
        ["purity", "--workspace", DEMO, "--source", "RS", "--target", "S",
         "--matrix", text, "--require", "epi"], capsys
    )
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["lattice", "filters"])
def test_negative_arity_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--workspace", DEMO, "--module", "RR", "--arity", "-1"])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    import ppmod.cli

    def broken(ws, args):
        raise RuntimeError("boom")

    monkeypatch.setattr(ppmod.cli, "_cmd_validate", broken)
    code, out, err = run(["validate", "--workspace", DEMO], capsys)
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def big_module_workspace(tmp_path):
    """A 21-dimensional module over F2: listing its 2^21 elements is capped."""
    eye = [[int(i == j) for j in range(21)] for i in range(21)]
    ws = tmp_path / "big.ws"
    ws.write_text(
        "version = 1\n\n[algebra K]\nfield = 2\nlabels = 1\nunit = [1]\n"
        "constants = [[[1]]]\n\n[module M]\nalgebra = K\nside = right\n"
        f"dim = 21\nactions = [{eye}]\n"
    )
    return ws, eye


def test_element_listing_past_the_cap_is_a_data_error(tmp_path, capsys, monkeypatch):
    # diag(1, ..., 1, 0) splits neither way and its first witness on both
    # sides is e_20, element 2^20 in code order: a walk capped below that fails
    from ppmod import linalg

    ws, eye = big_module_workspace(tmp_path)
    diag = [row[:] for row in eye]
    diag[20][20] = 0
    monkeypatch.setattr(linalg, "ENUMERATION_CAP", 2**4)
    code, out, err = run(
        ["purity", "--workspace", str(ws), "--source", "M", "--target", "M",
         "--matrix", str(diag)], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap" in err and err.count("\n") == 1


def test_early_witness_on_a_large_module_is_answered(tmp_path, capsys):
    # the zero map splits neither way; its witness on both sides is e_0,
    # the second element in code order, found without listing 2^21 elements
    ws, _ = big_module_workspace(tmp_path)
    zero = [[0] * 21 for _ in range(21)]
    code, out, err = run(
        ["purity", "--workspace", str(ws), "--source", "M", "--target", "M",
         "--matrix", str(zero)], capsys
    )
    e0 = str([1] + [0] * 20)
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[:2] == ["map: M -> M", "pure monomorphism: no"]
    assert lines[2].startswith(f"  witness element {e0} with type ")
    assert lines[3] == "pure epimorphism: no"
    assert lines[4].startswith(f"  witness element {e0} with type ")
    assert len(lines) == 5


def test_split_map_on_a_large_module_is_answered(tmp_path, capsys):
    # the identity splits both ways: decided without listing an element
    ws, eye = big_module_workspace(tmp_path)
    code, out, err = run(
        ["purity", "--workspace", str(ws), "--source", "M", "--target", "M",
         "--matrix", str(eye)], capsys
    )
    assert code == 0 and err == ""
    assert out == "map: M -> M\npure monomorphism: yes\npure epimorphism: yes\n"


def test_candidate_listing_past_the_cap_is_a_data_error(capsys):
    # an 11-tuple makes the first consequence block list 4^11 formulas
    args = ["preenvelope", "--workspace", DEMO, "--module", "RR",
            "--tuple", ";".join(["[1, 0]"] * 11), "--context", "envS", "--budget", "small"]
    code, out, err = run(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "section",
    [
        "[module NEG]\nalgebra = R2\nside = right\ndim = -1\nactions = [[], []]\n",
        "[formula neg]\nalgebra = R2\nside = right\narity = -1\nbody = 0 = 0\n",
    ],
    ids=["dim", "arity"],
)
def test_negative_dim_or_arity_in_a_workspace_is_a_data_error(section, tmp_path, capsys):
    ws = tmp_path / "neg.ws"
    ws.write_text(Path(DEMO).read_text() + "\n" + section)
    code, out, err = run(["validate", "--workspace", str(ws)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: line ") and "must be >= 0" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "args, message",
    [
        (["eval", "--formula", "xt0", "--module", "RR", "--tuple", "[1, 0"],
         "cannot parse coordinates '[1, 0'"),
        (["eval", "--formula", "xt0", "--module", "RR", "--tuple", "[1]"],
         "coordinate row '[1]' needs length 2"),
        (["eval", "--formula", "xt0", "--module", "RR", "--tuple", "u"],
         "unknown basis label 'u'"),
        (["purity", "--source", "RS", "--target", "S", "--matrix", "[[0], [0]"],
         "cannot parse matrix '[[0], [0]'"),
        (["purity", "--source", "RS", "--target", "S", "--matrix", "[0, 1]"],
         "matrix needs shape (3, 1)"),
        # RR's lattice is the three-chain [0] < [1] < [2]
        (["filters", "--module", "RR", "--avoid", "-1"], "avoided element is not in the lattice"),
        (["filters", "--module", "RR", "--avoid", "3"], "avoided element is not in the lattice"),
    ],
)
def test_argument_errors_carry_no_line_number(args, message, capsys):
    code, out, err = run(args[:1] + ["--workspace", DEMO] + args[1:], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def run_quiet(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


# entries of tuple and matrix arguments: ints of every size, floats,
# strings, booleans and the algebra-element syntax of the demo algebra
ENTRIES = st.one_of(
    st.integers(-3, 4).map(str),
    st.sampled_from(["70000", str(2**64), "9" * 40, "1.7", "1e999", "'1'", '"t"', "True"]),
    st.sampled_from(["t", "1", "(1 + t)", "", "-1", "x"]),
)
VALUES = st.recursive(
    ENTRIES, lambda inner: st.lists(inner, max_size=3).map(lambda xs: f"[{', '.join(xs)}]"),
    max_leaves=8,
)


def assert_exit_contract(code, out, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    else:
        assert err == ""
    assert "Traceback" not in err


@given(st.lists(VALUES, max_size=3).map("; ".join))
def test_fuzzed_tuples_keep_the_exit_code_contract(text):
    assert_exit_contract(*run_quiet(
        ["eval", "--workspace", DEMO, "--formula", "xt0", "--module", "RR", f"--tuple={text}"]
    ))


@given(st.one_of(VALUES, st.lists(VALUES, max_size=3).map("; ".join)))
def test_fuzzed_matrices_keep_the_exit_code_contract(text):
    assert_exit_contract(*run_quiet(
        ["purity", "--workspace", DEMO, "--source", "RS", "--target", "S",
         f"--matrix={text}", "--require", "epi"]
    ))


# a boolean among the entries, which numpy would read as 1 or 0 next to ints
WITH_TRUE = st.lists(VALUES, max_size=3).map(lambda xs: f"[{', '.join(xs + ['True'])}]")


@example("[0, True]")
@example("[[True], [False], [0]]")
@given(st.one_of(WITH_TRUE, st.tuples(WITH_TRUE, VALUES).map("; ".join)))
def test_fuzzed_arguments_holding_a_boolean_exit_2(text):
    for cmd in (
        ["eval", "--workspace", DEMO, "--formula", "xt0", "--module", "RR", f"--tuple={text}"],
        ["purity", "--workspace", DEMO, "--source", "RS", "--target", "S",
         f"--matrix={text}", "--require", "epi"],
    ):
        code, out, err = run_quiet(cmd)
        assert_exit_contract(code, out, err)
        assert code == 2
