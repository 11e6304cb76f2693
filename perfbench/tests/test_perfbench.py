"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

They run the real workloads, so they take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ppmod.errors import CapExceeded  # noqa: E402
from tracer import per_layer_metrics  # noqa: E402

# Counters that must repeat exactly for one seed; self times do not.
EXACT_SUFFIXES = (
    ".calls", ".cells", ".rows", ".candidates", ".accepted", ".capped", ".repeats",
)


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _exact(totals: dict) -> dict:
    # calibration slices come from a timer, so their count varies
    return {
        k: v for k, v in totals.items()
        if k.endswith(EXACT_SUFFIXES) and not k.startswith("trace.calibration.")
    }


def _traced_totals(workload: str, seed: int, trace_dir: Path) -> dict:
    report, _ = run._start_worker(workload, seed, trace_dir, "--trace")
    assert all(o in ("ok", "capped") for o in report["outcomes"]), report["outcomes"]
    return report["totals"]


def test_benchmark_json_names_what_the_runner_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == per_layer_metrics()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload, tmp_path):
    first = _traced_totals(workload, 3, tmp_path / "a")
    second = _traced_totals(workload, 3, tmp_path / "b")
    assert _exact(first) == _exact(second)

    # the baseline asymmetries that later changes are judged against
    enum_calls = first["construct.consequence_enum.calls"]
    assert (enum_calls > 0) == (workload == "cli-demo")
    if workload == "lattice":
        assert first["lattice.pp_lattice.capped"] > 0
    if workload == "calculus-fq":
        assert first["linalg.rref.q2.calls"] == 0
        assert first["linalg.rref.qp.calls"] > 0 and first["linalg.rref.qpd.calls"] > 0
    if workload == "calculus-f2":
        assert first["linalg.rref.qp.calls"] == first["linalg.rref.qpd.calls"] == 0


def test_inputs_depend_only_on_the_seed(tmp_path):
    digests = [
        run._start_worker("calculus-f2", seed, tmp_path, "--setup-only")[0]["digest"]
        for seed in (5, 5, 6)
    ]
    assert digests[0] == digests[1] != digests[2]


def test_a_wrong_answer_fails_the_run():
    rep = {
        "outcomes": ["ok", "wrong", "capped", "error: ValueError: x"],
        "latencies_s": [0.1, 0.2, 0.3, 0.4],
        "calibrations_s": [0.002] * 4,
        "kinds": ["a", "a", "b", "b"],
        "peak_rss_mb": 10.0,
        "digest": "d",
        "python": "3", "numpy": "2", "ppmod": "0",
    }
    summary = run._summarise("calculus-f2", 1, [rep], [(0.5, 0.002)])
    line = run._result_line(summary, traced=False)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 4, 2)
    assert summary["extra"]["capped_share"] == 0.25


def test_capped_fails_unless_the_operation_may_cap():
    def capped():
        raise CapExceeded("cap")

    inputs = workloads.Inputs()
    inputs.add("pp-lattice", capped, cappable=True)
    inputs.add("scalars", capped)
    ops, _sampler = worker._run_in_process(inputs)
    assert ops["outcomes"][0] == "capped"
    assert ops["outcomes"][1].startswith("error: CapExceeded")
    rep = {**ops, "kinds": ["pp-lattice", "scalars"], "peak_rss_mb": 10.0, "digest": "d",
           "python": "3", "numpy": "2", "ppmod": "0"}
    line = run._result_line(run._summarise("lattice", 1, [rep], [(0.5, 0.002)]), traced=False)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 2, 1)


def test_only_lattice_cases_without_a_digest_may_cap():
    inputs = workloads.build_lattice(1)
    cappable = [kind for (kind, _fn), c in zip(inputs.ops, inputs.cappable) if c]
    expected = json.loads((ROOT / "perfbench/expected/lattices.json").read_text())
    assert cappable == ["pp-lattice"] * 9
    assert len(expected) + len(cappable) == sum(1 for _ in workloads.lattice_cases())


def test_a_singular_mittag_leffler_matrix_is_wrong(monkeypatch):
    from ppmod import fixtures

    alg = fixtures.r2()
    m, l_mod = fixtures.right_grid(alg)[1], fixtures.left_grid(alg)[1]
    assert workloads._mittag_leffler(m, [l_mod])
    report = workloads.ppmod.relative_ml_check(m, [l_mod])
    singular = type(report)(True, report.matrix * 0, None)
    monkeypatch.setattr(workloads.ppmod, "relative_ml_check", lambda *_args: singular)
    assert not workloads._mittag_leffler(m, [l_mod])


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calculus-f2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
