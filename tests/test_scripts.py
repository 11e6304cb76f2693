"""Smoke tests for the scripts under ``scripts/``: run them as a user would."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_survey_fixtures_prints_the_golden_survey():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "survey_fixtures.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "survey_fixtures.golden").read_text()


def load_bench_pairs():
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_result(wall_s, failed=0):
    return {
        "provenance": {"git_sha": "abc", "src_sha256": "def", "nproc": 2},
        "workload": "cli-demo",
        "repetitions": 3,
        "attempted": 45,
        "failed": failed,
        "inputs_repeat": True,
        "metrics": {"wall_s": wall_s, "setup_s": 0.25, "op_p50_ms": 280.0, "peak_rss_mb": 33.5},
        "extra": {"capped_share": 0.0, "speed": 2.5, "unscaled_wall_s": 2 * wall_s},
    }


def test_bench_pairs_copies_the_result_files():
    bench = load_bench_pairs()
    entry = bench.run_entry(synthetic_result(5.0))
    assert entry == {
        "correct": True,
        "attempted": 45,
        "failed": 0,
        "repetitions": 3,
        "end_to_end": {"wall_s": 5.0, "setup_s": 0.25, "op_p50_ms": 280.0, "peak_rss_mb": 33.5},
        "capped_share": 0.0,
        "speed": 2.5,
        "git_sha": "abc",
        "src_sha256": "def",
    }
    assert not bench.run_entry(synthetic_result(5.0, failed=1))["correct"]
    traced = {"metrics": {"linalg.rref.calls": 10, "lattice.pp_lattice.capped": 0}}
    assert bench.traced_entry(traced) == {"linalg.rref.calls": 10}


def test_bench_pairs_summarises_alternating_pairs():
    bench = load_bench_pairs()
    parent = [6.3, 6.1, 6.2, 6.4, 6.0, 6.25, 6.35, 6.15, 6.05, 6.3]
    change = [5.0, 5.1, 6.3, 4.9, 5.05, 5.0, 4.95, 5.2, 5.1, 5.0]
    got = bench.pair_summary(parent, change)
    assert got["pairs"] == 10 and got["change_wins"] == 9  # pair 3 is lost
    assert got["parent_wins"] == 1
    assert got["parent_median"] == 6.225 and got["change_median"] == 5.025
    # exclusive quartiles: sorted positions 2.75 and 8.25 of 10
    assert got["parent_quartiles"] == [6.0875, 6.225, 6.3125]
    assert got["parent_iqr"] == 0.225
    assert got["median_gap"] == 1.2
    assert got["parent"] == parent and got["change"] == change
    assert bench.gain(got)
    text = bench.claim_text("cli-demo", "wall_s", "s", {"seed 1": got})
    assert text.startswith("cli-demo wall_s: change below parent in 9 of 10 at seed 1;")
    assert "medians 6.225 -> 5.025 s (seed 1), parent IQR 0.225 s;" in text
    assert text.endswith("gain rule met.")
    with pytest.raises(ValueError):
        bench.pair_summary([1.0, 2.0], [1.0])


def test_bench_pairs_gain_needs_nine_wins_and_a_gap_past_the_spread():
    bench = load_bench_pairs()
    parent = [6.3, 6.1, 6.2, 6.4, 6.0, 6.25, 6.35, 6.15, 6.05, 6.3]
    eight = bench.pair_summary(parent, [5.0] * 8 + [6.5, 6.5])
    assert eight["change_wins"] == 8 and not bench.gain(eight)
    # ten wins, but the medians differ by less than the parent's IQR
    close = bench.pair_summary(parent, [p - 0.01 for p in parent])
    assert close["change_wins"] == 10 and not bench.gain(close)
    assert "gain rule not met" in bench.claim_text("cli-demo", "wall_s", "s", {"seed 1": close})


def test_bench_pairs_verdicts_follow_the_bound():
    bench = load_bench_pairs()
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    summary = bench.pair_summary
    assert bench.verdict(summary(parent, [p * 0.5 for p in parent]), 0.25) == "better"
    assert bench.verdict(summary(parent, [p * 1.1 for p in parent]), 0.25) == "within bound"
    assert bench.verdict(summary(parent, [p * 1.5 for p in parent]), 0.25) == "worse"
    # a parent spread wider than the bound leaves the metric unresolved
    wide = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
    assert bench.verdict(summary(wide, [w * 1.5 for w in wide]), 0.25) == "unresolved"
    # unless every change run reads better than every parent run
    assert bench.verdict(summary(wide, [0.4] * 10), 0.25) == "better"


PARENT_IMPORT_US = [28100, 30500, 25900, 35800, 27400, 26800, 29900] * 3
CHANGE_IMPORT_US = [6100, 5400, 7400, 4500, 6900, 5800, 6200] * 3


def run_bench_pairs(monkeypatch, tmp_path, *extra):
    """``main`` end to end with the clones, git and the benchmark runs faked."""
    bench = load_bench_pairs()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    def clone(rev, dest):
        # the parent's sources have 3 + 4 lines, the change's 3 + 2
        package = dest / "src" / "ppmod"
        package.mkdir(parents=True)
        (package / "a.py").write_text("x = 1\n\ny = 2\n")
        (package / "b.py").write_text("z = 3\n" * (4 if dest.name == "parent" else 2))
        (package / "notes.txt").write_text("not counted\n")

    monkeypatch.setattr(bench, "_clone", clone)
    monkeypatch.setattr(bench, "_subject", lambda rev: "Some change")

    def run(side, workload, seed, traced):
        result = synthetic_result(5.0 if side.name == "parent" else 4.0)
        result["provenance"].update(machine="x86_64", python="3.11", load=0.5)
        return result

    monkeypatch.setattr(bench, "_run", run)
    import_us = {"parent": iter(PARENT_IMPORT_US), "change": iter(CHANGE_IMPORT_US)}
    monkeypatch.setattr(bench, "_import_us", lambda side: next(import_us[side.name]))
    argv = ["--parent", "p", "--change", "c", "--pr", "7", "--scratch", str(tmp_path / "s")]
    assert bench.main(argv + list(extra)) == 0
    return json.loads((tmp_path / "BENCH_7.json").read_text())


def test_bench_pairs_claims_nothing_without_claim(monkeypatch, tmp_path):
    out = run_bench_pairs(monkeypatch, tmp_path)
    assert out["claim"] is None
    assert "--claim" not in out["commands"][0]
    assert out["pairs"]["cli-demo seed 1"]["wall_s"]["verdict"] == "better"


def test_bench_pairs_states_the_claimed_workload(monkeypatch, tmp_path):
    out = run_bench_pairs(monkeypatch, tmp_path, "--claim", "lattice")
    assert out["commands"][0].endswith(" --claim lattice:wall_s")
    assert out["claim"].startswith("lattice wall_s: change below parent in 10 of 10 at seed 1")
    assert out["claim"].endswith("gain rule met.")


def test_bench_pairs_claims_the_named_metric_in_its_unit(monkeypatch, tmp_path):
    out = run_bench_pairs(monkeypatch, tmp_path, "--claim", "calculus-f2:peak_rss_mb")
    assert out["commands"][0].endswith(" --claim calculus-f2:peak_rss_mb")
    # the faked runs read 33.5 MB on both sides: no pair is won
    assert out["claim"] == (
        "calculus-f2 peak_rss_mb: change below parent in 0 of 10 at seed 1 and 0 of 10 at "
        "seed 97; medians 33.5 -> 33.5 MB (seed 1) and 33.5 -> 33.5 MB (seed 97), parent "
        "IQR 0.0 MB and 0.0 MB; gain rule not met."
    )
    assert out["pairs"]["calculus-f2 seed 1"]["peak_rss_mb"]["verdict"] == "within bound"


@pytest.mark.parametrize("claim", ["lattice:rss", "nowhere", "nowhere:wall_s"])
def test_bench_pairs_refuses_an_unknown_claim(claim):
    bench = load_bench_pairs()
    with pytest.raises(SystemExit) as exit_info:
        bench.main(["--parent", "p", "--change", "c", "--pr", "7", "--scratch", "s", "--claim", claim])
    assert exit_info.value.code == 2


def test_bench_pairs_records_the_median_import_time_per_side(monkeypatch, tmp_path):
    out = run_bench_pairs(monkeypatch, tmp_path)
    summary = out["import_us"].pop("summary")
    assert out["import_us"] == {
        "parent": {"runs": PARENT_IMPORT_US, "median": 28100},
        "change": {"runs": CHANGE_IMPORT_US, "median": 6100},
    }
    assert out["commands"][2].startswith("per side, 21 times alternating")
    assert "python3 -X importtime -c 'import numpy, ppmod.cli'" in out["commands"][2]
    # the import pairs are judged like a workload metric
    bench = load_bench_pairs()
    assert summary == bench.pair_summary(PARENT_IMPORT_US, CHANGE_IMPORT_US)
    assert (summary["pairs"], summary["change_wins"], summary["parent_wins"]) == (21, 21, 0)
    assert (summary["parent_median"], summary["change_median"]) == (28100, 6100)
    assert bench.gain(summary)


def test_bench_pairs_records_the_source_lines_per_side(monkeypatch, tmp_path):
    out = run_bench_pairs(monkeypatch, tmp_path)
    assert out["src_lines"] == {"parent": 7, "change": 5}


def test_bench_pairs_reads_the_cumulative_import_time():
    bench = load_bench_pairs()
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       192 |        192 |       ppmod.records\n"
        "import time:       381 |       6459 |   ppmod\n"
        "import time:       529 |       9662 | ppmod.cli\n"
    )
    assert bench.cumulative_us(stderr, "ppmod.cli") == 9662
    assert bench.cumulative_us(stderr, "ppmod") == 6459
    with pytest.raises(ValueError):
        bench.cumulative_us(stderr, "numpy")


def test_bench_pairs_times_a_real_import(tmp_path):
    # one fresh interpreter on this checkout: the command runs and its output parses
    bench = load_bench_pairs()
    assert bench._import_us(ROOT) > 0
