"""Benchmark a change against its parent in alternating pairs.

    python3 scripts/bench_pairs.py --parent REV --change REV --pr N \
        --scratch DIR [--claim WORKLOAD[:METRIC]]

Run from the root of a ppmod checkout.  Both revisions are cloned from
this repository into DIR/parent and DIR/change (a local ``git clone``
leaves the repository's own ``.git`` untouched), so each side runs its
committed files with its own copy of ``perfbench`` and its run length.
At seeds 1 and 97, every workload runs in ten alternating pairs,
untraced (``python3 perfbench/run.py --workload W --seed S --trace 0``):
at seed 1 the parent goes first in odd pairs, at seed 97 the change
does.  Then each side runs each workload once traced (``--trace 1``).

Every number in ``pairs`` and ``runs`` of ``BENCH_<pr>.json`` is
copied from the ``.perfbench/<workload>-seed<S>-trace<0|1>.json`` result
files those runs write.  For each workload, seed and end-to-end metric
the pair summary (medians, quartiles, wins) is computed from the copied
values and judged against the metric's bound in ``BENCHMARK.json`` by
the no-regression rule.  With ``--claim W:M``, ``claim`` states workload
W's pairs of the end-to-end metric M (``wall_s`` when ``:M`` is left
out) judged by the gain rule; without it no gain is claimed and
``claim`` is null.

Last, with its bytecode compiled, each side imports the command line
21 times, alternating with the other side, in a fresh
``python3 -X importtime -c "import numpy, ppmod.cli"``: ``import_us``
keeps the cumulative microseconds of ``ppmod.cli`` in each run and their
median, per side, and ``summary``, the pair summary of the alternating
import pairs.  A cold-start claim cites that summary and is judged by
the same gain rule as a workload metric.  ``src_lines``
is the line count of ``src/ppmod/*.py`` per side, as ``wc -l`` counts
it.  The two clones are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("calculus-f2", "calculus-fq", "lattice", "cli-demo")
END_TO_END = ("wall_s", "setup_s", "op_p50_ms", "peak_rss_mb")
SEEDS = (1, 97)
PAIRS = 10
IMPORT_RUNS = 21
IMPORT_CODE = "import numpy, ppmod.cli"


def run_entry(result: dict) -> dict:
    """The BENCH entry of one untraced result file."""
    prov, extra = result["provenance"], result["extra"]
    return {
        "correct": result["failed"] == 0 and result["inputs_repeat"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "repetitions": result["repetitions"],
        "end_to_end": {name: result["metrics"][name] for name in END_TO_END},
        "capped_share": extra["capped_share"],
        "speed": extra["speed"],
        "git_sha": prov["git_sha"],
        "src_sha256": prov["src_sha256"],
    }


def traced_entry(result: dict) -> dict:
    """The non-zero per-layer metrics of one traced result file."""
    return {name: value for name, value in result["metrics"].items() if value}


def pair_summary(parent: list[float], change: list[float]) -> dict:
    """Wins and spread of paired values of one metric (lower is better)."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs of equal length")
    med = statistics.median
    p_q = statistics.quantiles(parent, n=4)
    c_q = statistics.quantiles(change, n=4)
    return {
        "parent": parent,
        "change": change,
        "pairs": len(parent),
        "change_wins": sum(c < p for p, c in zip(parent, change)),
        "parent_wins": sum(p < c for p, c in zip(parent, change)),
        "parent_median": round(med(parent), 4),
        "change_median": round(med(change), 4),
        "parent_quartiles": [round(x, 4) for x in p_q],
        "change_quartiles": [round(x, 4) for x in c_q],
        "parent_iqr": round(p_q[2] - p_q[0], 4),
        "median_gap": round(med(parent) - med(change), 4),
    }


def gain(summary: dict) -> bool:
    """The gain rule: the change wins at least nine tenths of the pairs
    (ties count for neither) and the medians differ by more than the
    parent's interquartile range."""
    return (
        10 * summary["change_wins"] >= 9 * summary["pairs"]
        and summary["median_gap"] > summary["parent_iqr"]
    )


def verdict(summary: dict, bound: float) -> str:
    """The no-regression rule for one metric, ``bound`` relative to the
    parent's median: 'better' when every change run is below every parent
    run, else 'unresolved' when the parent's own spread is wider than the
    bound, else 'worse' or 'within bound' by the medians."""
    if max(summary["change"]) < min(summary["parent"]):
        return "better"
    base = summary["parent_median"]
    if summary["parent_iqr"] > bound * base:
        return "unresolved"
    if summary["change_median"] - base > bound * base:
        return "worse"
    return "within bound"


def claim_arg(text: str) -> tuple[str, str]:
    """``WORKLOAD`` or ``WORKLOAD:METRIC`` as (workload, metric); the metric defaults to wall_s."""
    workload, _, metric = text.partition(":")
    metric = metric or "wall_s"
    if workload not in WORKLOADS or metric not in END_TO_END:
        raise argparse.ArgumentTypeError(
            f"{text!r}: expected WORKLOAD[:METRIC], WORKLOAD one of {', '.join(WORKLOADS)} "
            f"and METRIC one of {', '.join(END_TO_END)}"
        )
    return workload, metric


def claim_text(workload: str, metric: str, unit: str, summaries: dict) -> str:
    """One sentence stating the paired result of one metric at every seed."""
    wins = " and ".join(
        f"{s['change_wins']} of {s['pairs']} at {seed}" for seed, s in summaries.items()
    )
    medians = " and ".join(
        f"{s['parent_median']} -> {s['change_median']} {unit} ({seed})"
        for seed, s in summaries.items()
    )
    iqrs = " and ".join(f"{s['parent_iqr']} {unit}" for s in summaries.values())
    met = "met" if all(gain(s) for s in summaries.values()) else "not met"
    return (
        f"{workload} {metric}: change below parent in {wins}; "
        f"medians {medians}, parent IQR {iqrs}; gain rule {met}."
    )


def cumulative_us(importtime: str, module: str) -> int:
    """The cumulative microseconds of ``module`` in ``python3 -X importtime`` output."""
    for line in importtime.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1])
    raise ValueError(f"{module} is not in the import times")


def src_lines(side: Path) -> int:
    """The newlines in ``src/ppmod/*.py`` of one checkout (``wc -l``)."""
    return sum(path.read_bytes().count(b"\n") for path in (side / "src" / "ppmod").glob("*.py"))


def _clone(rev: str, dest: Path) -> None:
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", ".", str(dest)], check=True)
    subprocess.run(["git", "-C", str(dest), "checkout", "--quiet", "--detach", rev], check=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/ppmod"], cwd=dest, check=True)


def _subject(rev: str) -> str:
    return subprocess.run(
        ["git", "log", "-1", "--format=%s", rev], capture_output=True, text=True, check=True
    ).stdout.strip()


def _run(side: Path, workload: str, seed: int, traced: bool) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--trace", str(int(traced)),
    ]
    proc = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{' '.join(cmd)} in {side} exited {proc.returncode}: {proc.stderr}")
    path = side / ".perfbench" / f"{workload}-seed{seed}-trace{int(traced)}.json"
    return json.loads(path.read_text())


def _import_us(side: Path) -> int:
    """Microseconds to import ``ppmod.cli`` in a fresh interpreter, after numpy."""
    env = dict(os.environ)
    src = str((side / "src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", IMPORT_CODE],
        cwd=side, env=env, capture_output=True, text=True, check=True,
    )
    return cumulative_us(proc.stderr, "ppmod.cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pr", required=True)
    parser.add_argument("--scratch", required=True, type=Path)
    parser.add_argument("--claim", type=claim_arg, metavar="WORKLOAD[:METRIC]")
    args = parser.parse_args(argv)
    end_to_end = json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    units = {m["name"]: m["unit"] for m in end_to_end}
    claimed, claimed_metric = args.claim or (None, None)
    sides = {"parent": args.scratch / "parent", "change": args.scratch / "change"}
    if any(p.exists() for p in sides.values()):
        print(f"error: {args.scratch}/parent or /change exists", file=sys.stderr)
        return 2
    args.scratch.mkdir(parents=True, exist_ok=True)
    for name, path in sides.items():
        _clone(getattr(args, name), path)
    lines = {name: src_lines(path) for name, path in sides.items()}
    subject = _subject(args.change)
    try:
        runs, pairs, claim, prov = {}, {}, {}, None
        for i, seed in enumerate(SEEDS):
            for workload in WORKLOADS:
                key = f"{workload} seed {seed}"
                results = {"parent": [], "change": []}
                for k in range(PAIRS):
                    order = ["parent", "change"] if (k + i) % 2 == 0 else ["change", "parent"]
                    for name in order:
                        results[name].append(_run(sides[name], workload, seed, False))
                prov = prov or results["parent"][0]["provenance"]
                runs[key] = {
                    name: {
                        "runs": [run_entry(r) for r in rs],
                        "traced": traced_entry(_run(sides[name], workload, seed, True)),
                    }
                    for name, rs in results.items()
                }
                pairs[key] = {}
                for metric in END_TO_END:
                    values = {n: [r["metrics"][metric] for r in rs] for n, rs in results.items()}
                    summary = pair_summary(values["parent"], values["change"])
                    summary["verdict"] = verdict(summary, bounds[metric])
                    pairs[key][metric] = summary
                if workload == claimed:
                    claim[f"seed {seed}"] = pairs[key][claimed_metric]
        imports = {"parent": [], "change": []}
        for k in range(IMPORT_RUNS):
            for name in ["parent", "change"] if k % 2 == 0 else ["change", "parent"]:
                imports[name].append(_import_us(sides[name]))
    finally:
        for path in sides.values():
            shutil.rmtree(path, ignore_errors=True)
    out = {
        "what": f"{subject} ({args.change}) against its parent {args.parent}",
        "machine": {k: prov[k] for k in ("nproc", "machine", "python", "load")},
        "commands": [
            f"python3 scripts/bench_pairs.py --parent {args.parent} --change {args.change} "
            f"--pr {args.pr} --scratch {args.scratch}"
            + (f" --claim {claimed}:{claimed_metric}" if args.claim else ""),
            f"per seed S in {list(SEEDS)} and workload W: python3 perfbench/run.py --workload W "
            f"--seed S --trace 0 in {PAIRS} alternating pairs (seed {SEEDS[0]}: parent first in "
            f"odd pairs; seed {SEEDS[1]}: change first), then --trace 1 once per side",
            f"per side, {IMPORT_RUNS} times alternating (parent first): python3 -X importtime "
            f"-c '{IMPORT_CODE}', the cumulative microseconds of ppmod.cli",
        ],
        "claim": (
            claim_text(claimed, claimed_metric, units[claimed_metric], claim) if args.claim else None
        ),
        "bounds": bounds,
        "src_lines": lines,
        "import_us": {
            **{name: {"runs": us, "median": statistics.median(us)} for name, us in imports.items()},
            "summary": pair_summary(imports["parent"], imports["change"]),
        },
        "pairs": pairs,
        "runs": runs,
    }
    Path(f"BENCH_{args.pr}.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
