"""The ppmod benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, untraced and traced

Run from the root of a ppmod checkout.  A run starts a fresh interpreter
(``worker.py``) for each repetition of the workload, one at a time, until
``--seconds`` is spent, because ppmod's module-level caches never shrink:
a second repetition in one process would measure a warm program that no
command-line user sees.  End-to-end metrics are medians over the
repetitions.  Times are reported at a reference machine speed: each
operation's time is scaled by ``calibrate.REFERENCE_S`` over the time of
a calibration slice measured while it ran (see ``worker.py``); the
unscaled medians are printed beside them.  With ``--trace 1`` the run
makes one untraced and one traced repetition and reports the per-layer
metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong answer
makes the exit code 1; a checkout without ppmod makes it 2, with no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from calibrate import REFERENCE_S  # noqa: E402
from tracer import layer_metrics, per_layer_metrics  # noqa: E402

WORKLOADS = ("calculus-f2", "calculus-fq", "lattice", "cli-demo")
OUT_DIR = Path(".perfbench")
# A run makes at least MIN_REPS repetitions, and samples set-up at least
# SETUP_SAMPLES times (adding set-up-only starts when there are fewer).
MIN_REPS = 2
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170
# Operations a run needs before the tail percentile is reported.
TAIL_MIN_OPS = 1000
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class CheckoutError(Exception):
    """The working directory is not a ppmod checkout."""


def _check_checkout() -> None:
    for needed in (Path("src/ppmod/__init__.py"), Path("workspaces/demo.ws")):
        if not needed.is_file():
            raise CheckoutError(f"{needed} not found; run from the root of a ppmod checkout")


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # one process, no threads: keep numpy's thread pools at one thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _start_worker(workload: str, seed: int, out_dir: Path, mode: str | None = None) -> tuple[dict, float]:
    """One fresh interpreter; returns its report and its set-up seconds."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed), str(out_dir)]
    if mode is not None:
        cmd.append(mode)
    started = time.monotonic()
    # its own session, so a timeout also ends the CLI commands it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=_worker_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    return report, report["ready"] - started


def _fresh_dir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    for old in path.iterdir():
        old.unlink()
    return path


def _compile_sources() -> None:
    """Write bytecode up front so the first repetition does not pay for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src/ppmod", str(BENCH_DIR)],
        check=True, capture_output=True,
    )


def _tail(latencies: list[float]) -> tuple[str, float] | None:
    """Highest of p90/p99/p99.9 with at least ten operations beyond it."""
    n = len(latencies)
    if n < TAIL_MIN_OPS:
        return None
    ordered = sorted(latencies)
    for label, share in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)):
        beyond = int(n * (1 - share))
        if beyond >= 10:
            return label, ordered[n - beyond - 1]
    return None


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced repetitions until ``seconds`` is spent."""
    reps, setups = [], []
    out_dir = _fresh_dir(OUT_DIR / "run" / workload)
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        report, setup = _start_worker(workload, seed, out_dir)
        reps.append(report)
        setups.append((setup, report["setup_calibration_s"]))
        elapsed, last = time.monotonic() - start, time.monotonic() - t0
        # stop rather than overrun by more than half a repetition
        if len(reps) >= MIN_REPS and elapsed + last / 2 >= seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        report, setup = _start_worker(workload, seed, out_dir, "--setup-only")
        setups.append((setup, report["setup_calibration_s"]))
    return _summarise(workload, seed, reps, setups)


def _summarise(workload: str, seed: int, reps: list[dict], setups: list[tuple]) -> dict:
    """``setups`` holds (seconds, calibration slice seconds) pairs."""
    outcomes = [o for r in reps for o in r["outcomes"]]
    wrong = [o for o in outcomes if o not in ("ok", "capped")]
    med = statistics.median
    latencies = [
        [t * REFERENCE_S / c for t, c in zip(r["latencies_s"], r["calibrations_s"])]
        for r in reps
    ]
    walls = [sum(rep) for rep in latencies]
    unscaled = [sum(r["latencies_s"]) for r in reps]
    metrics = {
        "wall_s": med(walls),
        "setup_s": med(s * REFERENCE_S / c for s, c in setups),
        "op_p50_ms": 1000 * med(t for rep in latencies for t in rep),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
    }
    extra = {
        "failed_share": len(wrong) / len(outcomes),
        "capped_share": outcomes.count("capped") / len(outcomes),
        "unscaled_wall_s": med(unscaled),
        "unscaled_setup_s": med(s for s, _ in setups),
        "speed": med(w / u for w, u in zip(walls, unscaled)),
    }
    tails = [_tail(rep) for rep in latencies]
    if all(tails):
        extra["op_tail_ms"] = med(1000 * t[1] for t in tails)
        extra["op_tail_label"] = f"{tails[0][0]} of {len(reps[0]['latencies_s'])} ops"
    kinds: dict = {}
    for kind in reps[0]["kinds"]:
        kinds[kind] = kinds.get(kind, 0) + 1
    return {
        "workload": workload,
        "seed": seed,
        "repetitions": len(reps),
        "attempted": len(outcomes),
        "failed": len(wrong),
        "errors": sorted(set(wrong))[:5],
        "inputs_repeat": len({r["digest"] for r in reps}) == 1,
        "ops_per_repetition": kinds,
        "metrics": metrics,
        "extra": extra,
        "versions": {k: reps[0][k] for k in ("python", "numpy", "ppmod")},
    }


def trace(workload: str, seed: int) -> dict:
    """One untraced and one traced repetition; per-layer metrics."""
    plain_report, _ = _start_worker(workload, seed, _fresh_dir(OUT_DIR / "run" / workload))
    plain = _summarise(workload, seed, [plain_report], [(0.0, 1.0)])
    trace_dir = _fresh_dir(OUT_DIR / "trace" / workload)
    report, _ = _start_worker(workload, seed, trace_dir, "--trace")
    traced = _summarise(workload, seed, [report], [(0.0, 1.0)])
    traced["inputs_repeat"] = report["digest"] == plain_report["digest"]
    metrics = layer_metrics(report["totals"])
    metrics["trace.wall_s"] = traced["metrics"]["wall_s"]
    metrics["trace.overhead_s"] = traced["metrics"]["wall_s"] - plain["metrics"]["wall_s"]
    traced["metrics"] = metrics
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    return traced


def _git_sha() -> str:
    if not Path(".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(Path("src/ppmod").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "load": "one worker process at a time, single-threaded, pinned to one CPU",
    }


def _result_line(summary: dict, traced: bool) -> dict:
    units = dict(per_layer_metrics()) if traced else END_TO_END
    return {
        "correct": summary["failed"] == 0 and summary["inputs_repeat"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": summary["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }


def _print_summary(summary: dict, traced: bool) -> None:
    name = summary["workload"]
    print(f"workload {name}: seed {summary['seed']}, {summary['repetitions']} repetition(s), "
          f"{summary['attempted']} operations, {summary['failed']} failed")
    print(f"  operations per repetition: {summary['ops_per_repetition']}")
    for err in summary["errors"]:
        print(f"  failure: {err}")
    if traced:
        for metric, unit in per_layer_metrics():
            value = summary["metrics"][metric]
            if value:
                print(f"  {metric} = {value:.6g} {unit}")
        return
    for metric, unit in END_TO_END.items():
        print(f"  {metric} = {summary['metrics'][metric]:.6g} {unit}")
    extra = summary["extra"]
    print(f"  unscaled: wall_s = {extra['unscaled_wall_s']:.6g} s, setup_s = "
          f"{extra['unscaled_setup_s']:.6g} s, at speed {extra['speed']:.4g}")
    print(f"  failed_share = {extra['failed_share']:.6g} ratio")
    print(f"  capped_share = {extra['capped_share']:.6g} ratio")
    if "op_tail_ms" in extra:
        print(f"  op_tail_ms = {extra['op_tail_ms']:.6g} ms ({extra['op_tail_label']})")
    else:
        print(f"  op_tail_ms: not reported (fewer than {TAIL_MIN_OPS} operations per repetition)")


def _save(summary: dict, prov: dict, traced: bool) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{summary['workload']}-seed{summary['seed']}-trace{int(traced)}.json"
    path.write_text(json.dumps({"provenance": prov, **summary}, indent=1) + "\n")


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    summary = trace(workload, seed) if traced else measure(workload, seed, seconds)
    _print_summary(summary, traced)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _check_checkout()
    except CheckoutError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # One CPU for every process of the run, so that the worker's calibration
    # slices time the CPU that its operations (or CLI commands) run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    _compile_sources()
    prov = provenance(args.seed)
    print("provenance: " + json.dumps(prov))
    if args.workload == "all":
        ok = True
        for workload in WORKLOADS:
            plain = run_one(workload, args.seed, args.seconds, False)
            traced = run_one(workload, args.seed, args.seconds, True)
            for summary, is_traced in ((plain, False), (traced, True)):
                _save(summary, prov, is_traced)
                ok = ok and _result_line(summary, is_traced)["correct"]
        return 0 if ok else 1
    summary = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    _save(summary, prov, bool(args.trace))
    line = _result_line(summary, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
