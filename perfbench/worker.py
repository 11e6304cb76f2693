"""One repetition of one workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED OUT_DIR [--trace | --setup-only]

Builds the workload's inputs, reports the moment they are ready (on the
system-wide monotonic clock, so the parent can measure set-up from before
it started this interpreter), then times every operation.  With
``--trace`` the layer entry points are traced and their totals written
to OUT_DIR.  Prints one JSON object.

Each operation gets a calibration time (see ``calibrate.py``) that
measures the machine's speed while it ran.  For operations in this
process, a ``calibrate.Sampler`` times a slice every 0.1 s, interrupting
the operations; an operation gets the mean of the slices timed inside
it, or of the two around it, and slice time is not operation time.  A
CLI command times its own slices in its child interpreter
(``cli_launch.py``): this process only waits for it, and a timer here
would take CPU from the command.  The commands of a repetition share
the mean of all their slices.
"""

from __future__ import annotations

import time

from calibrate import Sampler, calibration_slice, median_slice

# Set-up is timed from before this interpreter started until the inputs
# are built; slices before the imports and after the inputs bracket it.
_SETUP_SLICES = 3
_spent = time.perf_counter()
_SETUP_BEFORE = median_slice(_SETUP_SLICES)
_SETUP_SPENT = time.perf_counter() - _spent

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from bisect import bisect_left  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import ppmod  # noqa: E402
import workloads  # noqa: E402
from ppmod.errors import CapExceeded  # noqa: E402
from tracer import Tracer  # noqa: E402


def _max_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


def _outcome(fn, cappable: bool) -> str:
    try:
        return "ok" if fn() else "wrong"
    except CapExceeded as err:
        return "capped" if cappable else f"error: CapExceeded: {err}"
    except Exception as err:  # an unexpected exception is a failed operation
        return f"error: {type(err).__name__}: {err}"


def _calibrate(spans, samples) -> tuple[list[float], list[float]]:
    """Per operation span: its time without slices, and its calibration.

    An operation gets the mean of the slices timed inside it, or, if
    none was, the mean of the slices on either side of it.
    """
    starts = [start for start, _end, _slice in samples]
    latencies, calibrations = [], []
    for t0, t1 in spans:
        lo, hi = bisect_left(starts, t0), bisect_left(starts, t1)
        inside = samples[lo:hi] or samples[lo - 1:lo + 1]
        calibrations.append(sum(sl for _, _, sl in inside) / len(inside))
        latencies.append(t1 - t0 - sum(end - start for start, end, _ in samples[lo:hi]))
    return latencies, calibrations


def _run_in_process(inputs) -> tuple[dict, Sampler]:
    """Run and time every operation under a calibration sampler."""
    clock = time.perf_counter
    spans, outcomes = [], []
    with Sampler() as sampler:
        for (_kind, fn), cappable in zip(inputs.ops, inputs.cappable):
            t0 = clock()
            outcomes.append(_outcome(fn, cappable))
            spans.append((t0, clock()))
    latencies, calibrations = _calibrate(spans, sampler.samples)
    return (
        {"latencies_s": latencies, "calibrations_s": calibrations, "outcomes": outcomes},
        sampler,
    )


def _run_commands(inputs) -> dict:
    """Run and time every command; they report their calibration slices.

    Every command gets the mean of all slices of the repetition.  A
    command that is mostly interpreter start and import holds two or
    three slices, which swing by up to 2x between neighbouring commands
    while the commands' own times hardly move.
    """
    clock = time.perf_counter
    latencies, slices, outcomes = [], [], []
    for (_kind, fn), cappable, calibration_file in zip(
        inputs.ops, inputs.cappable, inputs.calibration_files
    ):
        t0 = clock()
        outcomes.append(_outcome(fn, cappable))
        latency = clock() - t0
        if calibration_file.is_file():
            child = json.loads(calibration_file.read_text())
            latency -= child["spent_s"]
            slices += child["slices_s"]
        else:  # the command died before calibrating; it has already failed
            slices.append(calibration_slice())
        latencies.append(latency)
    calibration = sum(slices) / len(slices)
    return {
        "latencies_s": latencies,
        "calibrations_s": [calibration] * len(latencies),
        "outcomes": outcomes,
    }


def main(argv: list[str]) -> int:
    name, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    mode = argv[3] if len(argv) > 3 else None
    traced = mode == "--trace"
    out_dir.mkdir(parents=True, exist_ok=True)
    if name == "cli-demo":
        inputs = workloads.build_cli_demo(seed, out_dir, traced)
    else:
        inputs = workloads.BUILDERS[name](seed)
    ready = time.monotonic() - _SETUP_SPENT
    result = {
        "ready": ready,
        "setup_calibration_s": (_SETUP_BEFORE + median_slice(_SETUP_SLICES)) / 2,
        "digest": inputs.digest,
        "ops": len(inputs.ops),
    }
    if mode == "--setup-only":
        print(json.dumps(result))
        return 0

    result["kinds"] = [kind for kind, _fn in inputs.ops]
    if name == "cli-demo":  # traced inside each command's interpreter
        result.update(_run_commands(inputs))
        if traced:
            totals: dict = {}
            for path in sorted(out_dir.glob("cli-*.json")):
                for key, value in json.loads(path.read_text()).items():
                    totals[key] = totals.get(key, 0) + value
            result["totals"] = totals
    else:
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        timed, sampler = _run_in_process(inputs)
        result.update(timed)
        if tracer is not None:
            result["totals"] = tracer.write(out_dir / "totals.json", sampler.pauses())

    who = resource.RUSAGE_CHILDREN if name == "cli-demo" else resource.RUSAGE_SELF
    result.update(
        peak_rss_mb=_max_rss_mb(who),
        python=platform.python_version(),
        numpy=np.__version__,
        ppmod=ppmod.__version__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
