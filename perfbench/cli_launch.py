"""Run one ppmod command for the benchmark.

    python3 perfbench/cli_launch.py CALIBRATION_FILE TRACE_FILE|- COMMAND [ARGS...]

Prints the same report and exits with the same code as
``python3 -m ppmod.cli COMMAND [ARGS...]``.  While the command imports
and runs, a ``calibrate.Sampler`` times a calibration slice every 0.1 s,
so the slices cover the command's whole run; the slices and the seconds
they took are written to CALIBRATION_FILE (JSON), so that the command's
time can be scaled to the reference speed and the slices' own time
subtracted.  With a TRACE_FILE instead of ``-`` the
layer entry points are traced and their totals written there.
"""

import json
import sys
from pathlib import Path

from calibrate import Sampler

if __name__ == "__main__":
    calibration_file, trace_file, argv = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
    with Sampler() as sampler:
        import ppmod.cli
        from tracer import Tracer

        tracer = None
        if trace_file != "-":
            tracer = Tracer()
            tracer.install()
        try:
            code = ppmod.cli.main(argv)
        finally:
            if tracer is not None:
                tracer.write(Path(trace_file), sampler.pauses())
        sys.stdout.flush()
    calibration_file.write_text(json.dumps({
        "slices_s": [sl for _, _, sl in sampler.samples],
        "spent_s": sum(end - start for start, end, _ in sampler.samples),
    }))
    sys.exit(code)
