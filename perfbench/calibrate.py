"""A fixed piece of work for measuring the machine's current speed.

Shared hosts change speed by tens of percent over tens of seconds.  The
benchmark times this slice next to its operations, in the same process,
and reports operation times scaled to a reference speed at which one
slice takes ``REFERENCE_S``.
"""

import signal
import time

import numpy as np

REFERENCE_S = 0.002
SAMPLE_EVERY_S = 0.1


def _work(rounds: int) -> int:
    a = np.arange(64, dtype=np.int16).reshape(8, 8)
    total = 0
    for i in range(rounds):
        b = (a * (i % 5)) % 7
        total += int(b[i % 8, 3]) + sum(range(30))
    return total


def calibration_slice() -> float:
    """Seconds for a fixed mix of small numpy calls and Python arithmetic.

    A short untimed warm-up comes first.
    """
    _work(50)
    start = time.perf_counter()
    _work(400)
    return time.perf_counter() - start


def median_slice(count: int = 3) -> float:
    return sorted(calibration_slice() for _ in range(count))[count // 2]


class Sampler:
    """Calibration slices at a fixed wall-clock period, from a timer signal.

    Inside ``with Sampler() as sampler:`` a slice is timed on entry, every
    SAMPLE_EVERY_S seconds (interrupting whatever runs) and on exit.
    ``samples`` holds ``(start, end, slice seconds)`` per slice, on the
    ``time.perf_counter`` clock; start to end is the time the slice took
    from the work it interrupted.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        slice_s = calibration_slice()
        self.samples.append((start, time.perf_counter(), slice_s))

    def pauses(self) -> list[tuple[float, float]]:
        """(start, end) of each slice: time taken from the interrupted work."""
        return [(start, end) for start, end, _slice in self.samples]

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
