"""The machine-speed reference that end-to-end times are rescaled by.

The machine this benchmark runs on is shared.  The same pure-Python loop
runs at two or more speeds that switch within milliseconds and drift over
tens of seconds, up to twice as slow in wall time and CPU time alike.
Raw times then measure the neighbours more than the program.

So, while a pass runs, a timer signal interrupts it every PERIOD_S and
times a small fixed reference loop in the signal handler.  The handler runs
the loop once untimed and then times a second run: timed cold, straight
after the program's own code, the loop tracked the slowest classify group
about half as well.  A span of the pass is then reported at reference
speed, the speed at which the timed run takes REFERENCE_S:

    scaled = (raw - time spent in the handler) * mean(REFERENCE_S / loop time)

over the samples taken during the span (widened by WINDOW_S, so that a
span shorter than the period still has samples).  The samples are evenly
spaced in time, so the mean of REFERENCE_S / loop time is the average
speed ratio over the span.

The loop is the program's own hot path in kind (composing image tuples and
hashing them into a set) but shares no code with it, so no change to the
program can move it.  Its degree is large, so that most of its time is in
the same C loops as the program's (`map`, tuple hashing): a degree-48 loop,
mostly interpreter dispatch, over-corrected the slowest classify group by
up to 10%.
"""

from __future__ import annotations

import random
import signal
import time

# Seconds the timed reference run takes on a shared 2-core x86-64 VM
# (Python 3.11) in its fast state, so scaled times read as seconds there.
REFERENCE_S = 0.00026
PERIOD_S = 0.02
WINDOW_S = 0.25

_DEGREE = 256
_STEPS = 6
_RNG = random.Random("gaschuetz-bench-reference")
_GENS = tuple(tuple(_RNG.sample(range(_DEGREE), _DEGREE)) for _ in range(2))


def _walk() -> int:
    """Compose fixed image tuples of degree _DEGREE and hash them into a set."""
    a, b = _GENS
    elements = set()
    p = a
    for _ in range(_STEPS):
        p = tuple(map(p.__getitem__, b))
        elements.add(p)
        p = tuple(map(a.__getitem__, p))
        elements.add(p)
    return len(elements)


class Sampler:
    """Reference-loop timings every PERIOD_S, taken from a SIGALRM handler."""

    def __init__(self):
        # (start, timed, end) perf_counter seconds: the handler ran from
        # start to end, and its timed reference run from timed to end.
        self.samples = []

    def sample(self):
        """Time the reference loop once, now, after one untimed run."""
        start = time.perf_counter()
        _walk()
        timed = time.perf_counter()
        _walk()
        self.samples.append((start, timed, time.perf_counter()))

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def inside(self, t0: float, t1: float) -> float:
        """Seconds of the span t0..t1 spent sampling the reference loop."""
        return sum(e - s for s, _, e in self.samples if t0 <= s and e <= t1)

    def scaled(self, t0: float, t1: float, raw: float | None = None) -> float:
        """The span t0..t1 (or `raw` seconds ending at t1) at reference speed."""
        if raw is None:
            raw = t1 - t0
        near = [REFERENCE_S / (e - m) for s, m, e in self.samples
                if t0 - WINDOW_S <= s and e <= t1 + WINDOW_S]
        if not near:
            raise RuntimeError("no speed sample near a timed span")
        return (raw - self.inside(t0, t1)) * sum(near) / len(near)
