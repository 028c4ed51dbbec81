"""Machine-speed probe for the untraced passes.

The benchmark's machine is a small share of a host whose speed drifts by
20-50% within seconds and over minutes, for the same CPU loop.  To time
the program rather than the host, a timer interrupts each untraced pass
every ``INTERVAL_S`` seconds and runs a fixed piece of work owned by the
benchmark (a ``Fraction``-coefficient dict product, like the program's own
arithmetic) and times it.  A measured interval is then reported as

    (measured time - probe time inside it) * REFERENCE_S / mean probe time

that is, in seconds on a machine where the probe takes ``REFERENCE_S``.
The probe never calls the program, so a change to the program moves the
reported time exactly as it moves the real one at constant host speed.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
REFERENCE_S = 0.001

_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}


def _probe_work():
    out = {}
    for e1, c1 in _TERMS.items():
        for e2, c2 in _TERMS.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return out


class SpeedProbe:
    """Runs the probe on SIGALRM while active; ``busy`` and ``count`` add up."""

    def __init__(self):
        self.busy = 0.0
        self.count = 0

    def tick(self, *_):
        t = time.perf_counter()
        _probe_work()
        self.busy += time.perf_counter() - t
        self.count += 1

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
