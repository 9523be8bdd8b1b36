"""A fixed reference kernel that measures how fast the machine runs right now.

On a machine shared with other tenants the same op can take 1.8x longer
for tens of seconds at a time, with no steal time or context switch visible
inside the process. The reference kernel does the same kinds of work as the
ops (interpreted 64-bit integer mixing, many small dense matrix operations
dominated by call overhead, a few 16 x 16 products, a JSON round trip),
never calls ``chanuq``, and is timed right next to every op. Scaling an
op's wall time by ``NOMINAL_MS / reference time`` removes most of that
slowdown: on a 2-vCPU Intel Xeon guest under heavy interference, the
coefficient of variation of per-window median ``sweep`` op times fell from
0.24 (wall) to 0.10 (scaled), and for ``verify`` ops from 0.12 to 0.06.

An op of a second or more outlasts such a phase of the machine, so the
kernel is also run inside long ops, every ``SAMPLE_INTERVAL_S`` of wall
time, from a ``SIGALRM`` handler (:class:`Sampler`); its own run time is
taken out of the op's time.

Scaled times are reported in milliseconds at the kernel's nominal speed,
about its wall time on an otherwise idle core of that Xeon.
"""

from __future__ import annotations

import json
import signal
import time

import numpy as np

NOMINAL_MS = 4.0
SAMPLE_INTERVAL_S = 0.1
_MASK = (1 << 64) - 1
_A4 = (np.sin(np.arange(16.0)) + 1j * np.cos(0.7 * np.arange(16.0))).reshape(4, 4)
_A16 = (np.sin(np.arange(256.0)) + 1j * np.cos(0.7 * np.arange(256.0))).reshape(16, 16)
_DOC = {"dim": 8, "name": "reference",
        "rows": [[[float(i), j / 3.0] for j in range(8)] for i in range(8)]}


def reference_ms() -> float:
    """Wall time of one run of the reference kernel, in milliseconds."""
    start = time.perf_counter()
    x = 12345
    for _ in range(1500):
        x = (x + 0x9E3779B97F4A7C15) & _MASK
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x ^= z >> 31
    total = 0.0
    for _ in range(60):
        ad = _A4.conj().T
        c = _A4 @ ad - ad @ _A4
        total += abs(complex(np.trace(c @ _A4))) + float(np.linalg.norm(c))
        if not (np.all(np.isfinite(c.real)) and np.all(np.isfinite(c.imag))):
            raise ArithmeticError("reference kernel produced a non-finite value")
        np.linalg.eigh(0.5 * (c + c.conj().T))
    m = _A16
    for _ in range(30):
        m = m @ _A16
        m = m / np.linalg.norm(m)
    for _ in range(3):
        json.loads(json.dumps(_DOC))
    return (time.perf_counter() - start) * 1e3


def scale(ref_ms: float) -> float:
    """Factor that turns a wall time measured next to ``ref_ms`` into nominal time."""
    return NOMINAL_MS / ref_ms


class Sampler:
    """Reference-kernel samples taken inside a timed region.

    :meth:`start` arms a wall-clock interval timer whose handler runs the
    kernel; :meth:`stop` disarms it. ``samples_ms`` holds the kernel's times
    and ``spent_s`` their sum, which the caller subtracts from the region.
    """

    def __init__(self):
        self.samples_ms: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples_ms.append(reference_ms())
        self.spent_s += time.perf_counter() - start

    def start(self) -> None:
        self.samples_ms, self.spent_s = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, before_ms: float, after_ms: float) -> float:
        """Mean scale over the region: samples before and after it weigh one
        half each, samples inside it one each (the trapezoid rule over time)."""
        inner = [scale(ms) for ms in self.samples_ms]
        return ((0.5 * (scale(before_ms) + scale(after_ms)) + sum(inner))
                / (1 + len(inner)))
