"""Machine speed, sampled while a worker runs, to scale its times.

The machine the benchmark runs on is a share of a busy host.  Its speed
drifts by 20-40% in phases that last minutes, longer than a run, so medians
within a run cannot take the drift out.  A timer signal interrupts the
worker every ``INTERVAL_S`` and times two fixed pieces of work that do not
touch ``shiftlab``: ``ref_python``, interpreter work, and ``ref_numpy``,
matrix-vector products mod p.  A slow phase slows the two by different
amounts (pure Python by up to 1.8x), and the workloads mix them in different
shares, so each piece is timed and scaled on its own.

A timed interval is scaled by its slowness: the mean, over the samples taken
during it, of the sample's time over its nominal time, averaged over the two
pieces.  The result is the interval's length in seconds at nominal speed.
The time spent in the handler is taken out of the interval first.  Set-up is
scaled by ``ref_python`` alone, because ``numpy`` loads during it.

Scaling removes what slows the pieces and the measured code alike: a slower
or busier host core.  It also hides what slows both for a reason inside the
worker, such as a thread that competes for the interpreter lock; the raw
times are recorded beside the scaled ones, so such a change still shows there.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.1
# the two pieces on a 2-core Intel Xeon KVM guest in its faster phase
NOMINAL_PYTHON_S = 0.0020
NOMINAL_NUMPY_S = 0.0012
MIN_SAMPLES = 6  # an interval with fewer samples borrows the nearest ones
P = 32003.0


def ref_python() -> int:
    """About 2-4 ms of integer, bit, set, dict and tuple work: shiftlab's mix."""
    seen = set()
    weights: dict[int, int] = {}
    acc = 0
    for i in range(6000):
        m = (i * 2654435761) & 0x7FFF
        seen.add(m)
        weights[m & 0xFF] = weights.get(m & 0xFF, 0) + m.bit_count()
        acc += len(seen) & 7
    return acc + sum(weights.values()) + len(tuple(sorted(seen)[:500]))


class Sampler:
    """Times the reference pieces on every tick of a timer signal while it runs."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float, float | None]] = []  # (midpoint, python s, numpy s)
        self.spent = 0.0  # seconds spent in the handler
        self._matrix = None

    def ref_numpy(self) -> float:
        """About 1-2 ms of float64 matrix-vector products mod p, as in ``gfp``."""
        a, x = self._matrix
        acc = 0.0
        for _ in range(40):
            x = (a @ x) % P
            acc += float(x[0])
        return acc

    def _tick(self, signum, frame) -> None:
        t = perf_counter()
        ref_python()
        t_np = perf_counter()
        if self._matrix is not None:
            self.ref_numpy()
        end = perf_counter()
        self.samples.append(((t + end) / 2, t_np - t, end - t_np if self._matrix is not None else None))
        self.spent += end - t

    def start(self) -> None:
        ref_python()  # first call warms the code before any sample
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def add_numpy(self, np) -> None:
        """Time ``ref_numpy`` too from now on; call once ``numpy`` has loaded."""
        a = (np.arange(300 * 300, dtype=np.float64).reshape(300, 300) * 7919.0) % P
        self._matrix = (a, a[0].copy())
        self.ref_numpy()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float]:
        """A point in time and the handler time spent before it, for :meth:`scaled`."""
        return perf_counter(), self.spent

    def scaled(self, begin: tuple[float, float], end: tuple[float, float], numpy: bool = True) -> tuple[float, float]:
        """(raw, scaled) seconds between two marks, handler time excluded.

        With ``numpy`` false only ``ref_python`` counts; with it true, only
        samples taken after :meth:`add_numpy`.
        """
        pool = [s for s in self.samples if s[2] is not None] if numpy else self.samples
        inside = [s for s in pool if begin[0] <= s[0] <= end[0]]
        if len(inside) < MIN_SAMPLES:
            centre = (begin[0] + end[0]) / 2
            inside = sorted(pool, key=lambda s: abs(s[0] - centre))[:MIN_SAMPLES]
        if not inside:
            raise RuntimeError("no speed samples: the timer signal never fired")
        slowness = statistics.mean(py / NOMINAL_PYTHON_S for _, py, _ in inside)
        if numpy:
            slowness = (slowness + statistics.mean(nps / NOMINAL_NUMPY_S for _, _, nps in inside)) / 2
        raw = (end[0] - begin[0]) - (end[1] - begin[1])
        return raw, raw / slowness
