"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is shared, and its speed drifts by a third or more
over minutes: the same work costs that much more CPU time while the
neighbours are busy.  ``kernel`` is a fixed piece of work that imports
nothing from the program, with the program's mix of instructions:
interpreted Python over dicts and small objects, and numpy calls on
small arrays, where call overhead dominates.  It allocates little, so it
leaves the peak RSS of the process that runs it alone.

Each child (``child.py``) runs the kernel before set-up, after each
set-up and after serving, so the samples sit next to the timed phases.
``run.py`` multiplies the run's host readings by ``speed_factor`` of
those samples, so host metrics read as CPU seconds at the reference
host's speed.  Nothing in the kernel depends on the program, so a change
to the program moves the host metrics and never the kernel.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median kernel CPU time on the reference host, a 2-vCPU Intel Xeon VM
#: (Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_S = 0.02
#: How strongly the simulator's CPU time follows the kernel's: the slope
#: of log host CPU seconds against log median kernel time, fitted over 40
#: runs on the reference host (0.51, correlation 0.77).  The tight kernel
#: reacts to a busy host about twice as strongly as the simulator, so
#: scaling by the full ratio would overcorrect.
SENSITIVITY = 0.5


class _Item:
    __slots__ = ("key", "score", "hits")

    def __init__(self, key: int, score: float) -> None:
        self.key = key
        self.score = score
        self.hits = 0


def _objects() -> float:
    """Interpreted Python: dict lookups, small objects, attribute updates."""
    table: dict[int, _Item] = {}
    checksum = 0.0
    for i in range(5000):
        key = (i * 7919) % 1021
        item = table.get(key)
        if item is None:
            item = table[key] = _Item(key, (key % 97) / 97.0)
        item.hits += 1
        checksum += item.score * item.hits
        if i % 500 == 0:
            ranked = sorted(table.values(), key=lambda it: (it.hits, it.key))
            checksum += ranked[-1].key
    return checksum


def _arrays() -> float:
    """numpy calls on arrays of tens to hundreds of elements."""
    values = np.random.default_rng(0).random(2000)
    weights = np.arange(128, dtype=np.float64).reshape(16, 8)
    checksum = 0.0
    for i in range(150):
        window = values[i : i + 400]
        checksum += float(np.sort(window)[3]) + float(np.percentile(window, 95))
        checksum += float(np.argsort(window[:48] * (1 + i % 5))[0])
        checksum += float((weights @ weights.T)[i % 16].sum())
    return checksum


def kernel() -> float:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    return _objects() + _arrays()


def speed_factor(samples: list[float]) -> float:
    """Factor that turns CPU seconds measured next to ``samples`` into
    CPU seconds at the reference host's speed."""
    return (REFERENCE_S / statistics.median(samples)) ** SENSITIVITY


def timed() -> float:
    """CPU seconds of one kernel run."""
    start = time.process_time()
    kernel()
    return time.process_time() - start

