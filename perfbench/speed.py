"""Machine-speed probe that rescales host times to a fixed reference speed.

The hosts this benchmark runs on are shared: a single-threaded pipeline
measured back to back on one machine took anywhere from 1.4 s to 2.6 s, in
slow and fast phases that last tens of seconds, so the median of a 20-second
run moved by 20-40 % between runs.  A change to the code cannot be seen
through that.

Each timed sample is therefore bracketed by two runs of ``reference_kernel``,
a fixed piece of work shaped like one simulated iteration that calls no
afafed code.  A sample's host time is multiplied by ``REFERENCE_S`` over the
mean of its two bracketing kernel times, which gives the time the sample
would have taken with the machine at reference speed.  A change to afafed
cannot change the kernel, so the rescaled times move only with the program.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable, Tuple, TypeVar

import numpy as np

# reference_kernel's host time in the fast phases of the shared 2-vCPU
# x86-64 VM the benchmark was built on (Python 3.11, numpy 2.4); rescaled
# times read as host seconds on that machine at that speed
REFERENCE_S = 0.020

T = TypeVar("T")


@dataclass(frozen=True)
class _Example:
    x: np.ndarray
    y: float


@dataclass
class _Event:
    time: float
    seq: int
    kind: str
    payload: object = None


_rng = np.random.default_rng(0)
_POOL = [_Example(_rng.standard_normal(5), float(_rng.standard_normal())) for _ in range(8000)]
_W = np.zeros(5)


def reference_kernel() -> float:
    """Run the fixed reference work once; returns its host seconds.

    The work mirrors one simulated iteration: draw a minibatch of 16 from a
    window of 64 small example objects, stack it, take a least-squares
    gradient, and push and pop a few heap events.  The pool of 8000 examples
    gives it a working set of a few MB, like the simulator's shards.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    heap: list = []
    kinds: dict = {}
    for i in range(600):
        base = int(rng.integers(0, len(_POOL) - 64))
        batch = [_POOL[base + j] for j in rng.choice(64, size=16, replace=False)]
        X = np.array([e.x for e in batch])
        y = np.array([e.y for e in batch])
        g = X.T @ (X @ _W - y) / 16
        for k in range(3):
            ev = _Event(time=float((7 * i + k) % 97), seq=3 * i + k, kind=f"k{k}", payload=g)
            heapq.heappush(heap, (ev.time, ev.seq, ev))
            kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
            if len(heap) > 500:
                heapq.heappop(heap)
    return time.perf_counter() - t0


class Speedometer:
    """Brackets each measured call with reference-kernel runs."""

    def __init__(self) -> None:
        self._last = reference_kernel()

    def measure(self, fn: Callable[[], T]) -> Tuple[T, float]:
        """Call fn; return its result and the factor that rescales its host time."""
        value = fn()
        after = reference_kernel()
        scale = REFERENCE_S / (0.5 * (self._last + after))
        self._last = after
        return value, scale
