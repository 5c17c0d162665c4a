"""Bounded FIFO buffer between each coworker's data stream and its trainer.

Admission always stores the newest arrival, evicting the oldest entry first
when the buffer is full.  A second, trainer-driven eviction removes the
oldest entry after a completed iteration, but only while more than one
minibatch worth of entries is stored, so a warm buffer can always serve the
next minibatch.

Arrival ``a`` of a coworker's stream is row ``a % n`` of its n-row shard,
and both evictions drop the oldest entry, so the buffer always holds the
last ``count`` arrivals.  It is therefore a window over the shard: two
integers, with no per-example storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass
class StreamBuffer:
    """The newest ``count`` arrivals of a stream that cycles over the rows of (X, y)."""

    X: np.ndarray
    y: np.ndarray
    capacity: int
    minibatch_size: int
    next_arrival_index: int = 0
    count: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("buffer capacity must be at least 1")
        if not 1 <= self.minibatch_size <= self.capacity:
            raise ValueError(
                f"minibatch size {self.minibatch_size} must lie in [1, capacity={self.capacity}]"
            )
        if len(self.y) == 0:
            raise ValueError("the stream's shard is empty")

    @property
    def ready(self) -> bool:
        return self.count >= self.minibatch_size

    @property
    def rows(self) -> np.ndarray:
        """Shard rows of the stored arrivals, oldest first."""
        first = self.next_arrival_index - self.count
        return (first + np.arange(self.count)) % len(self.y)


def admit(buf: StreamBuffer) -> Optional[int]:
    """Store the next arrival, evicting the oldest entry first if the buffer is full.

    Returns the evicted arrival index, or None when there was free space.
    """
    evicted = None
    if buf.count >= buf.capacity:
        evicted = buf.next_arrival_index - buf.count
        buf.count -= 1
    buf.next_arrival_index += 1
    buf.count += 1
    return evicted


def evict_oldest_if_surplus(buf: StreamBuffer) -> Optional[int]:
    """Drop the oldest entry when strictly more than one minibatch is stored.

    Returns the evicted arrival index, or None when the count is already at
    or below the minibatch size.  Never takes the buffer below
    minibatch_size entries.
    """
    if buf.count > buf.minibatch_size:
        buf.count -= 1
        return buf.next_arrival_index - buf.count - 1
    return None


def sample_minibatch(
    buf: StreamBuffer, rng: np.random.Generator
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Draw minibatch_size stored entries uniformly without replacement, as (X, y).

    Returns None while the buffer holds fewer than minibatch_size entries
    (the not-ready signal); the buffer content is left untouched either way.
    """
    if buf.count < buf.minibatch_size:
        return None
    idx = rng.choice(buf.count, size=buf.minibatch_size, replace=False)
    # entry i is arrival first + i, i.e. row (first + i) % n; reducing the
    # shift first keeps every index below count + n, so the wrap is short
    idx += (buf.next_arrival_index - buf.count) % len(buf.y)
    return buf.X.take(idx, axis=0, mode="wrap"), buf.y.take(idx, mode="wrap")
