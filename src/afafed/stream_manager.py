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

The window's rows are a slice of a read-only ring of row numbers,
``arange(n + capacity - 1) % n``, one per distinct (n, capacity) and shared by
every buffer of that shape.  A minibatch passes that slice to ``rng.choice``,
which draws positions from its length exactly as it would from the integer
``count`` and returns the rows at them, so the sampling stream and the rows
are those of an integer draw.  The ring spares the per-iteration numpy calls
with a Python scalar operand (an offset add and a ``mode="wrap"`` gather):
on a small index array such a call costs about 0.8 µs with a float operand
and 1.1-1.5 µs with an int one, against 0.44 µs for an array operand.

The draw's ``size`` is a :class:`DrawSize`, built once per buffer: an
``int`` that answers ``np.prod`` itself through numpy's
``__array_function__`` protocol (NEP 18).  ``Generator.choice`` reduces its
``size`` with ``np.prod(size, dtype=np.intp)``, and for a plain ``int`` that
call runs numpy's Python-level reduction wrapper (a failed ``prod``
attribute lookup, then ``ufunc.reduce``): about 5 µs of a 12 µs draw, against
under 1 µs through the protocol.  ``DrawSize`` returns the value and type
numpy returns for the plain ``int``, ``np.intp(m)``, so numpy's own draw,
its stream and its rows are those of the plain ``int``.  Any other numpy
function is given plain ints.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

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
    # the shared ring of row numbers every window of this shape is a slice of
    _ring: np.ndarray = field(init=False, repr=False, compare=False)
    # minibatch_size as the draw's size, which answers np.prod itself
    _draw_size: DrawSize = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("buffer capacity must be at least 1")
        if not 1 <= self.minibatch_size <= self.capacity:
            raise ValueError(
                f"minibatch size {self.minibatch_size} must lie in [1, capacity={self.capacity}]"
            )
        if len(self.y) == 0:
            raise ValueError("the stream's shard is empty")
        try:
            self._ring = _row_ring(len(self.y), self.capacity)
        except MemoryError as exc:      # numpy refuses a size past the machine's memory at once
            raise ValueError(f"capacity {self.capacity} needs a ring of "
                             f"{len(self.y) + self.capacity - 1} row numbers: {exc}") from None
        self._draw_size = DrawSize(self.minibatch_size)

    @property
    def ready(self) -> bool:
        return self.count >= self.minibatch_size

    @property
    def rows(self) -> np.ndarray:
        """Shard rows of the stored arrivals, oldest first, as a read-only view."""
        first = (self.next_arrival_index - self.count) % len(self.y)
        return self._ring[first:first + self.count]


class DrawSize(int):
    """An ``int`` whose ``np.prod(size, dtype=np.intp)`` skips numpy's reduction.

    That call, the one ``Generator.choice`` makes, returns ``np.intp(self)``:
    the value and type numpy returns for the plain ``int``.  Every other
    numpy function, and ``np.prod`` with other arguments, runs on the same
    arguments with each ``DrawSize`` in them made a plain ``int``.
    """

    __slots__ = ()

    def __array_function__(
        self, func: Callable[..., Any], types: Tuple[type, ...],
        args: Tuple[Any, ...], kwargs: Dict[str, Any],
    ) -> Any:
        if (func is np.prod and len(args) == 1 and args[0] is self
                and len(kwargs) == 1 and kwargs.get("dtype") is np.intp):
            return np.intp(self)
        return func(*_plain_ints(args), **{k: _plain_ints(v) for k, v in kwargs.items()})


def _plain_ints(value: Any) -> Any:
    """``value`` with each DrawSize in it, also inside lists and tuples, made an ``int``."""
    if isinstance(value, DrawSize):
        return int(value)
    if type(value) in (list, tuple):
        return type(value)(map(_plain_ints, value))
    return value


@functools.lru_cache(maxsize=16)
def _row_ring(n: int, capacity: int) -> np.ndarray:
    """Read-only row numbers ``arange(n + capacity - 1) % n``.

    A window of ``count <= capacity`` arrivals whose oldest is row
    ``first < n`` is the slice ``[first, first + count)``; the largest,
    ``first = n - 1`` and ``count = capacity``, ends on the last slot.
    Cached because the buffers of a run share a few shapes.
    """
    ring = np.arange(n + capacity - 1) % n
    ring.flags.writeable = False
    return ring


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


def sample_positions(buf: StreamBuffer, rng: np.random.Generator) -> Optional[np.ndarray]:
    """The window positions of :func:`sample_minibatch`'s draw, 0 the oldest.

    ``rng.choice`` draws the same positions from the integer ``count`` as
    from the window's rows, so with o = ``next_arrival_index - count``, the
    oldest stored arrival, the draw's rows are ``(o + positions) % n``.  A
    caller that gathers the rows of many buffers at once maps them so.
    """
    if buf.count < buf.minibatch_size:
        return None
    return rng.choice(buf.count, size=buf._draw_size, replace=False)


def sample_minibatch(
    buf: StreamBuffer, rng: np.random.Generator
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Draw minibatch_size stored entries uniformly without replacement, as (X, y).

    Returns None while the buffer holds fewer than minibatch_size entries
    (the not-ready signal); the buffer content is left untouched either way.
    """
    if buf.count < buf.minibatch_size:
        return None
    rows = rng.choice(buf.rows, size=buf._draw_size, replace=False)
    return buf.X.take(rows, axis=0), buf.y.take(rows)
