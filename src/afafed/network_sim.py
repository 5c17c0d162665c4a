"""Deterministic virtual-time simulation of the full asynchronous protocol.

Events are processed in (time, insertion-sequence) order from a binary heap,
so any run is a pure function of its configuration and seed.  Uplinks drop
with a per-coworker Bernoulli probability and otherwise arrive after a
rate-derived delay; model downlinks are lossless.  Local iterations are
timed individually: a cluster occupies a span of virtual time and every
event addressed to a coworker first advances its cluster to the iteration
boundary at or before the event.  A cluster is three numbers: its token (the
count of clusters started), its anchor (its start time) and the iterations
it has left; iteration i of the cluster ends at anchor + i × the coworker's
iteration duration.  A coworker whose token is 0 has started no cluster: it
is stalled, which it is only while its buffer warms up.  One with iterations
left is computing, and one with none left is waiting for a downlink or its
timer.  A cluster's completion, and the timer its uplink arms, carry the
cluster's token: once a later cluster starts they are stale and ignored.

Fairness coefficients are not calendar events.  Each coefficient change is
appended once to a log of (send time, coefficients, queue position) entries,
and every coworker keeps a cursor into it.  An entry reaches coworker k at
its send time plus k's downlink delay; when a catch-up runs the iteration at
boundary b, it first adopts the newest entry that arrived strictly before b,
so an iteration at the same instant as an arrival still uses the old
coefficient and a mid-cluster change takes effect at the next iteration.
The queue position orders an entry against calendar events that share its
arrival time, exactly as a broadcast event pushed at send time would be.
When a run stops, each coworker is advanced to the newest entry such an
event would already have delivered, and the prefix of the log that every
cursor has passed is dropped.

Between coefficient changes no coworker's iterations depend on another's,
so the pending iterations of many coworkers run as one vectorised step, a
round (``coworker.Round``).  When an aggregation appends a log entry,
each computing coworker's bound is the arrival, at that coworker, of the
newest entry that the current event delivers; a stop's flush would catch it
up that far anyway, so its iterations at or before the bound run now, with
the inputs they would get later and so the same bits.  The due coworkers
step in rounds of one iteration each, a coworker leaving once its next
boundary passes its bound, until fewer than ``_ROUND_MIN`` are left; the
lazy catch-ups run the rest, as they run everything in a run whose
coefficients never change.  A round adopts coefficients through a cursor
of its own per coworker and never moves ``coef_cursor``, so the trims and
every catch-up are those of an engine without rounds.  A coworker whose
round step diverges keeps that step's state and holds the
NumericDivergenceError, which the catch-up that reaches its boundary
raises: the run fails with the same error at the same point.

A coworker's arrival law gives arrival i's time from arrival i - 1's
(``time_of``), and the engine asks it without asking which law it is.  It
draws arrival i only once arrival i - 1 is admitted, so the index it asks
for is always the buffer's ``next_arrival_index``.
Data arrivals are calendar events only while a coworker's buffer warms up:
its first ``minibatch`` arrivals, the last of which wakes the stalled
coworker.  A ready buffer stays ready (neither eviction takes it below one
minibatch), so after that an arrival only moves the buffer's window, and
the catch-up admits it lazily from the coworker's next arrival time: every
arrival strictly before a boundary goes in before that boundary's
iteration, and every arrival at or before the catch-up's time goes in at
its end.  The buffer each iteration samples is the one arrival events
would have built.  When a run stops, each coworker with a ready buffer is
caught up to its last arrival at or before the stopping instant; an arrival
at exactly the instant of a ``T`` or budget stop counts as admitted.

Arrays are shared, not copied: an array that has been handed on is never
written.  The server's mix and its rescale of the coefficients each build a
new array, and so does a coworker's step, so the engine's w0, the server's
model and coefficients, the coefficient log, downlink payloads and pending
evaluations may all hold the same array.
"""

from __future__ import annotations

import bisect
import enum
import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import coworker as cw
from . import server as srv
from .errors import ProtocolError
from .model_core import (
    GlobalEvaluator,
    LossModel,
    minibatch_gradient,
    risk_arrays,
    stack_shards,
    uniform_weights,
)
from .profiler import ProfilingLog, record_aggregation
from .stream_manager import StreamBuffer, admit, sample_minibatch, sample_positions


# the hash constants of numpy.random.bit_generator, mirrored by random_streams
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, count: int) -> List[int]:
    """The running hash constant before the first of count hash steps and after each."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


def _mix(x, y):
    """SeedSequence's mix of two words, lane by lane; x and y are uint32 arrays."""
    x = (_MIX_L * x - _MIX_R * y) & _MASK32
    return x ^ x >> 16


@functools.cache
def _state_words_type() -> type:
    """The ISeedSequence that hands PCG64 one key's precomputed state words.

    It is built on first use, so that importing afafed does not import
    numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("StateWords holds only the 4 uint64 words PCG64 seeds from")
            return self.words

        def __reduce__(self):
            return _state_words, (self.words,)

    return StateWords


def _state_words(words: np.ndarray) -> object:
    """A StateWords of words; pickle rebuilds one through this module-level name."""
    return _state_words_type()(words)


def random_streams(seed: int, keys: Sequence[Tuple[int, int]]) -> List[np.random.Generator]:
    """One PCG64 stream per (domain, cid) key; every draw of a run comes from one.

    Domains: 0 minibatch sampling, 1 uplink loss and rate jitter, 2 Poisson
    arrivals, 3 the profiling epilogue, 10 a coworker's synthetic shard, and
    11 the shared ground truth or class direction (cid 0).

    Stream i is ``default_rng(SeedSequence(seed, spawn_key=keys[i]))`` bit
    for bit, but the seeds of the whole batch are computed at once.  Nothing
    before the key words depends on the key, so the pool of 4 uint32 words
    is numpy's own ``SeedSequence(seed).pool``: the seed words
    ``[seed & 0xffffffff, seed >> 32, 0, 0]`` after 4 initial hashmixes and
    12 cross-mixes, 16 hashmixes in all.  The rest of numpy's hash is
    mirrored on (4, n) and (8, n) uint32 lanes:

    - ``hashmix`` xors a word with the running hash constant (INIT_A
      0x43b0d7e5 advanced by its 16 steps), multiplies the constant by
      MULT_A 0x931e8875 and the word by the new constant, then xors the
      word with itself shifted right by XSHIFT 16; ``mix(x, y)`` is
      ``0xca01f9dd * x - 0x4973f715 * y`` with the same xor-shift;
    - each key word of ``[domain, cid]`` is hashed into each pool word;
    - the output is 8 words that cycle through the pool, each hashed like
      ``hashmix`` from INIT_B 0x8b51f9dd with MULT_B 0x58f38ded, and paired
      little-endian into the 4 uint64 words that PCG64 seeds itself from.

    Each stream's ``bit_generator.seed_seq`` holds only its state words, so
    ``Generator.spawn`` is not available.  A seed outside [0, 2**64), a key
    that is not a pair or a key word outside [0, 2**32) raises ValueError:
    numpy would pack those into other words.
    """
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"random_streams: seed {seed} is outside [0, 2**64)")
    try:
        words = np.array(keys)
    except ValueError:                  # keys of different lengths
        words = None
    if words is not None and words.size == 0:
        return []
    if words is None or words.ndim != 2 or words.shape[1] != 2:
        raise ValueError("random_streams: every key must be a (domain, cid) pair")
    if words.dtype.kind not in "iu" or words.min() < 0 or words.max() > _MASK32:
        raise ValueError("random_streams: key words must be integers in [0, 2**32)")

    # numpy's pool after the seed words; the key words continue its hash from
    # the constant after its 16 hashmixes
    lanes = np.random.SeedSequence(seed).pool[:, None]
    a = np.array(_hash_constants(_INIT_A, _MULT_A, 24)[16:], dtype=np.uint32)[:, None]
    j = 0
    for key_word in words.T.astype(np.uint32):
        h = (key_word ^ a[j:j + 4]) * a[j + 1:j + 5]
        lanes = _mix(lanes, h ^ h >> 16)
        j += 4
    b = np.array(_hash_constants(_INIT_B, _MULT_B, 8), dtype=np.uint32)[:, None]
    out = (lanes[[0, 1, 2, 3, 0, 1, 2, 3]] ^ b[:8]) * b[1:]
    out ^= out >> 16
    # numpy pairs the words as little-endian uint64s
    state = np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64)
    state_words, pcg64, generator = _state_words_type(), np.random.PCG64, np.random.Generator
    return [generator(pcg64(state_words(row))) for row in state]


class EventKind(enum.Enum):
    """What a calendar event is; DATA_ARRIVAL covers buffer warm-up arrivals only."""

    DATA_ARRIVAL = "data_arrival"
    CLUSTER_COMPLETE = "cluster_complete"
    UPLINK_DELIVERY = "uplink_delivery"
    DOWNLINK_DELIVERY = "downlink_delivery"
    TIMER_EXPIRY = "timer_expiry"


class SimEvent(NamedTuple):
    """A calendar event; it is its own heap entry, ordered by (time, seq)."""

    time: float
    seq: int                        # insertion sequence: unique, so kind is never compared
    kind: EventKind
    coworker: int
    payload: object = None
    token: int = -1


class EventQueue:
    """Priority queue ordered by (time, insertion sequence)."""

    def __init__(self) -> None:
        self._heap: List[SimEvent] = []
        self._seq = 0

    def push(
        self, time: float, kind: EventKind, coworker: int, payload: object = None, token: int = -1
    ) -> None:
        heapq.heappush(self._heap, SimEvent(time, self._seq, kind, coworker, payload, token))
        self._seq += 1

    def pop(self) -> Optional[SimEvent]:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)

    def peek_time(self) -> Optional[float]:
        return self._heap[0].time if self._heap else None

    @property
    def next_seq(self) -> int:
        """Sequence number the next pushed event will get."""
        return self._seq

    def __len__(self) -> int:
        return len(self._heap)


@dataclass(frozen=True)
class LinkModel:
    """Unreliable uplink plus ideal fixed-delay downlink for one coworker."""

    p_loss: float = 0.0
    rate: float = 1e6               # uplink bits per time unit
    payload_bits: float = 448.0
    downlink_delay: float = 0.0
    rate_jitter: float = 0.0        # half-width of a uniform rate perturbation, as a fraction
    timer_factor: float = 3.0       # the retransmission timer, in mean round trips

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_loss <= 1.0:
            raise ValueError("p_loss must lie in [0, 1]")
        if not self.rate > 0.0:
            raise ValueError("rate must be positive")
        if not self.payload_bits > 0.0:
            raise ValueError("payload_bits must be positive")
        if self.downlink_delay < 0.0:
            raise ValueError("downlink_delay must be non-negative")
        if not 0.0 <= self.rate_jitter < 1.0:
            raise ValueError("rate_jitter must lie in [0, 1)")
        if not self.timer_factor > 0.0:
            raise ValueError("timer_factor must be positive")

    @property
    def draws(self) -> bool:
        """Whether an uplink attempt draws from the link's random stream."""
        return self.p_loss > 0.0 or self.rate_jitter > 0.0

    def uplink_attempt(self, rng: Optional[np.random.Generator]) -> Optional[float]:
        """Transmission delay for one attempt, or None when the packet drops.

        rng may be None when the link does not draw.
        """
        if self.p_loss > 0.0 and rng.random() < self.p_loss:
            return None
        rate = self.rate
        if self.rate_jitter > 0.0:
            rate = self.rate * (1.0 + self.rate_jitter * (2.0 * rng.random() - 1.0))
        return self.payload_bits / rate

    @property
    def timer_duration(self) -> float:
        """How long a coworker waits for a downlink after its uplink attempt:
        timer_factor mean round trips, un-jittered uplink plus downlink delay."""
        return self.timer_factor * (self.payload_bits / self.rate + self.downlink_delay)


@dataclass(frozen=True)
class ArrivalProcess:
    """Data arrival law for one coworker's stream.

    Construction refuses a law that could not run: an unknown kind, a
    Poisson rate or periodic interval that is not positive, or trace times
    that are empty, negative, non-finite or decreasing.  ``time_of`` gives
    one arrival's time from the one before and ``mean_rate`` states the
    law's long-run density, so callers need not read the fields to learn
    which law it is.
    """

    kind: str = "poisson"           # poisson | periodic | trace
    rate: float = 0.0               # poisson: mean arrivals per time unit
    interval: float = 0.0           # periodic spacing
    times: Optional[Tuple[float, ...]] = None   # trace: absolute arrival times

    def __post_init__(self) -> None:
        if self.kind not in ("poisson", "periodic", "trace"):
            raise ValueError(f"unknown arrival kind {self.kind!r}")
        if self.kind == "poisson" and self.rate <= 0.0:
            raise ValueError("poisson arrivals need a positive rate")
        if self.kind == "periodic" and self.interval <= 0.0:
            raise ValueError("periodic arrivals need a positive interval")
        if self.kind == "trace":
            if not self.times:
                raise ValueError("trace arrivals need at least one arrival time")
            t = np.asarray(self.times, dtype=np.float64)
            bad = np.flatnonzero(~(t >= 0.0) | np.isinf(t))     # NaN fails >= 0
            if len(bad):
                raise ValueError(f"trace arrival times must be finite and non-negative, "
                                 f"but arrival {bad[0]} is at {t[bad[0]]}")
            if np.any(t[1:] < t[:-1]):
                raise ValueError("trace arrival times must be non-decreasing")

    @property
    def draws(self) -> bool:
        """Whether the law's times draw from the arrival stream."""
        return self.kind == "poisson"

    @property
    def mean_rate(self) -> Optional[float]:
        """Mean arrivals per time unit: ``rate``, or ``1.0 / interval`` for a
        periodic law; None for a trace, whose arrivals are finite."""
        if self.kind == "poisson":
            return self.rate
        if self.kind == "periodic":
            return 1.0 / self.interval
        return None

    def time_of(self, index: int, previous: float, rng: Optional[np.random.Generator]) -> float:
        """The time of arrival index, given arrival index - 1's (0.0 for the first):
        a trace's own time, or inf past its end; previous + interval; or previous
        plus an exponential gap of mean 1/rate, one draw from rng."""
        if self.kind == "poisson":
            return previous + rng.exponential(1.0 / self.rate)
        if self.kind == "periodic":
            return previous + self.interval
        return self.times[index] if index < len(self.times) else math.inf


@dataclass
class CoworkerSetup:
    """Everything the engine needs to instantiate one coworker."""

    shard: Tuple[np.ndarray, np.ndarray]    # (X, y); arrival a is row a % len(y)
    link: LinkModel
    iteration_duration: float               # virtual time of one local iteration
    arrivals: ArrivalProcess
    capacity: int
    minibatch: int

    def __post_init__(self) -> None:
        if not self.iteration_duration > 0.0:     # NaN fails too
            raise ValueError("iteration_duration must be positive")


@dataclass
class _Runtime:
    """Engine-side bookkeeping for one coworker (not protocol state).

    Facts the protocol state already holds are read from it: the shard rows
    (``state.buffer.X`` and ``.y``, views of the engine's data), iterations
    run (``state.t_local``), arrivals admitted (``state.buffer.next_arrival_index``)
    and the length of the current cluster (``state.iter_k``).  The current
    cluster is ``cluster_token``, ``cluster_anchor`` and ``iters_left``: the
    coworker is stalled while the token is 0, computing while iterations are
    left, and waiting for a downlink or its timer otherwise.  ``law`` gives
    each arrival's time from the one before, drawing from ``rng_arrival``.
    Once the buffer is ready, ``next_arrival`` is the time of the first
    arrival not yet admitted; it is inf while the buffer warms up (those
    arrivals are calendar events) and once a trace is exhausted.  ``held``
    is the error of a round step that diverged: the step is in the state,
    but the iteration is not counted as run, and the catch-up that reaches
    its boundary raises the error.
    """

    state: cw.CoworkerState
    link: LinkModel
    law: ArrivalProcess
    iteration_duration: float       # virtual time of one local iteration
    rng_sample: np.random.Generator
    rng_link: Optional[np.random.Generator]         # None when the link does not draw
    rng_arrival: Optional[np.random.Generator]      # None when the law does not draw
    cluster_token: int = 0          # clusters started; names the current one
    iters_left: int = 0             # iterations of the current cluster not yet run
    cluster_anchor: float = 0.0     # start time of the current cluster
    coef_cursor: int = 0            # index in the log of the first unapplied entry
    next_arrival: float = math.inf  # first arrival that _catch_up has not admitted
    held: Optional[Exception] = None    # the error of the iteration at the next boundary


class _Coefficients(NamedTuple):
    """One fairness-coefficient change in the engine's log."""

    sent: float                     # server time of the change
    lambdas: np.ndarray
    seq: int                        # queue position: after every event pushed before it


class _Member:
    """A coworker in the current rounds: its own log cursor, the arrival
    times at it of the log's entries (inf past the last) and ``n``, the
    number of its iterations at or before its bound."""

    __slots__ = ("cid", "rt", "buf", "arrivals", "cursor", "k1", "n")

    def __init__(self, cid: int, rt: _Runtime, bound: float, arrivals: List[float]) -> None:
        self.cid, self.rt, self.buf = cid, rt, rt.state.buffer
        self.arrivals, self.cursor = arrivals, rt.coef_cursor
        self.k1 = rt.state.iter_k + 1     # the next iteration is number k1 - iters_left
        # the last iteration j of the cluster whose boundary anchor + j * dur is
        # at or before the bound: from past the quotient's floor, a margin for
        # its rounding, down to the first that is
        first, anchor, dur = self.k1 - rt.iters_left, rt.cluster_anchor, rt.iteration_duration
        j, quotient = rt.state.iter_k, (bound - anchor) / dur
        if quotient < j:
            j = min(j, math.floor(quotient) + 2)
        while anchor + j * dur > bound:
            j -= 1
        self.n = j - first + 1


def _delivered(log: List[_Coefficients], cursor: int, delay: float,
               time: float, seq: int) -> int:
    """Log index just past the entries delivered by (time, seq), from cursor on.

    An entry is delivered when its arrival (send time plus the coworker's
    downlink delay) precedes (time, seq) in calendar order; seq -1 admits
    only arrivals strictly before time.
    """
    while cursor < len(log):
        entry = log[cursor]
        arrival = entry.sent + delay
        if arrival > time or (arrival == time and entry.seq > seq):
            break
        cursor += 1
    return cursor


# the log is trimmed once it holds this many entries (or twice its last size)
_LOG_TRIM_MIN = 64
# the fewest coworkers one vectorised round runs: a one-step round of 8, its
# set-up and write-back included, costs what their single iterations cost
# (timeit, d = 5, 16-row minibatches); a smaller round's iterations are left
# to the lazy catch-ups
_ROUND_MIN = 8
# due evaluations wait until this many models are pending, then run as one
# stack: the evaluator's fixed stack height
_EVAL_CHUNK = GlobalEvaluator.SLOTS


class Evaluation:
    """Observer that fills the evaluation columns of every ``every``-th row.

    The rows are the engine's aggregation records.  Row t takes the
    uniformly weighted gradient before aggregation t and the λ-weighted risk
    after it, so one evaluation of the model aggregation t left serves row t
    and row t + 1.  Due models are evaluated as one stack when _EVAL_CHUNK
    (64) are pending and on stop, so an ``on_aggregation`` observer may see
    None in pending rows.  The stack on stop also holds the stop model, w̄
    under the λ of that moment, whose risk it keeps as ``final_risk``: fewer
    than _EVAL_CHUNK models are pending then, so it always has a slot.
    Attach it before the first run().
    """

    def __init__(self, engine: SimulationEngine, every: int) -> None:
        if every < 1:
            raise ValueError(f"every must be at least 1, got {every}")
        self.every = every
        self.evaluator = GlobalEvaluator(engine.model, engine.data,
                                         uniform_weights(len(engine.runtimes)))
        # due models: (w̄ after aggregation t, λ for row t - 1's risk or None,
        # t, whether row t takes its gradient); w0 is the model after
        # "aggregation 0", and the stop model, which has no row, has t None
        self._pending: List[tuple] = []
        # the squared gradient norm of a row that does not exist yet; the next row takes it
        self._next_grad_sq: Optional[float] = None
        # the global risk of the model the last run() stopped at, under its λ
        self.final_risk: Optional[float] = None

    def on_aggregation(self, engine: SimulationEngine, record: srv.AggregationRecord) -> None:
        server, t = engine.server, record.t
        if self._next_grad_sq is not None:
            record.grad_sqnorm, self._next_grad_sq = self._next_grad_sq, None
        due, next_due = t % self.every == 0, (t + 1) % self.every == 0
        if due and t == 1:          # row 1: no aggregation evaluated w0
            self._pending.append((engine.w0, None, 0, True))
        if due or next_due:
            self._pending.append((server.w_global, server.lambdas if due else None, t, next_due))
            if len(self._pending) >= _EVAL_CHUNK:
                self._flush(engine.rows)

    def on_stop(self, engine: SimulationEngine) -> None:
        server = engine.server
        self._pending.append((server.w_global, server.lambdas, None, False))
        self._flush(engine.rows)

    def _flush(self, rows: List[srv.AggregationRecord]) -> None:
        """Evaluate the pending models as one stack, each as right after its aggregation."""
        # the models with a risk go first: the evaluator weighs the first ones
        pending, self._pending = sorted(self._pending, key=lambda p: p[1] is None), []
        weights = [lambdas for _, lambdas, _, _ in pending if lambdas is not None]
        risks, grads = self.evaluator(np.array([w for w, _, _, _ in pending]),
                                      np.array(weights) if weights else None,
                                      any(p[3] for p in pending))
        for i, (_, _, t, grad) in enumerate(pending):
            if i < len(weights):
                if t is None:
                    self.final_risk = float(risks[i])
                else:
                    rows[t - 1].global_risk = float(risks[i])
            if grad:
                grad_sq = float(grads[i] @ grads[i])
                if t < len(rows):
                    rows[t].grad_sqnorm = grad_sq
                else:
                    self._next_grad_sq = grad_sq


@dataclass
class RunResult:
    """What one run() call leaves; an attached Evaluation has filled every due row.

    ``rows`` holds the engine's aggregation records of every run() so far;
    ``accepted_by`` and ``iters_per_acceptance`` are counted from them.
    """

    rows: List[srv.AggregationRecord]
    aggregations: int
    uplink_attempts: int
    uplink_drops: int
    stall_events: int               # one warm-up stall per coworker
    iterations_total: int
    accepted_by: np.ndarray
    iters_per_acceptance: List[int]
    final_time: float
    events_processed: int           # calendar events: warm-up arrivals, cluster ends,
                                    # uplinks, downlinks and timers
    stop_reason: str                # T_reached | horizon | budget | drained
    profiling_log: Optional[ProfilingLog] = None


class SimulationEngine:
    """Event-driven run of K coworkers against one aggregation server.

    ``observers`` is a plain list, read once per run().  An observer is any
    object; the engine calls whichever of these methods it defines, in list
    order.  ``on_iteration(cid, state)`` runs after every local iteration:
    calls for one coworker come in its iteration order, but calls for
    different coworkers may interleave, because iterations run lazily when
    an event or a coefficient flush reaches their coworker, or in a round.
    ``on_aggregation(engine, record)`` runs after every aggregation; the
    record is the row just appended to ``rows``.  ``on_stop(engine)`` runs
    last in every run() whose event loop starts, whether it returns or raises.
    """

    def __init__(
        self,
        model: LossModel,
        setups: Sequence[CoworkerSetup],
        adaptive: cw.AdaptiveConfig,
        mixing: srv.MixingConfig,
        w0: np.ndarray,
        seed: int,
        enable_profiling: bool = False,
    ) -> None:
        if not setups:
            raise ValueError("need at least one coworker")
        k = len(setups)
        self.model = model
        self.adaptive = adaptive
        self.mixing = mixing
        self.seed = seed
        self.observers: List[object] = []
        self._on_iteration = self._on_aggregation = ()     # bound methods, set by run()
        self.queue = EventQueue()
        self.now = 0.0

        # the per-iteration gradient does not check shapes: w0 and the shard
        # widths are checked here, once
        self.w0 = np.array(w0, dtype=np.float64)
        if self.w0.shape != (model.dim,):
            raise ValueError(f"w0 has shape {self.w0.shape}, expected ({model.dim},)")
        lambdas = uniform_weights(k)
        self.server = srv.ServerState(w_global=self.w0, lambdas=lambdas)
        # every shard lives once, in the stacked set; each buffer views its rows
        self.data = stack_shards([s.shard for s in setups])
        if self.data.X.shape[1] != model.dim:
            raise ValueError(
                f"shards have {self.data.X.shape[1]} features, model.dim is {model.dim}"
            )

        # one batch seeds every stream; a law that does not draw gets none
        keys = [(0, cid) for cid in range(k)]
        keys += [(1, cid) for cid, setup in enumerate(setups) if setup.link.draws]
        keys += [(2, cid) for cid, setup in enumerate(setups) if setup.arrivals.draws]
        streams = dict(zip(keys, random_streams(seed, keys)))
        self.runtimes: List[_Runtime] = []
        for cid, (setup, shard) in enumerate(zip(setups, self.data.views())):
            buf = StreamBuffer(*shard, capacity=setup.capacity, minibatch_size=setup.minibatch)
            state = cw.make_coworker(cid, self.w0, buf, lambdas[cid], adaptive)
            rt = _Runtime(
                state=state,
                link=setup.link,
                law=setup.arrivals,
                iteration_duration=setup.iteration_duration,
                rng_sample=streams[0, cid],
                rng_link=streams.get((1, cid)),
                rng_arrival=streams.get((2, cid)),
            )
            self.runtimes.append(rt)

        self.rows: List[srv.AggregationRecord] = []
        self.uplink_attempts = 0
        self.uplink_drops = 0
        self.events_processed = 0
        self._coef_log: List[_Coefficients] = []
        self._coef_trim_at = _LOG_TRIM_MIN
        # the next iteration boundary of each computing coworker, inf for
        # the others and for one holding an error: the rounds' index, a list
        # because a pass over K floats costs less than numpy's calls at this
        # K; and how many are finite, so that an append with fewer computing
        # coworkers than a round needs costs no pass (at its own uplink the
        # sender is waiting, so with K = _ROUND_MIN no round ever forms)
        self._next_boundary = [math.inf] * k
        self._computing = 0
        # each coworker's first row in the stacked data
        self._row_start = (0, *itertools.accumulate(self.data.sizes[:-1]))
        # the distinct downlink delays, and each coworker's among them
        delays = [setup.link.downlink_delay for setup in setups]
        self._delays = sorted(set(delays))
        self._delay_of = [self._delays.index(delay) for delay in delays]
        self.profiling_log = ProfilingLog(self.w0) if enable_profiling else None

        # seed the calendar; every coworker stalls until its buffer warms up
        for cid in range(k):
            self._schedule_next_arrival(cid, 0.0)

    # ---------------- scheduling helpers ---------------- #

    def _schedule_next_arrival(self, cid: int, previous: float) -> None:
        """Schedule the coworker's next arrival, the one after the arrival at
        previous (0.0 for the first), if its stream has one.

        While the buffer warms up it is a calendar event; once the buffer is
        ready it goes to rt.next_arrival, which _catch_up admits.
        """
        rt = self.runtimes[cid]
        t = rt.law.time_of(rt.state.buffer.next_arrival_index, previous, rt.rng_arrival)
        if rt.state.buffer.ready:
            rt.next_arrival = t
        elif t < math.inf:
            self.queue.push(t, EventKind.DATA_ARRIVAL, cid)

    def _start_cluster(self, cid: int, now: float) -> None:
        rt = self.runtimes[cid]
        rt.cluster_token += 1
        rt.iters_left = rt.state.iter_k
        rt.cluster_anchor = now
        if self._next_boundary[cid] == math.inf:
            self._computing += 1
        self._next_boundary[cid] = now + rt.iteration_duration
        end = now + rt.state.iter_k * rt.iteration_duration
        self.queue.push(end, EventKind.CLUSTER_COMPLETE, cid, token=rt.cluster_token)

    def _catch_up(self, cid: int, now: float, seq: int) -> None:
        """Execute every pending iteration whose boundary lies at or before now.

        Each iteration first admits the arrivals strictly before its
        boundary and adopts the newest coefficient that arrived strictly
        before it.  Afterwards the coworker admits every arrival at or before
        now and adopts every coefficient delivered by (now, seq) in calendar
        order.  A held error is raised when its boundary is reached.
        """
        rt = self.runtimes[cid]
        buf = rt.state.buffer
        log = self._coef_log
        if rt.iters_left:
            state, rng, adaptive, model = rt.state, rt.rng_sample, self.adaptive, self.model
            observers = self._on_iteration
            dur = rt.iteration_duration
            delay = rt.link.downlink_delay
            k1 = state.iter_k + 1         # the next iteration is number k1 - iters_left
            # a held error's step is the next iteration
            if rt.held is not None and rt.cluster_anchor + (k1 - rt.iters_left) * dur <= now:
                raise rt.held
            while rt.iters_left:
                boundary = rt.cluster_anchor + (k1 - rt.iters_left) * dur
                if boundary > now:
                    break
                while rt.next_arrival < boundary:
                    admit(buf)
                    rt.next_arrival = rt.law.time_of(buf.next_arrival_index, rt.next_arrival,
                                                     rt.rng_arrival)
                # _delivered(..., boundary, -1) passes the next entry exactly
                # when it arrived strictly before the boundary
                if rt.coef_cursor < len(log) and log[rt.coef_cursor].sent + delay < boundary:
                    self._adopt_coefficients(rt, cid, boundary, -1)
                ok = cw.run_single_iteration(state, adaptive, model, rng, now=boundary)
                if not ok:
                    raise ProtocolError(
                        f"coworker {cid} lost minibatch readiness mid-cluster at {boundary:.6g}"
                    )
                rt.iters_left -= 1
                for observe in observers:
                    observe(cid, state)
            else:
                boundary = math.inf
                self._computing -= 1
            self._next_boundary[cid] = boundary
        while rt.next_arrival <= now:
            admit(buf)
            rt.next_arrival = rt.law.time_of(buf.next_arrival_index, rt.next_arrival,
                                             rt.rng_arrival)
        if rt.coef_cursor < len(log):
            self._adopt_coefficients(rt, cid, now, seq)

    def _adopt_coefficients(self, rt: _Runtime, cid: int, time: float, seq: int) -> None:
        """Apply the newest coefficient delivered to cid by (time, seq)."""
        log = self._coef_log
        j = _delivered(log, rt.coef_cursor, rt.link.downlink_delay, time, seq)
        if j > rt.coef_cursor:
            cw.handle_fairness_broadcast(rt.state, float(log[j - 1].lambdas[cid]))
            rt.coef_cursor = j

    def _flush_coefficients(self, time: float, seq: int) -> None:
        """Deliver every entry up to (time, seq), then drop the applied prefix.

        Each coworker is caught up to the arrival of the newest entry it
        receives, not to time: the iterations after that arrival have not
        yet been reached by any event of that coworker.
        """
        for cid, rt in enumerate(self.runtimes):
            j = _delivered(self._coef_log, rt.coef_cursor, rt.link.downlink_delay, time, seq)
            if j > rt.coef_cursor:
                entry = self._coef_log[j - 1]
                self._catch_up(cid, entry.sent + rt.link.downlink_delay, entry.seq)
        passed = min(rt.coef_cursor for rt in self.runtimes)
        del self._coef_log[:passed]
        for rt in self.runtimes:
            rt.coef_cursor -= passed
        self._coef_trim_at = max(_LOG_TRIM_MIN, 2 * len(self._coef_log))

    def _advance(self, now: float, seq: int) -> None:
        """Run, in lockstep rounds, the pending iterations a stop at (now, seq) would run.

        A stop's flush catches coworker k up to the arrival at k of the
        newest log entry that (now, seq) delivers, so every iteration at or
        before that bound runs before run() returns, whether the run stops
        after this event or later.  Its inputs are fixed already: its
        sampling stream, the arrivals and the newest coefficient strictly
        before its boundary, w_global_last and the tolerance.  So it gives
        now the bits it would give later.  The due coworkers are those whose
        ``_next_boundary`` is at or before their bound, found in one pass
        over that list; there is no pass while fewer than ``_ROUND_MIN``
        coworkers compute.  They step in rounds, one iteration each per round,
        as long as a round has ``_ROUND_MIN`` members of one minibatch size;
        the rest of their iterations stay with the lazy catch-ups.
        """
        if self._computing < _ROUND_MIN or self.model.dim < 2:
            return
        log = self._coef_log
        bounds = []
        for delay in self._delays:
            bound = -math.inf
            for entry in reversed(log):     # the delivered entries are a prefix
                arrival = entry.sent + delay
                if arrival < now or (arrival == now and entry.seq <= seq):
                    bound = arrival
                    break
            bounds.append(bound)
        if len(bounds) == 1:
            due = [cid for cid, b in enumerate(self._next_boundary) if b <= bounds[0]]
        else:
            due = [cid for cid, (b, group) in enumerate(zip(self._next_boundary, self._delay_of))
                   if b <= bounds[group]]
        if len(due) < _ROUND_MIN:
            return
        arrivals = [[entry.sent + delay for entry in log] + [math.inf] for delay in self._delays]
        by_size = {}
        for cid in due:
            rt, group = self.runtimes[cid], self._delay_of[cid]
            by_size.setdefault(rt.state.buffer.minibatch_size, []).append(
                _Member(cid, rt, bounds[group], arrivals[group]))
        for size, members in by_size.items():
            if size >= 2:
                self._run_rounds(members)

    def _run_rounds(self, members: List[_Member]) -> None:
        """Step members in rounds while at least _ROUND_MIN have an iteration due.

        Each member first admits and adopts as ``_catch_up`` does before an
        iteration, but through its own cursor: ``coef_cursor`` only moves in
        a catch-up, so the trim schedule stays that of the lazy engine.  The
        members are ordered by their count of due iterations, so those still
        due after r rounds are a prefix of the round's arrays.  A member
        whose step diverges holds the error and leaves at once.
        """
        log, observers = self._coef_log, self._on_iteration
        X, y = self.data.X, self.data.y
        members.sort(key=lambda mb: -mb.n)
        rnd = cw.Round([mb.rt.state for mb in members], self.adaptive, self.model)
        starts = np.array([self._row_start[mb.cid] for mb in members])[:, None]
        sizes = np.array([self.data.sizes[mb.cid] for mb in members])[:, None]
        done = 0                    # rounds run
        while True:
            due = len(members)
            while due and members[due - 1].n <= done:
                due -= 1
            if due < _ROUND_MIN:
                break
            if due < len(members):
                rnd.keep(due)
                self._leave(members[due:])
                del members[due:]
                starts, sizes = starts[:due], sizes[:due]
            positions, oldest, boundaries = [], [], []
            for i, mb in enumerate(members):
                rt, buf = mb.rt, mb.buf
                boundary = rt.cluster_anchor + (mb.k1 - rt.iters_left) * rt.iteration_duration
                while rt.next_arrival < boundary:
                    admit(buf)
                    rt.next_arrival = rt.law.time_of(buf.next_arrival_index, rt.next_arrival,
                                                     rt.rng_arrival)
                # _delivered(log, cursor, delay, boundary, -1), as a bisection
                if mb.arrivals[mb.cursor] < boundary:
                    mb.cursor = bisect.bisect_left(mb.arrivals, boundary, mb.cursor)
                    rnd.adopt(i, float(log[mb.cursor - 1].lambdas[mb.cid]))
                drawn = sample_positions(buf, rt.rng_sample)
                if drawn is None:
                    raise ProtocolError(f"coworker {mb.cid} lost minibatch readiness "
                                        f"mid-cluster at {boundary:.6g}")
                positions.append(drawn)
                oldest.append(buf.next_arrival_index - buf.count)
                boundaries.append(boundary)
            # stream_manager.sample_positions: the rows of a draw, in the stacked data
            rows = np.array(positions)
            rows += np.array(oldest)[:, None]
            rows %= sizes
            rows += starts
            failed = rnd.step(rows, X, y, boundaries)
            if observers:
                rnd.sync(range(len(members)))
            for i, mb in enumerate(members):
                if i not in failed:
                    mb.rt.iters_left -= 1
                    for observe in observers:
                        observe(mb.cid, mb.rt.state)
            if failed:
                for i, error in failed.items():
                    members[i].rt.held = error
                    self._next_boundary[members[i].cid] = math.inf
                    self._computing -= 1
                rnd.drop(list(failed))
                members = [mb for i, mb in enumerate(members) if i not in failed]
                starts, sizes = (np.delete(a, list(failed), axis=0) for a in (starts, sizes))
            done += 1
        rnd.keep(0)
        self._leave(members)

    def _leave(self, members: List[_Member]) -> None:
        """Record each leaving member's next boundary, inf once its cluster is done."""
        for mb in members:
            rt = mb.rt
            if rt.iters_left:
                self._next_boundary[mb.cid] = (
                    rt.cluster_anchor + (mb.k1 - rt.iters_left) * rt.iteration_duration)
            else:
                self._next_boundary[mb.cid] = math.inf
                self._computing -= 1

    # ---------------- event handlers ---------------- #

    def _on_data_arrival(self, ev: SimEvent) -> None:
        """A warm-up arrival; the one that makes the buffer ready wakes the coworker."""
        cid = ev.coworker
        rt = self.runtimes[cid]
        self._catch_up(cid, ev.time, ev.seq)
        admit(rt.state.buffer)
        self._schedule_next_arrival(cid, ev.time)
        if rt.cluster_token == 0 and rt.state.buffer.ready:
            self._start_cluster(cid, ev.time)

    def _on_cluster_complete(self, ev: SimEvent) -> None:
        cid = ev.coworker
        rt = self.runtimes[cid]
        if ev.token != rt.cluster_token:
            return  # the cluster was aborted by a downlink
        self._catch_up(cid, ev.time, ev.seq)
        if rt.iters_left:
            raise ProtocolError("cluster completion fired before all iterations elapsed")
        payload = cw.finalize_cluster(rt.state, self.adaptive)
        self.uplink_attempts += 1
        delay = rt.link.uplink_attempt(rt.rng_link)
        if delay is None:
            self.uplink_drops += 1
        else:
            self.queue.push(ev.time + delay, EventKind.UPLINK_DELIVERY, cid, payload=payload)
        self.queue.push(ev.time + rt.link.timer_duration, EventKind.TIMER_EXPIRY, cid,
                        token=rt.cluster_token)

    def _on_uplink_delivery(self, ev: SimEvent) -> None:
        payload: cw.UplinkPayload = ev.payload
        server = self.server
        if self.profiling_log is not None:
            record_aggregation(self.profiling_log, server.w_global - payload.w,
                               payload.last_grad)
        record = srv.process_uplink(server, payload, self.mixing, ev.time)
        self.rows.append(record)
        for observe in self._on_aggregation:
            observe(self, record)
        # coefficient broadcast first, then the sender's model downlink
        if record.lambda_changed:
            self._coef_log.append(_Coefficients(ev.time, server.lambdas, self.queue.next_seq))
            self._advance(ev.time, ev.seq)
            if len(self._coef_log) >= self._coef_trim_at:
                self._flush_coefficients(ev.time, ev.seq)
        rt = self.runtimes[payload.sender]
        self.queue.push(ev.time + rt.link.downlink_delay, EventKind.DOWNLINK_DELIVERY,
                        payload.sender, payload=(server.w_global, server.t))

    def _on_downlink_delivery(self, ev: SimEvent) -> None:
        cid = ev.coworker
        rt = self.runtimes[cid]
        self._catch_up(cid, ev.time, ev.seq)
        w_global, stamp = ev.payload
        cw.handle_downlink(rt.state, w_global, stamp)
        # the new cluster makes an in-flight one and a pending timer stale
        self._start_cluster(cid, ev.time)

    def _on_timer_expiry(self, ev: SimEvent) -> None:
        cid = ev.coworker
        rt = self.runtimes[cid]
        if ev.token != rt.cluster_token:
            return  # a downlink or an earlier timer started a cluster since
        # give up on the pending uplink; the next cluster continues from local state
        self._start_cluster(cid, ev.time)

    # ---------------- main loop ---------------- #

    def run(
        self,
        aggregations: Optional[int] = None,
        horizon: Optional[float] = None,
        event_budget: Optional[int] = None,
    ) -> RunResult:
        """Process events until T aggregations, the horizon or the budget is hit.

        ``RunResult.stop_reason`` names the condition that ended the run:
        ``T_reached``, ``horizon``, ``budget``, or ``drained`` when the
        calendar ran empty first (finite arrival traces, all coworkers idle).
        ``event_budget`` and ``events_processed`` count calendar events only:
        warm-up arrivals, cluster completions, uplink and downlink deliveries
        and timer expiries.  On return every coworker holds the coefficients,
        and has run the iterations, that deliveries up to the stopping point
        imply; a coworker with a ready buffer has also admitted every
        arrival at or before the stopping instant.  Every observer's
        ``on_stop`` runs last, whether run returns or raises.
        """
        if aggregations is None and horizon is None and event_budget is None:
            raise ValueError("need at least one stopping condition")
        handlers = {
            EventKind.DATA_ARRIVAL: self._on_data_arrival,
            EventKind.CLUSTER_COMPLETE: self._on_cluster_complete,
            EventKind.UPLINK_DELIVERY: self._on_uplink_delivery,
            EventKind.DOWNLINK_DELIVERY: self._on_downlink_delivery,
            EventKind.TIMER_EXPIRY: self._on_timer_expiry,
        }
        self._on_iteration, self._on_aggregation, on_stop = (
            tuple(getattr(o, method) for o in self.observers if hasattr(o, method))
            for method in ("on_iteration", "on_aggregation", "on_stop"))
        # coefficients delivered by (stop_time, stop_seq) in calendar order
        # reach their coworkers before run returns; an earlier stop of this
        # engine already delivered those up to (now, -1)
        stop_time, stop_seq = self.now, -1
        try:
            while True:
                if aggregations is not None and self.server.t >= aggregations:
                    stop_reason = "T_reached"
                    break
                if event_budget is not None and self.events_processed >= event_budget:
                    stop_reason = "budget"
                    break
                next_time = self.queue.peek_time()
                if next_time is None:
                    stop_reason = "drained"
                    stop_time, stop_seq = math.inf, self.queue.next_seq
                    break
                if horizon is not None and next_time > horizon:
                    stop_reason = "horizon"
                    self.now = horizon
                    stop_time, stop_seq = horizon, self.queue.next_seq
                    break
                ev = self.queue.pop()
                if ev.time < self.now:
                    raise ProtocolError(
                        f"event at {ev.time!r} precedes current time {self.now!r}"
                    )
                self.now = ev.time
                stop_time, stop_seq = ev.time, ev.seq
                handlers[ev.kind](ev)
                self.events_processed += 1
            # an arrival at the stopping instant counts as admitted, together
            # with the iterations before it
            for cid, rt in enumerate(self.runtimes):
                while rt.next_arrival <= self.now:
                    self._catch_up(cid, rt.next_arrival, -1)
            self._flush_coefficients(stop_time, stop_seq)
        finally:
            for observe in on_stop:
                observe(self)
        return RunResult(
            rows=self.rows,
            aggregations=self.server.t,
            uplink_attempts=self.uplink_attempts,
            uplink_drops=self.uplink_drops,
            stall_events=len(self.runtimes),
            iterations_total=sum(rt.state.t_local for rt in self.runtimes),
            accepted_by=np.bincount([r.sender for r in self.rows], minlength=len(self.runtimes)),
            iters_per_acceptance=[r.iters for r in self.rows],
            final_time=self.now,
            events_processed=self.events_processed,
            stop_reason=stop_reason,
            profiling_log=self.profiling_log,
        )

    # ---------------- profiling epilogue ---------------- #

    def run_profiling_epilogue(self) -> ProfilingLog:
        """Synchronised estimation pass run after the event loop has stopped.

        Every coworker evaluates its local risk at the first and last global
        models and a stochastic secant of its gradient field; pure
        observation, so it never perturbs the trace.
        """
        log = self.profiling_log
        if log is None:
            raise RuntimeError("profiling was not enabled for this run")
        w_end = self.server.w_global
        displacement = float(np.linalg.norm(w_end - log.w_start))
        log.coworker_stats = []
        streams = random_streams(self.seed, [(3, cid) for cid in range(len(self.runtimes))])
        for rt, rng in zip(self.runtimes, streams):
            X, y = rt.state.buffer.X, rt.state.buffer.y
            f_first = risk_arrays(self.model, log.w_start, X, y)
            f_last = risk_arrays(self.model, w_end, X, y)
            zeta_hat = None
            batch = sample_minibatch(rt.state.buffer, rng)
            if batch is not None and displacement > 0.0:
                g_last = minibatch_gradient(self.model, rt.state.w, *batch)
                g_first = minibatch_gradient(self.model, log.w_start, *batch)
                zeta_hat = float(np.linalg.norm(g_last - g_first)) / displacement
            log.coworker_stats.append((f_first, f_last, zeta_hat))
        return log
