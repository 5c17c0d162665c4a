"""Deterministic virtual-time simulation of the full asynchronous protocol.

Events are processed in (time, insertion-sequence) order from a binary heap,
so any run is a pure function of its configuration and seed.  Uplinks drop
with a per-coworker Bernoulli probability and otherwise arrive after a
rate-derived delay; model downlinks are lossless.  Local iterations are
timed individually: a cluster occupies a span of virtual time and every
event addressed to a coworker first advances its cluster to the iteration
boundary at or before the event.  Clusters and timeouts are identified by
per-coworker tokens: a completion or expiry whose token is no longer current
is stale and ignored.

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
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import coworker as cw
from . import server as srv
from .errors import ProtocolError
from .model_core import (
    LossModel,
    feature_major,
    global_evaluation,
    minibatch_gradient,
    risk_arrays,
    stack_shards,
    uniform_weights,
)
from .profiler import ProfilingLog, record_aggregation
from .stream_manager import StreamBuffer, admit, sample_minibatch


class EventKind(enum.Enum):
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

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_loss <= 1.0:
            raise ValueError("p_loss must lie in [0, 1]")
        if self.rate <= 0.0 or self.payload_bits <= 0.0:
            raise ValueError("rate and payload_bits must be positive")
        if self.downlink_delay < 0.0:
            raise ValueError("downlink_delay must be non-negative")
        if not 0.0 <= self.rate_jitter < 1.0:
            raise ValueError("rate_jitter must lie in [0, 1)")

    @property
    def draws(self) -> bool:
        """Whether an uplink attempt draws from the link's random stream."""
        return self.p_loss > 0.0 or self.rate_jitter > 0.0

    def uplink_attempt(self, rng: Optional[np.random.Generator]) -> Optional[float]:
        """Transmission delay for one attempt, or None when the packet drops.

        rng may be None when the link does not draw.
        """
        if not self.draws:
            return self.payload_bits / self.rate
        if self.p_loss > 0.0 and rng.random() < self.p_loss:
            return None
        rate = self.rate
        if self.rate_jitter > 0.0:
            rate = self.rate * (1.0 + self.rate_jitter * (2.0 * rng.random() - 1.0))
        return self.payload_bits / rate

    def mean_rtt(self) -> float:
        return self.payload_bits / self.rate + self.downlink_delay


@dataclass(frozen=True)
class ComputeModel:
    """Per-coworker compute speed; one local iteration costs a fixed cycle budget."""

    speed: float                    # CPU cycles per time unit
    cycles_per_iteration: float

    def __post_init__(self) -> None:
        if self.speed <= 0.0 or self.cycles_per_iteration <= 0.0:
            raise ValueError("speed and cycles_per_iteration must be positive")

    @property
    def iteration_duration(self) -> float:
        return self.cycles_per_iteration / self.speed


@dataclass(frozen=True)
class ArrivalProcess:
    """Data arrival law for one coworker's stream."""

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
        """Whether scheduling an arrival draws from the arrival stream."""
        return self.kind == "poisson"


@dataclass
class CoworkerSetup:
    """Everything the engine needs to instantiate one coworker."""

    shard: Tuple[np.ndarray, np.ndarray]    # (X, y); arrival a is row a % len(y)
    link: LinkModel
    compute: ComputeModel
    arrivals: ArrivalProcess
    capacity: int
    minibatch: int


@dataclass
class _Runtime:
    """Engine-side bookkeeping for one coworker (not protocol state).

    Facts the protocol state already holds are read from it: iterations run
    (``state.t_local``), arrivals admitted (``state.buffer.next_arrival_index``)
    and the length of the current cluster (``state.iter_k``).
    """

    state: cw.CoworkerState
    setup: CoworkerSetup
    rng_sample: np.random.Generator
    rng_link: Optional[np.random.Generator]         # None when the link does not draw
    rng_arrival: Optional[np.random.Generator]      # None when the arrival law does not draw
    timer_duration: float
    phase: str = "stalled"          # stalled | computing | waiting
    cluster_token: int = 0
    timer_token: int = 0
    iters_done: int = 0
    cluster_anchor: float = 0.0     # start time of the current cluster
    stalls: int = 0
    coef_cursor: int = 0            # absolute index of the first unapplied log entry


class _Coefficients(NamedTuple):
    """One fairness-coefficient change in the engine's log."""

    sent: float                     # server time of the change
    lambdas: np.ndarray
    seq: int                        # queue position: after every event pushed before it


# the log is trimmed once it holds this many entries (or twice its last size)
_LOG_TRIM_MIN = 64


@dataclass
class MetricsRow:
    """One row of the per-aggregation metrics stream."""

    t: int
    time: float
    sender: int
    age: int
    beta: float
    lambda_checksum: float
    fairness_index: float
    global_risk: Optional[float] = None
    grad_sqnorm: Optional[float] = None


@dataclass
class RunResult:
    rows: List[MetricsRow]
    aggregations: int
    uplink_attempts: int
    uplink_drops: int
    stall_events: int
    iterations_total: int
    accepted_by: np.ndarray
    iters_per_acceptance: List[int]
    final_time: float
    events_processed: int           # calendar events; coefficient deliveries are not events
    stop_reason: str                # T_reached | horizon | budget | drained
    profiling_log: Optional[ProfilingLog] = None


class SimulationEngine:
    """Event-driven run of K coworkers against one aggregation server.

    ``iteration_hook(cid, state)`` runs after every local iteration.  Calls
    for one coworker come in its iteration order; calls for different
    coworkers may interleave in any order, because iterations run lazily
    when an event or a coefficient flush reaches their coworker.
    ``aggregation_hook(server, record)`` runs after every aggregation.  Both
    are read as attributes when they are due, so they may be set after
    construction.
    """

    def __init__(
        self,
        model: LossModel,
        setups: Sequence[CoworkerSetup],
        adaptive: cw.AdaptiveConfig,
        mixing: srv.MixingConfig,
        w0: np.ndarray,
        seed: int,
        eval_every: int = 0,
        enable_profiling: bool = False,
        timer_factor: float = 3.0,
        iteration_hook: Optional[Callable[[int, cw.CoworkerState], None]] = None,
        aggregation_hook: Optional[Callable[[srv.ServerState, srv.AggregationRecord], None]] = None,
    ) -> None:
        if not setups:
            raise ValueError("need at least one coworker")
        k = len(setups)
        self.model = model
        self.adaptive = adaptive
        self.mixing = mixing
        self.seed = seed
        self.eval_every = eval_every
        self.iteration_hook = iteration_hook
        self.aggregation_hook = aggregation_hook
        self.queue = EventQueue()
        self.now = 0.0

        # the per-iteration gradient does not check shapes: w0 and the shard
        # widths are checked here, once
        self.w0 = np.array(w0, dtype=np.float64)
        if self.w0.shape != (model.dim,):
            raise ValueError(f"w0 has shape {self.w0.shape}, expected ({model.dim},)")
        lambdas = uniform_weights(k)
        self.server = srv.ServerState(w_global=self.w0.copy(), lambdas=lambdas)
        self.eval_weights = lambdas.copy()      # grad_sqnorm weighs coworkers uniformly
        self._ranks = np.arange(1, k + 1)       # lambda_checksum = ranks @ lambdas
        # squared norm of the gradient at the current w̄, kept for the next
        # row between the aggregation that evaluated it and that row
        self._next_grad_sq: Optional[float] = None
        # every shard lives once, in the stacked set; each runtime's setup and
        # buffer hold views of its rows
        self.data = stack_shards([s.shard for s in setups])
        if self.data.X.shape[1] != model.dim:
            raise ValueError(
                f"shards have {self.data.X.shape[1]} features, model.dim is {model.dim}"
            )
        if eval_every > 0:
            self.data = feature_major(self.data)

        self.runtimes: List[_Runtime] = []
        for cid, (setup, shard) in enumerate(zip(setups, self.data.views())):
            setup = dataclasses.replace(setup, shard=shard)
            buf = StreamBuffer(*shard, capacity=setup.capacity, minibatch_size=setup.minibatch)
            state = cw.make_coworker(cid, self.w0, buf, lambdas[cid], adaptive)
            rt = _Runtime(
                state=state,
                setup=setup,
                rng_sample=self._rng(0, cid),
                rng_link=self._rng(1, cid) if setup.link.draws else None,
                rng_arrival=self._rng(2, cid) if setup.arrivals.draws else None,
                timer_duration=timer_factor * setup.link.mean_rtt(),
            )
            self.runtimes.append(rt)

        self.rows: List[MetricsRow] = []
        self.uplink_attempts = 0
        self.uplink_drops = 0
        self.accepted_by = np.zeros(k, dtype=np.int64)
        self.iters_per_acceptance: List[int] = []
        self.events_processed = 0
        self._coef_log: List[_Coefficients] = []
        self._coef_base = 0              # absolute index of _coef_log[0]
        self._coef_trim_at = _LOG_TRIM_MIN
        self.profiling_log = ProfilingLog(self.w0.copy()) if enable_profiling else None

        # seed the calendar: first arrivals, then the first cluster attempts
        for cid, rt in enumerate(self.runtimes):
            self._schedule_next_arrival(cid, 0.0)
        for cid in range(k):
            self._start_cluster(cid, 0.0)

    def _rng(self, domain: int, cid: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(domain, cid)))

    # ---------------- scheduling helpers ---------------- #

    def _schedule_next_arrival(self, cid: int, now: float) -> None:
        rt = self.runtimes[cid]
        proc = rt.setup.arrivals
        if proc.kind == "poisson":
            t = now + rt.rng_arrival.exponential(1.0 / proc.rate)
        elif proc.kind == "periodic":
            t = now + proc.interval
        else:  # trace: absolute times, finite stream
            index = rt.state.buffer.next_arrival_index
            if index >= len(proc.times):
                return
            t = proc.times[index]
        self.queue.push(t, EventKind.DATA_ARRIVAL, cid)

    def _start_cluster(self, cid: int, now: float) -> None:
        rt = self.runtimes[cid]
        if not rt.state.buffer.ready:
            rt.stalls += 1
            rt.phase = "stalled"
            return
        rt.phase = "computing"
        rt.cluster_token += 1
        rt.iters_done = 0
        rt.cluster_anchor = now
        end = now + rt.state.iter_k * rt.setup.compute.iteration_duration
        self.queue.push(end, EventKind.CLUSTER_COMPLETE, cid, token=rt.cluster_token)

    def _catch_up(self, cid: int, now: float, seq: int) -> None:
        """Execute every pending iteration whose boundary lies at or before now.

        Each iteration first adopts the newest coefficient that arrived
        strictly before its boundary.  Afterwards the coworker adopts every
        coefficient delivered by (now, seq) in calendar order.
        """
        rt = self.runtimes[cid]
        log, base = self._coef_log, self._coef_base
        logged = base + len(log)
        if rt.phase == "computing":
            state, rng, adaptive, model = rt.state, rt.rng_sample, self.adaptive, self.model
            dur = rt.setup.compute.iteration_duration
            delay = rt.setup.link.downlink_delay
            while rt.iters_done < state.iter_k:
                boundary = rt.cluster_anchor + (rt.iters_done + 1) * dur
                if boundary > now:
                    break
                # _delivered(cid, boundary, -1) passes the next entry exactly
                # when it arrived strictly before the boundary
                if rt.coef_cursor < logged and log[rt.coef_cursor - base].sent + delay < boundary:
                    self._adopt_coefficients(cid, boundary, -1)
                ok = cw.run_single_iteration(state, adaptive, model, rng, now=boundary)
                if not ok:
                    raise RuntimeError(
                        f"coworker {cid} lost minibatch readiness mid-cluster at {boundary:.6g}"
                    )
                rt.iters_done += 1
                if self.iteration_hook is not None:
                    self.iteration_hook(cid, state)
        if rt.coef_cursor < logged:
            self._adopt_coefficients(cid, now, seq)

    def _delivered(self, cid: int, time: float, seq: int) -> int:
        """Log index just past the entries delivered to cid by (time, seq).

        An entry is delivered when its arrival (send time plus cid's downlink
        delay) precedes (time, seq) in calendar order; seq -1 admits only
        arrivals strictly before time.
        """
        rt = self.runtimes[cid]
        delay = rt.setup.link.downlink_delay
        log = self._coef_log
        j = rt.coef_cursor - self._coef_base
        while j < len(log):
            entry = log[j]
            arrival = entry.sent + delay
            if arrival > time or (arrival == time and entry.seq > seq):
                break
            j += 1
        return j

    def _adopt_coefficients(self, cid: int, time: float, seq: int) -> None:
        """Apply the newest coefficient delivered to cid by (time, seq)."""
        rt = self.runtimes[cid]
        j = self._delivered(cid, time, seq)
        if j > rt.coef_cursor - self._coef_base:
            cw.handle_fairness_broadcast(rt.state, float(self._coef_log[j - 1].lambdas[cid]))
            rt.coef_cursor = self._coef_base + j

    def _flush_coefficients(self, time: float, seq: int) -> None:
        """Deliver every entry up to (time, seq), then drop the applied prefix.

        Each coworker is caught up to the arrival of the newest entry it
        receives, not to time: the iterations after that arrival have not
        yet been reached by any event of that coworker.
        """
        for cid, rt in enumerate(self.runtimes):
            j = self._delivered(cid, time, seq)
            if j > rt.coef_cursor - self._coef_base:
                entry = self._coef_log[j - 1]
                self._catch_up(cid, entry.sent + rt.setup.link.downlink_delay, entry.seq)
        passed = min(rt.coef_cursor for rt in self.runtimes) - self._coef_base
        del self._coef_log[:passed]
        self._coef_base += passed
        self._coef_trim_at = max(_LOG_TRIM_MIN, 2 * len(self._coef_log))

    # ---------------- event handlers ---------------- #

    def _on_data_arrival(self, ev: SimEvent) -> None:
        cid = ev.coworker
        rt = self.runtimes[cid]
        self._catch_up(cid, ev.time, ev.seq)
        admit(rt.state.buffer)
        self._schedule_next_arrival(cid, ev.time)
        if rt.phase == "stalled" and rt.state.buffer.ready:
            self._start_cluster(cid, ev.time)

    def _on_cluster_complete(self, ev: SimEvent) -> None:
        cid = ev.coworker
        rt = self.runtimes[cid]
        if rt.phase != "computing" or ev.token != rt.cluster_token:
            return  # the cluster was aborted by a downlink
        self._catch_up(cid, ev.time, ev.seq)
        if rt.iters_done != rt.state.iter_k:
            raise RuntimeError("cluster completion fired before all iterations elapsed")
        payload = cw.finalize_cluster(rt.state, self.adaptive)
        self.uplink_attempts += 1
        delay = rt.setup.link.uplink_attempt(rt.rng_link)
        if delay is None:
            self.uplink_drops += 1
        else:
            self.queue.push(ev.time + delay, EventKind.UPLINK_DELIVERY, cid, payload=payload)
        rt.timer_token += 1
        self.queue.push(ev.time + rt.timer_duration, EventKind.TIMER_EXPIRY, cid,
                        token=rt.timer_token)
        rt.phase = "waiting"

    def _on_uplink_delivery(self, ev: SimEvent) -> None:
        payload: cw.UplinkPayload = ev.payload
        server = self.server
        if self.profiling_log is not None:
            record_aggregation(self.profiling_log, server.w_global - payload.w,
                               payload.last_grad)
        # row t takes its gradient before this aggregation and its risk after
        # it; one evaluation after aggregation t serves row t and row t + 1
        t, every = server.t + 1, self.eval_every
        due = every > 0 and t % every == 0
        next_due = every > 0 and (t + 1) % every == 0
        grad_sq = None
        if due:
            if self._next_grad_sq is None:      # row 1: no aggregation evaluated w0
                self._evaluate(False, True)
            grad_sq, self._next_grad_sq = self._next_grad_sq, None
        record = srv.process_uplink(server, payload, self.mixing)
        self.accepted_by[payload.sender] += 1
        self.iters_per_acceptance.append(payload.iters_in_cluster)
        risk = self._evaluate(due, next_due) if due or next_due else None
        checksum = float(self._ranks @ server.lambdas)
        self.rows.append(MetricsRow(
            t=record.t, time=ev.time, sender=record.sender, age=record.age,
            beta=record.beta, lambda_checksum=checksum,
            fairness_index=record.fairness_index, global_risk=risk, grad_sqnorm=grad_sq,
        ))
        if self.aggregation_hook is not None:
            self.aggregation_hook(server, record)
        # coefficient broadcast first, then the sender's model downlink
        if record.lambda_changed:
            self._coef_log.append(_Coefficients(ev.time, server.lambdas.copy(),
                                                self.queue.next_seq))
            if len(self._coef_log) >= self._coef_trim_at:
                self._flush_coefficients(ev.time, ev.seq)
        rt = self.runtimes[payload.sender]
        self.queue.push(ev.time + rt.setup.link.downlink_delay, EventKind.DOWNLINK_DELIVERY,
                        payload.sender, payload=(server.w_global.copy(), server.t))

    def _on_downlink_delivery(self, ev: SimEvent) -> None:
        cid = ev.coworker
        rt = self.runtimes[cid]
        self._catch_up(cid, ev.time, ev.seq)
        w_global, stamp = ev.payload
        cw.handle_downlink(rt.state, w_global, stamp)
        rt.timer_token += 1      # any pending timeout is now stale
        # a new cluster aborts an in-flight one (its token changes); a
        # stalled coworker keeps waiting for buffer warm-up
        if rt.phase != "stalled":
            self._start_cluster(cid, ev.time)

    def _on_timer_expiry(self, ev: SimEvent) -> None:
        cid = ev.coworker
        rt = self.runtimes[cid]
        if ev.token != rt.timer_token or rt.phase != "waiting":
            return
        # give up on the pending uplink; the next cluster continues from local state
        self._start_cluster(cid, ev.time)

    def _evaluate(self, risk_due: bool, grad_due: bool) -> Optional[float]:
        """One score product at the current w̄.

        Returns the global risk under the current λ when risk_due; when
        grad_due, keeps the squared norm of the uniformly weighted gradient
        for the next row.
        """
        server = self.server
        risk, g = global_evaluation(self.model, server.w_global, self.data,
                                    server.lambdas if risk_due else None,
                                    self.eval_weights if grad_due else None)
        if grad_due:
            self._next_grad_sq = float(g @ g)
        return risk

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
        ``event_budget`` and ``events_processed`` count calendar events only.
        On return every coworker holds the coefficients, and has run the
        iterations, that deliveries up to the stopping point imply.
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
        # coefficients delivered by (stop_time, stop_seq) in calendar order
        # reach their coworkers before run returns; an earlier stop of this
        # engine already delivered those up to (now, -1)
        stop_time, stop_seq = self.now, -1
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
        self._flush_coefficients(stop_time, stop_seq)
        return RunResult(
            rows=self.rows,
            aggregations=self.server.t,
            uplink_attempts=self.uplink_attempts,
            uplink_drops=self.uplink_drops,
            stall_events=sum(rt.stalls for rt in self.runtimes),
            iterations_total=sum(rt.state.t_local for rt in self.runtimes),
            accepted_by=self.accepted_by.copy(),
            iters_per_acceptance=list(self.iters_per_acceptance),
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
        for cid, rt in enumerate(self.runtimes):
            X, y = rt.setup.shard
            f_first = risk_arrays(self.model, log.w_start, X, y)
            f_last = risk_arrays(self.model, w_end, X, y)
            zeta_hat = None
            batch = sample_minibatch(rt.state.buffer, self._rng(3, cid))
            if batch is not None and displacement > 0.0:
                g_last = minibatch_gradient(self.model, rt.state.w, *batch)
                g_first = minibatch_gradient(self.model, log.w_start, *batch)
                zeta_hat = float(np.linalg.norm(g_last - g_first)) / displacement
            log.coworker_stats.append((f_first, f_last, zeta_hat))
        return log
