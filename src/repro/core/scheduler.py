"""DeviceScheduler: concurrent multi-request serving on one device (DESIGN.md §6).

A monolithic pass would hold the device for one request at a time.
The step-based execution core (:class:`~repro.core.engine.RerankTask`)
turns a pass into a resumable sequence of layer steps, and this module
adds the scheduler that time-multiplexes several in-flight passes on
the single :class:`~repro.device.clock.VirtualClock`:

* **Admission** — requests are admitted by
  :meth:`~DeviceScheduler.submit_request` with arrival times on the
  device clock; at most ``max_concurrency`` tasks hold device
  resources at once (memory for hidden states and stream buffers is
  per in-flight task), the rest wait in the queue.
  One exception keeps the priority guarantee honest: under the
  ``priority`` policy an arrival may be admitted over the cap while a
  strictly lower-priority task is in flight, so a cap saturated by
  batch work can still be preempted (reserve memory headroom for the
  interactive lane accordingly).
* **Policies** — ``fifo`` runs admitted tasks to completion in arrival
  order (the pre-scheduler behaviour, now expressed as a policy);
  ``round_robin`` deals each in-flight task a quantum of
  ``quantum_layers`` steps in rotation; ``priority`` serves lanes
  (interactive preempts batch) and preempts a lower-priority task at
  its next layer boundary the moment a higher-priority request arrives.
* **Clock coherence** — steps execute one at a time on the shared
  compute stream, so every step occupies a disjoint interval of the
  one simulated timeline; a request's end-to-end latency is simply its
  span on that axis, and queue/service/e2e decompose exactly.
* **Determinism** — the simulator has no hidden randomness, so the
  schedule itself is a deterministic artifact: :meth:`trace_text`
  renders the step sequence canonically and identical inputs produce
  byte-identical schedules (asserted in ``tests/test_scheduler.py``).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from ..device.faults import FAULT_REPLICA_CRASH, DeviceFault
from ..model.transformer import CandidateBatch
from .engine import EngineBase, RerankResult, RerankTask

#: Priority lanes: lower number = served first.
LANE_INTERACTIVE = 0
LANE_BATCH = 1

#: Known scheduling policies.
SCHEDULING_POLICIES = ("fifo", "round_robin", "priority", "fusion")


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs for a :class:`DeviceScheduler`.

    Parameters
    ----------
    policy:
        One of :data:`SCHEDULING_POLICIES`.
    quantum_layers:
        Layer steps a task runs before the scheduler re-decides
        (``round_robin``/``priority``; ``fifo`` ignores it, ``fusion``
        always re-decides after one step to keep the gang in lockstep).
    max_concurrency:
        Most tasks holding device resources at once.  Each in-flight
        task keeps its hidden states (and stream buffers) resident, so
        this bounds the serving memory overhead of multiplexing.  The
        ``priority`` policy may admit a higher-priority arrival over
        the cap to preempt in-flight batch work (overshoot bounded by
        the number of concurrent higher-priority requests).
    max_skew:
        ``fusion`` only: the longest (simulated seconds) an arrival may
        be held back to join a *fresh* fused group at layer 0 rather
        than start skewed behind a group already deep into its sweep.
        ``0.0`` admits arrivals immediately (they catch up and fuse
        from wherever the plane stands); larger values trade admission
        latency for fused-sweep purity and a bounded shared-buffer
        residency window (DESIGN.md §7).
    edf:
        Earliest-deadline-first admission ordering (DESIGN.md §8):
        requests carrying a deadline are started before later-deadline
        (or deadline-less) ones — inside each priority lane under the
        ``priority`` policy, globally otherwise.  Orthogonal to the
        in-flight policy: EDF decides *who starts next*, the policy
        decides *whose quantum runs*.
    """

    policy: str = "fifo"
    quantum_layers: int = 1
    max_concurrency: int = 4
    max_skew: float = 0.0
    edf: bool = False

    def __post_init__(self) -> None:
        if self.policy not in SCHEDULING_POLICIES:
            known = ", ".join(SCHEDULING_POLICIES)
            raise ValueError(f"unknown scheduling policy {self.policy!r}; known: {known}")
        if self.quantum_layers < 1:
            raise ValueError("quantum_layers must be >= 1")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.max_skew < 0:
            raise ValueError("max_skew must be >= 0")


@dataclass(frozen=True)
class ScheduledRequest:
    """One admitted request awaiting service."""

    request_id: int
    batch: CandidateBatch
    k: int
    arrival: float
    priority: int = LANE_BATCH
    sample: bool | None = None  # sampling override threaded to the service layer
    #: Caller correlation id; duplicates among in-flight requests are
    #: rejected at submission so outcome correlation cannot collide.
    client_id: str | int | None = None
    #: Absolute device-clock instant the request must complete by; a
    #: request that has not *started* by its deadline is shed at
    #: admission and never reaches the engine (DESIGN.md §8).
    deadline: float | None = None
    #: Absolute device-clock instant at which the request is cancelled:
    #: dropped at admission if still waiting, closed at its next layer
    #: boundary (releasing weight-plane refcounts) if in flight.
    cancel_at: float | None = None


@dataclass
class DroppedRequest:
    """One request the scheduler dropped instead of completing.

    ``reason`` is ``"shed"`` (deadline-aware admission), ``"cancelled"``
    (caller intent) or ``"failed"`` (an injected device fault,
    DESIGN.md §9 — ``detail`` then names the fault kind); ``at`` is the
    drop instant on the device clock.  ``client_id`` carries the
    caller's correlation id on tiers that have one (the fleet layer
    reuses this record type).
    """

    request_id: int
    priority: int
    arrival: float
    at: float
    reason: str
    deadline: float | None = None
    client_id: str | int | None = None
    detail: str = ""
    #: Failover provenance on tiers that retry (the fleet layer):
    #: dispatch attempts consumed and the replicas that failed them.
    attempts: int = 1
    failed_over_from: tuple[int, ...] = ()
    #: Submitting tenant on tiers with multi-tenant admission
    #: (DESIGN.md §13); ``None`` outside the tenancy plane.
    tenant: str | None = None


@dataclass
class StepEvent:
    """One executed layer step — the unit of the schedule trace."""

    request_id: int
    step_index: int  # per-task step counter
    start: float
    end: float


@dataclass
class ScheduledOutcome:
    """Completion record of one request on the device time axis."""

    request_id: int
    priority: int
    arrival: float
    start: float  # first step began (service start)
    finish: float  # last step ended
    service_seconds: float  # time spent in this task's own steps
    preempted: bool  # another task's step ran between this task's steps
    result: RerankResult
    sample: bool | None = None
    deadline: float | None = None  # absolute device-clock deadline, if any
    #: Data-plane provenance (DESIGN.md §12): ``"hit"`` (memoized,
    #: never occupied a scheduler slot), ``"coalesced"`` (attached to
    #: an in-flight leader) or ``None`` (served by a full pass).
    cache: str | None = None

    @property
    def queue_wait(self) -> float:
        return self.start - self.arrival

    @property
    def e2e_latency(self) -> float:
        return self.finish - self.arrival

    @property
    def deadline_met(self) -> bool | None:
        """Completed by the deadline?  ``None`` when none was set."""
        if self.deadline is None:
            return None
        return self.finish <= self.deadline

    @property
    def preemption_seconds(self) -> float:
        """Time the task spent preempted while in flight."""
        return (self.finish - self.start) - self.service_seconds


@dataclass
class SchedulerStats:
    """Aggregate view over a drain's completed outcomes."""

    outcomes: list[ScheduledOutcome] = field(default_factory=list)
    makespan: float = 0.0

    def lane(self, priority: int) -> list[ScheduledOutcome]:
        return [o for o in self.outcomes if o.priority == priority]

    def latency_percentile(self, p: float, priority: int | None = None) -> float:
        pool = self.outcomes if priority is None else self.lane(priority)
        if not pool:
            return float("nan")
        return float(np.percentile([o.e2e_latency for o in pool], p))

    def mean_queue_wait(self, priority: int | None = None) -> float:
        pool = self.outcomes if priority is None else self.lane(priority)
        if not pool:
            return float("nan")
        return float(np.mean([o.queue_wait for o in pool]))

    @property
    def throughput_rps(self) -> float:
        if not self.outcomes or self.makespan <= 0:
            return float("nan")
        return len(self.outcomes) / self.makespan


@dataclass
class _InFlight:
    """Scheduler-internal record of a started task."""

    request: ScheduledRequest
    task: RerankTask
    started_order: int
    start: float | None = None  # first step began (service start)
    service_seconds: float = 0.0
    last_step_end: float | None = None
    preempted: bool = False


class DeviceScheduler:
    """Time-multiplexes :class:`RerankTask` steps on one engine.

    The engine must already be ``prepare()``\\ d.  Typical use::

        scheduler = DeviceScheduler(engine, SchedulerConfig(policy="priority"))
        scheduler.submit_request(batch_a, k=10)               # batch lane
        scheduler.submit_request(batch_b, k=3, priority=LANE_INTERACTIVE, arrival=0.1)
        outcomes = scheduler.drain()

    Serving code normally reaches the scheduler through
    :class:`~repro.core.api.DeviceServer` (DESIGN.md §8), which resolves
    request offsets against the device clock.  ``drain()`` replays
    arrivals on the device clock and runs the policy loop until every
    submitted request completes; per-request selections are
    byte-identical to solo execution because candidate scores depend
    only on (model seed, uid, layer), never on what else shares the
    device (DESIGN.md §2, §6).
    """

    def __init__(
        self,
        engine: EngineBase,
        config: SchedulerConfig | None = None,
        event_log=None,
    ) -> None:
        if not engine._prepared:
            raise RuntimeError(f"{engine.name}: DeviceScheduler over an unprepared engine")
        self.engine = engine
        self.config = config or SchedulerConfig()
        #: Observability sink (DESIGN.md §10); ``None`` observes nothing
        #: and changes nothing — selections stay byte-identical.
        self.events = event_log
        self.trace: list[StepEvent] = []
        #: Requests dropped instead of completed (shed / cancelled),
        #: in drop order; see :class:`DroppedRequest`.
        self.dropped: list[DroppedRequest] = []
        self._pending: list[ScheduledRequest] = []
        self._pending_client_ids: set[str | int] = set()
        self._outcomes: list[ScheduledOutcome] = []
        self._next_id = 0
        self._started_counter = 0
        self._first_arrival: float | None = None
        self._rr_cursor = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    @property
    def clock(self):
        return self.engine.device.clock

    @property
    def pending_requests(self) -> int:
        return len(self._pending)

    def submit_request(
        self,
        batch: CandidateBatch,
        k: int,
        *,
        arrival: float | None = None,
        priority: int = LANE_BATCH,
        sample: bool | None = None,
        deadline: float | None = None,
        cancel_at: float | None = None,
        client_id: str | int | None = None,
    ) -> int:
        """Admit one request with full intent; returns its scheduler id.

        ``arrival``, ``deadline`` and ``cancel_at`` are absolute
        instants on the device clock (``arrival=None`` means *now*).
        ``client_id`` is the caller's correlation id; a duplicate among
        the in-flight (submitted, not yet drained) requests raises
        ``ValueError`` instead of silently colliding when outcomes are
        correlated back to callers.
        """
        arrival = self.clock.now if arrival is None else float(arrival)
        if arrival < self.clock.now:
            raise ValueError(
                f"arrival {arrival!r} lies before device time {self.clock.now!r}"
            )
        if priority < 0:
            raise ValueError("priority must be non-negative")
        if k <= 0:
            # Fail here, not mid-drain: by the time the queue pops this
            # request, other requests may already have consumed device time.
            raise ValueError("k must be positive")
        if deadline is not None and deadline <= arrival:
            raise ValueError("deadline must lie after the request's arrival")
        if client_id is not None:
            if client_id in self._pending_client_ids:
                raise ValueError(
                    f"duplicate in-flight request id {client_id!r}: already "
                    "submitted and not yet drained"
                )
            self._pending_client_ids.add(client_id)
        request = ScheduledRequest(
            request_id=self._next_id,
            batch=batch,
            k=k,
            arrival=arrival,
            priority=priority,
            sample=sample,
            deadline=deadline,
            cancel_at=cancel_at,
            client_id=client_id,
        )
        self._next_id += 1
        self._pending.append(request)
        if self._first_arrival is None or arrival < self._first_arrival:
            self._first_arrival = arrival
        self._emit(
            "admit",
            request,
            arrival=arrival,
            k=k,
            priority=priority,
            deadline=deadline,
            cancel_at=cancel_at,
        )
        return request.request_id

    # ------------------------------------------------------------------
    # the policy loop
    # ------------------------------------------------------------------
    def drain(self) -> list[ScheduledOutcome]:
        """Serve every submitted request; returns outcomes in completion order.

        Under the ``fusion`` policy the drain runs inside the engine's
        group-stepping mode (:meth:`~repro.core.engine.EngineBase.gang_step`,
        DESIGN.md §11): the lockstep gang's layer crossings execute as
        one stacked forward per layer instead of one per member.  The
        schedule itself — step order, clock intervals, events — is
        byte-identical to sequential execution; only the harness's own
        wall-clock drops.
        """
        gang_mode = (
            self.engine.gang_step()
            if self.config.policy == "fusion"
            else contextlib.nullcontext()
        )
        with gang_mode:
            return self._drain_loop()

    def _drain_loop(self) -> list[ScheduledOutcome]:
        pending = sorted(self._pending, key=lambda r: (r.arrival, r.request_id))
        self._pending.clear()
        self._pending_client_ids.clear()
        waiting: list[ScheduledRequest] = []  # arrived, not yet holding resources
        active: list[_InFlight] = []
        completed: list[ScheduledOutcome] = []
        i = 0

        def admit() -> None:
            """Move arrivals into the wait queue and start what fits.

            Under the ``priority`` policy a waiter may be admitted *over*
            ``max_concurrency`` when a strictly lower-priority task is in
            flight — otherwise a cap saturated by batch work could never
            be preempted and the interactive lane would queue behind
            whole batch passes.  The overshoot is bounded by the number
            of concurrently in-flight higher-priority requests.
            """
            nonlocal i
            while i < len(pending) and pending[i].arrival <= self.clock.now:
                waiting.append(pending[i])
                i += 1
            waiting.sort(key=self._wait_order)
            while waiting:
                request = waiting[0]
                # Intent checks precede capacity checks, so a doomed
                # request at the head can never wedge the queue.
                if request.cancel_at is not None and request.cancel_at <= self.clock.now:
                    waiting.pop(0)
                    self._drop(request, "cancelled")
                    continue
                if request.deadline is not None and self.clock.now >= request.deadline:
                    # Shed: it cannot start before its deadline, so it
                    # never reaches the engine (DESIGN.md §8).
                    waiting.pop(0)
                    self._drop(request, "shed")
                    continue
                over_cap_preemption = self.config.policy == "priority" and any(
                    flight.request.priority > request.priority for flight in active
                )
                if len(active) >= self.config.max_concurrency and not over_cap_preemption:
                    # waiting is sorted, so nothing behind the head fits either.
                    break
                if self.config.policy == "fusion" and self._fusion_hold(request, active):
                    break
                waiting.pop(0)
                if self.config.policy == "fusion" and active:
                    self._emit("fuse", request, group_size=len(active) + 1)
                self._emit("dispatch", request, in_flight=len(active) + 1)
                active.append(
                    _InFlight(
                        request=request,
                        task=self.engine.start(request.batch, request.k),
                        started_order=self._started_counter,
                    )
                )
                self._started_counter += 1

        def reap_cancelled() -> None:
            """Close in-flight tasks whose cancellation instant passed.

            A mid-pass cancel lands at the task's next layer boundary —
            :meth:`RerankTask.close` runs the pass teardown, so shared
            weight-plane refcounts are released immediately, not when
            the drain ends (DESIGN.md §8).
            """
            for flight in list(active):
                cancel_at = flight.request.cancel_at
                if cancel_at is not None and self.clock.now >= cancel_at:
                    flight.task.close()
                    active.remove(flight)
                    self._drop(flight.request, "cancelled")

        try:
            while active or waiting or i < len(pending):
                admit()  # completions free capacity; arrivals may be due
                reap_cancelled()
                if not active:
                    if waiting or i >= len(pending):
                        # Drops may have emptied the in-flight set while
                        # waiters still queue; re-admit before advancing.
                        if waiting:
                            continue
                        break
                    # admit() starts waiters whenever capacity is free, so an
                    # empty active set means a future arrival is all that is left.
                    self.clock.advance_to(pending[i].arrival)
                    continue
                flight = self._pick(active)
                for _ in range(self.config.quantum_layers):
                    before = self.clock.now
                    if flight.start is None:
                        flight.start = before
                    try:
                        done = flight.task.step()
                    except DeviceFault as fault:
                        self._on_fault(fault, flight, active, waiting)
                        if fault.kind == FAULT_REPLICA_CRASH:
                            # The whole device died: everything not yet
                            # served fails, future arrivals included.
                            while i < len(pending):
                                self._fail(pending[i], fault)
                                i += 1
                        break
                    now = self.clock.now
                    flight.service_seconds += now - before
                    if flight.last_step_end is not None and before > flight.last_step_end:
                        flight.preempted = True
                    flight.last_step_end = now
                    self.trace.append(
                        StepEvent(
                            request_id=flight.request.request_id,
                            step_index=flight.task.steps_taken - 1,
                            start=before,
                            end=now,
                        )
                    )
                    admit()  # the step advanced the clock; new arrivals may be due
                    if done:
                        active.remove(flight)
                        outcome = self._finish(flight)
                        completed.append(outcome)
                        # Record immediately: stats must survive a later
                        # request failing mid-drain (e.g. OOM under load).
                        self._outcomes.append(outcome)
                        break
                    reap_cancelled()
                    if flight not in active:
                        break  # this task was cancelled at the boundary
                    if self._should_preempt(flight, active):
                        break
        except BaseException:
            # One request failing (OOM under load) abandons the rest of
            # the drain: close the survivors so admitted-but-unfinished
            # tasks release shared resources (a never-stepped task would
            # otherwise pin the weight plane's reap floor forever).
            for flight in active:
                flight.task.close()
            raise

        return completed

    def _wait_order(self, request: ScheduledRequest):
        deadline = request.deadline if request.deadline is not None else float("inf")
        if self.config.policy == "priority":
            if self.config.edf:
                return (request.priority, deadline, request.arrival, request.request_id)
            return (request.priority, request.arrival, request.request_id)
        if self.config.edf:
            return (deadline, request.arrival, request.request_id)
        return (request.arrival, request.request_id)

    def drop_counts(self) -> dict[str, int]:
        """Drops so far, keyed ``reason`` or ``reason/detail`` (§14).

        The same normalization the live telemetry plane applies to shed
        events — a bare deadline shed (empty detail) counts under its
        reason alone — so a scheduler-level rollup can be compared
        directly against ``repro_requests_shed_total`` label values.
        """
        counts: dict[str, int] = {}
        for drop in self.dropped:
            key = f"{drop.reason}/{drop.detail}" if drop.detail else drop.reason
            counts[key] = counts.get(key, 0) + 1
        return counts

    def _drop(self, request: ScheduledRequest, reason: str, detail: str = "") -> None:
        self.dropped.append(
            DroppedRequest(
                request_id=request.request_id,
                priority=request.priority,
                arrival=request.arrival,
                at=self.clock.now,
                reason=reason,
                deadline=request.deadline,
                client_id=request.client_id,
                detail=detail,
            )
        )
        kind = {"shed": "shed", "cancelled": "cancel", "failed": "fail"}[reason]
        self._emit(kind, request, detail=detail)

    def _emit(self, kind: str, request: ScheduledRequest, **data) -> None:
        """Publish a device-tier event (DESIGN.md §10); no-op without a sink."""
        if self.events is not None:
            label = request.client_id if request.client_id is not None else request.request_id
            self.events.emit(
                kind,
                at=self.clock.now,
                tier="device",
                request=label,
                replica=self.engine.device.events_replica,
                **data,
            )

    def _fail(self, request: ScheduledRequest, fault: DeviceFault) -> None:
        self._drop(request, "failed", detail=fault.kind)

    def _on_fault(
        self,
        fault: DeviceFault,
        flight: _InFlight,
        active: list[_InFlight],
        waiting: list[ScheduledRequest],
    ) -> None:
        """Fail what an injected fault killed (DESIGN.md §9).

        The faulting task is already torn down (its step closed it on
        the way out, releasing weight-plane refcounts like a cancel).
        A *crash* additionally takes the whole device with it: every
        other in-flight task is closed and every waiter failed.
        """
        active.remove(flight)
        flight.task.close()  # idempotent; a crash already closed it
        self._fail(flight.request, fault)
        if fault.kind == FAULT_REPLICA_CRASH:
            for other in active:
                other.task.close()
                self._fail(other.request, fault)
            active.clear()
            for request in waiting:
                self._fail(request, fault)
            waiting.clear()

    def _fusion_hold(self, request: ScheduledRequest, active: list[_InFlight]) -> bool:
        """Should a fusion arrival wait for a fresh group at layer 0?

        A group that has not stepped yet can still be joined losslessly;
        one already deep into its sweep cannot (layers behind its
        frontier are gone from the weight plane).  The arrival is held
        back — for at most ``max_skew`` simulated seconds — hoping the
        running group drains first; past the bound it is admitted
        anyway and catches up skewed.
        """
        if not active:
            return False
        if max(flight.task.steps_taken for flight in active) == 0:
            return False  # the group has not stepped yet — join it losslessly
        return (self.clock.now - request.arrival) < self.config.max_skew

    def _pick(self, active: list[_InFlight]) -> _InFlight:
        """Choose the in-flight task that runs the next quantum."""
        policy = self.config.policy
        if policy == "fifo":
            # Run-to-completion in start order: always the oldest task.
            return min(active, key=lambda f: f.started_order)
        if policy == "round_robin":
            # Deal quanta in start order, cycling.
            ordered = sorted(active, key=lambda f: f.started_order)
            flight = ordered[self._rr_cursor % len(ordered)]
            self._rr_cursor += 1
            return flight
        if policy == "fusion":
            # Gang lockstep: always the task furthest behind, so every
            # in-flight task crosses each layer boundary back-to-back
            # and one plane fetch serves the whole group (DESIGN.md §7).
            return min(active, key=lambda f: (f.task.steps_taken, f.started_order))
        # priority: best lane first; FIFO inside a lane.
        return min(active, key=lambda f: (f.request.priority, f.started_order))

    def _should_preempt(self, flight: _InFlight, active: list[_InFlight]) -> bool:
        """After a quantum: must the running task yield the device?"""
        if self.config.policy == "fusion":
            # Re-decide after every step: lockstep order is a property
            # of the whole gang, not of the task that just ran.
            return True
        if self.config.policy != "priority":
            return False
        return any(f.request.priority < flight.request.priority for f in active)

    def _finish(self, flight: _InFlight) -> ScheduledOutcome:
        assert flight.start is not None  # a task cannot finish without stepping
        self._emit(
            "complete",
            flight.request,
            start=flight.start,
            service_seconds=flight.service_seconds,
            steps=flight.task.steps_taken,
        )
        return ScheduledOutcome(
            request_id=flight.request.request_id,
            priority=flight.request.priority,
            arrival=flight.request.arrival,
            start=flight.start,
            finish=self.clock.now,
            service_seconds=flight.service_seconds,
            preempted=flight.preempted,
            result=flight.task.result,
            sample=flight.request.sample,
            deadline=flight.request.deadline,
        )

    # ------------------------------------------------------------------
    # statistics & trace
    # ------------------------------------------------------------------
    def stats(self) -> SchedulerStats:
        first = self._first_arrival if self._first_arrival is not None else 0.0
        last = max([o.finish for o in self._outcomes], default=first)
        return SchedulerStats(
            outcomes=list(self._outcomes), makespan=max(0.0, last - first)
        )

    def fused_group_sizes(self) -> list[int]:
        """Sizes of the back-to-back same-layer step groups in the trace.

        A *fused group* is a maximal run of consecutive steps sharing
        one step index — the signature of several tasks crossing the
        same layer boundary back-to-back (one weight fetch through the
        shared plane, per-task compute charged in sequence).  FIFO
        yields groups of 1; a perfect gang of N yields groups of N.
        """
        sizes: list[int] = []
        current_index: int | None = None
        for event in self.trace:
            if current_index is not None and event.step_index == current_index:
                sizes[-1] += 1
            else:
                sizes.append(1)
                current_index = event.step_index
        return sizes

    @property
    def mean_fused_occupancy(self) -> float:
        """Mean fused-group size over the executed schedule."""
        sizes = self.fused_group_sizes()
        return float(np.mean(sizes)) if sizes else 0.0

    def fused_group_ids(self) -> dict[int, int]:
        """Map each request to the fused group its first step joined.

        Group ids index the runs counted by :meth:`fused_group_sizes`;
        requests sharing an id entered the schedule back-to-back at the
        same layer boundary.  Provenance for
        :class:`~repro.core.api.SelectionResponse`.
        """
        groups: dict[int, int] = {}
        group_id = -1
        current_index: int | None = None
        for event in self.trace:
            if current_index is None or event.step_index != current_index:
                group_id += 1
                current_index = event.step_index
            groups.setdefault(event.request_id, group_id)
        return groups

    def trace_text(self) -> str:
        """Canonical rendering of the schedule — byte-comparable.

        One line per executed step: which request ran its n-th step
        over which interval of the simulated timeline.  Two runs over
        identical inputs must produce identical bytes (determinism is
        an acceptance bar, not an aspiration).
        """
        lines = [
            f"r{e.request_id:03d} step{e.step_index:04d} "
            f"{e.start:.9f} -> {e.end:.9f}"
            for e in self.trace
        ]
        return "\n".join(lines)
