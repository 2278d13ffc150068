"""The unified request-centric serving API (DESIGN.md §8).

This module is the single front door to all three serving tiers
(direct execution on one engine, one shared device, a replicated
fleet), so callers express per-request intent — priority, deadline,
sampling, cancellation — uniformly.  One :class:`SelectionRequest`
carries everything a caller may want to say about a request; one
:class:`SelectionResponse` carries everything a tier can say back
(unified result + queue/service/e2e timing + provenance); and one
:class:`Server` protocol — ``submit() -> RequestHandle``,
``handle.result()``, ``handle.cancel()``, ``drain()`` — is implemented
by three adapters:

* :class:`EngineServer` — direct execution on one engine;
* :class:`DeviceServer` — the :class:`~repro.core.scheduler.DeviceScheduler`
  + :class:`~repro.core.service.SemanticSelectionService`
  threshold/sampling loop on one shared device;
* :class:`FleetServer` — the batched, routed
  :class:`~repro.core.fleet.FleetService`.

The same request list runs unchanged on any tier, and (solo, no
shedding) produces byte-identical selection indices on all three —
candidate scores depend only on (model seed, uid, layer), never on
where the request ran (DESIGN.md §2).

Intent fields are real, not decorative: a ``deadline`` makes every
tier shed the request at admission once it can no longer start in
time (``SchedulerConfig(edf=True)`` additionally orders admission by
earliest deadline), and ``handle.cancel()`` propagates through
:meth:`~repro.core.engine.RerankTask.close` so a cancelled mid-pass
request releases its :class:`~repro.core.streaming.WeightPlane`
refcounts at the next layer boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence, runtime_checkable

from ..device.faults import DeviceFault
from ..model.transformer import CandidateBatch
from .engine import EngineBase, RerankResult
from .fleet import FleetService
from .scheduler import LANE_BATCH, DroppedRequest
from .service import SemanticSelectionService

#: Request completed normally; ``response.result`` holds the selection.
REQUEST_OK = "ok"
#: Deadline-aware admission dropped the request before it reached an
#: engine (it could no longer start in time).
REQUEST_SHED = "shed"
#: The caller cancelled the request (before service, or mid-pass at a
#: layer boundary).
REQUEST_CANCELLED = "cancelled"
#: An injected device fault killed the request (DESIGN.md §9) and —
#: on tiers with failover — its retries were exhausted.
REQUEST_FAILED = "failed"

#: Every status a :class:`SelectionResponse` may carry.
REQUEST_STATUSES = (REQUEST_OK, REQUEST_SHED, REQUEST_CANCELLED, REQUEST_FAILED)


@dataclass(frozen=True)
class SelectionRequest:
    """One top-K selection request, tier-agnostic (DESIGN.md §8).

    Parameters
    ----------
    batch / k:
        The candidate pool and how many winners to select.
    request_id:
        Caller-chosen correlation id carried end-to-end into the
        :class:`SelectionResponse` (and, on the fleet tier, into
        :class:`~repro.core.fleet.RequestOutcome`).  ``None`` lets the
        server assign ``r0, r1, ...`` at submission.
    priority:
        Scheduler lane (:data:`~repro.core.scheduler.LANE_INTERACTIVE`
        preempts :data:`~repro.core.scheduler.LANE_BATCH` under the
        ``priority`` policy).
    arrival:
        Arrival offset in seconds from the serving wave's origin
        (``None`` = due immediately).  Offsets, not absolutes: the
        serving clock is already deep into its own timeline.
    deadline:
        Seconds after arrival by which the request must complete on
        the virtual clock.  A request that cannot start before its
        deadline is *shed* at admission and never reaches an engine.
    sample:
        Idle-check sampling override threaded to the service layer
        (``True`` forces logging, ``False`` suppresses it, ``None``
        applies the deterministic stride).
    hedge_after_ms:
        Fleet tier, serial replicas: if the request has not completed
        this many milliseconds after arrival, duplicate it onto a
        second healthy replica — first result wins, the loser is
        cancelled at its next layer boundary (DESIGN.md §9).
    memoize:
        Data-plane opt-out (DESIGN.md §12): ``False`` bypasses the
        request memo/coalescing cache entirely and forces a full pass;
        ``None``/``True`` lets the serving tier's plane (when one is
        attached) answer from cache.
    tenant:
        Submitting tenant id for the multi-tenant workload plane
        (DESIGN.md §13).  On the fleet tier with a
        :class:`~repro.core.tenancy.TenancyConfig` attached, fair
        admission charges this tenant's token bucket and orders the
        flush by its fair-queueing tag; the id is echoed into
        :class:`SelectionResponse`, :class:`~repro.core.fleet.RequestOutcome`
        and every emitted event.  ``None`` = untenanted.
    metadata:
        Free-form caller annotations, echoed untouched and never
        interpreted (a ``"tenant"`` key does not set :attr:`tenant`).
    """

    batch: CandidateBatch
    k: int
    request_id: str | int | None = None
    priority: int = LANE_BATCH
    arrival: float | None = None
    deadline: float | None = None
    sample: bool | None = None
    hedge_after_ms: float | None = None
    memoize: bool | None = None
    tenant: str | None = None
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.priority < 0:
            raise ValueError("priority must be non-negative")
        if self.arrival is not None and self.arrival < 0:
            raise ValueError("arrivals are offsets from now; must be >= 0")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (seconds after arrival)")
        if self.hedge_after_ms is not None and self.hedge_after_ms <= 0:
            raise ValueError("hedge_after_ms must be positive")

    @property
    def arrival_offset(self) -> float:
        return 0.0 if self.arrival is None else float(self.arrival)


@dataclass
class SelectionResponse:
    """Unified completion record of one request, any tier (DESIGN.md §8).

    ``status`` is one of :data:`REQUEST_STATUSES`; ``result`` is
    ``None`` unless the status is ``"ok"``.  All times are instants on
    the serving tier's clock; the derived ``queue``/``service``/``e2e``
    seconds are base-independent.
    """

    request_id: str | int
    status: str
    tier: str  # "engine" | "device" | "fleet"
    lane: int
    result: RerankResult | None = None
    arrival: float = 0.0
    start: float | None = None  # first service instant; None if never served
    finish: float | None = None  # completion / drop instant
    service_seconds: float = 0.0
    deadline: float | None = None  # absolute, on the serving clock
    # ---- provenance ---------------------------------------------------
    replica: int | None = None  # fleet tier: which replica served it
    policy: str | None = None  # scheduling / routing policy in effect
    fused_group: int | None = None  # gang id in the fused schedule trace
    threshold: float | None = None  # dispersion threshold in effect
    #: Data-plane provenance (DESIGN.md §12): ``"hit"`` (memoized),
    #: ``"coalesced"`` (attached to an in-flight leader) or ``None``
    #: (served by a full or residue pass).
    cache: str | None = None
    #: Submitting tenant id (DESIGN.md §13); ``None`` = untenanted.
    tenant: str | None = None
    # ---- resilience provenance (DESIGN.md §9) -------------------------
    attempts: int = 1  # dispatch attempts the request consumed
    failed_over_from: tuple[int, ...] = ()  # replicas that failed it first
    hedged: bool = False  # a hedge duplicate raced this request

    @property
    def ok(self) -> bool:
        return self.status == REQUEST_OK

    @property
    def dropped(self) -> bool:
        """Shed or cancelled — the request produced no selection."""
        return self.status != REQUEST_OK

    @property
    def queue_seconds(self) -> float:
        anchor = self.start if self.start is not None else self.finish
        return max(0.0, (anchor if anchor is not None else self.arrival) - self.arrival)

    @property
    def e2e_seconds(self) -> float:
        return (self.finish if self.finish is not None else self.arrival) - self.arrival

    @property
    def deadline_met(self) -> bool | None:
        """Whether the request completed by its deadline (None = no deadline)."""
        if self.deadline is None:
            return None
        if not self.ok or self.finish is None:
            return False
        return self.finish <= self.deadline


class RequestHandle:
    """The caller's grip on one submitted request.

    ``result()`` drives the owning server's :meth:`ServerBase.drain`
    if the request has not completed yet — the synchronous-simulation
    analogue of blocking on a future.  ``cancel()`` before the drain
    prevents the request from ever starting; ``cancel(at=...)``
    schedules a cancellation instant on the virtual clock (same offset
    axis as ``SelectionRequest.arrival``), which a mid-pass request
    honours at its next layer boundary, releasing shared weight-plane
    refcounts on the way out.
    """

    def __init__(self, server: "ServerBase", request: SelectionRequest) -> None:
        self._server = server
        self.request = request

    @property
    def request_id(self) -> str | int:
        assert self.request.request_id is not None  # assigned at submit
        return self.request.request_id

    @property
    def done(self) -> bool:
        return self._server._response_for(self.request_id) is not None

    def cancel(self, at: float | None = None) -> bool:
        """Request cancellation; returns False if already completed."""
        return self._server._cancel(self.request_id, at)

    def result(self) -> SelectionResponse:
        """The response, draining the server if still pending."""
        response = self._server._response_for(self.request_id)
        if response is None:
            self._server.drain()
            response = self._server._response_for(self.request_id)
        if response is None:  # pragma: no cover - defensive
            raise RuntimeError(f"request {self.request_id!r} produced no response")
        return response


@runtime_checkable
class Server(Protocol):
    """The one submission surface every serving tier implements."""

    tier: str

    def submit(self, request: SelectionRequest) -> RequestHandle: ...

    def drain(self) -> list[SelectionResponse]: ...


class ServerBase:
    """Shared submit/cancel/response bookkeeping for the adapters.

    Subclasses implement ``_serve(pending) -> list[SelectionResponse]``
    over the requests admitted since the last drain; cancellation
    intents are looked up via :meth:`_cancel_offset`.

    Completed responses are retained for :meth:`RequestHandle.result`
    up to ``max_retained`` (oldest evicted first), so a long-lived
    server — an app serving thousands of requests — holds bounded
    memory rather than every result ever produced.
    """

    tier = "base"

    def __init__(self, max_retained: int = 1024) -> None:
        if max_retained < 1:
            raise ValueError("max_retained must be >= 1")
        self.max_retained = max_retained
        self._pending: list[SelectionRequest] = []
        self._responses: dict[str | int, SelectionResponse] = {}
        self._cancels: dict[str | int, float] = {}
        self._auto_id = 0

    # ------------------------------------------------------------------
    def submit(self, request: SelectionRequest) -> RequestHandle:
        """Admit one request; returns its handle (service happens at drain)."""
        taken = self._responses.keys() | {p.request_id for p in self._pending}
        if request.request_id is None:
            from dataclasses import replace

            while f"r{self._auto_id}" in taken:
                self._auto_id += 1
            request = replace(request, request_id=f"r{self._auto_id}")
            self._auto_id += 1
        elif request.request_id in taken:
            raise ValueError(f"duplicate request id {request.request_id!r}")
        self._pending.append(request)
        return RequestHandle(self, request)

    def drain(self) -> list[SelectionResponse]:
        """Serve every pending request; responses in completion order."""
        pending, self._pending = self._pending, []
        if not pending:
            return []
        responses = self._serve(pending)
        for response in responses:
            self._responses[response.request_id] = response
        for request in pending:
            self._cancels.pop(request.request_id, None)
        while len(self._responses) > self.max_retained:
            # dicts iterate in insertion order: evict the oldest.
            self._responses.pop(next(iter(self._responses)))
        return responses

    # ------------------------------------------------------------------
    def _serve(self, pending: list[SelectionRequest]) -> list[SelectionResponse]:
        raise NotImplementedError  # pragma: no cover - abstract

    def _response_for(self, request_id: str | int) -> SelectionResponse | None:
        return self._responses.get(request_id)

    def _cancel(self, request_id: str | int, at: float | None) -> bool:
        if request_id in self._responses:
            return False
        # ``None`` = cancel before it ever starts: offset 0 precedes or
        # coincides with every arrival, so the request is dropped at
        # admission regardless of its arrival offset.
        self._cancels[request_id] = 0.0 if at is None else float(at)
        return True

    def _cancel_offset(self, request: SelectionRequest) -> float | None:
        return self._cancels.get(request.request_id)  # type: ignore[arg-type]

    @staticmethod
    def _order(pending: list[SelectionRequest]) -> list[SelectionRequest]:
        order = {id(request): seq for seq, request in enumerate(pending)}
        return sorted(pending, key=lambda r: (r.arrival_offset, order[id(r)]))


# ----------------------------------------------------------------------
# Tier adapters
# ----------------------------------------------------------------------
class EngineServer(ServerBase):
    """Direct execution: one engine, requests served in arrival order.

    The lowest tier — no scheduler, no sampling loop.  Requests run to
    completion serially; deadlines shed at service start, cancellation
    closes the in-flight :class:`~repro.core.engine.RerankTask` at its
    next layer boundary.
    """

    tier = "engine"

    def __init__(self, engine: EngineBase) -> None:
        super().__init__()
        self.engine = engine

    def _serve(self, pending: list[SelectionRequest]) -> list[SelectionResponse]:
        device = self.engine.device
        clock = device.clock
        origin = clock.now
        log = device.events  # observability sink (DESIGN.md §10)

        def emit(kind: str, request: SelectionRequest, at: float, **data) -> None:
            if log is not None:
                log.emit(
                    kind,
                    at=at,
                    tier=self.tier,
                    request=request.request_id,
                    replica=device.events_replica,
                    tenant=request.tenant,
                    **data,
                )

        responses = []
        for request in self._order(pending):
            arrival = origin + request.arrival_offset
            deadline = arrival + request.deadline if request.deadline is not None else None
            cancel = self._cancel_offset(request)
            cancel_at = origin + cancel if cancel is not None else None
            emit(
                "admit",
                request,
                at=clock.now,
                arrival=arrival,
                k=request.k,
                priority=request.priority,
                deadline=deadline,
                cancel_at=cancel_at,
            )
            response = SelectionResponse(
                request_id=request.request_id,  # type: ignore[arg-type]
                status=REQUEST_OK,
                tier=self.tier,
                lane=request.priority,
                arrival=arrival,
                deadline=deadline,
                threshold=self._threshold(),
                tenant=request.tenant,
            )
            responses.append(response)
            if cancel_at is not None and cancel_at <= max(arrival, clock.now):
                response.status = REQUEST_CANCELLED
                response.finish = max(arrival, clock.now)
                emit("cancel", request, at=response.finish)
                continue
            clock.advance_to(arrival)
            if deadline is not None and clock.now >= deadline:
                # Cannot start before the deadline: shed, never
                # touching the engine.
                response.status = REQUEST_SHED
                response.finish = clock.now
                emit("shed", request, at=response.finish)
                continue
            response.start = clock.now
            emit("dispatch", request, at=response.start)
            try:
                result = self.engine.start(request.batch, request.k).run(
                    cancel_at=cancel_at
                )
            except DeviceFault as fault:
                # The engine tier has nowhere to fail over to: an
                # injected fault (DESIGN.md §9) fails the request.
                response.status = REQUEST_FAILED
                response.finish = clock.now
                response.service_seconds = response.finish - response.start
                emit("fail", request, at=response.finish, detail=fault.kind)
                continue
            response.finish = clock.now
            response.service_seconds = response.finish - response.start
            if result is None:
                response.status = REQUEST_CANCELLED
                emit("cancel", request, at=response.finish)
            else:
                response.result = result
                emit(
                    "complete",
                    request,
                    at=response.finish,
                    start=response.start,
                    service_seconds=response.service_seconds,
                )
        return responses

    def _threshold(self) -> float | None:
        pruner = getattr(self.engine, "pruner", None)
        return None if pruner is None else float(pruner.dispersion_threshold)


class DeviceServer(ServerBase):
    """One shared device: scheduler multiplexing + the §4.1 service loop.

    Wraps a :class:`~repro.core.service.SemanticSelectionService`; a
    drain serves the pending wave through a
    :class:`~repro.core.scheduler.DeviceScheduler` configured with this
    server's policy knobs, with the service's deterministic sampling
    stride feeding the idle-check log.  ``edf=True`` orders admission
    by earliest deadline (DESIGN.md §8).
    """

    tier = "device"

    def __init__(
        self,
        service: SemanticSelectionService,
        policy: str = "fifo",
        quantum_layers: int = 1,
        max_skew: float = 0.0,
        edf: bool = False,
    ) -> None:
        super().__init__()
        self.service = service
        self.policy = policy
        self.quantum_layers = quantum_layers
        self.max_skew = max_skew
        self.edf = edf

    def _serve(self, pending: list[SelectionRequest]) -> list[SelectionResponse]:
        cancels = [self._cancel_offset(request) for request in pending]
        wave = self.service.serve_requests(
            pending,
            policy=self.policy,
            quantum_layers=self.quantum_layers,
            max_skew=self.max_skew,
            edf=self.edf,
            cancels=cancels,
        )
        threshold = self.service.threshold
        by_scheduler_id = {
            scheduler_id: request
            for scheduler_id, request in zip(wave.request_ids, pending)
        }
        fused_groups = wave.scheduler.fused_group_ids()
        responses = []
        for outcome in wave.outcomes:
            request = by_scheduler_id[outcome.request_id]
            responses.append(
                SelectionResponse(
                    request_id=request.request_id,  # type: ignore[arg-type]
                    status=REQUEST_OK,
                    tier=self.tier,
                    lane=outcome.priority,
                    result=outcome.result,
                    arrival=outcome.arrival,
                    start=outcome.start,
                    finish=outcome.finish,
                    service_seconds=outcome.service_seconds,
                    deadline=outcome.deadline,
                    policy=self.policy,
                    fused_group=fused_groups.get(outcome.request_id),
                    threshold=threshold,
                    cache=outcome.cache,
                    tenant=request.tenant,
                )
            )
        responses.extend(
            _drop_response(by_scheduler_id[drop.request_id], drop, self.tier, self.policy)
            for drop in wave.dropped
        )
        responses.sort(key=lambda r: (r.finish if r.finish is not None else r.arrival))
        return responses


class FleetServer(ServerBase):
    """Replicated serving: batched admission, routed dispatch.

    Wraps a :class:`~repro.core.fleet.FleetService`; provenance names
    the replica that served each request, and the fleet's routing
    policy.  Deadlines shed at dispatch; cancellation drops pending
    requests and closes mid-pass tasks on replicas serving with
    ``intra_concurrency > 1``.
    """

    tier = "fleet"

    def __init__(self, fleet: FleetService) -> None:
        super().__init__()
        self.fleet = fleet

    def _serve(self, pending: list[SelectionRequest]) -> list[SelectionResponse]:
        fleet = self.fleet
        origin = fleet.clock.now
        by_fleet_id: dict[int, SelectionRequest] = {}
        for request in self._order(pending):
            cancel = self._cancel_offset(request)
            fleet_id = fleet.submit_request(
                request.batch,
                request.k,
                at=origin + request.arrival_offset,
                priority=request.priority,
                deadline=(
                    origin + request.arrival_offset + request.deadline
                    if request.deadline is not None
                    else None
                ),
                cancel_at=origin + cancel if cancel is not None else None,
                client_id=request.request_id,
                sample=request.sample,
                hedge_after_ms=request.hedge_after_ms,
                memoize=request.memoize if request.memoize is not None else True,
                tenant=request.tenant,
            )
            by_fleet_id[fleet_id] = request
        drop_mark = len(fleet.dropped_requests)
        outcomes = fleet.drain()
        threshold = fleet.threshold
        responses = []
        for outcome in outcomes:
            request = by_fleet_id[outcome.request_id]
            service_start = (
                outcome.service_start if outcome.service_start is not None else outcome.start
            )
            responses.append(
                SelectionResponse(
                    request_id=request.request_id,  # type: ignore[arg-type]
                    status=REQUEST_OK,
                    tier=self.tier,
                    lane=outcome.lane,
                    result=outcome.result,
                    arrival=outcome.arrival,
                    start=service_start,
                    finish=outcome.finish,
                    service_seconds=(
                        outcome.service_seconds
                        if outcome.service_seconds is not None
                        else outcome.finish - outcome.start
                    ),
                    deadline=outcome.deadline,
                    replica=outcome.replica,
                    policy=fleet.fleet_config.routing,
                    threshold=threshold,
                    attempts=outcome.attempts,
                    failed_over_from=outcome.failed_over_from,
                    hedged=outcome.hedged,
                    cache=outcome.cache,
                    tenant=outcome.tenant,
                )
            )
        responses.extend(
            _drop_response(
                by_fleet_id[drop.request_id],
                drop,
                self.tier,
                fleet.fleet_config.routing,
            )
            for drop in fleet.dropped_requests[drop_mark:]
        )
        responses.sort(key=lambda r: (r.finish if r.finish is not None else r.arrival))
        return responses


def _drop_response(
    request: SelectionRequest, drop: DroppedRequest, tier: str, policy: str | None
) -> SelectionResponse:
    """Render one scheduler/fleet drop record as a SelectionResponse."""
    status = {
        "shed": REQUEST_SHED,
        "cancelled": REQUEST_CANCELLED,
    }.get(drop.reason, REQUEST_FAILED)
    return SelectionResponse(
        request_id=request.request_id,  # type: ignore[arg-type]
        status=status,
        tier=tier,
        lane=drop.priority,
        arrival=drop.arrival,
        finish=drop.at,
        deadline=drop.deadline,
        policy=policy,
        attempts=drop.attempts,
        failed_over_from=drop.failed_over_from,
        tenant=drop.tenant if drop.tenant is not None else request.tenant,
    )


# ----------------------------------------------------------------------
# Convenience: serve a request list on any tier
# ----------------------------------------------------------------------
def serve_all(
    server: Server, requests: Sequence[SelectionRequest]
) -> list[SelectionResponse]:
    """Submit a request list and drain; responses in completion order."""
    for request in requests:
        server.submit(request)
    return server.drain()


__all__ = [
    "REQUEST_CANCELLED",
    "REQUEST_FAILED",
    "REQUEST_OK",
    "REQUEST_SHED",
    "REQUEST_STATUSES",
    "DeviceServer",
    "EngineServer",
    "FleetServer",
    "RequestHandle",
    "SelectionRequest",
    "SelectionResponse",
    "Server",
    "ServerBase",
    "serve_all",
]
