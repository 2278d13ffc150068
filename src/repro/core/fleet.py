"""Fleet-scale serving: sharded, batched selection across replicas (DESIGN.md §5).

One :class:`~repro.core.service.SemanticSelectionService` serves one
request at a time on one device.  Heavy traffic needs a *fleet*: N
replicas (possibly on heterogeneous platforms) behind a shared
admission queue.  :class:`FleetService` provides that layer on the
simulated clock:

* **Admission & batching** — requests enter a fleet-wide queue; the
  dispatcher flushes a batch to one replica when ``max_batch`` requests
  have accumulated or the oldest request has waited ``max_wait_ms``.
  Batching amortises the fixed per-dispatch overhead (scheduler wakeup,
  host↔device command submission) across the batch.
* **Routing** — pluggable policies decide which replica takes a batch:
  ``round_robin`` (stateless fairness), ``least_loaded`` (smallest
  backlog of already-assigned work), and ``ewma`` (latency-aware:
  predicted completion from an exponentially-weighted per-request
  latency estimate, which adapts to heterogeneous replicas).
* **Fleet statistics** — end-to-end latency percentiles (p50/p95/p99),
  per-replica utilisation, queue-depth profile, and simulated
  throughput.
* **Coordinated maintenance** — an idle pass runs every replica's
  §4.1 self-calibration step, then propagates the *median* of the
  replica thresholds fleet-wide, so one replica's skewed sample stream
  cannot drag its operating point away from the fleet's.
* **Resilience** (DESIGN.md §9) — per-replica health probes (EWMA step
  latency + consecutive failures) exclude faulty replicas from routing
  for a cooldown; requests whose dispatch died on an injected
  :class:`~repro.device.faults.DeviceFault` fail over to healthy
  replicas (bounded retries, provenance on the outcome); optional
  straggler hedging races a duplicate on a second replica; and an
  optional queue-depth autoscaler grows/shrinks the live replica set
  between dispatches.

Time model: every replica device keeps its own
:class:`~repro.device.clock.VirtualClock` (replicas genuinely run in
parallel), while the fleet owns a coordinator clock.  Dispatch aligns a
replica's local timeline to the fleet timeline with ``advance_to`` —
the same synchronisation primitive the compute/I-O streams use inside
one device — so queue wait, service time and completion all live on one
coherent simulated axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..device.clock import VirtualClock
from ..device.faults import FAULT_BANDWIDTH_DEGRADATION, DeviceFault, FaultPlan
from ..device.platforms import DeviceProfile
from ..model.transformer import CandidateBatch, CrossEncoderModel
from .config import PrismConfig
from .data_plane import (
    DataPlane,
    DataPlaneConfig,
    DataPlaneStats,
    SharedEmbeddingCache,
    clone_result,
)
from .engine import RerankResult
from .resilience import AutoscalerConfig, ReplicaHealth, ResilienceConfig, ScalingEvent
from .scheduler import LANE_BATCH, SCHEDULING_POLICIES, DroppedRequest
from .service import MaintenanceReport, SampleStride, SemanticSelectionService
from .tenancy import FairAdmission, TenancyConfig, TenantStats


@dataclass(frozen=True)
class FleetConfig:
    """Admission/batching/routing knobs for a :class:`FleetService`.

    Parameters
    ----------
    max_batch:
        Most requests dispatched to one replica in one batch.
    max_wait_ms:
        Longest a queued request may wait (simulated time) for its
        batch to fill before the dispatcher flushes a partial batch.
    routing:
        Routing policy name; see :data:`ROUTING_POLICIES`.
    dispatch_overhead_ms:
        Fixed per-dispatch cost charged on the serving replica before
        the batch executes — the quantity batching amortises.
    ewma_alpha:
        Smoothing factor of the ``ewma`` policy's per-request latency
        estimate (higher = adapts faster).
    intra_concurrency:
        In-flight request cap *inside* each replica (DESIGN.md §6).
        ``1`` keeps replicas serial (a dispatched batch executes
        request-by-request); above 1, a dispatched batch is served
        through the replica's :class:`~repro.core.scheduler.DeviceScheduler`,
        multiplexing its requests at layer boundaries — replica-level
        routing composed with intra-replica concurrency.
    intra_policy:
        Scheduling policy of the intra-replica scheduler (only used
        when ``intra_concurrency > 1``); ``fusion`` gang-schedules a
        dispatched batch layer by layer.
    shared_weight_plane:
        Serve every replica from a refcounted shared weight plane
        (DESIGN.md §7): the requests of a dispatched batch read each
        layer from the replica's SSD once instead of once per request.
        Meaningful with ``intra_concurrency > 1``.
    max_skew:
        Group-join bound of the ``fusion`` intra-replica policy
        (seconds); see :class:`~repro.core.scheduler.SchedulerConfig`.
    data_plane:
        Attach the fleet-shared semantic result & candidate cache
        (DESIGN.md §12): request memoization, in-flight coalescing and
        partial-overlap candidate reuse.  ``False`` (the default)
        serves every request by a full pass — byte-identical to a
        fleet built before the plane existed.
    data_plane_config:
        Tunables of the plane (:class:`~repro.core.data_plane.DataPlaneConfig`);
        ``None`` takes the defaults.  Only meaningful with
        ``data_plane=True``.
    shared_embedding_cache:
        Promote the per-engine §4.4 embedding row cache to one
        fleet-shared refcounted directory (DESIGN.md §12 layer 3): a
        row any replica faulted in is a hit for every replica.
    """

    max_batch: int = 4
    max_wait_ms: float = 50.0
    routing: str = "round_robin"
    dispatch_overhead_ms: float = 2.0
    ewma_alpha: float = 0.25
    intra_concurrency: int = 1
    intra_policy: str = "round_robin"
    shared_weight_plane: bool = False
    max_skew: float = 0.0
    data_plane: bool = False
    data_plane_config: DataPlaneConfig | None = None
    shared_embedding_cache: bool = False

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.routing not in ROUTING_POLICIES:
            known = ", ".join(sorted(ROUTING_POLICIES))
            raise ValueError(f"unknown routing policy {self.routing!r}; known: {known}")
        if self.dispatch_overhead_ms < 0:
            raise ValueError("dispatch_overhead_ms must be >= 0")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("ewma_alpha must lie in (0, 1]")
        if self.intra_concurrency < 1:
            raise ValueError("intra_concurrency must be >= 1")
        if self.intra_policy not in SCHEDULING_POLICIES:
            known = ", ".join(SCHEDULING_POLICIES)
            raise ValueError(
                f"unknown intra-replica policy {self.intra_policy!r}; known: {known}"
            )
        if self.max_skew < 0:
            raise ValueError("max_skew must be >= 0")


@dataclass
class ReplicaHandle:
    """One serving replica plus the coordinator's view of its state.

    The fleet tracks each replica in *fleet time*; ``origin`` maps the
    replica device clock (which already advanced during ``prepare()``)
    onto the fleet axis so steady-state serving starts at t=0.
    """

    index: int
    service: SemanticSelectionService
    origin: float = 0.0
    busy_until: float = 0.0
    busy_seconds: float = 0.0
    requests_served: int = 0
    batches_served: int = 0
    ewma_latency: float = 0.0
    #: Coordinator health view (DESIGN.md §9): EWMA step latency,
    #: consecutive failures, unhealthy-cooldown window.
    health: ReplicaHealth = field(default_factory=ReplicaHealth)
    #: Retired by the autoscaler: excluded from routing forever.
    retired: bool = False
    #: Fleet-time instant the autoscaler added this replica (0.0 for
    #: replicas present since construction).
    spawned_at: float = 0.0

    @property
    def local_now(self) -> float:
        """The replica's position on the fleet time axis."""
        return self.service.device.clock.now - self.origin

    def sync_to(self, fleet_time: float) -> None:
        """Advance the replica's clock to a fleet-time instant."""
        self.service.device.clock.advance_to(fleet_time + self.origin)

    def backlog(self, now: float) -> float:
        """Seconds of already-assigned work outstanding at ``now``."""
        return max(0.0, self.busy_until - now)


# ----------------------------------------------------------------------
# routing policies
# ----------------------------------------------------------------------
class RoutingPolicy:
    """Chooses the replica that takes the next dispatched batch."""

    name = "base"

    def choose(
        self, replicas: Sequence[ReplicaHandle], now: float, batch_size: int
    ) -> ReplicaHandle:  # pragma: no cover - abstract
        raise NotImplementedError


class RoundRobinRouting(RoutingPolicy):
    """Stateless fairness: replicas take turns regardless of load."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(
        self, replicas: Sequence[ReplicaHandle], now: float, batch_size: int
    ) -> ReplicaHandle:
        replica = replicas[self._next % len(replicas)]
        self._next += 1
        return replica


class LeastLoadedRouting(RoutingPolicy):
    """Smallest outstanding backlog wins (ties: fewest requests, index)."""

    name = "least_loaded"

    def choose(
        self, replicas: Sequence[ReplicaHandle], now: float, batch_size: int
    ) -> ReplicaHandle:
        return min(
            replicas,
            key=lambda r: (r.backlog(now), r.requests_served, r.index),
        )


class EwmaRouting(RoutingPolicy):
    """Latency-aware: minimise predicted completion time of the batch.

    Predicted completion = start the replica could begin (its backlog)
    plus its EWMA per-request latency times the batch size.  On a
    heterogeneous fleet this learns to send less work to slow replicas,
    which pure backlog comparison only discovers after the damage.
    """

    name = "ewma"

    def choose(
        self, replicas: Sequence[ReplicaHandle], now: float, batch_size: int
    ) -> ReplicaHandle:
        return min(
            replicas,
            key=lambda r: (
                r.backlog(now) + r.ewma_latency * batch_size,
                r.requests_served,
                r.index,
            ),
        )


#: name → policy factory (policies carry per-fleet state, so factories).
ROUTING_POLICIES: dict[str, type[RoutingPolicy]] = {
    RoundRobinRouting.name: RoundRobinRouting,
    LeastLoadedRouting.name: LeastLoadedRouting,
    EwmaRouting.name: EwmaRouting,
}


# ----------------------------------------------------------------------
# requests, outcomes, reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetRequest:
    """One admitted request awaiting dispatch.

    ``client_id`` is the caller's correlation id (the
    :class:`~repro.core.api.SelectionRequest` id on the unified API),
    carried end-to-end into :class:`RequestOutcome`.  ``deadline`` and
    ``cancel_at`` are absolute instants on the *fleet* clock; a
    request whose deadline passes before it can start is shed at
    dispatch, never reaching a replica (DESIGN.md §8).
    """

    request_id: int
    batch: CandidateBatch
    k: int
    arrival: float
    priority: int = LANE_BATCH
    deadline: float | None = None
    cancel_at: float | None = None
    client_id: str | int | None = None
    sample: bool | None = None
    #: Duplicate this request onto a second replica if it has not
    #: completed this many milliseconds after arrival (DESIGN.md §9).
    hedge_after_ms: float | None = None
    #: Dispatch attempts so far, 1-based; failover re-dispatches bump it.
    attempts: int = 1
    #: Replicas whose dispatch of this request failed, in failure order.
    failed_over_from: tuple[int, ...] = ()
    #: Earliest fleet instant this request may start service — a
    #: failover retry cannot begin before the fault that spawned it.
    not_before: float = 0.0
    #: Data-plane opt-out (DESIGN.md §12): ``False`` bypasses the
    #: request memo/coalescing cache and forces a full pass.
    memoize: bool = True
    #: Submitting tenant (DESIGN.md §13); drives token-bucket admission
    #: and weighted fair queuing when the fleet has a tenancy plane.
    tenant: str | None = None


@dataclass
class RequestOutcome:
    """Completion record of one request on the fleet time axis.

    Carries the request's identity end-to-end: the fleet-local
    ``request_id`` returned by ``submit``, and the caller's
    ``client_id`` when one was supplied — so an outcome can always be
    correlated back to the request that produced it.
    """

    request_id: int
    #: Serving replica, or ``None`` for a data-plane memo hit — a hit
    #: never occupies a replica (DESIGN.md §12).
    replica: int | None
    arrival: float
    start: float  # the batch's dispatch instant (shared by the whole batch)
    finish: float
    result: RerankResult
    client_id: str | int | None = None
    lane: int = LANE_BATCH
    deadline: float | None = None
    #: When this request's own service began on the replica (fleet
    #: time).  ``start`` is the *batch* dispatch instant; in a serially
    #: served batch the later requests start well after it.
    service_start: float | None = None
    #: Time spent in this request's own execution (excludes the queue,
    #: the dispatch overhead, and — under intra-replica multiplexing —
    #: other requests' interleaved steps).
    service_seconds: float | None = None
    #: Failover provenance (DESIGN.md §9): how many dispatch attempts
    #: this request consumed, and which replicas failed it first.
    attempts: int = 1
    failed_over_from: tuple[int, ...] = ()
    #: A hedge duplicate was launched for this request; ``replica`` is
    #: the replica whose copy won.
    hedged: bool = False
    #: Data-plane provenance (DESIGN.md §12): ``"hit"`` (memoized),
    #: ``"coalesced"`` (attached to an in-flight leader) or ``None``
    #: (served by a full or residue pass).
    cache: str | None = None
    #: Submitting tenant (DESIGN.md §13); ``None`` outside the
    #: tenancy plane.
    tenant: str | None = None

    @property
    def queue_wait(self) -> float:
        return self.start - self.arrival

    @property
    def latency(self) -> float:
        """End-to-end: admission to completion (wait + dispatch + service)."""
        return self.finish - self.arrival

    @property
    def deadline_met(self) -> bool | None:
        """Completed by the deadline?  ``None`` when none was set."""
        if self.deadline is None:
            return None
        return self.finish <= self.deadline


@dataclass
class FleetMaintenanceReport:
    """Outcome of one coordinated idle pass across the fleet."""

    replica_reports: list[MaintenanceReport | None]
    pre_consensus_thresholds: list[float]
    consensus_threshold: float

    @property
    def replicas_adjusted(self) -> int:
        return sum(
            1 for report in self.replica_reports if report is not None and report.adjusted
        )


@dataclass
class FleetStats:
    """Aggregate view over the completed outcomes of a fleet."""

    outcomes: list[RequestOutcome] = field(default_factory=list)
    queue_depth_samples: list[tuple[float, int]] = field(default_factory=list)
    utilisation: dict[int, float] = field(default_factory=dict)
    makespan: float = 0.0
    maintenance_rounds: int = 0
    # ---- resilience plane (DESIGN.md §9) ------------------------------
    #: Failover re-dispatches performed (one per requeued request).
    failovers: int = 0
    #: Requests dropped with reason ``"failed"`` (retries exhausted).
    failed_requests: int = 0
    #: Hedge duplicates launched / hedge duplicates that won.
    hedges_launched: int = 0
    hedges_won: int = 0
    #: Autoscaler actions in fleet-time order.
    scaling_events: list[ScalingEvent] = field(default_factory=list)
    #: (fleet time, live replica count) after every capacity change.
    capacity_samples: list[tuple[float, int]] = field(default_factory=list)
    # ---- data plane (DESIGN.md §12) -----------------------------------
    #: Cache-plane counters, mirroring the weight plane's PlaneStats;
    #: ``None`` when the fleet serves without a data plane.
    data_plane: DataPlaneStats | None = None
    # ---- tenancy plane (DESIGN.md §13) --------------------------------
    #: Per-tenant rollups (p50/p99, shed rate, token debt); empty when
    #: the fleet serves without a tenancy plane.
    tenants: dict[str | None, TenantStats] = field(default_factory=dict)

    def _latencies(self) -> np.ndarray:
        return np.array([o.latency for o in self.outcomes])

    def latency_percentile(self, p: float) -> float | None:
        """Latency percentile over completed requests; ``None`` when
        nothing completed (an empty sample has no percentiles — a
        number here would silently poison downstream aggregation)."""
        if not self.outcomes:
            return None
        return float(np.percentile(self._latencies(), p))

    @property
    def p50_latency(self) -> float | None:
        return self.latency_percentile(50)

    @property
    def p95_latency(self) -> float | None:
        return self.latency_percentile(95)

    @property
    def p99_latency(self) -> float | None:
        return self.latency_percentile(99)

    @property
    def mean_queue_wait(self) -> float | None:
        if not self.outcomes:
            return None
        return float(np.mean([o.queue_wait for o in self.outcomes]))

    @property
    def max_queue_depth(self) -> int:
        return max((depth for _, depth in self.queue_depth_samples), default=0)

    @property
    def throughput_rps(self) -> float | None:
        """Completed requests per simulated second over the makespan;
        ``None`` when nothing completed or the makespan is empty."""
        if not self.outcomes or self.makespan <= 0:
            return None
        return len(self.outcomes) / self.makespan

    @property
    def failed_over_requests(self) -> int:
        """Completed requests that needed more than one dispatch attempt."""
        return sum(1 for o in self.outcomes if o.attempts > 1)

    @property
    def peak_capacity(self) -> int:
        """Most live replicas at any point (capacity timeline maximum)."""
        return max((count for _, count in self.capacity_samples), default=0)

    # ---- tenancy rollups (DESIGN.md §13) ------------------------------
    def tenants_by_class(self) -> dict[str, list[TenantStats]]:
        """Tenant rollups grouped by SLO class name."""
        grouped: dict[str, list[TenantStats]] = {}
        for stats in self.tenants.values():
            grouped.setdefault(stats.slo, []).append(stats)
        return grouped

    @property
    def starved_tenants(self) -> list[TenantStats]:
        """Tenants that submitted traffic but completed nothing — the
        set the §13 starvation-freedom guarantee requires to be empty."""
        return [
            stats
            for stats in self.tenants.values()
            if stats.submitted > 0 and stats.completed == 0
        ]

    @property
    def shed_bound_violations(self) -> list[TenantStats]:
        """Tenants whose shed rate exceeded their SLO class's bound."""
        return [
            stats
            for stats in self.tenants.values()
            if stats.submitted > 0 and not stats.within_bound
        ]


class FleetService:
    """Batched, sharded selection serving over N device replicas.

    Parameters
    ----------
    model:
        The shared reranker (weights are immutable; replicas share it).
    profiles:
        One :class:`DeviceProfile` per replica — heterogeneous fleets
        pass different profiles.  Each replica gets a fresh device.
    fleet_config:
        Admission/batching/routing knobs (:class:`FleetConfig`).
    config:
        Per-replica :class:`PrismConfig` (defaults to cost-model-only).
    fault_plan:
        Deterministic fault schedule (DESIGN.md §9) compiled onto each
        replica's device; instants are on the fleet clock, and
        ``FaultEvent.replica`` targets one replica (``None`` = all).
        ``None`` (and an empty plan) injects nothing — serving is
        byte-identical to a fleet constructed without the parameter.
    resilience:
        Health-probe/failover knobs (:class:`ResilienceConfig`); the
        defaults enable failover whenever a fault actually surfaces
        and change nothing under a fault-free plan.
    autoscaler:
        Queue-depth scaling controller (:class:`AutoscalerConfig`);
        ``None`` keeps the fleet at its constructed size.
    **service_kwargs:
        Forwarded to every replica's
        :class:`~repro.core.service.SemanticSelectionService`
        (``precision_target``, ``sample_rate``, ``step``, bounds).

    Usage: :meth:`submit_request` requests (optionally with explicit arrival
    times on the fleet clock), then :meth:`drain` to run the admission
    loop to completion — or serve
    :class:`~repro.core.api.SelectionRequest`\\ s through
    :class:`~repro.core.api.FleetServer` (DESIGN.md §8);
    :meth:`idle_maintenance` between traffic waves runs the coordinated
    calibration pass.
    """

    def __init__(
        self,
        model: CrossEncoderModel,
        profiles: Sequence[DeviceProfile],
        fleet_config: FleetConfig | None = None,
        config: PrismConfig | None = None,
        fault_plan: FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
        autoscaler: AutoscalerConfig | None = None,
        tenancy: TenancyConfig | None = None,
        event_log=None,
        **service_kwargs,
    ) -> None:
        if not profiles:
            raise ValueError("need at least one replica profile")
        self.fleet_config = fleet_config or FleetConfig()
        self.fault_plan = fault_plan
        self.resilience = resilience or ResilienceConfig()
        self.autoscaler = autoscaler
        #: Multi-tenant admission plane (DESIGN.md §13): token-bucket
        #: rate limits + weighted fair queuing ahead of the dispatch
        #: lanes.  ``None`` (the default) admits everything in arrival
        #: order — byte-identical to a fleet built before the plane.
        self.tenancy = tenancy
        self._admission = FairAdmission(tenancy) if tenancy is not None else None
        #: Observability sink (DESIGN.md §10), shared with every
        #: replica's device; ``None`` observes nothing and changes
        #: nothing — fleet timelines stay byte-identical.
        self.events = event_log
        self.clock = VirtualClock()
        self._routing = ROUTING_POLICIES[self.fleet_config.routing]()
        self._model = model
        self._config = config
        self._service_kwargs = dict(service_kwargs)
        #: Fleet-shared semantic cache plane (DESIGN.md §12); ``None``
        #: serves every request by a full pass.  The fleet — not the
        #: replicas — owns admission, so replica services are built
        #: without a plane of their own (no double admission).
        self.data_plane: DataPlane | None = None
        if self.fleet_config.data_plane:
            self.data_plane = DataPlane(
                self.fleet_config.data_plane_config,
                model_key=f"{model.config.name}:{model.config.model_seed}",
            )
            self.data_plane.attach_event_log(event_log, tier="fleet")
        #: Fleet-shared embedding residency (§12 layer 3); every
        #: replica's engine resolves rows against this one directory.
        self.embedding_plane: SharedEmbeddingCache | None = None
        if self.fleet_config.shared_embedding_cache:
            fraction = (
                config.embedding_cache_fraction
                if config is not None
                else PrismConfig().embedding_cache_fraction
            )
            self.embedding_plane = SharedEmbeddingCache(fraction=fraction)
        #: fp of each in-flight plane leader, by fleet request id.
        self._plane_fp: dict[int, str] = {}
        #: (shared, residue) row positions of overlap leaders.
        self._overlap_plans: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: Followers stranded by a dead leader, awaiting re-dispatch.
        self._plane_redispatch: list[FleetRequest] = []
        #: Profile the autoscaler clones for replicas added at runtime.
        self._scale_profile = profiles[0]
        self.replicas: list[ReplicaHandle] = []
        for profile in profiles:
            self._spawn_replica(profile)
        self._stride = SampleStride(self.replicas[0].service.sample_rate)
        if self.data_plane is not None:
            # Seed the plane's recorded threshold so the first real
            # consensus change (not the seed) bumps the epoch.
            self.data_plane.on_threshold(self.threshold, at=0.0)
        self._next_request_id = 0
        self._pending: list[FleetRequest] = []
        self._pending_client_ids: set[str | int] = set()
        self._dropped: list[DroppedRequest] = []
        self._outcomes: list[RequestOutcome] = []
        self._queue_depth_samples: list[tuple[float, int]] = []
        self._first_arrival: float | None = None
        self._maintenance_rounds = 0
        self._failovers = 0
        self._hedges_launched = 0
        self._hedges_won = 0
        self._scaling_events: list[ScalingEvent] = []
        self._capacity_samples: list[tuple[float, int]] = [(0.0, len(self.replicas))]
        self._last_scale_action = float("-inf")

    def _spawn_replica(
        self, profile: DeviceProfile, spawned_at: float = 0.0
    ) -> ReplicaHandle:
        """Construct one serving replica and register it with the fleet.

        Used both at construction and by the autoscaler; the replica's
        share of the fault plan is compiled onto its device with the
        fleet→local clock origin, so one fleet-time plan lands
        coherently however late the replica joins.
        """
        index = len(self.replicas)
        service = SemanticSelectionService(
            self._model,
            profile,
            config=self._config,
            max_concurrency=self.fleet_config.intra_concurrency,
            shared_weights=self.fleet_config.shared_weight_plane,
            embedding_plane=self.embedding_plane,
            event_log=self.events,
            events_replica=index,
            **self._service_kwargs,
        )
        replica = ReplicaHandle(
            index=index,
            service=service,
            origin=service.device.clock.now,
            spawned_at=spawned_at,
        )
        if self.fault_plan is not None and not self.fault_plan.empty:
            # A replica spawned at runtime never saw the fleet's past:
            # point events whose instant predates its spawn belong to
            # the replicas that were alive then and must not re-fire
            # on the replacement's first step.  Degradation windows
            # still overlapping the future keep their remainder.
            events = tuple(
                event
                for event in self.fault_plan.for_replica(index)
                if (
                    event.at + event.duration > spawned_at
                    if event.kind == FAULT_BANDWIDTH_DEGRADATION
                    else event.at >= spawned_at
                )
            )
            if events:
                service.device.install_faults(events, origin=replica.origin)
        self.replicas.append(replica)
        return replica

    @classmethod
    def homogeneous(
        cls,
        model: CrossEncoderModel,
        profile: DeviceProfile,
        num_replicas: int,
        **kwargs,
    ) -> "FleetService":
        """Convenience constructor: ``num_replicas`` identical replicas."""
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        return cls(model, [profile] * num_replicas, **kwargs)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    @property
    def active_replicas(self) -> list[ReplicaHandle]:
        """Replicas not retired by the autoscaler (the live capacity)."""
        return [replica for replica in self.replicas if not replica.retired]

    def _routable(self, now: float) -> list[ReplicaHandle]:
        """Live replicas currently eligible for routing (healthy now)."""
        return [r for r in self.active_replicas if r.health.healthy(now)]

    @property
    def pending_requests(self) -> int:
        return len(self._pending)

    @property
    def dropped_requests(self) -> list[DroppedRequest]:
        """Requests shed or cancelled instead of served, in drop order.

        Times are on the fleet clock; ``client_id`` carries the
        caller's correlation id when one was supplied.
        """
        return self._dropped

    def submit_request(
        self,
        batch: CandidateBatch,
        k: int,
        *,
        at: float | None = None,
        priority: int = LANE_BATCH,
        deadline: float | None = None,
        cancel_at: float | None = None,
        client_id: str | int | None = None,
        sample: bool | None = None,
        hedge_after_ms: float | None = None,
        memoize: bool = True,
        tenant: str | None = None,
    ) -> int:
        """Admit one request with full intent; returns its fleet id.

        ``at``, ``deadline`` and ``cancel_at`` are absolute instants on
        the fleet clock (``at=None`` means *now*); arrivals may be
        submitted out of order and are replayed in arrival order by
        :meth:`drain`.  ``client_id`` is echoed on the outcome — a
        duplicate among the in-flight (submitted, not yet drained)
        requests raises ``ValueError`` instead of silently colliding in
        outcome correlation.  ``sample`` overrides the fleet-wide
        sampling stride, and ``hedge_after_ms`` arms a straggler hedge
        (DESIGN.md §9).  ``tenant`` names the submitting tenant for
        the §13 admission plane (token buckets + fair queuing); it is
        carried end-to-end into the outcome and the event log.
        """
        arrival = self.clock.now if at is None else float(at)
        if arrival < self.clock.now:
            raise ValueError(
                f"arrival {arrival!r} lies before fleet time {self.clock.now!r}"
            )
        if k <= 0:
            raise ValueError("k must be positive")
        if priority < 0:
            raise ValueError("priority must be non-negative")
        if deadline is not None and deadline <= arrival:
            raise ValueError("deadline must lie after the request's arrival")
        if hedge_after_ms is not None and hedge_after_ms <= 0:
            raise ValueError("hedge_after_ms must be positive")
        if client_id is not None:
            if client_id in self._pending_client_ids:
                raise ValueError(
                    f"duplicate in-flight request id {client_id!r}: already "
                    "submitted and not yet drained"
                )
            self._pending_client_ids.add(client_id)
        request = FleetRequest(
            request_id=self._next_request_id,
            batch=batch,
            k=k,
            arrival=arrival,
            priority=priority,
            deadline=deadline,
            cancel_at=cancel_at,
            client_id=client_id,
            sample=sample,
            hedge_after_ms=hedge_after_ms,
            memoize=memoize,
            tenant=tenant,
        )
        self._next_request_id += 1
        self._pending.append(request)
        if self._first_arrival is None or arrival < self._first_arrival:
            self._first_arrival = arrival
        self._emit(
            "admit",
            at=self.clock.now,
            request=request,
            arrival=arrival,
            k=k,
            priority=priority,
            deadline=deadline,
            cancel_at=cancel_at,
            hedge_after_ms=hedge_after_ms,
        )
        return request.request_id

    def _emit(self, kind: str, at: float, request=None, replica: int | None = None, **data):
        """Publish a fleet-tier event (DESIGN.md §10); no-op without a sink."""
        if self.events is not None:
            label = None
            tenant = None
            if request is not None:
                label = request.client_id if request.client_id is not None else request.request_id
                tenant = request.tenant
            self.events.emit(
                kind, at=at, tier="fleet", request=label, replica=replica, tenant=tenant, **data
            )

    # ------------------------------------------------------------------
    # dispatch loop
    # ------------------------------------------------------------------
    def drain(self) -> list[RequestOutcome]:
        """Run the admission loop until every submitted request completes.

        Returns the outcomes of the requests admitted since the last
        drain, in completion order.  The fleet clock ends at the last
        completion, so a subsequent traffic wave starts afterwards.

        Batching semantics: a batch flushes as soon as ``max_batch``
        requests are queued, or when the oldest queued request has
        waited ``max_wait_ms``.  Once the arrival stream is exhausted a
        partial batch flushes immediately — with no future arrival the
        wait could only add latency, never depth.

        Resilience semantics (DESIGN.md §9): before each flush the
        autoscaler may adjust capacity, routing only considers healthy
        live replicas (waiting out the shortest cooldown if none is),
        and requests whose dispatch died on a
        :class:`~repro.device.faults.DeviceFault` re-enter the queue
        for failover until their retries are exhausted.
        """
        pending = sorted(self._pending, key=lambda r: (r.arrival, r.request_id))
        self._pending.clear()
        self._pending_client_ids.clear()
        max_batch = self.fleet_config.max_batch
        max_wait = self.fleet_config.max_wait_ms * 1e-3
        queue: list[FleetRequest] = []
        completed: list[RequestOutcome] = []
        now = self.clock.now
        i = 0
        while i < len(pending) or queue or self._plane_redispatch:
            while i < len(pending) and pending[i].arrival <= now:
                request = pending[i]
                i += 1
                if self.data_plane is not None:
                    # Plane admission first (DESIGN.md §12): a memo hit
                    # or coalesced follower never enters the dispatch
                    # queue, never occupies a replica — and costs the
                    # fleet nothing, so it consumes no tenant token.
                    routed = self._plane_route(request, now)
                    if routed is not None:
                        if isinstance(routed, RequestOutcome):
                            completed.append(routed)
                        continue
                if self._admission is not None:
                    # Tenancy admission (DESIGN.md §13): the bucket is
                    # refilled to the request's *arrival* instant, so
                    # the verdict depends only on the arrival stream,
                    # never on dispatch batching order.
                    verdict = self._admission.admit(
                        request.tenant, request.request_id, request.arrival
                    )
                    if verdict is not None:
                        # ``debt=`` feeds the live token-debt gauge
                        # (DESIGN.md §14); tenancy sheds appear in no
                        # golden fixture, so the field is additive.
                        self._drop(
                            request,
                            "shed",
                            now,
                            detail=verdict,
                            debt=self._admission.state(request.tenant).bucket.debt,
                        )
                        continue
                queue.append(request)
                self._emit("queue", at=now, request=request, depth=len(queue))
                self._queue_depth_samples.append((now, len(queue)))
            if self._plane_redispatch:
                # Followers stranded by a dead leader re-enter here:
                # the first becomes the new leader, siblings re-coalesce.
                stranded, self._plane_redispatch = self._plane_redispatch, []
                for follower in stranded:
                    follower = replace(
                        follower, not_before=max(follower.not_before, now)
                    )
                    routed = self._plane_route(follower, now)
                    if routed is not None:
                        if isinstance(routed, RequestOutcome):
                            completed.append(routed)
                        continue
                    if self._admission is not None:
                        # Already charged at first admission: a
                        # re-dispatched follower keeps its token.
                        self._admission.note_queued(
                            follower.tenant, follower.request_id
                        )
                    queue.append(follower)
                    self._emit("queue", at=now, request=follower, depth=len(queue))
                    self._queue_depth_samples.append((now, len(queue)))
            self._autoscale(now, len(queue))
            if not queue:
                if i >= len(pending):
                    continue  # the plane absorbed the stragglers
                now = max(now, pending[i].arrival)
                # Traffic gap: give the controller one look at the
                # idle fleet before the next arrival is admitted, so
                # over-provisioned capacity retires between waves.
                self._autoscale(now, 0)
                continue
            pool = self._routable(now)
            if not pool:
                # Every live replica is cooling down: the queue holds
                # until the shortest cooldown expires.
                now = max(
                    now,
                    min(r.health.unhealthy_until for r in self.active_replicas),
                )
                continue
            if len(queue) < max_batch:
                deadline = (
                    queue[0].arrival
                    if self._admission is None
                    else min(request.arrival for request in queue)
                ) + max_wait
                more = i < len(pending)
                if more and pending[i].arrival <= deadline:
                    # The batch can still grow before its deadline.
                    now = max(now, pending[i].arrival)
                    continue
                if more and now < deadline:
                    now = deadline
            if self._admission is not None:
                # Weighted fair order (DESIGN.md §13): smallest SFQ
                # start tags flush first; ties keep admission order.
                queue.sort(key=self._admission.order_key)
            flush, queue = queue[:max_batch], queue[max_batch:]
            if self._admission is not None:
                self._admission.on_flush(flush)
            outcomes, retries = self._dispatch(flush, now, pool)
            completed.extend(outcomes)
            if self.data_plane is not None and retries:
                # A failover retry whose pending entry was invalidated
                # re-enters through the plane: it may memo-hit a result
                # completed meanwhile, or coalesce onto a new leader.
                # A retry that is still the live leader of its own
                # pending entry must keep running (coalescing onto
                # itself would strand it and its followers forever).
                survivors = []
                for retry in retries:
                    if retry.request_id not in self._plane_fp:
                        routed = self._plane_route(retry, retry.not_before)
                        if routed is not None:
                            if isinstance(routed, RequestOutcome):
                                completed.append(routed)
                            continue
                    survivors.append(retry)
                retries = survivors
            if self._admission is not None:
                # A failover retry keeps its original token and tag.
                for retry in retries:
                    self._admission.note_queued(retry.tenant, retry.request_id)
            queue.extend(retries)
            for retry in retries:
                self._emit(
                    "queue",
                    at=retry.not_before,
                    request=retry,
                    depth=len(queue),
                    attempts=retry.attempts,
                )
            self._queue_depth_samples.append((now, len(queue)))
        completed.sort(key=lambda o: (o.finish, o.request_id))
        self._outcomes.extend(completed)
        horizon = max([now] + [r.busy_until for r in self.active_replicas])
        self.clock.advance_to(horizon)
        return completed

    def _dispatch(
        self, requests: list[FleetRequest], now: float, pool: list[ReplicaHandle]
    ) -> tuple[list[RequestOutcome], list[FleetRequest]]:
        """Hand one batch to a replica; returns (outcomes, failover retries).

        With ``intra_concurrency == 1`` the batch executes serially,
        request by request.  Above 1, the whole batch enters the
        replica's :class:`~repro.core.scheduler.DeviceScheduler` and
        its requests multiplex at layer boundaries (DESIGN.md §6);
        selections stay byte-identical either way, only completion
        times move.

        A :class:`~repro.device.faults.DeviceFault` during the batch
        (DESIGN.md §9) marks the replica's health and turns the failed
        request — plus, serially, the rest of the batch behind it —
        into retries the drain loop requeues onto healthy replicas.
        """
        cfg = self.fleet_config
        replica = self._routing.choose(pool, now, len(requests))
        # A batch carrying failover retries cannot start before the
        # fault that spawned them — time does not rewind because the
        # chosen replica happens to be idle.
        start = max(now, replica.busy_until, *(r.not_before for r in requests))
        for request in requests:
            self._emit(
                "dispatch",
                at=start,
                request=request,
                replica=replica.index,
                batch_size=len(requests),
                attempts=request.attempts,
            )
        replica.sync_to(start)
        clock = replica.service.device.clock
        clock.advance(cfg.dispatch_overhead_ms * 1e-3)
        outcomes: list[RequestOutcome] = []
        retries: list[FleetRequest] = []
        if cfg.intra_concurrency > 1:
            outcomes, retries = self._dispatch_concurrent(requests, replica, start)
        else:
            for index, request in enumerate(requests):
                local_now = replica.local_now
                if self._drop_due(request, local_now):
                    continue
                plan = self._overlap_plans.pop(request.request_id, None)
                try:
                    if plan is not None:
                        # Partial-overlap leader (DESIGN.md §12): the
                        # replica executes only the residue rows; the
                        # exact full-batch selection is recovered by a
                        # zero-cost shadow replay.
                        result = self._serve_overlap(replica, request, plan)
                    else:
                        result = replica.service._serve_solo(
                            request.batch,
                            request.k,
                            sample=self._request_sample(request),
                            cancel_at=(
                                request.cancel_at + replica.origin
                                if request.cancel_at is not None
                                else None
                            ),
                        )
                except DeviceFault as fault:
                    at = replica.local_now
                    self._record_failure(replica, at)
                    # The faulted leader must never poison the memo:
                    # its pending entry dies with it, and its followers
                    # re-dispatch (DESIGN.md §12).
                    self._plane_invalidate(requests[index], at, fault.kind)
                    # The faulted request and everything still queued
                    # behind it on this replica fail over together.
                    retries.extend(
                        self._requeue(requests[index:], replica, at, fault)
                    )
                    break
                if result is None:  # cancelled mid-pass on the replica
                    self._drop(request, "cancelled", replica.local_now)
                    continue
                finish = replica.local_now
                outcome = RequestOutcome(
                    request_id=request.request_id,
                    replica=replica.index,
                    arrival=request.arrival,
                    start=start,
                    finish=finish,
                    result=result,
                    client_id=request.client_id,
                    lane=request.priority,
                    deadline=request.deadline,
                    service_start=local_now,
                    service_seconds=finish - local_now,
                    attempts=request.attempts,
                    failed_over_from=request.failed_over_from,
                    tenant=request.tenant,
                )
                outcomes.append(outcome)
                self._update_ewma(replica, len(outcomes), result.latency_seconds)
                # The health probe uses the replica-observed service
                # span (finish − service start): it includes injected
                # stalls, which the engine's own latency accounting —
                # started inside the first step — does not see.
                self._record_success(
                    replica, finish - local_now, result.layers_executed + 1
                )
                if plan is None:
                    # An overlap leader already served a reduced pass;
                    # racing a full-pass duplicate would undo the win.
                    self._maybe_hedge(request, outcome, replica, pool)
                # After hedging: a winning duplicate already rewrote the
                # outcome, so the event carries the final provenance.
                self._emit(
                    "complete",
                    at=outcome.finish,
                    request=request,
                    replica=outcome.replica,
                    latency=outcome.latency,
                    attempts=outcome.attempts,
                    hedged=outcome.hedged,
                )
                # Memoize after hedging so the memo holds the final
                # result; followers resolve against it (DESIGN.md §12).
                outcomes.extend(self._plane_complete(request, outcome, replica))
        replica.busy_until = replica.local_now
        replica.busy_seconds += replica.busy_until - start
        # Hedge-won outcomes already counted for the winning backup.
        replica.requests_served += sum(
            1 for outcome in outcomes if outcome.replica == replica.index
        )
        replica.batches_served += 1
        self._check_latency_health(replica, replica.busy_until)
        return outcomes, retries

    def _dispatch_concurrent(
        self, requests: list[FleetRequest], replica: ReplicaHandle, start: float
    ) -> tuple[list[RequestOutcome], list[FleetRequest]]:
        """Serve one dispatched batch through the replica's scheduler.

        Fleet-clock intent (deadlines, cancellations) is rebased onto
        the replica's wave origin as relative offsets; requests whose
        deadline already passed are shed here, before the wave, so the
        scheduler never sees an expired deadline.  Requests the
        scheduler failed on a device fault (DESIGN.md §9) come back as
        failover retries rather than drops.
        """
        from .api import SelectionRequest

        cfg = self.fleet_config
        origin_fleet = replica.local_now  # wave origin on the fleet axis
        wave_inputs: list[tuple[FleetRequest, SelectionRequest, float | None]] = []
        outcomes: list[RequestOutcome] = []
        plans: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for request in requests:
            if self._drop_due(request, origin_fleet):
                continue
            plan = self._overlap_plans.pop(request.request_id, None)
            if plan is not None and plan[1].size == 0:
                # Every candidate row is cached: no residue to execute.
                # The exact selection comes from the zero-cost shadow
                # replay; the replica is never occupied (DESIGN.md §12).
                outcome = self._complete_overlap_instant(
                    request, replica, plan, origin_fleet
                )
                outcomes.append(outcome)
                outcomes.extend(self._plane_complete(request, outcome, replica))
                continue
            if plan is not None:
                plans[request.request_id] = plan
            cancel = (
                request.cancel_at - origin_fleet if request.cancel_at is not None else None
            )
            shared, residue = plan if plan is not None else (None, None)
            wave_inputs.append(
                (
                    request,
                    SelectionRequest(
                        batch=(
                            request.batch.select(residue)
                            if residue is not None
                            else request.batch
                        ),
                        k=(
                            min(request.k, int(residue.size))
                            if residue is not None
                            else request.k
                        ),
                        request_id=request.request_id,
                        priority=request.priority,
                        deadline=(
                            request.deadline - origin_fleet
                            if request.deadline is not None
                            else None
                        ),
                        # Overlap leaders serve a residue sub-batch —
                        # not the request the calibration log expects —
                        # so they never feed the idle-check samples.
                        sample=(
                            False
                            if residue is not None
                            else self._request_sample(request)
                        ),
                    ),
                    max(0.0, cancel) if cancel is not None else None,
                )
            )
        if not wave_inputs:
            return outcomes, []
        wave = replica.service.serve_requests(
            [selection for _, selection, _ in wave_inputs],
            policy=cfg.intra_policy,
            max_skew=cfg.max_skew,
            cancels=[cancel for _, _, cancel in wave_inputs],
        )
        by_scheduler_id = {
            scheduler_id: request
            for scheduler_id, (request, _, _) in zip(wave.request_ids, wave_inputs)
        }
        for scheduled_outcome in wave.outcomes:
            request = by_scheduler_id[scheduled_outcome.request_id]
            plan = plans.get(request.request_id)
            if plan is not None:
                # The scheduler served only the residue rows; recover
                # the exact full-batch selection by shadow replay and
                # credit the skipped rows to the plane (DESIGN.md §12).
                result = self._finish_overlap(
                    replica,
                    request,
                    plan,
                    residue_result=scheduled_outcome.result,
                    residue_seconds=scheduled_outcome.service_seconds,
                )
            else:
                result = scheduled_outcome.result
            self._emit(
                "complete",
                at=scheduled_outcome.finish - replica.origin,
                request=request,
                replica=replica.index,
                latency=(scheduled_outcome.finish - replica.origin) - request.arrival,
                attempts=request.attempts,
                hedged=False,
            )
            outcome = RequestOutcome(
                request_id=request.request_id,
                replica=replica.index,
                arrival=request.arrival,
                start=start,
                finish=scheduled_outcome.finish - replica.origin,
                result=result,
                client_id=request.client_id,
                lane=request.priority,
                deadline=request.deadline,
                service_start=scheduled_outcome.start - replica.origin,
                service_seconds=scheduled_outcome.service_seconds,
                attempts=request.attempts,
                failed_over_from=request.failed_over_from,
                tenant=request.tenant,
            )
            outcomes.append(outcome)
            # Under multiplexing, result.latency_seconds spans other
            # requests' interleaved steps; the scheduler's service
            # time is the true per-request cost EWMA must learn.
            self._update_ewma(replica, len(outcomes), scheduled_outcome.service_seconds)
            self._record_success(
                replica,
                scheduled_outcome.service_seconds,
                scheduled_outcome.result.layers_executed + 1,
            )
            outcomes.extend(self._plane_complete(request, outcome, replica))
        retries: list[FleetRequest] = []
        failed: list[tuple[FleetRequest, float, str]] = []
        for drop in wave.dropped:
            request = by_scheduler_id[drop.request_id]
            at = drop.at - replica.origin
            if drop.reason == "failed":
                self._plane_invalidate(request, at, drop.detail or "device_fault")
                failed.append((request, at, drop.detail))
            else:
                self._drop(request, drop.reason, at)
        if failed:
            # One health strike per faulted dispatch, not per victim —
            # a crash that kills an 8-deep wave is still one fault.
            first_at = min(at for _, at, _ in failed)
            self._record_failure(replica, first_at)
            fault = DeviceFault(failed[0][2] or "device_fault", at=first_at)
            retries = self._requeue(
                [request for request, _, _ in failed],
                replica,
                max(at for _, at, _ in failed),
                fault,
            )
        return outcomes, retries

    def _request_sample(self, request: FleetRequest) -> bool:
        return request.sample if request.sample is not None else self._admit_sample()

    def _drop_due(self, request: FleetRequest, fleet_now: float) -> bool:
        """Drop a request whose cancel/deadline is already due; True if dropped."""
        if request.cancel_at is not None and request.cancel_at <= fleet_now:
            self._drop(request, "cancelled", fleet_now)
            return True
        if request.deadline is not None and fleet_now >= request.deadline:
            # Shed: the request can no longer start in time, so it
            # never reaches the replica's engine (DESIGN.md §8).
            self._drop(request, "shed", fleet_now)
            return True
        return False

    def _drop(
        self,
        request: FleetRequest,
        reason: str,
        at: float,
        detail: str = "",
        failed_on: int | None = None,
        **data,
    ) -> None:
        self._dropped.append(
            DroppedRequest(
                request_id=request.request_id,
                priority=request.priority,
                arrival=request.arrival,
                at=at,
                reason=reason,
                deadline=request.deadline,
                client_id=request.client_id,
                detail=detail,
                attempts=request.attempts,
                failed_over_from=(
                    request.failed_over_from + (failed_on,)
                    if failed_on is not None
                    else request.failed_over_from
                ),
                tenant=request.tenant,
            )
        )
        kind = {"shed": "shed", "cancelled": "cancel", "failed": "fail"}[reason]
        self._emit(
            kind,
            at=at,
            request=request,
            replica=failed_on,
            detail=detail,
            attempts=request.attempts,
            **data,
        )
        # A dropped plane leader must never poison the memo: its
        # pending entry dies and its followers re-dispatch (§12).
        self._plane_invalidate(request, at, reason)

    # ------------------------------------------------------------------
    # data plane (DESIGN.md §12)
    # ------------------------------------------------------------------
    @staticmethod
    def _plane_label(request: FleetRequest) -> str | int:
        return request.client_id if request.client_id is not None else request.request_id

    def _full_weight_bytes(self, replica: ReplicaHandle, result: RerankResult) -> int:
        """SSD weight traffic a pass of this result's depth swept."""
        store = replica.service.engine.store
        return sum(
            store.layer_nbytes(layer) for layer in range(result.layers_executed)
        )

    def _plane_route(
        self, request: FleetRequest, at: float
    ) -> RequestOutcome | str | None:
        """Route one due request through the plane (DESIGN.md §12).

        Returns a completed :class:`RequestOutcome` for a memo hit,
        ``"coalesced"`` for a follower attached to an in-flight leader
        (its outcome materialises when the leader completes), or
        ``None`` when the request must dispatch — as a plane leader
        (its fingerprint is registered) or as a plain request
        (``memoize=False`` opt-out, or a cancel/deadline already due,
        which the ordinary drop path must account for).
        """
        plane = self.data_plane
        if plane is None or not request.memoize:
            return None
        if request.cancel_at is not None and request.cancel_at <= at:
            return None
        if request.deadline is not None and request.deadline <= at:
            return None
        fp = plane.fingerprint(
            request.batch,
            request.k,
            threshold=self.threshold,
            sample_rate=self._stride.rate,
        )
        decision = plane.admit(
            fp,
            request.batch,
            payload=request,
            at=at,
            request=self._plane_label(request),
        )
        if decision.kind == "coalesced":
            return "coalesced"
        if decision.kind == "leader":
            self._plane_fp[request.request_id] = fp
            if decision.shared is not None and decision.residue is not None:
                self._overlap_plans[request.request_id] = (
                    decision.shared,
                    decision.residue,
                )
            return None
        outcome = RequestOutcome(
            request_id=request.request_id,
            replica=None,
            arrival=request.arrival,
            start=at,
            finish=at,
            result=decision.result,
            client_id=request.client_id,
            lane=request.priority,
            deadline=request.deadline,
            service_start=at,
            service_seconds=0.0,
            attempts=request.attempts,
            failed_over_from=request.failed_over_from,
            cache="hit",
            tenant=request.tenant,
        )
        self._emit(
            "complete",
            at=at,
            request=request,
            replica=None,
            latency=at - request.arrival,
            attempts=request.attempts,
            hedged=False,
            cache="hit",
        )
        return outcome

    def _plane_complete(
        self, request: FleetRequest, outcome: RequestOutcome, replica: ReplicaHandle
    ) -> list[RequestOutcome]:
        """A plane leader finished: memoize and resolve its followers."""
        if self.data_plane is None:
            return []
        fp = self._plane_fp.pop(request.request_id, None)
        if fp is None:
            return []
        result = outcome.result
        followers = self.data_plane.complete(
            fp,
            request.batch,
            result,
            service_seconds=(
                outcome.service_seconds if outcome.service_seconds is not None else 0.0
            ),
            weight_bytes=self._full_weight_bytes(replica, result),
            at=outcome.finish,
            request=self._plane_label(request),
        )
        resolved: list[RequestOutcome] = []
        for follower, attached_at in followers:
            finish = max(outcome.finish, attached_at)
            if follower.cancel_at is not None and follower.cancel_at < finish:
                # The follower's cancel fired while it waited on the
                # leader: it drops, never having occupied a replica.
                self._drop(follower, "cancelled", follower.cancel_at)
                continue
            resolved.append(
                RequestOutcome(
                    request_id=follower.request_id,
                    replica=outcome.replica,
                    arrival=follower.arrival,
                    start=attached_at,
                    finish=finish,
                    result=clone_result(result),
                    client_id=follower.client_id,
                    lane=follower.priority,
                    deadline=follower.deadline,
                    service_start=finish,
                    service_seconds=0.0,
                    attempts=follower.attempts,
                    failed_over_from=follower.failed_over_from,
                    cache="coalesced",
                    tenant=follower.tenant,
                )
            )
            self._emit(
                "complete",
                at=finish,
                request=follower,
                replica=outcome.replica,
                latency=finish - follower.arrival,
                attempts=follower.attempts,
                hedged=False,
                cache="coalesced",
            )
        return resolved

    def _plane_invalidate(self, request: FleetRequest, at: float, reason: str) -> None:
        """A plane leader died: drop its pending entry; its followers
        join the re-dispatch buffer the drain loop absorbs."""
        if self.data_plane is None:
            return
        self._overlap_plans.pop(request.request_id, None)
        fp = self._plane_fp.pop(request.request_id, None)
        if fp is None:
            return
        followers = self.data_plane.invalidate(
            fp, at=at, reason=reason, request=self._plane_label(request)
        )
        self._plane_redispatch.extend(payload for payload, _ in followers)

    def _serve_overlap(
        self,
        replica: ReplicaHandle,
        request: FleetRequest,
        plan: tuple[np.ndarray, np.ndarray],
    ) -> RerankResult | None:
        """Serial overlap leader: residue pass + exact shadow replay.

        The replica's clock advances only for the residue rows — the
        shared rows' scores are already determined (ScoreDynamics keys
        them on (model_seed, uid, relevance, layer), independent of
        batch composition), so the full-batch replay on a shadow
        engine is zero-cost and byte-identical to a full serving pass.
        """
        shared, residue = plan
        service = replica.service
        if residue.size:
            before = service.device.clock.now
            partial = service._serve_solo(
                request.batch.select(residue),
                min(request.k, int(residue.size)),
                sample=False,
                cancel_at=(
                    request.cancel_at + replica.origin
                    if request.cancel_at is not None
                    else None
                ),
            )
            if partial is None:  # cancelled mid-residue
                return None
            residue_seconds = service.device.clock.now - before
            residue_bytes = service._weight_bytes(partial)
        else:
            residue_seconds = 0.0
            residue_bytes = 0
        return self._replay_overlap(
            service, request, shared, residue, residue_seconds, residue_bytes
        )

    def _finish_overlap(
        self,
        replica: ReplicaHandle,
        request: FleetRequest,
        plan: tuple[np.ndarray, np.ndarray],
        *,
        residue_result: RerankResult,
        residue_seconds: float,
    ) -> RerankResult:
        """Concurrent overlap leader: swap the residue result for the
        exact full-batch replay after its wave completed."""
        shared, residue = plan
        service = replica.service
        return self._replay_overlap(
            service,
            request,
            shared,
            residue,
            residue_seconds,
            service._weight_bytes(residue_result),
        )

    def _replay_overlap(
        self,
        service: SemanticSelectionService,
        request: FleetRequest,
        shared: np.ndarray,
        residue: np.ndarray,
        residue_seconds: float,
        residue_bytes: int,
    ) -> RerankResult:
        result = service.replay_selection(request.batch, request.k)
        if residue.size:
            saved_seconds = residue_seconds * (float(shared.size) / float(residue.size))
        else:
            saved_seconds = result.latency_seconds
        full_bytes = service._weight_bytes(result)
        assert self.data_plane is not None
        self.data_plane.note_saved(saved_seconds, max(0, full_bytes - residue_bytes))
        return result

    def _complete_overlap_instant(
        self,
        request: FleetRequest,
        replica: ReplicaHandle,
        plan: tuple[np.ndarray, np.ndarray],
        at: float,
    ) -> RequestOutcome:
        """An all-shared overlap leader: pure replay, zero service time."""
        shared, residue = plan
        result = self._replay_overlap(
            replica.service, request, shared, residue, 0.0, 0
        )
        self._emit(
            "complete",
            at=at,
            request=request,
            replica=replica.index,
            latency=at - request.arrival,
            attempts=request.attempts,
            hedged=False,
        )
        return RequestOutcome(
            request_id=request.request_id,
            replica=replica.index,
            arrival=request.arrival,
            start=at,
            finish=at,
            result=result,
            client_id=request.client_id,
            lane=request.priority,
            deadline=request.deadline,
            service_start=at,
            service_seconds=0.0,
            attempts=request.attempts,
            failed_over_from=request.failed_over_from,
            tenant=request.tenant,
        )

    # ------------------------------------------------------------------
    # resilience plane (DESIGN.md §9)
    # ------------------------------------------------------------------
    def _requeue(
        self,
        requests: list[FleetRequest],
        replica: ReplicaHandle,
        at: float,
        fault: DeviceFault,
    ) -> list[FleetRequest]:
        """Turn a faulted dispatch's victims into failover retries.

        Each victim re-enters the admission queue with ``attempts``
        bumped and the failing replica recorded in
        ``failed_over_from``; a victim that already consumed
        ``max_retries`` re-dispatches is dropped with reason
        ``"failed"`` instead — bounded failover, never a loop.
        """
        retries = []
        for request in requests:
            if request.attempts > self.resilience.max_retries:
                self._drop(
                    request, "failed", at, detail=fault.kind, failed_on=replica.index
                )
                continue
            self._failovers += 1
            self._emit(
                "failover",
                at=at,
                request=request,
                replica=replica.index,
                fault=fault.kind,
                attempts=request.attempts + 1,
            )
            retries.append(
                replace(
                    request,
                    attempts=request.attempts + 1,
                    failed_over_from=request.failed_over_from + (replica.index,),
                    not_before=at,
                )
            )
        return retries

    def _record_failure(self, replica: ReplicaHandle, at: float) -> None:
        """One health strike against a replica at fleet instant ``at``."""
        replica.health.record_failure(at, self.resilience)

    def _record_success(
        self, replica: ReplicaHandle, service_seconds: float, steps: int
    ) -> None:
        """Fold one completed request into the replica's health EWMA."""
        replica.health.record_success(
            service_seconds / max(1, steps), self.resilience.health_alpha
        )

    def _check_latency_health(self, replica: ReplicaHandle, now: float) -> None:
        """Slow-replica probe: EWMA step latency vs the fleet median.

        Catches degradation that never raises a fault — a stalled or
        bandwidth-starved replica keeps completing requests, just ever
        more slowly; once its EWMA exceeds ``factor ×`` the median of
        its peers it is cooled down like a failed one.
        """
        factor = self.resilience.latency_degradation_factor
        if factor is None or replica.health.samples == 0:
            return
        peers = [
            r.health.ewma_step_latency
            for r in self.active_replicas
            if r is not replica and r.health.samples > 0
        ]
        if not peers:
            return
        if replica.health.ewma_step_latency > factor * float(np.median(peers)):
            replica.health.mark_unhealthy(now, self.resilience.cooldown_s)

    def _maybe_hedge(
        self,
        request: FleetRequest,
        outcome: RequestOutcome,
        primary: ReplicaHandle,
        pool: list[ReplicaHandle],
    ) -> None:
        """Straggler hedging (DESIGN.md §9), serial dispatch path.

        If the primary copy had not completed ``hedge_after_ms`` after
        the request's arrival, a duplicate is launched on the least
        loaded *other* healthy replica at exactly that instant, racing
        the primary with a cancellation scheduled at the primary's
        finish.  First result wins: a faster duplicate replaces the
        outcome's payload (provenance flips to the winning replica);
        a slower one is cancelled mid-pass at its next layer boundary
        through the ordinary cancel path, releasing its resources.

        Determinism note: the primary's copy always runs to completion
        on its replica — the simulator commits one replica's timeline
        at a time — so a lost primary charges its full service time
        (an upper bound on the real system, which would cancel it at
        the duplicate's finish).
        """
        if request.hedge_after_ms is None or request.attempts > 1:
            # A failover retry is already running on its second
            # replica; racing a third would let the duplicate start
            # before the fault that spawned the retry.
            return
        fire_at = request.arrival + request.hedge_after_ms * 1e-3
        if outcome.finish <= fire_at:
            return  # the primary beat the hedge trigger
        backups = [r for r in pool if r is not primary and r.health.healthy(fire_at)]
        if not backups:
            return
        backup = min(
            backups, key=lambda r: (r.backlog(fire_at), r.requests_served, r.index)
        )
        self._hedges_launched += 1
        start = max(fire_at, backup.busy_until)
        backup.sync_to(start)
        backup.service.device.clock.advance(
            self.fleet_config.dispatch_overhead_ms * 1e-3
        )
        service_start = backup.local_now
        try:
            result = backup.service._serve_solo(
                request.batch,
                request.k,
                sample=False,  # the primary copy already fed the stride
                cancel_at=outcome.finish + backup.origin,
            )
        except DeviceFault:
            self._record_failure(backup, backup.local_now)
            result = None
        finish = backup.local_now
        backup.busy_seconds += finish - start
        backup.busy_until = finish
        outcome.hedged = True
        won = result is not None and finish < outcome.finish
        self._emit(
            "hedge",
            at=start,
            request=request,
            replica=backup.index,
            fire_at=fire_at,
            primary=primary.index,
            won=won,
        )
        if result is not None and finish < outcome.finish:
            self._hedges_won += 1
            backup.requests_served += 1
            outcome.replica = backup.index
            outcome.finish = finish
            outcome.result = result
            outcome.service_start = service_start
            outcome.service_seconds = finish - service_start

    def _autoscale(self, now: float, queue_depth: int) -> None:
        """One controller decision between dispatches (DESIGN.md §9).

        Scale up when the queue holds more than
        ``scale_up_queue_depth`` requests per routable replica (the
        new replica pays ``warmup_s`` on the clock before its first
        dispatch); retire the longest-idle replica when the queue is
        empty and it has idled past ``scale_down_idle_s``.  Actions
        are rate-limited by ``action_cooldown_s`` and recorded as
        :class:`~repro.core.resilience.ScalingEvent`\\ s.
        """
        cfg = self.autoscaler
        if cfg is None:
            return
        if now - self._last_scale_action < cfg.action_cooldown_s:
            return
        active = self.active_replicas
        routable_replicas = self._routable(now)
        routable = len(routable_replicas) or 1
        # Pressure = admission queue + the replicas' outstanding
        # backlog expressed in requests (backlog seconds over the
        # per-request latency estimate).  Eager dispatch moves queued
        # requests into replica backlog immediately, so the raw queue
        # alone would hide a drowning fleet from the controller.
        pressure = float(queue_depth)
        for replica in routable_replicas:
            if replica.ewma_latency > 0:
                pressure += replica.backlog(now) / replica.ewma_latency
        if (
            pressure > cfg.scale_up_queue_depth * routable
            and len(active) < cfg.max_replicas
        ):
            replica = self._spawn_replica(self._scale_profile, spawned_at=now)
            replica.busy_until = now + cfg.warmup_s
            self._scaling_events.append(
                ScalingEvent(
                    at=now,
                    action="scale_up",
                    replica=replica.index,
                    num_active=len(self.active_replicas),
                    reason="queue_depth",
                )
            )
            self._emit(
                "scale",
                at=now,
                replica=replica.index,
                action="scale_up",
                num_active=len(self.active_replicas),
                reason="queue_depth",
            )
            self._capacity_samples.append((now, len(self.active_replicas)))
            self._last_scale_action = now
            return
        if queue_depth == 0 and len(active) > cfg.min_replicas:
            idle = [
                r for r in active if now - max(r.busy_until, r.spawned_at)
                >= cfg.scale_down_idle_s
            ]
            if idle:
                victim = max(
                    idle,
                    key=lambda r: (now - max(r.busy_until, r.spawned_at), r.index),
                )
                victim.retired = True
                self._scaling_events.append(
                    ScalingEvent(
                        at=now,
                        action="scale_down",
                        replica=victim.index,
                        num_active=len(self.active_replicas),
                        reason="idle",
                    )
                )
                self._emit(
                    "scale",
                    at=now,
                    replica=victim.index,
                    action="scale_down",
                    num_active=len(self.active_replicas),
                    reason="idle",
                )
                self._capacity_samples.append((now, len(self.active_replicas)))
                self._last_scale_action = now

    def _update_ewma(
        self, replica: ReplicaHandle, dispatched_so_far: int, latency_seconds: float
    ) -> None:
        if replica.requests_served + dispatched_so_far == 1:
            replica.ewma_latency = latency_seconds
        else:
            replica.ewma_latency += self.fleet_config.ewma_alpha * (
                latency_seconds - replica.ewma_latency
            )

    def _admit_sample(self) -> bool:
        """Fleet-wide deterministic sampling stride.

        The fleet, not the replica, decides which requests enter the
        idle-check log: a per-replica stride would sample unevenly
        whenever routing skews traffic (e.g. EWMA on a heterogeneous
        fleet), biasing each replica's measured precision.
        """
        return self._stride.admit()

    # ------------------------------------------------------------------
    # coordinated maintenance
    # ------------------------------------------------------------------
    def idle_maintenance(self) -> FleetMaintenanceReport | None:
        """One fleet-wide calibration round; None when nothing sampled.

        Each replica first applies its own §4.1 step from its sampled
        requests (on shadow devices — serving clocks untouched), then
        the fleet propagates the *median* of the resulting thresholds
        to every replica.  The median is robust to a minority of
        replicas whose sample streams were unlucky, and keeps the fleet
        serving one consistent operating point.
        """
        replicas = self.active_replicas
        replica_reports = [r.service.idle_maintenance() for r in replicas]
        if all(report is None for report in replica_reports):
            return None
        thresholds = [r.service.threshold for r in replicas]
        consensus = float(np.median(thresholds))
        for replica in replicas:
            replica.service.apply_threshold(consensus)
        if self.data_plane is not None:
            # Recalibration moves the selection frontier: stale memo
            # entries would replay pre-recalibration selections (§12).
            self.data_plane.on_threshold(consensus, at=self.clock.now)
        self._maintenance_rounds += 1
        return FleetMaintenanceReport(
            replica_reports=replica_reports,
            pre_consensus_thresholds=thresholds,
            consensus_threshold=consensus,
        )

    @property
    def threshold(self) -> float:
        """The fleet's consensus threshold (replicas may drift between rounds)."""
        return float(np.median([r.service.threshold for r in self.active_replicas]))

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> FleetStats:
        """Snapshot of fleet-wide serving statistics so far."""
        first = self._first_arrival if self._first_arrival is not None else 0.0
        last = max([o.finish for o in self._outcomes], default=first)
        makespan = max(0.0, last - first)
        utilisation = {
            r.index: (r.busy_seconds / makespan if makespan > 0 else 0.0)
            for r in self.replicas
        }
        return FleetStats(
            outcomes=list(self._outcomes),
            queue_depth_samples=list(self._queue_depth_samples),
            utilisation=utilisation,
            makespan=makespan,
            maintenance_rounds=self._maintenance_rounds,
            failovers=self._failovers,
            failed_requests=sum(
                1 for drop in self._dropped if drop.reason == "failed"
            ),
            hedges_launched=self._hedges_launched,
            hedges_won=self._hedges_won,
            scaling_events=list(self._scaling_events),
            capacity_samples=list(self._capacity_samples),
            data_plane=(
                self.data_plane.stats() if self.data_plane is not None else None
            ),
            tenants=(
                self._admission.tenant_stats(self._outcomes, self._dropped)
                if self._admission is not None
                else {}
            ),
        )
