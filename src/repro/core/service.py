"""Online serving with self-calibrating threshold (§4.1, deployed mode).

The paper's production story for the dispersion threshold: the user
states a minimum precision target; the system *samples requests at a
frequency and logs their top-K results; when the device is idle, it
re-executes full inference (without pruning) to obtain the ground
truth*, compares, and walks the threshold — up when sampled precision
falls below the target, down when there is headroom.

:class:`SemanticSelectionService` implements that loop around a live
:class:`~repro.core.engine.PrismEngine`:

* :meth:`serve_requests` serves a wave of requests at the current
  threshold through the step-multiplexing
  :class:`~repro.core.scheduler.DeviceScheduler` (DESIGN.md §6): up to
  ``max_concurrency`` requests share the device, interleaved at layer
  boundaries, and a deterministic :class:`SampleStride` logs a
  ``sample_rate`` fraction of them for idle checking;
* :meth:`idle_maintenance` models the device-idle background pass — it
  replays the logged requests unpruned on a *shadow* device (so the
  serving clock and memory are untouched), measures top-K agreement,
  and applies one §4.1 threshold step.

The controller is deliberately incremental (one step per idle pass),
matching the paper's description, rather than re-running the full
offline search of :class:`~repro.core.calibration.ThresholdCalibrator`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from typing import TYPE_CHECKING, Sequence

from ..device.platforms import Device, DeviceProfile
from ..model.transformer import CandidateBatch, CrossEncoderModel
from .config import PrismConfig
from .data_plane import DataPlane, SharedEmbeddingCache, clone_result
from .engine import PrismEngine, RerankResult
from .metrics import top_k_overlap
from .scheduler import (
    DeviceScheduler,
    DroppedRequest,
    ScheduledOutcome,
    SchedulerConfig,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports service)
    from .api import SelectionRequest


class SampleStride:
    """Deterministic request-sampling stride.

    Accumulates ``rate`` per request and trips each time the
    accumulator crosses 1.0, so exactly ``rate`` of requests are
    admitted with no RNG and no float drift at ``rate=1.0``.  Shared
    by the single-device service and the fleet admission layer so the
    two can never diverge on stride semantics.
    """

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.accumulator = 0.0

    def admit(self) -> bool:
        self.accumulator += self.rate
        if self.accumulator >= 1.0:
            self.accumulator -= 1.0
            return True
        return False


@dataclass
class SampledRequest:
    """One logged request awaiting ground-truth comparison."""

    batch: CandidateBatch
    k: int
    served_top: np.ndarray


@dataclass
class MaintenanceReport:
    """Outcome of one idle-time calibration pass."""

    samples_checked: int
    sampled_precision: float
    old_threshold: float
    new_threshold: float

    @property
    def adjusted(self) -> bool:
        return self.new_threshold != self.old_threshold


@dataclass
class ServiceStats:
    requests_served: int = 0
    requests_sampled: int = 0
    requests_dropped: int = 0  # shed or cancelled before completing
    maintenance_passes: int = 0
    history: list[MaintenanceReport] = field(default_factory=list)


@dataclass
class DeviceWave:
    """Internal record of one scheduler-driven serving wave.

    Produced by :meth:`SemanticSelectionService.serve_requests`; the
    :class:`~repro.core.api.DeviceServer` adapter turns it into
    :class:`~repro.core.api.SelectionResponse`\\ s.  ``request_ids``
    aligns with the wave's input order, mapping each input to its
    scheduler-local id.
    """

    outcomes: list[ScheduledOutcome]
    dropped: list[DroppedRequest]
    scheduler: DeviceScheduler
    origin: float
    request_ids: list[int]


class SemanticSelectionService:
    """A self-calibrating top-K selection service over one device.

    Parameters
    ----------
    model / profile:
        Reranker and platform.  The serving engine runs on a device
        created from ``profile``; ground-truth re-execution happens on
        shadow devices so it never appears in serving latency — the
        paper's "when the device is idle" semantics.
    precision_target:
        Minimum acceptable agreement between served and unpruned top-K.
    sample_rate:
        Fraction of requests logged for idle-time checking
        (deterministic stride, so behaviour is reproducible).
    step:
        Threshold increment per idle pass.
    min_threshold / max_threshold:
        Clamp range for the walk.
    max_concurrency:
        In-flight request cap of a serving wave
        (:meth:`serve_requests`); ``1`` keeps the service strictly
        serial.  Each in-flight request holds its own hidden-state and
        stream-buffer memory, so the cap bounds serving overhead.
    shared_weights:
        Serve concurrent requests from one refcounted weight plane
        (DESIGN.md §7) instead of per-request streamers: N in-flight
        same-model requests read each layer from the SSD once.  Pairs
        naturally with the ``fusion`` scheduling policy; solo requests
        stay bit-identical either way.
    """

    def __init__(
        self,
        model: CrossEncoderModel,
        profile: DeviceProfile,
        config: PrismConfig | None = None,
        precision_target: float = 0.95,
        sample_rate: float = 0.25,
        step: float = 0.05,
        min_threshold: float = 0.02,
        max_threshold: float = 1.5,
        max_concurrency: int = 1,
        shared_weights: bool = False,
        data_plane: DataPlane | None = None,
        embedding_plane: SharedEmbeddingCache | None = None,
        event_log=None,
        events_replica: int | None = None,
    ) -> None:
        if not 0 < precision_target <= 1:
            raise ValueError("precision_target must lie in (0, 1]")
        if not 0 < sample_rate <= 1:
            raise ValueError("sample_rate must lie in (0, 1]")
        if step <= 0:
            raise ValueError("step must be positive")
        if not 0 <= min_threshold < max_threshold:
            raise ValueError("need 0 <= min_threshold < max_threshold")
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        self.model = model
        self.profile = profile
        self.config = config or PrismConfig(numerics=False)
        if shared_weights:
            self.config = replace(self.config, shared_weight_plane=True)
        self.precision_target = precision_target
        self.sample_rate = sample_rate
        self.step = step
        self.min_threshold = min_threshold
        self.max_threshold = max_threshold
        self.max_concurrency = max_concurrency

        self.device: Device = profile.create()
        #: Fleet-shared embedding residency (DESIGN.md §12 layer 3);
        #: ``None`` keeps the engine's private §4.4 cache.
        self.embedding_plane = embedding_plane
        self.engine = PrismEngine(
            model, self.device, self.config, embedding_plane=embedding_plane
        )
        self.engine.prepare()
        #: Device-tier data plane (DESIGN.md §12 layers 1+2, memoization
        #: and coalescing only — partial-overlap reuse is the fleet
        #: coordinator's job).  ``None`` serves every request by a full
        #: pass, byte-identical to a service built without the plane.
        self.data_plane = data_plane
        if data_plane is not None:
            data_plane.on_threshold(self.threshold, at=self.device.clock.now)
            if event_log is not None:
                data_plane.attach_event_log(
                    event_log, tier="device", replica=events_replica
                )
        #: Observability sink (DESIGN.md §10), attached *after* prepare
        #: so the log carries serving-time events, not the one-time
        #: weight-load prologue.  ``None`` observes nothing.
        self.events = event_log
        if event_log is not None:
            self.device.attach_event_log(event_log, replica=events_replica)
        self.stats = ServiceStats()
        self._pending_samples: list[SampledRequest] = []
        self._stride = SampleStride(sample_rate)
        #: The scheduler of the most recent :meth:`serve_requests`
        #: wave — its ``stats()`` (lane percentiles, queue waits,
        #: throughput) and ``trace_text()`` stay reachable after the
        #: wave completes.
        self.last_scheduler: DeviceScheduler | None = None

    # ------------------------------------------------------------------
    @property
    def threshold(self) -> float:
        return self.engine.pruner.dispersion_threshold

    def _set_threshold(self, value: float) -> None:
        value = float(np.clip(value, self.min_threshold, self.max_threshold))
        self.engine.pruner.dispersion_threshold = value
        self.config = replace(self.config, dispersion_threshold=value)
        if self.data_plane is not None:
            # Recalibration invalidates cached selections (DESIGN.md
            # §12): the plane bumps its epoch when the value changed.
            self.data_plane.on_threshold(value, at=self.device.clock.now)

    def apply_threshold(self, value: float) -> float:
        """Externally set the operating threshold (clamped); returns it.

        This is the hook a fleet coordinator uses to propagate a
        consensus threshold to every replica after a maintenance round
        (DESIGN.md §5); the clamp range stays authoritative.
        """
        self._set_threshold(value)
        return self.threshold

    # ------------------------------------------------------------------
    # serving path
    # ------------------------------------------------------------------
    def _serve_solo(
        self,
        batch: CandidateBatch,
        k: int,
        sample: bool | None = None,
        cancel_at: float | None = None,
    ) -> RerankResult | None:
        """Serve one request to completion on the serving engine.

        The fleet's serial dispatch path; a one-request
        :meth:`serve_requests` wave (DESIGN.md §8) produces the same
        result, clock and memory.  ``sample`` forces (``True``) or
        suppresses (``False``) idle-check logging; ``None`` applies the
        deterministic stride.  ``cancel_at`` (absolute device time)
        cancels the pass at its next layer boundary — the task is
        closed (releasing any weight-plane refcounts) and ``None`` is
        returned; cancelled requests are neither counted as served nor
        logged for idle checking.
        """
        result = self.engine.start(batch, k).run(cancel_at=cancel_at)
        if result is None:
            self.stats.requests_dropped += 1
            return None
        self.stats.requests_served += 1
        if sample is None:
            sample = self._stride.admit()
        if sample:
            self.stats.requests_sampled += 1
            self._pending_samples.append(
                SampledRequest(batch=batch, k=k, served_top=result.top_indices.copy())
            )
        return result

    def serve_requests(
        self,
        requests: "Sequence[SelectionRequest]",
        *,
        policy: str = "round_robin",
        quantum_layers: int = 1,
        max_skew: float = 0.0,
        edf: bool = False,
        cancels: Sequence[float | None] | None = None,
    ) -> DeviceWave:
        """Serve one wave of :class:`~repro.core.api.SelectionRequest`\\ s.

        The request-centric serving core (DESIGN.md §8): requests are
        submitted to a :class:`DeviceScheduler` (DESIGN.md §6) capped
        at the service's ``max_concurrency`` and driven to completion.
        Request ``arrival``/``deadline`` offsets are resolved against
        the call instant; ``cancels`` (aligned with ``requests``) adds
        per-request cancellation offsets on the same axis.  Deadline
        shedding and cancellation happen in the scheduler — a shed
        request never reaches the engine, and a mid-pass cancel closes
        its task at the next layer boundary.

        Sampling is decided per request *in submission order* through
        the deterministic :class:`SampleStride` (or the request's
        ``sample`` override); only completed requests enter the
        idle-check log.  The scheduler stays reachable as
        :attr:`last_scheduler` for ``stats()`` and ``trace_text()``.

        With a :attr:`data_plane` attached (DESIGN.md §12), requests
        first pass through the plane: memo hits and coalesced followers
        resolve without ever occupying a scheduler slot (their outcomes
        carry negative synthetic ids and ``cache`` provenance); only
        leaders — and requests opting out via ``memoize=False`` — enter
        the scheduler wave.
        """
        requests = list(requests)
        if cancels is not None and len(cancels) != len(requests):
            raise ValueError("cancels must match requests")
        if self.data_plane is not None:
            return self._serve_requests_plane(
                requests,
                policy=policy,
                quantum_layers=quantum_layers,
                max_skew=max_skew,
                edf=edf,
                cancels=cancels,
            )
        return self._serve_wave(
            requests,
            policy=policy,
            quantum_layers=quantum_layers,
            max_skew=max_skew,
            edf=edf,
            cancels=cancels,
        )

    def _serve_wave(
        self,
        requests: "list[SelectionRequest]",
        *,
        policy: str,
        quantum_layers: int,
        max_skew: float,
        edf: bool,
        cancels: Sequence[float | None] | None,
    ) -> DeviceWave:
        """The plane-less scheduler wave (the pre-§12 serving core)."""
        if self.engine.weight_plane is not None and policy == "fifo" and len(requests) > 1:
            # Run-to-completion over the plane keeps every admitted
            # task's frontier at layer 0 while the first runs, so
            # nothing can be reaped: the sweep caches the whole model
            # in memory.  Legitimate on big-RAM devices, but silent
            # OOM bait on the 8 GiB profiles — make it a choice.
            warnings.warn(
                "shared weight plane with the run-to-completion 'fifo' policy keeps "
                "every swept layer resident until the last admitted task passes it "
                "(whole-model residency); use 'fusion' or 'round_robin' to keep the "
                "double-buffered streaming window (DESIGN.md §7)",
                RuntimeWarning,
                stacklevel=2,
            )
        scheduler = DeviceScheduler(
            self.engine,
            SchedulerConfig(
                policy=policy,
                quantum_layers=quantum_layers,
                max_concurrency=self.max_concurrency,
                max_skew=max_skew,
                edf=edf,
            ),
            event_log=self.events,
        )
        origin = self.device.clock.now
        request_ids: list[int] = []
        for index, request in enumerate(requests):
            sample = request.sample
            if sample is None:
                sample = self._stride.admit()
            arrival = origin + request.arrival_offset
            cancel = cancels[index] if cancels is not None else None
            request_ids.append(
                scheduler.submit_request(
                    request.batch,
                    request.k,
                    arrival=arrival,
                    priority=request.priority,
                    sample=sample,
                    deadline=(
                        arrival + request.deadline if request.deadline is not None else None
                    ),
                    cancel_at=origin + cancel if cancel is not None else None,
                    client_id=request.request_id,
                )
            )
        self.last_scheduler = scheduler
        outcomes = scheduler.drain()
        by_id = {outcome.request_id: outcome for outcome in outcomes}
        self.stats.requests_served += len(outcomes)
        self.stats.requests_dropped += len(scheduler.dropped)
        for index, request in enumerate(requests):
            outcome = by_id.get(request_ids[index])
            if outcome is not None and outcome.sample:
                self.stats.requests_sampled += 1
                self._pending_samples.append(
                    SampledRequest(
                        batch=request.batch,
                        k=request.k,
                        served_top=outcome.result.top_indices.copy(),
                    )
                )
        return DeviceWave(
            outcomes=outcomes,
            dropped=list(scheduler.dropped),
            scheduler=scheduler,
            origin=origin,
            request_ids=request_ids,
        )

    # ------------------------------------------------------------------
    # data-plane serving path (DESIGN.md §12)
    # ------------------------------------------------------------------
    def _weight_bytes(self, result: RerankResult) -> int:
        """SSD weight traffic a pass of this result's depth swept."""
        store = self.engine.store
        return sum(
            store.layer_nbytes(layer) for layer in range(result.layers_executed)
        )

    def replay_selection(self, batch: CandidateBatch, k: int) -> RerankResult:
        """Full-batch selection replay on a zero-cost shadow engine.

        Pruning stays ON at the current config, so the replay is
        byte-identical to serving the batch solo (cross-tier
        determinism, DESIGN.md §8) — but it runs on a shadow device
        like :meth:`_ground_truth`, so serving clocks and memory are
        untouched.  This is how the fleet's partial-overlap path
        (DESIGN.md §12) recovers the exact full-batch selection after
        executing only the residue rows.
        """
        shadow = self.profile.create()
        engine = PrismEngine(self.model, shadow, self.config)
        engine.prepare()
        result = engine.start(batch, k).run()
        assert result is not None  # shadow passes are never cancelled
        return result

    def _serve_requests_plane(
        self,
        requests: "list[SelectionRequest]",
        *,
        policy: str,
        quantum_layers: int,
        max_skew: float,
        edf: bool,
        cancels: Sequence[float | None] | None,
    ) -> DeviceWave:
        """Device-tier plane serving: memoization + in-flight coalescing.

        Synthetic outcomes (memo hits, resolved followers) carry
        negative scheduler ids ``-(input_index + 1)`` so they can never
        collide with the wave scheduler's 0-based ids, and ``cache``
        provenance (``"hit"``/``"coalesced"``).  A leader that is
        dropped (shed/cancelled/faulted) invalidates its pending entry
        and its followers re-dispatch — the first becomes the new
        leader on the serving engine, siblings re-coalesce — so a dead
        leader never poisons the memo and never strands a follower.
        """
        plane = self.data_plane
        assert plane is not None
        origin = self.device.clock.now
        request_ids: list[int] = [0] * len(requests)
        synthetic_outcomes: list[ScheduledOutcome] = []
        synthetic_drops: list[DroppedRequest] = []
        leaders: list[tuple[int, "SelectionRequest", float | None, str | None]] = []
        redispatch: list[tuple[int, "SelectionRequest", float | None]] = []

        def abs_cancel(cancel: float | None) -> float | None:
            return origin + cancel if cancel is not None else None

        def synth_hit(index: int, request: "SelectionRequest", result, at: float) -> None:
            arrival = origin + request.arrival_offset
            self.stats.requests_served += 1
            synthetic_outcomes.append(
                ScheduledOutcome(
                    request_id=-(index + 1),
                    priority=request.priority,
                    arrival=arrival,
                    start=at,
                    finish=at,
                    service_seconds=0.0,
                    preempted=False,
                    result=result,
                    sample=False,
                    deadline=(
                        arrival + request.deadline
                        if request.deadline is not None
                        else None
                    ),
                    cache="hit",
                )
            )

        def resolve_followers(followers, result, finish: float) -> None:
            """Hand a completed leader's result to its followers."""
            for payload, attached_at in followers:
                f_index, f_request, f_cancel = payload
                f_cancel_abs = abs_cancel(f_cancel)
                done = max(finish, attached_at)
                if f_cancel_abs is not None and f_cancel_abs < done:
                    self.stats.requests_dropped += 1
                    synthetic_drops.append(
                        DroppedRequest(
                            request_id=-(f_index + 1),
                            priority=f_request.priority,
                            arrival=origin + f_request.arrival_offset,
                            at=f_cancel_abs,
                            reason="cancelled",
                            deadline=(
                                origin + f_request.arrival_offset + f_request.deadline
                                if f_request.deadline is not None
                                else None
                            ),
                            client_id=f_request.request_id,
                        )
                    )
                    continue
                self.stats.requests_served += 1
                synthetic_outcomes.append(
                    ScheduledOutcome(
                        request_id=-(f_index + 1),
                        priority=f_request.priority,
                        arrival=attached_at,
                        start=done,
                        finish=done,
                        service_seconds=0.0,
                        preempted=False,
                        result=clone_result(result),
                        sample=False,
                        deadline=(
                            origin + f_request.arrival_offset + f_request.deadline
                            if f_request.deadline is not None
                            else None
                        ),
                        cache="coalesced",
                    )
                )

        # ---- plane admission (input order) ---------------------------
        for index, request in enumerate(requests):
            cancel = cancels[index] if cancels is not None else None
            request_ids[index] = -(index + 1)
            if request.memoize is False:
                leaders.append((index, request, cancel, None))
                continue
            arrival = origin + request.arrival_offset
            cancel_abs = abs_cancel(cancel)
            if cancel_abs is not None and cancel_abs <= arrival:
                # Cancelled before it could arrive: the ordinary
                # scheduler drop path handles it, bypassing the plane.
                leaders.append((index, request, cancel, None))
                continue
            fp = plane.fingerprint(
                request.batch,
                request.k,
                threshold=self.threshold,
                sample_rate=self.sample_rate,
            )
            decision = plane.admit(
                fp,
                request.batch,
                payload=(index, request, cancel),
                at=arrival,
                request=request.request_id,
                overlap=False,
            )
            if decision.kind == "hit":
                synth_hit(index, request, decision.result, arrival)
            elif decision.kind == "coalesced":
                pass  # resolved when its leader completes or dies
            else:
                leaders.append((index, request, cancel, fp))

        # ---- leader wave through the ordinary scheduler --------------
        wave = self._serve_wave(
            [request for _, request, _, _ in leaders],
            policy=policy,
            quantum_layers=quantum_layers,
            max_skew=max_skew,
            edf=edf,
            cancels=[cancel for _, _, cancel, _ in leaders],
        )
        by_id = {outcome.request_id: outcome for outcome in wave.outcomes}
        dropped_by_id = {drop.request_id: drop for drop in wave.dropped}
        for (index, request, cancel, fp), scheduler_id in zip(
            leaders, wave.request_ids
        ):
            request_ids[index] = scheduler_id
            if fp is None:
                continue
            outcome = by_id.get(scheduler_id)
            if outcome is not None:
                followers = plane.complete(
                    fp,
                    request.batch,
                    outcome.result,
                    service_seconds=outcome.service_seconds,
                    weight_bytes=self._weight_bytes(outcome.result),
                    at=outcome.finish,
                    request=request.request_id,
                )
                resolve_followers(followers, outcome.result, outcome.finish)
            else:
                drop = dropped_by_id[scheduler_id]
                redispatch.extend(
                    payload
                    for payload, _ in plane.invalidate(
                        fp, at=drop.at, reason=drop.reason, request=request.request_id
                    )
                )

        # ---- continuation: re-dispatch stranded followers ------------
        # Served solo on the serving engine at the post-wave clock; the
        # first stranded follower of each dead leader becomes the new
        # leader, later siblings re-coalesce onto it.  Terminates: every
        # follower either completes, coalesces onto a completing
        # leader, or drops on an already-due cancel/deadline.
        pending = list(redispatch)
        while pending:
            f_index, f_request, f_cancel = pending.pop(0)
            sid = -(f_index + 1)
            now = self.device.clock.now
            cancel_abs = abs_cancel(f_cancel)
            arrival = origin + f_request.arrival_offset
            deadline_abs = (
                arrival + f_request.deadline if f_request.deadline is not None else None
            )
            if cancel_abs is not None and cancel_abs <= now:
                self.stats.requests_dropped += 1
                synthetic_drops.append(
                    DroppedRequest(
                        request_id=sid,
                        priority=f_request.priority,
                        arrival=arrival,
                        at=max(arrival, cancel_abs),
                        reason="cancelled",
                        deadline=deadline_abs,
                        client_id=f_request.request_id,
                    )
                )
                continue
            if deadline_abs is not None and now >= deadline_abs:
                self.stats.requests_dropped += 1
                synthetic_drops.append(
                    DroppedRequest(
                        request_id=sid,
                        priority=f_request.priority,
                        arrival=arrival,
                        at=now,
                        reason="shed",
                        deadline=deadline_abs,
                        client_id=f_request.request_id,
                    )
                )
                continue
            fp = plane.fingerprint(
                f_request.batch,
                f_request.k,
                threshold=self.threshold,
                sample_rate=self.sample_rate,
            )
            decision = plane.admit(
                fp,
                f_request.batch,
                payload=(f_index, f_request, f_cancel),
                at=now,
                request=f_request.request_id,
                overlap=False,
            )
            if decision.kind == "hit":
                synth_hit(f_index, f_request, decision.result, now)
                continue
            if decision.kind == "coalesced":
                continue
            start = self.device.clock.now
            result = self._serve_solo(
                f_request.batch, f_request.k, sample=False, cancel_at=cancel_abs
            )
            finish = self.device.clock.now
            if result is None:  # cancelled mid-pass (already counted)
                synthetic_drops.append(
                    DroppedRequest(
                        request_id=sid,
                        priority=f_request.priority,
                        arrival=arrival,
                        at=finish,
                        reason="cancelled",
                        deadline=deadline_abs,
                        client_id=f_request.request_id,
                    )
                )
                pending.extend(
                    payload
                    for payload, _ in plane.invalidate(
                        fp, at=finish, reason="cancelled", request=f_request.request_id
                    )
                )
                continue
            followers = plane.complete(
                fp,
                f_request.batch,
                result,
                service_seconds=finish - start,
                weight_bytes=self._weight_bytes(result),
                at=finish,
                request=f_request.request_id,
            )
            synthetic_outcomes.append(
                ScheduledOutcome(
                    request_id=sid,
                    priority=f_request.priority,
                    arrival=arrival,
                    start=start,
                    finish=finish,
                    service_seconds=finish - start,
                    preempted=False,
                    result=result,
                    sample=False,
                    deadline=deadline_abs,
                )
            )
            resolve_followers(followers, result, finish)

        outcomes = wave.outcomes + synthetic_outcomes
        outcomes.sort(key=lambda o: (o.finish, o.request_id))
        return DeviceWave(
            outcomes=outcomes,
            dropped=wave.dropped + synthetic_drops,
            scheduler=wave.scheduler,
            origin=origin,
            request_ids=request_ids,
        )

    # ------------------------------------------------------------------
    # idle path
    # ------------------------------------------------------------------
    def _ground_truth(self, sample: SampledRequest) -> np.ndarray:
        """Full unpruned inference on a shadow device (idle time)."""
        shadow = self.profile.create()
        engine = PrismEngine(
            self.model, shadow, replace(self.config, pruning_enabled=False)
        )
        engine.prepare()
        return engine.start(sample.batch, sample.k).run().top_indices

    def _sampled_precision(self) -> tuple[int, float]:
        overlaps = [
            top_k_overlap(sample.served_top, self._ground_truth(sample), sample.k)
            for sample in self._pending_samples
        ]
        return len(overlaps), float(np.mean(overlaps)) if overlaps else 1.0

    def idle_maintenance(self) -> MaintenanceReport | None:
        """Run one background calibration pass; returns its report.

        No-op (returns None) when no samples are pending.  Applies one
        §4.1 step: precision below target → raise the threshold (be
        more conservative); at or above target → lower it (go faster).
        """
        if not self._pending_samples:
            return None
        checked, precision = self._sampled_precision()
        old = self.threshold
        if precision < self.precision_target:
            self._set_threshold(old + self.step)
        else:
            self._set_threshold(old - self.step)
        self._pending_samples.clear()
        report = MaintenanceReport(
            samples_checked=checked,
            sampled_precision=precision,
            old_threshold=old,
            new_threshold=self.threshold,
        )
        self.stats.maintenance_passes += 1
        self.stats.history.append(report)
        return report

    @property
    def pending_samples(self) -> int:
        return len(self._pending_samples)
