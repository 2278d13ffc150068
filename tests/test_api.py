"""Tests for the unified request-centric serving API (DESIGN.md §8).

One ``SelectionRequest`` flows unchanged through every tier:
``EngineServer`` (direct), ``DeviceServer`` (scheduler + service
loop), ``FleetServer`` (batched, routed replicas).  The intent fields
are real — deadlines shed at admission, cancellation closes in-flight
tasks at layer boundaries.
"""

import pytest

import repro.core as core
from repro.core.api import (
    REQUEST_CANCELLED,
    REQUEST_SHED,
    DeviceServer,
    EngineServer,
    FleetServer,
    SelectionRequest,
    Server,
    serve_all,
)
from repro.core.config import PrismConfig
from repro.core.engine import PrismEngine
from repro.core.fleet import FleetConfig, FleetService
from repro.core.scheduler import LANE_INTERACTIVE, DeviceScheduler, SchedulerConfig
from repro.core.service import SemanticSelectionService
from repro.data.datasets import get_dataset
from repro.data.workloads import build_batch
from repro.device.platforms import get_profile
from repro.harness.runner import shared_model, shared_tokenizer
from repro.model.zoo import QWEN3_0_6B


def make_batch(num_candidates=10, query_idx=0):
    query = get_dataset("wikipedia").queries(query_idx + 1, num_candidates)[query_idx]
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    return build_batch(query, tokenizer, QWEN3_0_6B.max_seq_len)


def make_engine(config=None):
    device = get_profile("nvidia_5070").create()
    engine = PrismEngine(
        shared_model(QWEN3_0_6B), device, config or PrismConfig(numerics=False)
    )
    engine.prepare()
    return engine


def make_service(max_concurrency=2, shared_weights=False, sample_rate=0.25):
    return SemanticSelectionService(
        shared_model(QWEN3_0_6B),
        get_profile("nvidia_5070"),
        config=PrismConfig(numerics=False),
        max_concurrency=max_concurrency,
        shared_weights=shared_weights,
        sample_rate=sample_rate,
    )


def make_fleet(num_replicas=2, **kwargs):
    return FleetService.homogeneous(
        shared_model(QWEN3_0_6B),
        get_profile("nvidia_5070"),
        num_replicas,
        config=PrismConfig(numerics=False),
        **kwargs,
    )


def wave(n=3, k=3, **overrides):
    return [
        SelectionRequest(
            batch=make_batch(query_idx=i), k=k, request_id=f"q{i}", **overrides
        )
        for i in range(n)
    ]


class TestSelectionRequest:
    def test_validation(self):
        batch = make_batch()
        with pytest.raises(ValueError):
            SelectionRequest(batch=batch, k=0)
        with pytest.raises(ValueError):
            SelectionRequest(batch=batch, k=3, priority=-1)
        with pytest.raises(ValueError):
            SelectionRequest(batch=batch, k=3, arrival=-0.1)
        with pytest.raises(ValueError):
            SelectionRequest(batch=batch, k=3, deadline=0.0)

    def test_metadata_echo(self):
        request = SelectionRequest(batch=make_batch(), k=3, metadata={"app": "rag"})
        assert request.metadata["app"] == "rag"


class TestPublicSurface:
    def test_every_all_name_imports(self):
        """Satellite: every name in repro.core.__all__ resolves."""
        for name in core.__all__:
            assert hasattr(core, name), f"repro.core.__all__ exports missing {name!r}"

    def test_api_types_in_all(self):
        for name in (
            "SelectionRequest",
            "SelectionResponse",
            "Server",
            "EngineServer",
            "DeviceServer",
            "FleetServer",
            "RequestHandle",
            "serve_all",
        ):
            assert name in core.__all__

    def test_adapters_satisfy_server_protocol(self):
        assert isinstance(EngineServer(make_engine()), Server)
        assert isinstance(DeviceServer(make_service()), Server)
        assert isinstance(FleetServer(make_fleet()), Server)


class TestCrossTierEquivalence:
    def test_same_requests_identical_selections_on_all_tiers(self):
        """Acceptance bar: one request list, three tiers, byte-identical
        selection indices (solo, no shedding)."""
        results = {}
        for name, server in (
            ("engine", EngineServer(make_engine())),
            ("device", DeviceServer(make_service(max_concurrency=1), policy="fifo")),
            ("fleet", FleetServer(make_fleet(num_replicas=1))),
        ):
            responses = serve_all(server, wave())
            assert all(r.ok for r in responses)
            results[name] = {
                r.request_id: r.result.top_indices.tobytes() for r in responses
            }
        assert results["engine"] == results["device"] == results["fleet"]

    def test_interleaved_device_tier_matches_engine_tier(self):
        engine_responses = serve_all(EngineServer(make_engine()), wave(4))
        device_responses = serve_all(
            DeviceServer(make_service(max_concurrency=4), policy="round_robin"), wave(4)
        )
        def sel(responses):
            return {r.request_id: tuple(r.result.top_indices.tolist()) for r in responses}

        assert sel(engine_responses) == sel(device_responses)

    def test_provenance_identifies_tier(self):
        for tier, server in (
            ("engine", EngineServer(make_engine())),
            ("device", DeviceServer(make_service())),
            ("fleet", FleetServer(make_fleet())),
        ):
            (response,) = serve_all(server, wave(1))
            assert response.tier == tier
        assert response.replica is not None  # fleet names its replica


class TestRequestHandle:
    def test_result_drains_on_demand(self):
        server = EngineServer(make_engine())
        handle = server.submit(SelectionRequest(batch=make_batch(), k=3))
        assert not handle.done
        response = handle.result()
        assert handle.done and response.ok

    def test_auto_ids_assigned(self):
        server = EngineServer(make_engine())
        h0 = server.submit(SelectionRequest(batch=make_batch(), k=3))
        h1 = server.submit(SelectionRequest(batch=make_batch(), k=3))
        assert h0.request_id != h1.request_id

    def test_duplicate_id_rejected(self):
        server = EngineServer(make_engine())
        server.submit(SelectionRequest(batch=make_batch(), k=3, request_id="dup"))
        with pytest.raises(ValueError, match="duplicate"):
            server.submit(SelectionRequest(batch=make_batch(), k=3, request_id="dup"))

    def test_auto_id_skips_taken_ids(self):
        server = EngineServer(make_engine())
        server.submit(SelectionRequest(batch=make_batch(), k=3, request_id="r0"))
        handle = server.submit(SelectionRequest(batch=make_batch(), k=3))
        assert handle.request_id != "r0"

    def test_response_retention_bounded(self):
        server = EngineServer(make_engine())
        server.max_retained = 2
        handles = [
            server.submit(SelectionRequest(batch=make_batch(query_idx=i), k=3))
            for i in range(3)
        ]
        server.drain()
        assert len(server._responses) == 2
        assert not handles[0].done  # oldest evicted
        assert handles[1].done and handles[2].done

    def test_cancel_before_drain_never_starts(self):
        engine = make_engine()
        server = EngineServer(engine)
        counter = engine._request_counter
        handle = server.submit(SelectionRequest(batch=make_batch(), k=3))
        assert handle.cancel()
        response = handle.result()
        assert response.status == REQUEST_CANCELLED and response.result is None
        assert engine._request_counter == counter  # never reached the engine

    def test_cancel_after_completion_returns_false(self):
        server = EngineServer(make_engine())
        handle = server.submit(SelectionRequest(batch=make_batch(), k=3))
        handle.result()
        assert not handle.cancel()


class TestDeadlines:
    def test_shed_request_never_reaches_engine(self):
        """Satellite: a shed request is dropped at admission — the
        engine's request counter never moves for it."""
        service = make_service(max_concurrency=1)
        engine = service.engine
        server = DeviceServer(service, policy="fifo")
        counter = engine._request_counter
        requests = [
            SelectionRequest(batch=make_batch(query_idx=0), k=3, request_id="head"),
            # Far tighter than one pass's service time: expires while
            # the head request holds the serial device.
            SelectionRequest(
                batch=make_batch(query_idx=1), k=3, request_id="doomed", deadline=1e-4
            ),
        ]
        responses = {r.request_id: r for r in serve_all(server, requests)}
        assert responses["head"].ok
        assert responses["doomed"].status == REQUEST_SHED
        assert responses["doomed"].result is None
        assert responses["doomed"].deadline_met is False
        assert engine._request_counter == counter + 1  # head only
        assert service.stats.requests_dropped == 1

    def test_deadline_met_reported(self):
        server = EngineServer(make_engine())
        (response,) = serve_all(
            server, [SelectionRequest(batch=make_batch(), k=3, deadline=1e6)]
        )
        assert response.ok and response.deadline_met is True

    def test_edf_reorders_admission(self):
        """Two waiting requests, tightest deadline admitted first."""
        engine = make_engine()
        scheduler = DeviceScheduler(
            engine, SchedulerConfig(policy="fifo", max_concurrency=1, edf=True)
        )
        loose = scheduler.submit_request(make_batch(query_idx=0), 3, deadline=1e6)
        tight = scheduler.submit_request(make_batch(query_idx=1), 3, deadline=1.0)
        outcomes = scheduler.drain()
        assert [o.request_id for o in outcomes] == [tight, loose]

    def test_fleet_sheds_expired_deadline(self):
        fleet = make_fleet(num_replicas=1)
        server = FleetServer(fleet)
        requests = [
            SelectionRequest(batch=make_batch(query_idx=0), k=3, request_id="head"),
            SelectionRequest(
                batch=make_batch(query_idx=1), k=3, request_id="late", deadline=1e-4
            ),
        ]
        responses = {r.request_id: r for r in serve_all(server, requests)}
        assert responses["head"].ok
        assert responses["late"].status == REQUEST_SHED
        assert len(fleet.dropped_requests) == 1
        assert fleet.dropped_requests[0].client_id == "late"


class TestCancellation:
    def test_mid_pass_cancel_releases_plane_refcounts(self):
        """Satellite: a cancelled mid-pass request drops its PlanePass
        refcounts at the next layer boundary — no leaked layer buffers,
        and the surviving request completes normally."""
        service = make_service(max_concurrency=2, shared_weights=True)
        server = DeviceServer(service, policy="fusion")
        server.submit(SelectionRequest(batch=make_batch(query_idx=0), k=3, request_id="keep"))
        victim = server.submit(
            SelectionRequest(batch=make_batch(query_idx=1), k=3, request_id="kill")
        )
        victim.cancel(at=0.02)  # mid-pass on the virtual clock
        responses = {r.request_id: r for r in server.drain()}
        assert responses["keep"].ok
        assert responses["kill"].status == REQUEST_CANCELLED
        plane = service.engine.weight_plane
        assert plane is not None
        assert plane.open_passes == 0
        assert plane.resident_layers == set()
        assert all(count == 0 for count in plane._refcount.values())
        # The cancelled task actually started (it was not a pre-start
        # drop): its drop instant lies after the wave origin.
        assert responses["kill"].finish > responses["kill"].arrival

    def test_mid_pass_cancel_frees_private_stream_buffers(self):
        """Without the shared plane, a cancelled task's namespaced
        stream buffers are freed by the generator teardown."""
        service = make_service(max_concurrency=2)
        server = DeviceServer(service, policy="round_robin")
        server.submit(SelectionRequest(batch=make_batch(query_idx=0), k=3, request_id="keep"))
        victim = server.submit(
            SelectionRequest(batch=make_batch(query_idx=1), k=3, request_id="kill")
        )
        victim.cancel(at=0.02)
        responses = {r.request_id: r for r in server.drain()}
        assert responses["kill"].status == REQUEST_CANCELLED
        # Only the runtime base, classifier and embedding cache remain;
        # every per-request allocation (req{n}/... tags) is gone.
        live_tags = set(service.device.memory._live)
        assert not any(tag.startswith("req") for tag in live_tags), live_tags

    def test_engine_tier_mid_pass_cancel(self):
        engine = make_engine()
        server = EngineServer(engine)
        handle = server.submit(SelectionRequest(batch=make_batch(), k=3))
        handle.cancel(at=0.01)
        response = handle.result()
        assert response.status == REQUEST_CANCELLED
        assert response.start is not None  # it did start
        assert response.result is None

    def test_cancelled_request_not_sampled(self):
        service = make_service(max_concurrency=1, sample_rate=1.0)
        server = DeviceServer(service)
        handle = server.submit(SelectionRequest(batch=make_batch(), k=3))
        handle.cancel()
        server.drain()
        assert service.pending_samples == 0


class TestFleetCorrelation:
    def test_request_id_carried_end_to_end(self):
        """Satellite: FleetService outcomes correlate to submissions —
        the fleet-local id returned by submit_request matches the
        outcome, and the caller's client_id rides along."""
        fleet = make_fleet(num_replicas=2)
        batches = [make_batch(query_idx=i) for i in range(3)]
        fleet_ids = [
            fleet.submit_request(batch, 3, client_id=f"client-{i}")
            for i, batch in enumerate(batches)
        ]
        outcomes = fleet.drain()
        assert sorted(o.request_id for o in outcomes) == sorted(fleet_ids)
        by_fleet_id = {o.request_id: o for o in outcomes}
        for i, fleet_id in enumerate(fleet_ids):
            assert by_fleet_id[fleet_id].client_id == f"client-{i}"

    def test_fleet_server_echoes_request_ids(self):
        responses = serve_all(FleetServer(make_fleet()), wave(3))
        assert {r.request_id for r in responses} == {"q0", "q1", "q2"}

    def test_priority_reaches_intra_replica_scheduler(self):
        fleet = make_fleet(
            num_replicas=1,
            fleet_config=FleetConfig(intra_concurrency=2, intra_policy="priority"),
        )
        responses = serve_all(
            FleetServer(fleet),
            wave(2, priority=LANE_INTERACTIVE),
        )
        assert all(r.lane == LANE_INTERACTIVE for r in responses)


class TestResponseTiming:
    def test_latency_decomposition(self):
        service = make_service(max_concurrency=1)
        responses = serve_all(DeviceServer(service, policy="fifo"), wave(2))
        for response in responses:
            assert response.e2e_seconds >= response.service_seconds >= 0
            assert response.queue_seconds >= 0
            assert response.finish is not None and response.start is not None
            assert response.finish >= response.start >= response.arrival

    def test_fleet_serial_batch_service_times_are_per_request(self):
        """Requests served serially in one dispatched batch must report
        their own service span, not the whole batch's."""
        fleet = make_fleet(num_replicas=1, fleet_config=FleetConfig(max_batch=3))
        responses = serve_all(FleetServer(fleet), wave(3))
        assert all(r.ok for r in responses)
        total_service = sum(r.service_seconds for r in responses)
        makespan = max(r.finish for r in responses) - min(r.start for r in responses)
        # Serial execution: per-request service times tile the batch
        # window instead of each spanning it.
        assert total_service <= makespan * 1.01
        ordered = sorted(responses, key=lambda r: r.finish)
        for earlier, later in zip(ordered, ordered[1:]):
            assert later.start >= earlier.finish - 1e-9

    def test_threshold_provenance(self):
        service = make_service()
        (response,) = serve_all(DeviceServer(service), wave(1))
        assert response.threshold == pytest.approx(service.threshold)

    def test_fused_group_provenance(self):
        service = make_service(max_concurrency=2, shared_weights=True)
        responses = serve_all(DeviceServer(service, policy="fusion"), wave(2))
        groups = {r.request_id: r.fused_group for r in responses}
        # A gang admitted together crosses layer 0 back-to-back: both
        # requests' first steps land in the same fused group.
        assert groups["q0"] == groups["q1"] is not None
