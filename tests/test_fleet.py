"""Tests for the fleet serving layer (DESIGN.md §5)."""

import numpy as np
import pytest

from repro.core.config import PrismConfig
from repro.core.fleet import (
    ROUTING_POLICIES,
    FleetConfig,
    FleetService,
)
from repro.data.datasets import get_dataset
from repro.data.workloads import build_batch
from repro.device.platforms import get_profile
from repro.harness.runner import shared_model, shared_tokenizer
from repro.model.zoo import QWEN3_0_6B


@pytest.fixture(scope="module")
def batches():
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    queries = get_dataset("wikipedia").queries(6, 20)
    return [build_batch(q, tokenizer, QWEN3_0_6B.max_seq_len) for q in queries]


def make_fleet(num_replicas=2, profile="nvidia_5070", **fleet_kwargs):
    service_kwargs = {
        key: fleet_kwargs.pop(key)
        for key in ("sample_rate", "precision_target", "step")
        if key in fleet_kwargs
    }
    return FleetService.homogeneous(
        shared_model(QWEN3_0_6B),
        get_profile(profile),
        num_replicas,
        fleet_config=FleetConfig(**fleet_kwargs),
        config=PrismConfig(numerics=False),
        **service_kwargs,
    )


class TestConfigValidation:
    def test_bad_max_batch(self):
        with pytest.raises(ValueError):
            FleetConfig(max_batch=0)

    def test_bad_max_wait(self):
        with pytest.raises(ValueError):
            FleetConfig(max_wait_ms=-1.0)

    def test_unknown_routing(self):
        with pytest.raises(ValueError):
            FleetConfig(routing="sticky")

    def test_bad_overhead(self):
        with pytest.raises(ValueError):
            FleetConfig(dispatch_overhead_ms=-0.1)

    def test_bad_max_skew(self):
        with pytest.raises(ValueError):
            FleetConfig(max_skew=-1.0)

    def test_bad_ewma_alpha(self):
        with pytest.raises(ValueError):
            FleetConfig(ewma_alpha=0.0)

    def test_needs_replicas(self):
        with pytest.raises(ValueError):
            FleetService(shared_model(QWEN3_0_6B), [])

    def test_homogeneous_needs_positive_count(self):
        with pytest.raises(ValueError):
            FleetService.homogeneous(
                shared_model(QWEN3_0_6B), get_profile("nvidia_5070"), 0
            )


class TestAdmission:
    def test_arrival_before_fleet_time_rejected(self, batches):
        fleet = make_fleet(1)
        fleet.submit_request(batches[0], 10)
        fleet.drain()
        assert fleet.clock.now > 0
        with pytest.raises(ValueError):
            fleet.submit_request(batches[0], 10, at=0.0)

    def test_drain_serves_everything(self, batches):
        fleet = make_fleet(2)
        ids = [fleet.submit_request(batch, 10) for batch in batches]
        outcomes = fleet.drain()
        assert sorted(o.request_id for o in outcomes) == ids
        assert fleet.pending_requests == 0

    def test_drain_completion_ordered(self, batches):
        fleet = make_fleet(2)
        for batch in batches:
            fleet.submit_request(batch, 10)
        outcomes = fleet.drain()
        finishes = [o.finish for o in outcomes]
        assert finishes == sorted(finishes)

    def test_fleet_clock_reaches_last_completion(self, batches):
        fleet = make_fleet(2)
        for batch in batches:
            fleet.submit_request(batch, 10)
        outcomes = fleet.drain()
        assert fleet.clock.now == pytest.approx(max(o.finish for o in outcomes))


class TestBatching:
    def test_max_batch_respected(self, batches):
        fleet = make_fleet(1, max_batch=2, max_wait_ms=0.0)
        for batch in batches:
            fleet.submit_request(batch, 10)
        outcomes = fleet.drain()
        # Dispatch groups share a start instant; none exceeds max_batch.
        starts = {}
        for outcome in outcomes:
            starts.setdefault(outcome.start, []).append(outcome)
        assert max(len(group) for group in starts.values()) <= 2

    def test_partial_batch_waits_for_deadline(self, batches):
        # One request now, the next arriving after the wait bound: the
        # first must flush at its deadline, not when the second arrives.
        fleet = make_fleet(1, max_batch=4, max_wait_ms=50.0)
        fleet.submit_request(batches[0], 10, at=0.0)
        fleet.submit_request(batches[1], 10, at=10.0)
        outcomes = sorted(fleet.drain(), key=lambda o: o.request_id)
        assert outcomes[0].start == pytest.approx(0.050)

    def test_end_of_stream_flushes_immediately(self, batches):
        # With no future arrival, waiting out max_wait cannot grow the
        # batch — the dispatcher flushes at once.
        fleet = make_fleet(1, max_batch=4, max_wait_ms=1000.0)
        fleet.submit_request(batches[0], 10, at=0.0)
        (outcome,) = fleet.drain()
        assert outcome.start == pytest.approx(0.0)
        assert outcome.queue_wait == pytest.approx(0.0)

    def test_full_batch_flushes_before_deadline(self, batches):
        fleet = make_fleet(1, max_batch=2, max_wait_ms=1000.0)
        for batch in batches[:2]:
            fleet.submit_request(batch, 10, at=0.0)
        outcomes = fleet.drain()
        assert all(o.start == pytest.approx(0.0) for o in outcomes)

    def test_dispatch_overhead_charged(self, batches):
        cheap = make_fleet(1, dispatch_overhead_ms=0.0)
        costly = make_fleet(1, dispatch_overhead_ms=100.0)
        for fleet in (cheap, costly):
            fleet.submit_request(batches[0], 10)
        fast = cheap.drain()[0]
        slow = costly.drain()[0]
        assert slow.latency == pytest.approx(fast.latency + 0.100)


class TestRouting:
    def test_round_robin_cycles(self, batches):
        fleet = make_fleet(3, routing="round_robin", max_batch=1, max_wait_ms=0.0)
        for batch in batches:
            fleet.submit_request(batch, 10)
        outcomes = sorted(fleet.drain(), key=lambda o: o.request_id)
        assert [o.replica for o in outcomes] == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_prefers_idle_replica(self, batches):
        fleet = make_fleet(2, routing="least_loaded", max_batch=1, max_wait_ms=0.0)
        for batch in batches[:2]:
            fleet.submit_request(batch, 10)
        outcomes = sorted(fleet.drain(), key=lambda o: o.request_id)
        # Both arrive in the same burst; the second must not pile onto
        # the replica that already holds the first.
        assert {o.replica for o in outcomes} == {0, 1}

    def test_ewma_shifts_load_to_fast_replicas(self, batches):
        model = shared_model(QWEN3_0_6B)
        profiles = [get_profile("nvidia_5070"), get_profile("apple_m2")]
        fleet = FleetService(
            model,
            profiles,
            fleet_config=FleetConfig(
                routing="ewma", max_batch=1, max_wait_ms=0.0
            ),
            config=PrismConfig(numerics=False),
        )
        for batch in batches + batches:  # 12 requests
            fleet.submit_request(batch, 10)
        fleet.drain()
        fast, slow = fleet.replicas
        assert fast.requests_served > slow.requests_served

    def test_all_policies_registered(self):
        assert set(ROUTING_POLICIES) == {"round_robin", "least_loaded", "ewma"}


class TestDeterminism:
    def test_results_identical_across_fleet_sizes(self, batches):
        per_size = {}
        for num_replicas in (1, 3):
            fleet = make_fleet(num_replicas)
            for batch in batches:
                fleet.submit_request(batch, 10)
            outcomes = sorted(fleet.drain(), key=lambda o: o.request_id)
            per_size[num_replicas] = [o.result.top_indices.tolist() for o in outcomes]
        assert per_size[1] == per_size[3]


class TestSampling:
    def test_fleet_wide_stride(self, batches):
        fleet = make_fleet(2, sample_rate=0.5)
        for batch in batches:
            fleet.submit_request(batch, 10)
        fleet.drain()
        sampled = sum(r.service.stats.requests_sampled for r in fleet.replicas)
        assert sampled == 3  # 6 requests x 0.5, regardless of routing


class TestMaintenance:
    def test_none_without_samples(self, batches):
        fleet = make_fleet(2, sample_rate=0.5)
        assert fleet.idle_maintenance() is None

    def test_consensus_propagates_to_all_replicas(self, batches):
        fleet = make_fleet(3, sample_rate=1.0, precision_target=0.8, step=0.05)
        for batch in batches:
            fleet.submit_request(batch, 10)
        fleet.drain()
        report = fleet.idle_maintenance()
        assert report is not None
        thresholds = {r.service.threshold for r in fleet.replicas}
        assert thresholds == {report.consensus_threshold}
        assert report.consensus_threshold == pytest.approx(
            float(np.median(report.pre_consensus_thresholds))
        )

    def test_maintenance_leaves_serving_clocks_untouched(self, batches):
        fleet = make_fleet(2, sample_rate=1.0)
        for batch in batches:
            fleet.submit_request(batch, 10)
        fleet.drain()
        before = [r.service.device.clock.now for r in fleet.replicas]
        fleet.idle_maintenance()
        assert [r.service.device.clock.now for r in fleet.replicas] == before


class TestStats:
    def test_percentiles_ordered(self, batches):
        fleet = make_fleet(2)
        for batch in batches:
            fleet.submit_request(batch, 10)
        fleet.drain()
        stats = fleet.stats()
        assert stats.p50_latency <= stats.p95_latency <= stats.p99_latency
        assert stats.throughput_rps > 0
        assert stats.max_queue_depth >= 1

    def test_utilisation_bounds(self, batches):
        fleet = make_fleet(2)
        for batch in batches:
            fleet.submit_request(batch, 10)
        fleet.drain()
        stats = fleet.stats()
        assert set(stats.utilisation) == {0, 1}
        for value in stats.utilisation.values():
            assert 0.0 <= value <= 1.0 + 1e-9

    def test_empty_fleet_stats(self):
        # An empty sample has no percentiles or rate: every helper
        # answers None rather than a fake number (DESIGN.md §10).
        fleet = make_fleet(1)
        stats = fleet.stats()
        assert stats.throughput_rps is None
        assert stats.p50_latency is None
        assert stats.p95_latency is None
        assert stats.p99_latency is None
        assert stats.latency_percentile(75) is None
        assert stats.mean_queue_wait is None
        assert stats.max_queue_depth == 0


class TestIntraReplicaConcurrency:
    """Replica routing composed with the §6 intra-replica scheduler."""

    def test_bad_intra_concurrency_rejected(self):
        with pytest.raises(ValueError):
            FleetConfig(intra_concurrency=0)

    def test_bad_intra_policy_rejected(self):
        with pytest.raises(ValueError):
            FleetConfig(intra_concurrency=2, intra_policy="lottery")

    def test_selections_identical_to_serial_fleet(self, batches):
        serial = make_fleet(2, max_batch=3)
        concurrent = make_fleet(2, max_batch=3, intra_concurrency=3)
        for batch in batches:
            serial.submit_request(batch, 10)
            concurrent.submit_request(batch, 10)
        serial_out = {o.request_id: o for o in serial.drain()}
        concurrent_out = {o.request_id: o for o in concurrent.drain()}
        assert set(serial_out) == set(concurrent_out)
        for request_id, outcome in serial_out.items():
            assert np.array_equal(
                outcome.result.top_indices,
                concurrent_out[request_id].result.top_indices,
            )

    def test_shared_plane_fleet_matches_serial_selections(self, batches):
        """The §7 plane composes with routing: a fused fleet serves the
        exact selections of a serial one while replicas amortise SSD
        weight reads across each dispatched batch."""
        serial = make_fleet(2, max_batch=3)
        fused = make_fleet(
            2,
            max_batch=3,
            intra_concurrency=3,
            intra_policy="fusion",
            shared_weight_plane=True,
        )
        for batch in batches:
            serial.submit_request(batch, 10)
            fused.submit_request(batch, 10)
        serial_out = {o.request_id: o for o in serial.drain()}
        fused_out = {o.request_id: o for o in fused.drain()}
        for request_id, outcome in serial_out.items():
            assert np.array_equal(
                outcome.result.top_indices,
                fused_out[request_id].result.top_indices,
            )
        planes = [r.service.engine.weight_plane for r in fused.replicas]
        assert all(plane is not None for plane in planes)
        assert sum(plane.stats.attaches for plane in planes) > 0
        assert all(r.service.engine.weight_plane is None for r in serial.replicas)

    def test_concurrent_fleet_samples_like_serial(self, batches):
        serial = make_fleet(2, max_batch=3, sample_rate=0.5)
        concurrent = make_fleet(2, max_batch=3, intra_concurrency=3, sample_rate=0.5)
        for batch in batches:
            serial.submit_request(batch, 10)
            concurrent.submit_request(batch, 10)
        serial.drain()
        concurrent.drain()
        def pending(fleet):
            return sum(r.service.pending_samples for r in fleet.replicas)

        assert pending(concurrent) == pending(serial) == 3
