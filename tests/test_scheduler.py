"""Tests for the step-based execution core and DeviceScheduler (DESIGN.md §6)."""

import numpy as np
import pytest

from repro.baselines import (
    HFEngine,
    HFOffloadEngine,
    HFOffloadQuantEngine,
    HFQuantEngine,
    prism_quant_engine,
)
from repro.core.api import EngineServer, SelectionRequest
from repro.core.config import PrismConfig
from repro.core.engine import PrismEngine
from repro.core.scheduler import (
    LANE_BATCH,
    LANE_INTERACTIVE,
    DeviceScheduler,
    SchedulerConfig,
)
from repro.core.service import SemanticSelectionService
from repro.data.datasets import get_dataset
from repro.data.workloads import build_batch
from repro.device.platforms import get_profile
from repro.harness.runner import shared_model, shared_tokenizer
from repro.model.zoo import QWEN3_0_6B


def make_batch(num_candidates=12, query_idx=0):
    query = get_dataset("wikipedia").queries(query_idx + 1, num_candidates)[query_idx]
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    return build_batch(query, tokenizer, QWEN3_0_6B.max_seq_len)


def make_prism(config=None):
    device = get_profile("nvidia_5070").create()
    engine = PrismEngine(
        shared_model(QWEN3_0_6B), device, config or PrismConfig(numerics=False)
    )
    engine.prepare()
    return engine


#: name -> fresh prepared engine, covering every engine family.
ENGINE_FACTORIES = {
    "prism": make_prism,
    "prism_quant": lambda: _prepared_prism_quant(),
    "hf": lambda: _prepared(HFEngine),
    "hf_offload": lambda: _prepared(HFOffloadEngine),
    "hf_quant": lambda: _prepared(HFQuantEngine),
    "hf_offload_quant": lambda: _prepared(HFOffloadQuantEngine),
}


def _prepared(engine_cls):
    device = get_profile("nvidia_5070").create()
    engine = engine_cls(shared_model(QWEN3_0_6B), device, numerics=False)
    engine.prepare()
    return engine


def _prepared_prism_quant():
    device = get_profile("nvidia_5070").create()
    engine = prism_quant_engine(
        shared_model(QWEN3_0_6B), device, PrismConfig.quant(numerics=False)
    )
    engine.prepare()
    return engine


class TestTaskAPI:
    def test_start_before_prepare_rejected(self):
        device = get_profile("nvidia_5070").create()
        engine = PrismEngine(shared_model(QWEN3_0_6B), device, PrismConfig(numerics=False))
        with pytest.raises(RuntimeError):
            engine.start(make_batch(), 5)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            make_prism().start(make_batch(), 0)

    def test_start_charges_nothing_until_stepped(self):
        """A queued task must not consume device time or memory."""
        engine = make_prism()
        now, in_use = engine.executor.now, engine.device.memory.in_use
        engine.start(make_batch(), 5)
        assert engine.executor.now == now
        assert engine.device.memory.in_use == in_use

    def test_step_count_is_layers_plus_finalisation(self):
        """HF runs every layer; one finalisation step closes the task."""
        engine = _prepared(HFEngine)
        task = engine.start(make_batch(num_candidates=8), 5)
        task.run()
        assert task.steps_taken == QWEN3_0_6B.num_layers + 1
        assert task.result.layers_executed == QWEN3_0_6B.num_layers

    def test_result_before_completion_raises(self):
        engine = make_prism()
        task = engine.start(make_batch(), 5)
        with pytest.raises(RuntimeError):
            _ = task.result
        task.step()
        with pytest.raises(RuntimeError):
            _ = task.result

    def test_step_after_completion_raises(self):
        engine = _prepared(HFEngine)
        task = engine.start(make_batch(num_candidates=8), 5)
        task.run()
        with pytest.raises(RuntimeError):
            task.step()

    def test_manual_stepping_equals_rerank(self):
        batch = make_batch()
        stepped = make_prism().start(batch, 5).run()
        served = EngineServer(make_prism()).submit(SelectionRequest(batch=batch, k=5))
        blocking = served.result().result
        assert np.array_equal(stepped.top_indices, blocking.top_indices)
        assert np.array_equal(stepped.top_scores, blocking.top_scores)
        assert stepped.latency_seconds == pytest.approx(blocking.latency_seconds)


class TestRequestedK:
    def test_clamp_recorded(self):
        """The silent k-clamp is now observable on the result."""
        result = make_prism().start(make_batch(num_candidates=5), 50).run()
        assert result.k == 5
        assert result.requested_k == 50
        assert result.k_clamped

    def test_unclamped_request(self):
        result = make_prism().start(make_batch(num_candidates=12), 5).run()
        assert result.k == 5
        assert result.requested_k == 5
        assert not result.k_clamped

    def test_clamp_recorded_on_baselines(self):
        result = _prepared(HFEngine).start(make_batch(num_candidates=5), 9).run()
        assert (result.k, result.requested_k, result.k_clamped) == (5, 9, True)


class TestConfigValidation:
    def test_bad_policy(self):
        with pytest.raises(ValueError):
            SchedulerConfig(policy="lottery")

    def test_bad_quantum(self):
        with pytest.raises(ValueError):
            SchedulerConfig(quantum_layers=0)

    def test_bad_concurrency(self):
        with pytest.raises(ValueError):
            SchedulerConfig(max_concurrency=0)

    def test_bad_max_skew(self):
        with pytest.raises(ValueError):
            SchedulerConfig(policy="fusion", max_skew=-0.1)

    def test_past_arrival_rejected(self):
        engine = make_prism()
        scheduler = DeviceScheduler(engine)
        with pytest.raises(ValueError):
            scheduler.submit_request(make_batch(), 5, arrival=engine.device.clock.now - 1.0)

    def test_negative_priority_rejected(self):
        scheduler = DeviceScheduler(make_prism())
        with pytest.raises(ValueError):
            scheduler.submit_request(make_batch(), 5, priority=-1)

    def test_invalid_k_rejected_at_submit(self):
        """A bad k must fail at submit, before any request runs — not
        mid-drain after other requests already consumed device time."""
        scheduler = DeviceScheduler(make_prism())
        scheduler.submit_request(make_batch(), 5)
        with pytest.raises(ValueError):
            scheduler.submit_request(make_batch(), 0)

    def test_unprepared_engine_rejected(self):
        device = get_profile("nvidia_5070").create()
        engine = PrismEngine(
            shared_model(QWEN3_0_6B), device, PrismConfig(numerics=False)
        )
        with pytest.raises(RuntimeError):
            DeviceScheduler(engine)


def _mixed_workload(engine, policy, quantum_layers=1, max_concurrency=4):
    scheduler = DeviceScheduler(
        engine,
        SchedulerConfig(
            policy=policy, quantum_layers=quantum_layers, max_concurrency=max_concurrency
        ),
    )
    now = engine.device.clock.now
    scheduler.submit_request(make_batch(num_candidates=16, query_idx=0), 8, arrival=now)
    scheduler.submit_request(make_batch(num_candidates=12, query_idx=1), 5, arrival=now)
    scheduler.submit_request(
        make_batch(num_candidates=6, query_idx=2),
        3,
        arrival=now + 0.05,
        priority=LANE_INTERACTIVE,
    )
    return scheduler


class TestDeterminism:
    @pytest.mark.parametrize("policy", ("fifo", "round_robin", "priority", "fusion"))
    def test_byte_identical_schedules(self, policy):
        """Identical inputs must produce byte-identical schedule traces."""
        first = _mixed_workload(make_prism(), policy)
        second = _mixed_workload(make_prism(), policy)
        first.drain()
        second.drain()
        assert first.trace_text() == second.trace_text()
        assert first.trace_text()  # non-vacuous: the trace has steps

    def test_outcomes_deterministic(self):
        a = _mixed_workload(make_prism(), "priority")
        b = _mixed_workload(make_prism(), "priority")
        outcomes_a, outcomes_b = a.drain(), b.drain()
        assert [o.request_id for o in outcomes_a] == [o.request_id for o in outcomes_b]
        for oa, ob in zip(outcomes_a, outcomes_b):
            assert oa.finish == pytest.approx(ob.finish)
            assert np.array_equal(oa.result.top_indices, ob.result.top_indices)


class TestSoloEquivalence:
    """A preempted task's final selection must exactly equal its solo run —
    the §6 guarantee, across every engine family."""

    @pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
    def test_preempted_equals_solo(self, name):
        factory = ENGINE_FACTORIES[name]
        batches = [make_batch(num_candidates=10, query_idx=i) for i in range(3)]
        solo = [factory().start(batch, 4).run() for batch in batches]

        engine = factory()
        scheduler = DeviceScheduler(
            engine, SchedulerConfig(policy="round_robin", quantum_layers=1)
        )
        for batch in batches:
            scheduler.submit_request(batch, 4)
        outcomes = {o.request_id: o for o in scheduler.drain()}
        interleaved = any(o.preempted for o in outcomes.values())
        assert interleaved, "round-robin over 3 tasks must interleave steps"
        for index, reference in enumerate(solo):
            result = outcomes[index].result
            assert np.array_equal(result.top_indices, reference.top_indices)
            assert np.array_equal(result.top_scores, reference.top_scores)


class TestPolicies:
    def test_fifo_runs_to_completion(self):
        scheduler = _mixed_workload(make_prism(), "fifo")
        scheduler.drain()
        # FIFO never interleaves: each task's steps are contiguous.
        order = [event.request_id for event in scheduler.trace]
        seen = []
        for request_id in order:
            if not seen or seen[-1] != request_id:
                seen.append(request_id)
        assert len(seen) == len(set(seen)), f"fifo interleaved: {seen}"

    def test_round_robin_interleaves(self):
        scheduler = _mixed_workload(make_prism(), "round_robin")
        outcomes = scheduler.drain()
        assert any(o.preempted for o in outcomes)

    def test_priority_preempts_batch_for_interactive(self):
        fifo = _mixed_workload(make_prism(), "fifo")
        prio = _mixed_workload(make_prism(), "priority")
        fifo_out = {o.request_id: o for o in fifo.drain()}
        prio_out = {o.request_id: o for o in prio.drain()}
        # Request 2 is the late-arriving interactive one.
        assert prio_out[2].e2e_latency < fifo_out[2].e2e_latency
        # The interactive request finishes before at least one batch task.
        assert prio_out[2].finish < max(prio_out[0].finish, prio_out[1].finish)

    def test_max_concurrency_one_serialises(self):
        scheduler = _mixed_workload(make_prism(), "round_robin", max_concurrency=1)
        outcomes = scheduler.drain()
        assert not any(o.preempted for o in outcomes)

    def test_priority_preempts_through_saturated_cap(self):
        """The preemption guarantee must hold when batch work saturates
        max_concurrency: the interactive arrival is admitted over the
        cap and the running batch task yields at its next layer
        boundary instead of finishing its whole pass first."""
        fifo = _mixed_workload(make_prism(), "fifo", max_concurrency=2)
        prio = _mixed_workload(make_prism(), "priority", max_concurrency=2)
        fifo_out = {o.request_id: o for o in fifo.drain()}
        prio_out = {o.request_id: o for o in prio.drain()}
        interactive = prio_out[2]
        # Served promptly: far sooner than behind a full batch pass.
        assert interactive.e2e_latency < 0.5 * fifo_out[2].e2e_latency
        assert interactive.finish < max(prio_out[0].finish, prio_out[1].finish)
        # And a batch task was genuinely preempted mid-pass.
        assert any(prio_out[i].preempted for i in (0, 1))

    def test_fusion_gang_steps_in_lockstep(self):
        """Fusion steps the whole gang across each layer boundary
        back-to-back: the trace shows fused groups the size of the gang."""
        engine = make_prism()
        scheduler = DeviceScheduler(
            engine, SchedulerConfig(policy="fusion", max_concurrency=3)
        )
        for idx in range(3):
            scheduler.submit_request(make_batch(num_candidates=10, query_idx=idx), 4)
        scheduler.drain()
        sizes = scheduler.fused_group_sizes()
        assert max(sizes) == 3
        # Most boundaries are crossed by the full gang (tasks only drop
        # out near the end as pruning terminates them at different layers).
        assert scheduler.mean_fused_occupancy > 2.0

    def test_fifo_occupancy_is_one(self):
        scheduler = _mixed_workload(make_prism(), "fifo")
        scheduler.drain()
        assert scheduler.mean_fused_occupancy == 1.0

    def test_fusion_max_skew_holds_arrival_for_fresh_group(self):
        """With a generous max_skew, a mid-sweep arrival waits for the
        running group to drain; with zero skew it is admitted at once."""

        def run(max_skew):
            engine = make_prism()
            scheduler = DeviceScheduler(
                engine,
                SchedulerConfig(
                    policy="fusion", max_concurrency=4, max_skew=max_skew
                ),
            )
            now = engine.device.clock.now
            for idx in range(2):
                scheduler.submit_request(
                    make_batch(num_candidates=12, query_idx=idx), 5, arrival=now
                )
            late = scheduler.submit_request(
                make_batch(num_candidates=6, query_idx=2), 3, arrival=now + 0.02
            )
            outcomes = {o.request_id: o for o in scheduler.drain()}
            return outcomes, late

        held, late = run(max_skew=60.0)
        group_finish = max(held[i].finish for i in (0, 1))
        assert held[late].start >= group_finish  # waited for a fresh group

        eager, late = run(max_skew=0.0)
        group_finish = max(eager[i].finish for i in (0, 1))
        assert eager[late].start < group_finish  # admitted mid-sweep
        # Either way the late request's selection is identical.
        assert np.array_equal(
            held[late].result.top_indices, eager[late].result.top_indices
        )

    def test_latency_decomposition(self):
        scheduler = _mixed_workload(make_prism(), "priority")
        for outcome in scheduler.drain():
            assert outcome.queue_wait >= 0
            assert outcome.service_seconds > 0
            assert outcome.preemption_seconds >= -1e-12
            assert outcome.e2e_latency == pytest.approx(
                outcome.queue_wait + outcome.service_seconds + outcome.preemption_seconds
            )

    def test_stats_lanes(self):
        scheduler = _mixed_workload(make_prism(), "priority")
        scheduler.drain()
        stats = scheduler.stats()
        assert len(stats.lane(LANE_INTERACTIVE)) == 1
        assert len(stats.lane(LANE_BATCH)) == 2
        assert stats.throughput_rps > 0
        assert stats.latency_percentile(99) >= stats.latency_percentile(50)


class TestServiceConcurrentMode:
    def test_max_concurrency_validated(self):
        with pytest.raises(ValueError):
            SemanticSelectionService(
                shared_model(QWEN3_0_6B),
                get_profile("nvidia_5070"),
                config=PrismConfig(numerics=False),
                max_concurrency=0,
            )

    def _service(self, **kwargs):
        defaults = dict(
            model=shared_model(QWEN3_0_6B),
            profile=get_profile("nvidia_5070"),
            config=PrismConfig(numerics=False),
            sample_rate=0.5,
            max_concurrency=3,
        )
        defaults.update(kwargs)
        return SemanticSelectionService(**defaults)

    def test_concurrent_selections_match_serial(self):
        batches = [make_batch(num_candidates=10, query_idx=i) for i in range(4)]
        serial = self._service()
        serial_results = [
            serial.serve_requests([SelectionRequest(batch=batch, k=4)]).outcomes[0].result
            for batch in batches
        ]
        concurrent = self._service()
        outcomes = concurrent.serve_requests(
            [SelectionRequest(batch=batch, k=4) for batch in batches], policy="round_robin"
        ).outcomes
        by_id = {o.request_id: o for o in outcomes}
        for index, reference in enumerate(serial_results):
            assert np.array_equal(
                by_id[index].result.top_indices, reference.top_indices
            )

    def test_sampling_stride_preserved(self):
        """sample_rate=0.5 over 4 requests logs exactly 2 — same as serial,
        and independent of completion order."""
        batches = [make_batch(num_candidates=10, query_idx=i) for i in range(4)]
        service = self._service(sample_rate=0.5)
        service.serve_requests(
            [SelectionRequest(batch=batch, k=4) for batch in batches], policy="priority"
        )
        assert service.stats.requests_served == 4
        assert service.stats.requests_sampled == 2
        assert service.pending_samples == 2

    def test_sample_overrides_respected(self):
        batches = [make_batch(num_candidates=10, query_idx=i) for i in range(3)]
        service = self._service()
        service.serve_requests(
            [
                SelectionRequest(batch=batch, k=4, sample=sample)
                for batch, sample in zip(batches, [True, False, True])
            ]
        )
        assert service.stats.requests_sampled == 2

    def test_mismatched_kwarg_lengths_rejected(self):
        service = self._service()
        with pytest.raises(ValueError):
            service.serve_requests([SelectionRequest(batch=make_batch(), k=4)], cancels=[0.0, 1.0])

    def test_rejected_wave_leaves_sampling_stride_untouched(self):
        """A wave that fails validation must not consume stride state:
        the next successful wave samples exactly as a fresh service."""
        batches = [make_batch(num_candidates=10, query_idx=i) for i in range(4)]
        service = self._service(sample_rate=0.5)
        with pytest.raises(ValueError):
            service.serve_requests(
                [SelectionRequest(batch=batch, k=4) for batch in batches],
                cancels=[None],  # misaligned with the wave
            )
        assert service.stats.requests_served == 0
        assert service.last_scheduler is None
        service.serve_requests([SelectionRequest(batch=batch, k=4) for batch in batches])
        assert service.stats.requests_sampled == 2  # same as an untouched stride

    def test_idle_maintenance_after_concurrent_wave(self):
        service = self._service(sample_rate=1.0)
        batches = [make_batch(num_candidates=10, query_idx=i) for i in range(2)]
        service.serve_requests([SelectionRequest(batch=batch, k=4) for batch in batches])
        report = service.idle_maintenance()
        assert report is not None
        assert report.samples_checked == 2
