"""Tests for the self-calibrating selection service (§4.1 deployed mode)."""

import numpy as np
import pytest

from repro.core.api import SelectionRequest
from repro.core.config import PrismConfig
from repro.core.service import SemanticSelectionService
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


def make_service(**kwargs):
    defaults = dict(
        model=shared_model(QWEN3_0_6B),
        profile=get_profile("nvidia_5070"),
        config=PrismConfig(numerics=False),
        sample_rate=0.5,
    )
    defaults.update(kwargs)
    return SemanticSelectionService(**defaults)


def serve_one(service, batch, k, sample=None):
    """Serve one request as a one-request wave; returns its result."""
    wave = service.serve_requests([SelectionRequest(batch=batch, k=k, sample=sample)])
    return wave.outcomes[0].result


class TestValidation:
    def test_bad_precision_target(self):
        with pytest.raises(ValueError):
            make_service(precision_target=0.0)

    def test_bad_sample_rate(self):
        with pytest.raises(ValueError):
            make_service(sample_rate=1.5)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            make_service(step=0.0)

    def test_bad_threshold_range(self):
        with pytest.raises(ValueError):
            make_service(min_threshold=0.5, max_threshold=0.4)


class TestServing:
    def test_select_returns_results(self, batches):
        service = make_service()
        result = serve_one(service, batches[0], 10)
        assert result.k == 10
        assert service.stats.requests_served == 1

    def test_sampling_follows_rate(self, batches):
        service = make_service(sample_rate=0.5)
        for batch in batches:
            serve_one(service, batch, 10)
        assert service.stats.requests_sampled == 3  # 6 requests × 0.5

    def test_full_sampling(self, batches):
        service = make_service(sample_rate=1.0)
        for batch in batches[:3]:
            serve_one(service, batch, 10)
        assert service.pending_samples == 3

    def test_served_results_match_engine_threshold(self, batches):
        service = make_service()
        a = serve_one(service, batches[0], 10)
        direct = service.engine.start(batches[0], 10).run()
        assert set(a.top_indices.tolist()) == set(direct.top_indices.tolist())

    def test_full_sampling_accumulator_never_drifts(self, batches):
        """sample_rate=1.0 must log *every* request: the accumulator
        hits exactly 1.0 each time and resets to exactly 0.0, with no
        float residue skipping requests over a long serving run."""
        service = make_service(sample_rate=1.0)
        for round_no in range(5):
            for batch in batches:
                serve_one(service, batch, 10)
        assert service.stats.requests_sampled == service.stats.requests_served == 30
        assert service._stride.accumulator == 0.0

    def test_fractional_rate_stride(self, batches):
        service = make_service(sample_rate=0.25)
        for _ in range(2):
            for batch in batches:
                serve_one(service, batch, 10)
        assert service.stats.requests_sampled == 3  # 12 requests x 0.25

    def test_forced_sampling_override(self, batches):
        service = make_service(sample_rate=0.25)
        serve_one(service, batches[0], 10, sample=True)
        serve_one(service, batches[1], 10, sample=False)
        assert service.stats.requests_sampled == 1
        assert service.pending_samples == 1
        # Forced decisions must not consume the deterministic stride.
        assert service._stride.accumulator == 0.0

    def test_apply_threshold_clamps(self):
        service = make_service(min_threshold=0.1, max_threshold=0.5)
        assert service.apply_threshold(0.9) == pytest.approx(0.5)
        assert service.apply_threshold(0.01) == pytest.approx(0.1)
        assert service.apply_threshold(0.3) == pytest.approx(0.3)


class TestIdleMaintenance:
    def test_noop_without_samples(self):
        service = make_service(sample_rate=0.5)
        assert service.idle_maintenance() is None

    def test_lowers_threshold_when_precision_holds(self, batches):
        """Our pruning is near-lossless on Wikipedia pools, so sampled
        precision meets the target and the controller walks down."""
        service = make_service(sample_rate=1.0, precision_target=0.8, step=0.05)
        start = service.threshold
        for batch in batches[:4]:
            serve_one(service, batch, 10)
        report = service.idle_maintenance()
        assert report is not None
        assert report.sampled_precision >= 0.8
        assert report.new_threshold == pytest.approx(start - 0.05)

    def test_raises_threshold_when_precision_falls(self, batches, monkeypatch):
        """Inject a low sampled precision: the controller must back off
        upward (the paper's 'raise for precision' branch)."""
        service = make_service(sample_rate=1.0, precision_target=0.95, step=0.05)
        for batch in batches[:2]:
            serve_one(service, batch, 10)
        monkeypatch.setattr(service, "_sampled_precision", lambda: (2, 0.5))
        start = service.threshold
        report = service.idle_maintenance()
        assert report.new_threshold == pytest.approx(start + 0.05)

    def test_threshold_clamped_at_floor(self, batches):
        service = make_service(
            sample_rate=1.0, precision_target=0.5, step=0.5, min_threshold=0.02
        )
        for _ in range(3):
            serve_one(service, batches[0], 10)
            service.idle_maintenance()
        assert service.threshold == pytest.approx(0.02)

    def test_threshold_clamped_at_ceiling(self, batches, monkeypatch):
        """A persistently failing precision target walks the threshold
        up, but never past max_threshold."""
        service = make_service(
            sample_rate=1.0, precision_target=0.99, step=0.5, max_threshold=0.9
        )
        monkeypatch.setattr(service, "_sampled_precision", lambda: (1, 0.0))
        for _ in range(3):
            serve_one(service, batches[0], 10)
            report = service.idle_maintenance()
        assert service.threshold == pytest.approx(0.9)
        assert report is not None and not report.adjusted  # pinned at the bound

    def test_noop_again_after_samples_consumed(self, batches):
        """A pass clears the log; the next idle pass with nothing new
        sampled must return None rather than re-judging stale data."""
        service = make_service(sample_rate=1.0)
        serve_one(service, batches[0], 10)
        assert service.idle_maintenance() is not None
        assert service.idle_maintenance() is None

    def test_samples_cleared_after_pass(self, batches):
        service = make_service(sample_rate=1.0)
        serve_one(service, batches[0], 10)
        service.idle_maintenance()
        assert service.pending_samples == 0

    def test_history_recorded(self, batches):
        service = make_service(sample_rate=1.0)
        serve_one(service, batches[0], 10)
        service.idle_maintenance()
        assert service.stats.maintenance_passes == 1
        assert len(service.stats.history) == 1

    def test_maintenance_does_not_touch_serving_clock(self, batches):
        """Ground-truth re-execution is idle-time work on shadow
        devices — serving latency must not absorb it."""
        service = make_service(sample_rate=1.0)
        serve_one(service, batches[0], 10)
        before = service.device.clock.now
        service.idle_maintenance()
        assert service.device.clock.now == before


class TestClosedLoop:
    def test_converges_to_aggressive_operation(self, batches):
        """Serving rounds interleaved with idle passes walk the
        threshold down while precision holds, making later requests
        faster than the first ones."""
        service = make_service(sample_rate=1.0, precision_target=0.8, step=0.08)
        first = serve_one(service, batches[0], 10).latency_seconds
        for round_no in range(4):
            for batch in batches:
                serve_one(service, batch, 10)
            service.idle_maintenance()
        last = serve_one(service, batches[0], 10).latency_seconds
        assert service.threshold < PrismConfig().dispersion_threshold
        assert last <= first


class TestOneRequestWave:
    @pytest.mark.parametrize("numerics", [False, True])
    @pytest.mark.parametrize("dataset", ["wikipedia", "fiqa"])
    def test_matches_serve_solo(self, dataset, numerics):
        """A one-request ``serve_requests`` wave is observably the fleet's
        serial ``_serve_solo`` path: same selection, scores, latency,
        device clock, idle-check log and peak memory, request by request."""
        tokenizer = shared_tokenizer(QWEN3_0_6B)
        queries = get_dataset(dataset).queries(6, 16)  # dataset-seeded
        config = PrismConfig(numerics=numerics)
        wave_service = make_service(config=config)
        solo_service = make_service(config=config)
        for query in queries:
            batch = build_batch(query, tokenizer, QWEN3_0_6B.max_seq_len)
            via_wave = serve_one(wave_service, batch, 5)
            via_solo = solo_service._serve_solo(batch, 5)
            np.testing.assert_array_equal(via_wave.top_indices, via_solo.top_indices)
            np.testing.assert_array_equal(via_wave.top_scores, via_solo.top_scores)
            assert via_wave.latency_seconds == via_solo.latency_seconds
            assert wave_service.device.clock.now == solo_service.device.clock.now
            assert wave_service.pending_samples == solo_service.pending_samples
            assert wave_service.device.memory.peak == solo_service.device.memory.peak
        assert wave_service.stats.requests_served == solo_service.stats.requests_served
        assert wave_service.pending_samples > 0  # the stride logged some requests
        for a, b in zip(wave_service._pending_samples, solo_service._pending_samples):
            np.testing.assert_array_equal(a.served_top, b.served_top)
