"""Edge-case and scalability tests across the engine stack."""

import numpy as np
import pytest

from repro.core.config import PrismConfig
from repro.core.engine import PrismEngine
from repro.data.datasets import get_dataset
from repro.device.platforms import get_profile
from repro.harness.runner import run_system, shared_model, shared_tokenizer
from repro.model.transformer import CandidateBatch
from repro.model.zoo import QWEN3_0_6B


def make_batch(num_candidates, seed_base=0, relevance=None, length=200):
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    rng = np.random.default_rng(seed_base)
    query = tokenizer.encode_synthetic(seed_base + 1, 12)
    docs = [tokenizer.encode_synthetic(seed_base + 10 + i, length) for i in range(num_candidates)]
    tokens = tokenizer.batch_pairs(query, docs, QWEN3_0_6B.max_seq_len)
    if relevance is None:
        relevance = rng.uniform(0.05, 0.95, num_candidates)
    return CandidateBatch(
        tokens=tokens,
        lengths=tokenizer.attention_lengths(tokens),
        relevance=np.asarray(relevance, dtype=np.float64),
        uids=rng.integers(0, 2**31, num_candidates),
    )


def make_engine(config=None):
    device = get_profile("nvidia_5070").create()
    engine = PrismEngine(
        shared_model(QWEN3_0_6B), device, config or PrismConfig(numerics=False)
    )
    engine.prepare()
    return engine


class TestDegeneratePools:
    def test_single_candidate_pool(self):
        result = make_engine().start(make_batch(1), 1).run()
        assert result.top_indices.tolist() == [0]

    def test_k_equals_pool_size(self):
        result = make_engine().start(make_batch(5), 5).run()
        assert sorted(result.top_indices.tolist()) == list(range(5))

    def test_two_candidates_top_one(self):
        batch = make_batch(2, relevance=[0.9, 0.1])
        result = make_engine().start(batch, 1).run()
        assert result.top_indices.tolist() == [0]

    def test_identical_relevance_pool(self):
        """All candidates equally relevant: no crash, K returned, and
        no pruning should trigger (no distinct clusters exist)."""
        batch = make_batch(12, relevance=[0.5] * 12)
        result = make_engine().start(batch, 4).run()
        assert result.k == 4
        for event in result.prune_events:
            # Any event must still partition correctly.
            assert event.num_selected + event.num_dropped + event.num_deferred == 12

    def test_extreme_bimodal_pool(self):
        """Half clearly relevant, half clearly not, K = the split point:
        the easiest possible pruning case — should terminate early."""
        batch = make_batch(16, relevance=[0.9] * 8 + [0.1] * 8)
        result = make_engine().start(batch, 8).run()
        assert result.terminated_early
        assert set(result.top_indices.tolist()) == set(range(8))

    def test_sequential_requests_share_engine(self):
        engine = make_engine()
        first = engine.start(make_batch(10, seed_base=1), 5).run()
        second = engine.start(make_batch(10, seed_base=2), 5).run()
        assert first.k == second.k == 5
        # Memory returns to baseline between requests.
        stats = engine.device.memory.stats()
        assert stats.final_bytes < stats.peak_bytes


class TestMassiveCandidatePools:
    """§4.3's scalability claim: hidden-state offloading bounds memory
    as the candidate count grows."""

    def test_200_candidates_bounded_hidden_memory(self):
        config = PrismConfig(numerics=False, hidden_offload="auto")
        engine = make_engine(config)
        result = engine.start(make_batch(200, length=450), 10).run()
        assert result.k == 10
        hidden_peak = engine.device.memory.stats().peak_by_category.get("hidden", 0)
        assert hidden_peak <= config.hidden_memory_budget * 1.1

    def test_peak_sublinear_in_candidates(self):
        """Peak memory grows far slower than the candidate count."""
        peaks = {}
        for n in (40, 200):
            engine = make_engine(PrismConfig(numerics=False))
            engine.start(make_batch(n, length=450), 10).run()
            peaks[n] = engine.device.memory.stats().peak_bytes
        assert peaks[200] < 2.2 * peaks[40]

    def test_latency_scales_roughly_linearly_before_pruning(self):
        latencies = {}
        for n in (25, 100):
            engine = make_engine(PrismConfig(numerics=False, pruning_enabled=False))
            latencies[n] = engine.start(make_batch(n, length=450), 10).run().latency_seconds
        ratio = latencies[100] / latencies[25]
        assert 3.0 < ratio < 5.0

    def test_offload_writes_and_reads_hidden_states(self):
        config = PrismConfig(numerics=False, hidden_offload="on")
        engine = make_engine(config)
        engine.start(make_batch(60, length=450), 10).run()
        ssd = engine.device.ssd
        hidden_writes = [r for r in ssd.request_log if "hidden-ring/write" in r.tag]
        hidden_reads = [r for r in ssd.request_log if "hidden-ring/read" in r.tag]
        assert hidden_writes and hidden_reads


class TestConfigurationMatrix:
    """Every combination of the four technique flags must produce the
    same top-K — the techniques are resource policies, not score
    policies."""

    @pytest.mark.parametrize("pruning", [False, True])
    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("streaming", [False, True])
    @pytest.mark.parametrize("cache", [False, True])
    def test_topk_invariant_under_technique_flags(
        self, pruning, chunked, streaming, cache
    ):
        batch = make_batch(12, seed_base=7, relevance=[0.9] * 3 + [0.5] * 4 + [0.1] * 5)
        config = PrismConfig(
            pruning_enabled=pruning,
            chunked_execution=chunked,
            layer_streaming=streaming,
            embedding_cache=cache,
            numerics=False,
        )
        result = make_engine(config).start(batch, 3).run()
        assert set(result.top_indices.tolist()) == {0, 1, 2}


class TestPlatformEdgeCases:
    def test_a800_runs_everything_in_memory_quickly(self):
        queries = get_dataset("wikipedia").queries(2, 20)
        edge = run_system("hf", QWEN3_0_6B, "nvidia_5070", queries, 10)
        dc = run_system("hf", QWEN3_0_6B, "nvidia_a800", queries, 10)
        assert dc.mean_latency < edge.mean_latency

    def test_batch_larger_than_minibatch_on_tiny_pool(self):
        """HF's fixed mini-batch handles pools smaller than the batch."""
        from repro.baselines import HFEngine

        device = get_profile("nvidia_5070").create()
        engine = HFEngine(shared_model(QWEN3_0_6B), device, batch_size=16, numerics=False)
        engine.prepare()
        result = engine.start(make_batch(3), 2).run()
        assert result.k == 2

    def test_long_documents_clamped_to_max_seq_len(self):
        batch = make_batch(4, length=2000)
        assert (batch.lengths <= QWEN3_0_6B.max_seq_len).all()
        result = make_engine().start(batch, 2).run()
        assert result.k == 2
