"""Figure 10 — tuning the latency/precision trade-off per model.

Shapes: latency rises with the dispersion threshold for every model;
precision is non-degrading in the threshold for well-behaved models;
Qwen3-8B shows the paper's inverse trend (over-fitting: the lowest
threshold achieves peak precision because pruning bypasses noisy late
layers).
"""

from conftest import run_once

from repro.harness.experiments import fig10_tradeoff
from repro.model.zoo import PAPER_MODELS


def test_fig10_all_models(benchmark, record_artifact):
    def sweep_all():
        return {
            model.name: fig10_tradeoff(
                model_name=model.name, num_thresholds=5, num_queries=6
            )
            for model in PAPER_MODELS
        }

    results = run_once(benchmark, sweep_all)
    record_artifact(
        "fig10_tradeoff", "\n\n".join(r.render() for r in results.values())
    )

    for name, result in results.items():
        latencies = result.latencies()
        # Latency grows from the aggressive to the conservative end.
        assert latencies[-1] > latencies[0], name
        # Sweep runs over the model's own threshold range.
        thresholds = [p.threshold for p in result.points]
        assert thresholds == sorted(thresholds)

    # Qwen3-8B's modelled over-fitting: the lowest threshold does not
    # lose precision relative to the highest (it can even gain).
    qwen8 = results["qwen3-reranker-8b"]
    assert qwen8.precisions(1)[0] >= qwen8.precisions(1)[-1] - 0.02

    # Well-behaved models keep precision within a tight band across
    # the whole sweep.
    for name in ("qwen3-reranker-0.6b", "bge-reranker-v2-m3"):
        for k in (1, 5, 10):
            ps = results[name].precisions(k)
            assert max(ps) - min(ps) < 0.15, (name, k)
