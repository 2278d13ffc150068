"""Hot-path microbench: wall-clock per simulated layer step (DESIGN.md §11).

Unlike every other bench in this directory, the metric here is the
*harness's own* wall-clock, not simulated seconds: the batched gang
kernels change nothing observable inside the simulation (selections,
traces and events are byte-identical — ``tests/test_gang_kernels.py``),
they only collapse N per-member numpy forwards per fused layer crossing
into one stacked forward.  This bench measures that collapse directly —
solo vs sequential-gang vs batched-gang at N ∈ {1, 4, 8} — and records
it to ``benchmarks/results/BENCH_hotpath.json``, the committed baseline
the CI perf-regression gate (``benchmarks/perf_gate.py``) diffs fresh
runs against (see ``docs/performance.md``).

Wall-clock is machine-dependent, so the artifact's absolute numbers are
only comparable within one run; the gate therefore normalises every
scenario by the same run's ``solo`` anchor before comparing runs.

The batched-kernel speedup is estimated from *paired* rounds: each
round times the sequential and the batched gang of one size back to
back, so both see the same machine load, and the bench reports the
median of the per-round ratios.  A ratio of per-scenario minima pairs
two samples taken minutes apart, and one lucky sequential minimum or
one unlucky batched one moves it.
"""

import statistics
import time

from conftest import BENCH_QUICK, run_once

from repro.harness.reporting import format_table

from repro.core.config import PrismConfig
from repro.core.engine import PrismEngine
from repro.core.scheduler import DeviceScheduler, SchedulerConfig
from repro.data.datasets import get_dataset
from repro.data.workloads import build_batch
from repro.device.platforms import get_profile
from repro.harness.runner import shared_model, shared_tokenizer
from repro.model.zoo import QWEN3_0_6B

#: Candidates per gang member.
NUM_CANDIDATES = 8
#: Timed rounds; each round times every scenario once.  The best
#: (minimum) wall per scenario is recorded; speedups are the median of
#: the rounds' paired sequential/batched ratios.
REPEATS = 3 if BENCH_QUICK else 7
#: (scenario name, gang size, batched kernels?)
SCENARIOS = (
    ("solo", 1, True),
    ("sequential_gang_n4", 4, False),
    ("batched_gang_n4", 4, True),
    ("sequential_gang_n8", 8, False),
    ("batched_gang_n8", 8, True),
)


def _batches(n):
    queries = get_dataset("wikipedia").queries(n, NUM_CANDIDATES)
    tokenizer = shared_tokenizer(QWEN3_0_6B)
    return [build_batch(query, tokenizer, QWEN3_0_6B.max_seq_len) for query in queries]


def _wall_time_per_step(gang_size: int, gang_kernels: bool) -> float:
    """One timed fused-gang drain → harness seconds per executed step.

    Pruning is disabled so every member crosses every layer: the bench
    measures the steady-state layer loop, not the (workload-dependent)
    early-termination depth.  Setup (engine prepare, batch building)
    happens outside the timed window.
    """
    device = get_profile("nvidia_5070").create()
    engine = PrismEngine(
        shared_model(QWEN3_0_6B), device, PrismConfig(pruning_enabled=False)
    )
    engine.prepare()
    engine.gang_kernels = gang_kernels
    scheduler = DeviceScheduler(
        engine, SchedulerConfig(policy="fusion", max_concurrency=gang_size)
    )
    now = device.clock.now
    for batch in _batches(gang_size):
        scheduler.submit_request(batch, k=3, arrival=now)
    t0 = time.perf_counter()
    scheduler.drain()
    wall = time.perf_counter() - t0
    return wall / len(scheduler.trace)


def _measure_all() -> dict[str, list[float]]:
    """REPEATS rounds of every scenario, measured round-robin.

    Interleaving the scenarios across rounds (A B C, A B C, ...)
    decorrelates slow machine-load drift from the scenario axis, and
    :data:`SCENARIOS` lists each gang size's sequential and batched
    runs next to each other, so one round's pair is timed back to back.
    Returns each scenario's per-round samples, in round order.
    """
    samples: dict[str, list[float]] = {name: [] for name, _, _ in SCENARIOS}
    for _ in range(REPEATS):
        for name, size, batched in SCENARIOS:
            samples[name].append(_wall_time_per_step(size, batched))
    return samples


def _paired_speedup(samples: dict[str, list[float]], size: int) -> float:
    """Median over rounds of sequential / batched wall at one gang size."""
    return statistics.median(
        sequential / batched
        for sequential, batched in zip(
            samples[f"sequential_gang_n{size}"], samples[f"batched_gang_n{size}"]
        )
    )


def test_batched_gang_kernels_cut_wall_clock(benchmark, record_artifact, record_metrics):
    samples = run_once(benchmark, _measure_all)
    wall = {name: min(times) for name, times in samples.items()}
    speedup_n4 = _paired_speedup(samples, 4)
    speedup_n8 = _paired_speedup(samples, 8)
    speedup = {
        "solo": 1.0,
        "sequential_gang_n4": 1.0,
        "batched_gang_n4": speedup_n4,
        "sequential_gang_n8": 1.0,
        "batched_gang_n8": speedup_n8,
    }
    record_artifact(
        "hotpath",
        format_table(
            ("scenario", "gang", "kernels", "wall/step", "vs sequential"),
            [
                (
                    name,
                    size,
                    "batched" if batched else "sequential",
                    f"{wall[name] * 1e6:.1f}us",
                    f"{speedup[name]:.2f}x",
                )
                for name, size, batched in SCENARIOS
            ],
            title=(
                "Hot-path microbench: harness wall-clock per simulated layer step "
                f"(qwen3-0.6b, nvidia_5070, {NUM_CANDIDATES} candidates/member, "
                f"best of {REPEATS}; speedup: median of {REPEATS} paired rounds)"
            ),
        ),
    )
    record_metrics(
        "hotpath",
        {
            "num_candidates": NUM_CANDIDATES,
            "repeats": REPEATS,
            "model": "qwen3-0.6b",
            "engine": "prism",
        },
        {
            "wall_time_s_per_step": wall,
            "speedup": {
                "batched_vs_sequential_n4": speedup_n4,
                "batched_vs_sequential_n8": speedup_n8,
            },
        },
    )

    # Acceptance bar: one fused forward per layer crossing cuts
    # wall-clock per simulated step by >= 2x for an N=8 gang, on the
    # median paired ratio.  The quick-mode bar is lower because smoke
    # runs take 3 rounds on loaded CI workers.
    assert speedup_n8 >= (1.5 if BENCH_QUICK else 2.0), (
        f"batched N=8 gang speedup {speedup_n8:.2f}x below bar "
        f"(per-step wall: {wall})"
    )
    # Batching should help at N=4 too, and never hurt.
    assert speedup_n4 >= 1.2, f"batched N=4 gang speedup {speedup_n4:.2f}x"
    # Sanity: a sequential gang's per-step cost tracks the solo cost —
    # the win comes from batching, not from the gang itself.
    assert wall["sequential_gang_n8"] >= wall["batched_gang_n8"]
