"""Extension study — resilience under injected faults (DESIGN.md §9).

The fleet is a fair-weather system no longer: a deterministic
``FaultPlan`` crashes replica 0 mid-burst, failover requeues its
in-flight requests onto the survivors (bounded retries, provenance
recorded as ``attempts``/``failed_over_from``), and the queue-depth
autoscaler spawns a replacement replica — paying its warm-up on the
clock — once the halved fleet lets the queue back up.  The acceptance
bar: zero lost requests in every mode, and the autoscaler recovering
at least 80% of the fault-free throughput on the burst+crash scenario.
"""

from conftest import BENCH_QUICK, run_once

from repro.harness.experiments import resilience_serving

NUM_REQUESTS = 12 if BENCH_QUICK else 24
NUM_CANDIDATES = 8 if BENCH_QUICK else 12


def test_autoscaler_recovers_crash_throughput(benchmark, record_artifact, record_metrics):
    result = run_once(
        benchmark,
        resilience_serving,
        num_requests=NUM_REQUESTS,
        num_candidates=NUM_CANDIDATES,
    )
    record_artifact("resilience", result.render())
    record_metrics(
        "resilience",
        {
            "num_requests": NUM_REQUESTS,
            "num_candidates": NUM_CANDIDATES,
            "num_replicas": result.num_replicas,
            "crash_at_s": result.crash_at,
        },
        {
            "modes": {
                point.mode: {
                    "completed": point.completed,
                    "lost": point.lost,
                    "failed": point.failed,
                    "failed_over": point.failed_over,
                    "max_attempts": point.max_attempts,
                    "scale_ups": point.scale_ups,
                    "peak_capacity": point.peak_capacity,
                    "throughput_rps": point.throughput_rps,
                    "recovery": point.recovery,
                    "p99_s": point.p99_latency,
                }
                for point in result.points
            },
        },
    )

    result.find("fault_free")  # the fault-free point must exist
    failover = result.find("crash_failover")
    autoscale = result.find("crash_autoscale")

    # Zero lost requests, in every mode: each submitted request either
    # completes (possibly after failover) or is accounted as failed —
    # and with retries available, none is.
    for point in result.points:
        assert point.lost == 0
        assert point.failed == 0
        assert point.completed == NUM_REQUESTS

    # The crash is real: requests that were in flight (or queued) on
    # the dead replica complete via failover with attempts > 1.
    for point in (failover, autoscale):
        assert point.failed_over > 0
        assert point.max_attempts > 1

    # Failover alone limps: half the fleet serves the rest of the
    # burst, so throughput drops well below the reference ...
    assert failover.recovery < 0.8
    assert failover.scale_ups == 0

    # ... while the autoscaler spawns a replacement and recovers at
    # least 80% of the fault-free throughput (the acceptance bar).
    assert autoscale.scale_ups >= 1
    assert autoscale.peak_capacity > result.num_replicas
    assert autoscale.recovery >= 0.8
