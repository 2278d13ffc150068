"""Doc-consistency checks: source citations must resolve into the docs.

Module docstrings cite design sections as ``DESIGN.md §N``.  These
tests grep every source file for such references and fail when the
cited section heading is missing from DESIGN.md — so a doc
reorganisation cannot silently strand the citations, and a new
citation cannot point at a section that was never written.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DESIGN_MD = REPO_ROOT / "DESIGN.md"
SRC_ROOT = REPO_ROOT / "src" / "repro"

CITATION = re.compile(r"DESIGN\.md\s+§(\d+)")
HEADING = re.compile(r"^#+\s.*§(\d+)", re.MULTILINE)


def design_sections() -> set[int]:
    return {int(n) for n in HEADING.findall(DESIGN_MD.read_text())}


def source_citations() -> list[tuple[str, int]]:
    citations = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        for number in CITATION.findall(path.read_text()):
            citations.append((str(path.relative_to(REPO_ROOT)), int(number)))
    return citations


def test_design_md_exists_with_numbered_sections():
    assert DESIGN_MD.is_file(), "DESIGN.md is missing from the repo root"
    assert design_sections() >= {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}


def test_scheduler_sources_cite_section_6():
    """The §6 citation net is live: the step-based execution core and
    the device scheduler must anchor their design in DESIGN.md §6."""
    cited_by = {source for source, section in source_citations() if section == 6}
    for module in (
        "src/repro/core/engine.py",
        "src/repro/core/scheduler.py",
    ):
        assert module in cited_by, f"{module} no longer cites DESIGN.md §6"


def test_weight_plane_sources_cite_section_7():
    """The §7 citation net is live: the shared weight plane must anchor
    its refcount/fusion design in DESIGN.md §7."""
    cited_by = {source for source, section in source_citations() if section == 7}
    assert "src/repro/core/streaming.py" in cited_by, (
        "src/repro/core/streaming.py no longer cites DESIGN.md §7"
    )


def test_resilience_sources_cite_section_9():
    """The §9 citation net is live: the fault plane and the resilience
    policy layer must anchor their design in DESIGN.md §9."""
    cited_by = {source for source, section in source_citations() if section == 9}
    for module in (
        "src/repro/core/resilience.py",
        "src/repro/device/faults.py",
    ):
        assert module in cited_by, f"{module} no longer cites DESIGN.md §9"


def test_observability_sources_cite_section_10():
    """The §10 citation net is live: the event log and trace
    record/replay must anchor their design in DESIGN.md §10."""
    cited_by = {source for source, section in source_citations() if section == 10}
    for module in (
        "src/repro/core/events.py",
        "src/repro/core/trace.py",
    ):
        assert module in cited_by, f"{module} no longer cites DESIGN.md §10"


def test_gang_kernel_sources_cite_section_11():
    """The §11 citation net is live: the deferred-numerics pool, the
    fused kernel and the memoized tensor ops must anchor their design
    in DESIGN.md §11."""
    cited_by = {source for source, section in source_citations() if section == 11}
    for module in (
        "src/repro/model/transformer.py",
        "src/repro/model/tensor_ops.py",
    ):
        assert module in cited_by, f"{module} no longer cites DESIGN.md §11"


def test_data_plane_sources_cite_section_12():
    """The §12 citation net is live: the data plane must anchor its
    memoization/coalescing/overlap design in DESIGN.md §12."""
    cited_by = {source for source, section in source_citations() if section == 12}
    assert "src/repro/core/data_plane.py" in cited_by, (
        "src/repro/core/data_plane.py no longer cites DESIGN.md §12"
    )


def test_tenancy_sources_cite_section_13():
    """The §13 citation net is live: the traffic generator and the
    fair-admission plane must anchor their design in DESIGN.md §13."""
    cited_by = {source for source, section in source_citations() if section == 13}
    for module in (
        "src/repro/core/tenancy.py",
        "src/repro/data/traffic.py",
    ):
        assert module in cited_by, f"{module} no longer cites DESIGN.md §13"


def test_telemetry_sources_cite_section_14():
    """The §14 citation net is live: the metrics registry and the live
    progress server must anchor their design in DESIGN.md §14."""
    cited_by = {source for source, section in source_citations() if section == 14}
    for module in (
        "src/repro/core/telemetry.py",
        "src/repro/harness/live.py",
    ):
        assert module in cited_by, f"{module} no longer cites DESIGN.md §14"


def test_sources_cite_design_sections():
    """The citation net is live (a regression that strips every
    citation would make the resolution test below vacuous)."""
    assert len(source_citations()) >= 5


@pytest.mark.parametrize(
    "source,section",
    source_citations() or [("<none>", 0)],
    ids=lambda value: str(value),
)
def test_citation_resolves(source, section):
    if source == "<none>":
        pytest.skip("no citations found (covered by the liveness test)")
    assert section in design_sections(), (
        f"{source} cites DESIGN.md §{section}, but DESIGN.md has no "
        f"heading for §{section} (known: {sorted(design_sections())})"
    )


def test_readme_documents_tier1_verify():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "python -m pytest -x -q" in readme
    assert "PYTHONPATH=src" in readme


def test_serving_docs_cover_all_four_modes():
    serving = (REPO_ROOT / "docs" / "serving.md").read_text()
    for name in (
        "ThresholdCalibrator",
        "SemanticSelectionService",
        "DeviceScheduler",
        "FleetService",
    ):
        assert name in serving, f"docs/serving.md no longer documents {name}"
    for concept in (
        "serve_requests",
        "intra_concurrency",
        "priority",
        "WeightPlane",
        "shared_weights",
        "fusion",
        "max_skew",
    ):
        assert concept in serving, f"docs/serving.md no longer covers {concept}"


def test_serving_docs_cover_resilience_plane():
    """docs/serving.md must document the §9 resilience plane: faults,
    failover, hedging and the autoscaler."""
    serving = (REPO_ROOT / "docs" / "serving.md").read_text()
    assert "Faults, failover and autoscaling" in serving
    for concept in (
        "FaultPlan",
        "FaultEvent",
        "DeviceFault",
        "ResilienceConfig",
        "AutoscalerConfig",
        "hedge_after_ms",
        "failed_over_from",
        "max_retries",
        "scale_up_queue_depth",
        "scaling_events",
    ):
        assert concept in serving, f"docs/serving.md resilience section misses {concept}"


def test_observability_docs_cover_event_plane():
    """docs/observability.md must document the §10 observability plane:
    the event taxonomy, record/replay workflow, CLI and fixtures."""
    doc = (REPO_ROOT / "docs" / "observability.md").read_text()
    for concept in (
        "EventLog",
        "EVENT_KINDS",
        "TERMINAL_KINDS",
        "record_trace",
        "replay_trace",
        "ReplayReport",
        "TraceSpec",
        "event_log=",
        "trace record",
        "trace replay",
        "trace summary",
        "tests/fixtures/traces/",
        "Zero perturbation",  # the no-sink guarantee is named
    ):
        assert concept in doc, f"docs/observability.md no longer covers {concept}"
    # The documented fixture-regeneration command must reference the
    # real CLI entry point.
    assert "repro.harness.cli trace record" in doc


def test_observability_docs_cover_live_telemetry():
    """docs/observability.md must document the §14 live telemetry
    plane: subscriptions, the metrics namespace, the progress server's
    three endpoints, the equivalence contract, and timeline export."""
    doc = (REPO_ROOT / "docs" / "observability.md").read_text()
    assert "Live telemetry" in doc
    for concept in (
        "EventLog.subscribe",
        "TelemetryCollector",
        "MetricsRegistry",
        "fleet_equivalence_report",
        "parse_exposition",
        "repro_requests_shed_total",
        "repro_request_latency_seconds",
        "repro_slo_burn_rate",
        "--live-port",
        "/metrics",
        "/events",
        "/healthz",
        "?replay=1",
        "trace timeline",
        "--follow",
        "Perfetto",
    ):
        assert concept in doc, f"docs/observability.md live section misses {concept}"
    # The README points readers at the live surfaces.
    readme = (REPO_ROOT / "README.md").read_text()
    assert "--live-port" in readme
    assert "trace timeline" in readme


def test_serving_docs_cover_multitenant_plane():
    """docs/serving.md must document the §13 multi-tenant workload
    plane: traffic generation, fair admission and the contract views."""
    serving = (REPO_ROOT / "docs" / "serving.md").read_text()
    assert "Multi-tenant admission" in serving
    for concept in (
        "TrafficConfig",
        "generate_traffic",
        "TenancyConfig",
        "TenantPolicy",
        "tenancy_from_trace",
        "selection_requests_from_trace",
        "rate_limit",
        "queue_limit",
        "starvation-freedom",
        "shed_bound",
        "starved_tenants",
        "shed_bound_violations",
        "traffic generate",
        "traffic summary",
        "BENCH_multitenant.json",
        "--multitenant-fresh",
    ):
        assert concept in serving, f"docs/serving.md multi-tenant section misses {concept}"
    # The README points readers at the study and the traffic CLI.
    readme = (REPO_ROOT / "README.md").read_text()
    assert "cli tenants" in readme
    assert "traffic generate" in readme


def test_performance_docs_cover_hotpath_and_gate():
    """docs/performance.md must document the §11 wall-clock story: the
    microbench scenarios, the artifact fields, the gate's anchor
    normalisation and the injected-slowdown self-test."""
    doc = (REPO_ROOT / "docs" / "performance.md").read_text()
    for concept in (
        "BENCH_hotpath.json",
        "wall_time_s_per_step",
        "batched_vs_sequential_n",
        "solo",
        "sequential_gang_n8",
        "batched_gang_n8",
        "perf_gate.py",
        "--threshold",
        "--min-speedup-n8",
        "--inject-slowdown",
        "BENCH_QUICK",
        "gang_kernels",
        "test_gang_kernels.py",
    ):
        assert concept in doc, f"docs/performance.md no longer covers {concept}"
    # The documented refresh command must reference the real bench.
    assert "pytest -q benchmarks/test_hotpath.py" in doc


def test_performance_docs_cover_data_plane_gate():
    """docs/performance.md must document the §12 cache story: the
    Zipf bench, the artifact's gated fields, and the gate flags."""
    doc = (REPO_ROOT / "docs" / "performance.md").read_text()
    for concept in (
        "BENCH_data_plane.json",
        "speedup_cached",
        "identical_selections",
        "zipf_request_stream",
        "--data-plane-baseline",
        "--data-plane-fresh",
        "--min-cache-speedup",
        "cache_hit",
        "cache_evict",
        "test_data_plane.py",
        "DataPlaneStats",
    ):
        assert concept in doc, f"docs/performance.md no longer covers {concept}"
    assert "pytest -q benchmarks/test_data_plane.py" in doc


def test_readme_points_at_observability_docs():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/observability.md" in readme
    assert "trace record" in readme


def test_readme_points_at_data_plane():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "cli cache" in readme
    assert "DataPlaneStats" in readme
