"""Derived metrics registry over the live event stream (DESIGN.md §14).

The §10 event log is the single source of truth for everything the
fleet does; this module derives *live* observables from it — and from
nothing else.  A :class:`TelemetryCollector` consumes events (usually
through a bounded :class:`~repro.core.events.EventSubscription`) and
populates a :class:`MetricsRegistry` of counters, gauges and
fixed-bucket histograms; the registry renders to Prometheus text
exposition for scraping (:mod:`repro.harness.live`).

Because every metric is a pure fold over the tagged event stream, live
values can never disagree with the replayable log: at drain, the
registry's counts, shed-reason breakdowns and per-tenant latency
percentiles equal the post-hoc
:class:`~repro.core.fleet.FleetStats` *exactly* —
:func:`fleet_equivalence_report` states the contract and
``tests/test_telemetry.py`` pins it.  Histograms therefore retain
their raw samples (exact ``numpy`` percentiles, the FleetStats
estimator) alongside the fixed buckets used for exposition and for
the cheap in-terminal quantile estimates (`cli live`).

The collector maps the full event taxonomy
(:data:`~repro.core.events.EVENT_KINDS`) to a stable metric namespace
(``repro_*``, table in ``docs/observability.md``): request lifecycle
counters per tier, sheds by reason, cache hits by mode, fused-gang
occupancy, per-tenant and per-SLO-class latency, token debt at shed
instants, and SLO burn-rate monitors (observed shed rate over the
class's shed bound — a burn rate above 1.0 means the §13 contract is
being violated right now).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from .events import (
    SERVING_TIERS,
    Event,
    EventLog,
    EventSubscription,
)
from .tenancy import SLO_CLASSES

#: Prometheus metric-name / label-name grammar.
_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds) — tuned to the simulator's
#: virtual-second scale, from sub-millisecond steps to minute-long
#: batch passes.
DEFAULT_LATENCY_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_suffix(labelnames: tuple[str, ...], labelvalues: tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + inner + "}"


class MetricFamily:
    """Shared machinery: one named family, one child per label tuple."""

    type_name = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> None:
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], Any] = {}

    def labels(self, *labelvalues: Any, **labelkw: Any):
        """The child for one label-value tuple (created on first use)."""
        if labelkw:
            if labelvalues:
                raise ValueError("pass label values positionally or by name, not both")
            labelvalues = tuple(labelkw[name] for name in self.labelnames)
        values = tuple("" if v is None else str(v) for v in labelvalues)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {values!r}"
            )
        child = self._children.get(values)
        if child is None:
            child = self._make_child()
            self._children[values] = child
        return child

    def _make_child(self):  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def children(self) -> dict[tuple[str, ...], Any]:
        return self._children

    # -- exposition -----------------------------------------------------
    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.type_name}",
        ]
        for labelvalues in sorted(self._children):
            lines.extend(self._render_child(labelvalues, self._children[labelvalues]))
        return lines

    def _render_child(self, labelvalues, child) -> list[str]:  # pragma: no cover
        raise NotImplementedError


class _CounterValue:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Counter(MetricFamily):
    """Monotone counter family (``*_total`` by convention)."""

    type_name = "counter"

    def _make_child(self) -> _CounterValue:
        return _CounterValue()

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def value(self, *labelvalues: Any) -> float:
        values = tuple("" if v is None else str(v) for v in labelvalues)
        child = self._children.get(values)
        return 0.0 if child is None else child.value

    def total(self) -> float:
        return sum(child.value for child in self._children.values())

    def _render_child(self, labelvalues, child) -> list[str]:
        suffix = _labels_suffix(self.labelnames, labelvalues)
        return [f"{self.name}{suffix} {_format_value(child.value)}"]


class _GaugeValue:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge(MetricFamily):
    """Last-written value family (queue depths, occupancy, debt)."""

    type_name = "gauge"

    def _make_child(self) -> _GaugeValue:
        return _GaugeValue()

    def set(self, value: float) -> None:
        self.labels().set(value)

    def value(self, *labelvalues: Any) -> float:
        values = tuple("" if v is None else str(v) for v in labelvalues)
        child = self._children.get(values)
        return 0.0 if child is None else child.value

    def _render_child(self, labelvalues, child) -> list[str]:
        suffix = _labels_suffix(self.labelnames, labelvalues)
        return [f"{self.name}{suffix} {_format_value(child.value)}"]


class HistogramValue:
    """One histogram child: fixed cumulative buckets + raw samples.

    The buckets serve the Prometheus exposition and the cheap
    :meth:`estimate_quantile`; the retained samples serve
    :meth:`quantile`, the *exact* ``numpy`` percentile FleetStats uses
    — which is what makes the live-vs-post-hoc equivalence contract an
    equality instead of an approximation.
    """

    __slots__ = ("bounds", "bucket_counts", "total", "count", "samples")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +Inf bucket last
        self.total = 0.0
        self.count = 0
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        self.samples.append(value)

    def quantile(self, p: float) -> float | None:
        """Exact percentile over the raw samples (the FleetStats
        estimator); ``None`` for an empty histogram."""
        if not self.samples:
            return None
        return float(np.percentile(self.samples, p))

    def estimate_quantile(self, p: float) -> float | None:
        """Bucket-interpolated percentile (no samples needed) — what a
        scraper can reconstruct from the exposition alone."""
        if self.count == 0:
            return None
        return estimate_quantile_from_buckets(
            self.cumulative_buckets(), self.count, p
        )

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le, cumulative count)`` pairs, ending with ``+Inf``."""
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.bucket_counts):
            running += count
            pairs.append((bound, running))
        pairs.append((float("inf"), self.count))
        return pairs


def estimate_quantile_from_buckets(
    cumulative: list[tuple[float, int]], count: int, p: float
) -> float | None:
    """Linear interpolation inside the bucket holding the p-th sample."""
    if count == 0:
        return None
    rank = (p / 100.0) * count
    previous_bound = 0.0
    previous_cum = 0
    for bound, cum in cumulative:
        if cum >= rank:
            if bound == float("inf"):
                return previous_bound  # open-ended tail: best lower bound
            if cum == previous_cum:
                return bound
            fraction = (rank - previous_cum) / (cum - previous_cum)
            return previous_bound + fraction * (bound - previous_bound)
        previous_bound = bound
        previous_cum = cum
    return previous_bound


class Histogram(MetricFamily):
    """Fixed-bucket histogram family with exact-quantile retention."""

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly increasing")
        if bounds[-1] == float("inf"):
            bounds = bounds[:-1]  # +Inf is implicit
        self.bounds = bounds

    def _make_child(self) -> HistogramValue:
        return HistogramValue(self.bounds)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def merged_samples(self, *prefix: Any) -> list[float]:
        """Raw samples across children whose labels start with ``prefix``
        (emission order within a child; order is irrelevant to the
        percentile estimator)."""
        wanted = tuple("" if v is None else str(v) for v in prefix)
        merged: list[float] = []
        for labelvalues, child in self._children.items():
            if labelvalues[: len(wanted)] == wanted:
                merged.extend(child.samples)
        return merged

    def quantile(self, p: float, *prefix: Any) -> float | None:
        samples = self.merged_samples(*prefix)
        if not samples:
            return None
        return float(np.percentile(samples, p))

    def _render_child(self, labelvalues, child: HistogramValue) -> list[str]:
        lines = []
        for bound, cum in child.cumulative_buckets():
            values = labelvalues + (_format_value(bound),)
            suffix = _labels_suffix(self.labelnames + ("le",), values)
            lines.append(f"{self.name}_bucket{suffix} {cum}")
        suffix = _labels_suffix(self.labelnames, labelvalues)
        lines.append(f"{self.name}_sum{suffix} {_format_value(child.total)}")
        lines.append(f"{self.name}_count{suffix} {child.count}")
        return lines


class MetricsRegistry:
    """A named set of metric families rendering to one exposition.

    Thread-safety: mutation happens under :attr:`lock` when driven by
    :class:`TelemetryCollector`; :meth:`render` takes the same lock, so
    a scrape racing the pump sees a consistent snapshot.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self.lock = threading.Lock()

    def register(self, family: MetricFamily) -> MetricFamily:
        if family.name in self._families:
            raise ValueError(f"duplicate metric family {family.name!r}")
        self._families[family.name] = family
        return family

    def counter(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> Counter:
        return self.register(Counter(name, help, labelnames))  # type: ignore[return-value]

    def gauge(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> Gauge:
        return self.register(Gauge(name, help, labelnames))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self.register(Histogram(name, help, labelnames, buckets))  # type: ignore[return-value]

    def get(self, name: str) -> MetricFamily | None:
        return self._families.get(name)

    @property
    def families(self) -> dict[str, MetricFamily]:
        return self._families

    def render(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        with self.lock:
            lines: list[str] = []
            for name in sorted(self._families):
                lines.extend(self._families[name].render())
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# exposition parsing (cli live, tests)
# ---------------------------------------------------------------------------
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse Prometheus text back into ``name → [(labels, value)]``.

    The inverse of :meth:`MetricsRegistry.render`, used by the
    ``cli live`` dashboard and the exposition-grammar tests; raises
    ``ValueError`` on a malformed sample line.
    """
    samples: dict[str, list[tuple[dict[str, str], float]]] = {}
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {line!r}")
        labels = {
            name: value.replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\")
            for name, value in _LABEL_PAIR.findall(match.group("labels") or "")
        }
        raw = match.group("value")
        value = float("inf") if raw == "+Inf" else float(raw)
        samples.setdefault(match.group("name"), []).append((labels, value))
    return samples


# ---------------------------------------------------------------------------
# the event → metrics mapping (DESIGN.md §14)
# ---------------------------------------------------------------------------
@dataclass
class _ClassBurn:
    """Per-SLO-class shed accounting behind the burn-rate gauge."""

    submitted: int = 0
    shed: int = 0


def slo_lookup(tenancy) -> Callable[[str | None], str]:
    """Tenant → SLO-class-name mapping from a
    :class:`~repro.core.tenancy.TenancyConfig` (``policy_for``)."""

    def lookup(tenant: str | None) -> str:
        return tenancy.policy_for(tenant).slo

    return lookup


class TelemetryCollector:
    """Folds the §10 event stream into a :class:`MetricsRegistry`.

    The collector is populated *only* through :meth:`observe` /
    :meth:`consume` — there is no side channel from the serving stack,
    which is precisely why the equivalence contract against post-hoc
    FleetStats is meaningful: both are folds over the same tagged
    stream.

    Parameters
    ----------
    registry:
        Registry to populate (a fresh one by default).
    slo_of:
        Optional tenant → SLO-class-name mapping (see
        :func:`slo_lookup`); without it tenants fall into the
        ``"unknown"`` class and no burn rate is derived.
    tenant_tier:
        The serving tier whose events drive tenant-level metrics
        (default ``"fleet"`` — the tier that owns multi-tenant
        admission; a device-only run passes ``"device"``).  Inner
        tiers re-announce the same request per replica, so folding
        every tier into the tenant rollup would double-count.
    latency_buckets:
        Bucket bounds for the latency histograms.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        slo_of: Callable[[str | None], str] | None = None,
        tenant_tier: str = "fleet",
        latency_buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if tenant_tier not in SERVING_TIERS:
            known = ", ".join(SERVING_TIERS)
            raise ValueError(f"unknown tenant tier {tenant_tier!r}; known: {known}")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.slo_of = slo_of
        self.tenant_tier = tenant_tier
        self.events_seen = 0
        self._arrivals: dict[tuple[str, int | None, str | int | None], float] = {}
        self._burn: dict[str, _ClassBurn] = {}
        r = self.registry
        self.events_total = r.counter(
            "repro_events_total", "Events observed, by kind and tier.", ("kind", "tier")
        )
        self.admitted = r.counter(
            "repro_requests_admitted_total", "Requests admitted per serving tier.", ("tier",)
        )
        self.completed = r.counter(
            "repro_requests_completed_total", "Requests completed per serving tier.", ("tier",)
        )
        self.shed = r.counter(
            "repro_requests_shed_total",
            "Requests shed at admission, by tier and reason.",
            ("tier", "reason"),
        )
        self.cancelled = r.counter(
            "repro_requests_cancelled_total", "Requests cancelled per tier.", ("tier",)
        )
        self.failed = r.counter(
            "repro_requests_failed_total",
            "Requests failed per tier, by fault kind.",
            ("tier", "fault"),
        )
        self.latency = r.histogram(
            "repro_request_latency_seconds",
            "End-to-end latency of completed requests, by tier and SLO class.",
            ("tier", "slo"),
            buckets=latency_buckets,
        )
        self.queue_depth = r.gauge(
            "repro_queue_depth", "Dispatch-queue depth after the last queue event.", ("tier",)
        )
        self.fused_occupancy = r.gauge(
            "repro_fused_occupancy", "Size of the most recent fused gang.", ("tier",)
        )
        self.fused_joins = r.counter(
            "repro_fused_joins_total", "Requests that joined a fused gang.", ("tier",)
        )
        self.steps = r.counter(
            "repro_steps_total", "Layer steps executed, by tier.", ("tier",)
        )
        self.fetches = r.counter(
            "repro_ssd_fetches_total", "SSD transfers issued, by tier.", ("tier",)
        )
        self.fetched_bytes = r.counter(
            "repro_ssd_fetched_bytes_total", "Bytes moved by SSD transfers.", ("tier",)
        )
        self.plane_ops = r.counter(
            "repro_plane_ops_total",
            "Weight-plane operations (attach / acquire / release).",
            ("op",),
        )
        self.cache_hits = r.counter(
            "repro_cache_hits_total",
            "Data-plane hits by mode (memo / coalesced / overlap).",
            ("tier", "mode"),
        )
        self.cache_evictions = r.counter(
            "repro_cache_evictions_total",
            "Data-plane evictions/invalidations, by scope and reason.",
            ("scope", "reason"),
        )
        self.faults = r.counter(
            "repro_faults_total", "Injected device faults fired, by kind.", ("kind",)
        )
        self.failovers = r.counter(
            "repro_failovers_total", "Faulted requests requeued onto healthy replicas."
        )
        self.hedges = r.counter(
            "repro_hedges_total", "Straggler hedges launched, by race outcome.", ("outcome",)
        )
        self.scale_actions = r.counter(
            "repro_scale_actions_total", "Autoscaler capacity changes, by action.", ("action",)
        )
        self.tenant_completed = r.counter(
            "repro_tenant_completed_total", "Completed requests per tenant.", ("tenant",)
        )
        self.tenant_shed = r.counter(
            "repro_tenant_shed_total", "Shed requests per tenant, by reason.", ("tenant", "reason")
        )
        self.tenant_latency = r.histogram(
            "repro_tenant_latency_seconds",
            "End-to-end latency of completed requests, per tenant.",
            ("tenant",),
            buckets=latency_buckets,
        )
        self.tenant_token_debt = r.gauge(
            "repro_tenant_token_debt",
            "Token-bucket debt observed at the tenant's last rate-limit shed.",
            ("tenant",),
        )
        self.slo_burn_rate = r.gauge(
            "repro_slo_burn_rate",
            "Observed shed rate over the class shed bound (>1 = SLO burning).",
            ("slo",),
        )

    # ------------------------------------------------------------------
    def attach(self, log: EventLog, capacity: int = 65536) -> EventSubscription:
        """Subscribe to a log with a collector-sized queue."""
        return log.subscribe(capacity=capacity)

    def consume(self, subscription: EventSubscription, limit: int | None = None) -> int:
        """Drain a subscription into the registry; returns events folded."""
        events = subscription.poll(limit)
        with self.registry.lock:
            for event in events:
                self._observe_locked(event)
        return len(events)

    def observe(self, event: Event) -> None:
        """Fold one event into the registry."""
        with self.registry.lock:
            self._observe_locked(event)

    def observe_all(self, events: Iterable[Event]) -> int:
        count = 0
        with self.registry.lock:
            for event in events:
                self._observe_locked(event)
                count += 1
        return count

    # ------------------------------------------------------------------
    def _slo_of(self, tenant: str | None) -> str:
        if self.slo_of is None:
            return "unknown"
        return self.slo_of(tenant)

    def _request_key(self, event: Event) -> tuple[str, int | None, str | int | None]:
        # Fleet lifecycle events ride the coordinator clock (the admit
        # names no replica, the complete names the serving one), so the
        # request alone keys the pairing; inner tiers pair within their
        # replica's own axis — the summarize_events convention.
        if event.tier == "fleet":
            return (event.tier, None, event.request)
        return (event.tier, event.replica, event.request)

    def _observe_locked(self, event: Event) -> None:
        self.events_seen += 1
        self.events_total.labels(event.kind, event.tier).inc()
        kind, tier, data = event.kind, event.tier, event.data
        serving = tier in SERVING_TIERS
        tenant_scope = tier == self.tenant_tier
        if kind == "admit":
            if serving:
                self.admitted.labels(tier).inc()
                self._arrivals[self._request_key(event)] = float(
                    data.get("arrival", event.at)
                )
                if tenant_scope:
                    self._burn.setdefault(self._slo_of(event.tenant), _ClassBurn()).submitted += 1
                    self._refresh_burn(self._slo_of(event.tenant))
        elif kind == "complete":
            if serving:
                self.completed.labels(tier).inc()
                latency = data.get("latency")
                if latency is None:
                    arrival = self._arrivals.pop(self._request_key(event), None)
                    if arrival is not None:
                        latency = event.at - arrival
                else:
                    self._arrivals.pop(self._request_key(event), None)
                    latency = float(latency)
                if latency is not None:
                    self.latency.labels(tier, self._slo_of(event.tenant)).observe(latency)
                    if tenant_scope:
                        self.tenant_completed.labels(event.tenant).inc()
                        self.tenant_latency.labels(event.tenant).observe(latency)
                elif tenant_scope:
                    self.tenant_completed.labels(event.tenant).inc()
        elif kind == "shed":
            if serving:
                reason = str(data.get("detail") or "deadline")
                self.shed.labels(tier, reason).inc()
                self._arrivals.pop(self._request_key(event), None)
                if tenant_scope:
                    self.tenant_shed.labels(event.tenant, reason).inc()
                    slo = self._slo_of(event.tenant)
                    self._burn.setdefault(slo, _ClassBurn()).shed += 1
                    self._refresh_burn(slo)
                    if "debt" in data:
                        self.tenant_token_debt.labels(event.tenant).set(float(data["debt"]))
        elif kind == "cancel":
            if serving:
                self.cancelled.labels(tier).inc()
                self._arrivals.pop(self._request_key(event), None)
        elif kind == "fail":
            if serving:
                self.failed.labels(tier, str(data.get("detail") or "unknown")).inc()
                self._arrivals.pop(self._request_key(event), None)
        elif kind == "queue":
            self.queue_depth.labels(tier).set(float(data.get("depth", 0)))
        elif kind == "fuse":
            self.fused_joins.labels(tier).inc()
            self.fused_occupancy.labels(tier).set(float(data.get("group_size", 0)))
        elif kind == "step":
            self.steps.labels(tier).inc()
        elif kind == "fetch":
            self.fetches.labels(tier).inc()
            self.fetched_bytes.labels(tier).inc(float(data.get("nbytes", 0)))
        elif kind in ("attach", "acquire", "release"):
            self.plane_ops.labels(kind).inc()
        elif kind == "cache_hit":
            self.cache_hits.labels(tier, str(data.get("mode", "memo"))).inc()
        elif kind == "cache_evict":
            self.cache_evictions.labels(
                str(data.get("scope", "memo")), str(data.get("reason", "lru"))
            ).inc()
        elif kind == "fault":
            self.faults.labels(str(data.get("fault", "unknown"))).inc()
        elif kind == "failover":
            self.failovers.inc()
        elif kind == "hedge":
            self.hedges.labels("won" if data.get("won") else "lost").inc()
        elif kind == "scale":
            self.scale_actions.labels(str(data.get("action", "unknown"))).inc()
        # "dispatch" and trace-tier admits carry no derived metric
        # beyond repro_events_total.

    def _refresh_burn(self, slo: str) -> None:
        burn = self._burn.get(slo)
        if burn is None or burn.submitted == 0:
            return
        slo_class = SLO_CLASSES.get(slo)
        if slo_class is None or slo_class.shed_bound == 0:
            return
        rate = burn.shed / burn.submitted
        self.slo_burn_rate.labels(slo).set(rate / slo_class.shed_bound)


# ---------------------------------------------------------------------------
# the live-vs-post-hoc equivalence contract
# ---------------------------------------------------------------------------
def _mismatch(name: str, live: Any, post: Any) -> str:
    return f"{name}: live={live!r} post-hoc={post!r}"


def _close_or_equal(live: float | None, post: float | None) -> bool:
    if live is None or post is None:
        return live is None and post is None
    return live == post


def fleet_equivalence_report(
    collector: TelemetryCollector,
    stats,
    dropped: Iterable | None = None,
) -> list[str]:
    """Mismatches between live registry values and post-hoc FleetStats.

    Empty list = the §14 contract holds: counts, shed reasons,
    per-tenant p50/p99 and cache hits derived live from the event
    stream are *exactly* equal to what
    :meth:`~repro.core.fleet.FleetService.stats` aggregates after the
    fact.  ``dropped`` (the fleet's
    :attr:`~repro.core.fleet.FleetService.dropped_requests`) extends
    the check to per-reason drop counts.
    """
    report: list[str] = []
    completed = collector.completed.value("fleet")
    if completed != len(stats.outcomes):
        report.append(_mismatch("completed", completed, len(stats.outcomes)))
    failed = sum(
        child.value
        for labels, child in collector.failed.children.items()
        if labels[0] == "fleet"
    )
    if failed != stats.failed_requests:
        report.append(_mismatch("failed", failed, stats.failed_requests))
    failovers = collector.failovers.value()
    if failovers != stats.failovers:
        report.append(_mismatch("failovers", failovers, stats.failovers))
    hedges = collector.hedges.total()
    if hedges != stats.hedges_launched:
        report.append(_mismatch("hedges_launched", hedges, stats.hedges_launched))
    hedges_won = collector.hedges.value("won")
    if hedges_won != stats.hedges_won:
        report.append(_mismatch("hedges_won", hedges_won, stats.hedges_won))
    scale_actions = collector.scale_actions.total()
    if scale_actions != len(stats.scaling_events):
        report.append(
            _mismatch("scale_actions", scale_actions, len(stats.scaling_events))
        )
    for p, post in (
        (50, stats.p50_latency),
        (95, stats.p95_latency),
        (99, stats.p99_latency),
    ):
        live = collector.latency.quantile(p, "fleet")
        if not _close_or_equal(live, post):
            report.append(_mismatch(f"p{p}_latency", live, post))
    if dropped is not None:
        by_reason: dict[str, int] = {}
        for drop in dropped:
            by_reason[drop.reason] = by_reason.get(drop.reason, 0) + 1
        live_shed = sum(
            child.value
            for labels, child in collector.shed.children.items()
            if labels[0] == "fleet"
        )
        if live_shed != by_reason.get("shed", 0):
            report.append(_mismatch("shed", live_shed, by_reason.get("shed", 0)))
        live_cancelled = collector.cancelled.value("fleet")
        if live_cancelled != by_reason.get("cancelled", 0):
            report.append(
                _mismatch("cancelled", live_cancelled, by_reason.get("cancelled", 0))
            )
    if stats.data_plane is not None:
        for mode, post_hits in (
            ("memo", stats.data_plane.memo_hits),
            ("coalesced", stats.data_plane.coalesced),
            ("overlap", stats.data_plane.overlap_hits),
        ):
            live_hits = collector.cache_hits.value("fleet", mode)
            if live_hits != post_hits:
                report.append(_mismatch(f"cache_{mode}_hits", live_hits, post_hits))
    for tenant, tenant_stats in stats.tenants.items():
        label = "" if tenant is None else str(tenant)
        live_completed = collector.tenant_completed.value(label)
        if live_completed != tenant_stats.completed:
            report.append(
                _mismatch(f"tenant[{label}].completed", live_completed, tenant_stats.completed)
            )
        live_shed = sum(
            child.value
            for labels, child in collector.tenant_shed.children.items()
            if labels[0] == label
        )
        if live_shed != tenant_stats.shed:
            report.append(_mismatch(f"tenant[{label}].shed", live_shed, tenant_stats.shed))
        for p, post in ((50, tenant_stats.p50_latency), (99, tenant_stats.p99_latency)):
            live = collector.tenant_latency.quantile(p, label)
            if not _close_or_equal(live, post):
                report.append(_mismatch(f"tenant[{label}].p{p}", live, post))
    return report


@dataclass
class LatencyView:
    """One tier's live latency/count rollup (``cli live`` dashboard)."""

    tier: str
    admitted: int = 0
    completed: int = 0
    shed: int = 0
    cancelled: int = 0
    failed: int = 0
    p50: float | None = None
    p95: float | None = None
    p99: float | None = None


def dashboard_views(samples: dict[str, list[tuple[dict[str, str], float]]]) -> list[LatencyView]:
    """Fold a parsed exposition into per-tier dashboard rows.

    Works from the scrape alone — quantiles are bucket-estimated via
    :func:`estimate_quantile_from_buckets`, which is all a remote
    scraper can reconstruct without the raw samples.
    """
    views: dict[str, LatencyView] = {}

    def view(tier: str) -> LatencyView:
        if tier not in views:
            views[tier] = LatencyView(tier=tier)
        return views[tier]

    for name, attr in (
        ("repro_requests_admitted_total", "admitted"),
        ("repro_requests_completed_total", "completed"),
        ("repro_requests_cancelled_total", "cancelled"),
    ):
        for labels, value in samples.get(name, []):
            setattr(view(labels.get("tier", "?")), attr, int(value))
    for labels, value in samples.get("repro_requests_shed_total", []):
        view(labels.get("tier", "?")).shed += int(value)
    for labels, value in samples.get("repro_requests_failed_total", []):
        view(labels.get("tier", "?")).failed += int(value)
    buckets: dict[str, dict[float, int]] = {}
    for labels, value in samples.get("repro_request_latency_seconds_bucket", []):
        tier = labels.get("tier", "?")
        le = float(labels["le"])
        per_tier = buckets.setdefault(tier, {})
        per_tier[le] = per_tier.get(le, 0) + int(value)
    for tier, per_tier in buckets.items():
        cumulative = sorted(per_tier.items())
        count = cumulative[-1][1] if cumulative else 0
        row = view(tier)
        row.p50 = estimate_quantile_from_buckets(cumulative, count, 50)
        row.p95 = estimate_quantile_from_buckets(cumulative, count, 95)
        row.p99 = estimate_quantile_from_buckets(cumulative, count, 99)
    return [views[tier] for tier in sorted(views)]


__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "LatencyView",
    "MetricFamily",
    "MetricsRegistry",
    "TelemetryCollector",
    "dashboard_views",
    "estimate_quantile_from_buckets",
    "fleet_equivalence_report",
    "parse_exposition",
    "slo_lookup",
]
