"""The benchmark's four workloads, each split into parts, inputs, set-up and serving.

A workload is ``PARTS`` parts of about equal work, each run in its own
fresh process.  Each part times its set-up and serving phases (``run.py``
takes medians over the parts, and sums the parts' serving CPU);
virtual-clock metrics pool the samples of all parts, so a run measures a
large sample on the virtual clock while the host clock is read many times.

A part is driven in phases so that each host timer covers exactly one
of them:

* ``make_inputs(seed, part)`` generates the requests (untimed);
* ``setup(inputs)`` builds the stack: models, tokenizers, devices,
  engines, fleet and candidate batches (timed as ``setup_s``);
* ``serve(stack)`` submits every request and collects the responses
  (timed as ``host_cpu_s``);
* ``reference(stack, outcome)`` runs, on the serving tiers, the solo
  reference sweep that the latency and peak-memory reductions compare
  against (untimed, and untraced).

``summarize(stack, outcome)`` then extracts the part's virtual-clock
samples and component values, outside both timers, and
``metrics_from_samples`` pools the parts into the end-to-end metrics.

Library calls go through module attributes (``data_workloads.build_batch``
rather than a name imported into this module), so the wrappers the traced
run installs on those attributes see the calls.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.core import api, fleet as fleet_mod, service as service_mod, telemetry, tenancy
from repro.core import events as events_mod
from repro.core.config import PrismConfig
from repro.core.metrics import precision_at_k
from repro.data import datasets, traffic, workloads as data_workloads
from repro.device.memory import MiB, OutOfMemoryError
from repro.device.platforms import get_profile
from repro.harness import runner
from repro.model.transformer import CrossEncoderModel
from repro.model.zoo import get_model_config
from repro.text.tokenizer import Tokenizer
from repro.text.vocab import Vocabulary

#: Parts per workload; every run serves all of them once.
PARTS = 6

#: Component metrics ``summarize`` derives from a part's outputs; a
#: workload that does not exercise a component reports it as 0.
COMPONENTS = (
    "core.streaming.attach_frac",
    "core.scheduler.fused_occupancy",
    "core.scheduler.queue_ms_p50",
    "core.fleet.queue_ms_p95",
    "core.tenancy.shed_frac",
    "core.data_plane.hit_frac",
    "core.events.count",
)

STATUS_OK = api.REQUEST_OK
#: Terminal status of a request whose engine could not be prepared or
#: ran out of modelled device memory (the Table 3 HF OOM cells).
STATUS_OOM = "oom"


@dataclasses.dataclass
class Record:
    """One submitted request and its single terminal outcome."""

    rid: str
    k: int
    n: int
    system: str
    labels: np.ndarray
    status: str | None = None
    top: tuple[int, ...] = ()
    latency_s: float | None = None


@dataclasses.dataclass
class Outcome:
    """What ``serve`` hands to the correctness checks and ``summarize``."""

    records: list[Record]
    #: Terminal statuses reported per request id, in report order; a
    #: correct run has exactly one per submitted request.
    reported: list[tuple[str, str]]
    #: Workload-level check failures that belong to no single request.
    errors: list[str] = dataclasses.field(default_factory=list)


def selection_digest(records: list[Record]) -> str:
    """sha256 over (request id, top indices) of every completed selection."""
    h = hashlib.sha256()
    for record in sorted(records, key=lambda r: r.rid):
        if record.status == STATUS_OK:
            h.update(f"{record.rid}:{','.join(map(str, record.top))}\n".encode())
    return h.hexdigest()


def _tokenizer(config) -> Tokenizer:
    return Tokenizer(Vocabulary(config.vocab_size))


def _subseed(seed: int, part: int, salt: int = 0) -> int:
    return int(np.random.SeedSequence([seed, part, salt]).generate_state(1)[0])


def _reseeded(name: str, seed: int, part: int, salt: int = 0) -> datasets.DatasetSpec:
    spec = datasets.get_dataset(name)
    return dataclasses.replace(spec, seed=_subseed(seed, part, spec.seed * 1000 + salt))


def _complete(record: Record, response: api.SelectionResponse, latency: float) -> None:
    record.status = response.status
    if response.ok:
        record.top = tuple(int(i) for i in response.result.top_indices)
        record.latency_s = latency


# ----------------------------------------------------------------------
# Virtual-clock samples of one part, and the metrics pooled over parts
# ----------------------------------------------------------------------
def samples(
    records: list[Record], busy_s: float, peaks_mib: list[float], pairs: list
) -> dict:
    """The part's virtual-clock samples.

    ``records`` are every operation the part attempted; latencies and
    precision are taken over PRISM's completed selections.  ``busy_s``
    is the virtual time those took: the makespan on serving tiers, the
    sum of latencies in a closed loop.  ``pairs`` holds one
    ``[PRISM mean latency, baseline mean latency, PRISM peak MiB,
    baseline peak MiB]`` per runnable (cell, baseline) pair.
    """
    prism = [r for r in records if r.system.startswith("prism") and r.status == STATUS_OK]
    return {
        "latency_ms": [r.latency_s * 1e3 for r in prism],
        "precision": [precision_at_k(np.asarray(r.top), r.labels, r.k) for r in prism],
        "busy_s": busy_s,
        "peak_mib": peaks_mib,
        "pairs": pairs,
        "completed": sum(r.status == STATUS_OK for r in records),
        "attempted": len(records),
    }


def metrics_from_samples(parts: list[dict]) -> dict[str, float]:
    """Pool the parts' samples into the virtual-clock end-to-end metrics."""
    latency = np.concatenate([p["latency_ms"] for p in parts])
    pairs = np.array([pair for p in parts for pair in p["pairs"]], dtype=np.float64)
    return {
        "sim_latency_p50_ms": float(np.percentile(latency, 50)),
        "sim_latency_p95_ms": float(np.percentile(latency, 95)),
        "sim_throughput_rps": latency.size / sum(p["busy_s"] for p in parts),
        "sim_peak_mib": float(np.median([m for p in parts for m in p["peak_mib"]])),
        "sim_latency_reduction": float(np.mean(1.0 - pairs[:, 0] / pairs[:, 1])),
        "sim_peak_reduction": float(np.mean(1.0 - pairs[:, 2] / pairs[:, 3])),
        "precision_at_k": float(np.mean(np.concatenate([p["precision"] for p in parts]))),
        "completed_frac": sum(p["completed"] for p in parts) / sum(p["attempted"] for p in parts),
        "requests": int(latency.size),
    }


# ----------------------------------------------------------------------
# Engine tier: closed-loop cells of one system on one fresh device
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Cell:
    """One (system, platform, inputs) run on a fresh device, closed loop."""

    key: str
    system: str
    platform: str
    k: int
    queries: list
    batches: list
    server: api.EngineServer | None = None
    device: object = None
    oom: bool = False
    records: list[Record] = dataclasses.field(default_factory=list)

    def build(self, model: CrossEncoderModel) -> None:
        self.device = get_profile(self.platform).create()
        engine = runner.create_engine(self.system, model, self.device, numerics=False)
        try:
            engine.prepare()
        except OutOfMemoryError:
            self.oom = True
            return
        self.server = api.EngineServer(engine)

    def serve(self) -> None:
        self.records = [
            Record(f"{self.key}/{self.system}/q{i}", self.k, q.num_candidates, self.system, q.labels())
            for i, q in enumerate(self.queries)
        ]
        for record, batch in zip(self.records, self.batches):
            if self.oom:
                record.status = STATUS_OOM
                continue
            try:
                response = self.server.submit(
                    api.SelectionRequest(batch=batch, k=self.k, request_id=record.rid)
                ).result()
            except OutOfMemoryError:
                self.oom = True
                record.status = STATUS_OOM
                continue
            _complete(record, response, response.result.latency_seconds if response.ok else 0.0)

    @property
    def peak_mib(self) -> float:
        return self.device.memory.stats().peak_bytes / MiB

    def mean_latency(self) -> float:
        return float(np.mean([r.latency_s for r in self.records]))


def _pair_rows(pairs: list[tuple[Cell, Cell]]) -> list[list[float]]:
    return [
        [ours.mean_latency(), base.mean_latency(), ours.peak_mib, base.peak_mib]
        for ours, base in pairs
        if not ours.oom and not base.oom
    ]


class CellWorkload:
    """Shared set-up/serve of the closed-loop engine-tier workloads.

    Subclasses give ``make_inputs`` and ``cell_specs(inputs)``, which lists
    ``(key, model, platform, k, queries)`` per group of cells.
    """

    #: (system, baseline) comparisons each PRISM cell is paired with.
    COMPARISONS: tuple[tuple[str, str], ...] = ()

    def setup(self, inputs):
        models: dict[str, CrossEncoderModel] = {}
        tokenizers: dict[int, Tokenizer] = {}
        cells: list[Cell] = []
        pairs: list[tuple[Cell, Cell]] = []
        for key, model_name, platform, k, queries in self.cell_specs(inputs):
            config = get_model_config(model_name)
            if model_name not in models:
                models[model_name] = CrossEncoderModel(config)
            if config.vocab_size not in tokenizers:
                tokenizers[config.vocab_size] = _tokenizer(config)
            tokenizer = tokenizers[config.vocab_size]
            batches = [
                data_workloads.build_batch(q, tokenizer, config.max_seq_len) for q in queries
            ]
            group: dict[str, Cell] = {}
            for ours, base in self.COMPARISONS:
                for system in (ours, base):
                    if system not in group:
                        cell = Cell(key, system, platform, k, queries, batches)
                        cell.build(models[model_name])
                        group[system] = cell
                        cells.append(cell)
                pairs.append((group[ours], group[base]))
        return cells, pairs

    def serve(self, stack) -> Outcome:
        cells, _ = stack
        for cell in cells:
            cell.serve()
        records = [r for cell in cells for r in cell.records]
        return Outcome(records, [(r.rid, r.status) for r in records])

    def reference(self, stack, outcome: Outcome) -> None:
        """The cells already pair PRISM with its baselines."""

    def summarize(self, stack, outcome: Outcome) -> tuple[dict, dict]:
        cells, pairs = stack
        prism = [c for c in cells if c.system.startswith("prism")]
        busy_s = sum(r.latency_s for c in prism for r in c.records if r.status == STATUS_OK)
        return samples(outcome.records, busy_s, [c.peak_mib for c in prism], _pair_rows(pairs)), {}


class Table3Grid(CellWorkload):
    """Reduced paper Table 3: engine tier, closed loop, numerics off.

    Part ``i`` is dataset ``DATASETS[i]`` across every model, platform
    and K, so the pooled run is the whole grid.
    """

    MODELS = ("qwen3-reranker-0.6b", "qwen3-reranker-4b", "qwen3-reranker-8b")
    DATASETS = ("msmarco", "scifact", "wikipedia", "nq", "fiqa", "trec-covid")
    PLATFORMS = ("nvidia_5070", "apple_m2")
    KS = (1, 10)
    QUERIES = 3
    CANDIDATES = 20
    COMPARISONS = (("prism", "hf"), ("prism", "hf_offload"), ("prism_quant", "hf_quant"))

    def make_inputs(self, seed: int, part: int):
        dataset = self.DATASETS[part]
        return dataset, _reseeded(dataset, seed, part).queries(self.QUERIES, self.CANDIDATES)

    def cell_specs(self, inputs):
        dataset, queries = inputs
        return [
            (f"{model}/{dataset}/{platform}/k{k}", model, platform, k, queries)
            for model in self.MODELS
            for platform in self.PLATFORMS
            for k in self.KS
        ]


class LongList(CellWorkload):
    """PRISM vs HF-Offload on apple_m2 with candidate lists in the hundreds.

    Part ``i`` draws its lists from dataset ``DATASETS[i]``.
    """

    MODEL = "qwen3-reranker-0.6b"
    PLATFORM = "apple_m2"
    DATASETS = ("msmarco", "trec-covid", "nq", "fiqa", "scidocs", "hotpotqa")
    SIZES = (200, 300, 400)
    QUERIES = 3
    K = 10
    COMPARISONS = (("prism", "hf_offload"),)

    def make_inputs(self, seed: int, part: int):
        name = self.DATASETS[part]
        return {
            (name, size): _reseeded(name, seed, part, salt=size).queries(self.QUERIES, size)
            for size in self.SIZES
        }

    def cell_specs(self, inputs):
        return [
            (f"{name}/n{size}", self.MODEL, self.PLATFORM, self.K, queries)
            for (name, size), queries in inputs.items()
        ]


# ----------------------------------------------------------------------
# Serving tiers: open loop on the virtual clock, plus a reference sweep
# ----------------------------------------------------------------------
#: Distinct candidate lists of a serving part that the reference sweep
#: serves, in arrival order.
REFERENCE_LISTS = 8


def _distinct(queries: list) -> list:
    seen: dict[tuple[int, ...], object] = {}
    for query in queries:
        seen.setdefault(tuple(int(u) for u in query.uids()), query)
    return list(seen.values())[:REFERENCE_LISTS]


def _reference_cells(model_name: str, platform: str, k: int, queries: list, tokenizer):
    """PRISM and HF-Offload serving a part's first distinct lists solo.

    The serving tiers run PRISM only, so their latency and peak-memory
    reductions compare solo passes over the same candidate lists.
    """
    config = get_model_config(model_name)
    distinct = _distinct(queries)
    batches = [data_workloads.build_batch(q, tokenizer, config.max_seq_len) for q in distinct]
    model = CrossEncoderModel(config)
    cells = []
    for system in ("prism", "hf_offload"):
        cell = Cell(f"ref/{model_name}/{platform}", system, platform, k, distinct, batches)
        cell.build(model)
        cells.append(cell)
    return cells


class ServingWorkload:
    """Shared serve/summarize of the open-loop serving workloads.

    Subclasses give ``MODEL``, ``PLATFORM``, ``K``, ``make_inputs``,
    ``setup``, ``server(stack)``, ``peaks_mib(stack)`` and
    ``components(stack, responses, finished)``.  ``setup`` returns a dict
    with at least ``requests``, ``queries`` and ``tokenizer``.
    """

    def serve(self, stack) -> Outcome:
        records = {
            request.request_id: Record(
                str(request.request_id), request.k, request.batch.size, "prism", query.labels()
            )
            for request, query in zip(stack["requests"], stack["queries"])
        }
        responses = api.serve_all(self.server(stack), stack["requests"])
        for response in responses:
            # An unknown id is reported below and fails the status check.
            if response.request_id in records:
                _complete(records[response.request_id], response, response.e2e_seconds)
        stack["responses"] = responses
        reported = [(str(r.request_id), r.status) for r in responses]
        return Outcome(list(records.values()), reported, self.finish(stack))

    def reference(self, stack, outcome: Outcome) -> None:
        """Serve the reference sweep; its records join the part's checks."""
        stack["ref"] = _reference_cells(
            self.MODEL, self.PLATFORM, self.K, stack["queries"], stack["tokenizer"]
        )
        for cell in stack["ref"]:
            cell.serve()
            outcome.records += cell.records
            outcome.reported += [(r.rid, r.status) for r in cell.records]

    def finish(self, stack) -> list[str]:
        """Last serving step; returns workload-level check failures."""
        return []

    def summarize(self, stack, outcome: Outcome) -> tuple[dict, dict]:
        responses = stack["responses"]
        served = [r for r in outcome.records if not r.rid.startswith("ref/")]
        finished = [r for r in responses if r.ok]
        makespan = max(r.finish for r in finished) - min(r.arrival for r in responses)
        part = samples(served, makespan, self.peaks_mib(stack), _pair_rows([tuple(stack["ref"])]))
        return part, self.components(stack, responses, finished)


class FleetTraffic(ServingWorkload):
    """A seeded traffic trace served by a 2-replica fleet with every plane on.

    Part ``i`` is an independent trace from its own sub-seed.
    """

    MODEL = "qwen3-reranker-0.6b"
    PLATFORM = "nvidia_5070"
    REPLICAS = 2
    #: Offered load: about 65% of what the two replicas serve when every
    #: request is admitted at once (about 9.4 rps on this trace shape).
    #: Token buckets shed about 40% of it and MMPP bursts queue.  At
    #: 8 rps and above the p95 latency differed between seeds by more
    #: than the benchmark's bounds allow.
    RATE_RPS = 6.0
    #: Requests per part: each trace is generated a little longer than
    #: needed and cut to this count, so every part does the same number.
    REQUESTS = 160
    #: Distinct base lists in the Zipf-hot pool; large enough that most
    #: requests miss the memo and run a real pass.
    BASE_QUERIES = 2048
    K = 4

    def make_inputs(self, seed: int, part: int):
        trace = traffic.generate_traffic(
            traffic.TrafficConfig(
                num_tenants=100,
                tenant_zipf_s=0.3,
                burst=1.0,
                duration_s=1.2 * self.REQUESTS / self.RATE_RPS,
                rate_rps=self.RATE_RPS,
                process="mmpp",
                burst_multiplier=1.5,
                mean_burst_s=0.1,
                seed=_subseed(seed, part),
                num_base_queries=self.BASE_QUERIES,
                query_zipf_s=0.7,
                k=self.K,
                candidate_tail=1.0,
                min_candidates=8,
            )
        )
        return dataclasses.replace(trace, requests=trace.requests[: self.REQUESTS])

    def setup(self, trace):
        config = get_model_config(self.MODEL)
        model = CrossEncoderModel(config)
        tokenizer = _tokenizer(config)
        tenancy_config = tenancy.tenancy_from_trace(trace)
        log = events_mod.EventLog()
        collector = telemetry.TelemetryCollector(slo_of=telemetry.slo_lookup(tenancy_config))
        subscription = collector.attach(log, capacity=1 << 22)
        fleet = fleet_mod.FleetService.homogeneous(
            model,
            get_profile(self.PLATFORM),
            self.REPLICAS,
            fleet_config=fleet_mod.FleetConfig(
                max_batch=4,
                max_wait_ms=5.0,
                routing="least_loaded",
                data_plane=True,
                shared_embedding_cache=True,
            ),
            config=PrismConfig(numerics=False),
            tenancy=tenancy_config,
            event_log=log,
        )
        queries = [r.query for r in trace.requests]
        return {
            "fleet": fleet,
            "requests": tenancy.selection_requests_from_trace(trace, tokenizer, config.max_seq_len),
            "queries": queries,
            "log": log,
            "collector": collector,
            "subscription": subscription,
            "tokenizer": tokenizer,
        }

    def server(self, stack) -> api.ServerBase:
        return api.FleetServer(stack["fleet"])

    def finish(self, stack) -> list[str]:
        collector, log = stack["collector"], stack["log"]
        collector.consume(stack["subscription"])
        if collector.events_seen != len(log.events):
            return [f"telemetry folded {collector.events_seen} of {len(log.events)} events"]
        return []

    def peaks_mib(self, stack) -> list[float]:
        return [r.service.device.memory.stats().peak_bytes / MiB for r in stack["fleet"].replicas]

    def components(self, stack, responses, finished) -> dict:
        return {
            "core.fleet.queue_ms_p95": float(
                np.percentile([r.queue_seconds * 1e3 for r in finished], 95)
            ),
            "core.tenancy.shed_frac": sum(r.status == api.REQUEST_SHED for r in responses)
            / len(responses),
            "core.data_plane.hit_frac": sum(r.cache is not None for r in finished) / len(finished),
            "core.events.count": float(len(stack["log"].events)),
        }


class DeviceGang(ServingWorkload):
    """Bursty arrivals served by ``DeviceScheduler`` with the fusion policy.

    Part ``i`` draws its requests from dataset ``DATASETS[i]``.
    """

    MODEL = "qwen3-reranker-0.6b"
    PLATFORM = "nvidia_5070"
    DATASETS = ("wikipedia", "quora", "fiqa", "nq", "msmarco", "scifact")
    REQUESTS = 48
    CANDIDATES = 5
    K = 3
    CONCURRENCY = 8
    #: Requests arrive in bursts, one every ``BURST_PERIOD_S`` and spread
    #: over ``BURST_SPREAD_S``, that fuse into gangs; the period is long
    #: enough that the device keeps up between bursts.
    BURST = 6
    BURST_PERIOD_S = 2.0
    BURST_SPREAD_S = 0.05
    MAX_SKEW_S = 0.2

    def make_inputs(self, seed: int, part: int):
        name = self.DATASETS[part]
        queries = _reseeded(name, seed, part).queries(self.REQUESTS, self.CANDIDATES)
        rng = np.random.default_rng(_subseed(seed, part, 0x6A46))
        arrivals = sorted(
            (i // self.BURST) * self.BURST_PERIOD_S + float(rng.uniform(0.0, self.BURST_SPREAD_S))
            for i in range(len(queries))
        )
        return queries, arrivals

    def setup(self, inputs):
        queries, arrivals = inputs
        config = get_model_config(self.MODEL)
        model = CrossEncoderModel(config)
        tokenizer = _tokenizer(config)
        service = service_mod.SemanticSelectionService(
            model,
            get_profile(self.PLATFORM),
            config=PrismConfig(numerics=True),
            max_concurrency=self.CONCURRENCY,
            shared_weights=True,
        )
        batches = [data_workloads.build_batch(q, tokenizer, config.max_seq_len) for q in queries]
        return {
            "service": service,
            "queries": queries,
            "requests": [
                api.SelectionRequest(batch=batch, k=self.K, request_id=f"g{i}", arrival=arrival)
                for i, (batch, arrival) in enumerate(zip(batches, arrivals))
            ],
            "tokenizer": tokenizer,
        }

    def server(self, stack) -> api.ServerBase:
        return api.DeviceServer(stack["service"], policy="fusion", max_skew=self.MAX_SKEW_S)

    def peaks_mib(self, stack) -> list[float]:
        return [stack["service"].device.memory.stats().peak_bytes / MiB]

    def components(self, stack, responses, finished) -> dict:
        service = stack["service"]
        return {
            "core.scheduler.fused_occupancy": float(service.last_scheduler.mean_fused_occupancy),
            "core.scheduler.queue_ms_p50": float(
                np.percentile([r.queue_seconds * 1e3 for r in finished], 50)
            ),
            "core.streaming.attach_frac": float(service.engine.weight_plane.stats.hit_rate),
        }


WORKLOADS = {
    "table3-grid": Table3Grid,
    "fleet-traffic": FleetTraffic,
    "device-gang": DeviceGang,
    "long-list": LongList,
}
