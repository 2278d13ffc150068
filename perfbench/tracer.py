"""Span tracer for the traced run: wraps the public functions of each layer.

``Tracer.install()`` replaces each listed class or module attribute with a
wrapper that records one span per call: layer, start, end, parent span and
request id, on the process CPU clock.  It must run before the stack is
built, so that methods bound early (callbacks, stored bound methods) are
also the wrapped ones.  A layer's self time is its spans' duration minus
the part covered by their child spans.

Spans are kept in memory as flat arrays and written once, by ``write``.
Besides calls and self time, the wrappers count the component quantities
that are only visible at a layer boundary (pruning triggers, SSD bytes,
embedding-cache hits, engine candidate-layers).
"""

from __future__ import annotations

import array
import functools
import time

import numpy as np

from repro.core import (
    chunking,
    data_plane,
    embedding_cache,
    engine,
    events,
    fleet,
    pruning,
    scheduler,
    service,
    streaming,
    telemetry,
    tenancy,
)
from repro.data import workloads as data_workloads
from repro.device import executor, memory, ssd
from repro.device.memory import MiB
from repro.model import semantics, transformer, weights

#: layer name -> [(owner, attribute names)]; every attribute must exist,
#: and every one must be called by at least one workload (test_coverage.py).
#: ``RerankTask.step`` is listed separately: its layer depends on the engine.
LAYERS: dict[str, list[tuple[object, tuple[str, ...]]]] = {
    "model.forward": [
        (
            transformer.CrossEncoderModel,
            ("embed", "forward_layer", "forward_layer_batched", "flush_deferred", "score"),
        )
    ],
    "model.semantics": [(semantics.ScoreDynamics, ("scores_at",))],
    "model.weights": [(weights.WeightStore, ("load_layer", "embedding_row", "embedding_rows"))],
    "core.pruning": [(pruning.ProgressiveClusterPruner, ("decide",))],
    # Patched at its call site: the pruner calls the name it imported.
    "core.clustering": [(pruning, ("cluster_scores",))],
    "core.embedding_cache": [
        (embedding_cache.EmbeddingCache, ("lookup",)),
        (data_plane.SharedEmbeddingCache, ("lookup",)),
    ],
    "core.streaming": [
        (streaming.LayerStreamer, ("acquire", "advance")),
        (streaming.PlanePass, ("acquire", "advance")),
    ],
    "core.chunking": [
        (chunking.HiddenStateRing, ("allocate", "release_all", "begin_layer", "acquire", "release"))
    ],
    "device.memory": [(memory.MemoryTracker, ("alloc", "free"))],
    "device.ssd": [
        (ssd.SSDDevice, ("read_sync", "read_async", "write_async", "wait", "drain"))
    ],
    "device.executor": [
        (
            executor.DeviceExecutor,
            ("compute", "prefetch", "offload_async", "wait_io", "read_blocking"),
        )
    ],
    "core.scheduler": [(scheduler.DeviceScheduler, ("submit_request", "drain"))],
    "core.service": [(service.SemanticSelectionService, ("serve_requests", "replay_selection"))],
    "core.fleet": [(fleet.FleetService, ("submit_request", "drain"))],
    "core.tenancy": [(tenancy.FairAdmission, ("admit", "order_key", "on_flush"))],
    "core.data_plane": [(data_plane.DataPlane, ("admit", "complete"))],
    "core.events": [(events.EventLog, ("emit",))],
    "core.telemetry": [(telemetry.TelemetryCollector, ("consume",))],
    "data": [
        (data_workloads, ("build_batch",)),
        (tenancy, ("selection_requests_from_trace",)),
    ],
}
STEP_LAYERS = ("core.engine", "baselines")
LAYER_NAMES = tuple(LAYERS) + STEP_LAYERS


def _qualname(owner, name: str) -> str:
    return f"{owner.__name__}.{name}"


#: Every wrapped function, by qualified name, for the coverage check.
WRAPPERS = tuple(
    _qualname(owner, name)
    for entries in LAYERS.values()
    for owner, names in entries
    for name in names
) + ("RerankTask.step",)

#: Component quantities the wrappers count, beside calls and self time.
COUNTERS = (
    "prune_checks",
    "prune_triggered",
    "candidate_layers",
    "full_candidate_layers",
    "io_stall_s",
    "ssd_read_bytes",
    "ssd_write_bytes",
    "cache_hits",
    "cache_tokens",
)


class Tracer:
    """Records spans around wrapped calls and sums self time per layer."""

    def __init__(self) -> None:
        self.layer_index = {name: i for i, name in enumerate(LAYER_NAMES)}
        self.calls = [0] * len(LAYER_NAMES)
        self.self_s = [0.0] * len(LAYER_NAMES)
        self.fired: dict[str, int] = {name: 0 for name in WRAPPERS}
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        # Span columns.
        self.span_layer = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("q")
        self.span_request = array.array("q")
        # Open spans: [span index, child time].
        self._stack: list[list] = []
        self.request = -1
        self._requests: dict[tuple[str, int, int], int] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------
    def _enter(self, layer: int, start: float) -> None:
        index = len(self.span_start)
        self.span_layer.append(layer)
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_request.append(self.request)
        self._stack.append([index, 0.0])

    def _exit(self, layer: int) -> None:
        end = time.process_time()
        index, child = self._stack.pop()
        duration = end - self.span_start[index]
        self.span_end[index] = end
        self.calls[layer] += 1
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, layer_name: str, qualname: str, fn, after=None, when=None):
        layer = self.layer_index[layer_name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            tracer.fired[qualname] += 1
            tracer._enter(layer, time.process_time())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(layer)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- component counters ---------------------------------------------
    def _after_decide(self, args, kwargs, decision) -> None:
        self.counters["prune_checks"] += 1
        self.counters["prune_triggered"] += bool(decision.triggered)

    def _after_lookup(self, args, kwargs, result) -> None:
        lookup = result[0] if isinstance(result, tuple) else result
        self.counters["cache_hits"] += lookup.hits
        self.counters["cache_tokens"] += lookup.unique_tokens

    @staticmethod
    def _nbytes(args, kwargs) -> int:
        return args[2] if len(args) > 2 else kwargs["nbytes"]

    def _after_read(self, args, kwargs, result) -> None:
        self.counters["ssd_read_bytes"] += self._nbytes(args, kwargs)

    def _after_write(self, args, kwargs, result) -> None:
        self.counters["ssd_write_bytes"] += self._nbytes(args, kwargs)

    # With numerics off, embed/forward_layer/score only do bookkeeping (and
    # score reads the semantics layer): they count as model.forward only
    # when they run the numeric kernels, otherwise their time stays with
    # the caller.
    WHEN = {
        "CrossEncoderModel.embed": lambda args, kwargs: kwargs.get(
            "numerics", args[2] if len(args) > 2 else True
        ),
        "CrossEncoderModel.forward_layer": lambda args, kwargs: args[1].hidden is not None,
        "CrossEncoderModel.score": lambda args, kwargs: args[1].hidden is not None,
    }

    AFTER = {
        "ProgressiveClusterPruner.decide": "_after_decide",
        "EmbeddingCache.lookup": "_after_lookup",
        "SharedEmbeddingCache.lookup": "_after_lookup",
        "SSDDevice.read_sync": "_after_read",
        "SSDDevice.read_async": "_after_read",
        "SSDDevice.write_async": "_after_write",
    }

    def _wrap_step(self, fn):
        tracer = self
        layers = {name: self.layer_index[name] for name in STEP_LAYERS}

        @functools.wraps(fn)
        def step(task, *args, **kwargs):
            tracer.fired["RerankTask.step"] += 1
            name = task.engine.name
            is_prism = name.startswith("prism")
            layer = layers["core.engine" if is_prism else "baselines"]
            outer = tracer.request
            key = (name, id(task.engine), task.request_id)
            tracer.request = tracer._requests.setdefault(key, len(tracer._requests))
            tracer._enter(layer, time.process_time())
            try:
                done = fn(task, *args, **kwargs)
            finally:
                tracer._exit(layer)
                tracer.request = outer
            if done and is_prism:
                result = task.result
                tracer.counters["candidate_layers"] += result.candidate_layers
                tracer.counters["full_candidate_layers"] += (
                    task.batch.size * task.engine.model.config.num_layers
                )
                tracer.counters["io_stall_s"] += result.io_stall_seconds
            return done

        return step

    # -- install / uninstall ----------------------------------------------
    def install(self) -> None:
        for layer_name, entries in LAYERS.items():
            for owner, names in entries:
                for name in names:
                    qualname = _qualname(owner, name)
                    fn = getattr(owner, name)  # AttributeError: a renamed function
                    after = getattr(self, self.AFTER[qualname]) if qualname in self.AFTER else None
                    when = self.WHEN.get(qualname)
                    self._saved.append((owner, name, vars(owner)[name]))
                    setattr(owner, name, self._wrap(layer_name, qualname, fn, after, when))
        self._saved.append((engine.RerankTask, "step", engine.RerankTask.step))
        engine.RerankTask.step = self._wrap_step(engine.RerankTask.step)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # -- results ----------------------------------------------------------
    @property
    def num_spans(self) -> int:
        return len(self.span_start)

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, i in self.layer_index.items():
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_cpu_s"] = self.self_s[i]
        c = self.counters
        out["core.pruning.trigger_frac"] = (
            c["prune_triggered"] / c["prune_checks"] if c["prune_checks"] else 0.0
        )
        out["core.pruning.pruned_frac"] = (
            1.0 - c["candidate_layers"] / c["full_candidate_layers"]
            if c["full_candidate_layers"]
            else 0.0
        )
        out["core.engine.candidate_layers"] = c["candidate_layers"]
        out["core.embedding_cache.hit_rate"] = (
            c["cache_hits"] / c["cache_tokens"] if c["cache_tokens"] else 0.0
        )
        out["device.ssd.read_mib"] = c["ssd_read_bytes"] / MiB
        out["device.ssd.write_mib"] = c["ssd_write_bytes"] / MiB
        out["device.ssd.stall_ms"] = c["io_stall_s"] * 1e3
        return out

    def write(self, path) -> None:
        """Write every span once, as flat columns, to an ``.npz`` file."""
        np.savez(
            path,
            layers=np.array(LAYER_NAMES),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            request=np.frombuffer(self.span_request, dtype=np.int64),
        )
