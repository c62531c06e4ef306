"""The traced run: spans around each layer's public calls.

Spans carry a name (the layer), start, end, parent and request id, and
are kept in memory and written once when the run ends.  In-process
layers are timed from outside through their public functions; the
server's stages come from the existing ``"trace": true`` marks and the
``stats`` verb, read over the wire.  Nothing inside ``src/`` is
instrumented by this benchmark.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.core.concat import concat_chain_cover
from repro.core.index import ChainIndex
from repro.core.labeling import build_labeling, labeling_from_store
from repro.core.persistence import load_index, save_index
from repro.graph.scc import condense
from repro.service import IndexManager, attach_index, dump_index

from load import median
from server import reset_hwm, vm_hwm_mb, vm_rss_mb
from spec import write_script

#: Every layer a span can name; each gets a ``<layer>.self_s`` metric.
LAYERS = ("graph.scc", "core.concat", "core.labeling", "core.labelstore",
          "core.persistence", "service.shm", "core.index", "service.manager",
          "service.client", "service.server", "service.batching",
          "service.cache")
#: Server trace stage -> the layer whose code runs in it.
STAGE_LAYER = {"accept": "service.server", "enqueue": "service.batching",
               "flush": "service.batching", "cache": "service.cache",
               "kernel": "core.index", "respond": "service.server"}
REPORTED_STAGES = ("accept", "enqueue", "flush", "kernel", "respond")
#: Pairs per ``is_reachable_many`` call when timing the kernel.
KERNEL_CHUNK = 256
#: Pairs the per-codec kernel and useful-work ratios are measured on.
INDEX_SAMPLE = 20_000
#: ``add_edge`` calls in the in-process manager replay.
MANAGER_WRITES = 200


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "number")

    def __init__(self, name, start, end, parent, request, number) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.number = number

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans; one per layer call, nested by thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, request: str | None = None) -> int:
        with self._lock:
            number = len(self.spans)
            self.spans.append(Span(name, start, end, parent, request, number))
        return number

    @contextmanager
    def span(self, name: str, request: str | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        number = self.add(name, time.perf_counter(), 0.0,
                          stack[-1] if stack else None, request)
        stack.append(number)
        span = self.spans[number]
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span durations minus the time their children cover.

        Children of one span never overlap (they come from one thread
        or one request's sequential stages), so subtracting their
        durations is subtracting the covered part.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        totals = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            totals[span.name] += max(0.0, span.seconds - covered[span.number])
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "request": s.request}
                for s in self.spans]
        path.write_text(json.dumps(rows, separators=(",", ":")) + "\n",
                        encoding="utf-8")


def kernel_rates(index: ChainIndex, pairs: list[tuple],
                 min_seconds: float) -> list[float]:
    """Pairs/s of repeated ``is_reachable_many`` passes over ``pairs``.

    Calls take :data:`KERNEL_CHUNK` pairs each; passes repeat until
    ``min_seconds`` have been spent (at least three).
    """
    chunks = [pairs[at:at + KERNEL_CHUNK]
              for at in range(0, len(pairs), KERNEL_CHUNK)]
    answer = index.is_reachable_many
    rates = []
    spent = 0.0
    while spent < min_seconds or len(rates) < 3:
        started = time.perf_counter()
        for chunk in chunks:
            answer(chunk)
        elapsed = time.perf_counter() - started
        spent += elapsed
        rates.append(len(pairs) / elapsed)
    return rates


@contextmanager
def peak_growth():
    """Yield a list that holds, after the block, its peak RSS growth (MB)."""
    grown = []
    before = vm_rss_mb()
    reset_hwm()
    yield grown
    grown.append(max(0.0, vm_hwm_mb() - before))


def build_layers(graph, workdir: Path, rec: SpanRecorder) -> dict:
    """The large-graph build recipe, one layer at a time.

    Condense, concat cover, labeling, compression, save, load and
    shared-memory publish/attach on this workload's graph.  A layer's
    ``hwm_mb`` is the most its call grew this process's RSS: the peak
    RSS during the call (reset to the current RSS just before it) less
    the RSS before it.  Where the kernel refuses the reset, the peak is
    the process's since it started, and the figure an upper bound.
    """
    m = {}
    with peak_growth() as grown:
        with rec.span("graph.scc") as span:
            condensation = condense(graph)
    m["graph.scc.condense_s"] = span.seconds
    m["graph.scc.hwm_mb"] = grown[0]
    dag = condensation.dag
    with rec.span("core.concat") as span:
        decomposition = concat_chain_cover(dag)
    m["core.concat.cover_s"] = span.seconds
    m["core.concat.chains"] = decomposition.num_chains
    with peak_growth() as grown:
        with rec.span("core.labeling") as span:
            labeling = build_labeling(dag, decomposition)
    m["core.labeling.build_s"] = span.seconds
    m["core.labeling.hwm_mb"] = grown[0]
    m["core.labeling.entries"] = labeling.store.num_entries
    m["core.labeling.packed_bytes"] = labeling.nbytes()
    with rec.span("core.labelstore") as span:
        store = labeling.store.to_compressed()
    m["core.labelstore.compress_s"] = span.seconds
    m["core.labelstore.compressed_bytes"] = store.nbytes()
    index = ChainIndex(condensation, decomposition,
                       labeling_from_store(store), "concat")
    path = workdir / "layers.idx"
    with rec.span("core.persistence"):
        save_index(index, path)
    m["core.persistence.file_bytes"] = os.path.getsize(path)
    with peak_growth() as grown:
        with rec.span("core.persistence"):
            load_index(path)
    m["core.persistence.load_hwm_mb"] = grown[0]
    segment = None
    try:
        with rec.span("service.shm") as span:
            segment = dump_index(index)
        m["service.shm.dump_s"] = span.seconds
        with rec.span("service.shm") as span:
            attached = attach_index(segment.name)
        m["service.shm.attach_s"] = span.seconds
        attached.close()
    finally:
        if segment is not None:
            segment.close()
            segment.unlink()
    return m


def index_layers(index: ChainIndex, pairs: list[tuple],
                 rec: SpanRecorder) -> dict:
    """Kernel cost per codec and the share of useful work on ``pairs``.

    Measured on the first :data:`INDEX_SAMPLE` pairs.
    """
    m = {}
    sample = pairs[:INDEX_SAMPLE]
    for codec in ("packed", "compressed"):
        coded = index.with_codec(codec)
        with rec.span("core.index"):
            rate = median(kernel_rates(coded, sample, min_seconds=0.3))
        m[f"core.index.batch_ns_per_pair.{codec}"] = 1e9 / rate
    is_reachable = index.is_reachable
    with rec.span("core.index") as span:
        answers = [is_reachable(source, target) for source, target in sample]
    m["core.index.scalar_ns"] = 1e9 * span.seconds / len(sample)
    rejects = index.prefilter_rejects
    m["core.index.prefilter_share"] = (
        sum(rejects(source, target) for source, target in sample) / len(sample))
    m["core.index.positive_share"] = sum(answers) / len(sample)
    return m


def manager_layers(workload, graph, seed: int, pairs: list[tuple],
                   rec: SpanRecorder) -> dict:
    """Replay the write probe's shape in process against IndexManager."""
    with rec.span("service.manager"):
        manager = IndexManager.from_graph(graph, engine=workload.engine)
    seconds = {"add_edge": [], "remove_edge": [], "reload": [],
               "query_batch": []}
    adds, finals = write_script(workload, graph, seed, MANAGER_WRITES, 1)
    for request in adds + finals[0]:
        op = request["op"]
        with rec.span("service.manager") as span:
            if op == "add_edge":
                manager.add_edge(request["source"], request["target"],
                                 create=True)
            elif op == "remove_edge":
                manager.remove_edge(request["source"], request["target"])
            elif op == "reload":
                manager.swap()
            else:
                manager.query_many([tuple(p) for p in request["pairs"]])
        seconds[op].append(span.seconds)
    reads = []
    for at in range(0, min(len(pairs), 50 * KERNEL_CHUNK), KERNEL_CHUNK):
        with rec.span("service.manager") as span:
            manager.query_many(pairs[at:at + KERNEL_CHUNK])
        reads.append(span.seconds)
    manager.close()
    return {"service.manager.add_edge_us": 1e6 * median(seconds["add_edge"]),
            "service.manager.remove_edge_ms":
                1e3 * median(seconds["remove_edge"]),
            "service.manager.swap_s": median(seconds["reload"]),
            "service.manager.query_many_us": 1e6 * median(reads)}


def record_requests(phase, rec: SpanRecorder) -> None:
    """Spans for every request of ``phase``.

    Each request becomes a ``service.client`` span.  A traced one also
    gets a ``service.server`` span of the server's ``total_ms``,
    centred in the client span (the trace reports durations, not
    instants), with one child span per stage, named by the layer that
    runs in it.
    """
    for sample in phase.samples:
        trace = sample.response.get("trace") if sample.ok else None
        client = rec.add("service.client", sample.started,
                         sample.started + sample.rtt,
                         request=trace["trace_id"] if trace else None)
        if trace is None:
            continue
        total = trace["total_ms"] / 1e3
        start = sample.started + max(0.0, sample.rtt - total) / 2
        server = rec.add("service.server", start, start + total, client,
                         trace["trace_id"])
        for stage in trace["stages"]:
            seconds = stage["ms"] / 1e3
            rec.add(STAGE_LAYER.get(stage["stage"], "service.server"),
                    start, start + seconds, server, trace["trace_id"])
            start += seconds


def serving_layers(phase) -> dict:
    """Stage medians, untraced time and ``stats`` deltas of one phase.

    ``untraced_us`` is client round trip minus the server's
    ``total_ms``: socket read, JSON and write.  ``stage_coverage`` is
    the median share of the round trip that the stages plus
    ``untraced_us`` account for.
    """
    stages = {stage: [] for stage in REPORTED_STAGES}
    untraced, traced_rtt, plain_rtt, coverage = [], [], [], []
    reads = [s for s in phase.samples
             if s.ok and s.op in ("query", "query_batch")]
    for sample in reads:
        trace = sample.response.get("trace")
        if trace is None:
            plain_rtt.append(sample.rtt)
            continue
        traced_rtt.append(sample.rtt)
        gap_us = 1e6 * sample.rtt - 1e3 * trace["total_ms"]
        untraced.append(gap_us)
        staged_us = 0.0
        for stage in trace["stages"]:
            staged_us += 1e3 * stage["ms"]
            if stage["stage"] in stages:
                stages[stage["stage"]].append(1e3 * stage["ms"])
        coverage.append((staged_us + gap_us) / (1e6 * sample.rtt))
    m = {f"service.tracing.{stage}_us": (median(values) if values else 0.0)
         for stage, values in stages.items()}
    m["service.server.untraced_us"] = median(untraced)
    m["service.tracing.stage_coverage"] = median(coverage)
    m["service.tracing.overhead_us"] = 1e6 * (median(traced_rtt)
                                             - median(plain_rtt))
    def delta(*keys) -> float:
        total = 0
        for before, after in phase.stats:
            for key in keys[:-1]:
                before, after = before[key], after[key]
            total += after[keys[-1]] - before[keys[-1]]
        return total

    after = phase.stats[-1][1]
    m["service.server.request_p50_us"] = 1e3 * after["server"]["p50_ms"]
    batches = delta("batching", "batches")
    m["service.batching.mean_batch_size"] = (
        delta("batching", "coalesced_queries") / max(1, batches))
    m["service.batching.queue_wait_p50_us"] = (
        1e6 * after["batching"]["queue_wait"]["p50"])
    m["service.batching.kernel_batch_p50_us"] = (
        1e6 * after["batching"]["kernel_batch"]["p50"])
    m["service.batching.overloaded"] = delta("batching", "overloaded")
    hits = delta("cache", "hits")
    m["service.cache.hit_rate"] = hits / max(1, hits + delta("cache", "misses"))
    return m
