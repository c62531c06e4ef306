"""One run of one workload: inputs, cold path, serving phases, checks.

Every run walks the same lifecycle on its workload's graph, so every
record carries every end-to-end metric.  Fresh child processes run
the **cold path** (``ChainIndex.build``, ``save_index``,
``load_index``; see :mod:`coldpath`); the index the first one saves,
loaded back, is the reference every wire answer is checked against.
One ``serve`` process takes the workload's **main** traffic for
``--seconds`` over two closed-loop connections, and fixed-count
**probes** — point queries, 256-pair batches, writes — for the
end-to-end metrics the main phase does not produce (sized so every
p99 has ten samples beyond it).

The host's speed drifts by up to 2x, per CPU, over a fraction of a
second to minutes.  So the run is cut into :data:`ROUNDS` rounds, each
with a cold-path cycle and a slice of the main phase, the probes and
the kernel timing; the CPU-bound metrics are normalised by host-speed
samples taken around every slice (:mod:`hostspeed`); and each metric
is a median over the whole run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from repro.bench.replay import schedule_sha256
from repro.core.persistence import load_index
from repro.graph.io import write_edge_list

import check
import hostspeed
import layers
import spec
from children import die_with_parent
from load import Caller, drive, median, percentile, server_stats
from server import SERVER_CPU, ServerProcess, pin

HERE = Path(__file__).resolve().parent

#: name -> unit of every end-to-end metric, in report order.
END_TO_END = {
    "setup_s": "s",
    "point_rtt_p50_ms": "ms",
    "point_qps": "1/s",
    "batch_rtt_p50_ms": "ms",
    "batch_pairs_per_s": "1/s",
    "kernel_pairs_per_s": "1/s",
    "write_rtt_p50_ms": "ms",
    "delete_rtt_p50_ms": "ms",
    "swap_s": "s",
    "build_s": "s",
    "save_s": "s",
    "load_s": "s",
    "peak_rss_mb": "MB",
}
#: End-to-end metrics reported as measured: the point round trip is
#: bound by the batcher's timed wait, and memory does not drift with
#: the host.  Every other one is normalised for host speed.
UNSCALED = ("point_rtt_p50_ms", "point_qps", "peak_rss_mb")
#: Client round-trip p99s.  They do not repeat within any bound on a
#: shared 2-CPU host (one stall of the host moves them), so they are
#: reported by the traced run as per-layer numbers, not gated.
TAIL_METRICS = ("point_rtt_p99_ms", "batch_rtt_p99_ms", "write_rtt_p99_ms")
#: Rounds per run; each runs one cold-path cycle and takes a slice of
#: the main phase, every probe and the kernel timing.
ROUNDS = 2
#: Host-speed-sampled slices each round's batch probe is cut into.
BATCH_SLICES = 2
#: In-process kernel timing per run, split over the rounds ...
KERNEL_SECONDS = 1.5
#: ... in groups of this length, each between two host-speed samples.
KERNEL_GROUP_S = 0.25
#: Set-ups timed per run (median reported): graph generations for
#: cold-start, server starts for the serving workloads.
SETUPS = 3
WARMUP_READS = 200
#: A host-speed sample younger than this is reused as the next
#: interval's start: nothing ran in between.
SAMPLE_REUSE_S = 0.2
COLD_TIMEOUT_S = 150


def per_layer_unit(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"),
                         ("_ns", "ns"), ("_mb", "MB"), ("_bytes", "bytes"),
                         ("_share", "ratio"), ("_rate", "ratio"),
                         ("_coverage", "ratio")):
        if name.endswith(suffix):
            return unit
    if ".batch_ns_per_pair." in name:
        return "ns"
    return "count"


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports."""
    return (["graph.scc.condense_s", "graph.scc.hwm_mb",
             "core.concat.cover_s", "core.concat.chains",
             "core.labeling.build_s", "core.labeling.entries",
             "core.labeling.packed_bytes", "core.labeling.hwm_mb",
             "core.labelstore.compress_s", "core.labelstore.compressed_bytes",
             "core.persistence.file_bytes", "core.persistence.load_hwm_mb",
             "service.shm.dump_s", "service.shm.attach_s",
             "core.index.batch_ns_per_pair.packed",
             "core.index.batch_ns_per_pair.compressed",
             "core.index.scalar_ns", "core.index.prefilter_share",
             "core.index.positive_share"]
            + [f"service.tracing.{stage}_us" for stage in layers.REPORTED_STAGES]
            + list(TAIL_METRICS)
            + ["service.server.untraced_us", "service.tracing.stage_coverage",
               "service.tracing.overhead_us", "service.server.request_p50_us",
               "service.batching.mean_batch_size",
               "service.batching.queue_wait_p50_us",
               "service.batching.kernel_batch_p50_us",
               "service.batching.overloaded", "service.cache.hit_rate",
               "service.manager.add_edge_us", "service.manager.remove_edge_ms",
               "service.manager.swap_s", "service.manager.query_many_us"]
            + [f"{layer}.self_s" for layer in layers.LAYERS])


def provenance(root: Path, src: Path) -> dict:
    """Who measured what where: commit, source digest, machine."""
    sha = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((src / "repro").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_sha": sha, "source_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "platform": platform.platform()}


def _pairs(requests: list[dict]) -> list[tuple]:
    return [pair for request in requests for pair in check.pairs_of(request)]


def _halves(requests: list[dict]) -> list[Caller]:
    return [Caller(requests[0::2]), Caller(requests[1::2])]


def _parts(items: list, parts: int) -> list[list]:
    """``items`` cut into ``parts`` contiguous, near-equal pieces."""
    size = -(-len(items) // parts)
    return [items[at * size:(at + 1) * size] for at in range(parts)]


class Run:
    """State of one ``run.py`` invocation.

    ``scale`` multiplies graph sizes and request counts; only the
    benchmark's own tests set it below 1.
    """

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 root: Path, src: Path, workdir: Path,
                 scale: float = 1.0) -> None:
        self.workload = spec.WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.root = root
        self.src = src
        self.workdir = workdir
        self.rec = layers.SpanRecorder() if trace else None
        self.graph = None
        self.setup: list[float] = []
        self.setup_raw: list[float] = []
        self.schedules: dict[str, list[dict]] = {}
        self.phases: dict = {}
        self.cycles: list[dict] = []
        self.kernel_rates: list[float] = []
        self.kernel_raw: list[float] = []
        self.wrong: list = []
        self.checks: dict = {}
        self.cold_ops = {"attempted": 0, "failed": 0}
        self.speed: hostspeed.HostSpeed | None = None
        self._last: hostspeed.Point | None = None

    def count(self, value: int, floor: int = 10) -> int:
        return spec.scaled(value, self.scale, floor)

    # -- host speed -------------------------------------------------------
    def mark(self) -> hostspeed.Point:
        """A host-speed sample to start an interval from."""
        last = self._last
        if last is not None and time.perf_counter() - last.at < SAMPLE_REUSE_S:
            return last
        return self.sampled()

    def sampled(self) -> hostspeed.Point:
        """A fresh host-speed sample, to end an interval with."""
        self._last = self.speed.sample()
        return self._last

    # -- inputs -----------------------------------------------------------
    def time_graph_setups(self) -> None:
        """Cold-start's set-up: :data:`SETUPS` timed graph generations.

        Each starts from the same heap: the previous graph is dropped
        and collected first.
        """
        for _ in range(SETUPS):
            self.graph = None
            gc.collect()
            before = self.mark()
            clock = time.perf_counter()
            self.graph = spec.make_graph(self.workload, self.scale)
            self.setup_raw.append(time.perf_counter() - clock)
            self.setup.append(self.setup_raw[-1] * hostspeed.between(
                before, self.sampled(), "bench"))

    def make_inputs(self) -> None:
        w, seed = self.workload, self.seed
        if self.graph is None:
            self.graph = spec.make_graph(w, self.scale)
        graph = self.graph
        s = self.schedules
        s["warmup"] = spec.point_reads(graph, seed, WARMUP_READS, "warmup")
        if w.main == "point":
            s["reads"] = spec.point_reads(
                graph, seed, self.count(spec.POINT_READS), "reads")
        else:
            s["point-probe"] = spec.point_reads(
                graph, seed, self.count(spec.POINT_PROBE), "point-probe")
        s["batch-probe"] = spec.bulk_batches(graph, seed,
                                             self.count(spec.BATCH_PROBE))
        adds, finals = spec.write_script(w, graph, seed,
                                         self.count(spec.WRITES), w.deletes)
        s["write-adds"] = adds
        s["write-finals"] = [request for block in finals for request in block]

    def kernel_pairs(self) -> list[tuple]:
        """The batch probe's pairs: what the kernel answers in bulk."""
        return _pairs(self.schedules["batch-probe"])

    # -- cold path ----------------------------------------------------------
    def cold_cycle(self) -> None:
        """One build, save and load in a fresh process (:mod:`coldpath`)."""
        index_path = self.workdir / "index.json"
        pairs_path = self.workdir / "cold-pairs.json"
        if not self.cycles:
            pairs_path.write_text(json.dumps(
                self.kernel_pairs()[:layers.INDEX_SAMPLE]), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, str(HERE / "coldpath.py"), self.workload.name,
             repr(self.scale), str(index_path), str(pairs_path)],
            capture_output=True, text=True, timeout=COLD_TIMEOUT_S,
            preexec_fn=die_with_parent)
        if done.returncode:
            raise RuntimeError(f"cold-path cycle failed: {done.stderr[-2000:]}")
        cycle = json.loads(done.stdout.strip().splitlines()[-1])
        self.cycles.append(cycle)
        self.cold_ops["attempted"] += 3
        if cycle["mismatches"]:
            self.cold_ops["failed"] += 1
        if len(self.cycles) == 1:
            self.reference = load_index(index_path)
            checked, bfs_wrong = check.bfs_sample(
                self.graph, self.reference, self.kernel_pairs())
            self.checks.update(loaded_vs_built_pairs=cycle["pairs"],
                               bfs_pairs=checked, bfs_wrong=bfs_wrong)
            if bfs_wrong:
                self.cold_ops["failed"] += 1
        self.checks["loaded_vs_built_mismatches"] = sum(
            c["mismatches"] for c in self.cycles)

    def time_kernel(self, index, pairs: list[tuple], seconds: float) -> None:
        """Kernel passes for ``seconds``, in host-speed-sampled groups."""
        for _ in range(max(1, round(seconds / KERNEL_GROUP_S))):
            before = self.mark()
            rates = layers.kernel_rates(index, pairs, KERNEL_GROUP_S)
            scale = hostspeed.between(before, self.sampled(), "bench")
            self.kernel_raw += rates
            self.kernel_rates += [rate / scale for rate in rates]

    # -- serving ----------------------------------------------------------
    def slice(self, server: ServerProcess, name: str, callers: list[Caller],
              seconds: float = 0.0, cpus: str = "both") -> None:
        """Run one slice of phase ``name``.

        ``cpus`` names the CPUs whose speed the slice's times are
        normalised by (see :func:`hostspeed.between`).
        """
        before = server_stats(server.address)
        start = self.mark()
        phase = drive(server.address, callers, name, seconds=seconds,
                      trace=self.trace)
        scale = hostspeed.between(start, self.sampled(), cpus)
        for sample in phase.samples:
            sample.factor = scale
        phase.scaled_seconds = phase.seconds * scale
        phase.stats.append((before, server_stats(server.address)))
        if name in self.phases:
            self.phases[name].extend(phase)
        else:
            self.phases[name] = phase

    def start_server(self, graph_path: Path) -> ServerProcess:
        """Start ``serve`` :data:`SETUPS` times; keep the last one.

        On serving workloads each start is a set-up: timed launch to
        ready-file and normalised by the server CPU's speed.  Cold-start
        times its graph generation instead and starts the server once.
        """
        serving = self.workload.main != "cold"
        starts = SETUPS if serving else 1
        for number in range(starts):
            before = self.mark()
            server = ServerProcess(graph_path, self.workdir, self.src,
                                   self.workload.engine, f"main{number}")
            if serving:
                self.setup_raw.append(server.setup_s)
                self.setup.append(server.setup_s * hostspeed.between(
                    before, self.sampled(), "server"))
            if number + 1 < starts:
                server.stop()
        return server

    def measure(self, server: ServerProcess) -> None:
        """:data:`ROUNDS` rounds, then the deletes and reloads.

        Each round runs one cold-path cycle and takes a slice of the
        kernel timing, the main phase, each read probe and the probe's
        ``add_edge`` calls, so every metric samples the whole run rather
        than one stretch of it.  The adds go out over one connection: over
        two, each add's round trip depended on whether the other
        connection's add overlapped it, and the median moved by 20%
        between repeats of the same adds.  They stay pending until
        the first ``reload``, which comes after every read, so every
        probe read is answered at epoch 0.  Each delete, reload and
        check is a slice of its own, timed against the server CPU's
        speed around it.
        """
        s = self.schedules
        for part in range(ROUNDS):
            self.cold_cycle()
            if part == 0:
                packed = self.reference.with_codec("packed")
                pairs = self.kernel_pairs()[:layers.INDEX_SAMPLE]
            self.time_kernel(packed, pairs, KERNEL_SECONDS / ROUNDS)
            if self.workload.main == "point":
                reads = [_parts(s["reads"][k::2], ROUNDS)[part] for k in (0, 1)]
                self.slice(server, "main", [Caller(reads[0], repeat=True),
                                            Caller(reads[1], repeat=True)],
                           self.seconds / ROUNDS)
            else:
                self.slice(server, "point-probe",
                           _halves(_parts(s["point-probe"], ROUNDS)[part]))
            batches = _parts(s["batch-probe"], ROUNDS)[part]
            for piece in _parts(batches, BATCH_SLICES):
                self.slice(server, "batch-probe", _halves(piece))
            self.slice(server, "write-probe",
                       [Caller(_parts(s["write-adds"], ROUNDS)[part])])
        for request in s["write-finals"]:
            cpus = "both" if request["op"] == "query_batch" else "server"
            self.slice(server, "write-probe", [Caller([request])], cpus=cpus)

    def serve_and_measure(self) -> None:
        graph_path = self.workdir / "graph.txt"
        write_edge_list(self.graph, graph_path)
        with self.start_server(graph_path) as server:
            self.slice(server, "warmup", [Caller(self.schedules["warmup"])])
            self.measure(server)
            self.server_peak_mb = server.hwm_mb()
        versions = check.Versions(self.graph)
        for phase in self.phases.values():
            for caller in phase.callers:
                versions.observe(caller)
        samples = [s for phase in self.phases.values() for s in phase.samples]
        self.wrong = check.wrong_samples(samples, self.reference, versions)

    # -- results ----------------------------------------------------------
    def measured(self, scaled: bool = True) -> dict[str, float]:
        """Every end-to-end number of the run, p99s included.

        With ``scaled`` false, the CPU-bound numbers are the raw wall
        times (kept in the record beside the normalised ones).
        """
        point = self.phases["main" if self.workload.main == "point"
                            else "point-probe"]
        batch = self.phases["batch-probe"]
        write = self.phases["write-probe"]

        def rtts(phase, op: str) -> list[float]:
            return phase.scaled_rtts(op) if scaled else phase.rtts(op)

        point_rtts = point.rtts("query")
        batch_rtts = rtts(batch, "query_batch")
        pairs = sum(len(s.request["pairs"]) for s in batch.samples
                    if s.op == "query_batch" and s.ok)
        writes = rtts(write, "add_edge")
        times = "normalised" if scaled else "raw"
        cold = {name: median([c[times][name] for c in self.cycles])
                for name in ("build_s", "save_s", "load_s")}
        if self.workload.main == "cold":
            peak = median([c["peak_rss_mb"] for c in self.cycles])
        else:
            peak = self.server_peak_mb
        return {
            "setup_s": median(self.setup if scaled else self.setup_raw),
            "point_rtt_p50_ms": 1e3 * median(point_rtts),
            "point_rtt_p99_ms": 1e3 * percentile(point_rtts, 0.99),
            "point_qps": len(point_rtts) / point.seconds,
            "batch_rtt_p50_ms": 1e3 * median(batch_rtts),
            "batch_rtt_p99_ms": 1e3 * percentile(batch_rtts, 0.99),
            "batch_pairs_per_s": pairs / (batch.scaled_seconds if scaled
                                          else batch.seconds),
            "kernel_pairs_per_s": median(self.kernel_rates if scaled
                                         else self.kernel_raw),
            "write_rtt_p50_ms": 1e3 * median(writes),
            "write_rtt_p99_ms": 1e3 * percentile(writes, 0.99),
            "delete_rtt_p50_ms": 1e3 * median(rtts(write, "remove_edge")),
            "swap_s": median(rtts(write, "reload")),
            **cold,
            "peak_rss_mb": peak,
        }

    def per_layer(self) -> dict[str, float]:
        rec = self.rec
        for phase in self.phases.values():
            layers.record_requests(phase, rec)
        read_phase = self.phases["main" if self.workload.main == "point"
                                 else "point-probe"]
        m = layers.serving_layers(read_phase)
        measured = self.measured()
        m.update({name: measured[name] for name in TAIL_METRICS})
        pairs = self.kernel_pairs()
        m.update(layers.build_layers(self.graph, self.workdir, rec))
        m.update(layers.index_layers(self.reference, pairs, rec))
        m.update(layers.manager_layers(self.workload, self.graph, self.seed,
                                       pairs, rec))
        m.update({f"{layer}.self_s": seconds
                  for layer, seconds in rec.self_seconds().items()})
        return m

    def record(self) -> dict:
        samples = [s for phase in self.phases.values() for s in phase.samples]
        raw = self.measured(scaled=False)
        return {
            "workload": self.workload.name, "seed": self.seed,
            "seconds": self.seconds, "trace": self.trace,
            **provenance(self.root, self.src),
            "graph": {"nodes": self.graph.num_nodes,
                      "edges": self.graph.num_edges},
            "schedules": {name: {"requests": len(requests),
                                 "sha256": schedule_sha256(requests)}
                          for name, requests in self.schedules.items()},
            "phases": {name: {"seconds": phase.seconds,
                              "ops": check.account(phase.samples, self.wrong)}
                       for name, phase in self.phases.items()},
            "ops": check.account(samples, self.wrong),
            "cold_path": {"ops": self.cold_ops, "cycles": self.cycles},
            "host_speed": self.speed.summary(),
            "steal_ticks": self.steal_ticks,
            "raw_metrics": {name: raw[name] for name in END_TO_END
                            if name not in UNSCALED},
            "setup_samples_s": {"normalised": self.setup,
                                "raw": self.setup_raw},
            "kernel_passes": len(self.kernel_rates),
            "checks": dict(self.checks, wrong_wire_answers=len(self.wrong)),
        }

    def execute(self) -> dict:
        steal = hostspeed.steal_ticks()
        with hostspeed.HostSpeed() as self.speed:
            pin(self.speed.helper.pid, SERVER_CPU)
            if self.workload.main == "cold":
                self.time_graph_setups()
            self.make_inputs()
            self.serve_and_measure()
        after = hostspeed.steal_ticks()
        self.steal_ticks = None if steal is None or after is None \
            else after - steal
        record = self.record()
        if self.trace:
            metrics = self.per_layer()
            self.rec.dump(self.root / ".perfbench" / "traces"
                          / f"{self.workload.name}-seed{self.seed}.json")
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            measured = self.measured()
            metrics = {name: measured[name] for name in END_TO_END}
            units = END_TO_END
        ops = record["ops"]
        attempted = sum(op["attempted"] for op in ops.values()) \
            + self.cold_ops["attempted"]
        failed = sum(op["failed"] for op in ops.values()) \
            + self.cold_ops["failed"]
        correct = (not self.wrong and not self.checks["bfs_wrong"]
                   and not self.checks["loaded_vs_built_mismatches"])
        return {"record": record,
                "result": {"correct": correct, "attempted": attempted,
                           "failed": failed,
                           "metrics": {name: {"value": value,
                                              "unit": units[name]}
                                       for name, value in metrics.items()}}}
