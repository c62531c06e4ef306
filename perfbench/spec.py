"""The workloads and every input they feed the program.

Each input is a pure function of the workload, the ``--seed`` and the
size ``scale``, so two commits run with the same seed replay
byte-identical inputs (the run record carries
:func:`repro.bench.replay.schedule_sha256` of every schedule to prove
it).  The graph is one fixed instance per workload; the seed draws
every request schedule, so it picks the pairs, the Zipf draws, the
writes and the deleted edges.  Graphs of different seeds differed in
build and rebuild cost by about 10%, twice the run-to-run noise, which
spread the ten-seed build, save and reload times to 0.2–0.27 (IQR /
median) against a bound of 0.25: the spread measured the graphs, not
the program.  Schedules are lists of wire requests in the replay
format of :mod:`repro.bench.replay`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bench.replay import synthetic_schedule
from repro.bench.workloads import WorkloadSpec
from repro.graph.generators import citation_dag, scale_chain_dag

#: Zipf exponent of point-query endpoints, as in the workload zoo.
ZIPF_S = 1.1
#: Pairs per ``query_batch`` request ("a few hundred").
BATCH_PAIRS = 256
#: Point queries in the point probe.
POINT_PROBE = 2000
#: ``query_batch`` requests in the batch probe: their 256k distinct
#: pairs are 60x the server's 4096-entry result cache.
BATCH_PROBE = 1000
#: ``add_edge`` calls per run: ten samples beyond the write p99.
WRITES = 1000
#: Point reads generated for the main phase's callers to cycle through.
POINT_READS = 40_000


@dataclass(frozen=True)
class Workload:
    """One named workload: a graph, how it is served, what is sent.

    ``main`` names the timed phase: ``point`` (Zipf point queries from
    two connections for ``--seconds``) or ``cold`` (build, save, load).
    Every run also measures the other end-to-end metrics through
    fixed-count probes, so each record carries every metric.
    """

    name: str
    family: str              #: "citation" | "scale"
    nodes: int
    edges_per_node: int
    engine: str              #: the served engine (``serve --engine``)
    codec: str               #: label codec of the cold path
    main: str
    #: ``remove_edge`` calls per run, each followed by a ``reload``.
    #: Point-zipf's deletes cost 0.7-1.1 s depending on the edge, so it
    #: takes four; cold-start's two already agree within 10%.
    deletes: int
    why: str

    @property
    def method(self) -> str:
        return self.engine[len("chain-"):]


WORKLOADS = {
    "point-zipf": Workload(
        "point-zipf", "citation", 20_000, 3, "chain-stratified", "packed",
        "point", 4,
        why="Zipf point queries: socket, JSON, batcher wait and result "
            "cache dominate; the kernel is a few percent of the trip"),
    "cold-start": Workload(
        "cold-start", "scale", 80_000, 3, "chain-concat", "compressed",
        "cold", 2,
        why="build, save and load at 8e4 nodes (concat, compressed): "
            "condense, cover, labeling, codec and persistence do the work"),
}


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{purpose}")


def _int_seed(seed: int, purpose: str) -> int:
    return _rng(seed, purpose).getrandbits(32)


def scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(count * scale))


#: Seed of every workload's graph.
GRAPH_SEED = 1


def make_graph(workload: Workload, scale: float = 1.0):
    """The workload's graph (dense int node ids ``0..n-1``)."""
    nodes = scaled(workload.nodes, scale, floor=50)
    graph_seed = _int_seed(GRAPH_SEED, "graph")
    if workload.family == "citation":
        return citation_dag(nodes, workload.edges_per_node, seed=graph_seed)
    return scale_chain_dag(nodes, nodes * workload.edges_per_node, width=3,
                           cross_span=900, seed=graph_seed)


def point_reads(graph, seed: int, count: int, purpose: str) -> list[dict]:
    """Zipf-skewed point ``query`` requests (the zoo's sampler)."""
    spec = WorkloadSpec(purpose, "citation", graph.num_nodes,
                        read_fraction=1.0, zipf_s=ZIPF_S, batch_fraction=0.0)
    return [{"op": "query", "source": entry["source"],
             "target": entry["target"]}
            for entry in synthetic_schedule(
                spec, graph, count=count, seed=_int_seed(seed, purpose))]


def bulk_batches(graph, seed: int, count: int) -> list[dict]:
    """``query_batch`` requests of :data:`BATCH_PAIRS` pairs.

    Half the pairs are uniform: almost all negative, mostly settled by
    the rank/level prefilter.  The other half pair a node with the end
    of a random downward walk from it, so the sequence probe runs and
    most answers are positive.
    """
    rng = _rng(seed, "bulk")
    n = graph.num_nodes
    batches = []
    for _ in range(count):
        pairs = []
        for slot in range(BATCH_PAIRS):
            source = rng.randrange(n)
            if slot % 2 == 0:
                pairs.append([source, rng.randrange(n)])
                continue
            target = source
            for _ in range(rng.randint(1, 8)):
                successors = graph.successor_ids(target)
                if not successors:
                    break
                target = successors[rng.randrange(len(successors))]
            pairs.append([source, target])
        batches.append({"op": "query_batch", "pairs": pairs})
    return batches


def write_script(workload: Workload, graph, seed: int, writes: int,
                 deletes: int) -> tuple[list[dict], list[list[dict]]]:
    """The run's fixed writes: ``(adds, finals)``.

    ``adds`` holds ``writes`` ``add_edge`` calls.  On citation graphs
    every other one links two existing nodes newer-to-older, as
    citations run; the rest link a fresh node id ``n + k`` (created by
    the write) to an existing node.  A fresh source has no ancestors and
    newer-to-older never closes a cycle, so no write is rejected.  On
    the scale family every write is from a fresh node: there an edge
    between existing nodes updates the manager's shadow label of nearly
    every earlier node (~n label merges per write), minutes per run at
    1e5 nodes.

    ``finals`` holds ``deletes`` blocks, each removing one edge, then a
    ``reload`` that publishes everything pending, then a ``query_batch``
    over every written edge and the removed one, so the new epoch is
    checked against the new graph.  Citation graphs lose original
    edges; the scale family loses edges the adds wrote.  Removing an
    original edge of the scale family can make the manager's shadow
    rebuild take two minutes (its stratified cover re-matches the
    broken chain), more than a run may last.
    """
    rng = _rng(seed, "writes")
    n = graph.num_nodes
    adds = []
    fresh = n
    for step in range(writes):
        source, target = rng.randrange(n), rng.randrange(n)
        source, target = max(source, target), min(source, target)
        if step % 2 or workload.family != "citation" or source == target:
            source = fresh
            fresh += 1
        adds.append({"op": "add_edge", "source": source, "target": target,
                     "create": True})
    written = [[add["source"], add["target"]] for add in adds]
    pool = list(graph.edges()) if workload.family == "citation" else written
    finals = [[{"op": "remove_edge", "source": source, "target": target},
               {"op": "reload"},
               {"op": "query_batch", "pairs": written + [[source, target]]}]
              for source, target in rng.sample(pool, deletes)]
    return adds, finals
