"""Correctness: every wire answer against a reference of its epoch.

Epoch 0 answers are checked against an in-process index of the same
generated graph (built, saved and loaded back).  The single writer's
acknowledged writes are replayed onto graph copies, one per epoch its
``reload`` calls published, and later answers are checked by BFS
(:class:`~repro.baselines.traversal.TraversalIndex`) on their epoch's
graph.  A fixed sample of pairs also checks the reference itself
against BFS.
"""

from __future__ import annotations

from collections import Counter

from repro.baselines.traversal import TraversalIndex

READ_OPS = ("query", "query_batch")


def pairs_of(request: dict) -> list[tuple]:
    if request["op"] == "query":
        return [(request["source"], request["target"])]
    return [tuple(pair) for pair in request["pairs"]]


def answers_of(response: dict) -> list[bool]:
    reachable = response["reachable"]
    return reachable if isinstance(reachable, list) else [reachable]


class Versions:
    """The graph each epoch of one server answers for."""

    def __init__(self, graph) -> None:
        self.graphs = {0: graph}
        self._latest = 0
        self._pending: list[tuple[str, object, object]] = []

    def observe(self, samples) -> None:
        """Replay one caller's acknowledged writes, in send order."""
        for sample in samples:
            if not sample.ok:
                continue
            request = sample.request
            if sample.op in ("add_edge", "remove_edge"):
                self._pending.append(
                    (sample.op, request["source"], request["target"]))
            elif sample.op == "reload":
                epoch = sample.response["epoch"]
                if epoch != self._latest:
                    self._publish(epoch)

    def _publish(self, epoch: int) -> None:
        graph = self.graphs[self._latest].copy()
        for op, source, target in self._pending:
            if op == "add_edge":
                graph.ensure_node(source)
                graph.ensure_node(target)
                if not graph.has_edge(source, target):
                    graph.add_edge(source, target)
            else:
                graph.remove_edge(source, target)
        self._pending.clear()
        self.graphs[epoch] = graph
        self._latest = epoch


def wrong_samples(samples, reference, versions: Versions) -> list:
    """The read samples whose answers disagree with their epoch."""
    epoch0_pairs: list[tuple] = []
    epoch0_given: list[bool] = []
    epoch0_owner: list[int] = []
    wrong: set[int] = set()
    bfs: dict[int, TraversalIndex] = {}
    for number, sample in enumerate(samples):
        if sample.op not in READ_OPS or not sample.ok:
            continue
        pairs = pairs_of(sample.request)
        answers = answers_of(sample.response)
        if len(answers) != len(pairs):
            wrong.add(number)
            continue
        epoch = sample.response["epoch"]
        if epoch == 0:
            epoch0_pairs.extend(pairs)
            epoch0_given.extend(answers)
            epoch0_owner.extend([number] * len(pairs))
            continue
        graph = versions.graphs.get(epoch)
        if graph is None:                    # an epoch no reload published
            wrong.add(number)
            continue
        oracle = bfs.setdefault(epoch, TraversalIndex.build(graph))
        if any(oracle.is_reachable(s, t) != answer
               for (s, t), answer in zip(pairs, answers)):
            wrong.add(number)
    expected = reference.is_reachable_many(epoch0_pairs)
    for owner, want, got in zip(epoch0_owner, expected, epoch0_given):
        if want != got:
            wrong.add(owner)
    return [samples[number] for number in sorted(wrong)]


def account(samples, wrong) -> dict[str, dict[str, int]]:
    """Attempted and failed requests per op type.

    Failures are error replies, dropped connections and wrong answers.
    """
    attempted: Counter = Counter()
    failed: Counter = Counter()
    wrong_ids = {id(sample) for sample in wrong}
    for sample in samples:
        attempted[sample.op] += 1
        if not sample.ok or id(sample) in wrong_ids:
            failed[sample.op] += 1
    return {op: {"attempted": attempted[op], "failed": failed[op]}
            for op in sorted(attempted)}


def reach_set(graph, source) -> bytearray:
    """BFS from ``source``: byte ``i`` is 1 iff node id ``i`` is reachable."""
    seen = bytearray(graph.num_nodes)
    start = graph.node_id(source)
    seen[start] = 1
    frontier = [start]
    successor_ids = graph.successor_ids
    while frontier:
        following = []
        for node in frontier:
            for successor in successor_ids(node):
                if not seen[successor]:
                    seen[successor] = 1
                    following.append(successor)
        frontier = following
    return seen


def bfs_sample(graph, index, pairs, sources: int = 25,
               targets: int = 40) -> tuple[int, int]:
    """Check ``index`` against BFS on a fixed grid of pairs.

    The grid crosses the first ``sources`` distinct sources of
    ``pairs`` with its first ``targets`` distinct targets (1,000 pairs
    by default), so one BFS per source settles ``targets`` pairs even
    on graphs where a single BFS is expensive.  Returns ``(checked,
    wrong)``.
    """
    firsts = list(dict.fromkeys(source for source, _ in pairs))[:sources]
    lasts = list(dict.fromkeys(target for _, target in pairs))[:targets]
    grid = [(source, target) for source in firsts for target in lasts]
    answers = index.is_reachable_many(grid)
    wrong = 0
    for number, source in enumerate(firsts):
        seen = reach_set(graph, source)
        row = answers[number * len(lasts):(number + 1) * len(lasts)]
        wrong += sum(bool(seen[graph.node_id(target)]) != answer
                     for target, answer in zip(lasts, row))
    return len(grid), wrong
