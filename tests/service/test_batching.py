"""Unit tests for the micro-batching engine.

The environment has no pytest-asyncio, so every async scenario runs
inside :func:`asyncio.run` from a plain synchronous test.
"""

import asyncio
import time

import pytest

from repro import DiGraph, NodeNotFoundError
from repro.service import (
    IndexManager,
    MicroBatcher,
    OverloadedError,
    ResultCache,
    ServiceError,
)

from tests.conftest import PAPER_FIG1_EDGES, bfs_reachable


def make_manager() -> IndexManager:
    return IndexManager.from_graph(DiGraph.from_edges(PAPER_FIG1_EDGES))


class TestCoalescing:
    def test_concurrent_submits_share_kernel_calls(self):
        """Many concurrent clients produce far fewer kernel batches,
        with the no-wait flush (group commit) as with a coalescing
        window."""
        manager = make_manager()
        graph = manager.snapshot.graph
        nodes = graph.nodes()
        pairs = [(u, v) for u in nodes for v in nodes]

        async def scenario(policy):
            batcher = MicroBatcher(manager, max_batch=128, **policy)
            await batcher.start()
            answers = await asyncio.gather(
                *(batcher.submit(u, v) for u, v in pairs))
            await batcher.close()
            return answers, batcher.stats()

        for policy in ({"max_wait_us": 0}, {"max_wait_us": 2000}):
            answers, stats = asyncio.run(scenario(policy))
            for (u, v), (epoch, reachable) in zip(pairs, answers):
                assert epoch == 0
                assert reachable == bfs_reachable(graph, u, v)
            assert stats["coalesced_queries"] == len(pairs)
            # 81 queries coalesced into a handful of flushes, not 81
            assert stats["batches"] < len(pairs) / 2, policy
            assert stats["largest_batch"] > 1, policy

    def test_zero_wait_flush_never_sleeps(self, monkeypatch):
        """At ``max_wait_us=0`` the flush is work-conserving: lone and
        concurrent queries alike are answered without a timed sleep."""
        manager = make_manager()
        delays = []
        real_sleep = asyncio.sleep

        async def recording_sleep(delay, *args, **kwargs):
            delays.append(delay)
            return await real_sleep(delay, *args, **kwargs)

        monkeypatch.setattr(asyncio, "sleep", recording_sleep)

        async def scenario():
            batcher = MicroBatcher(manager, max_wait_us=0)
            await batcher.start()
            lone = [await batcher.submit("a", "e") for _ in range(3)]
            together = await asyncio.gather(
                *(batcher.submit("f", "i") for _ in range(10)))
            await batcher.close()
            return lone, together

        lone, together = asyncio.run(scenario())
        assert lone == [(0, True)] * 3
        assert together == [(0, True)] * 10
        assert delays                            # the flush loop yielded
        assert [delay for delay in delays if delay > 0] == []

    @pytest.mark.parametrize("max_wait_us, loop_waits, slept_at_most", [
        (900, [], 0.0009),                  # the default: all on the thread
        (2500, [0.002], 0.0005),            # whole ms on the loop, rest slept
    ])
    def test_window_lasts_what_it_says(self, monkeypatch, max_wait_us,
                                       loop_waits, slept_at_most):
        """The event loop waits in whole milliseconds, so the window's
        sub-millisecond rest is slept on the loop thread instead of
        being rounded up to another millisecond."""
        manager = make_manager()
        delays, slept = [], []
        real_sleep, real_thread_sleep = asyncio.sleep, time.sleep

        async def recording_sleep(delay, *args, **kwargs):
            delays.append(delay)
            return await real_sleep(delay, *args, **kwargs)

        def recording_thread_sleep(seconds):
            slept.append(seconds)
            real_thread_sleep(seconds)

        monkeypatch.setattr(asyncio, "sleep", recording_sleep)
        monkeypatch.setattr(time, "sleep", recording_thread_sleep)

        async def scenario():
            batcher = MicroBatcher(manager, max_wait_us=max_wait_us)
            await batcher.start()
            started = time.perf_counter()
            answer = await batcher.submit("a", "e")
            elapsed = time.perf_counter() - started
            await batcher.close()
            return answer, elapsed

        answer, elapsed = asyncio.run(scenario())
        assert answer == (0, True)
        assert elapsed >= max_wait_us / 1e6
        assert [delay for delay in delays if delay > 0] == loop_waits
        assert len(slept) <= 1
        assert all(0 < seconds <= slept_at_most for seconds in slept)

    def test_zero_wait_still_answers(self):
        manager = make_manager()

        async def scenario():
            batcher = MicroBatcher(manager, max_wait_us=0)
            await batcher.start()
            result = await batcher.submit("a", "e")
            await batcher.close()
            return result

        assert asyncio.run(scenario()) == (0, True)

    def test_submit_many_is_inline(self):
        manager = make_manager()
        batcher = MicroBatcher(manager)
        epoch, answers = batcher.submit_many([("a", "e"), ("e", "a")])
        assert (epoch, answers) == (0, [True, False])
        assert batcher.stats()["batches"] == 1

    def test_bad_pair_fails_only_its_own_query(self):
        """The per-pair fallback isolates an unknown-node failure."""
        manager = make_manager()

        async def scenario():
            batcher = MicroBatcher(manager, max_wait_us=2000)
            await batcher.start()
            results = await asyncio.gather(
                batcher.submit("a", "e"),
                batcher.submit("a", "no-such-node"),
                batcher.submit("f", "i"),
                return_exceptions=True)
            await batcher.close()
            return results

        good, bad, also_good = asyncio.run(scenario())
        assert good == (0, True)
        assert isinstance(bad, NodeNotFoundError)
        assert bad.role == "target"
        assert also_good == (0, True)

    def test_unhashable_pair_does_not_kill_the_flush_loop(self):
        """A pair straight off wire JSON can be unhashable (a list);
        the TypeError it raises must fail only its own future — if it
        escaped, the flush task would die and every later query would
        hang until its request timeout."""
        manager = make_manager()

        async def scenario():
            batcher = MicroBatcher(manager, ResultCache(capacity=64),
                                   max_wait_us=2000)
            await batcher.start()
            results = await asyncio.gather(
                batcher.submit("a", "e"),
                batcher.submit(["a"], "e"),      # unhashable source
                return_exceptions=True)
            late = await batcher.submit("f", "i")
            await batcher.close()
            return results, late

        (good, bad), late = asyncio.run(scenario())
        assert good == (0, True)
        assert isinstance(bad, TypeError)
        assert late == (0, True)                 # the loop survived


class TestBackpressure:
    def test_overloaded_at_max_pending(self):
        """With the flusher parked, the queue bound fails fast."""
        manager = make_manager()

        async def scenario():
            # never started: nothing drains the queue, so the bound is
            # hit deterministically
            batcher = MicroBatcher(manager, max_pending=4)
            waiters = [asyncio.ensure_future(batcher.submit("a", "e"))
                       for _ in range(4)]
            await asyncio.sleep(0)           # let them enqueue
            with pytest.raises(OverloadedError) as excinfo:
                await batcher.submit("a", "e")
            assert excinfo.value.pending == 4
            assert excinfo.value.limit == 4
            assert batcher.stats()["overloaded"] == 1
            assert batcher.queue_depth == 4
            await batcher.close(drain=True)  # resolve the waiters
            return await asyncio.gather(*waiters)

        answers = asyncio.run(scenario())
        assert answers == [(0, True)] * 4

    def test_submit_after_close_is_refused(self):
        manager = make_manager()

        async def scenario():
            batcher = MicroBatcher(manager)
            await batcher.start()
            await batcher.close()
            with pytest.raises(ServiceError):
                await batcher.submit("a", "e")
            with pytest.raises(ServiceError):
                batcher.submit_many([("a", "e")])

        asyncio.run(scenario())

    def test_close_without_drain_fails_pending(self):
        manager = make_manager()

        async def scenario():
            batcher = MicroBatcher(manager, max_pending=8)
            waiter = asyncio.ensure_future(batcher.submit("a", "e"))
            await asyncio.sleep(0)
            await batcher.close(drain=False)
            with pytest.raises(ServiceError):
                await waiter

        asyncio.run(scenario())

    def test_rejects_silly_limits(self):
        manager = make_manager()
        with pytest.raises(ValueError):
            MicroBatcher(manager, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(manager, max_pending=0)


class TestCacheIntegration:
    def test_repeat_queries_hit_the_cache(self):
        manager = make_manager()
        cache = ResultCache(capacity=64)
        batcher = MicroBatcher(manager, cache)
        pairs = [("a", "e"), ("e", "a"), ("f", "i")]
        first = batcher.submit_many(pairs)
        second = batcher.submit_many(pairs)
        assert first == second
        stats = cache.stats()
        assert stats["hits"] == len(pairs)
        assert stats["misses"] == len(pairs)

    def test_swap_invalidates_by_epoch(self):
        manager = make_manager()
        cache = ResultCache(capacity=64)
        batcher = MicroBatcher(manager, cache)
        assert batcher.submit_many([("a", "e")]) == (0, [True])
        manager.add_edge("e", "zz", create=True)
        manager.swap()
        epoch, answers = batcher.submit_many([("a", "zz"), ("a", "e")])
        assert (epoch, answers) == (1, [True, True])
        # the epoch-0 entry is still cached but unreachable by key
        assert cache.get(0, "a", "e") is True
        assert cache.get(1, "a", "zz") is True

    def test_mixed_epoch_batches_never_escape(self):
        """A swap racing the cache pass re-resolves the whole batch."""
        manager = make_manager()
        cache = ResultCache(capacity=64)
        batcher = MicroBatcher(manager, cache)
        batcher.submit_many([("a", "e")])        # warm the cache at 0

        real_query_many = manager.query_many
        swapped = {"done": False}

        def racing_query_many(pairs):
            # a writer promotes a new snapshot between the cache pass
            # (which already answered ("a","e") at epoch 0) and the
            # kernel call for the misses
            if not swapped["done"]:
                swapped["done"] = True
                manager.add_edge("e", "zz", create=True)
                manager.swap()
            return real_query_many(pairs)

        manager.query_many = racing_query_many
        try:
            epoch, answers = batcher.submit_many([("a", "e"), ("f", "i")])
        finally:
            manager.query_many = real_query_many
        assert epoch == 1                        # the whole batch moved
        assert answers == [True, True]
