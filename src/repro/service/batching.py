"""Micro-batching: coalesce concurrent queries into one kernel call.

The static index answers a 256-query batch barely slower than a single
query once the per-call overhead (attribute lookups, kernel dispatch,
OBS bookkeeping) is paid, so the cheapest way to serve many concurrent
clients is to queue single queries as they arrive and hand each batch
to :meth:`ChainIndex.is_reachable_many` at once.

By default the first query of a flush waits ``max_wait_us`` for
company.  With ``max_wait_us=0`` the flush is work-conserving (group
commit): the flush loop answers whatever is queued the moment it wakes,
yields once to the event loop, and then answers whatever arrived during
that flush, so a lone query never waits and batches grow with
concurrency on their own.

Policy knobs:

* ``max_batch`` — largest coalesced batch handed to the kernel;
* ``max_wait_us`` — how long the first query in a flush waits for
  companions (default 900).  The sub-millisecond part of the window is
  slept on the loop thread, since the event loop can only wait in whole
  milliseconds.  0 selects group commit;
* ``max_pending`` — bound on queued queries.  At the bound,
  :meth:`submit` fails fast with :class:`OverloadedError` — explicit
  backpressure instead of unbounded buffering.

Answers resolve through the :class:`~repro.service.cache.ResultCache`
first (keyed by epoch, so a snapshot swap invalidates by
construction); cache misses go to the manager in one batch, and every
result a client sees is tagged with the epoch it is exact for.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque

from repro.obs import OBS, Histogram
from repro.service.cache import ResultCache
from repro.service.errors import OverloadedError, ServiceError
from repro.service.manager import IndexManager

__all__ = ["MicroBatcher", "BATCH_SIZE_BUCKETS"]

#: histogram bucket upper bounds for the batch-size distribution
#: (``service/batch_size/{bucket}``); sizes above the last bound count
#: into ``inf``.
BATCH_SIZE_BUCKETS = (1, 4, 16, 64, 256)


def _bucket_name(size: int) -> str:
    for bound in BATCH_SIZE_BUCKETS:
        if size <= bound:
            return f"le-{bound}"
    return "inf"


class MicroBatcher:
    """Coalesces concurrently submitted queries (one per event loop)."""

    def __init__(self, manager: IndexManager,
                 cache: ResultCache | None = None, *,
                 max_batch: int = 128, max_wait_us: int = 900,
                 max_pending: int = 1024) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self._manager = manager
        self._cache = cache
        self.max_batch = max_batch
        self.max_wait_us = max_wait_us
        self.max_pending = max_pending
        # (pair, Future, Trace | None, enqueued_at) entries
        self._pending: deque = deque()
        self._wakeup: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        self._closed = False
        # always-on stats for the `stats` verb (OBS mirrors them when
        # the registry is enabled)
        self.batches = 0
        self.coalesced = 0
        self.largest_batch = 0
        self.overloaded = 0
        self.size_buckets: dict[str, int] = {}
        #: enqueue → flush wait per queued query (seconds)
        self.queue_wait = Histogram()
        #: duration of one coalesced kernel call (seconds)
        self.kernel_batch = Histogram()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the flush loop on the running event loop."""
        if self._task is not None:
            return
        self._wakeup = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="repro-service-flush")

    async def close(self, drain: bool = True) -> None:
        """Stop the flush loop; with ``drain`` resolve queued queries."""
        self._closed = True
        if self._task is not None:
            self._wakeup.set()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if drain:
            self._flush_all()
        else:
            while self._pending:
                _, future, _, _ = self._pending.popleft()
                if not future.done():
                    future.set_exception(
                        ServiceError("batcher closed before flush"))

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(self, source, target,
                     trace=None) -> tuple[int, bool]:
        """Queue one query; resolves to ``(epoch, reachable)``.

        Raises :class:`OverloadedError` immediately when the queue is
        at ``max_pending`` — the caller (the server) turns that into
        the wire-level ``overloaded`` error.  A
        :class:`~repro.service.tracing.Trace` passed in rides along
        and collects ``enqueue`` / ``flush`` / ``cache`` / ``kernel``
        marks as the query crosses the batcher.
        """
        if self._closed:
            raise ServiceError("service is shutting down")
        if len(self._pending) >= self.max_pending:
            self.overloaded += 1
            if OBS.enabled:
                OBS.count("service/overloaded")
            raise OverloadedError(len(self._pending), self.max_pending)
        if trace is not None:
            trace.mark("enqueue", queue_depth=len(self._pending))
        future = asyncio.get_running_loop().create_future()
        self._pending.append(((source, target), future, trace,
                              time.perf_counter()))
        if self._wakeup is not None:
            self._wakeup.set()
        return await future

    def submit_many(self, pairs: list,
                    trace=None) -> tuple[int, list[bool]]:
        """Answer an already-batched request inline (no queue).

        ``query_batch`` arrives pre-coalesced, so it bypasses the queue
        and its backpressure bound (the wire framing bounds its size)
        but still runs through the cache and counts as one kernel
        batch.  One trace covers the whole batch.
        """
        if self._closed:
            raise ServiceError("service is shutting down")
        self._note_batch(len(pairs))
        if trace is not None:
            trace.mark("flush", batch=len(pairs), inline=True)
        traces = [trace] + [None] * (len(pairs) - 1) if trace else None
        return self._resolve(pairs, traces)

    @property
    def queue_depth(self) -> int:
        """Queries currently queued for the next flush."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # the flush loop
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        wakeup = self._wakeup
        while True:
            await wakeup.wait()
            wakeup.clear()
            if self._closed:
                return
            while self._pending:
                if self.max_wait_us and len(self._pending) < self.max_batch:
                    # coalescing window: let concurrent submitters pile
                    # into this flush
                    await self._coalesce()
                try:
                    self._flush_once()
                except Exception:  # noqa: BLE001 - a poisoned batch must
                    # never kill the flush loop: every later query would
                    # hang until its request timeout
                    if OBS.enabled:
                        OBS.count("service/flush_errors")
                # group commit: yield once so submitters that arrived
                # during the flush join the next one
                await asyncio.sleep(0)
                if self._closed:
                    return

    async def _coalesce(self) -> None:
        """Hold the flush open for ``max_wait_us``.

        The event loop waits in whole milliseconds (epoll rounds a
        timeout up), so ``asyncio.sleep(0.0005)`` held a flush for
        ~1.2 ms.  Whole milliseconds are waited on the loop; the rest
        of the window is slept on the loop thread, so the loop blocks
        for less than 1 ms, and requests of every kind that arrive
        meanwhile are read when it ends.  Sleeping the rest on an
        executor thread instead kept the loop free but cost the
        hand-off back: point round trips 0.14 ms slower at 900 µs.
        Yields after the window read the sockets that became readable
        and let their handlers queue before the flush.
        """
        window = self.max_wait_us / 1e6
        deadline = time.perf_counter() + window
        whole = int(window * 1e3) / 1e3
        if whole:
            await asyncio.sleep(whole)
        else:
            await asyncio.sleep(0)           # take in what already arrived
        rest = deadline - time.perf_counter()
        if rest > 0:
            time.sleep(rest)
        # one yield reads the ready sockets, one runs their handlers,
        # one lets this loop run after them
        for _ in range(3):
            await asyncio.sleep(0)

    def _flush_all(self) -> None:
        while self._pending:
            self._flush_once()

    def _flush_once(self) -> None:
        pending = self._pending
        batch = [pending.popleft()
                 for _ in range(min(len(pending), self.max_batch))]
        if OBS.enabled:
            OBS.gauge("service/queue_depth", len(pending))
        entries = [entry for entry in batch if not entry[1].done()]
        if not entries:                      # all timed out / cancelled
            return
        self._note_batch(len(entries))
        now = time.perf_counter()
        obs_enabled = OBS.enabled
        for _, _, trace, enqueued_at in entries:
            waited = max(0.0, now - enqueued_at)
            self.queue_wait.observe(waited)
            if obs_enabled:
                OBS.observe("service/queue_wait", waited)
            if trace is not None:
                trace.mark("flush", batch=len(entries),
                           queue_depth=len(pending))
        pairs = [pair for pair, _, _, _ in entries]
        traces = [trace for _, _, trace, _ in entries]
        try:
            epoch, answers = self._resolve(pairs, traces)
        except Exception:  # noqa: BLE001 - e.g. unknown node (GraphError)
            # or an unhashable pair from wire JSON (TypeError); one bad
            # pair must fail only its own query, not the whole batch
            self._resolve_individually(entries)
            return
        for (_, future, _, _), answer in zip(entries, answers):
            if not future.done():
                future.set_result((epoch, answer))

    def _resolve_individually(self, entries: list) -> None:
        """Per-pair fallback so one bad pair fails only its query."""
        for pair, future, trace, _ in entries:
            if future.done():
                continue
            try:
                epoch, answers = self._manager.query_many([pair])
            except Exception as exc:  # noqa: BLE001 - routed to the future
                future.set_exception(exc)
            else:
                if trace is not None:
                    trace.epoch = epoch
                    trace.mark("kernel", epoch=epoch, batch=1)
                future.set_result((epoch, answers[0]))

    def _timed_query_many(self, pairs: list) -> tuple[int, list[bool]]:
        """One kernel call, timed into the ``kernel_batch`` histogram."""
        kernel_start = time.perf_counter()
        epoch, answers = self._manager.query_many(pairs)
        elapsed = time.perf_counter() - kernel_start
        self.kernel_batch.observe(elapsed)
        if OBS.enabled:
            OBS.observe("service/kernel_batch", elapsed)
        return epoch, answers

    def _resolve(self, pairs: list,
                 traces: list | None = None) -> tuple[int, list[bool]]:
        """Cache + kernel resolution, consistent at one epoch.

        Looks the batch up in the cache at the current epoch, answers
        the misses in one kernel call, and re-resolves from scratch in
        the rare case a swap lands between the cache pass and the
        kernel call (so hits and misses can never mix epochs).
        """
        manager = self._manager
        cache = self._cache
        if traces is None:
            traces = [None] * len(pairs)
        if cache is None:
            epoch, answers = self._timed_query_many(pairs)
            for trace in traces:
                if trace is not None:
                    trace.epoch = epoch
                    trace.mark("kernel", epoch=epoch, batch=len(pairs))
            return epoch, answers
        epoch = manager.epoch
        answers: list = [None] * len(pairs)
        miss_positions = []
        hits = 0
        for position, (source, target) in enumerate(pairs):
            cached = cache.get(epoch, source, target, traces[position])
            if cached is None:
                miss_positions.append(position)
            else:
                answers[position] = cached
                hits += 1
        if OBS.enabled:
            if hits:
                OBS.count("service/cache_hits", hits)
            if miss_positions:
                OBS.count("service/cache_misses", len(miss_positions))
        if not miss_positions:
            return epoch, answers
        miss_pairs = [pairs[position] for position in miss_positions]
        kernel_epoch, kernel_answers = self._timed_query_many(miss_pairs)
        if kernel_epoch != epoch and hits:
            # a swap raced the cache pass; the hits answered for the
            # old epoch, so take the whole batch from the new snapshot
            kernel_epoch, kernel_answers = self._timed_query_many(pairs)
            for (source, target), answer in zip(pairs, kernel_answers):
                cache.put(kernel_epoch, source, target, answer)
            for trace in traces:
                if trace is not None:
                    # stale cache hits were re-answered by the kernel
                    trace.klass = None
                    trace.epoch = kernel_epoch
                    trace.mark("kernel", epoch=kernel_epoch,
                               batch=len(pairs))
            return kernel_epoch, kernel_answers
        for position, answer in zip(miss_positions, kernel_answers):
            source, target = pairs[position]
            cache.put(kernel_epoch, source, target, answer)
            answers[position] = answer
            trace = traces[position]
            if trace is not None:
                trace.epoch = kernel_epoch
                trace.mark("kernel", epoch=kernel_epoch,
                           batch=len(miss_pairs))
        return kernel_epoch, answers

    def _note_batch(self, size: int) -> None:
        self.batches += 1
        self.coalesced += size
        if size > self.largest_batch:
            self.largest_batch = size
        bucket = _bucket_name(size)
        self.size_buckets[bucket] = self.size_buckets.get(bucket, 0) + 1
        if OBS.enabled:
            OBS.count("service/batches")
            OBS.count(f"service/batch_size/{bucket}")

    def stats(self) -> dict:
        """Counters for the ``stats`` verb and the bench report."""
        return {
            "batches": self.batches,
            "coalesced_queries": self.coalesced,
            "mean_batch_size": (self.coalesced / self.batches
                                if self.batches else 0.0),
            "largest_batch": self.largest_batch,
            "queue_depth": len(self._pending),
            "overloaded": self.overloaded,
            "size_buckets": dict(self.size_buckets),
            "max_batch": self.max_batch,
            "max_wait_us": self.max_wait_us,
            "max_pending": self.max_pending,
            "queue_wait": self.queue_wait.summary(),
            "kernel_batch": self.kernel_batch.summary(),
        }
