"""The wire ``timeout`` error and its interplay with shutdown.

A request past ``request_timeout`` is cancelled by a loop timer that
targets the connection's own task.  These tests park a request
deterministically (the query never leaves the batcher), check that the
timer's cancellation becomes ``{"ok": false, "error": "timeout"}`` and
leaves the connection usable, and that a shutdown's cancellation is
never reported as a timeout.  Each scenario also runs on tasks without
cancel-request counting (no ``Task.uncancel``), as on Python 3.10.
"""

import asyncio
import json

import pytest

from repro import DiGraph
from repro.service import IndexManager, ReachabilityService

from tests.conftest import PAPER_FIG1_EDGES


class _UncountedTask(asyncio.tasks._PyTask):
    """A task without ``uncancel``/``cancelling``, as on Python 3.10."""

    uncancel = None
    cancelling = None


def _uncounted_task_factory(loop, coro, **kwargs):
    return _UncountedTask(coro, loop=loop, **kwargs)


TASK_KINDS = pytest.mark.parametrize(
    "task_factory", [None, _uncounted_task_factory],
    ids=["counted-cancels", "py310-uncounted"])


def parked_service(**options) -> tuple[ReachabilityService, list]:
    """A service whose ``query`` verb never gets an answer.

    Returns the service and a list that records, per parked query, how
    many cancel requests its task carried on arrival (``None`` where
    the task does not count them).
    """
    service = ReachabilityService(
        IndexManager.from_graph(DiGraph.from_edges(PAPER_FIG1_EDGES)),
        port=0, **options)
    arrivals = []

    async def parked_submit(source, target, trace=None):
        cancelling = getattr(asyncio.current_task(), "cancelling", None)
        arrivals.append(cancelling() if cancelling else None)
        await asyncio.Event().wait()             # never set

    service.batcher.submit = parked_submit
    return service, arrivals


async def exchange(reader, writer, request: dict):
    writer.write(json.dumps(request).encode() + b"\n")
    await writer.drain()
    line = await reader.readline()
    return json.loads(line) if line else None


@TASK_KINDS
def test_parked_query_times_out_and_the_connection_survives(task_factory):
    async def scenario():
        if task_factory is not None:
            asyncio.get_running_loop().set_task_factory(task_factory)
        service, arrivals = parked_service(request_timeout=0.05)
        host, port = await service.start()
        reader, writer = await asyncio.open_connection(host, port)
        query = {"op": "query", "source": "a", "target": "e"}
        first = await exchange(reader, writer, dict(query, id=1))
        second = await exchange(reader, writer, dict(query, id=2))
        pong = await exchange(reader, writer, {"op": "ping", "id": 3})
        writer.close()
        await writer.wait_closed()
        await service.shutdown()
        return first, second, pong, arrivals, service.stats()

    first, second, pong, arrivals, stats = asyncio.run(scenario())
    for request_id, response in ((1, first), (2, second)):
        assert response["ok"] is False
        assert response["error"] == "timeout"
        assert response["id"] == request_id
    assert pong == {"ok": True, "epoch": 0, "id": 3}
    # the timer's cancel request was withdrawn before the next request
    if task_factory is None and hasattr(asyncio.Task, "uncancel"):
        assert arrivals == [0, 0]
    assert stats["latency"]["error"]["count"] == 2


@TASK_KINDS
def test_shutdown_cancellation_is_not_a_timeout(task_factory):
    async def scenario():
        if task_factory is not None:
            asyncio.get_running_loop().set_task_factory(task_factory)
        service, arrivals = parked_service(request_timeout=30.0,
                                           drain_grace=0.05)
        host, port = await service.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b'{"op": "query", "source": "a", "target": "e"}\n')
        await writer.drain()
        while not arrivals:                      # the query is parked
            await asyncio.sleep(0.001)
        await service.shutdown()
        tail = await asyncio.wait_for(reader.read(), 5.0)
        writer.close()
        await writer.wait_closed()
        return tail, service.errors

    tail, errors = asyncio.run(scenario())
    # the drain cancelled the parked request: the connection closes
    # without an answer, and no timeout was reported or counted
    assert tail == b""
    assert errors == 0
