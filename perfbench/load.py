"""Closed-loop load over at most two connections, and its statistics.

Each caller owns one :class:`~repro.service.client.ServiceClient` and
sends its next request only after the reply to the previous one, the
way an application calls a reachability service.  A caller either
sends its requests once, in order (fixed-count probes, whose writes
must keep their order), or cycles through them until the phase's
``seconds`` have passed (the timed main phase).
"""

from __future__ import annotations

import gc
import itertools
import math
import statistics
import threading
import time
from dataclasses import dataclass, field

from repro.service.client import ServiceClient
from repro.service.errors import RemoteError, ServiceError

#: A reply slower than this counts as a failed (timed out) request; it
#: exceeds the server's own request timeout, which answers first.
CLIENT_TIMEOUT_S = 90.0


@dataclass
class Caller:
    requests: list[dict]
    #: cycle through ``requests`` until the deadline, instead of once
    repeat: bool = False


@dataclass
class Sample:
    """One request as sent, its reply (``None``: connection dropped)."""

    op: str
    request: dict
    response: dict | None
    started: float
    rtt: float
    #: host-speed factor of the slice that sent it (see ``hostspeed``)
    factor: float = 1.0

    @property
    def ok(self) -> bool:
        return self.response is not None and bool(self.response.get("ok"))


@dataclass
class Phase:
    """Every request a phase sent, in per-caller order.

    A phase may run in slices spread over the run; each slice adds its
    callers' sample lists.
    """

    name: str
    callers: list[list[Sample]] = field(default_factory=list)
    seconds: float = 0.0
    #: ``seconds`` with each slice normalised for host speed
    scaled_seconds: float = 0.0
    #: the server's ``stats`` before and after each slice of the phase
    stats: list[tuple[dict, dict]] = field(default_factory=list)

    def extend(self, other: "Phase") -> None:
        """Append another slice of the same phase."""
        self.callers.extend(other.callers)
        self.seconds += other.seconds
        self.scaled_seconds += other.scaled_seconds
        self.stats.extend(other.stats)

    @property
    def samples(self) -> list[Sample]:
        return [sample for caller in self.callers for sample in caller]

    def rtts(self, op: str) -> list[float]:
        return [s.rtt for s in self.samples if s.op == op and s.ok]

    def scaled_rtts(self, op: str) -> list[float]:
        """Round trips of ``op``, each normalised for host speed."""
        return [s.rtt * s.factor for s in self.samples
                if s.op == op and s.ok]


def _send(client: ServiceClient, request: dict) -> tuple[dict | None, float, float]:
    started = time.perf_counter()
    try:
        response = client.call(request)
    except RemoteError as exc:
        response = {"ok": False, "error": exc.code, "message": str(exc)}
    except ServiceError:
        response = None
    return response, started, time.perf_counter() - started


def drive(address: tuple[str, int], callers: list[Caller], name: str, *,
          seconds: float = 0.0, trace: bool = False) -> Phase:
    """Run ``callers`` concurrently until the phase is over.

    With ``trace``, every other read carries ``"trace": true`` so the
    traced run compares traced and untraced round trips under the same
    load.  The collector is paused while the callers run: a full
    collection of this process's heap would otherwise add its pause to
    whichever round trip it interrupts.
    """
    host, port = address
    phase = Phase(name, [[] for _ in callers])
    errors: list[BaseException] = []
    started = time.perf_counter()
    deadline = started + seconds

    def run(slot: int) -> None:
        caller = callers[slot]
        requests = caller.requests
        out = phase.callers[slot]
        client = ServiceClient(host, port, timeout=CLIENT_TIMEOUT_S)
        try:
            for position in itertools.count():
                if caller.repeat:
                    if time.perf_counter() >= deadline:
                        break
                    request = requests[position % len(requests)]
                elif position < len(requests):
                    request = requests[position]
                else:
                    break
                if trace and request["op"] in ("query", "query_batch") \
                        and len(out) % 2 == 0:
                    request = dict(request, trace=True)
                response, sent, rtt = _send(client, request)
                out.append(Sample(request["op"], request, response, sent, rtt))
                if response is None:         # dropped: reconnect and go on
                    client.close()
                    client = ServiceClient(host, port, timeout=CLIENT_TIMEOUT_S)
        except BaseException as exc:  # noqa: BLE001 - re-raised after join
            errors.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=run, args=(slot,), daemon=True)
               for slot in range(len(callers))]
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()
    phase.seconds = time.perf_counter() - started
    if errors:
        raise errors[0]
    return phase


def server_stats(address: tuple[str, int]) -> dict:
    with ServiceClient(*address, timeout=CLIENT_TIMEOUT_S) as client:
        return client.stats()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: list[float]) -> float:
    """The median; the mean of the middle two for an even count."""
    return statistics.median(values)
