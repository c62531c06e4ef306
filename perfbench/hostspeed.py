"""Host speed, sampled on each CPU between timed operations.

The machines this benchmark runs on are shared: each CPU's speed
drifts by up to 2x over periods of a fraction of a second to minutes,
independently on each CPU, with little steal time to show for it.  So a
CPU-bound time is reported *normalised*: its wall time multiplied by
``REFERENCE_CHUNK_S / c``, where ``c`` is the time a fixed pure-Python
calibration chunk took on the CPU that did the work, measured just
before and just after the operation.  The result reads as seconds on
a host where the chunk takes :data:`REFERENCE_CHUNK_S`.  The raw wall
times stay in the run record.

The benchmark process samples its own CPU in process.  The server's
CPU is sampled by a helper (this file run as a script) pinned to that
CPU, which answers each request line with the chunk's time.  The two
samples run one after the other, while the server is idle.

    python3 perfbench/hostspeed.py    # helper: one chunk time per input line
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from children import die_with_parent

#: Calibration chunk time on the reference host, seconds (about its
#: time on an idle 2-CPU Intel Xeon host, so normalised and wall
#: times are alike there).
REFERENCE_CHUNK_S = 0.016
#: Chunks per sample; the sample is their median.
CHUNKS = 3


#: What the chunk searches and serialises (fixed, built at import).
_SORTED = sorted(random.Random(7).sample(range(10**7), 50_000))
_ROWS = [[number, number * 3, str(number)] for number in range(4000)]


def chunk() -> float:
    """Seconds one fixed calibration chunk takes here, now.

    Binary searches over a sorted list and a JSON round trip, the kinds
    of work the program's probe, persistence and wire paths do.  Of the
    chunks tried (a dict-and-sort loop, random access into a large list,
    this one), this one's slowdowns tracked those of build, the batch
    kernel, save and load most closely.
    """
    started = time.perf_counter()
    search = bisect.bisect_left
    for key in range(0, 10**7, 500):
        search(_SORTED, key)
    json.loads(json.dumps(_ROWS))
    return time.perf_counter() - started


def measure() -> float:
    """Median of :data:`CHUNKS` chunks, with the collector paused.

    Paused, the chunk times the interpreter alone, not a collection of
    whatever heap the sampling process holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(chunk() for _ in range(CHUNKS))
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class Point:
    """One sample: when, and the chunk time on each CPU."""

    at: float
    bench: float
    server: float


def factor(chunks: list[float]) -> float:
    """Normalising factor for work done while ``chunks`` were sampled."""
    return REFERENCE_CHUNK_S / statistics.fmean(chunks)


def between(before: Point, after: Point, cpus: str) -> float:
    """Normalising factor of the interval between two samples.

    ``cpus`` names the CPUs that did the interval's work: ``"bench"``
    (in-process work), ``"server"`` (a server-side rebuild) or
    ``"both"`` (a round trip, client and server work).
    """
    names = ("bench", "server") if cpus == "both" else (cpus,)
    return factor([getattr(point, name) for point in (before, after)
                   for name in names])


class HostSpeed:
    """Samples the benchmark's CPU in process and the server's by helper."""

    def __init__(self) -> None:
        self.points: list[Point] = []
        #: samples the server's CPU once the caller has pinned it there
        self.helper = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=die_with_parent)

    def sample(self) -> Point:
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        line = self.helper.stdout.readline()
        if not line:
            raise RuntimeError("host-speed helper exited")
        point = Point(time.perf_counter(), measure(), json.loads(line))
        self.points.append(point)
        return point

    def summary(self) -> dict:
        """Chunk times seen on each CPU over the run."""
        out = {"reference_chunk_s": REFERENCE_CHUNK_S,
               "samples": len(self.points)}
        for name in ("bench", "server"):
            values = [getattr(point, name) for point in self.points]
            if values:
                out[name] = {"median": statistics.median(values),
                             "min": min(values), "max": max(values)}
        return out

    def close(self) -> None:
        self.helper.stdin.close()
        if self.helper.poll() is None:
            try:
                self.helper.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.helper.kill()
                self.helper.wait()
        self.helper.stdout.close()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def steal_ticks() -> int | None:
    """Steal time of all CPUs so far (``/proc/stat``, clock ticks)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def serve_samples() -> None:
    for _ in sys.stdin:
        sys.stdout.write(json.dumps(measure()) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve_samples()
