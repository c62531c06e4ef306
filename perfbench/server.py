"""Start and stop ``repro serve`` the way its users do.

The server runs in its own process, launched as ``python -m repro.cli
serve GRAPH --port 0 --ready-file FILE`` with the checkout's ``src`` on
``PYTHONPATH``.  Its set-up time is launch to ready-file: interpreter
start, graph parse, index build, kernel prebuild and listen.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from children import die_with_parent

#: Writes the run sends stay far below this, so the server never swaps
#: on its own and the swap count is the script's on every commit.
SWAP_AFTER = 1_000_000
#: A delete or reload rebuilds the index: 2-4 s at 8e4 nodes, twice that
#: when the host is slow.  The default 10 s request timeout would turn a
#: slow rebuild into a failed request instead of a slow one.
REQUEST_TIMEOUT_S = 60
START_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 30.0
#: With two or more CPUs the servers run on this one and the benchmark
#: process (load generator, cold path) on :data:`BENCH_CPU`, so client
#: and server never queue for the same core.
SERVER_CPU = 1
BENCH_CPU = 0


def pin(pid: int, cpu: int) -> None:
    """Bind ``pid`` (and threads it starts later) to ``cpu``, if present."""
    if hasattr(os, "sched_setaffinity") and cpu in os.sched_getaffinity(0) \
            and len(os.sched_getaffinity(0)) > 1:
        os.sched_setaffinity(pid, {cpu})


class ServerProcess:
    """One ``serve`` child process; use as a context manager."""

    def __init__(self, graph_path: Path, workdir: Path, src: Path,
                 engine: str, tag: str) -> None:
        self.ready_path = workdir / f"ready-{tag}.json"
        self.log_path = workdir / f"server-{tag}.log"
        self.ready_path.unlink(missing_ok=True)
        command = [sys.executable, "-m", "repro.cli", "serve", str(graph_path),
                   "--port", "0", "--ready-file", str(self.ready_path),
                   "--engine", engine, "--swap-after", str(SWAP_AFTER),
                   "--request-timeout", str(REQUEST_TIMEOUT_S)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        self._log = open(self.log_path, "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(command, env=env,
                                        stdout=subprocess.DEVNULL,
                                        stderr=self._log,
                                        preexec_fn=die_with_parent)
        pin(self.process.pid, SERVER_CPU)
        try:
            self.address = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_ready(self) -> tuple[str, int]:
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"serve exited with {self.process.returncode}: "
                    f"{self.log_tail()}")
            try:
                text = self.ready_path.read_text(encoding="utf-8")
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                ready = json.loads(text)
                return ready["host"], ready["port"]
            time.sleep(0.005)
        raise RuntimeError(f"serve not ready after {START_TIMEOUT_S}s")

    def hwm_mb(self) -> float:
        """High-water RSS (``VmHWM``) of the server process, MB."""
        return vm_hwm_mb(self.process.pid)

    def log_tail(self) -> str:
        self._log.flush()
        return self.log_path.read_text(errors="replace")[-2000:]

    def stop(self) -> None:
        """Drain (SIGTERM, like an orchestrator) and wait for exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _status_mb(field: str, pid: int | str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} for process {pid}")


def vm_hwm_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak RSS) of a process in MB (Linux ``/proc``)."""
    return _status_mb("VmHWM", pid)


def vm_rss_mb(pid: int | str = "self") -> float:
    """``VmRSS`` of a process in MB."""
    return _status_mb("VmRSS", pid)


def reset_hwm() -> None:
    """Reset this process's ``VmHWM`` to its current RSS.

    Where the kernel refuses, the high-water mark stays cumulative since
    process start.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass
