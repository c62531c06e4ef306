"""Run one workload of the repository's benchmark and print its metrics.

    python3 perfbench/run.py --workload point-zipf --seed 1 --seconds 6 --trace 0

Run from the root of a checkout: the program is imported from its
``src`` directory (pure Python, nothing to compile).  Prints one line
per metric (name, value, unit), then a JSON line ``{"record": ...}``
with provenance, schedule digests and per-op failure accounting, and
last the result object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones and writes the spans to
``.perfbench/traces/``.  Workloads and metrics: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, scale: float = 1.0) -> int:
    """Run one workload; ``scale`` < 1 shrinks it (the benchmark's tests)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from children import become_subreaper, reap_children
    from server import BENCH_CPU, pin
    from session import Run
    from spec import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    pin(os.getpid(), BENCH_CPU)
    become_subreaper()

    # SIGTERM unwinds like an exception, so servers and scratch files
    # are cleaned up by the finally blocks below
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = Run(args.workload, args.seed, args.seconds,
                      bool(args.trace), ROOT, SRC, workdir,
                      scale=scale).execute()
    finally:
        # a second SIGTERM must not cut the clean-up short
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
    result = outcome["result"]
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"record": outcome["record"]}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
