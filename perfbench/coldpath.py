"""One cold-path cycle in a fresh process: build, save, load.

    python3 perfbench/coldpath.py WORKLOAD SCALE INDEX_PATH PAIRS_PATH

Regenerates the workload's graph, then times
``ChainIndex.build``, ``save_index`` (to INDEX_PATH) and
``load_index``, each between two host-speed samples of this CPU (see
:mod:`hostspeed`).  Reads this process's peak RSS once the index is
loaded, then checks the loaded index against the built one on the
pairs in PAIRS_PATH (a JSON list).  Prints one JSON object: raw and
normalised times, the samples, the peak RSS and the check.

A fresh process per cycle makes the peak RSS that of one build, save
and load of the workload's graph, with nothing of the benchmark's own
state resident.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from repro.core.index import ChainIndex
    from repro.core.persistence import load_index, save_index

    import hostspeed
    import spec
    from server import vm_hwm_mb

    name, scale, index_path, pairs_path = argv
    workload = spec.WORKLOADS[name]
    graph = spec.make_graph(workload, float(scale))
    chunks = [hostspeed.measure()]
    raw = {}

    def timed(metric: str, call):
        started = time.perf_counter()
        value = call()
        raw[metric] = time.perf_counter() - started
        chunks.append(hostspeed.measure())
        return value

    built = timed("build_s", lambda: ChainIndex.build(
        graph, method=workload.method, codec=workload.codec))
    timed("save_s", lambda: save_index(built, index_path))
    loaded = timed("load_s", lambda: load_index(index_path))
    peak = vm_hwm_mb()
    pairs = [tuple(pair) for pair in
             json.loads(Path(pairs_path).read_text(encoding="utf-8"))]
    mismatches = sum(a != b for a, b in zip(built.is_reachable_many(pairs),
                                            loaded.is_reachable_many(pairs)))
    normalised = {metric: seconds * hostspeed.factor(chunks[at:at + 2])
                  for at, (metric, seconds) in enumerate(raw.items())}
    print(json.dumps({"raw": raw, "normalised": normalised, "chunks": chunks,
                      "peak_rss_mb": peak, "pairs": len(pairs),
                      "mismatches": mismatches}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
