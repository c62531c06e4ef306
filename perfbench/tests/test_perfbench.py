"""The benchmark's own checks: inputs, correctness checks, output names."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from repro.bench.replay import schedule_to_bytes
from repro.core.index import ChainIndex
from repro.graph.io import dumps

import check
import hostspeed
import session
import spec
from load import Sample, median

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
TINY = 0.02
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _inputs(name: str, seed: int, tmp_path) -> session.Run:
    run = session.Run(name, seed, 0.0, False, ROOT, ROOT / "src", tmp_path,
                      scale=TINY)
    run.make_inputs()
    return run


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = _inputs(name, 7, tmp_path)
    second = _inputs(name, 7, tmp_path)
    other = _inputs(name, 8, tmp_path)
    assert dumps(first.graph) == dumps(second.graph)
    assert dumps(first.graph) == dumps(other.graph)     # one graph per workload
    assert schedule_to_bytes(first.schedules["batch-probe"]) != \
        schedule_to_bytes(other.schedules["batch-probe"])
    assert first.schedules.keys() == second.schedules.keys()
    for key, schedule in first.schedules.items():
        assert schedule_to_bytes(schedule) == \
            schedule_to_bytes(second.schedules[key]), key


def _sample(request: dict, response: dict) -> Sample:
    return Sample(request["op"], request, dict(response, ok=True), 0.0, 1e-3)


def test_wrong_wire_answers_are_caught():
    graph = spec.make_graph(spec.WORKLOADS["point-zipf"], TINY)
    reference = ChainIndex.build(graph)
    pairs = [(source, target) for source in range(0, 60, 7)
             for target in range(0, 60, 5)]
    truth = reference.is_reachable_many(pairs)
    versions = check.Versions(graph)
    good = [_sample({"op": "query", "source": s, "target": t},
                    {"epoch": 0, "reachable": answer})
            for (s, t), answer in zip(pairs, truth)]
    assert check.wrong_samples(good, reference, versions) == []

    flipped = list(truth)
    flipped[3] = not flipped[3]
    bad = _sample({"op": "query_batch", "pairs": [list(p) for p in pairs]},
                  {"epoch": 0, "reachable": flipped})
    wrong = check.wrong_samples(good + [bad], reference, versions)
    assert wrong == [bad]
    assert check.account(good + [bad], wrong)["query_batch"] == \
        {"attempted": 1, "failed": 1}


def test_answers_after_reload_are_checked_against_the_new_graph():
    graph = spec.make_graph(spec.WORKLOADS["point-zipf"], TINY)
    reference = ChainIndex.build(graph)
    fresh = graph.num_nodes
    writes = [_sample({"op": "add_edge", "source": fresh, "target": 0,
                       "create": True}, {"epoch": 0}),
              _sample({"op": "reload"}, {"epoch": 1})]
    versions = check.Versions(graph)
    versions.observe(writes)
    right = _sample({"op": "query", "source": fresh, "target": 0},
                    {"epoch": 1, "reachable": True})
    stale = _sample({"op": "query", "source": fresh, "target": 0},
                    {"epoch": 1, "reachable": False})
    unknown_epoch = _sample({"op": "query", "source": 1, "target": 0},
                            {"epoch": 2, "reachable": True})
    assert check.wrong_samples([right, stale, unknown_epoch], reference,
                               versions) == [stale, unknown_epoch]


def test_bfs_sample_catches_a_wrong_index():
    graph = spec.make_graph(spec.WORKLOADS["cold-start"], TINY)
    index = ChainIndex.build(graph, method="concat")
    pairs = [(source, (source * 7 + 3) % graph.num_nodes)
             for source in range(graph.num_nodes)]
    checked, wrong = check.bfs_sample(graph, index, pairs)
    assert (checked, wrong) == (1000, 0)

    class Inverted:
        def is_reachable_many(self, grid):
            return [not answer for answer in index.is_reachable_many(grid)]

    assert check.bfs_sample(graph, Inverted(), pairs) == (1000, 1000)


def test_benchmark_json_names_what_the_runs_report():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        session.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        {name: session.per_layer_unit(name)
         for name in session.per_layer_names()}


def test_host_speed_factors_use_the_named_cpus():
    before = hostspeed.Point(0.0, bench=0.010, server=0.030)
    after = hostspeed.Point(1.0, bench=0.030, server=0.050)
    ref = hostspeed.REFERENCE_CHUNK_S
    assert hostspeed.between(before, after, "bench") == pytest.approx(ref / 0.020)
    assert hostspeed.between(before, after, "server") == pytest.approx(ref / 0.040)
    assert hostspeed.between(before, after, "both") == pytest.approx(ref / 0.030)


def test_host_speed_helper_samples_and_stops():
    with hostspeed.HostSpeed() as speed:
        point = speed.sample()
        assert point.bench > 0 and point.server > 0
    assert speed.helper.poll() == 0
    assert speed.summary()["samples"] == 1


def test_median_is_the_true_median():
    assert median([3.0, 1.0]) == 2.0
    assert median([5.0, 1.0, 3.0]) == 3.0


def _tiny_run(name: str, trace: int) -> dict:
    """``run.main`` at :data:`TINY` scale, in a process of its own."""
    argv = ["--workload", name, "--seed", "5", "--seconds", "0.5",
            "--trace", str(trace)]
    script = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import run; "
              f"sys.exit(run.main({argv!r}, scale={TINY!r}))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=600, cwd=ROOT)
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_tiny_pass_reports_every_metric(name):
    plain = _tiny_run(name, 0)
    assert plain["correct"] and plain["failed"] == 0
    assert plain["attempted"] >= 1
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = _tiny_run(name, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def _session_members(session_id: int) -> list[str]:
    """Command lines of the processes in session ``session_id``."""
    members = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            if int(fields[3]) == session_id:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    members.append(handle.read().replace(b"\0", b" ").decode())
        except OSError:
            pass
    return members


def test_no_process_outlives_a_run():
    """A traced run starts servers, helpers and a resource tracker."""
    script = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import run; "
              f"sys.exit(run.main(['--workload', 'point-zipf', '--seed', '5', "
              f"'--seconds', '0.5', '--trace', '1'], scale={TINY!r}))")
    process = subprocess.Popen([sys.executable, "-c", script], cwd=ROOT,
                               start_new_session=True,
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
    assert process.wait(timeout=600) == 0
    assert _session_members(process.pid) == []


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_bytes((BENCH / "run.py").read_bytes())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "point-zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
