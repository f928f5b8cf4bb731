"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from hglattice import analytics, cli, formats
from hglattice.core import from_edge_list

import speed
import workloads
from checks import Checker

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = workloads.Sizes(
    sparse_vertices=60, sparse_edges=30, dense_vertices=12, dense_edges=8,
    dense_instances=2, path_queries=20, min_path_samples=20, min_rounds=1,
)


def tiny_run(workload, tmp_path, trace=False, seed=3):
    run = workloads.Run(workload, seed, 0.0, trace, tmp_path / "work", TINY)
    run.execute()
    return run


def failures(run):
    return [a for a, (ok, _) in zip(run.answers, run.verdicts) if not ok]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace, tmp_path):
    run = tiny_run(workload, tmp_path, trace)
    kind = "per_layer" if trace else "end_to_end"
    got = run.per_layer() if trace else run.end_to_end()
    assert list(got) == [m["name"] for m in BENCH[kind]]
    for value, n in got.values():
        assert isinstance(value, (int, float)) and math.isfinite(value)
        assert n >= 0
    assert run.attempted > 0
    assert run.failed == 0


def test_units_match_benchmark_json():
    assert workloads.END_TO_END_UNITS == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert workloads.PER_LAYER_UNITS == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_come_from_the_seed(tmp_path):
    def files(seed, name):
        inst = workloads.sparse_instance(f"{seed}/0", tmp_path / name, TINY)
        dense = workloads.dense_instances(seed, tmp_path / name, TINY)
        return [p.read_bytes() for p in (inst.input_path, *(d.input_path for d in dense))]

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


@pytest.mark.parametrize("workload", ["sparse-build", "query-mix"])
def test_setups_and_loaded_lattices_do_not_grow_with_rounds(workload, tmp_path):
    sizes = dataclasses.replace(TINY, min_rounds=workloads.SETUPS[workload] + 1)
    run = workloads.Run(workload, 3, 0.0, False, tmp_path / "work", sizes)
    run.execute()
    assert len(run.setups) == len(run.instances) == workloads.SETUPS[workload]
    assert sum(inst.lat is not None for inst in run.instances) == 1
    assert run.peak_rss_mb > 0
    assert run.failed == 0


def test_speed_scale_leaves_out_preempted_kernel_runs():
    sampler = speed.SpeedSampler()
    sampler.times = [0.05 * i for i in range(40)]
    sampler.kernel_s = [2 * speed.REFERENCE_KERNEL_S] * 40
    sampler.kernel_s[20] = 10 * speed.REFERENCE_KERNEL_S  # t = 1.0 s, preempted
    assert sampler.scale(0.5, 1.5) == pytest.approx(0.5)
    assert sampler.scaled(0.5, 1.5) == pytest.approx(0.5)


# ---- the checkers flag wrong answers

H = from_edge_list([
    ("a", ["1", "2"]), ("b", ["2", "3"]), ("c", ["3", "4"]), ("d", ["1", "4"]),
    ("a2", ["1", "2"]), ("z", []),
])


def test_path_checker():
    check = Checker(H)
    assert check.check_path(1, "a", "c", ("a", "b", "c"), 2) == (True, False)
    # duplicates resolve to their representative
    assert check.check_path(1, "a2", "b", ("a", "b"), 1) == (True, False)
    # a valid s-path that is longer than the shortest one (a-d)
    assert check.check_path(1, "a", "d", ("a", "b", "c", "d"), 3) == (True, True)
    # consecutive edges that do not overlap
    assert not check.check_path(1, "a", "c", ("a", "c"), 1)[0]
    # wrong hop count, wrong endpoint
    assert not check.check_path(1, "a", "c", ("a", "b", "c"), 3)[0]
    assert not check.check_path(1, "a", "c", ("b", "c"), 1)[0]
    # an edge with fewer than s vertices
    assert not check.check_path(2, "a", "b", ("a", "b"), 1)[0]
    # reachability must agree with the s-line graph
    assert not check.check_path(1, "a", "c", None, None)[0]
    assert check.check_path(1, "z", "a", None, None) == (True, False)
    assert not check.check_path(1, "z", "a", ("z", "a"), 1)[0]


def test_components_checker():
    check = Checker(H)
    expected = [("a", "b", "c", "d", "a2")]
    assert check.check_components(1, expected)
    assert check.check_components(1, [("a", "a2", "b", "c", "d")])
    assert not check.check_components(1, [("a", "b", "c", "d")])
    assert not check.check_components(1, [("a", "b", "a2"), ("c", "d")])
    assert check.check_components(2, [("a", "a2"), ("b",), ("c",), ("d",)])
    assert not check.check_components(2, [("b",), ("a", "a2"), ("c",), ("d",)])


def test_stats_checker():
    check = Checker(H)
    lines = ["# vertices,4", "# edges,5", "# lattice_nodes,3", "# cover_edges,2",
             "histogram,distance,count"]
    hist = [f"{h},0,3" for h in ("min_to_top", "max_to_top", "min_to_bottom", "max_to_bottom")]
    assert check.check_stats("\n".join(lines + hist), 3, 2)
    assert not check.check_stats("\n".join(lines + hist), 4, 2)
    assert not check.check_stats("\n".join(lines + hist[:-1]), 3, 2)


def test_document_that_differs_from_the_reference_fails(monkeypatch, tmp_path):
    shim = types.SimpleNamespace(**vars(formats))
    shim.serialize_lattice = lambda lat: formats.serialize_lattice(lat) + "\n"
    monkeypatch.setattr(cli, "formats", shim)
    run = tiny_run("sparse-build", tmp_path)
    failed = failures(run)
    assert failed and all(a.op == "build" for a in failed)
    assert run.failed == sum(1 for a in run.answers if a.op == "build")


def test_document_that_does_not_round_trip_fails(monkeypatch, tmp_path):
    real = formats.parse_lattice_document

    def lossy(text):
        lat = real(text)
        lat.edge_aliases = {n: j for j, n in enumerate(lat.hypergraph.edge_names)}
        return lat

    monkeypatch.setattr(formats, "parse_lattice_document", lossy)
    run = tiny_run("query-mix", tmp_path)
    builds = [a for a in run.answers if a.op == "build"]
    assert builds and all(a in failures(run) for a in builds)


def test_wrong_components_fail(monkeypatch, tmp_path):
    real = analytics.s_connected_components
    monkeypatch.setattr(analytics, "s_connected_components",
                        lambda lat, s: real(lat, s)[:-1])
    run = tiny_run("dense-small", tmp_path)
    failed = {(a.op, a.via) for a in failures(run)}
    assert ("components", "lib") in failed
    assert {op for op, _ in failed} == {"components"}


def test_invalid_paths_fail(monkeypatch, tmp_path):
    real = analytics.shortest_s_path

    def reversed_path(lat, s, source, target):
        res = real(lat, s, source, target)
        return analytics.SPathResult(res.lattice_path, res.lattice_distance,
                                     res.hyperedge_path[::-1], res.hypergraph_distance)

    monkeypatch.setattr(analytics, "shortest_s_path", reversed_path)
    run = tiny_run("dense-small", tmp_path)
    assert any(a.op == "path" for a in failures(run))


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
