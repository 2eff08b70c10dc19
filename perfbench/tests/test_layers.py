"""Per-layer metrics from spans, and BENCHMARK.json against spec.json."""

import json
import os
import re

import pytest

from layers import LAYERS, layer_metrics
from spans import Span

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_query_accounting_and_shares():
    spans = [
        # One T2 query: candidates for 2 ms, then 7 ms of refinement
        # holding one 4 ms predicate call and a 1 ms fetch of 3 pages.
        Span(1, "core.query", 10.000, 10.010, None, 1,
             {"cand": 40, "ans": 10, "fh": 30, "reads": 9, "writes": 0}),
        Span(2, "core.candidates", 10.001, 10.003, 1, 1,
             {"reads": 6, "writes": 0}),
        Span(3, "btree.sweep", 10.0015, 10.0025, 2, 1,
             {"reads": 6, "writes": 0, "call": 99}),
        Span(4, "storage.fetch", 10.003, 10.004, 1, 1,
             {"reads": 3, "writes": 0}),
        Span(5, "geometry.predicate", 10.004, 10.008, 1, 1, None),
        # Outside the window: ignored.
        Span(6, "core.query", 20.0, 20.5, None, 6, None),
    ]
    out = layer_metrics(spans, 10.0, 10.020)
    assert out["core.query_ms"] == pytest.approx(10.0)
    assert out["core.candidates_ms"] == pytest.approx(2.0)
    assert out["core.refine_ms"] == pytest.approx(7.0)
    assert out["core.accounted_frac"] == pytest.approx(0.9)
    assert out["core.candidates_per_answer"] == pytest.approx(4.0)
    assert out["core.false_hit_ratio"] == pytest.approx(0.75)
    assert out["btree.index_pages_per_query"] == 6
    assert out["storage.heap_pages_per_query"] == 3
    assert out["storage.reads_per_query"] == 9
    assert out["geometry.predicate_calls_per_query"] == 1
    assert out["btree.sweep_ms"] == pytest.approx(1.0)
    # Self times: query 10 - 2 - 1 - 4 = 3 ms, candidates 2 - 1 = 1 ms.
    assert out["core.share"] == pytest.approx(0.004 / 0.020)
    assert out["btree.share"] == pytest.approx(0.001 / 0.020)
    assert out["geometry.share"] == pytest.approx(0.004 / 0.020)
    assert out["storage.share"] == pytest.approx(0.001 / 0.020)
    assert out["serve.share"] == 0.0


def test_served_batch_metrics():
    spans = [
        Span(1, "serve.feed", 0.10, 0.11, None, 1, {"frames": 4}),
        Span(2, "serve.wait", 0.10, 0.13, None, 2, None),
        Span(3, "serve.wait", 0.12, 0.13, None, 3, None),
        Span(4, "core.query_batch", 0.13, 0.20, None, 4,
             {"queries": 2, "cand": 10, "ans": 5, "fh": 0,
              "reads": 8, "writes": 0}),
        Span(5, "exec.execute", 0.13, 0.20, 4, 4, {"reads": 8, "writes": 0}),
        Span(6, "exec.surface_build", 0.14, 0.19, 5, 4, None),
        Span(7, "serve.encode", 0.21, 0.22, None, 7, None),
    ]
    out = layer_metrics(spans, 0.0, 1.0, cache_hits=1, cache_misses=3)
    assert out["serve.decode_us"] == pytest.approx(0.01 / 4 * 1e6)
    assert out["serve.wait_ms"] == pytest.approx(20.0)
    assert out["serve.batch_queries"] == 2
    assert out["exec.batch_ms"] == pytest.approx(20.0)
    assert out["exec.surface_builds"] == 1
    assert out["exec.rebuild_total_s"] == pytest.approx(0.05)
    assert out["exec.cache_hit_ratio"] == 0.25
    assert out["storage.reads_per_query"] == 4
    # Waiting is not work: the serve share is decode + encode only.
    assert out["serve.share"] == pytest.approx(0.02)


def test_benchmark_json_matches_spec():
    with open(os.path.join(BENCH, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == \
        [w["name"] for w in spec["workloads"]]
    assert [w["why"] for w in bench["workloads"]] == \
        [w["why"] for w in spec["workloads"]]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert set(spec["end_to_end"]) == {m["name"] for m in bench["end_to_end"]}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert name.match(metric["name"]) and unit.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in bench["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    for workload in bench["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    layers = {m["name"].split(".")[0] for m in bench["per_layer"]}
    assert set(LAYERS) <= layers
