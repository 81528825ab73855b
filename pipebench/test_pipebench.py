"""The pipeline benchmark's own tests, on the small pinned smoke graphs.

Run with ``PYTHONPATH=src python -m pytest pipebench -q``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import pipeline
import tracing

WORKLOADS = pipeline.load_workloads(smoke=True)
SECONDS = 0.3

#: spans that must fire on each workload's traced run (the layers the
#: workload exists to measure); see BENCHMARK.json for the pairing
EXPECTED_SPANS = {
    "build_thm11_w2000": {
        "graph.metric.next_hop", "schemes.build", "schemes.stats",
        "routing.tables.compile", "routing.shard_codec.encode",
        "routing.shard_codec.encode_pack", "routing.shard_codec.decode_fast",
        "routing.header_codec.encode", "routing.simulator.step",
    },
    "serve_tz2_u2400_lru": {
        "graph.metric.rows", "graph.csr.rows", "graph.csr.bounded_rows",
        "schemes.build", "schemes.stats", "routing.tables.compile",
        "routing.shard_codec.encode", "routing.shard_codec.encode_pack",
        "routing.shard_codec.decode_fast", "routing.header_codec.encode",
        "routing.simulator.step",
    },
    "cluster_tz2_u2400": {
        "graph.csr.rows", "schemes.build", "schemes.stats",
        "routing.tables.compile", "routing.shard_codec.encode",
        "routing.shard_codec.encode_pack",
    },
}


def _run(name, tmp_path, *, trace, serve_fn=None):
    return pipeline.run_workload(
        WORKLOADS[name], seed=7, seconds=SECONDS, trace=trace,
        workdir=str(tmp_path), serve_fn=serve_fn,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(name, tmp_path):
    result = _run(name, tmp_path, trace=False)
    assert result.correct, result.notes
    assert result.failed == 0 and result.attempted >= 1
    assert set(result.metrics) == set(pipeline.END_TO_END)
    for metric, value in result.metrics.items():
        assert result.units[metric] == pipeline.END_TO_END[metric][0]
        assert math.isfinite(value) and value > 0, (metric, value)
    assert result.config["metric_mode"] == WORKLOADS[name].metric_mode
    assert os.listdir(tmp_path) == []  # every shard directory removed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_run_emits_every_layer_and_its_wrappers_fire(
        name, tmp_path):
    result = _run(name, tmp_path, trace=True)
    assert result.correct, result.notes
    assert set(result.metrics) == set(pipeline.PER_LAYER)
    assert result.units == pipeline.PER_LAYER
    fired = {n for n, c in result.notes["span_calls"].items() if c > 0}
    missing = EXPECTED_SPANS[name] - fired
    assert not missing, f"{name}: traced wrappers never fired: {missing}"
    if name.startswith("cluster"):
        assert result.metrics["cluster.rpcs"] > 0
    else:
        assert result.metrics["routing.serving.loads"] > 0


def test_wrappers_not_reached_by_a_workload_still_fire(monkeypatch):
    """``CSRGraph.all_balls`` runs only on the lazy side (no workload
    builds a ball scheme there yet) and the pure decoder only when the
    native scanner is off; both wrappers must still trace."""
    from repro.api import build
    from repro.graph.metric import MetricView
    from repro.graph.shortest_paths import reset_kernel_choice
    from repro.routing import shard_codec

    wl = WORKLOADS["build_thm11_w2000"]
    g = pipeline.pinned_graph(wl)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        session = build("thm11", g, metric=MetricView(g, mode="lazy"))
        record = session.scheme.compile_tables()[0]
        blob = shard_codec.encode_node_table(record)
        monkeypatch.setenv("REPRO_KERNEL", "pure")
        reset_kernel_choice()
        shard_codec.decode_node_table_fast(blob)
    finally:
        tracer.uninstall()
        monkeypatch.delenv("REPRO_KERNEL")
        reset_kernel_choice()
    assert tracer.calls("graph.csr.all_balls") > 0
    assert tracer.calls("routing.shard_codec.decode") > 0


def test_install_patches_every_site_and_uninstall_restores_them():
    import repro.routing.serving as serving
    import repro.routing.shard_codec as shard_codec

    before = (serving.encode_node_table, shard_codec.encode_node_table,
              serving.LocalRouter.step)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert serving.encode_node_table is not before[0]
        assert shard_codec.encode_node_table is not before[1]
        assert serving.LocalRouter.step is not before[2]
    finally:
        tracer.uninstall()
    after = (serving.encode_node_table, shard_codec.encode_node_table,
             serving.LocalRouter.step)
    assert after == before


def test_renamed_entry_point_fails_the_traced_run(monkeypatch):
    monkeypatch.setitem(
        tracing.TARGETS, "routing.gone", (("repro.routing.serving", "nope"),)
    )
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError, match="repro.routing.serving.nope"):
        tracer.install()
    tracer.uninstall()


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    assert tracer.self_s("outer") < tracer.total_s("outer")
    assert tracer.total_s("outer") >= tracer.total_s("inner")
    (inner, outer) = tracer.spans
    assert inner[1] == outer[0]  # the inner span's parent is the outer one


def _misrouting_serve(wl, dep, pairs, seconds, tracer=None, limit=None):
    """A fake engine over the real shards: every fourth route raises, is
    misdelivered, takes a detour, or is routed correctly."""
    real = dep.served.route
    calls = itertools.count()

    def route(s, t):
        i = next(calls) % 4
        if i == 0:
            raise RuntimeError("fake engine fault")
        res = real(s, t)
        if i == 1:
            res.path = res.path[:-1] + [s]
        elif i == 2:
            res.path = [s] + res.path
        return res

    return pipeline.serve_local(route, pairs, seconds, tracer, limit)


def test_misrouting_engine_is_counted_not_fatal(tmp_path):
    result = _run("serve_tz2_u2400_lru", tmp_path, trace=False,
                  serve_fn=_misrouting_serve)
    assert not result.correct
    reasons = result.notes["fail_reasons"]
    assert set(reasons) == {
        "raised", "not delivered", "differs from in-memory route"}
    assert result.failed == sum(reasons.values())
    assert 0.7 <= result.failed / result.attempted <= 0.8
    assert result.metrics["route_ok_ratio"] == pytest.approx(
        1 - result.failed / result.attempted)


def test_stretch_max_does_not_depend_on_the_seed(tmp_path):
    wl = WORKLOADS["build_thm11_w2000"]
    first, second = (
        pipeline.run_workload(wl, seed=seed, seconds=SECONDS, trace=False,
                              workdir=str(tmp_path))
        for seed in (1, 2)
    )
    assert first.metrics["stretch_max"] == second.metrics["stretch_max"]
    assert first.metrics["stretch_max"] > 1.0


def test_fleet_that_errored_or_failed_over_is_not_correct():
    wl = WORKLOADS["cluster_tz2_u2400"]
    assert pipeline.fleet_ok(wl, {"rpc_errors": 0, "failovers": 0})
    assert not pipeline.fleet_ok(wl, {"rpc_errors": 1, "failovers": 0})
    assert not pipeline.fleet_ok(wl, {"rpc_errors": 0, "failovers": 2})


def test_route_beyond_the_stretch_bound_is_counted(tmp_path, monkeypatch):
    from repro.api import RoutingSession

    monkeypatch.setattr(RoutingSession, "stretch_bound",
                        lambda self: (1.0, 0.0))
    result = _run("build_thm11_w2000", tmp_path, trace=False)
    reasons = result.notes["fail_reasons"]
    assert reasons.get("exceeds (alpha, beta) bound")
    assert reasons.get("sample exceeds (alpha, beta) bound")
    assert not result.correct


def test_changed_generator_output_fails_loudly():
    wl = WORKLOADS["serve_tz2_u2400_lru"]
    drifted = pipeline.Workload(**{
        **wl.__dict__,
        "fingerprint": {**wl.fingerprint, "edges_sha256": "0" * 64},
    })
    with pytest.raises(pipeline.InputDriftError, match="generators changed"):
        pipeline.pinned_graph(drifted)


def test_pairs_are_seeded_and_distinct_from_graph_edges():
    wl = WORKLOADS["serve_tz2_u2400_lru"]
    pairs = pipeline.make_pairs(wl.fingerprint["n"], wl.graph["seed"], 64)
    assert pairs == pipeline.make_pairs(
        wl.fingerprint["n"], wl.graph["seed"], 64)
    assert all(s != t for s, t in pairs)
    edges = {(u, v) for u, v, _ in pipeline.make_graph(wl).edges()}
    assert len(edges & set(pairs)) < 16


def test_benchmark_fails_without_the_program_sources(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"),
                tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload",
         "serve_tz2_u2400_lru", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
    assert "no program sources" in proc.stderr


def test_benchmark_json_names_every_metric_and_workload():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]
    } == pipeline.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        pipeline.PER_LAYER)
