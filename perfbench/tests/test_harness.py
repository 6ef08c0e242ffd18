"""Tests of the benchmark harness: span arithmetic, wrapper removal,
report masking and the metric registry.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import harness
import layers
import run
from tracer import Tracer, install_layers


def span(name, start, end, parent=-1, note=None):
    return [name, float(start), float(end), parent, "w/a", note]


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def test_nested_self_time_subtracts_direct_children_only():
    spans = [
        span("net.phasesim_run", 0, 10),
        span("sim.run", 1, 9, parent=0),
        span("net.allocate", 2, 5, parent=1),
    ]
    assert layers.self_times(spans) == [2.0, 5.0, 3.0]
    totals = layers.layer_self(spans)
    assert totals["net"] == 5.0 and totals["sim"] == 5.0
    assert sum(totals.values()) == 10.0


def test_siblings_each_count_as_a_call():
    # A driver calling run_many twice.
    spans = [
        span("experiments.figure1", 0, 10),
        span("runner.run_many", 1, 3, parent=0),
        span("runner.run_many", 4, 8, parent=0),
    ]
    agg = layers.aggregate(spans)
    assert agg["runner.run_many"] == {
        "calls": 2, "busy_s": 6.0, "self_s": 6.0}
    assert agg["experiments.figure1"]["self_s"] == 4.0


def test_reentrant_span_counts_once_and_time_once():
    # LinkSenderBank.build delegating to SenderBank.build.
    spans = [
        span("cc.vector_build", 0, 10, note=False),
        span("cc.vector_build", 2, 6, parent=0, note=False),
        span("cc.vector_build", 12, 13, note=True),
    ]
    assert layers.outermost(spans) == [True, False, True]
    agg = layers.aggregate(spans)
    assert agg["cc.vector_build"] == {
        "calls": 2, "busy_s": 11.0, "self_s": 11.0}
    values = layers.per_layer_metrics("cold-fluid", spans, {}, 20.0, 10.0)
    assert values["cc.vector_build.calls"] == 2.0
    assert values["cc.vector_build.fallback_ratio"] == 0.5


def test_layer_self_times_plus_remainder_sum_to_wall():
    spans = [
        span("experiments.figure2", 0, 6),
        span("runner.run_many", 1, 5, parent=0),
        span("runner.backend.phase", 2, 4, parent=1),
        span("io.save_trace", 7, 8),
    ]
    values = layers.per_layer_metrics("cold-phase", spans, {}, 10.0, 8.0)
    parts = [values[f"layer.{name}.self_s"] for name in layers.LAYERS]
    assert values["layer.untraced.self_s"] == pytest.approx(3.0)
    assert sum(parts) + values["layer.untraced.self_s"] == pytest.approx(
        values["trace.wall_s"])
    assert values["trace.overhead_ratio"] == pytest.approx(1.25)


def test_every_per_layer_metric_is_reported():
    manifests = {"figure1": {
        "counters": {"runner.specs": 4.0, "runner.cache.hits": 3.0,
                     "runner.executed": 1.0, "phasesim.reallocations": 7},
        "event_kinds": {"rate.change": 5},
        "events": 9,
    }}
    values = layers.per_layer_metrics("warm-replay", [], manifests, 1.0, 1.0)
    assert set(values) == {name for name, _ in layers.PER_LAYER}
    assert values["runner.hit_ratio"] == 0.75
    assert values["net.reallocations"] == 7.0
    assert values["telemetry.events.rate.change"] == 5.0


def test_allocate_repeat_ratio_compares_with_the_same_allocator():
    spans = [
        span("net.allocate", 0, 1, note=[2, False]),
        span("net.allocate", 1, 2, note=[2, True]),
        span("net.allocate", 2, 3, note=[1, False]),
        span("net.allocate", 3, 4, note=[1, False]),
    ]
    values = layers.per_layer_metrics("cold-phase", spans, {}, 4.0, 4.0)
    assert values["net.allocate.repeat_ratio"] == 0.25
    assert values["net.allocate.flows_per_call"] == 1.5


# ---------------------------------------------------------------------------
# Live tracing and wrapper removal
# ---------------------------------------------------------------------------

@pytest.fixture
def installed():
    from repro import cli

    tracer = Tracer()
    registry = dict(cli.EXPERIMENTS)
    install_layers(tracer, registry)
    try:
        yield tracer, registry
    finally:
        tracer.uninstall()


def test_traced_driver_builds_a_span_tree(installed):
    from repro.runner import RunnerConfig, using

    tracer, registry = installed
    with using(RunnerConfig(cache=False)), \
            contextlib.redirect_stdout(io.StringIO()):
        registry["figure2"][1]()
    spans = tracer.spans
    names = [s[0] for s in spans]
    assert names[0] == "experiments.figure2" and spans[0][3] == -1
    for child in ("runner.run_many", "runner.backend.phase",
                  "net.phasesim_run", "sim.run", "net.allocate"):
        assert child in names
    by_index = {i: s for i, s in enumerate(spans)}
    for s in spans:
        if s[0] == "sim.run":
            assert by_index[s[3]][0] == "net.phasesim_run"
        if s[3] >= 0:
            parent = by_index[s[3]]
            assert parent[1] <= s[1] <= s[2] <= parent[2]
    roots = [s for s in spans if s[3] == -1]
    assert sum(layers.self_times(spans)) == pytest.approx(
        sum(s[2] - s[1] for s in roots))


def test_uninstall_restores_every_patched_object():
    import repro.experiments.figure1 as figure1
    from repro import cli
    from repro.net.fluid import FluidAllocator
    from repro.runner import parallel

    run_many = parallel.run_many
    allocate = FluidAllocator.__dict__["allocate"]
    tracer = Tracer()
    install_layers(tracer, cli.EXPERIMENTS)
    try:
        assert figure1.run_many is not run_many
        assert FluidAllocator.__dict__["allocate"] is not allocate
        # A binding made while tracing, as a lazy from-import would.
        figure1.late_alias = parallel.run_many
    finally:
        leftovers = tracer.uninstall()
    try:
        assert leftovers == []
        assert tracer.patches
        for owner, key, original, is_item in tracer.patches:
            current = owner[key] if is_item else vars(owner)[key]
            assert current is original, key
        assert figure1.run_many is run_many
        assert figure1.late_alias is run_many
        assert FluidAllocator.__dict__["allocate"] is allocate
    finally:
        del figure1.late_alias


# ---------------------------------------------------------------------------
# Report masking and the correctness check
# ---------------------------------------------------------------------------

SOLVER_REPORT = """\
Solver comparison on the rotation search
instance | solver    | nodes | time    {pad}
---------+-----------+-------+---------{dash}
fig5     | greedy    | 1     | {t1} ms  {pad}
fig5     | annealing | 5     | {t2} ms{pad}

after   | fair ms
--------+--------
job     | 917 ms

telemetry: 12 events recorded -> runs/ablations-20261017-020000
runner: 3 spec(s): 3 executed, 0 cache hit(s)
"""


def test_mask_hides_wall_clock_cells_and_their_padding():
    fast = SOLVER_REPORT.format(t1="0.1", t2="14.4", pad="", dash="")
    slow = SOLVER_REPORT.format(t1="0.3", t2="1637.6", pad=" ", dash="-")
    assert fast != slow
    assert harness.mask_report(fast) == harness.mask_report(slow)
    masked = harness.mask_report(fast)
    assert "| <ms>" in masked
    # Deterministic ms cells outside the solver table are kept.
    assert "job     | 917 ms" in masked
    assert "telemetry: 12 events recorded -> <run dir>" in masked
    assert "runner: 3 spec(s): <executed/hits>" in masked


def test_mask_keeps_a_report_without_wall_clock_cells():
    text = "Fig. 3\nperimeter | 255 ms\ncompute arc | [0, 141) ms\n"
    assert harness.mask_report(text) == text
    warm = text + "\ntelemetry: 5 events recorded -> r/x-1\n" \
        "runner: 2 spec(s): 0 executed, 2 cache hit(s)\n"
    cold = text + "\ntelemetry: 5 events recorded -> r/x-2\n" \
        "runner: 2 spec(s): 2 executed, 0 cache hit(s)\n"
    assert harness.mask_report(warm) == harness.mask_report(cold)
    other = cold.replace("5 events", "6 events")
    assert harness.mask_report(other) != harness.mask_report(cold)


def test_mask_hides_online_placement_latency_but_not_its_count():
    a = "placement latency: p50 0.010 ms, p99 0.059 ms over 2406 placements"
    b = "placement latency: p50 0.007 ms, p99 0.060 ms over 2406 placements"
    assert harness.mask_report(a) == harness.mask_report(b)
    c = b.replace("2406", "2405")
    assert harness.mask_report(c) != harness.mask_report(b)


def test_warm_run_fails_on_reexecution_or_a_differing_report():
    reference = harness.load_reference("figure3")
    assert reference is not None
    assert harness.check_artifact("figure3", reference, None) is None
    assert harness.check_artifact(
        "figure3", reference, None, cold_report=reference, executed=1.0)
    assert harness.check_artifact(
        "figure3", reference, None, cold_report=reference + "x")
    assert harness.check_artifact("figure3", reference + "x", None)
    assert harness.check_artifact("figure3", reference, "Traceback\nboom")


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the harness
# ---------------------------------------------------------------------------

def test_benchmark_json_names_match_the_harness():
    spec = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER)
    assert sorted(layers.ARTIFACTS) == sorted(
        harness.artifacts_for("warm-replay", layers.ARTIFACTS))


def test_workloads_split_run_all():
    from repro import cli

    names = sorted(cli.EXPERIMENTS)
    assert sorted(layers.ARTIFACTS) == names
    phase = harness.artifacts_for("cold-phase", names)
    fluid = harness.artifacts_for("cold-fluid", names)
    assert len(phase) == 13 and fluid == ["crossfidelity", "sweep"]
    assert sorted(phase + fluid) == harness.artifacts_for("warm-replay", names)
