"""Per-layer metrics from a traced run's spans and run manifests.

Self time is computed from the span tree: a span's duration minus the
durations of its direct children. ``calls`` and ``busy_s`` of a name
count only its *outermost* spans (no ancestor of the same name), so a
re-entrant call such as ``LinkSenderBank.build`` delegating to
``SenderBank.build`` is one call and its time is not counted twice.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: Layers in the span names' first component, in reporting order.
LAYERS = (
    "experiments", "runner", "io", "telemetry",
    "net", "sim", "cc", "core", "scheduler",
)

#: Every artifact's driver gets ``experiments.<artifact>.busy_s``.
ARTIFACTS = (
    "ablations", "crossfidelity", "extensions", "fattree", "figure1",
    "figure2", "figure3", "figure4", "figure5", "mechanisms", "online",
    "robustness", "scheduler", "sweep", "table1",
)

BACKENDS = ("cluster", "engine", "fluid", "phase", "service", "sweep-point")

EVENT_KINDS = (
    "rate.change", "cc.rate", "sim.dispatch", "job.iteration",
    "job.phase", "job.comm", "scheduler.place", "solve.outcome",
    "fault.window",
)

#: The design's prediction: which layers' combined self time is the
#: largest share on each workload.
DESIGN_SPLIT = {
    "cold-phase": ("net", "sim"),
    "cold-fluid": ("cc",),
    "warm-replay": ("io", "telemetry"),
}


def _per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric, ``(name, unit)``, in reporting order."""
    names: List[Tuple[str, str]] = []
    timed = ("calls", "count"), ("busy_s", "s")
    full = timed + (("self_s", "s"),)

    def spans(prefix, fields):
        names.extend((f"{prefix}.{field}", unit) for field, unit in fields)

    names.extend((f"experiments.{a}.busy_s", "s") for a in ARTIFACTS)
    names.append(("experiments.self_s", "s"))
    spans("runner.run_many", full)
    for backend in BACKENDS:
        spans(f"runner.backend.{backend}", timed)
    spans("runner.batch_exec", timed + (("fallback_ratio", "ratio"),))
    names.extend((f"runner.{c}", "count")
                 for c in ("specs", "executed", "cache_hits", "batched"))
    names.extend((("runner.hit_ratio", "ratio"),
                  ("runner.batch_ratio", "ratio")))
    spans("runner.cache_get", timed)
    spans("runner.cache_put", timed)
    for codec in ("decode_result", "encode_result", "save_trace"):
        spans(f"io.{codec}", timed)
    spans("telemetry.merge", timed)
    names.append(("telemetry.events", "count"))
    names.extend((f"telemetry.events.{k}", "count") for k in EVENT_KINDS)
    spans("net.phasesim_run", full)
    spans("net.allocate", timed)
    names.extend((("net.allocate.flows_per_call", "flows"),
                  ("net.allocate.repeat_ratio", "ratio"),
                  ("net.reallocations", "count")))
    spans("sim.run", full)
    names.extend((("sim.events", "count"), ("sim.events_per_s", "1/s")))
    spans("cc.dcqcn_run", full)
    names.extend((("cc.vector_build.calls", "count"),
                  ("cc.vector_build.fallback_ratio", "ratio"),
                  ("cc.grid_build.calls", "count"),
                  ("cc.grid_build.fallback_ratio", "ratio")))
    spans("cc.grid_run", timed)
    names.extend((("cc.grid.lanes", "count"), ("cc.steps", "count"),
                  ("cc.cnps", "count")))
    spans("core.solve", timed)
    names.append(("core.solve_nodes", "count"))
    spans("core.cluster_solve", timed)
    spans("core.try_admit", timed)
    spans("scheduler.service_run", timed)
    names.append(("scheduler.placements", "count"))
    names.extend((f"layer.{layer}.self_s", "s") for layer in LAYERS)
    names.extend((("layer.untraced.self_s", "s"), ("trace.wall_s", "s"),
                  ("trace.overhead_ratio", "ratio"),
                  ("trace.design_split", "bool")))
    return names


PER_LAYER = _per_layer_names()


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus its direct children's durations."""
    selfs = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            selfs[span[3]] -= span[2] - span[1]
    return selfs


def outermost(spans: Sequence[Sequence]) -> List[bool]:
    """Whether each span has no ancestor with the same name."""
    flags = []
    for span in spans:
        parent = span[3]
        while parent >= 0 and spans[parent][0] != span[0]:
            parent = spans[parent][3]
        flags.append(parent < 0)
    return flags


def aggregate(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls`` and ``busy_s`` over outermost spans,
    ``self_s`` over all of them."""
    out: Dict[str, Dict[str, float]] = {}
    for span, own, top in zip(spans, self_times(spans), outermost(spans)):
        entry = out.setdefault(
            span[0], {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        entry["self_s"] += own
        if top:
            entry["calls"] += 1
            entry["busy_s"] += span[2] - span[1]
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Self seconds per layer."""
    totals = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        totals[layer_of(span[0])] += own
    return totals


def split_holds(workload: str, totals: Dict[str, float]) -> bool:
    """Whether the design's layers out-weigh every other single layer."""
    group = DESIGN_SPLIT[workload]
    mine = sum(totals[layer] for layer in group)
    return all(mine > seconds
               for layer, seconds in totals.items() if layer not in group)


# ---------------------------------------------------------------------------
# The per-layer metric values
# ---------------------------------------------------------------------------

def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _notes(spans, tops, name):
    return [span[5] for span, top in zip(spans, tops)
            if top and span[0] == name]


def per_layer_metrics(
    workload: str,
    spans: Sequence[Sequence],
    manifests: Dict[str, Dict],
    traced_wall_s: float,
    untraced_wall_s: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced run.

    ``manifests`` maps artifact -> the ``counters``, ``event_kinds``
    and ``events`` of its run manifest; counter metrics are their sums.
    """
    agg = aggregate(spans)
    tops = outermost(spans)
    values: Dict[str, float] = {}

    def span_fields(name, *fields):
        entry = agg.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for field in fields:
            values[f"{name}.{field}"] = float(entry[field])

    def counter(key):
        return float(sum(m.get("counters", {}).get(key, 0.0)
                         for m in manifests.values()))

    for artifact in ARTIFACTS:
        span_fields(f"experiments.{artifact}", "busy_s")
    values["experiments.self_s"] = sum(
        entry["self_s"] for name, entry in agg.items()
        if layer_of(name) == "experiments"
    )
    span_fields("runner.run_many", "calls", "busy_s", "self_s")
    for backend in BACKENDS:
        span_fields(f"runner.backend.{backend}", "calls", "busy_s")
    span_fields("runner.batch_exec", "calls", "busy_s")
    batch_notes = _notes(spans, tops, "runner.batch_exec")
    values["runner.batch_exec.fallback_ratio"] = _ratio(
        sum(batch_notes), len(batch_notes))
    for name, key in (("specs", "runner.specs"),
                      ("executed", "runner.executed"),
                      ("cache_hits", "runner.cache.hits"),
                      ("batched", "runner.batched")):
        values[f"runner.{name}"] = counter(key)
    values["runner.hit_ratio"] = _ratio(
        values["runner.cache_hits"], values["runner.specs"])
    values["runner.batch_ratio"] = _ratio(
        values["runner.batched"], values["runner.executed"])
    for name in ("runner.cache_get", "runner.cache_put", "io.decode_result",
                 "io.encode_result", "io.save_trace", "telemetry.merge"):
        span_fields(name, "calls", "busy_s")
    values["telemetry.events"] = float(
        sum(m.get("events", 0) for m in manifests.values()))
    for kind in EVENT_KINDS:
        values[f"telemetry.events.{kind}"] = float(sum(
            m.get("event_kinds", {}).get(kind, 0)
            for m in manifests.values()))
    span_fields("net.phasesim_run", "calls", "busy_s", "self_s")
    span_fields("net.allocate", "calls", "busy_s")
    allocations = _notes(spans, tops, "net.allocate")
    values["net.allocate.flows_per_call"] = _ratio(
        sum(n[0] for n in allocations), len(allocations))
    values["net.allocate.repeat_ratio"] = _ratio(
        sum(1 for n in allocations if n[1]), len(allocations))
    values["net.reallocations"] = counter("phasesim.reallocations")
    span_fields("sim.run", "calls", "busy_s", "self_s")
    values["sim.events"] = counter("sim.events")
    values["sim.events_per_s"] = _ratio(
        values["sim.events"], values["sim.run.busy_s"])
    span_fields("cc.dcqcn_run", "calls", "busy_s", "self_s")
    vector_notes = _notes(spans, tops, "cc.vector_build")
    values["cc.vector_build.calls"] = float(len(vector_notes))
    values["cc.vector_build.fallback_ratio"] = _ratio(
        sum(vector_notes), len(vector_notes))
    grid_notes = _notes(spans, tops, "cc.grid_build")
    values["cc.grid_build.calls"] = float(len(grid_notes))
    values["cc.grid_build.fallback_ratio"] = _ratio(
        sum(1 for n in grid_notes if n[1]), len(grid_notes))
    span_fields("cc.grid_run", "calls", "busy_s")
    values["cc.grid.lanes"] = float(
        sum(n[0] for n in grid_notes if not n[1]))
    values["cc.steps"] = counter("cc.steps")
    values["cc.cnps"] = counter("cc.cnps")
    span_fields("core.solve", "calls", "busy_s")
    values["core.solve_nodes"] = counter("solve.nodes")
    span_fields("core.cluster_solve", "calls", "busy_s")
    span_fields("core.try_admit", "calls", "busy_s")
    span_fields("scheduler.service_run", "calls", "busy_s")
    values["scheduler.placements"] = counter("scheduler.placements")
    totals = layer_self(spans)
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = totals[layer]
    values["layer.untraced.self_s"] = traced_wall_s - sum(totals.values())
    values["trace.wall_s"] = traced_wall_s
    values["trace.overhead_ratio"] = _ratio(traced_wall_s, untraced_wall_s)
    values["trace.design_split"] = float(split_holds(workload, totals))
    return values
