"""The generic codec :func:`repro.io.to_dict` / :func:`repro.io.from_dict`.

Pins the three rules the result cache depends on: every spec document
that ``run all`` builds decodes to its content hash and re-encodes to
the same bytes; the registered type set is closed, so a subclass of a
policy or gate is not cacheable under its parent's hash; and every
malformed document raises :class:`ConfigError`, never a raw
``KeyError``/``ValueError``.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import io
from repro.cc.adaptive import AdaptiveUnfair
from repro.cc.base import SharePolicy
from repro.cc.dcqcn import DcqcnResult
from repro.cc.fair import FairSharing
from repro.cc.priority import PrioritySharing
from repro.cc.weighted import StaticWeighted
from repro.core.circle import JobCircle
from repro.core.compatibility import CompatibilityResult
from repro.core.lifecycle import Gate
from repro.core.timeline import JobTimeline
from repro.errors import ConfigError
from repro.faults import (
    ClockSkew,
    InjectionSchedule,
    LatencySpike,
    LinkFailure,
    PfcStorm,
    RateChange,
    Straggler,
)
from repro.faults.events import FaultEventT
from repro.mechanisms.flow_scheduling import PeriodicGate
from repro.net.phasesim import JobRun, SimulationResult
from repro.net.topology import Topology
from repro.runner import RunResult, RunSpec, ScenarioSpec, SenderSpec
from repro.runner.spec import FluidScenarioResult
from repro.sim.trace import StepFunction, TimeSeries
from repro.workloads.job import JobSpec

#: The 108 distinct spec documents ``repro-experiments run all`` builds,
#: keyed by content hash (captured from a result cache).
SPECS_FILE = Path(__file__).parent / "data" / "run_all_specs.json"


def _canonical(document):
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _gate():
    return PeriodicGate.from_state(
        {"period": 0.3, "epoch": 0.01, "openings": [[0.0, 0.1]]}
    )


def _step_function():
    fn = StepFunction(0.0, name="rate:a")
    fn.set(0.5, 2.0)
    return fn


def _job_run():
    return JobRun(
        JobSpec("a", 0.1, 1e6), flows=[], n_iterations=3,
        start_offset=0.0, gate=None, rng=np.random.default_rng(0),
    )


#: One sample per registered type, the field a document cannot lack
#: (``None``: every field has a default) and a wrong-typed value.
SAMPLES = {
    JobSpec: (JobSpec("a", 0.1, 1e6), "job_id", ("compute_time", "x")),
    CompatibilityResult: (
        CompatibilityResult(
            compatible=True, rotations={"a": 0}, overlap_ticks=0,
            unified_perimeter=10, utilization=0.5, certified=True,
            method="exact", job_ids=["a"],
        ),
        "compatible", ("rotations", [1]),
    ),
    InjectionSchedule: (
        InjectionSchedule(events=(RateChange("L1", 0.0, 1.0, 0.5),)),
        None, ("events", 5),
    ),
    RateChange: (RateChange("L1", 0.0, 1.0, 0.5), "link", ("start", "x")),
    LinkFailure: (LinkFailure("L1", 0.0, 1.0), "end", ("link", 3)),
    PfcStorm: (PfcStorm("L1", 0.0, 1.0), "start", ("end", [])),
    LatencySpike: (
        LatencySpike("L1", 0.0, 1.0, 1e-3), "extra", ("extra", "x"),
    ),
    Straggler: (Straggler("a", 0.0, 1.0, 2.0), "job", ("factor", {})),
    ClockSkew: (ClockSkew("a", 0.0, 1.0, 1e-3), "offset", ("job", None)),
    FaultEventT: (RateChange("L1", 0.0, 1.0, 0.5), "factor", ("kind", 1)),
    SimulationResult: (
        SimulationResult(jobs={"a": _job_run()}, duration=1.0),
        None, ("jobs", []),
    ),
    DcqcnResult: (DcqcnResult(duration=0.1), None, ("rate_series", 5)),
    SenderSpec: (SenderSpec("a", 1e-4), "name", ("timer", "x")),
    ScenarioSpec: (
        ScenarioSpec("s", (SenderSpec("a", 1e-4),)), "senders",
        ("senders", 5),
    ),
    RunSpec: (RunSpec(backend="phase"), "backend", ("seed", "x")),
    FluidScenarioResult: (
        FluidScenarioResult(trace=DcqcnResult()), "trace",
        ("timelines", 5),
    ),
    RunResult: (RunResult("h", "phase"), "spec_hash", ("fluid", 5)),
    Topology: (Topology.dumbbell(), "nodes", ("links", 5)),
    JobCircle: (
        JobCircle.from_arcs("c", 10, [(0, 3)]), "perimeter",
        ("comm_arcs", 5),
    ),
    SharePolicy: (StaticWeighted({"a": 2.0}), "weights", ("weights", 5)),
    Gate: (_gate(), "period", ("openings", 5)),
    PeriodicGate: (_gate(), "openings", ("period", "x")),
    StepFunction: (_step_function(), "initial", ("points", 5)),
    TimeSeries: (
        TimeSeries.from_arrays("q", [0.1], [2.0]), "times",
        ("values", 5),
    ),
    JobTimeline: (
        JobTimeline.from_rows("a", [[0, 0.0, 0.1, 0.2]]), "samples",
        ("samples", [[1, 2]]),
    ),
    JobRun: (_job_run(), "spec", ("state", "bogus")),
}


def test_samples_cover_every_registered_type():
    registered = set(io._FIELDWISE) | set(io._CUSTOM_DECODERS)
    assert set(SAMPLES) == registered


def _name(cls):
    return getattr(cls, "__name__", "union")


@pytest.mark.parametrize(
    "cls", [cls for cls, (_, required, _) in SAMPLES.items() if required],
    ids=_name,
)
def test_missing_required_field_raises_config_error(cls):
    sample, required, _ = SAMPLES[cls]
    document = io.to_dict(sample)
    del document[required]
    with pytest.raises(ConfigError):
        io.from_dict(cls, document)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=_name)
class TestEveryRegisteredType:
    def test_round_trips(self, cls):
        sample, _, _ = SAMPLES[cls]
        document = json.loads(_canonical(io.to_dict(sample)))
        assert _canonical(io.to_dict(io.from_dict(cls, document))) == (
            _canonical(document)
        )

    def test_wrong_typed_value_raises_config_error(self, cls):
        sample, _, (key, value) = SAMPLES[cls]
        document = io.to_dict(sample)
        document[key] = value
        with pytest.raises(ConfigError):
            io.from_dict(cls, document)

    def test_non_object_raises_config_error(self, cls):
        with pytest.raises(ConfigError):
            io.from_dict(cls, [1, 2])


class TestMalformedDocuments:
    """Decoders that used to leak ``KeyError``/``ValueError``."""

    @pytest.mark.parametrize("cls, document", [
        (FaultEventT, {"kind": "rate-change"}),
        (RunSpec, {}),
        (RunResult, {"backend": "phase"}),
        (SharePolicy, {"kind": "static-weighted"}),
        (SharePolicy, {"kind": "meteor"}),
        (SenderSpec, {"timer": 1e-4}),
        (DcqcnResult, {"rate_series": {"a": {"times": [0.1]}}}),
        (Gate, {"kind": "periodic"}),
        (JobTimeline, {"job_id": "a", "samples": [[1, 2]]}),
        (RunSpec, {"backend": "phase", "version": 99}),
    ])
    def test_raises_config_error(self, cls, document):
        with pytest.raises(ConfigError):
            io.from_dict(cls, document)

    def test_run_result_entry_point(self):
        with pytest.raises(ConfigError):
            io.run_result_from_dict({"spec_hash": "h"})

    def test_workload_with_bad_compute_time(self, tmp_path):
        path = tmp_path / "workload.json"
        path.write_text(json.dumps({"version": 1, "jobs": [{
            "job_id": "a", "compute_time": "x", "comm_bytes": 1e6,
        }]}))
        with pytest.raises(ConfigError):
            io.load_workload(path)

    def test_unregistered_type_is_not_serializable(self):
        with pytest.raises(ConfigError):
            io.to_dict(object())
        with pytest.raises(ConfigError):
            io.from_dict(object, {})


class TestClosedTypeSet:
    """A subclass may behave differently from its parent, so it must
    not share the parent's content hash (and cache entry)."""

    def _spec(self, **changes):
        return RunSpec(
            backend="phase", jobs=(JobSpec("a", 0.1, 1e6),),
            n_iterations=3, **changes,
        )

    def test_policy_subclass_is_not_cacheable(self):
        class Inverted(StaticWeighted):
            def weight_of(self, flow):
                return 1.0 / super().weight_of(flow)

        parent = self._spec(policy=StaticWeighted({"a": 2.0}))
        child = self._spec(policy=Inverted({"a": 2.0}))
        assert parent.cacheable()
        assert not child.cacheable()

    def test_gate_subclass_is_not_cacheable(self):
        class Late(PeriodicGate):
            def __call__(self, job_id, now):
                return super().__call__(job_id, now) + 1e-3

        state = _gate().to_state()
        parent = self._spec(gates=(("a", PeriodicGate.from_state(state)),))
        child = self._spec(gates=(("a", Late.from_state(state)),))
        assert parent.cacheable()
        assert not child.cacheable()


class TestRunAllSpecs:
    def test_every_spec_decodes_to_its_hash_and_bytes(self):
        specs = json.loads(SPECS_FILE.read_text())
        assert len(specs) == 108
        for content_hash, document in specs.items():
            spec = io.from_dict(RunSpec, document)
            assert spec.content_hash() == content_hash
            assert _canonical(io.to_dict(spec)) == _canonical(document)


# -- generated round trips ------------------------------------------------

_finite = st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False)
_positive = st.floats(1e-6, 1e9, allow_nan=False, allow_infinity=False)
_names = st.text("abcxyz01_-", min_size=1, max_size=6)


@st.composite
def _job_specs(draw):
    job_id = draw(_names)
    kwargs = {
        "model_name": draw(st.sampled_from(["", "vgg19", "bert"])),
        "batch_size": draw(st.integers(0, 4096)),
        "compute_jitter": draw(st.floats(0.0, 0.9)),
        "n_workers": draw(st.integers(1, 64)),
    }
    if draw(st.booleans()):
        segments = draw(st.lists(
            st.tuples(_finite, _positive), min_size=1, max_size=3
        ))
        return JobSpec.multi_phase(job_id, segments, **kwargs)
    return JobSpec(job_id, draw(_finite), draw(_positive), **kwargs)


_sender_specs = st.builds(
    SenderSpec,
    name=_names,
    timer=_positive,
    data_bytes=st.none() | _positive,
    compute_time=st.none() | _finite,
    comm_bytes=st.none() | _positive,
    start_offset=_finite,
    stream=st.sampled_from(["", "dcqcn:x"]),
    route=st.lists(_names, max_size=3, unique=True).map(tuple),
)


@st.composite
def _schedules(draw):
    """Disjoint windows: one event per slot of a 10 s horizon."""
    slots = draw(st.lists(st.integers(0, 9), max_size=4, unique=True))
    kinds = [
        lambda s, e: RateChange("L1", s, e, draw(st.floats(0.1, 2.0))),
        lambda s, e: LinkFailure("L1", s, e),
        lambda s, e: PfcStorm("L1", s, e),
        lambda s, e: LatencySpike("L2", s, e, draw(st.floats(0.0, 1e-3))),
        lambda s, e: Straggler("a", s, e, draw(st.floats(0.5, 3.0))),
        lambda s, e: ClockSkew("b", s, e, draw(st.floats(-1e-3, 1e-3))),
    ]
    events = []
    for slot in slots:
        start = slot + draw(st.floats(0.0, 0.4))
        end = start + draw(st.floats(0.01, 0.5))
        events.append(draw(st.sampled_from(kinds))(start, end))
    horizon = draw(st.none() | st.just(10.0))
    return InjectionSchedule(events=tuple(events), horizon=horizon)


_weights = st.dictionaries(_names, _positive, max_size=3)
_policies = st.one_of(
    st.builds(FairSharing),
    st.builds(StaticWeighted, _weights, default=_positive),
    st.builds(
        AdaptiveUnfair, gain=_finite, exponent=_positive,
        base_weight=_positive, reallocation_interval=_positive,
    ),
    st.builds(
        PrioritySharing,
        st.dictionaries(_names, st.integers(-5, 5), max_size=3),
        default=st.integers(-5, 5),
    ),
)


@st.composite
def _gates(draw):
    period = draw(st.floats(0.01, 1.0))
    start = draw(st.floats(0.0, 0.5)) * period
    end = start + draw(st.floats(0.01, 0.5)) * period
    return PeriodicGate.from_state({
        "period": period,
        "epoch": draw(st.floats(0.0, 1.0)),
        "openings": [[start, end]],
    })


_run_specs = st.builds(
    RunSpec,
    backend=st.sampled_from(["phase", "fluid", "cluster"]),
    label=_names,
    seed=st.integers(0, 2**31),
    jobs=st.lists(_job_specs(), max_size=3).map(tuple),
    policy=st.none() | _policies,
    n_iterations=st.integers(0, 100),
    capacity=_finite,
    start_offsets=st.lists(st.tuples(_names, _finite), max_size=2).map(tuple),
    gates=st.lists(st.tuples(_names, _gates()), max_size=2).map(tuple),
    until=st.none() | _positive,
    duration=_finite,
    scenarios=st.lists(
        st.builds(
            ScenarioSpec, name=_names,
            senders=st.lists(_sender_specs, max_size=2).map(tuple),
        ),
        max_size=2,
    ).map(tuple),
    options=st.lists(
        st.tuples(_names, st.one_of(
            st.integers(), _finite, _names, _job_specs(),
            st.lists(st.integers(), max_size=3),
        )),
        max_size=3,
    ).map(tuple),
    faults=st.none() | _schedules(),
)


def _json_round_trip(cls, obj):
    text = _canonical(io.to_dict(obj))
    clone = io.from_dict(cls, json.loads(text))
    assert _canonical(io.to_dict(clone)) == text
    return clone


class TestGeneratedRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(_job_specs())
    def test_job_spec(self, spec):
        assert _json_round_trip(JobSpec, spec) == spec

    @settings(max_examples=60, deadline=None)
    @given(_sender_specs)
    def test_sender_spec(self, sender):
        assert _json_round_trip(SenderSpec, sender) == sender

    @settings(max_examples=60, deadline=None)
    @given(_schedules())
    def test_injection_schedule(self, schedule):
        assert _json_round_trip(InjectionSchedule, schedule) == schedule

    @settings(max_examples=60, deadline=None)
    @given(_run_specs)
    def test_run_spec_keeps_bytes_and_hash(self, spec):
        clone = _json_round_trip(RunSpec, spec)
        assert clone.content_hash() == spec.content_hash()
