"""JSON serialization for workloads, circles, results and telemetry.

Job specs, circles (exact integer data), compatibility verdicts with
their certificates, run specs and run results round-trip losslessly.
Telemetry traces round-trip as JSONL (one record per line) for the
``repro-experiments stats`` / ``trace`` commands.

One codec, :func:`to_dict` / :func:`from_dict`, covers every object:
registered dataclasses go field by field through their type hints, and
the types that are not plain dataclasses have a custom pair. The type
set is closed: an unregistered class, a subclass of a registered one
included, raises :class:`ConfigError` (so a spec holding one is not
cacheable), and so does every decoding failure.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
import typing
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Union

import numpy as np

from .cc.adaptive import AdaptiveUnfair
from .cc.base import SharePolicy
from .cc.dcqcn import DcqcnResult
from .cc.fair import FairSharing
from .cc.priority import PrioritySharing
from .cc.weighted import StaticWeighted
from .core.circle import JobCircle
from .core.compatibility import CompatibilityResult
from .core.lifecycle import Gate, JobState
from .core.timeline import JobTimeline
from .errors import ConfigError
from .faults.events import EVENT_KINDS, FaultEventT, InjectionSchedule
from .mechanisms.flow_scheduling import PeriodicGate
from .net.phasesim import JobRun, SimulationResult
from .net.topology import NodeKind, Topology
from .runner.spec import FluidScenarioResult, RunResult, RunSpec
from .runner.spec import ScenarioSpec, SenderSpec
from .sim.trace import StepFunction, TimeSeries
from .telemetry.trace import TraceRecord
from .workloads.job import JobSpec

#: Format tag embedded in every top-level document.
FORMAT_VERSION = 1

_PathLike = Union[str, Path]

#: Dataclasses encoded field by field and decoded through type hints.
_FIELDWISE = (
    JobSpec, CompatibilityResult, InjectionSchedule, *EVENT_KINDS.values(),
    SimulationResult, DcqcnResult, SenderSpec, ScenarioSpec, RunSpec,
    FluidScenarioResult, RunResult,
)
#: Documents that carry the ``"version"`` format tag.
_VERSIONED = frozenset({
    JobSpec, CompatibilityResult, InjectionSchedule, RunSpec, RunResult,
    Topology, JobCircle,
})
#: Fields written only when non-empty, so documents (and spec hashes)
#: from before the field existed stay byte-identical.
_OMIT_EMPTY = frozenset({
    (JobSpec, "segments"),
    (SenderSpec, "route"),
    (DcqcnResult, "link_queue_series"),
})
#: Fault events: their documents carry the ``"kind"`` tag.
_TAGGED = frozenset(EVENT_KINDS.values())
#: What a malformed document raises inside the decoders.
_MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError)
#: Forward references in the runner's dataclasses.
_LOCALNS = {"SharePolicy": SharePolicy, "DcqcnResult": DcqcnResult}


def to_dict(obj: Any) -> Dict[str, Any]:
    """Serialize an object of a registered type to JSON-able data; any
    other type, a subclass of a registered one included, raises
    :class:`ConfigError`."""
    cls = type(obj)
    document = {"version": FORMAT_VERSION} if cls in _VERSIONED else {}
    if cls in _CUSTOM_ENCODERS:
        document.update(_CUSTOM_ENCODERS[cls](obj))
        return document
    if cls not in _FIELDWISE:
        raise ConfigError(f"cannot serialize an object of type {cls.__name__}")
    for name, encode, omit_empty in _encode_plan(cls):
        value = getattr(obj, name)
        if value or not omit_empty:
            document[name] = encode(value)
    if cls in _TAGGED:
        document["kind"] = cls.kind
    return document


def from_dict(cls: Any, data: Any) -> Any:
    """Deserialize ``data`` as ``cls`` — a registered type, or the
    ``SharePolicy``/``Gate``/``FaultEventT`` a spec field names. Any
    malformed document or unregistered type raises :class:`ConfigError`.
    """
    try:
        return _converter(cls)(data)
    except _MALFORMED as exc:
        name = getattr(cls, "__name__", cls)
        raise ConfigError(f"bad {name} document: {exc!r}") from exc


def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    """:func:`to_dict` under its own name, so it can be timed alone."""
    return to_dict(result)


def run_result_from_dict(data: Dict[str, Any]) -> RunResult:
    """:func:`from_dict` under its own name, so it can be timed alone."""
    return from_dict(RunResult, data)


@functools.lru_cache(maxsize=None)
def _hints(cls: type) -> Dict[str, Any]:
    """The resolved field type hints of ``cls``, for both directions."""
    return typing.get_type_hints(cls, localns=_LOCALNS)


@functools.lru_cache(maxsize=None)
def _encode_plan(cls: type) -> tuple:
    """``(field name, encoder, omit when empty)`` per field of ``cls``."""
    return tuple(
        (f.name,
         _ENCODE_HOOKS.get((cls, f.name)) or _encoder(_hints(cls)[f.name]),
         (cls, f.name) in _OMIT_EMPTY)
        for f in dataclasses.fields(cls)
    )


def _as_float(value: Any) -> Any:
    """A number as the float the decoder reads it as, so that equal
    objects (``1`` or ``1.0``) encode, and hash, alike."""
    return float(value) if isinstance(value, numbers.Real) else value


@functools.lru_cache(maxsize=None)
def _encoder(hint: Any) -> Callable[[Any], Any]:
    """The encoder of one type hint: every value the decoder reads with
    ``float`` is written as a float, anything else goes to
    :func:`_encode`."""
    if hint is float:
        return _as_float
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union and len(args) == 2 and type(None) in args:
        inner = _encoder(args[0] if args[1] is type(None) else args[1])
        return _encode if inner is _encode else (
            lambda value: None if value is None else inner(value)
        )
    if origin is dict:
        item = _encoder(args[1])
        return _encode if item is _encode else (
            lambda value: {key: item(v) for key, v in value.items()}
        )
    if origin is list or (origin is tuple and args[-1:] == (Ellipsis,)):
        item = _encoder(args[0])
        return _encode if item is _encode else (
            lambda value: [item(v) for v in value]
        )
    if origin is tuple:
        items = [_encoder(arg) for arg in args]
        return _encode if all(i is _encode for i in items) else (
            lambda value: [item(v) for item, v in zip(items, value)]
        )
    return _encode


def _encode(value: Any) -> Any:
    """Primitives pass through, containers recurse, objects dispatch."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    return to_dict(value)


def _check_version(data: Dict[str, Any]) -> Dict[str, Any]:
    version = data.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported format version {version} "
                          f"(expected {FORMAT_VERSION})")
    return data


def _typed(*types: type) -> Callable[[Any], Any]:
    """A check that passes values of ``types`` through unchanged."""
    def check(value: Any) -> Any:
        if not isinstance(value, types):
            raise TypeError(f"expected {types[0].__name__}, got {value!r}")
        return value

    return check


_to_bool, _to_str = _typed(bool), _typed(str)
_sequence, _mapping = _typed(list, tuple), _typed(dict)


@functools.lru_cache(maxsize=None)
def _converter(hint: Any) -> Callable[[Any], Any]:
    """The decoder of one type hint (cached, so hints resolve once)."""
    scalar = {
        Any: lambda value: value, float: float, int: int, bool: _to_bool,
        str: _to_str,
    }.get(hint)
    if scalar is not None:
        return scalar
    if hint in _CUSTOM_DECODERS or hint in _FIELDWISE:
        decode = _CUSTOM_DECODERS.get(hint) or _fieldwise_decoder(hint)
        if hint not in _VERSIONED:
            return decode
        return lambda data: decode(_check_version(_mapping(data)))
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union and len(args) == 2 and type(None) in args:
        inner = _converter(args[0] if args[1] is type(None) else args[1])
        return lambda value: None if value is None else inner(value)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = _converter(args[0])
        return lambda value: tuple(item(v) for v in _sequence(value))
    if origin is tuple:
        items = [_converter(arg) for arg in args]
        return lambda value: tuple(
            item(v) for item, v in zip(items, _sequence(value), strict=True)
        )
    if origin is list:
        item = _converter(args[0])
        return lambda value: [item(v) for v in _sequence(value)]
    if origin is dict:
        key, item = _converter(args[0]), _converter(args[1])
        return lambda v: {key(k): item(x) for k, x in _mapping(v).items()}
    raise ConfigError(f"no codec for type {hint!r}")


def _fieldwise_decoder(cls: type) -> Callable[[Any], Any]:
    hints = _hints(cls)
    plan = [(
        f.name,
        _DECODE_HOOKS.get((cls, f.name)) or _converter(hints[f.name]),
        f.default is f.default_factory is dataclasses.MISSING,
    ) for f in dataclasses.fields(cls)]

    def decode(data: Any) -> Any:
        kwargs = {}
        _mapping(data)
        for name, convert, required in plan:
            if name in data:
                kwargs[name] = convert(data[name])
            elif required:
                raise ConfigError(
                    f"missing field {name!r} in {cls.__name__} document"
                )
        return cls(**kwargs)

    return decode


def _encode_option(value: Any) -> Any:
    """One backend option value as JSON-able data: mappings get string
    keys and job specs a tag, so that they round-trip."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, JobSpec):
        return {"__jobspec__": to_dict(value)}
    if isinstance(value, (list, tuple)):
        return [_encode_option(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _encode_option(v) for k, v in value.items()}
    raise ConfigError(f"cannot serialize option value of type "
                      f"{type(value).__name__}")


def _decode_option(value: Any) -> Any:
    if isinstance(value, dict):
        if "__jobspec__" in value:
            return _converter(JobSpec)(value["__jobspec__"])
        return {k: _decode_option(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_option(item) for item in value]
    return value


_ENCODE_HOOKS: Dict[tuple, Callable[[Any], Any]] = {
    (RunSpec, "options"): lambda options: [
        [key, _encode_option(value)] for key, value in options
    ],
    # An empty schedule is the documented no-op, bit-identical to no
    # schedule at all — normalize it to null so clean and zero-event
    # specs share one content hash (and cache entry).
    (RunSpec, "faults"): lambda faults: (
        None if faults is None or faults.is_empty else to_dict(faults)
    ),
    # Backend adapters keep ``data`` JSON-able by construction.
    (RunResult, "data"): lambda data: data,
}

_DECODE_HOOKS: Dict[tuple, Callable[[Any], Any]] = {
    (RunSpec, "options"): lambda options: tuple(
        (_to_str(key), _decode_option(value))
        for key, value in _sequence(options)
    ),
    (RunResult, "data"): dict,
}


# -- custom pairs: the types that are not plain dataclasses --------------

#: Share policies: kind tag and ``(document key = constructor argument,
#: attribute, type)`` rows.
_POLICIES: Dict[type, tuple] = {
    FairSharing: ("fair", ()),
    StaticWeighted: ("static-weighted", (
        ("weights", "weights", Dict[str, float]),
        ("default", "default_weight", float),
    )),
    AdaptiveUnfair: ("adaptive-unfair", tuple((name, name, float) for name in (
        "gain", "exponent", "base_weight", "reallocation_interval"
    ))),
    PrioritySharing: ("priority", (
        ("priorities", "priorities", Dict[str, int]),
        ("default", "default_priority", int),
    )),
}
_POLICY_KINDS = {kind: cls for cls, (kind, _) in _POLICIES.items()}


def _policy_to_dict(policy: SharePolicy) -> Dict[str, Any]:
    kind, rows = _POLICIES[type(policy)]
    fields = {
        key: _encoder(hint)(getattr(policy, attribute))
        for key, attribute, hint in rows
    }
    return {"kind": kind, **fields}


def _kind(data: Any, kinds: Dict[str, Any], what: str) -> Any:
    """The entry of ``kinds`` that ``data``'s ``"kind"`` tag names."""
    kind = _mapping(data).get("kind")
    if kind not in kinds:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    return kinds[kind]


def _policy_from_dict(data: Dict[str, Any]) -> SharePolicy:
    cls = _kind(data, _POLICY_KINDS, "policy")
    return cls(**{
        key: _converter(hint)(data[key])
        for key, _, hint in _POLICIES[cls][1]
        if key in data
    })


def _topology_from_dict(data: Dict[str, Any]) -> Topology:
    """Exact inverse: every directed link is explicit."""
    topology = Topology()
    for name, kind in data["nodes"]:
        topology.add_node(name, NodeKind(kind))
    for src, dst, capacity, name in data["links"]:
        topology.add_link(
            src, dst, float(capacity), name=name, bidirectional=False
        )
    return topology


def _step_function_from_dict(data: Dict[str, Any]) -> StepFunction:
    """Breakpoints are restored verbatim (not replayed through ``set``,
    whose no-op skipping could drop an overwrite-created breakpoint)."""
    fn = StepFunction(float(data["initial"]), name=data.get("name", ""))
    fn._times = [float(t) for t, _ in data["points"]]
    fn._values = [float(v) for _, v in data["points"]]
    return fn


def _time_series_from_dict(data: Dict[str, Any]) -> TimeSeries:
    series = TimeSeries(name=data.get("name", ""))
    series._times = [float(t) for t in data["times"]]
    series._values = [float(v) for v in data["values"]]
    return series


def _job_run_from_dict(data: Dict[str, Any]) -> JobRun:
    """A result container: no flows, no gate, no rng."""
    run = JobRun(
        spec=_converter(JobSpec)(data["spec"]), flows=[], gate=None,
        n_iterations=int(data["n_iterations"]),
        start_offset=float(data["start_offset"]),
        rng=np.random.default_rng(0),
    )
    run.state = JobState(data["state"])
    run.lifecycle.timeline = _converter(JobTimeline)(data["timeline"])
    run.rate_trace = _step_function_from_dict(data["rate_trace"])
    return run


_CUSTOM_ENCODERS: Dict[type, Callable[[Any], Dict[str, Any]]] = {
    # Nodes and directed links, in insertion order.
    Topology: lambda topology: {
        "nodes": [[node.name, node.kind.value] for node in topology.nodes],
        "links": [
            [link.src, link.dst, link.capacity, link.name]
            for link in topology.links
        ],
    },
    # Exact: integers only.
    JobCircle: lambda circle: {
        "job_id": circle.job_id,
        "perimeter": circle.perimeter,
        "comm_arcs": [
            [start, end - start] for start, end in circle.comm.intervals
        ],
        "demand": circle.demand,
    },
    **dict.fromkeys(_POLICIES, _policy_to_dict),
    PeriodicGate: lambda gate: {"kind": "periodic", **gate.to_state()},
    # Via the minimal breakpoint list.
    StepFunction: lambda fn: {
        "name": fn.name,
        "initial": fn._initial,
        "points": [list(pair) for pair in fn.breakpoints()],
    },
    TimeSeries: lambda series: {
        "name": series.name,
        "times": list(series._times),
        "values": list(series._values),
    },
    JobTimeline: lambda timeline: {
        "job_id": timeline.job_id, "samples": timeline.to_rows(),
    },
    # A completed run; flows, gate and rng are not carried.
    JobRun: lambda run: {
        "spec": to_dict(run.spec),
        "n_iterations": run.n_iterations,
        "start_offset": run.start_offset,
        "state": run.state.value,
        "timeline": to_dict(run.timeline),
        "rate_trace": to_dict(run.rate_trace),
    },
}

_CUSTOM_DECODERS: Dict[Any, Callable[[Any], Any]] = {
    Topology: _topology_from_dict,
    JobCircle: lambda data: JobCircle.from_arcs(
        _to_str(data["job_id"]),
        int(data["perimeter"]),
        [(int(s), int(length)) for s, length in data["comm_arcs"]],
        demand=float(data.get("demand", 1.0)),
    ),
    SharePolicy: _policy_from_dict,
    **dict.fromkeys((Gate, PeriodicGate), lambda data: _kind(
        data, {"periodic": PeriodicGate}, "gate"
    ).from_state(data)),
    FaultEventT: lambda data: _converter(
        _kind(data, EVENT_KINDS, "fault event")
    )(data),
    StepFunction: _step_function_from_dict,
    TimeSeries: _time_series_from_dict,
    JobTimeline: lambda data: JobTimeline.from_rows(
        _to_str(data["job_id"]), _sequence(data["samples"])
    ),
    JobRun: _job_run_from_dict,
}


# -- files: workloads, telemetry traces (JSONL) and run manifests --------

def save_workload(specs: Sequence[JobSpec], path: _PathLike) -> None:
    """Write a list of job specs to a JSON file."""
    jobs = [to_dict(spec) for spec in specs]
    document = {"version": FORMAT_VERSION, "jobs": jobs}
    Path(path).write_text(json.dumps(document, indent=2))


def load_workload(path: _PathLike) -> List[JobSpec]:
    """Read a list of job specs from a JSON file; a bad version, a
    missing ``jobs`` field or a malformed job raises ConfigError."""
    document = json.loads(Path(path).read_text())
    _check_version(document)
    if "jobs" not in document:
        raise ConfigError("workload file has no 'jobs' field")
    return [from_dict(JobSpec, entry) for entry in document["jobs"]]


def trace_to_jsonl(records: Sequence[TraceRecord]) -> str:
    """Serialize trace records to JSONL text.

    The first line is a header carrying the format version; each further
    line is one record. Keys are sorted and separators fixed so that two
    identical traces serialize to byte-identical text — the determinism
    tests depend on this.
    """
    lines = [
        json.dumps(
            {"type": "trace", "version": FORMAT_VERSION},
            sort_keys=True,
            separators=(",", ":"),
        )
    ]
    for record in records:
        lines.append(
            json.dumps(
                record.to_dict(), sort_keys=True, separators=(",", ":")
            )
        )
    return "\n".join(lines) + "\n"


def trace_from_jsonl(text: str) -> List[TraceRecord]:
    """Inverse of :func:`trace_to_jsonl`.

    Raises:
        ConfigError: on a missing/invalid header or a malformed record.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ConfigError("empty trace document")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad trace header: {exc}") from exc
    if not isinstance(header, dict) or header.get("type") != "trace":
        raise ConfigError("trace document has no trace header line")
    _check_version(header)
    records: List[TraceRecord] = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            records.append(TraceRecord.from_dict(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"trace line {number} is not valid JSON: {exc}"
            ) from exc
    return records


def save_trace(records: Sequence[TraceRecord], path: _PathLike) -> None:
    """Write trace records to a JSONL file."""
    Path(path).write_text(trace_to_jsonl(records))


def load_trace(path: _PathLike) -> List[TraceRecord]:
    """Read trace records from a JSONL file."""
    return trace_from_jsonl(Path(path).read_text())


def save_manifest(data: Dict[str, Any], path: _PathLike) -> None:
    """Write a run manifest (adds the format version)."""
    document = {"version": FORMAT_VERSION, **data}
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True))


def load_manifest(path: _PathLike) -> Dict[str, Any]:
    """Read a run manifest; an unknown format version raises
    ConfigError."""
    document = json.loads(Path(path).read_text())
    _check_version(document)
    return document
