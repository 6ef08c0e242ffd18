"""Declarative run specifications and their results.

A :class:`RunSpec` is the library's first-class "one simulation run"
object: topology + job specs + share policy + duration + seed + backend
name, frozen and content-hashable. Experiment drivers build specs and
hand them to :func:`repro.runner.run_many`; which simulator actually
executes a spec is decided by the backend registry
(:mod:`repro.runner.backends`), so the same driver code can fan out
across processes, hit the on-disk result cache, or switch fidelity.

The content hash (:meth:`RunSpec.content_hash`) is a SHA-256 over the
spec's canonical JSON form (via :mod:`repro.io`), excluding the cosmetic
``label``. Two specs that would produce the same result hash the same —
that hash keys the ``runs/cache/`` result cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from ..core.lifecycle import Gate
from ..core.timeline import JobTimeline
from ..errors import ConfigError
from ..faults.events import InjectionSchedule
from ..net.phasesim import SimulationResult
from ..net.topology import Topology
from ..sim.rng import _stable_hash
from ..workloads.job import JobSpec

# SharePolicy imported lazily (type-only) to keep import cycles away.
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..cc.base import SharePolicy
    from ..cc.dcqcn import DcqcnResult


def derive_seed(seed: int, name: str) -> int:
    """A deterministic per-spec seed derived from ``(seed, name)``.

    Built on :func:`repro.sim.rng._stable_hash`, so — like named random
    streams — adding a new derived seed never perturbs existing ones.
    The result is folded to 63 bits (numpy seeds must be non-negative).
    """
    return _stable_hash((int(seed), str(name))) & 0x7FFFFFFFFFFFFFFF


def freeze_mapping(mapping: Optional[Mapping[str, Any]]) -> Tuple:
    """Normalize an optional mapping to a sorted tuple of pairs."""
    if not mapping:
        return ()
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True)
class SenderSpec:
    """One traffic source in a fluid-backend scenario.

    ``compute_time is None`` describes a long-lived DCQCN sender;
    otherwise the sender is an on-off training job alternating
    ``compute_time`` seconds of silence with ``comm_bytes`` of traffic.
    ``stream`` names the RNG stream the sender draws from (defaults to
    ``dcqcn:<name>``); scenarios within one spec share one
    :class:`~repro.sim.rng.RandomStreams`, so a stream reused across
    scenarios continues its sequence — exactly how the original
    experiments consumed randomness.

    ``route`` names the fabric links the sender's traffic traverses, in
    order; it requires the spec to carry a ``topology`` and switches the
    fluid backend to the multi-link fabric
    (:class:`repro.cc.sender_bank.LinkFabric`). Empty on
    single-bottleneck runs, whose every sender crosses ``L1``.
    """

    name: str
    timer: float
    data_bytes: Optional[float] = None
    compute_time: Optional[float] = None
    comm_bytes: Optional[float] = None
    start_offset: float = 0.0
    stream: str = ""
    route: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ScenarioSpec:
    """A named sender lineup executed by the fluid backend."""

    name: str
    senders: Tuple[SenderSpec, ...]


@dataclass(frozen=True)
class RunSpec:
    """One declarative simulation run.

    Only the fields a backend consumes need to be set: phase/engine
    runs use ``jobs``/``policy``/``n_iterations``/``gates``; fluid runs
    use ``scenarios``/``duration``; custom backends read ``options``.

    Attributes:
        backend: Registry name of the executing backend.
        label: Cosmetic name (excluded from the content hash).
        seed: Root seed; backends derive their streams from it.
        jobs: Job specs for phase-style backends.
        policy: Share policy for phase-style backends.
        topology: Explicit topology; ``None`` lets the backend build its
            default (the dumbbell for phase runs).
        n_iterations: Iterations per job for phase-style backends.
        capacity: Bottleneck capacity; ``0.0`` means backend default.
        start_offsets: ``(job_id, start_offset)`` pairs.
        gates: ``(job_id, gate)`` pairs (flow-scheduling admission).
        until: Optional simulation-time horizon.
        duration: Simulated seconds for fluid-style backends.
        scenarios: Sender lineups for the fluid backend (run in order,
            sharing one ``RandomStreams``).
        options: Backend-specific ``(key, value)`` pairs.
        backend_module: Module to import before resolving ``backend`` —
            lets experiment modules register their own backends and
            still execute in spawn-style worker processes.
        faults: Optional validated perturbation schedule
            (:class:`repro.faults.InjectionSchedule`); every built-in
            backend honors it, and ``None`` or an empty schedule leaves
            the run bit-identical to an unfaulted one.
    """

    backend: str
    label: str = ""
    seed: int = 0
    jobs: Tuple[JobSpec, ...] = ()
    policy: Optional["SharePolicy"] = None
    topology: Optional[Topology] = None
    n_iterations: int = 0
    capacity: float = 0.0
    start_offsets: Tuple[Tuple[str, float], ...] = ()
    gates: Tuple[Tuple[str, Gate], ...] = ()
    until: Optional[float] = None
    duration: float = 0.0
    scenarios: Tuple[ScenarioSpec, ...] = ()
    options: Tuple[Tuple[str, Any], ...] = ()
    backend_module: str = ""
    faults: Optional[InjectionSchedule] = None

    def __post_init__(self) -> None:
        if not self.backend:
            raise ConfigError("a run spec needs a backend name")

    # -- convenient views ----------------------------------------------

    def options_dict(self) -> Dict[str, Any]:
        """The ``options`` pairs as a dict."""
        return dict(self.options)

    def start_offsets_dict(self) -> Dict[str, float]:
        """The ``start_offsets`` pairs as a dict."""
        return dict(self.start_offsets)

    def gates_dict(self) -> Dict[str, Gate]:
        """The ``gates`` pairs as a dict."""
        return dict(self.gates)

    def replace(self, **changes: Any) -> "RunSpec":
        """A copy of this spec with the given fields replaced."""
        return replace(self, **changes)

    # -- identity ------------------------------------------------------

    def content_hash(self) -> str:
        """Stable SHA-256 of the spec's canonical serialized form.

        Excludes ``label`` (cosmetic). Raises :class:`ConfigError` when
        the spec contains something :mod:`repro.io` cannot serialize
        (e.g. an ad-hoc gate closure) — such specs are simply not
        cacheable; see :meth:`cacheable`.
        """
        from .. import io

        document = io.to_dict(self)
        document.pop("label", None)
        canonical = json.dumps(
            document, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def cacheable(self) -> bool:
        """Whether the spec serializes (and can therefore be cached)."""
        try:
            self.content_hash()
        except ConfigError:
            return False
        return True


def safe_content_hash(spec: RunSpec) -> str:
    """``spec.content_hash()``, or ``""`` when the spec is uncacheable."""
    try:
        return spec.content_hash()
    except ConfigError:
        return ""


@dataclass
class FluidScenarioResult:
    """One fluid-backend scenario's outcome.

    Bundles the sampled rate/queue traces with the on-off jobs'
    canonical timelines (plain long-lived senders have none).
    """

    trace: "DcqcnResult"
    timelines: Dict[str, JobTimeline] = field(default_factory=dict)

    def timeline(self, name: str) -> JobTimeline:
        """One on-off job's canonical timeline."""
        try:
            return self.timelines[name]
        except KeyError:
            raise ConfigError(
                f"scenario has no timeline for {name!r} "
                f"(has {sorted(self.timelines)})"
            ) from None

    def iteration_times(self, name: str, skip: int = 0) -> np.ndarray:
        """Durations of ``name``'s completed iterations, seconds.

        Unknown names yield an empty array (a plain long-lived sender
        completes no iterations).
        """
        timeline = self.timelines.get(name)
        if timeline is None:
            return np.asarray([], dtype=float)
        return timeline.iteration_times(skip)

    def iterations(self, name: str) -> int:
        """Completed iterations of ``name``."""
        timeline = self.timelines.get(name)
        return 0 if timeline is None else len(timeline)

    def mean_iteration_time(self, name: str, skip: int = 0) -> float:
        """Mean iteration time of one on-off job, seconds."""
        return self.timeline(name).mean_iteration_time(skip)

    def median_iteration_time(self, name: str, skip: int = 0) -> float:
        """Median iteration time of one on-off job, seconds."""
        return self.timeline(name).median_iteration_time(skip)


@dataclass(frozen=True)
class RunResult:
    """What a backend produced for one :class:`RunSpec`.

    Exactly one payload area is populated, depending on the backend:
    ``phase`` for phase/engine runs, ``fluid`` for fluid runs, ``data``
    (plain JSON-able values) for custom backends.
    """

    spec_hash: str
    backend: str
    label: str = ""
    phase: Optional[SimulationResult] = None
    fluid: Dict[str, FluidScenarioResult] = field(default_factory=dict)
    data: Dict[str, Any] = field(default_factory=dict)

    def scenario(self, name: str) -> FluidScenarioResult:
        """One fluid scenario by name."""
        try:
            return self.fluid[name]
        except KeyError:
            raise ConfigError(
                f"run result has no scenario {name!r} "
                f"(has {sorted(self.fluid)})"
            ) from None

    def timelines(
        self, scenario: Optional[str] = None
    ) -> Dict[str, JobTimeline]:
        """Canonical per-job timelines, whatever the backend.

        Phase/engine results read them from the simulation; fluid
        results need ``scenario`` unless the run had exactly one; data
        backends must have serialized a ``"timelines"`` entry.
        """
        if self.phase is not None:
            return self.phase.timelines()
        if self.fluid:
            if scenario is None:
                if len(self.fluid) != 1:
                    raise ConfigError(
                        "run has several scenarios; pass scenario= "
                        f"(one of {sorted(self.fluid)})"
                    )
                scenario = next(iter(self.fluid))
            return dict(self.scenario(scenario).timelines)
        payload = self.data.get("timelines")
        if payload is not None:
            from .. import io

            return {
                job_id: io.from_dict(JobTimeline, document)
                for job_id, document in payload.items()
            }
        raise ConfigError(
            f"{self.backend!r} run result carries no timelines"
        )
