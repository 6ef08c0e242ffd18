"""Phase-level event simulation of ML training jobs on a network.

Jobs alternate compute phases (no traffic) and communication phases
(``comm_bytes`` injected along the job's route). Whenever the set of
communicating jobs changes — or, for progress-dependent policies, on a
periodic tick — the simulator asks the share policy for weights/priorities
and the fluid allocator for rates. Between such events rates are constant,
so phase completions are computed *exactly*; there is no time-stepping
error. This is the engine behind Table 1, Figure 1d and Figure 2.

The on-off state machine itself lives in
:class:`repro.core.lifecycle.JobLifecycle`, shared with the fluid and
engine tiers; this module drives it from scheduled events and adds the
network: routed flows, the share policy, and the fluid rate allocator.

The sliding effect the paper describes needs no special code: with a
weighted (unfair) policy, the favoured job's communication phase ends
earlier, its next compute phase starts earlier, and after a few iterations
the jobs' phases interleave — exactly the Figure 2b dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..core.lifecycle import Gate, JobLifecycle, JobState
from ..core.timeline import IterationSample, JobTimeline
from ..errors import ConfigError, SimulationError, WorkloadError
from ..faults.events import (
    CAPACITY_EVENT_TYPES,
    InjectionSchedule,
    RateChange,
)
from ..faults.runtime import build_warp
from ..sim.engine import Simulator
from ..sim.rng import RandomStreams
from ..sim.trace import StepFunction
from ..telemetry import session as _telemetry_session
from ..telemetry.trace import (
    KIND_COMM,
    KIND_FAULT,
    KIND_ITERATION,
    KIND_PHASE,
    KIND_RATE,
)
from .flows import Flow
from .fluid import FluidAllocator
from .routing import Router
from .topology import Link, Topology

if TYPE_CHECKING:  # imported lazily to avoid a package import cycle
    from ..cc.base import SharePolicy
    from ..workloads.job import JobSpec

#: Residual bytes below which a communication phase counts as finished.
_BYTES_EPSILON = 1.0

#: Backwards-compatible name for the canonical per-iteration record.
IterationRecord = IterationSample

__all__ = [
    "Gate",
    "IterationRecord",
    "IterationSample",
    "JobRun",
    "JobState",
    "JobTimeline",
    "PhaseLevelSimulator",
    "SimulationResult",
]


class JobRun:
    """Runtime state of one job inside the simulator.

    Thin shell around the shared :class:`JobLifecycle`: it adds what is
    network-specific — the routed flows and the rate trace — and
    delegates every lifecycle question to the state machine.
    """

    def __init__(
        self,
        spec: JobSpec,
        flows: List[Flow],
        n_iterations: int,
        start_offset: float,
        gate: Optional[Gate],
        rng: np.random.Generator,
    ) -> None:
        self.spec = spec
        #: Plain attribute (not a delegating property): it is read in
        #: the simulator's per-event telemetry paths.
        self.job_id = spec.job_id
        #: The job's flows. Classic jobs have one; ring-allreduce jobs
        #: have one per hop, moving in lockstep (synchronous collective).
        self.flows = flows
        #: The primary flow (handed to policy hooks); plain attribute
        #: for the same hot-path reason as ``job_id``. The engine
        #: backend runs flowless jobs, hence the ``None`` fallback.
        self.flow = flows[0] if flows else None
        self.lifecycle = JobLifecycle.for_spec(
            spec,
            n_iterations=n_iterations,
            start_offset=start_offset,
            gate=gate,
            rng=rng,
        )
        self.rate_trace = StepFunction(0.0, name=f"rate:{spec.job_id}")
        self._finish_event = None

    @property
    def timeline(self) -> JobTimeline:
        """The job's canonical iteration record."""
        return self.lifecycle.timeline

    @property
    def records(self) -> List[IterationSample]:
        """Completed iterations (the timeline's samples)."""
        return self.lifecycle.timeline.samples

    @property
    def state(self) -> JobState:
        """Current lifecycle state."""
        return self.lifecycle.state

    @state.setter
    def state(self, value: JobState) -> None:
        self.lifecycle.state = value

    @property
    def done(self) -> bool:
        """Whether all requested iterations completed."""
        return self.lifecycle.done

    @property
    def iterations_done(self) -> int:
        """Completed iterations."""
        return self.lifecycle.iterations_done

    @property
    def n_iterations(self) -> int:
        """Requested iteration count."""
        return self.lifecycle.n_iterations

    @property
    def start_offset(self) -> float:
        """Simulation time of the first compute phase."""
        return self.lifecycle.start_offset

    @property
    def gate(self) -> Optional[Gate]:
        """The job's admission gate, if any."""
        return self.lifecycle.gate

    @property
    def segment_index(self) -> int:
        """Index of the current sub-phase within the iteration."""
        return self.lifecycle.segment_index

    @property
    def n_segments(self) -> int:
        """Sub-phases per iteration (1 for the classic on-off job)."""
        return self.lifecycle.n_segments

    @property
    def comm_sent(self) -> float:
        """Bytes credited toward the current communication segment."""
        return self.lifecycle.comm_sent

    @property
    def compute_factor(self) -> float:
        """This iteration's multiplicative compute jitter."""
        return self.lifecycle.compute_factor

    def iteration_times(self, skip: int = 0) -> np.ndarray:
        """Durations of completed iterations, seconds."""
        return self.lifecycle.timeline.iteration_times(skip)

    def sample_compute_factor(self) -> float:
        """Per-iteration multiplicative compute jitter (1.0 when none)."""
        return self.lifecycle.sample_compute_factor()

    def segment_compute_time(self) -> float:
        """Jittered compute time of the current segment."""
        return self.lifecycle.segment_compute_time()

    def segment_comm_bytes(self) -> float:
        """Communication bytes of the current segment."""
        return self.lifecycle.segment_comm_bytes()


@dataclass
class SimulationResult:
    """Everything a phase-level run produced.

    Attributes:
        jobs: Completed job runs keyed by job id.
        link_loads: Piecewise-constant total load on every traversed link.
        duration: Simulation time at which the run ended.
    """

    jobs: Dict[str, JobRun] = field(default_factory=dict)
    link_loads: Dict[str, StepFunction] = field(default_factory=dict)
    duration: float = 0.0

    def timeline(self, job_id: str) -> JobTimeline:
        """One job's canonical timeline."""
        return self.jobs[job_id].timeline

    def timelines(self) -> Dict[str, JobTimeline]:
        """Every job's timeline, keyed by job id."""
        return {job_id: run.timeline for job_id, run in self.jobs.items()}

    def iteration_times(self, job_id: str) -> np.ndarray:
        """Iteration durations for one job, seconds."""
        return self.timeline(job_id).iteration_times()

    def mean_iteration_time(self, job_id: str, skip: int = 0) -> float:
        """Mean iteration time, optionally skipping warm-up iterations."""
        return self.timeline(job_id).mean_iteration_time(skip)

    def median_iteration_time(self, job_id: str, skip: int = 0) -> float:
        """Median iteration time, optionally skipping warm-up iterations."""
        return self.timeline(job_id).median_iteration_time(skip)


class PhaseLevelSimulator:
    """Runs training jobs over a topology under a share policy."""

    def __init__(
        self,
        topology: Topology,
        policy: "SharePolicy",
        router: Optional[Router] = None,
        allocator: Optional[FluidAllocator] = None,
        seed: int = 0,
        telemetry: Optional["_telemetry_session.Telemetry"] = None,
    ) -> None:
        self.topology = topology
        self.policy = policy
        self.router = router if router is not None else Router(topology)
        self.allocator = allocator if allocator is not None else FluidAllocator()
        self._streams = RandomStreams(seed)
        self.telemetry = _telemetry_session.resolve(telemetry)
        self._sim = Simulator(telemetry=self.telemetry)
        self._realloc_counter = self.telemetry.counter(
            "phasesim.reallocations"
        )
        self._iteration_counter = self.telemetry.counter(
            "phasesim.iterations"
        )
        self._iteration_histogram = self.telemetry.histogram(
            "phasesim.iteration_seconds"
        )
        self._jobs: List[JobRun] = []
        self._active: List[JobRun] = []
        self._rates: Dict[JobRun, float] = {}
        self._last_progress_update = 0.0
        self._link_loads: Dict[str, StepFunction] = {}
        self._tick_event = None
        #: Base capacity of every link a fault window degrades, put back
        #: when :meth:`run` returns (``until`` may cut a window short).
        self._fault_bases: Dict[Link, float] = {}

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def add_job(
        self,
        spec: JobSpec,
        src: str,
        dst: str,
        n_iterations: int,
        start_offset: float = 0.0,
        gate: Optional[Gate] = None,
    ) -> JobRun:
        """Register a job whose traffic flows ``src -> dst``.

        Args:
            spec: The job's phase profile.
            src: Sending host.
            dst: Receiving host.
            n_iterations: Iterations to run before the job stops.
            start_offset: Simulation time of the first compute phase.
            gate: Optional flow-scheduling gate (§4, direction iii).
        """
        return self._register(
            spec, [(src, dst)], n_iterations, start_offset, gate
        )

    def add_ring_job(
        self,
        spec: JobSpec,
        worker_hosts: Sequence[str],
        n_iterations: int,
        start_offset: float = 0.0,
        gate: Optional[Gate] = None,
    ) -> JobRun:
        """Register a ring-allreduce job across ``worker_hosts``.

        One flow is created per ring hop between *distinct* hosts
        (including the closing hop back to the first worker). Ring
        allreduce is synchronous: every hop carries the same bytes and
        the collective advances at the rate of the slowest hop, which is
        exactly how the simulator treats the job's flows.
        """
        hosts = list(worker_hosts)
        if len(hosts) < 2:
            raise ConfigError("a ring job needs at least two workers")
        pairs = []
        ring = hosts + [hosts[0]]
        for a, b in zip(ring, ring[1:]):
            if a != b:
                pairs.append((a, b))
        if not pairs:
            raise ConfigError("ring workers must span at least two hosts")
        return self._register(
            spec, pairs, n_iterations, start_offset, gate
        )

    def _register(
        self,
        spec: JobSpec,
        endpoints: Sequence[tuple],
        n_iterations: int,
        start_offset: float,
        gate: Optional[Gate],
    ) -> JobRun:
        if n_iterations < 1:
            raise WorkloadError("n_iterations must be >= 1")
        if start_offset < 0:
            raise ConfigError("start_offset must be >= 0")
        if any(run.job_id == spec.job_id for run in self._jobs):
            raise ConfigError(f"duplicate job id {spec.job_id!r}")
        flows: List[Flow] = []
        for index, (src, dst) in enumerate(endpoints):
            links = self.router.route(
                src, dst, flow_label=f"{spec.job_id}:{index}"
            )
            flows.append(
                Flow(
                    flow_id=f"flow:{spec.job_id}:{index}",
                    src=src,
                    dst=dst,
                    links=links,
                    job_id=spec.job_id,
                )
            )
        run = JobRun(
            spec=spec,
            flows=flows,
            n_iterations=n_iterations,
            start_offset=start_offset,
            gate=gate,
            rng=self._streams.get(f"job:{spec.job_id}"),
        )
        self._jobs.append(run)
        for flow in flows:
            for link in flow.links:
                self._link_loads.setdefault(
                    link.name, StepFunction(0.0, name=f"load:{link.name}")
                )
        return run

    def install_faults(
        self, schedule: Optional[InjectionSchedule]
    ) -> None:
        """Arm an injection schedule on the simulator clock.

        Call after every :meth:`add_job`, before :meth:`run`. Capacity
        events (rate changes, failures, PFC storms — the latter degrade
        to transient failures in this tier, which has no PFC model)
        become boundary callbacks that mutate the named link's capacity
        and trigger a reallocation, and :meth:`run` restores every
        faulted link's capacity when it returns; job events and latency
        spikes become lifecycle warps. Link names must exist in the
        topology; job events naming unknown jobs are ignored (a schedule
        may span more jobs than one placement runs).
        """
        if schedule is None or schedule.is_empty:
            return
        known = {link.name for link in self.topology.links}
        for name in schedule.link_names():
            if name not in known:
                raise ConfigError(
                    f"fault schedule names unknown link {name!r}"
                )
        for event in schedule.events:
            if not isinstance(event, CAPACITY_EVENT_TYPES):
                continue
            # Directed topologies may reuse a name per direction; the
            # fault hits every link carrying it.
            targets = [
                link for link in self.topology.links
                if link.name == event.link
            ]
            for link in targets:
                base = self._fault_bases.setdefault(link, link.capacity)
                faulted = (
                    base * event.factor
                    if isinstance(event, RateChange)
                    else 0.0
                )
                # priority=-1: capacity flips before any same-time job
                # event sees the link, mirroring the fluid tiers where
                # the window starts at the tick boundary.
                self._sim.schedule_at(
                    event.start, self._apply_link_fault,
                    link, faulted, event.kind, "start", priority=-1,
                )
                self._sim.schedule_at(
                    event.end, self._apply_link_fault,
                    link, base, event.kind, "end", priority=-1,
                )
        for run in self._jobs:
            link_names = sorted({
                link.name for flow in run.flows for link in flow.links
            })
            warp = build_warp(schedule, run.job_id, link_names)
            if warp is not None:
                run.lifecycle.warp = warp

    def _apply_link_fault(
        self, link, capacity: float, kind: str, edge: str
    ) -> None:
        link.capacity = capacity
        if self.telemetry.enabled:
            self.telemetry.event(
                KIND_FAULT,
                t=self._sim.now,
                fault=kind,
                target=link.name,
                edge=edge,
                capacity=capacity,
            )
        self._reallocate()

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Execute the simulation and collect results.

        Runs until every job finishes its iterations or the clock reaches
        ``until``.
        """
        if not self._jobs:
            raise SimulationError("add at least one job before run()")
        self.policy.prepare(
            [flow for run in self._jobs for flow in run.flows]
        )
        for run in self._jobs:
            self._sim.schedule_at(run.start_offset, self._begin_iteration, run)
        try:
            end_time = self._sim.run(until=until)
        finally:
            for link, base in self._fault_bases.items():
                link.capacity = base
        return SimulationResult(
            jobs={run.job_id: run for run in self._jobs},
            link_loads=self._link_loads,
            duration=end_time,
        )

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------

    def _begin_iteration(self, run: JobRun) -> None:
        lifecycle = run.lifecycle
        compute_time = lifecycle.begin_iteration(self._sim.now)
        if self.telemetry.enabled:
            self.telemetry.event(
                KIND_PHASE,
                t=self._sim.now,
                job=run.job_id,
                state=JobState.COMPUTE.value,
                iteration=len(lifecycle.timeline),
            )
        self._sim.schedule(compute_time, self._finish_compute, run)

    def _finish_compute(self, run: JobRun) -> None:
        now = self._sim.now
        lifecycle = run.lifecycle
        if lifecycle.gate is None:  # ungated fast path
            self._begin_comm(run)
            return
        allowed = lifecycle.release_time(now)
        if allowed > now:
            lifecycle.enter_waiting()
            if self.telemetry.enabled:
                self.telemetry.event(
                    KIND_PHASE,
                    t=now,
                    job=run.job_id,
                    state=JobState.WAITING.value,
                    until=allowed,
                )
            self._sim.schedule_at(allowed, self._begin_comm, run)
            return
        self._begin_comm(run)

    def _begin_comm(self, run: JobRun) -> None:
        run.lifecycle.begin_comm(self._sim.now)
        if self.telemetry.enabled:
            self.telemetry.event(
                KIND_PHASE,
                t=self._sim.now,
                job=run.job_id,
                state=JobState.COMM.value,
                segment=run.lifecycle.segment_index,
            )
        for flow in run.flows:
            flow.progress = 0.0
        self.policy.on_phase_start(run.flow)
        self._active.append(run)
        self._reallocate()

    def _finish_comm(self, run: JobRun) -> None:
        now = self._sim.now
        run._finish_event = None
        self._advance_progress(now)
        lifecycle = run.lifecycle
        # Guard against spurious events racing a reallocation.
        if lifecycle.comm_budget - lifecycle.comm_sent > _BYTES_EPSILON:
            self._reallocate()
            return
        self.policy.on_phase_end(run.flow)
        self._active.remove(run)
        self._rates.pop(run, None)
        run.rate_trace.set(now, 0.0)
        if self.telemetry.enabled:
            self.telemetry.event(
                KIND_COMM,
                t=now,
                job=run.job_id,
                flow=run.flow.flow_id,
                segment=lifecycle.segment_index,
                bytes=lifecycle.comm_budget,
            )
        if lifecycle.has_more_segments:
            # More sub-phases this iteration (layer-wise allreduce).
            compute_time = lifecycle.advance_segment(now)
            self._sim.schedule(compute_time, self._finish_compute, run)
            self._reallocate()
            return
        sample = lifecycle.close_iteration(now)
        if self.telemetry.enabled:
            self._iteration_counter.inc()
            self._iteration_histogram.observe(sample.duration)
            self.telemetry.event(
                KIND_ITERATION,
                t=now,
                job=run.job_id,
                index=sample.index,
                duration=sample.duration,
                comm_duration=sample.comm_duration,
            )
        if lifecycle.state is not JobState.DONE:
            self._begin_iteration(run)
        self._reallocate()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _advance_progress(self, now: float) -> None:
        """Credit bytes sent since the last rate change to each flow."""
        dt = now - self._last_progress_update
        if dt > 0:
            rates = self._rates
            for run in self._active:
                # Inlined lifecycle.credit(): this runs once per active
                # job per rate change — the simulator's hottest loop.
                run.lifecycle.comm_sent += rates.get(run, 0.0) * dt
        self._last_progress_update = now

    def _reallocate(self) -> None:
        now = self._sim.now
        self._advance_progress(now)

        flows: List[Flow] = []
        for run in self._active:
            lifecycle = run.lifecycle
            progress = min(
                lifecycle.comm_sent / lifecycle.comm_budget, 1.0
            )
            for flow in run.flows:
                flow.progress = progress
                flow.weight = self.policy.weight_of(flow)
                flow.priority = self.policy.priority_of(flow)
                flow.rate_cap = None  # reset any prior lockstep cap
                flows.append(flow)

        allocation = self.allocator.allocate(flows)

        def job_rate(run: JobRun) -> float:
            # Synchronous collectives advance at the slowest hop.
            return min(allocation.rate_of(flow) for flow in run.flows)

        if any(len(run.flows) > 1 for run in self._active):
            # Lockstep redistribution: cap every hop of a multi-flow job
            # at its slowest hop's rate and re-allocate once, so flows
            # sharing links with the bottleneck hop reclaim the slack.
            for run in self._active:
                rate = job_rate(run)
                if rate > 0:
                    for flow in run.flows:
                        flow.rate_cap = rate
            allocation = self.allocator.allocate(flows)

        # Update rates and reschedule each active job's completion.
        self._realloc_counter.inc()
        for run in self._active:
            rate = job_rate(run)
            if self.telemetry.enabled and rate != self._rates.get(run):
                self.telemetry.event(
                    KIND_RATE,
                    t=now,
                    job=run.job_id,
                    flow=run.flow.flow_id,
                    rate=rate,
                )
            self._rates[run] = rate
            run.rate_trace.set(now, rate)
            if run._finish_event is not None:
                self._sim.cancel(run._finish_event)
                run._finish_event = None
            lifecycle = run.lifecycle
            remaining = lifecycle.comm_budget - lifecycle.comm_sent
            if remaining <= _BYTES_EPSILON:
                run._finish_event = self._sim.schedule(
                    0.0, self._finish_comm, run
                )
            elif rate > 0:
                run._finish_event = self._sim.schedule(
                    remaining / rate, self._finish_comm, run
                )
            # rate == 0 (starved by a higher priority class): no event; the
            # next state change will reallocate and reschedule.

        self._record_link_loads(now, allocation)
        self._manage_tick()

    def _record_link_loads(self, now: float, allocation) -> None:
        loads: Dict[str, float] = {name: 0.0 for name in self._link_loads}
        for run in self._active:
            rate = self._rates.get(run, 0.0)
            for flow in run.flows:
                for link in flow.links:
                    loads[link.name] += rate
        for name, load in loads.items():
            self._link_loads[name].set(now, load)

    def _manage_tick(self) -> None:
        """Keep a periodic reallocation tick alive for adaptive policies."""
        interval = self.policy.reallocation_interval
        if interval is None:
            return
        if self._tick_event is not None:
            self._sim.cancel(self._tick_event)
            self._tick_event = None
        # Only re-arm while some active job is actually moving: with
        # every rate at zero (e.g. a failed link) progress cannot change,
        # so a tick would reschedule itself forever and an unbounded run
        # would never drain its event queue. Whatever external event revives a
        # flow (fault boundary, phase change) reallocates and re-arms.
        if self._active and any(
            self._rates.get(run, 0.0) > 0.0 for run in self._active
        ):
            self._tick_event = self._sim.schedule(
                interval, self._tick, priority=1
            )

    def _tick(self) -> None:
        self._tick_event = None
        if self._active:
            self._reallocate()
