"""Multi-link fabric mode of the fixed-step DCQCN fluid tier.

Generalizes the single-bottleneck model of
:class:`repro.cc.dcqcn.DcqcnFluidSimulator` to *a vector of links per
sender*: every sender carries a route (a tuple of named
:class:`repro.net.topology.Link` instances resolved through a
:class:`~repro.net.topology.Topology`), each link runs its own fluid
queue with RED/ECN marking and PFC hysteresis, and a sender reacts to
its **most congested hop** — the maximum marking probability along its
route, and a full stop while any route link is PFC-paused, failed or
storming.

The engine pair shares one contract, exactly as on the single link:

* :func:`run_scalar_fabric` — the dt-by-dt reference loop over live
  sender objects. This defines the semantics, on a topology and on the
  single bottleneck (the one-link fabric
  :meth:`~repro.cc.sender_bank.LinkFabric.bottleneck`) alike.
* :class:`LinkSenderBank` — the entry point of the one DCQCN vector
  engine, :class:`repro.cc.sender_bank.SenderBank`, for a topology: it
  attaches the simulator's :class:`~repro.cc.sender_bank.LinkFabric`
  and builds the bank over it. The bank's per-link folds, span cuts
  and per-tick kernel are the same code that runs the single bottleneck
  as a one-link fabric, and every committed quantity is bit-identical
  to the reference loop, which ``tests/test_fattree_equivalence.py``
  pins (series, per-link queue series, timelines and RNG stream
  positions).

Fault schedules may target any named fabric link:
:func:`repro.faults.runtime.link_capacity_windows` merges the per-link
windows, windows that fault only some links run the per-tick kernel
(blocking is per route, so no span fast-forward), and per-job warps see
exactly the links on the job's route.
"""

from __future__ import annotations

from typing import Optional

from ..core.lifecycle import OnOffSource
from ..faults.runtime import (  # simlint: disable=ARCH001 - CC tiers execute fault windows inline for bit-equivalence; shared types pending a layer move
    MODE_FREEZE,
    MODE_NORMAL,
    MODE_STORM,
)
from .dcqcn import DcqcnResult, _SampleBuffer
from .sender_bank import LinkFabric, SenderBank


def build_fabric(sim) -> LinkFabric:
    """Resolve a simulator's routes against its topology into a fabric."""
    extra = () if sim.faults is None else tuple(sim.faults.link_names())
    return LinkFabric.from_topology(
        sim.topology, sim.routes, extra_links=extra
    )


# ---------------------------------------------------------------------------
# Scalar reference
# ---------------------------------------------------------------------------

def run_scalar_fabric(sim, fabric: LinkFabric, duration: float):
    """The dt-by-dt reference loop over ``fabric``; defines the semantics
    for every topology (the single bottleneck is the one-link fabric of
    :meth:`LinkFabric.bottleneck`, whose PFC state is written back to
    ``sim.pfc_paused``).

    Per tick, in order: (1) per-link PFC hysteresis on normal-mode
    links; (2) per-link marking probability; (3) senders in insertion
    order — a sender whose route crosses any blocked link (paused,
    failed or storming) is skipped entirely, otherwise it steps under
    the maximum marking probability along its route and its bytes land
    on every route link; (4) per-link queue update — failed links hold,
    paused/storming links accrue pause time and drain, normal links
    integrate their arrivals.
    """
    dt = sim.dt
    steps = int(round(duration / dt))
    samples_every = max(1, int(round(sim.sample_interval / dt)))
    samples = _SampleBuffer(None if fabric.is_bottleneck else fabric.names)
    result = DcqcnResult(duration=duration)
    marker = sim.marker
    queues = fabric.queues
    modes = fabric.modes
    routes = fabric.routes
    paused = fabric.paused
    pause_seconds = fabric.pause_seconds
    n_links = len(queues)
    has_pfc = sim.pfc_pause_threshold is not None
    pause_threshold = sim.pfc_pause_threshold
    resume_threshold = sim.pfc_resume_threshold
    blocked = [False] * n_links
    p_link = [0.0] * n_links
    arrivals = [0.0] * n_links
    for window in fabric.windows(sim.faults, steps, dt):
        fabric.apply_window(window.modes)
        for step_index in range(window.start, window.end):
            now = step_index * dt
            for link in range(n_links):
                if modes[link] == MODE_NORMAL:
                    occupancy = queues[link].occupancy
                    if has_pfc:
                        if not paused[link] and occupancy >= pause_threshold:
                            paused[link] = True
                        elif paused[link] and occupancy <= resume_threshold:
                            paused[link] = False
                    blocked[link] = paused[link]
                    p_link[link] = marker.marking_probability(occupancy)
                else:
                    blocked[link] = True
                arrivals[link] = 0.0
            for slot, sender in enumerate(sim.senders):
                route = routes[slot]
                skip = False
                for link in route:
                    if blocked[link]:
                        skip = True
                        break
                if skip:
                    continue
                p_mark = 0.0
                for link in route:
                    if p_link[link] > p_mark:
                        p_mark = p_link[link]
                sent = sender.step(now, dt, p_mark)
                for link in route:
                    arrivals[link] += sent
            for link in range(n_links):
                mode = modes[link]
                if mode == MODE_FREEZE:
                    continue
                if mode == MODE_STORM or paused[link]:
                    pause_seconds[link] += dt
                    sim.pfc_pause_seconds += dt
                queues[link].step(
                    arrivals[link] / dt if dt > 0 else 0.0, dt
                )
            if (step_index + 1) % samples_every == 0:
                samples.snapshot(
                    (step_index + 1) * dt,
                    sim.senders,
                    [queue.occupancy for queue in queues],
                )
    fabric.restore()
    if fabric.is_bottleneck:
        sim.pfc_paused = paused[0]
    samples.flush(result, [s.name for s in sim.senders], sim.telemetry)
    if sim.telemetry.enabled:
        sim.telemetry.counter("cc.steps").inc(steps)
        cnp_counter = sim.telemetry.counter("cc.cnps")
        for sender in sim.senders:
            cnp_counter.inc(getattr(sender, "cnps_received", 0))
    result.timelines = {
        sender.name: sender.timeline
        for sender in sim.senders
        if isinstance(sender, OnOffSource)
    }
    return result


class LinkSenderBank(SenderBank):
    """The vector engine over a topology-backed simulator's fabric."""

    @classmethod
    def build(cls, sim) -> Optional["LinkSenderBank"]:
        """Attach ``sim``'s fabric (built once, then reused across runs
        like the scalar loop's) and build the bank over it."""
        if sim.fabric is None:
            sim.fabric = build_fabric(sim)
        return super().build(sim)
