"""Cross-engine bit-equivalence of the fluid tiers *under* injection.

The DCQCN vector engine is bit-identical to the scalar reference on
clean runs. Fault windows add three new code paths — normal windows at
a scaled capacity, freeze spans and storm spans, plus the span
fast-forward truncating at every window boundary — and each must
preserve the guarantee: same sampled series, same timelines, and the
same number of random draws (so downstream randomness is unshifted).

AIMD has no fast path. Its single-bottleneck loop must equal its fabric
loop on a one-link dumbbell, and its fault windows must do what they
model: a failed link holds every rate, a storm drains the queue with no
arrivals, and the base capacity comes back after the run.
"""

import numpy as np
import pytest

from repro.cc.aimd import AimdFluidSimulator, AimdParams, OnOffAimdJob
from repro.cc.dcqcn import (
    AGGRESSIVE_TIMER,
    DEFAULT_TIMER,
    DcqcnFluidSimulator,
    DcqcnParams,
    OnOffDcqcnJob,
)
from repro.faults import (
    ClockSkew,
    InjectionSchedule,
    LatencySpike,
    LinkFailure,
    PfcStorm,
    RateChange,
    Straggler,
)
from repro.net.topology import Topology
from repro.units import gbps, mbps

#: Mid-run perturbations exercising every window mode, with boundaries
#: deliberately off the sample grid so span truncation is stressed.
SCHEDULES = {
    "rate-spike": InjectionSchedule(events=(
        RateChange("L1", 0.0052, 0.0095, 0.35),
        RateChange("L1", 0.0214, 0.0289, 1.6),
    )),
    "link-failure": InjectionSchedule(events=(
        LinkFailure("L1", 0.0111, 0.0183),
    )),
    "pfc-storm": InjectionSchedule(events=(
        PfcStorm("L1", 0.0077, 0.0121),
    )),
    "job-warps": InjectionSchedule(events=(
        Straggler("J1", 0.0, 0.02, 1.7),
        ClockSkew("J2", 0.01, 0.03, 0.0004),
        LatencySpike("L1", 0.02, 0.04, 0.0003),
    )),
    "everything": InjectionSchedule(events=(
        RateChange("L1", 0.004, 0.008, 0.5),
        PfcStorm("L1", 0.012, 0.015),
        LinkFailure("L1", 0.02, 0.024),
        Straggler("J2", 0.0, 0.05, 1.3),
    ), horizon=0.06),
}


def _series_equal(left, right):
    assert set(left.rate_series) == set(right.rate_series)
    for name, series in left.rate_series.items():
        other = right.rate_series[name]
        assert np.array_equal(series.times, other.times), name
        assert np.array_equal(series.values, other.values), name
    # The DCQCN tier also samples the bottleneck queue; AIMD does not.
    if hasattr(left, "queue_series"):
        assert np.array_equal(
            left.queue_series.times, right.queue_series.times
        )
        assert np.array_equal(
            left.queue_series.values, right.queue_series.values
        )


def _dcqcn(engine, faults):
    sim = DcqcnFluidSimulator(
        capacity=gbps(50), dt=10e-6, engine=engine, faults=faults
    )
    params = DcqcnParams(line_rate=gbps(50))
    jobs, rngs = [], []
    for index, timer in enumerate(
        (AGGRESSIVE_TIMER, DEFAULT_TIMER, DEFAULT_TIMER)
    ):
        rng = np.random.default_rng(40 + index)
        job = OnOffDcqcnJob(
            f"J{index + 1}",
            params.with_timer(timer),
            rng,
            compute_time=0.0011,
            comm_bytes=0.0013 * gbps(50),
            start_offset=index * 0.0003,
        )
        sim.add_source(job)
        jobs.append(job)
        rngs.append(rng)
    return sim, jobs, rngs


def _aimd(faults, one_link=False):
    """Three AIMD jobs on the bottleneck; ``one_link`` runs them on the
    fabric loop over a one-link dumbbell instead."""
    topology, route = None, ()
    if one_link:
        topology = Topology.dumbbell(bottleneck_capacity=mbps(400))
        route = ("L1",)
    sim = AimdFluidSimulator(
        capacity=mbps(400), dt=1e-3, sample_interval=5e-3,
        faults=faults, topology=topology,
    )
    jobs = []
    for index in range(3):
        # The AIMD tier is jitter-free: no RNG to track.
        jobs.append(sim.add_job(
            f"J{index + 1}",
            compute_time=0.11,
            comm_bytes=0.13 * mbps(400),
            start_offset=index * 0.03,
            route=route,
        ))
    return sim, jobs


def _aimd_busy(faults):
    """A backlogged sender and one job whose first burst starts at
    0.11 s: the bottleneck is full from then on."""
    sim = AimdFluidSimulator(
        capacity=mbps(400), dt=1e-3, sample_interval=5e-3, faults=faults,
    )
    sim.add_sender("bg")
    sim.add_job("J1", compute_time=0.11, comm_bytes=0.13 * mbps(400))
    return sim


class TestDcqcnFaultEquivalence:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_bit_identical_under_faults(self, name):
        faults = SCHEDULES[name]
        sim_s, jobs_s, rngs_s = _dcqcn("scalar", faults)
        sim_v, jobs_v, rngs_v = _dcqcn("vector", faults)
        result_s = sim_s.run(0.05)
        result_v = sim_v.run(0.05)
        _series_equal(result_s, result_v)
        for job_s, job_v in zip(jobs_s, jobs_v):
            assert (
                repr(job_s.timeline.__dict__)
                == repr(job_v.timeline.__dict__)
            )
        # Same number of random draws: the generators must sit at the
        # same stream position after the run.
        for rng_s, rng_v in zip(rngs_s, rngs_v):
            assert (
                rng_s.bit_generator.state == rng_v.bit_generator.state
            )

    def test_pfc_pause_counter_matches(self):
        faults = SCHEDULES["pfc-storm"]
        sim_s, _, _ = _dcqcn("scalar", faults)
        sim_v, _, _ = _dcqcn("vector", faults)
        sim_s.run(0.05)
        sim_v.run(0.05)
        # The storm forcibly accrues pause time in both engines.
        assert sim_s.pfc_pause_seconds > 0.0
        assert sim_s.pfc_pause_seconds == sim_v.pfc_pause_seconds

    def test_capacity_restored_after_run(self):
        faults = SCHEDULES["everything"]
        for engine in ("scalar", "vector"):
            sim, _, _ = _dcqcn(engine, faults)
            base = sim.capacity
            sim.run(0.05)
            assert sim.capacity == base
            assert sim.queue.capacity == base


class TestAimdFaultEquivalence:
    """Single-bottleneck loop == fabric loop on a one-link dumbbell."""

    @pytest.mark.parametrize(
        "name", ["rate-spike", "link-failure", "pfc-storm", "job-warps"]
    )
    def test_bit_identical_under_faults(self, name):
        faults = SCHEDULES[name]
        sim_d, jobs_d = _aimd(faults)
        sim_f, jobs_f = _aimd(faults, one_link=True)
        result_d = sim_d.run(4.0)
        result_f = sim_f.run(4.0)
        _series_equal(result_d, result_f)
        for job_d, job_f in zip(jobs_d, jobs_f):
            assert (
                repr(job_d.timeline.__dict__)
                == repr(job_f.timeline.__dict__)
            )


class TestAimdFaultBehaviour:
    def test_failure_holds_rates(self, rate_window):
        faults = InjectionSchedule(events=(LinkFailure("L1", 0.15, 0.2),))
        faulted = rate_window(_aimd_busy(faults).run(0.3), 0.15, 0.2)
        clean = rate_window(_aimd_busy(None).run(0.3), 0.15, 0.2)
        for name, (entry, inside) in faulted.items():
            assert len(inside) == 10
            assert (inside == entry).all(), name
            # Without the failure the same samples move.
            assert not (clean[name][1] == entry).all(), name

    def test_storm_drains_queue_without_arrivals(self, rate_window):
        faults = InjectionSchedule(events=(PfcStorm("L1", 0.15, 0.2),))
        entering = _aimd_busy(faults)
        entering.run(0.15)
        start = entering.queue.occupancy
        assert start > 0
        per_tick = mbps(400) * 1e-3  # capacity * dt
        for ticks in (1, 3, 10):
            sim = _aimd_busy(faults)
            sim.run(0.15 + ticks * 1e-3)
            assert sim.queue.occupancy == pytest.approx(
                max(0.0, start - ticks * per_tick)
            )
        rows = rate_window(_aimd_busy(faults).run(0.3), 0.15, 0.2)
        for name, (entry, inside) in rows.items():
            assert (inside == entry).all(), name

    def test_capacity_restored_after_run(self):
        faults = InjectionSchedule(events=(
            RateChange("L1", 0.05, 0.5, 0.3),
        ))
        # One run ends inside the window, one after it.
        for duration in (0.2, 0.6):
            sim = _aimd_busy(faults)
            base = sim.capacity
            sim.run(duration)
            assert sim.capacity == base
            assert sim.queue.capacity == base


class TestFaultedVsCleanDiffer:
    """Sanity: the perturbations actually change the dynamics."""

    def test_dcqcn_faulted_run_differs_from_clean(self):
        sim_clean, jobs_clean, _ = _dcqcn("vector", None)
        sim_fault, jobs_fault, _ = _dcqcn(
            "vector", SCHEDULES["everything"]
        )
        clean = sim_clean.run(0.05)
        faulted = sim_fault.run(0.05)
        assert not np.array_equal(
            clean.queue_series.values, faulted.queue_series.values
        )
