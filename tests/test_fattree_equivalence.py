"""Cross-engine bit-equivalence of the multi-link fabric tier.

The fat-tree generalization runs the one engine pair — the per-link
scalar reference (:func:`repro.cc.dcqcn.run_scalar_fabric`) and the
vectorized :class:`repro.cc.sender_bank.SenderBank` — over a many-link
fabric, and the single-link guarantee must carry over verbatim: same sampled rate
series, same per-link queue series, same timelines and the same number
of random draws, on clean runs and under fault schedules that now
target *different* links of the same fabric. The AIMD fabric loop has
no fast path; its tests pin what each fault window does to the routed
sources and link queues.
"""

import numpy as np
import pytest

from repro.cc.aimd import AimdFluidSimulator
from repro.cc.dcqcn import (
    AGGRESSIVE_TIMER,
    DEFAULT_TIMER,
    DcqcnFluidSimulator,
    DcqcnParams,
    OnOffDcqcnJob,
)
from repro.errors import ConfigError, TopologyError
from repro.faults import (
    InjectionSchedule,
    LatencySpike,
    LinkFailure,
    PfcStorm,
    RateChange,
    Straggler,
)
from repro.net.topology import Topology
from repro.units import gbps, kib, mbps

# Three jobs on a k=4 fat tree, all converging on pod 1's downlinks so
# the shared links genuinely queue: J1/J2 start in pod 0 (sharing that
# pod's uplink), J3 in pod 2, and all three ride core0 -> agg1_0 ->
# edge1_0 down to pod 1 hosts.
ROUTES = {
    "J1": (
        "h0_0_0->edge0_0", "up_0_0_0", "core_0_0_0",
        "core_1_0_0_rev", "up_1_0_0_rev", "edge1_0->h1_0_0",
    ),
    "J2": (
        "h0_0_1->edge0_0", "up_0_0_0", "core_0_0_0",
        "core_1_0_0_rev", "up_1_0_0_rev", "edge1_0->h1_0_1",
    ),
    "J3": (
        "h2_0_0->edge2_0", "up_2_0_0", "core_2_0_0",
        "core_1_0_0_rev", "up_1_0_0_rev", "edge1_0->h1_0_0",
    ),
}

#: Mid-run perturbations hitting *different* fabric links, with window
#: boundaries off the sample grid so span truncation is stressed.
SCHEDULES = {
    "clean": None,
    "rate-dip": InjectionSchedule(events=(
        RateChange("core_1_0_0_rev", 0.0052, 0.0095, 0.35),
        RateChange("up_0_0_0", 0.0214, 0.0289, 1.6),
    )),
    "link-failure": InjectionSchedule(events=(
        LinkFailure("up_2_0_0", 0.0111, 0.0183),
    )),
    "pfc-storm": InjectionSchedule(events=(
        PfcStorm("core_1_0_0_rev", 0.0077, 0.0121),
    )),
    "everything": InjectionSchedule(events=(
        RateChange("core_0_0_0", 0.004, 0.008, 0.5),
        PfcStorm("up_1_0_0_rev", 0.012, 0.015),
        LinkFailure("up_0_0_0", 0.02, 0.024),
        Straggler("J2", 0.0, 0.05, 1.3),
        LatencySpike("core_2_0_0", 0.02, 0.04, 0.0003),
    ), horizon=0.06),
}


def _series_equal(left, right):
    assert set(left.rate_series) == set(right.rate_series)
    for name, series in left.rate_series.items():
        other = right.rate_series[name]
        assert np.array_equal(series.times, other.times), name
        assert np.array_equal(series.values, other.values), name
    if hasattr(left, "queue_series"):
        assert np.array_equal(
            left.queue_series.times, right.queue_series.times
        )
        assert np.array_equal(
            left.queue_series.values, right.queue_series.values
        )
        assert set(left.link_queue_series) == set(right.link_queue_series)
        for name, series in left.link_queue_series.items():
            other = right.link_queue_series[name]
            assert np.array_equal(series.times, other.times), name
            assert np.array_equal(series.values, other.values), name


def _dcqcn(engine, faults, pfc=False):
    sim = DcqcnFluidSimulator(
        dt=10e-6,
        engine=engine,
        faults=faults,
        topology=Topology.fat_tree(4),
        pfc_pause_threshold=200 * kib(1) if pfc else None,
    )
    params = DcqcnParams(line_rate=gbps(50))
    jobs, rngs = [], []
    for index, (name, timer) in enumerate(zip(
        sorted(ROUTES), (AGGRESSIVE_TIMER, DEFAULT_TIMER, DEFAULT_TIMER)
    )):
        rng = np.random.default_rng(40 + index)
        job = OnOffDcqcnJob(
            name,
            params.with_timer(timer),
            rng,
            compute_time=0.0011,
            comm_bytes=0.0013 * gbps(50),
            start_offset=index * 0.0003,
        )
        sim.add_source(job, route=ROUTES[name])
        jobs.append(job)
        rngs.append(rng)
    return sim, jobs, rngs


def _aimd(faults):
    sim = AimdFluidSimulator(
        buffer_bytes=kib(64), dt=1e-3, sample_interval=5e-3,
        faults=faults,
        topology=Topology.fat_tree(4, host_capacity=mbps(400)),
    )
    jobs = []
    for index, name in enumerate(sorted(ROUTES)):
        jobs.append(sim.add_job(
            name,
            compute_time=0.11,
            comm_bytes=0.13 * mbps(400),
            start_offset=index * 0.03,
            route=ROUTES[name],
        ))
    return sim, jobs


class TestDcqcnFabricEquivalence:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_bit_identical(self, name):
        faults = SCHEDULES[name]
        sim_s, jobs_s, rngs_s = _dcqcn("scalar", faults)
        sim_v, jobs_v, rngs_v = _dcqcn("vector", faults)
        result_s = sim_s.run(0.05)
        result_v = sim_v.run(0.05)
        assert set(result_s.link_queue_series)  # fabric series exist
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

    @pytest.mark.parametrize("name", ["clean", "pfc-storm"])
    def test_bit_identical_with_pfc(self, name):
        faults = SCHEDULES[name]
        sim_s, _, rngs_s = _dcqcn("scalar", faults, pfc=True)
        sim_v, _, rngs_v = _dcqcn("vector", faults, pfc=True)
        result_s = sim_s.run(0.05)
        result_v = sim_v.run(0.05)
        _series_equal(result_s, result_v)
        assert sim_s.pfc_pause_seconds == sim_v.pfc_pause_seconds
        for rng_s, rng_v in zip(rngs_s, rngs_v):
            assert (
                rng_s.bit_generator.state == rng_v.bit_generator.state
            )

    def test_storm_accrues_pause_time(self):
        sim_s, _, _ = _dcqcn("scalar", SCHEDULES["pfc-storm"])
        sim_v, _, _ = _dcqcn("vector", SCHEDULES["pfc-storm"])
        sim_s.run(0.05)
        sim_v.run(0.05)
        assert sim_s.pfc_pause_seconds > 0.0
        assert sim_s.pfc_pause_seconds == sim_v.pfc_pause_seconds

    def test_capacity_restored_after_run(self):
        for engine in ("scalar", "vector"):
            sim, _, _ = _dcqcn(engine, SCHEDULES["everything"])
            sim.run(0.05)
            for queue, base in zip(
                sim.fabric.queues, sim.fabric.base_caps
            ):
                assert queue.capacity == base

    def test_faulted_run_differs_from_clean(self):
        sim_clean, _, _ = _dcqcn("vector", None)
        sim_fault, _, _ = _dcqcn("vector", SCHEDULES["everything"])
        clean = sim_clean.run(0.05)
        faulted = sim_fault.run(0.05)
        assert not np.array_equal(
            clean.queue_series.values, faulted.queue_series.values
        )

    def test_shared_links_actually_congest(self):
        sim, _, _ = _dcqcn("vector", None)
        result = sim.run(0.05)
        # Three 50 Gbps flows converge on the pod-1 downlinks: the
        # shared hops must queue, private host uplinks must not.
        assert result.link_queue_series["core_1_0_0_rev"].values.max() > 0
        assert result.link_queue_series["h0_0_0->edge0_0"].values.max() == 0


#: The routed schedules' fault kinds moved onto pod-3 links that no
#: route crosses, inside the window where all three jobs communicate.
UNROUTED = {
    "clean": InjectionSchedule(),
    "rate-dip": InjectionSchedule(events=(
        RateChange("core_3_1_3", 0.2, 0.25, 0.35),
        RateChange("up_3_1_1", 0.26, 0.3, 1.6),
    )),
    "link-failure": InjectionSchedule(events=(
        LinkFailure("up_3_1_1", 0.2, 0.25),
    )),
    "pfc-storm": InjectionSchedule(events=(
        PfcStorm("core_3_1_3_rev", 0.2, 0.25),
    )),
}


class TestAimdFabricEquivalence:
    """A schedule on links no route crosses (or an empty one) leaves
    the AIMD fabric run bit-identical to the clean run."""

    @pytest.mark.parametrize(
        "name", ["clean", "rate-dip", "link-failure", "pfc-storm"]
    )
    def test_bit_identical(self, name):
        sim_c, jobs_c = _aimd(None)
        sim_u, jobs_u = _aimd(UNROUTED[name])
        _series_equal(sim_c.run(1.0), sim_u.run(1.0))
        for job_c, job_u in zip(jobs_c, jobs_u):
            assert len(job_c.timeline) > 0
            assert (
                repr(job_c.timeline.__dict__)
                == repr(job_u.timeline.__dict__)
            )


class TestAimdFabricBehaviour:
    """All three jobs communicate from 0.17 s; windows sit after that."""

    def test_failure_holds_only_routed_sources(self, rate_window):
        # up_0_0_0 carries J1 and J2; J3 enters pod 1 from pod 2.
        faults = InjectionSchedule(events=(
            LinkFailure("up_0_0_0", 0.2, 0.25),
        ))
        sim, _ = _aimd(faults)
        rows = rate_window(sim.run(0.4), 0.2, 0.25)
        for name in ("J1", "J2"):
            entry, inside = rows[name]
            assert len(inside) == 10
            assert (inside == entry).all(), name
        entry, inside = rows["J3"]
        assert not (inside == entry).all()

    def test_storm_silences_sources_and_drains_its_link(self, rate_window):
        faults = InjectionSchedule(events=(
            PfcStorm("core_1_0_0_rev", 0.2, 0.25),
        ))
        entering, _ = _aimd(faults)
        entering.run(0.2)
        link = entering.fabric.index["core_1_0_0_rev"]
        start = entering.fabric.queues[link].occupancy
        assert start > 0
        per_tick = entering.fabric.base_caps[link] * 1e-3
        for ticks in (1, 5):
            sim, _ = _aimd(faults)
            sim.run(0.2 + ticks * 1e-3)
            assert sim.fabric.queues[link].occupancy == pytest.approx(
                max(0.0, start - ticks * per_tick)
            )
        sim, _ = _aimd(faults)
        rows = rate_window(sim.run(0.4), 0.2, 0.25)
        for name, (entry, inside) in rows.items():
            assert (inside == entry).all(), name

    def test_capacity_restored_after_run(self):
        # The run ends inside both windows.
        sim, _ = _aimd(InjectionSchedule(events=(
            RateChange("core_1_0_0_rev", 0.1, 0.5, 0.35),
            LinkFailure("up_2_0_0", 0.2, 0.5),
        )))
        sim.run(0.3)
        for queue, base in zip(sim.fabric.queues, sim.fabric.base_caps):
            assert queue.capacity == base


class TestRouteValidation:
    def test_route_requires_topology(self):
        sim = DcqcnFluidSimulator()
        with pytest.raises(ConfigError, match="topology"):
            sim.add_sender(
                "s", DcqcnParams(), np.random.default_rng(0),
                route=("core_0_0_0",),
            )

    def test_topology_requires_route(self):
        sim = DcqcnFluidSimulator(topology=Topology.fat_tree(2))
        with pytest.raises(ConfigError, match="route"):
            sim.add_sender("s", DcqcnParams(), np.random.default_rng(0))

    def test_duplicate_link_in_route_rejected(self):
        sim = DcqcnFluidSimulator(topology=Topology.fat_tree(2))
        with pytest.raises(ConfigError, match="twice"):
            sim.add_sender(
                "s", DcqcnParams(), np.random.default_rng(0),
                route=("core_0_0_0", "core_0_0_0"),
            )

    def test_unknown_link_in_route_rejected(self):
        sim = DcqcnFluidSimulator(topology=Topology.fat_tree(2))
        with pytest.raises(TopologyError, match="no link named"):
            sim.add_sender(
                "s", DcqcnParams(), np.random.default_rng(0),
                route=("nope",),
            )

    def test_fault_on_unknown_link_rejected(self):
        faults = InjectionSchedule(events=(
            LinkFailure("no_such_link", 0.01, 0.02),
        ))
        sim, _, _ = _dcqcn("vector", faults)
        with pytest.raises(TopologyError, match="no_such_link"):
            sim.run(0.01)

    def test_fault_on_unrouted_link_is_harmless(self):
        # A failure elsewhere in the fabric, crossed by no route, must
        # not perturb the routed traffic.
        faults = InjectionSchedule(events=(
            LinkFailure("up_1_1_1", 0.01, 0.02),
        ))
        clean_sim, _, _ = _dcqcn("vector", None)
        fault_sim, _, _ = _dcqcn("vector", faults)
        clean = clean_sim.run(0.05)
        faulted = fault_sim.run(0.05)
        for name in clean.rate_series:
            assert np.array_equal(
                clean.rate_series[name].values,
                faulted.rate_series[name].values,
            )

    def test_aimd_route_validation_mirrors_dcqcn(self):
        sim = AimdFluidSimulator(topology=Topology.fat_tree(2))
        with pytest.raises(ConfigError, match="route"):
            sim.add_sender("s")
        with pytest.raises(ConfigError, match="topology"):
            AimdFluidSimulator().add_sender("s", route=("L1",))
