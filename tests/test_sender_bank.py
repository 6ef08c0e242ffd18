"""Vector/scalar engine equivalence for the fixed-step CC simulators.

The vectorized :class:`repro.cc.sender_bank.SenderBank` is required to
be *bit-identical* to the dt-by-dt scalar reference — same sampled
series, same random draws, same timelines — which is a stronger
guarantee than the shared ``repro.floats`` tolerances the rest of the
suite uses. These tests pin that, plus the sample-grid alignment and
the engine-selection plumbing. AIMD has one per-tick loop; without a
topology it runs on a one-link fabric around its queue, which must
match a one-link dumbbell topology bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cc.aimd import AimdFluidSimulator, AimdParams
from repro.cc.dcqcn import (
    AGGRESSIVE_TIMER,
    DEFAULT_TIMER,
    DcqcnFluidSimulator,
    DcqcnParams,
    OnOffDcqcnJob,
)
from repro.cc.sender_bank import SenderBank
from repro.errors import ConfigError
from repro.faults import InjectionSchedule, LinkFailure, PfcStorm, RateChange
from repro.net.topology import Topology
from repro.units import gbps, kib, mbps


def _assert_identical(result_scalar, result_vector):
    """Every sampled series matches bit-for-bit across engines."""
    assert set(result_scalar.rate_series) == set(result_vector.rate_series)
    for name, series in result_scalar.rate_series.items():
        other = result_vector.rate_series[name]
        assert np.array_equal(series.times, other.times), name
        assert np.array_equal(series.values, other.values), name


def _onoff_sim(engine, timers, seed0=10, duration_bytes=0.05 * gbps(42)):
    sim = DcqcnFluidSimulator(capacity=gbps(50), dt=10e-6, engine=engine)
    params = DcqcnParams(line_rate=gbps(50))
    jobs = []
    for index, timer in enumerate(timers):
        job = OnOffDcqcnJob(
            f"J{index + 1}",
            params.with_timer(timer),
            np.random.default_rng(seed0 + index),
            compute_time=0.04,
            comm_bytes=duration_bytes,
            start_offset=index * 0.004,
        )
        sim.add_source(job)
        jobs.append(job)
    return sim, jobs


class TestDcqcnEquivalence:
    @pytest.mark.parametrize(
        "timers",
        [
            (DEFAULT_TIMER * 2, DEFAULT_TIMER * 2),  # fair on-off
            (AGGRESSIVE_TIMER, DEFAULT_TIMER),  # unfair on-off
        ],
        ids=["fair", "unfair"],
    )
    def test_onoff_bit_identical(self, timers):
        sim_s, jobs_s = _onoff_sim("scalar", timers)
        sim_v, jobs_v = _onoff_sim("vector", timers)
        result_s = sim_s.run(0.5)
        result_v = sim_v.run(0.5)
        _assert_identical(result_s, result_v)
        assert np.array_equal(
            result_s.queue_series.values, result_v.queue_series.values
        )
        # Timelines must be byte-identical, not merely close.
        for job_s, job_v in zip(jobs_s, jobs_v):
            assert len(job_s.timeline) > 0
            assert (
                repr(job_s.timeline.__dict__)
                == repr(job_v.timeline.__dict__)
            )

    def test_long_lived_senders_bit_identical(self):
        results = {}
        for engine in ("scalar", "vector"):
            sim = DcqcnFluidSimulator(capacity=gbps(50), engine=engine)
            params = DcqcnParams()
            sim.add_sender(
                "fast",
                params.with_timer(AGGRESSIVE_TIMER),
                np.random.default_rng(1),
            )
            sim.add_sender(
                "slow",
                params.with_timer(DEFAULT_TIMER),
                np.random.default_rng(2),
            )
            results[engine] = sim.run(0.08)
        _assert_identical(results["scalar"], results["vector"])
        assert np.array_equal(
            results["scalar"].queue_series.values,
            results["vector"].queue_series.values,
        )

    def test_finite_sender_completion(self):
        results = {}
        for engine in ("scalar", "vector"):
            sim = DcqcnFluidSimulator(capacity=gbps(50), engine=engine)
            sim.add_sender(
                "bulk",
                DcqcnParams(),
                np.random.default_rng(3),
                data_bytes=2e6,
            )
            sim.add_sender(
                "bg", DcqcnParams(), np.random.default_rng(4)
            )
            results[engine] = sim.run(0.02)
        _assert_identical(results["scalar"], results["vector"])

    def test_pfc_pause_bit_identical(self):
        results = {}
        for engine in ("scalar", "vector"):
            sim = DcqcnFluidSimulator(
                capacity=gbps(50),
                engine=engine,
                pfc_pause_threshold=kib(150),
                pfc_resume_threshold=kib(100),
            )
            for index in range(3):
                sim.add_sender(
                    f"s{index}",
                    DcqcnParams(),
                    np.random.default_rng(20 + index),
                )
            results[engine] = sim.run(0.05)
        _assert_identical(results["scalar"], results["vector"])
        assert np.array_equal(
            results["scalar"].queue_series.values,
            results["vector"].queue_series.values,
        )

    def test_pfc_pause_below_kmin_cuts_span(self):
        # Two senders 2% over capacity grow an unmarked queue slowly
        # (pause threshold below kmin), so the PFC pause begins inside a
        # deterministic span and must cut it exactly there.
        results = {}
        for engine in ("scalar", "vector"):
            sim = DcqcnFluidSimulator(
                capacity=gbps(50),
                dt=10e-6,
                engine=engine,
                pfc_pause_threshold=kib(60),
                pfc_resume_threshold=kib(40),
            )
            for index in range(2):
                sender = sim.add_sender(
                    f"s{index}",
                    DcqcnParams(),
                    np.random.default_rng(60 + index),
                )
                sender.rate = sender.target_rate = gbps(25.5)
            results[engine] = (sim, sim.run(0.01))
        (sim_s, result_s), (sim_v, result_v) = results.values()
        _assert_identical(result_s, result_v)
        assert np.array_equal(
            result_s.queue_series.values, result_v.queue_series.values
        )
        assert sim_s.pfc_pause_seconds > 0.0
        assert sim_s.pfc_pause_seconds == sim_v.pfc_pause_seconds

    def test_many_long_lived_senders_bit_identical(self):
        # 40 senders sharing one bottleneck keep the queue above kmin,
        # so most ticks run the per-tick kernel across the whole bank.
        results = {}
        for engine in ("scalar", "vector"):
            sim = DcqcnFluidSimulator(capacity=gbps(50), engine=engine)
            for index in range(40):
                sim.add_sender(
                    f"s{index:02d}",
                    DcqcnParams(),
                    np.random.default_rng(100 + index),
                )
            results[engine] = sim.run(0.01)
        _assert_identical(results["scalar"], results["vector"])

    def test_custom_source_falls_back_to_scalar(self):
        class ConstantSource:
            name = "const"
            rate = mbps(200)
            done = False

            def step(self, now, dt, marking_probability):
                return self.rate * dt

        sim = DcqcnFluidSimulator(capacity=gbps(50), engine="vector")
        sim.add_source(ConstantSource())
        assert SenderBank.build(sim) is None
        result = sim.run(0.002)  # runs via the scalar reference loop
        assert result.mean_rate("const") == pytest.approx(mbps(200))


#: Simulated seconds per generated dumbbell; the property's cost knob.
_PROPERTY_DURATION = 0.02

#: Fault window slots on L1: one event per slot keeps windows disjoint.
_FAULT_SLOT = _PROPERTY_DURATION / 5


@st.composite
def _fault_schedules(draw):
    """``None`` or 1-3 disjoint RateChange/LinkFailure/PfcStorm on L1."""
    slots = draw(st.lists(
        st.integers(0, 4), min_size=0, max_size=3, unique=True
    ))
    if not slots:
        return None
    events = []
    for slot in slots:
        start = slot * _FAULT_SLOT + draw(st.floats(0.0, 0.4)) * _FAULT_SLOT
        end = start + draw(st.floats(0.1, 0.6)) * _FAULT_SLOT
        kind = draw(st.sampled_from(["rate", "failure", "storm"]))
        if kind == "rate":
            factor = draw(st.sampled_from([0.3, 0.7, 1.5]))
            events.append(RateChange("L1", start, end, factor))
        elif kind == "failure":
            events.append(LinkFailure("L1", start, end))
        else:
            events.append(PfcStorm("L1", start, end))
    return InjectionSchedule(events=tuple(events))


@st.composite
def _dumbbell_cases(draw):
    """One generated single-bottleneck configuration."""
    senders = draw(st.lists(
        st.tuples(
            st.booleans(),  # on-off job (True) or long-lived sender
            st.sampled_from([50e-6, AGGRESSIVE_TIMER, DEFAULT_TIMER]),
        ),
        min_size=1, max_size=40,
    ))
    return {
        "senders": senders,
        "seed": draw(st.integers(0, 2**16)),
        # PFC off, or a pause threshold below, above or well above kmin.
        "pfc": draw(st.sampled_from([None, kib(60), kib(150), kib(300)])),
        "faults": draw(_fault_schedules()),
    }


def _build_case(case, engine, topology=None):
    """The case as a simulator; on ``topology`` every sender routes
    across its one link ``L1``."""
    kwargs = {}
    if case["pfc"] is not None:
        kwargs = {
            "pfc_pause_threshold": case["pfc"],
            "pfc_resume_threshold": case["pfc"] * 2 / 3,
        }
    sim = DcqcnFluidSimulator(
        capacity=gbps(50), dt=10e-6, engine=engine,
        faults=case["faults"], topology=topology, **kwargs,
    )
    route = ("L1",) if topology is not None else ()
    rngs = []
    for index, (job, timer) in enumerate(case["senders"]):
        rng = np.random.default_rng(case["seed"] + index)
        params = DcqcnParams(line_rate=gbps(50), timer=timer)
        name = f"s{index:02d}"
        if job:
            sim.add_source(OnOffDcqcnJob(
                name, params, rng,
                compute_time=0.002 + 0.0005 * (index % 3),
                comm_bytes=0.002 * gbps(50),
                start_offset=index * 0.0003,
            ), route=route)
        else:
            sim.add_sender(name, params, rng, route=route)
        rngs.append(rng)
    return sim, rngs


class TestDumbbellProperty:
    @settings(max_examples=20, deadline=None)
    @given(_dumbbell_cases())
    def test_vector_matches_scalar_and_one_link_fabric(self, case):
        runs = {}
        for engine in ("scalar", "vector"):
            sim, rngs = _build_case(case, engine)
            runs[engine] = (sim, rngs, sim.run(_PROPERTY_DURATION))
        sim_s, rngs_s, result_s = runs["scalar"]
        sim_v, rngs_v, result_v = runs["vector"]
        _assert_identical(result_s, result_v)
        assert np.array_equal(
            result_s.queue_series.times, result_v.queue_series.times
        )
        assert np.array_equal(
            result_s.queue_series.values, result_v.queue_series.values
        )
        assert result_v.link_queue_series == {}
        assert set(result_s.timelines) == set(result_v.timelines)
        for name, timeline in result_s.timelines.items():
            assert (
                repr(timeline.__dict__)
                == repr(result_v.timelines[name].__dict__)
            )
        for rng_s, rng_v in zip(rngs_s, rngs_v):
            assert rng_s.bit_generator.state == rng_v.bit_generator.state
        assert sim_s.pfc_pause_seconds == sim_v.pfc_pause_seconds
        assert sim_s.pfc_paused == sim_v.pfc_paused
        # The same case rebuilt as a one-link fabric.
        topology = Topology.dumbbell(bottleneck_capacity=gbps(50))
        sim_f, rngs_f = _build_case(case, "vector", topology)
        result_f = sim_f.run(_PROPERTY_DURATION)
        _assert_identical(result_v, result_f)
        link_series = result_f.link_queue_series["L1"]
        assert np.array_equal(
            link_series.times, result_v.queue_series.times
        )
        assert np.array_equal(
            link_series.values, result_v.queue_series.values
        )
        for rng_v, rng_f in zip(rngs_v, rngs_f):
            assert rng_v.bit_generator.state == rng_f.bit_generator.state
        assert sim_f.pfc_pause_seconds == sim_v.pfc_pause_seconds


#: The AIMD property's bottleneck: small enough that generated senders
#: overflow the buffer (and cut) within one run.
_AIMD_CAPACITY = mbps(400)


@st.composite
def _aimd_cases(draw):
    """One generated AIMD single-bottleneck configuration."""
    sources = draw(st.lists(
        st.tuples(
            st.booleans(),  # on-off job (True) or long-lived sender
            st.sampled_from([gbps(1) / 0.01, gbps(4) / 0.01]),
            st.floats(0.0, 0.006),  # a job's start offset
        ),
        min_size=1, max_size=8,
    ))
    return {"sources": sources, "faults": draw(_fault_schedules())}


def _build_aimd_case(case, topology=None):
    """The case as an AIMD simulator; on ``topology`` every source
    routes across its one link ``L1``."""
    sim = AimdFluidSimulator(
        capacity=_AIMD_CAPACITY, buffer_bytes=kib(64),
        faults=case["faults"], topology=topology,
    )
    route = ("L1",) if topology is not None else ()
    for index, (job, increase, offset) in enumerate(case["sources"]):
        params = AimdParams(increase_rate=increase)
        name = f"s{index:02d}"
        if job:
            sim.add_job(
                name, compute_time=0.002 + 0.0005 * (index % 3),
                comm_bytes=0.002 * _AIMD_CAPACITY, params=params,
                start_offset=offset, route=route,
            )
        else:
            sim.add_sender(name, params, route=route)
    return sim


class TestAimdDumbbellProperty:
    @settings(max_examples=20, deadline=None)
    @given(_aimd_cases())
    def test_topology_free_matches_one_link_dumbbell(self, case):
        plain = _build_aimd_case(case)
        dumbbell = _build_aimd_case(
            case, Topology.dumbbell(bottleneck_capacity=_AIMD_CAPACITY)
        )
        # A first run, then a second continuing from the first's state.
        for _ in range(2):
            result_p = plain.run(_PROPERTY_DURATION)
            result_d = dumbbell.run(_PROPERTY_DURATION)
            _assert_identical(result_p, result_d)
            assert set(result_p.timelines) == set(result_d.timelines)
            for name, timeline in result_p.timelines.items():
                assert (
                    repr(timeline.__dict__)
                    == repr(result_d.timelines[name].__dict__)
                )


class TestOutOfRangeState:
    def test_rate_above_line_falls_back_to_scalar(self):
        # The vector kernel clamps rates only when a CNP or increase
        # event moves them, so it admits in-range sender state only.
        results = {}
        for engine in ("scalar", "vector"):
            sim = DcqcnFluidSimulator(capacity=gbps(50), engine=engine)
            sender = sim.add_sender(
                "a", DcqcnParams(), np.random.default_rng(7)
            )
            sender.rate = 2 * sender.params.line_rate
            if engine == "vector":
                assert SenderBank.build(sim) is None
            results[engine] = sim.run(0.005)
        _assert_identical(results["scalar"], results["vector"])


class TestSampleGrid:
    def test_samples_land_on_sample_interval_grid(self):
        # Regression: samples used to land one dt *after* each grid
        # point ((k*samples_every + 1) * dt). They must sit exactly on
        # multiples of sample_interval, in both engines.
        for engine in ("scalar", "vector"):
            sim = DcqcnFluidSimulator(
                capacity=gbps(50),
                dt=5e-6,
                sample_interval=250e-6,
                engine=engine,
            )
            sim.add_sender("a", DcqcnParams(), np.random.default_rng(0))
            result = sim.run(0.01)
            times = result.rate_series["a"].times
            expected = np.arange(1, len(times) + 1) * 250e-6
            assert len(times) == 40
            assert np.allclose(times, expected, rtol=0.0, atol=1e-12)

    def test_aimd_samples_land_on_grid(self):
        sim = AimdFluidSimulator(dt=10e-6, sample_interval=500e-6)
        sim.add_sender("a", AimdParams())
        result = sim.run(0.01)
        times = result.rate_series["a"].times
        expected = np.arange(1, len(times) + 1) * 500e-6
        assert len(times) == 20
        assert np.allclose(times, expected, rtol=0.0, atol=1e-12)


class TestEngineSelection:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ConfigError):
            DcqcnFluidSimulator(engine="simd")

    def test_default_engine_is_vector(self):
        assert DcqcnFluidSimulator().engine == "vector"


class TestAimdEquivalence:
    """The topology-free run (one-link fabric around ``sim.queue``)
    equals a one-link dumbbell topology whose every route is
    ``("L1",)``."""

    def _build(self, one_link):
        topology, route = None, ()
        if one_link:
            topology = Topology.dumbbell(bottleneck_capacity=gbps(50))
            route = ("L1",)
        sim = AimdFluidSimulator(capacity=gbps(50), topology=topology)
        sim.add_sender("a", AimdParams(), route=route)
        sim.add_sender(
            "b", AimdParams(increase_rate=gbps(2) / 0.01), route=route
        )
        sim.add_job(
            "J1", compute_time=0.01, comm_bytes=0.01 * gbps(30),
            route=route,
        )
        sim.add_job(
            "J2",
            compute_time=0.012,
            comm_bytes=0.008 * gbps(25),
            start_offset=0.003,
            route=route,
        )
        return sim

    def test_bit_identical(self):
        dumbbell = self._build(one_link=False).run(0.4)
        fabric = self._build(one_link=True).run(0.4)
        _assert_identical(dumbbell, fabric)
        for name in dumbbell.timelines:
            assert len(dumbbell.timelines[name]) > 0
            assert (
                repr(dumbbell.timelines[name].__dict__)
                == repr(fabric.timelines[name].__dict__)
            )
