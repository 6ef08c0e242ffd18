"""Fault-injection runtime: schedule validation and seeded determinism.

The injection schedule is validated once at build time — the simulators
assume well-formed input — so the validation rules are pinned here as
property-style tests. Determinism is the harder contract: the same spec
plus the same schedule must produce byte-identical traces and timelines
across repeated runs and across worker fan-out (``jobs=1`` vs
``jobs=4``), because the robustness experiments diff faulted runs
against clean ones.
"""

import json

import pytest

from repro import io
from repro.cc.fair import FairSharing
from repro.errors import ConfigError
from repro.faults import (
    ClockSkew,
    InjectionSchedule,
    JobWarp,
    LatencySpike,
    LinkFailure,
    MODE_FREEZE,
    MODE_NORMAL,
    MODE_STORM,
    PfcStorm,
    RateChange,
    Straggler,
    build_warp,
    capacity_windows,
    single_link,
)
from repro.faults.events import FaultEventT
from repro.net.topology import BOTTLENECK
from repro.runner import (
    RunSpec,
    ScenarioSpec,
    SenderSpec,
    execute,
    run_many,
)
from repro.runner.backends import dumbbell_topology
from repro.units import gbps, ms
from repro.workloads.job import JobSpec


class TestScheduleValidation:
    def test_rejects_end_before_start(self):
        with pytest.raises(ConfigError):
            InjectionSchedule(events=(RateChange("L1", 2.0, 1.0, 0.5),))

    def test_rejects_negative_start(self):
        with pytest.raises(ConfigError):
            InjectionSchedule(events=(LinkFailure("L1", -0.5, 1.0),))

    def test_rejects_non_finite_bounds(self):
        with pytest.raises(ConfigError):
            InjectionSchedule(
                events=(LinkFailure("L1", 0.0, float("inf")),)
            )

    def test_rejects_event_past_horizon(self):
        with pytest.raises(ConfigError):
            InjectionSchedule(
                events=(PfcStorm("L1", 0.5, 2.0),), horizon=1.0
            )

    def test_rejects_overlapping_same_link_windows(self):
        with pytest.raises(ConfigError):
            InjectionSchedule(events=(
                RateChange("L1", 0.0, 1.0, 0.5),
                LinkFailure("L1", 0.5, 1.5),
            ))

    def test_rejects_overlapping_same_job_windows(self):
        with pytest.raises(ConfigError):
            InjectionSchedule(events=(
                Straggler("J1", 0.0, 1.0, 2.0),
                ClockSkew("J1", 0.5, 1.5, 0.01),
            ))

    def test_different_targets_may_overlap(self):
        schedule = InjectionSchedule(events=(
            RateChange("L1", 0.0, 1.0, 0.5),
            LinkFailure("L2", 0.5, 1.5),
            Straggler("J1", 0.0, 1.0, 2.0),
            ClockSkew("J2", 0.0, 1.0, 0.01),
        ))
        assert len(schedule) == 4
        assert schedule.link_names() == ["L1", "L2"]
        assert schedule.job_names() == ["J1", "J2"]

    def test_adjacent_windows_do_not_overlap(self):
        schedule = InjectionSchedule(events=(
            RateChange("L1", 0.0, 1.0, 0.5),
            RateChange("L1", 1.0, 2.0, 0.25),
        ))
        assert len(schedule) == 2

    def test_zero_duration_events_are_dropped(self):
        schedule = InjectionSchedule(events=(
            RateChange("L1", 1.0, 1.0, 0.5),
            Straggler("J1", 0.25, 0.25, 3.0),
        ))
        assert schedule.is_empty
        assert len(schedule) == 0

    def test_rejects_bad_factors(self):
        with pytest.raises(ConfigError):
            RateChange("L1", 0.0, 1.0, 0.0).validate(None)
        with pytest.raises(ConfigError):
            Straggler("J1", 0.0, 1.0, -1.0).validate(None)
        with pytest.raises(ConfigError):
            LatencySpike("L1", 0.0, 1.0, -0.001).validate(None)

    def test_rejects_non_events(self):
        with pytest.raises(ConfigError):
            InjectionSchedule(events=("not-an-event",))

    def test_rejects_bad_horizon(self):
        with pytest.raises(ConfigError):
            InjectionSchedule(horizon=0.0)
        with pytest.raises(ConfigError):
            InjectionSchedule(horizon=float("nan"))

    def test_empty_schedule_is_valid(self):
        schedule = InjectionSchedule()
        assert schedule.is_empty
        assert schedule.link_names() == []
        assert single_link(schedule) is None


class TestRuntimeHelpers:
    def test_single_link_rejects_multi_link_schedules(self):
        schedule = InjectionSchedule(events=(
            RateChange("L1", 0.0, 1.0, 0.5),
            LinkFailure("L2", 0.0, 1.0),
        ))
        with pytest.raises(ConfigError):
            single_link(schedule)

    def test_windows_tile_the_run(self):
        schedule = InjectionSchedule(events=(
            RateChange("L1", 0.001, 0.002, 0.5),
            LinkFailure("L1", 0.004, 0.005),
            PfcStorm("L1", 0.007, 0.008),
        ))
        windows = capacity_windows(schedule, 1000, 10e-6, 100.0)
        assert windows[0].start == 0
        assert windows[-1].end == 1000
        for left, right in zip(windows, windows[1:]):
            assert left.end == right.start
        modes = [w.mode for w in windows]
        assert modes == [
            MODE_NORMAL, MODE_NORMAL, MODE_NORMAL, MODE_FREEZE,
            MODE_NORMAL, MODE_STORM, MODE_NORMAL,
        ]
        assert windows[1].capacity == pytest.approx(50.0)
        assert windows[3].capacity == 0.0
        assert windows[5].capacity == 100.0

    def test_empty_schedule_yields_one_normal_window(self):
        for schedule in (None, InjectionSchedule()):
            windows = capacity_windows(schedule, 500, 10e-6, 42.0)
            assert len(windows) == 1
            assert windows[0].start == 0 and windows[0].end == 500
            assert windows[0].mode == MODE_NORMAL
            assert windows[0].capacity == 42.0

    def test_sub_tick_events_collapse_to_noops(self):
        schedule = InjectionSchedule(
            events=(RateChange("L1", 0.0000101, 0.0000102, 0.5),)
        )
        windows = capacity_windows(schedule, 100, 10e-6, 1.0)
        assert len(windows) == 1 and windows[0].mode == MODE_NORMAL

    def test_job_warp_application_order(self):
        warp = JobWarp(
            stragglers=((0.0, 1.0, 2.0),),
            skews=((0.0, 1.0, -0.3),),
            spikes=((0.0, 1.0, 0.05),),
        )
        # 0.1 * 2 - 0.3 -> clamped to 0; comm start 0.5 in spike window.
        assert warp(0.5, 0.1) == pytest.approx(0.05)
        # Outside every window: untouched.
        assert warp(2.0, 0.1) == pytest.approx(0.1)

    def test_build_warp_returns_none_when_untouched(self):
        schedule = InjectionSchedule(
            events=(Straggler("J1", 0.0, 1.0, 2.0),)
        )
        assert build_warp(schedule, "J2") is None
        assert build_warp(None, "J1") is None
        warp = build_warp(schedule, "J1")
        assert warp(0.5, 0.1) == pytest.approx(0.2)

    def test_latency_spike_needs_matching_link(self):
        schedule = InjectionSchedule(
            events=(LatencySpike("L1", 0.0, 1.0, 0.02),)
        )
        assert build_warp(schedule, "J1", links=()) is None
        warp = build_warp(schedule, "J1", links=("L1",))
        assert warp(0.1, 0.1) == pytest.approx(0.12)


class TestCodec:
    def schedule(self):
        return InjectionSchedule(
            events=(
                RateChange("L1", 0.1, 0.2, 0.5),
                LinkFailure("L2", 0.0, 0.05),
                PfcStorm("L3", 0.3, 0.4),
                LatencySpike("L1", 0.5, 0.6, 0.01),
                Straggler("J1", 0.0, 0.9, 1.5),
                ClockSkew("J2", 0.0, 0.9, -0.002),
            ),
            horizon=1.0,
        )

    def test_schedule_round_trip(self):
        schedule = self.schedule()
        data = io.to_dict(schedule)
        json.dumps(data)  # must be JSON-able
        assert io.from_dict(InjectionSchedule, data) == schedule

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            io.from_dict(FaultEventT, {"kind": "meteor-strike"})

    def test_run_spec_round_trip_and_hash(self):
        schedule = self.schedule()
        spec = RunSpec(backend="fluid", faults=schedule)
        data = io.to_dict(spec)
        assert io.from_dict(RunSpec, data).faults == schedule
        # The schedule must be part of the content hash: a faulted and
        # a clean spec must never collide in the result cache.
        assert (
            spec.content_hash()
            != RunSpec(backend="fluid").content_hash()
        )


def _fluid_spec(label="faults-det", seed=11):
    schedule = InjectionSchedule(
        events=(
            RateChange("L1", 0.005, 0.010, 0.4),
            LinkFailure("L1", 0.015, 0.020),
            PfcStorm("L1", 0.030, 0.033),
            Straggler("J1", 0.0, 0.05, 1.5),
        ),
        horizon=0.05,
    )
    senders = tuple(
        SenderSpec(
            f"J{i + 1}",
            125e-6,
            compute_time=0.0009,
            comm_bytes=0.0011 * gbps(50),
            start_offset=i * 0.0002,
            stream=f"faults:J{i + 1}",
        )
        for i in range(3)
    )
    return RunSpec(
        backend="fluid",
        label=label,
        seed=seed,
        capacity=gbps(50),
        duration=0.05,
        scenarios=(ScenarioSpec("only", senders),),
        faults=schedule,
    )


def _phase_spec(seed=3):
    schedule = InjectionSchedule(events=(
        RateChange("L1", 0.5, 1.5, 0.3),
        Straggler("J1", 2.0, 4.0, 2.0),
    ))
    jobs = tuple(
        JobSpec(f"J{i + 1}", ms(100), ms(110) * gbps(42))
        for i in range(2)
    )
    return RunSpec(
        backend="phase",
        seed=seed,
        jobs=jobs,
        policy=FairSharing(),
        n_iterations=10,
        faults=schedule,
    )


def _fingerprint(result):
    return json.dumps(
        io.to_dict(result), sort_keys=True,
        separators=(",", ":"),
    )


class TestSeededDeterminism:
    @pytest.mark.parametrize("make", [_fluid_spec, _phase_spec])
    def test_repeat_runs_byte_identical(self, make):
        first = _fingerprint(run_many([make()], jobs=1, cache=False)[0])
        second = _fingerprint(run_many([make()], jobs=1, cache=False)[0])
        assert first == second

    @pytest.mark.parametrize("make", [_fluid_spec, _phase_spec])
    def test_worker_fanout_byte_identical(self, make):
        # jobs=4 goes through the process pool and jobs=1 through the
        # in-process loop.
        specs = [make() for _ in range(4)]
        serial = run_many(specs, jobs=1, cache=False)
        parallel = run_many(specs, jobs=4, cache=False)
        for left, right in zip(serial, parallel):
            assert _fingerprint(left) == _fingerprint(right)

    def test_cache_round_trip_replays_faulted_run(self, tmp_path):
        spec = _fluid_spec()
        first = run_many(
            [spec], jobs=1, cache=True, cache_dir=tmp_path
        )[0]
        # Second submission must be a cache hit that replays the stored
        # result exactly.
        second = run_many(
            [spec], jobs=1, cache=True, cache_dir=tmp_path
        )[0]
        assert _fingerprint(first) == _fingerprint(second)
        assert list(tmp_path.glob("*.json"))


class TestPhaseFaultWindows:
    def test_run_cut_inside_window_restores_capacity(self):
        # ``until`` stops the run before the window's end event fires;
        # the caller's topology (and so the spec's hash) must still
        # read the base capacity afterwards.
        topology = dumbbell_topology(2, 12.5e9)
        spec = RunSpec(
            backend="phase",
            seed=0,
            jobs=tuple(
                JobSpec(f"J{i + 1}", ms(10), ms(5) * 12.5e9)
                for i in range(2)
            ),
            policy=FairSharing(),
            n_iterations=50,
            topology=topology,
            until=0.1,
            faults=InjectionSchedule(events=(
                RateChange(BOTTLENECK, 0.05, 1.0, 0.2),
            )),
        )
        before = spec.content_hash()
        result = execute(spec)
        assert result.phase.duration == pytest.approx(0.1)
        [link] = [
            link for link in topology.links if link.name == BOTTLENECK
        ]
        assert link.capacity == 12.5e9
        assert spec.content_hash() == before
