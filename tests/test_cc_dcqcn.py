"""Fine-grained DCQCN model tests: rate machine, unfairness, calibration."""

import numpy as np
import pytest

from repro.cc.dcqcn import (
    AGGRESSIVE_TIMER,
    DEFAULT_TIMER,
    DcqcnFluidSimulator,
    DcqcnParams,
    DcqcnSender,
    calibrate_timer_weights,
)
from repro.errors import ConfigError, SimulationError
from repro.units import gbps, to_gbps


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestParams:
    def test_defaults_are_valid(self):
        params = DcqcnParams()
        assert params.line_rate == pytest.approx(gbps(50))
        assert params.timer == DEFAULT_TIMER

    def test_with_timer(self):
        params = DcqcnParams().with_timer(100e-6)
        assert params.timer == 100e-6
        assert params.line_rate == DcqcnParams().line_rate

    def test_invalid_g_rejected(self):
        with pytest.raises(ConfigError):
            DcqcnParams(g=1.5)

    def test_invalid_min_rate_rejected(self):
        with pytest.raises(ConfigError):
            DcqcnParams(min_rate=gbps(100))


class TestSenderStateMachine:
    def test_starts_at_line_rate(self):
        sender = DcqcnSender("s", DcqcnParams(), _rng())
        assert sender.rate == pytest.approx(gbps(50))

    def test_no_marking_keeps_line_rate(self):
        sender = DcqcnSender("s", DcqcnParams(), _rng())
        for step in range(1000):
            sender.step(step * 5e-6, 5e-6, 0.0)
        assert sender.rate == pytest.approx(gbps(50))
        assert sender.cnps_received == 0

    def test_certain_marking_cuts_rate(self):
        sender = DcqcnSender("s", DcqcnParams(), _rng())
        for step in range(1000):
            sender.step(step * 5e-6, 5e-6, 1.0)
        assert sender.rate < gbps(50)
        assert sender.cnps_received > 0

    def test_rate_floor_respected(self):
        params = DcqcnParams()
        sender = DcqcnSender("s", params, _rng())
        for step in range(20000):
            sender.step(step * 5e-6, 5e-6, 1.0)
        assert sender.rate >= params.min_rate

    def test_alpha_decays_without_cnps(self):
        sender = DcqcnSender("s", DcqcnParams(), _rng())
        assert sender.alpha == 1.0
        for step in range(1000):
            sender.step(step * 5e-6, 5e-6, 0.0)
        assert sender.alpha < 0.9

    def test_finite_flow_completes(self):
        sender = DcqcnSender(
            "s", DcqcnParams(), _rng(), data_bytes=1e6
        )
        total = 0.0
        for step in range(10000):
            total += sender.step(step * 5e-6, 5e-6, 0.0)
            if sender.done:
                break
        assert sender.done
        assert total == pytest.approx(1e6)

    def test_done_flow_sends_nothing(self):
        sender = DcqcnSender("s", DcqcnParams(), _rng(), data_bytes=0.0)
        assert sender.done
        assert sender.step(0.0, 5e-6, 0.0) == 0.0


class TestBottleneckSharing:
    def test_equal_timers_share_roughly_equally(self):
        sim = DcqcnFluidSimulator(capacity=gbps(50))
        params = DcqcnParams()
        sim.add_sender("a", params, _rng(1))
        sim.add_sender("b", params, _rng(2))
        result = sim.run(0.1)
        ra = result.mean_rate("a", start=0.03)
        rb = result.mean_rate("b", start=0.03)
        assert ra / rb == pytest.approx(1.0, abs=0.25)

    def test_smaller_timer_wins_bandwidth(self):
        # Sample every tick: the default 250us grid is an exact multiple
        # of cnp_interval (50us), so coarser sampling aliases with the
        # CNP sawtooth and biases the measured means.
        sim = DcqcnFluidSimulator(capacity=gbps(50), sample_interval=5e-6)
        params = DcqcnParams()
        sim.add_sender("fast", params.with_timer(AGGRESSIVE_TIMER), _rng(1))
        sim.add_sender("slow", params.with_timer(DEFAULT_TIMER), _rng(2))
        result = sim.run(0.12)
        fast = result.mean_rate("fast", start=0.03)
        slow = result.mean_rate("slow", start=0.03)
        assert fast > slow * 1.04  # unfair, Figure 1c direction

    def test_aggregate_stays_near_capacity(self):
        sim = DcqcnFluidSimulator(capacity=gbps(50))
        params = DcqcnParams()
        sim.add_sender("a", params, _rng(1))
        sim.add_sender("b", params, _rng(2))
        result = sim.run(0.1)
        total = result.mean_rate("a", start=0.03) + result.mean_rate(
            "b", start=0.03
        )
        assert to_gbps(total) == pytest.approx(50, rel=0.12)

    def test_run_without_senders_rejected(self):
        with pytest.raises(SimulationError):
            DcqcnFluidSimulator().run(0.01)

    def test_queue_builds_under_overload(self):
        sim = DcqcnFluidSimulator(capacity=gbps(50))
        params = DcqcnParams()
        sim.add_sender("a", params, _rng(1))
        sim.add_sender("b", params, _rng(2))
        result = sim.run(0.02)
        assert result.queue_series.values.max() > 0

    def test_determinism_with_same_seeds(self):
        def run():
            sim = DcqcnFluidSimulator(capacity=gbps(50))
            params = DcqcnParams()
            sim.add_sender("a", params, _rng(1))
            sim.add_sender("b", params, _rng(2))
            return sim.run(0.05)

        r1, r2 = run(), run()
        np.testing.assert_allclose(
            r1.rate_series["a"].values, r2.rate_series["a"].values
        )


class TestConfigValidation:
    def test_resume_threshold_needs_pause_threshold(self):
        # PFC stays off without a pause threshold, so a resume
        # threshold alone would be silently ignored.
        with pytest.raises(ConfigError, match="pfc_pause_threshold"):
            DcqcnFluidSimulator(pfc_resume_threshold=50e3)

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    @pytest.mark.parametrize(
        "duration", [-1.0, float("nan"), float("inf"), -float("inf")]
    )
    def test_bad_duration_rejected(self, engine, duration):
        sim = DcqcnFluidSimulator(capacity=gbps(50), engine=engine)
        sim.add_sender("a", DcqcnParams(), _rng(1))
        with pytest.raises(ConfigError, match="duration"):
            sim.run(duration)

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_zero_duration_runs_empty(self, engine):
        sim = DcqcnFluidSimulator(capacity=gbps(50), engine=engine)
        sim.add_sender("a", DcqcnParams(), _rng(1))
        result = sim.run(0.0)
        assert len(result.rate_series["a"].values) == 0


class TestCalibration:
    def test_weights_normalized_to_least_aggressive(self):
        weights = calibrate_timer_weights(
            [AGGRESSIVE_TIMER, DEFAULT_TIMER], duration=0.1, seed=3
        )
        assert weights[DEFAULT_TIMER] == pytest.approx(1.0)
        assert weights[AGGRESSIVE_TIMER] > 1.0

    def test_needs_two_timers(self):
        with pytest.raises(ConfigError):
            calibrate_timer_weights([DEFAULT_TIMER])

    def test_mean_rate_requires_samples(self):
        sim = DcqcnFluidSimulator(capacity=gbps(50))
        sim.add_sender("a", DcqcnParams(), _rng(1))
        result = sim.run(0.01)
        with pytest.raises(SimulationError):
            result.mean_rate("a", start=5.0)
