"""Direction (iii): precise flow scheduling.

The solver's rotation angle for each job "corresponds to a time-shift for
the communication phase" (§4). A central scheduler can therefore release
each job's flows only inside its assigned windows — TDMA over the unified
period — and the communication phases never collide, with no unfairness in
the transport at all. The paper's caveat (precise scheduling of short
transfers needs tight clock sync) shows up here as the gate's slack
parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from ..core.circle import JobCircle
from ..core.compatibility import CompatibilityResult
from ..core.rotation import CommWindow, communication_schedule
from ..errors import ConfigError


class PeriodicGate:
    """Admits a job's communication only inside its periodic windows.

    A window ``[start, start + length)`` repeats every ``period`` ticks of
    the unified circle. A communication phase may begin anywhere within
    the first ``slack`` fraction of a window; otherwise the gate holds it
    until the next window opens.
    """

    def __init__(
        self,
        windows: Sequence[CommWindow],
        ticks_per_second: float,
        slack: float = 1.0,
        epoch: float = 0.0,
    ) -> None:
        if not windows:
            raise ConfigError("a gate needs at least one window")
        if ticks_per_second <= 0:
            raise ConfigError("ticks_per_second must be > 0")
        if not 0.0 < slack <= 1.0:
            raise ConfigError(f"slack must be in (0, 1], got {slack}")
        period_ticks = windows[0].period
        if any(w.period != period_ticks for w in windows):
            raise ConfigError("windows must share one period")
        self.period = period_ticks / ticks_per_second
        self.epoch = epoch
        self._openings: List[tuple[float, float]] = sorted(
            (
                window.start / ticks_per_second,
                (window.start + slack * window.length) / ticks_per_second,
            )
            for window in windows
        )

    def to_state(self) -> Dict[str, object]:
        """The gate's resolved timing state (seconds, not ticks), as the
        floats :meth:`from_state` reads it back as."""
        return {
            "period": float(self.period),
            "epoch": float(self.epoch),
            "openings": [
                [float(start), float(end)] for start, end in self._openings
            ],
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "PeriodicGate":
        """Rebuild a gate from :meth:`to_state` output."""
        gate = cls.__new__(cls)
        gate.period = float(state["period"])
        gate.epoch = float(state["epoch"])
        gate._openings = [
            (float(start), float(end)) for start, end in state["openings"]
        ]
        if not gate._openings or gate.period <= 0:
            raise ConfigError("invalid gate state")
        return gate

    def __reduce__(self):
        # Pickle via the resolved state: gates cross process boundaries
        # when the runner fans flow-scheduling specs out to workers.
        return (PeriodicGate.from_state, (self.to_state(),))

    def __call__(self, job_id: str, now: float) -> float:
        """Earliest admissible communication start at or after ``now``."""
        phase = (now - self.epoch) % self.period
        for start, end in self._openings:
            if start <= phase < end:
                return now
            if phase < start:
                return now + (start - phase)
        # Past the last opening: wait for the first one next period.
        first_start = self._openings[0][0]
        return now + (self.period - phase) + first_start


@dataclass
class FlowSchedule:
    """Per-job communication windows derived from solver rotations."""

    windows: Dict[str, List[CommWindow]]
    ticks_per_second: float

    @classmethod
    def from_rotations(
        cls,
        circles: Sequence[JobCircle],
        rotations: Mapping[str, int],
        ticks_per_second: float,
    ) -> "FlowSchedule":
        """Build the schedule for given circles and rotations."""
        return cls(
            windows=communication_schedule(circles, rotations),
            ticks_per_second=ticks_per_second,
        )

    @classmethod
    def from_compatibility(
        cls,
        circles: Sequence[JobCircle],
        result: CompatibilityResult,
        ticks_per_second: float,
    ) -> "FlowSchedule":
        """Build the schedule from a compatibility verdict.

        Raises:
            ConfigError: if the jobs were not found compatible — scheduling
                incompatible jobs into overlapping windows defeats the
                mechanism.
        """
        if not result.compatible:
            raise ConfigError(
                "flow scheduling requires a compatible job set"
            )
        return cls.from_rotations(
            circles, result.rotations, ticks_per_second
        )

    def gate_for(
        self, job_id: str, slack: float = 1.0, epoch: float = 0.0
    ) -> PeriodicGate:
        """The admission gate enforcing ``job_id``'s windows."""
        if job_id not in self.windows:
            raise ConfigError(f"no windows for job {job_id!r}")
        return PeriodicGate(
            self.windows[job_id],
            self.ticks_per_second,
            slack=slack,
            epoch=epoch,
        )

    def gates(self, slack: float = 1.0) -> Dict[str, PeriodicGate]:
        """Gates for every scheduled job."""
        return {
            job_id: self.gate_for(job_id, slack=slack)
            for job_id in self.windows
        }
