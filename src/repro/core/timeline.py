"""The canonical job timeline: one schema for every fidelity tier.

Every simulator in the library — the exact phase-level model, the
microsecond DCQCN fluid machine, the AIMD baseline and the cluster
simulation — produces the same observable: a
sequence of completed training iterations, each with a start, a
communication start and an end. This module is that observable's single
home. :class:`IterationSample` is one completed iteration;
:class:`JobTimeline` is a job's ordered sample list with the uniform
``iteration_times(skip=...)`` / mean / median accessors every experiment
and analysis helper consumes.

Because all tiers emit the same record, cross-fidelity comparison is a
structural diff of identical objects, and warm-up ``skip`` semantics are
defined exactly once: asking for a mean or median when ``skip`` consumes
every completed iteration raises :class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..errors import SimulationError


@dataclass(frozen=True)
class IterationSample:
    """Timing of one completed training iteration.

    Attributes:
        index: Zero-based iteration number within the job.
        start: Simulation time the iteration's first compute phase began.
        comm_start: Simulation time its first communication burst began.
        end: Simulation time the last communication burst finished.
    """

    index: int
    start: float
    comm_start: float
    end: float

    @property
    def duration(self) -> float:
        """Iteration time, seconds."""
        return self.end - self.start

    @property
    def comm_duration(self) -> float:
        """Communication-phase duration (including queueing), seconds."""
        return self.end - self.comm_start

    @property
    def compute_duration(self) -> float:
        """Time before the first communication burst, seconds."""
        return self.comm_start - self.start

    def to_row(self) -> List[float]:
        """Compact ``[index, start, comm_start, end]`` row (for codecs)."""
        return [self.index, self.start, self.comm_start, self.end]

    @classmethod
    def from_row(cls, row: Sequence[float]) -> "IterationSample":
        """Inverse of :meth:`to_row`."""
        index, start, comm_start, end = row
        return cls(
            index=int(index),
            start=float(start),
            comm_start=float(comm_start),
            end=float(end),
        )


class JobTimeline:
    """One job's completed iterations, in order.

    The append-only record every lifecycle implementation writes into
    (via :class:`repro.core.lifecycle.JobLifecycle`) and every consumer
    reads from. Samples are contiguous: sample ``i`` has ``index == i``.
    """

    def __init__(
        self,
        job_id: str,
        samples: Optional[Sequence[IterationSample]] = None,
    ) -> None:
        self.job_id = job_id
        self._samples: List[IterationSample] = []
        for sample in samples or ():
            self.record(sample)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, sample: IterationSample) -> None:
        """Append one completed iteration; indexes must be contiguous."""
        if sample.index != len(self._samples):
            raise SimulationError(
                f"job {self.job_id}: iteration sample {sample.index} "
                f"appended out of order (expected {len(self._samples)})"
            )
        self._samples.append(sample)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def samples(self) -> List[IterationSample]:
        """The completed iterations, oldest first."""
        return self._samples

    @property
    def iterations(self) -> int:
        """Number of completed iterations."""
        return len(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[IterationSample]:
        return iter(self._samples)

    @property
    def iteration_starts(self) -> np.ndarray:
        """Start times of completed iterations, seconds."""
        return np.asarray([s.start for s in self._samples], dtype=float)

    @property
    def iteration_ends(self) -> np.ndarray:
        """End times of completed iterations, seconds."""
        return np.asarray([s.end for s in self._samples], dtype=float)

    def _sliced(self, values: List[float], skip: int) -> np.ndarray:
        if skip < 0:
            raise SimulationError(
                f"job {self.job_id}: skip must be >= 0, got {skip}"
            )
        return np.asarray(values[skip:], dtype=float)

    def iteration_times(self, skip: int = 0) -> np.ndarray:
        """Durations of completed iterations, seconds.

        ``skip`` drops that many warm-up iterations from the front.
        """
        return self._sliced([s.duration for s in self._samples], skip)

    def comm_times(self, skip: int = 0) -> np.ndarray:
        """Communication-phase durations, seconds."""
        return self._sliced([s.comm_duration for s in self._samples], skip)

    def compute_times(self, skip: int = 0) -> np.ndarray:
        """Pre-communication compute durations, seconds."""
        return self._sliced(
            [s.compute_duration for s in self._samples], skip
        )

    # ------------------------------------------------------------------
    # Statistics (warm-up skip semantics defined once, for every tier)
    # ------------------------------------------------------------------

    def _times_after_skip(self, skip: int) -> np.ndarray:
        times = self.iteration_times(skip)
        if times.size == 0:
            raise SimulationError(
                f"job {self.job_id} has no iterations after skip"
            )
        return times

    def mean_iteration_time(self, skip: int = 0) -> float:
        """Mean iteration time, optionally skipping warm-up iterations.

        Raises:
            SimulationError: when ``skip`` consumes every completed
                iteration (the warm-up window exceeded the run).
        """
        return float(self._times_after_skip(skip).mean())

    def median_iteration_time(self, skip: int = 0) -> float:
        """Median iteration time, optionally skipping warm-up iterations.

        Raises:
            SimulationError: when ``skip`` consumes every completed
                iteration.
        """
        return float(np.median(self._times_after_skip(skip)))

    # ------------------------------------------------------------------
    # Codec support (the dict shape lives in :mod:`repro.io`)
    # ------------------------------------------------------------------

    def to_rows(self) -> List[List[float]]:
        """All samples as compact rows."""
        return [sample.to_row() for sample in self._samples]

    @classmethod
    def from_rows(
        cls, job_id: str, rows: Sequence[Sequence[float]]
    ) -> "JobTimeline":
        """Rebuild a timeline from :meth:`to_rows` output."""
        return cls(
            job_id, [IterationSample.from_row(row) for row in rows]
        )

    def __repr__(self) -> str:
        return (
            f"JobTimeline(job_id={self.job_id!r}, "
            f"iterations={self.iterations})"
        )
