"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.cc.fair import FairSharing
from repro.cc.weighted import StaticWeighted
from repro.core.circle import JobCircle
from repro.net.topology import Topology
from repro.units import gbps, ms
from repro.workloads.job import JobSpec

#: A small capacity that keeps byte counts readable in tests.
CAPACITY = gbps(42)


@pytest.fixture(autouse=True)
def _isolated_runs_dir(tmp_path, monkeypatch):
    """Keep CLI-recorded runs out of the working tree during tests."""
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))


@pytest.fixture
def rate_window():
    """``window(result, start, end)``: per rate series of ``result``, the
    sample at ``start`` (the state entering a fault window) and the
    samples at ``start < t <= end``."""
    def window(result, start, end):
        rows = {}
        for name, series in result.rate_series.items():
            times = series.times
            [entry] = series.values[np.isclose(times, start)]
            inside = (times > start + 1e-9) & (times <= end + 1e-9)
            rows[name] = (entry, series.values[inside])
        return rows

    return window


@pytest.fixture
def fluid_engine(monkeypatch):
    """``select(engine)``: make the fluid backend run its simulators on
    ``engine`` (``"scalar"`` is the dt-by-dt reference loop). Runner
    specs carry no engine option, so tests pick the oracle here."""
    from repro.runner import backends

    def select(engine):
        build = backends.build_fluid_scenario_sim

        def build_on_engine(*args):
            sim, jobs = build(*args)
            sim.engine = engine
            return sim, jobs

        monkeypatch.setattr(
            backends, "build_fluid_scenario_sim", build_on_engine
        )

    return select


@pytest.fixture
def capacity():
    """Reference link capacity used across tests."""
    return CAPACITY


@pytest.fixture
def dumbbell():
    """A two-host-per-side dumbbell with bottleneck L1."""
    return Topology.dumbbell(
        hosts_per_side=2,
        host_capacity=CAPACITY,
        bottleneck_capacity=CAPACITY,
    )


@pytest.fixture
def simple_pair():
    """Two identical jobs: 100 ms compute + 100 ms solo communication."""
    mk = lambda name: JobSpec(
        job_id=name,
        compute_time=ms(100),
        comm_bytes=ms(100) * CAPACITY,
    )
    return mk("J1"), mk("J2")


@pytest.fixture
def compatible_pair_circles():
    """Two equal-period circles that can interleave (40 + 45 < 100)."""
    return [
        JobCircle.from_phases("J1", 60, 40),
        JobCircle.from_phases("J2", 55, 45),
    ]


@pytest.fixture
def incompatible_pair_circles():
    """Two equal-period circles that cannot (60 + 60 > 100)."""
    return [
        JobCircle.from_phases("J1", 40, 60),
        JobCircle.from_phases("J2", 40, 60),
    ]


@pytest.fixture
def fair_policy():
    """Plain max-min fair sharing."""
    return FairSharing()


@pytest.fixture
def unfair_policy():
    """2:1 static unfairness, J1 more aggressive."""
    return StaticWeighted.from_aggressiveness_order(["J1", "J2"])
