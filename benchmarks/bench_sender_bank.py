"""Perf guard: vectorized DCQCN sender bank vs the scalar reference.

Runs the paper's two-job on-off workload (Figure 1's shape) through
``DcqcnFluidSimulator`` with both engines, asserts the traces and
timelines are identical, and guards the speedup the vector engine
(span advancement + idle fast-forward, see docs/PERF.md) must deliver.
A second case runs 40 long-lived senders into one bottleneck: the queue
sits above ``kmin`` most of the time, so it guards the per-tick kernel
rather than the fast-forwards. CI runs this as its perf smoke leg and
fails on any divergence.
"""

import time

import numpy as np

from conftest import print_report

from repro.cc.dcqcn import (
    DEFAULT_TIMER,
    DcqcnFluidSimulator,
    DcqcnParams,
    OnOffDcqcnJob,
)
from repro.units import gbps

#: Wall-clock factor engine="vector" must beat engine="scalar" by on the
#: two-job on-off workload (measured ~4.5x; margin absorbs CI noise).
MIN_SPEEDUP = 3.0

_DURATION = 1.2

#: Vector-over-scalar floor for the 40-long-lived-sender case.
MIN_SPEEDUP_MANY = 1.3

_MANY_SENDERS = 40
_MANY_DURATION = 0.05


def _run(engine: str):
    sim = DcqcnFluidSimulator(capacity=gbps(50), dt=10e-6, engine=engine)
    params = DcqcnParams(line_rate=gbps(50))
    jobs = []
    for index in range(2):
        job = OnOffDcqcnJob(
            f"J{index + 1}",
            params.with_timer(DEFAULT_TIMER * 2),
            np.random.default_rng(10 + index),
            compute_time=0.1,
            comm_bytes=0.11 * gbps(42),
            start_offset=index * 0.004,
        )
        sim.add_source(job)
        jobs.append(job)
    start = time.perf_counter()
    result = sim.run(_DURATION)
    elapsed = time.perf_counter() - start
    return result, jobs, elapsed


def test_sender_bank_speedup(benchmark):
    """Vector engine is bit-identical to scalar and >= MIN_SPEEDUP faster."""
    scalar_time = min(_run("scalar")[2] for _ in range(2))
    result_s, jobs_s, _ = _run("scalar")

    result_v, jobs_v, first = _run("vector")
    vector_time = min(first, _run("vector")[2])
    benchmark.pedantic(
        lambda: _run("vector"), iterations=1, rounds=1
    )

    # Divergence check: every sampled series and every timeline must be
    # byte-identical across engines — this is what CI fails on.
    for name in result_s.rate_series:
        assert np.array_equal(
            result_s.rate_series[name].times,
            result_v.rate_series[name].times,
        ), name
        assert np.array_equal(
            result_s.rate_series[name].values,
            result_v.rate_series[name].values,
        ), name
    assert np.array_equal(
        result_s.queue_series.values, result_v.queue_series.values
    )
    for job_s, job_v in zip(jobs_s, jobs_v):
        assert repr(job_s.timeline.__dict__) == repr(job_v.timeline.__dict__)

    speedup = scalar_time / vector_time
    benchmark.extra_info["scalar_seconds"] = scalar_time
    benchmark.extra_info["vector_seconds"] = vector_time
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["engines_identical"] = True
    print_report(
        "DCQCN sender bank — vector vs scalar",
        f"scalar: {scalar_time:.3f}s\n"
        f"vector: {vector_time:.3f}s\n"
        f"speedup: {speedup:.2f}x (floor {MIN_SPEEDUP}x)",
    )
    assert speedup >= MIN_SPEEDUP


def _run_many(engine: str):
    sim = DcqcnFluidSimulator(capacity=gbps(50), dt=10e-6, engine=engine)
    rngs = []
    for index in range(_MANY_SENDERS):
        rng = np.random.default_rng(100 + index)
        sim.add_sender(f"s{index:02d}", DcqcnParams(), rng)
        rngs.append(rng)
    start = time.perf_counter()
    result = sim.run(_MANY_DURATION)
    elapsed = time.perf_counter() - start
    return result, rngs, elapsed


def test_sender_bank_many_senders_speedup(benchmark):
    """40 long-lived senders: bit-identical and >= MIN_SPEEDUP_MANY."""
    result_s, rngs_s, first_s = _run_many("scalar")
    scalar_time = min(first_s, _run_many("scalar")[2])
    result_v, rngs_v, first_v = _run_many("vector")
    vector_time = min(first_v, _run_many("vector")[2])
    benchmark.pedantic(
        lambda: _run_many("vector"), iterations=1, rounds=1
    )

    for name in result_s.rate_series:
        assert np.array_equal(
            result_s.rate_series[name].times,
            result_v.rate_series[name].times,
        ), name
        assert np.array_equal(
            result_s.rate_series[name].values,
            result_v.rate_series[name].values,
        ), name
    assert np.array_equal(
        result_s.queue_series.values, result_v.queue_series.values
    )
    for rng_s, rng_v in zip(rngs_s, rngs_v):
        assert rng_s.bit_generator.state == rng_v.bit_generator.state

    speedup = scalar_time / vector_time
    benchmark.extra_info["senders"] = _MANY_SENDERS
    benchmark.extra_info["scalar_seconds"] = scalar_time
    benchmark.extra_info["vector_seconds"] = vector_time
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["engines_identical"] = True
    print_report(
        f"DCQCN sender bank — {_MANY_SENDERS} long-lived senders",
        f"scalar: {scalar_time:.3f}s\n"
        f"vector: {vector_time:.3f}s\n"
        f"speedup: {speedup:.2f}x (floor {MIN_SPEEDUP_MANY}x)",
    )
    assert speedup >= MIN_SPEEDUP_MANY
