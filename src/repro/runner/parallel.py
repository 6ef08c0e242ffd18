"""``run_many``: execute run specs across processes, deterministically.

The contract that makes parallelism safe to adopt everywhere:

* **Results come back in spec order**, regardless of worker scheduling.
* **Every spec executes under its own fresh telemetry session** — even
  serially — and the sessions are merged into the caller's session in
  spec order. A ``jobs=4`` run therefore produces byte-identical results
  *and* an identical trace to ``jobs=1``.
* **Each spec carries its own seed**; drivers derive per-spec seeds with
  :func:`repro.runner.spec.derive_seed` so fan-out never changes the
  randomness a spec sees.
* **Cache hits replay** the stored result and its recorded telemetry,
  so a fully cached run is indistinguishable from a fresh one (minus
  the wall-clock spans, which are per-process by design).

Runner-level instruments on the caller's session: counters
``runner.specs``, ``runner.executed``, ``runner.cache.hits``,
``runner.cache.misses``. Worker wall-clock lands in the *span log*
(path ``runner.worker/<label>``) — spans are the session's wall-clock
surface, excluded from the deterministic metrics snapshot.
"""

from __future__ import annotations

import contextlib
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..telemetry.session import Telemetry, resolve, use
from ..telemetry.spans import Span
from . import backends as _backends
from .cache import ResultCache
from .spec import RunResult, RunSpec, safe_content_hash


def _default_cache_dir() -> Path:
    return Path(os.environ.get("REPRO_RUNS_DIR", "runs")) / "cache"


@dataclass(frozen=True)
class RunnerConfig:
    """Ambient defaults for :func:`run_many`.

    The CLI installs one of these via :func:`using` so experiment
    drivers pick up ``--jobs`` / ``--no-cache`` / ``--no-batch``
    without plumbing the flags through every function signature.
    """

    jobs: int = 1
    cache: bool = False
    cache_dir: Path = field(default_factory=_default_cache_dir)
    #: Stack compatible cache-miss specs into batched grid runs
    #: (:mod:`repro.runner.grid`) before the per-spec path. Batched
    #: results are bit-identical to per-spec execution, so this only
    #: moves wall-clock; the CLI's ``--no-batch`` turns it off.
    batch: bool = True


_config = RunnerConfig()


def current_config() -> RunnerConfig:
    """The ambient runner configuration."""
    return _config


@contextlib.contextmanager
def using(config: RunnerConfig) -> Iterator[RunnerConfig]:
    """Install ``config`` as the ambient runner configuration."""
    global _config
    previous = _config
    _config = config
    try:
        yield config
    finally:
        _config = previous


def _execute_spec(spec: RunSpec) -> Tuple[RunResult, Dict[str, Any], float]:
    """Run one spec under a fresh telemetry session (pool entry point).

    Returns the result, the session's transportable state, and the
    worker's wall-clock seconds. Top-level so it pickles.
    """
    session = Telemetry(name=spec.label or spec.backend)
    # The span log is the one sanctioned wall-clock surface (DET002):
    # worker wall time is measured as a span on the worker's own
    # session and shipped back as a plain float (worker_state() never
    # transports spans, so nothing is double-counted on merge).
    with use(session):
        with session.spans.span("execute") as span:
            result = _backends.execute(spec)
    return result, session.worker_state(), span.duration


def _specs_pickle(specs: Sequence[RunSpec]) -> bool:
    """Whether every spec survives pickling (pool precondition)."""
    try:
        pickle.dumps(list(specs))
    except Exception:
        return False
    return True


def run_many(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[Path] = None,
    telemetry: Optional[Telemetry] = None,
) -> List[RunResult]:
    """Execute ``specs`` and return their results in spec order.

    Args:
        specs: The runs to execute.
        jobs: Worker processes; ``None`` takes the ambient config,
            ``1`` runs in-process. Values above the spec count are
            clamped.
        cache: Whether to consult/populate the on-disk result cache;
            ``None`` takes the ambient config.
        cache_dir: Cache root; ``None`` takes the ambient config.
        telemetry: Session to merge worker telemetry into; ``None``
            resolves to the ambient session.

    Compatible cache misses run as batched grid runs when the ambient
    ``RunnerConfig.batch`` is on (the default).

    Specs that fail to pickle (ad-hoc gate closures) silently fall back
    to in-process execution — same results, no fan-out.
    """
    config = current_config()
    jobs = config.jobs if jobs is None else jobs
    cache_enabled = config.cache if cache is None else cache
    root = Path(cache_dir) if cache_dir is not None else config.cache_dir
    session = resolve(telemetry)

    specs = list(specs)
    store = ResultCache(root) if cache_enabled else None
    hashes: List[str] = [safe_content_hash(spec) for spec in specs]

    results: List[Optional[RunResult]] = [None] * len(specs)
    states: List[Optional[Dict[str, Any]]] = [None] * len(specs)
    seconds: List[Optional[float]] = [None] * len(specs)
    hits = 0

    pending: List[int] = []
    for index, spec in enumerate(specs):
        entry = (
            store.get(hashes[index])
            if store is not None and hashes[index]
            else None
        )
        if entry is not None:
            results[index] = replace(entry.result, label=spec.label)
            states[index] = entry.telemetry
            hits += 1
        else:
            pending.append(index)

    # Grid tier: stack compatible cache misses into batched runs. A
    # group that turns out not to be batchable mid-build falls back to
    # the per-spec path below — results are bit-identical either way,
    # so batching is purely a wall-clock decision.
    batched: set = set()
    if config.batch and len(pending) >= 2:
        from . import grid as _grid

        for group in _grid.plan_groups(
            [(i, specs[i]) for i in pending]
        ):
            outcome = _grid.execute_batched([specs[i] for i in group])
            if outcome is None:
                continue
            for index, (result, state) in zip(group, outcome):
                results[index] = result
                states[index] = state
            batched.update(group)

    pool_pending = [i for i in pending if i not in batched]
    if pool_pending:
        workers = min(jobs, len(pool_pending))
        pool_ok = workers > 1 and _specs_pickle(
            [specs[i] for i in pool_pending]
        )
        if pool_ok:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(
                    pool.map(
                        _execute_spec,
                        [specs[i] for i in pool_pending],
                    )
                )
        else:
            outcomes = [_execute_spec(specs[i]) for i in pool_pending]
        for index, (result, state, elapsed) in zip(
            pool_pending, outcomes
        ):
            results[index] = result
            states[index] = state
            seconds[index] = elapsed

    # Merge telemetry and populate the cache in spec order.
    executed = set(pending)
    for index, spec in enumerate(specs):
        state = states[index]
        if state:
            session.merge_worker_state(state)
        if seconds[index] is not None and session.enabled:
            # Wall-clock belongs in the span log, never in metrics:
            # the metrics snapshot must stay deterministic per seed.
            name = spec.label or spec.backend
            span = Span(name, f"runner.worker/{name}", depth=1)
            span.duration = seconds[index]
            session.spans.completed.append(span)
        if (
            store is not None
            and index in executed
            and hashes[index]
            and spec.cacheable()
        ):
            store.put(spec, hashes[index], results[index], state or {})

    if session.enabled:
        session.counter("runner.specs").inc(len(specs))
        session.counter("runner.executed").inc(len(pending))
        session.counter("runner.cache.hits").inc(hits)
        session.counter("runner.cache.misses").inc(len(pending))
        session.counter("runner.batched").inc(len(batched))

    return [result for result in results if result is not None]


def run_one(
    spec: RunSpec,
    cache: Optional[bool] = None,
    cache_dir: Optional[Path] = None,
    telemetry: Optional[Telemetry] = None,
) -> RunResult:
    """Execute a single spec through the runner (serial)."""
    [result] = run_many(
        [spec], jobs=1, cache=cache, cache_dir=cache_dir,
        telemetry=telemetry,
    )
    return result
