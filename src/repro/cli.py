"""Command-line interface.

``repro-experiments`` regenerates any paper artifact from the shell::

    repro-experiments list
    repro-experiments run table1
    repro-experiments run all

Equivalent module form: ``python -m repro.cli run figure2``.

Every ``run`` records telemetry — a JSONL simulation-event trace plus a
JSON manifest of counters and wall-clock span timings — into a fresh
directory under ``runs/`` (override with ``--runs-dir`` or the
``REPRO_RUNS_DIR`` environment variable; disable with ``--no-record``).
Recorded runs are inspected with::

    repro-experiments stats figure1          # latest figure1 run
    repro-experiments trace figure1 --kind job.iteration --limit 20

Experiments execute through the runner (:mod:`repro.runner`):
``--jobs N`` fans the run specs out over worker processes and results
are cached on disk under ``<runs-dir>/cache`` keyed by spec content
hash, so repeating a run replays it instantly (``--no-cache`` opts
out). Inspect or reset the cache with::

    repro-experiments cache --stats
    repro-experiments cache --clear
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Dict, Optional

from .errors import ReproError
from .experiments import (
    ablations,
    crossfidelity,
    extensions,
    fattree,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    mechanisms_exp,
    online,
    robustness,
    scheduler_exp,
    sweep,
    table1,
)
from .runner import ResultCache, RunnerConfig, using
from .telemetry.runs import (
    DEFAULT_RUNS_DIR,
    RunRecorder,
    resolve_run,
    stats_report,
    trace_report,
)

#: Artifact name -> (description, runner).
EXPERIMENTS: Dict[str, tuple[str, Callable[[], None]]] = {
    "figure1": (
        "Fig. 1b/1c DCQCN bandwidth + Fig. 1d iteration-time CDFs",
        figure1.main,
    ),
    "figure2": ("Fig. 2 link utilization and the sliding effect",
                figure2.main),
    "figure3": ("Fig. 3 the VGG16 circle", figure3.main),
    "figure4": ("Fig. 4 rotation separates colliding jobs", figure4.main),
    "figure5": ("Fig. 5 the unified (LCM) circle", figure5.main),
    "table1": ("Table 1 fair vs unfair for five job groups", table1.main),
    "mechanisms": ("S4 mechanisms head-to-head", mechanisms_exp.main),
    "scheduler": ("S4 compatibility-aware placement", scheduler_exp.main),
    "online": ("online service: arrival-rate x placement sweep",
               online.main),
    "ablations": ("adaptive CC, sector grid, solver comparison",
                  ablations.main),
    "crossfidelity": ("raw-DCQCN validation of the phase model",
                      crossfidelity.main),
    "extensions": ("S5: cluster-level, multi-tenancy, tuning",
                   extensions.main),
    "sweep": ("population sweep: compatibility probability vs comm fraction",
              sweep.main),
    "robustness": ("fault injection: where the sliding effect collapses",
                   robustness.main),
    "fattree": ("fat-tree fabric: placement audit + multi-link rotation",
                fattree.main),
}


def default_runs_dir() -> str:
    """Where recorded runs land (``REPRO_RUNS_DIR`` overrides)."""
    return os.environ.get("REPRO_RUNS_DIR", DEFAULT_RUNS_DIR)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of 'Congestion Control in "
            "Machine Learning Clusters' (HotNets '22)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available artifacts")

    # Stub for --help only: ``main`` forwards ``lint ...`` to
    # :func:`repro.lint.cli.main` before argparse ever runs, so the
    # linter keeps its own flags (--format, --select, --baseline, ...).
    subparsers.add_parser(
        "lint",
        help="run the simulation-invariant linter (repro-lint --help)",
        add_help=False,
    )

    run = subparsers.add_parser("run", help="run one artifact (or 'all')")
    run.add_argument(
        "artifact",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which artifact to regenerate",
    )
    run.add_argument(
        "--no-record",
        action="store_true",
        help="skip telemetry recording (no run directory is written)",
    )
    run.add_argument(
        "--runs-dir",
        default=None,
        help="directory for recorded runs (default: $REPRO_RUNS_DIR or "
        f"'{DEFAULT_RUNS_DIR}')",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for run specs (default 1 = in-process)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk result cache (always execute)",
    )
    run.add_argument(
        "--no-batch",
        action="store_true",
        help="run every spec on its own instead of stacking compatible "
        "fluid specs into batched grid runs (same results, slower)",
    )

    cache = subparsers.add_parser(
        "cache", help="inspect or clear the on-disk result cache"
    )
    cache.add_argument(
        "--stats",
        action="store_true",
        help="print cache location, entry count and size (default)",
    )
    cache.add_argument(
        "--clear",
        action="store_true",
        help="delete every cached result",
    )
    cache.add_argument("--runs-dir", default=None, help=argparse.SUPPRESS)

    stats = subparsers.add_parser(
        "stats", help="summarize a recorded run (events, bytes, spans)"
    )
    stats.add_argument(
        "run",
        help="run directory, run name, or artifact name (latest run)",
    )
    stats.add_argument("--runs-dir", default=None, help=argparse.SUPPRESS)

    trace = subparsers.add_parser(
        "trace", help="print a recorded run's event trace"
    )
    trace.add_argument(
        "run",
        help="run directory, run name, or artifact name (latest run)",
    )
    trace.add_argument(
        "--kind", default=None, help="only records of this kind"
    )
    trace.add_argument(
        "--limit",
        type=int,
        default=50,
        help="max records to print (0 = all, default 50)",
    )
    trace.add_argument("--runs-dir", default=None, help=argparse.SUPPRESS)
    return parser


def _runner_summary(telemetry) -> Optional[str]:
    """One line of runner activity, or ``None`` if nothing ran."""
    specs = int(telemetry.counter("runner.specs").value)
    if not specs:
        return None
    executed = int(telemetry.counter("runner.executed").value)
    hits = int(telemetry.counter("runner.cache.hits").value)
    batched = int(telemetry.counter("runner.batched").value)
    line = (
        f"runner: {specs} spec(s): {executed} executed,"
        f" {hits} cache hit(s)"
    )
    if batched:
        line += f", {batched} batched"
    return line


def _run_artifact(
    name: str,
    record: bool,
    runs_dir: str,
    jobs: int = 1,
    use_cache: bool = True,
    batch: bool = True,
) -> None:
    runner = EXPERIMENTS[name][1]
    config = RunnerConfig(
        jobs=jobs,
        cache=use_cache,
        cache_dir=Path(runs_dir) / "cache",
        batch=batch,
    )
    if not record:
        with using(config):
            runner()
        return
    with using(config), RunRecorder(name, runs_dir=runs_dir) as recorder:
        runner()
    assert recorder.run_dir is not None
    print(
        f"\ntelemetry: {len(recorder.telemetry.trace)} events recorded"
        f" -> {recorder.run_dir}"
    )
    summary = _runner_summary(recorder.telemetry)
    if summary is not None:
        print(summary)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        from .lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name in sorted(EXPERIMENTS):
            description, _ = EXPERIMENTS[name]
            print(f"{name.ljust(width)}  {description}")
        return 0

    runs_dir: Optional[str] = getattr(args, "runs_dir", None)
    if runs_dir is None:
        runs_dir = default_runs_dir()

    if args.command == "run":
        record = not args.no_record
        jobs = max(1, args.jobs)
        use_cache = not args.no_cache
        batch = not args.no_batch
        if args.artifact == "all":
            for name in sorted(EXPERIMENTS):
                print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
                _run_artifact(
                    name, record, runs_dir, jobs, use_cache, batch
                )
            return 0
        _run_artifact(
            args.artifact, record, runs_dir, jobs, use_cache, batch
        )
        return 0

    if args.command == "cache":
        store = ResultCache(Path(runs_dir) / "cache")
        if args.clear:
            print(f"cleared {store.clear()} cached result(s)")
            return 0
        info = store.stats()
        print(f"cache: {info['root']}")
        print(f"entries: {info['entries']}")
        print(f"bytes: {info['bytes']}")
        return 0

    try:
        run_dir = resolve_run(args.run, runs_dir=runs_dir)
        if args.command == "stats":
            print(stats_report(run_dir))
        else:
            print(trace_report(run_dir, kind=args.kind, limit=args.limit))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
