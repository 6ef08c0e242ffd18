"""The repo benchmark: timed runs of the artifact pipeline.

    python3 perfbench/run.py --workload cold-phase --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout. Each measured run is a fresh
interpreter (``child.py``) executing ``repro-experiments run
<artifact>`` in-process for every artifact of the workload, with fresh
temporary runs and cache directories under ``.perfbench-work/``; runs
repeat until ``--seconds`` have passed and the end-to-end metrics are
the medians over them. ``--trace 1`` adds one run with the layer entry
points wrapped and prints the per-layer metrics instead. Every
artifact's report is checked against the one captured at the seed
commit (``reference/``). The last line of stdout is the JSON result.

The artifacts are the paper's fixed configurations, each seeded inside
its driver, so ``--seed`` selects nothing: every seed runs the same
inputs, and the reference reports hold for all of them.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import layers  # noqa: E402

#: Set-up time is the median of at least this many fresh interpreters.
SETUP_SAMPLES = 5

#: Wall-clock budget of one invocation; children are killed past it.
DEADLINE_S = 170.0

#: Thread pools pinned to one thread: one process drives a workload.
PINNED_THREADS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("cache_mb", "MB"), ("trace_mb", "MB"),
    ("pass_ratio", "ratio"),
)


class ChildFailed(Exception):
    """A child process exited non-zero or timed out."""


class Bench:
    """One invocation: a work directory and the children it runs."""

    def __init__(self, root: Path, workload: str, deadline: float) -> None:
        self.workload = workload
        self.deadline = deadline
        self.work = root / ".perfbench-work" / f"{workload}-{os.getpid()}"
        self._count = 0
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p
        )
        for name in PINNED_THREADS:
            self.env[name] = "1"

    def fresh_dir(self, stem: str) -> Path:
        self._count += 1
        path = self.work / f"{stem}-{self._count}"
        path.mkdir(parents=True)
        return path

    def child(
        self, mode: str, workload: str, runs_dir: Optional[Path] = None
    ) -> Dict:
        """Run ``child.py`` in a fresh interpreter; returns its result."""
        box = self.fresh_dir(mode)
        runs_dir = runs_dir or box / "runs"
        out = box / "result.json"
        self.env["REPRO_RUNS_DIR"] = str(runs_dir)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildFailed("time budget exhausted")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), mode, workload,
                 str(runs_dir), str(out)],
                cwd=box, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} run timed out") from None
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise ChildFailed(f"{mode} run exited {proc.returncode}: {tail}")
        result = json.loads(out.read_text(encoding="utf-8"))
        result["runs_dir"] = str(runs_dir)
        return result


def measure(bench: Bench, seconds: float, trace: bool) -> Dict:
    workload = bench.workload
    artifacts = harness.artifacts_for(workload, layers.ARTIFACTS)
    # Untimed: compile bytecode so set-up measures imports, not builds.
    bench.child("setup", workload)
    warm_cache = None
    cold_reports = None
    if workload == "warm-replay":
        fill = bench.child("run", "fill")
        warm_cache = bench.work / "fill-cache"
        shutil.copytree(Path(fill["runs_dir"]) / "cache", warm_cache)
        cold_reports = fill["reports"]

    def one_run(mode: str) -> Dict:
        runs_dir = bench.fresh_dir("runs")
        if warm_cache is not None:
            shutil.copytree(warm_cache, runs_dir / "cache")
        result = bench.child(mode, workload, runs_dir)
        result["failures"] = harness.failures(
            artifacts, result, cold_reports
        )
        shutil.rmtree(runs_dir)
        return result

    runs = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        runs.append(one_run("run"))
    setups = [run["setup_s"] for run in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(bench.child("setup", workload)["setup_s"])
    traced = one_run("trace") if trace else None
    return {"runs": runs, "setups": setups, "traced": traced}


def end_to_end(measured: Dict) -> Dict[str, float]:
    runs = measured["runs"]
    attempted = sum(len(run["reports"]) for run in runs)
    failed = sum(len(run["failures"]) for run in runs)

    def med(key: str) -> float:
        return harness.median_of([run[key] for run in runs])

    return {
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "setup_s": harness.median_of(measured["setups"]),
        "peak_rss_mb": med("peak_rss_mb"),
        "cache_mb": med("cache_bytes") / 1e6,
        "trace_mb": med("trace_bytes") / 1e6,
        "pass_ratio": 1.0 - failed / attempted if attempted else 0.0,
    }


def _print_split(workload: str, values: Dict[str, float]) -> None:
    wall = values["trace.wall_s"]
    print(f"layer split of the traced run ({wall:.3f} s):")
    for layer in layers.LAYERS + ("untraced",):
        seconds = values[f"layer.{layer}.self_s"]
        print(f"  {layer:<12} {seconds:8.3f} s  {seconds / wall:6.1%}")
    group = " + ".join(layers.DESIGN_SPLIT[workload])
    holds = "holds" if values["trace.design_split"] else "does not hold"
    print(f"design split ({group} largest): {holds}")
    print(f"tracing overhead: {values['trace.overhead_ratio']:.3f}x")


def report(workload: str, measured: Dict, trace: bool) -> Dict:
    runs = list(measured["runs"])
    traced = measured["traced"]
    if traced is not None:
        runs.append(traced)
    attempted = sum(len(run["reports"]) for run in runs)
    failures = [
        f"{name}: {reason}"
        for run in runs for name, reason in sorted(run["failures"].items())
    ]
    if traced is not None and traced.get("leftovers"):
        failures.append(f"wrappers left installed: {traced['leftovers']}")
    for line in failures:
        print(f"FAILED {line}")
    print(f"{workload}: {len(measured['runs'])} measured run(s)")
    if trace:
        values = layers.per_layer_metrics(
            workload,
            traced["spans"],
            traced["manifests"],
            traced["wall_s"],
            harness.median_of([run["wall_s"] for run in measured["runs"]]),
        )
        _print_split(workload, values)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
    else:
        values = end_to_end(measured)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("error: run from the root of a repro checkout "
              "(src/repro/cli.py not found)", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, time.monotonic() + DEADLINE_S)
    try:
        measured = measure(bench, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        harness.remove_work_dir(bench.work)
    result = report(args.workload, measured, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
