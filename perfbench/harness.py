"""What the benchmark runs and how it judges the output.

Shared by the orchestrator (``run.py``) and the per-run process
(``child.py``): the workload definitions, the report-masking rule the
correctness check applies, and the on-disk size helpers.
"""

from __future__ import annotations

import re
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Artifacts whose work is the fixed-step DCQCN tier (``cc``).
FLUID_ARTIFACTS = ("crossfidelity", "sweep")

WORKLOADS = ("cold-phase", "cold-fluid", "warm-replay")

#: Directory of the reports captured at the seed commit.
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def artifacts_for(workload: str, registry: Sequence[str]) -> List[str]:
    """The artifacts one run of ``workload`` executes, in run order.

    ``fill`` is the warm workload's untimed cache fill: a cold run of
    every artifact.
    """
    names = sorted(registry)
    if workload == "cold-phase":
        return [name for name in names if name not in FLUID_ARTIFACTS]
    if workload == "cold-fluid":
        return [name for name in names if name in FLUID_ARTIFACTS]
    if workload in ("warm-replay", "fill"):
        return names
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Report masking
# ---------------------------------------------------------------------------

_SOLVER_TABLE = "Solver comparison on the rotation search"
_WALL_MS = re.compile(r"\d+(?:\.\d+)? ms")
_TELEMETRY = re.compile(r"^(telemetry: \d+ events recorded) -> .*$")
_RUNNER = re.compile(r"^(runner: \d+ spec\(s\)): .*$")
_LATENCY = re.compile(
    r"^(placement latency: )p50 [\d.]+ ms, p99 [\d.]+ ms( over \d+ .*)$"
)


def _mask_time_column(line: str) -> str:
    """Mask the last (wall-clock) column of one solver-table line."""
    if line and set(line) <= {"-", "+"}:
        head, _, _ = line.rpartition("+")
        return f"{head}+<time>"
    head, sep, last = line.rpartition("|")
    if not sep:
        return line
    cell = last.strip()
    if _WALL_MS.fullmatch(cell):
        cell = "<ms>"
    return f"{head}| {cell}"


def mask_report(text: str) -> str:
    """``text`` with only the parts that legitimately vary masked.

    Three things vary between runs of identical code: the ablations
    solver-comparison ``time`` column (wall-clock milliseconds, and the
    column's padding, which follows the widest cell), the online
    driver's wall-clock placement-latency percentiles, and the CLI's
    trailer lines, which carry a timestamped run directory and the
    executed/cache-hit split. The sample, event and spec counts on
    those lines do not vary and stay.
    """
    out = []
    in_solver_table = False
    for line in text.splitlines():
        if line.startswith(_SOLVER_TABLE):
            in_solver_table = True
            out.append(line)
            continue
        if in_solver_table and not line.strip():
            in_solver_table = False
        if in_solver_table:
            line = _mask_time_column(line)
        line = _TELEMETRY.sub(r"\1 -> <run dir>", line)
        line = _RUNNER.sub(r"\1: <executed/hits>", line)
        line = _LATENCY.sub(r"\1p50 <ms>, p99 <ms>\2", line)
        out.append(line)
    return "\n".join(out) + "\n"


def load_reference(artifact: str) -> Optional[str]:
    path = REFERENCE_DIR / f"{artifact}.txt"
    return path.read_text(encoding="utf-8") if path.is_file() else None


def run_dir_of(report: str) -> Optional[str]:
    """The run directory a report's telemetry trailer names."""
    for line in reversed(report.splitlines()):
        if line.startswith("telemetry: ") and " -> " in line:
            return line.split(" -> ", 1)[1].strip()
    return None


# ---------------------------------------------------------------------------
# Sizes
# ---------------------------------------------------------------------------

def dir_bytes(paths) -> int:
    return sum(path.stat().st_size for path in paths if path.is_file())


def cache_bytes(runs_dir: Path) -> int:
    """Bytes in the result cache under ``runs_dir``."""
    return dir_bytes((runs_dir / "cache").glob("*.json"))


def trace_bytes(runs_dir: Path) -> int:
    """Bytes of recorded run directories (trace plus manifest)."""
    return dir_bytes(
        path
        for pattern in ("*/trace.jsonl", "*/manifest.json")
        for path in runs_dir.glob(pattern)
        if path.parent.name != "cache"
    )


def remove_work_dir(work: Path) -> None:
    """Delete one invocation's work directory, and its parent if empty."""
    shutil.rmtree(work, ignore_errors=True)
    parent = work.parent
    if parent.is_dir() and not any(parent.iterdir()):
        parent.rmdir()


def median_of(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def check_artifact(
    artifact: str,
    report: str,
    error: Optional[str],
    cold_report: Optional[str] = None,
    executed: Optional[float] = None,
) -> Optional[str]:
    """Why one artifact run failed, or ``None`` when it passed.

    ``cold_report`` and ``executed`` apply to warm runs: the masked
    report must equal the cold one, and no cacheable spec may have
    executed again.
    """
    if error is not None:
        return error.strip().splitlines()[-1] if error.strip() else "error"
    masked = mask_report(report)
    reference = load_reference(artifact)
    if reference is None:
        return "no reference report"
    if masked != reference:
        return "report differs from the reference"
    if cold_report is not None and masked != mask_report(cold_report):
        return "warm report differs from the cold report"
    if executed:
        return f"{executed:.0f} spec(s) re-executed on a warm cache"
    return None


def failures(
    artifacts: Sequence[str],
    result: Dict,
    cold_reports: Optional[Dict[str, str]] = None,
) -> Dict[str, str]:
    """Per-artifact failure reasons for one child run's ``result``."""
    found = {}
    for artifact in artifacts:
        report = result.get("reports", {}).get(artifact, "")
        error = result.get("errors", {}).get(artifact)
        if artifact not in result.get("reports", {}) and error is None:
            error = "not run"
        executed = None
        cold = None
        if cold_reports is not None:
            cold = cold_reports.get(artifact, "")
            counters = (
                result.get("manifests", {}).get(artifact, {})
                .get("counters", {})
            )
            executed = counters.get("runner.executed", 0.0)
        reason = check_artifact(artifact, report, error, cold, executed)
        if reason is not None:
            found[artifact] = reason
    return found
