"""One measured run of a workload, in a fresh interpreter.

    python3 perfbench/child.py MODE WORKLOAD RUNS_DIR OUT_JSON

MODE is ``setup`` (time the set-up only), ``run`` (untraced) or
``trace`` (layer entry points wrapped, spans recorded). The artifacts
run through ``repro.cli.main(["run", <artifact>, ...])`` with the CLI's
defaults: recording on, result cache on, ``--jobs 1``, the drivers' own
batching requests. Results go to OUT_JSON; stdout stays quiet.

Only ``sys`` and ``time`` load before the set-up clock starts,
so ``setup_s`` covers the whole ``import repro.cli`` (argparse, numpy,
networkx and the experiment modules) plus reading the registry.
"""

import sys
import time

T0 = time.perf_counter()
from repro import cli  # noqa: E402

REGISTRY = sorted(cli.EXPERIMENTS)
SETUP_S = time.perf_counter() - T0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402


def _run_artifacts(workload, runs_dir, tracer):
    reports, errors = {}, {}
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for name in harness.artifacts_for(workload, REGISTRY):
        if tracer is not None:
            tracer.run_id = f"{workload}/{name}"
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(["run", name, "--runs-dir", runs_dir])
            if code != 0:
                errors[name] = f"exit code {code}"
        except (Exception, SystemExit):
            # A failing artifact is reported, and the run goes on.
            errors[name] = traceback.format_exc()
        reports[name] = buffer.getvalue()
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    return reports, errors, wall_s, cpu_s


def _manifests(reports):
    found = {}
    for name, report in reports.items():
        run_dir = harness.run_dir_of(report)
        if run_dir is None:
            continue
        data = json.loads(
            (Path(run_dir) / "manifest.json").read_text(encoding="utf-8")
        )
        found[name] = {
            key: data.get(key, {})
            for key in ("counters", "event_kinds", "events")
        }
    return found


def main(argv):
    mode, workload, runs_dir, out = argv
    result = {"setup_s": SETUP_S}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer, install_layers

            tracer = Tracer()
            install_layers(tracer, cli.EXPERIMENTS)
        reports, errors, wall_s, cpu_s = _run_artifacts(
            workload, runs_dir, tracer
        )
        runs = Path(runs_dir)
        result.update(
            wall_s=wall_s,
            cpu_s=cpu_s,
            # ru_maxrss is in KiB on Linux.
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0,
            cache_bytes=harness.cache_bytes(runs),
            trace_bytes=harness.trace_bytes(runs),
            reports=reports,
            errors=errors,
            manifests=_manifests(reports),
        )
        if tracer is not None:
            result["leftovers"] = tracer.uninstall()
            result["spans"] = tracer.spans
    Path(out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
