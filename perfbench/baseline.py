"""Record the benchmark's baseline for the checked-out commit.

    python3 perfbench/baseline.py [--runs 10]

Run from the root of a git checkout. For every workload it makes
``--runs`` untraced runs, each with another seed, and one traced run,
with the run length ``BENCHMARK.json`` fixes. It writes
``baseline.json`` in this directory: per end-to-end metric the median,
quartiles and spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives them), every run's value,
and the traced per-layer table. It prints the spreads next to each
metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def bench_once(spec, workload, seed, trace):
    proc = subprocess.run(
        spec["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect: {result}")
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE, text=True,
        check=True,
    ).stdout.strip()
    out = {"commit": commit, "run_seconds": spec["run_seconds"],
           "runs": args.runs, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [bench_once(spec, workload, seed, 0)
                   for seed in range(1, args.runs + 1)]
        traced = bench_once(spec, workload, args.runs + 1, 1)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            end_to_end[name] = summarize(
                [r["metrics"][name]["value"] for r in results])
            print(f"{workload:<12} {name:<12} median "
                  f"{end_to_end[name]['median']:10.4f} spread "
                  f"{end_to_end[name]['spread']:.4f} "
                  f"(bound {metric['bound']})")
        out["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"]
                          for name, m in traced["metrics"].items()},
        }
    path = HERE / "baseline.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
