"""Re-capture the reference reports the correctness check compares to.

    python3 perfbench/capture_reference.py

Run from the root of a checkout of the commit whose output is the
reference. It runs every artifact cold, exactly as a benchmark run
does, and writes each masked report to ``reference/<artifact>.txt``.
"""

import sys
import time
from pathlib import Path

from run import DEADLINE_S, Bench, ChildFailed
import harness


def main() -> int:
    root = Path.cwd()
    bench = Bench(root, "fill", time.monotonic() + DEADLINE_S)
    try:
        result = bench.child("run", "fill")
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        harness.remove_work_dir(bench.work)
    if result["errors"]:
        for name, error in sorted(result["errors"].items()):
            print(f"error: {name}: {error}", file=sys.stderr)
        return 1
    harness.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, text in sorted(result["reports"].items()):
        path = harness.REFERENCE_DIR / f"{name}.txt"
        path.write_text(harness.mask_report(text), encoding="utf-8")
        print(f"wrote {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
