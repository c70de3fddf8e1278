"""Set-up probe: a fresh interpreter imports quintosc and runs one workload's first item.

    python3 perfbench/first_item.py <catalogue|trajectory> <seed>

run.py times this process from spawn to exit.  It exits 0 when the item
completes or fails in one of the known ways, 1 otherwise.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    make, do_item, _, _ = wl.WORKLOADS[workload]
    run = wl.Runner(traced=False)
    try:
        do_item(run, make(seed, 0))
    except Exception as exc:  # report, and fail only on an unknown failure
        print(f"first item failed in {run.current}: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(0 if wl.is_known((run.current, type(exc).__name__)) else 1)
