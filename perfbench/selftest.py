"""Self-test of the benchmark (about a minute and a half on a 2-core VM).

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, emits exactly the end-to-end and
   per-layer metrics that BENCHMARK.json names, each with its unit and a
   finite value, and reports a correct run; BENCHMARK.json gives each
   workload the reason recorded in workloads.WHY.
2. A catalogue item whose output is deliberately corrupted counts as a
   failed item, charged to the check and not to a known defect, both in a
   checked pass and as a timed repeat of a checked pool.

Exits 0 when both hold.
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_metrics(spec: dict) -> list[str]:
    import workloads as wl

    problems = [f"why of {w['name']} differs from workloads.WHY" for w in spec["workloads"]
                if w["why"] != wl.WHY.get(w["name"])]
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
                problems.append(f"{where}: bad result keys or incorrect run: {sorted(result)}")
            got = result["metrics"]
            names = [m["name"] for m in wanted]
            if sorted(got) != sorted(names):
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(names) - set(got))}, extra {sorted(set(got) - set(names))}")
            for m in wanted:
                entry = got.get(m["name"], {})
                value = entry.get("value")
                if entry.get("unit") != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {m['name']} = {entry}, expected a finite value in {m['unit']}")
            print(f"ran {where}", flush=True)
    return problems


def check_corrupted_item() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import run
    import workloads as wl
    from quintosc import quintic

    clean = run.run_items("catalogue", 1, wl.Runner(False), wl, count=8)
    solve = quintic.solve
    calls = []

    def corrupted_solve(c):
        sol = solve(c)
        calls.append(c)
        return dataclasses.replace(sol, period=sol.period * (1.0 + 1e-6)) if len(calls) == 3 else sol

    quintic.solve = corrupted_solve
    try:
        dirty = run.run_items("catalogue", 1, wl.Runner(False), wl, count=8)
        calls.clear()
        repeats = run.run_items("catalogue", 1, wl.Runner(False), wl, count=8, pool=clean)
    finally:
        quintic.solve = solve
    extra = sorted(set((i, f) for i, f, _ in dirty.failures) - set((i, f) for i, f, _ in clean.failures))
    if len(extra) != 1 or extra[0][0] != 2 or extra[0][1][0] != "check" or wl.is_known(extra[0][1]):
        return [f"corrupting the third solve should fail item 2 in its check, got {extra}"]
    flipped = [(i, f[:2]) for i, f, _ in repeats.failures]
    if flipped != [(2, ("check", "Nondeterministic"))] or repeats.ok[2]:
        return [f"corrupting the third solve of a timed repeat should fail pool item 2, got {flipped}"]
    before, after = len(clean.failures) / len(clean), len(dirty.failures) / len(dirty)
    print(f"ok corrupted item counted: fail ratio {before:.3f} -> {after:.3f}")
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_corrupted_item() + check_metrics(spec)
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
