"""Alternating parent/change runs of perfbench, summarised into one BENCH_<n>.json.

    python3 tools/bench_pairs.py --base REV --head REV --seed N --out BENCH_<n>.json [--workdir DIR]

Both revisions are exported with ``git archive`` into ``--workdir`` (default: a
fresh temporary directory), so each side runs its own committed ``perfbench/``
and ``src/``.  For each workload the tool runs ``perfbench/run.py --trace 0``
for the parent's ``BENCHMARK.json`` ``run_seconds`` in PAIRS pairs, alternating
which side goes first, then TRACED_RUNS ``--workload all --trace 1`` runs per
side, alternating the same way, for the per-layer metrics.  The JSON holds every
run's value, ``correct``, ``attempted`` and ``failed``, each side's median and
quartiles, the runs the change won (ties count for neither side) and the
machine facts perfbench reports.  End-to-end times are scaled to perfbench's
reference speed while the per-layer trace values are raw, so each metric that
perfbench also prints unscaled (its ``raw: {...}`` line) carries those raw
runs and quartiles under ``raw``, to set against the trace.  Each summary
also keeps, under ``shares``, the input shares (perfbench's ``shares: {...}``
line) of each side's first run, keyed by workload, so that a claim resting on
a subset of the inputs can cite that subset's share.  A run that
perfbench marks incorrect stops the tool with exit status 1 and no JSON
written.  Runs are sequential: one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("trajectory", "catalogue", "cli")
PAIRS = 10  # alternating pairs per workload: the fewest a 9-of-10 gate can be read from
TRACED_RUNS = 3  # traced runs per side: a median, not one run, attributes a per-layer change
SIDES = ("parent", "change")
RAW = re.compile(r"raw: (\{.*\})\)$", re.MULTILINE)
HEADER = re.compile(r"^perfbench (\S+) seed=", re.MULTILINE)  # one per workload, "all" runs print each
SHARES = re.compile(r"^shares: (\{.*\})$", re.MULTILINE)


def export(rev: str, dest: Path) -> str:
    """Check out the committed tree of rev under dest and return its full SHA."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def parse(stdout: str) -> dict:
    """perfbench's last stdout line, plus its printed unscaled values as "raw" and its printed input shares,
    keyed by workload, as "shares"."""
    result = json.loads(stdout.splitlines()[-1])
    raw = RAW.search(stdout)
    if raw:
        result["raw"] = json.loads(raw.group(1))
    result["shares"] = dict(zip(HEADER.findall(stdout), map(json.loads, SHARES.findall(stdout))))
    return result


def perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run, parsed.  Exits if incorrect."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    result = parse(subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout)
    if not result["correct"]:
        sys.exit(f"{tree.name} {workload} --trace {trace}: perfbench reports correct=false: {json.dumps(result)}")
    return result


def alternate(trees: dict, workload: str, seed: int, seconds: float, trace: int, count: int) -> dict:
    """count runs per side; round i runs the parent first for even i, the change first for odd i."""
    runs = {side: [] for side in SIDES}
    for i in range(count):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(perfbench(trees[side], workload, seed, seconds, trace))
            print(f"{workload} --trace {trace} round {i} {side}: {json.dumps(runs[side][-1]['metrics'])}",
                  flush=True)
    return runs


def outcome(runs: list[dict]) -> dict:
    """correct, attempted and failed of each run, in run order."""
    return {key: [r[key] for r in runs] for key in ("correct", "attempted", "failed")}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: dict, better: dict) -> dict:
    """Per metric: each side's runs and quartiles, the runs the change won, and the raw runs if printed;
    then each side's outcomes and the input shares of its first run."""
    out = {}
    for name in runs["parent"][0]["metrics"]:
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        # A traced "all" run prefixes each metric with its workload.
        direction = better.get(name) or better.get(name.partition(".")[2], "lower")
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {"unit": runs["parent"][0]["metrics"][name]["unit"], "better": direction,
                     **{side: {**quartiles(v), "runs": v} for side, v in sides.items()},
                     "change_wins": f"{wins} of {len(sides['parent'])}"}
        if name in runs["parent"][0].get("raw", {}):
            out[name]["raw"] = {side: {**quartiles(v), "runs": v} for side, v in
                                ((side, [r["raw"][name] for r in runs[side]]) for side in SIDES)}
    out["runs"] = {side: outcome(runs[side]) for side in SIDES}
    out["shares"] = {side: runs[side][0].get("shares", {}) for side in SIDES}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    work = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    trees = {side: work / side for side in SIDES}
    shas = {side: export(rev, trees[side]) for side, rev in zip(SIDES, (args.base, args.head))}
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]

    workloads = {workload: summarise(alternate(trees, workload, args.seed, seconds, 0, PAIRS), better)
                 for workload in WORKLOADS}
    trace = summarise(alternate(trees, "all", args.seed, seconds, 1, TRACED_RUNS), better)
    report = json.loads(next((trees["change"] / "perfbench" / "out").glob("*.json")).read_text())
    summary = {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {seconds:g}",
        "seed": args.seed, "seconds": seconds,
        "parent_sha": shas["parent"], "change_sha": shas["change"],
        "order": "round i runs the parent first for even i, the change first for odd i",
        "machine": report["machine"],
        "workloads": workloads,
        "trace": trace,
    }
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
