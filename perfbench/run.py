"""quintosc benchmark: three seeded closed-loop workloads, one caller, one process.

    python3 perfbench/run.py --workload {catalogue,trajectory,cli,all} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it builds nothing and imports the
package from ``src``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it print every metric by name with its unit and sample count,
the failures by layer and error class, the measured input shares and the
machine facts.  The full report (and, for traced runs, every span) is
written under ``perfbench/out``.

``--trace 0`` first runs a fixed pool of items (items 0 to POOL - 1 of the
seed), each checked; this pass is also the warm-up.  The timed loop then
runs passes over the same pool for ``--seconds`` of wall time and compares
each output with the pool pass's output for the item.  ``attempted`` is the
pool size and ``failed`` the pool items that failed in any pass, so both
depend on the seed alone, not on how many passes the host's speed allows.
quintosc keeps no cache between calls, so a repeated item costs what its
first timed run cost.  The run reports the end-to-end metrics of the timed loop, with
every time expressed at a reference speed measured in the same run (see
"Speed references"):

  setup_s        median wall time of a fresh interpreter that imports
                 quintosc and completes the workload's first item
  items_per_s    items that passed their check per second of timed item time
  item_ms.p50    median latency of the items that passed
  peak_rss_mb    peak resident memory of the workload's process (cli: of its
                 largest child)

It also prints ``item_ms.p90`` where a run holds at least 100 passed items
and ``fail_ratio`` (failed pool items over pool items); BENCHMARK.json
leaves both out, because a cli run holds 15 to 20 timed items and the fail
ratio of cli is 0.

``--trace 1`` runs the first N items twice, untraced then traced, where N
follows from ``--seconds``, and reports the per-layer metrics from spans
recorded around each public call the benchmark makes.  Layers the workload
does not call are timed by a short traced probe of the workload that calls
them, on the same seed.  Counts, ``attempted`` and ``failed`` come from the
workload's own traced items only.

Failed items count in ``failed``; a timed repeat whose output differs from
the item's pool pass is a failure too, and not a known one.  ``correct`` is
false when an item fails in any way other than the known defects listed in
workloads.KNOWN_FAILURES.
"""

from __future__ import annotations

import os

# Pin every BLAS and OpenMP pool to one thread before numpy is imported,
# here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("catalogue", "trajectory", "cli")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 7
IMPORT_REPEATS = 3
WARMUP_ITEMS = 10
# Items in the checked pool of an untraced run: about 3 s of items and
# checks on a 2-core Xeon VM for the in-process workloads, one command
# cycle for cli.
POOL = {"catalogue": 1000, "trajectory": 500, "cli": 5}
P90_MIN_ITEMS = 100  # ten samples beyond the 90th percentile
# Items per traced pass per second of --seconds, so that the untraced and
# the traced pass over the same items together take about --seconds on a
# 2-core Xeon VM; counts then repeat exactly for a given seed and --seconds.
TRACED_RATE = {"catalogue": 100, "trajectory": 60, "cli": 0.25}
PROBE_ITEMS = {"catalogue": 40, "trajectory": 20, "cli": 5}

# Speed references.  The host this benchmark was tuned on runs up to 2x
# slower for seconds at a time when its neighbours are busy.  Every timed
# piece is therefore scaled by nominal / (mean reference time of the samples
# taken within REFERENCE_WINDOW_S of it), so it reads as a time at the speed
# where the reference takes its nominal value (about the quiet speed of a
# 2-core Xeon VM).  In-process items are scaled by a fixed kernel of
# interpreter-bound scalar math and small and large numpy calls, run between
# them; fresh-interpreter pieces (set-up, cli items) by a fresh interpreter
# that imports numpy, run between them, which tracks process start-up
# better.  Neither reference depends on quintosc.  The report keeps the raw
# times too.
KERNEL_S = 1.3e-3
CHILD_S = 0.15
REFERENCE_WINDOW_S = 5.0
KERNEL_EVERY_S = 0.01  # wall time between kernel samples in an in-process loop


def reference_kernel() -> float:
    import numpy as np

    small = np.linspace(0.0, 1.0, 16)
    large = np.linspace(0.0, 1.0, 10_000)
    start = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        acc += math.sqrt(acc * 1e-9 + i)
    for _ in range(150):
        acc += float(np.max(np.sqrt(1.0 + small * small)))
    for _ in range(4):
        acc += float(np.arcsin(np.clip(0.9 * np.sin(3.0 * large), -1.0, 1.0)).sum())
    return time.perf_counter() - start


def reference_child(wl) -> float:
    elapsed, _ = child([sys.executable, "-c", "import numpy"], wl)
    return elapsed


class Speed:
    """Samples of one reference, (start time, duration), taken between the timed pieces of a run."""

    def __init__(self, probe, nominal: float):
        self.probe = probe
        self.nominal = nominal
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append((start, self.probe()))

    def scale(self, pieces) -> list[float]:
        """Each timed piece, (start, seconds), as seconds at the reference speed."""
        import numpy as np

        starts = np.array([t for t, _ in self.samples])
        sums = np.concatenate(([0.0], np.cumsum([d for _, d in self.samples])))
        scaled = []
        for start, seconds in pieces:
            lo = np.searchsorted(starts, start - REFERENCE_WINDOW_S)
            hi = np.searchsorted(starts, start + seconds + REFERENCE_WINDOW_S, side="right")
            lo, hi = (lo, hi) if hi > lo else (0, len(starts))
            scaled.append(seconds * self.nominal * (hi - lo) / (sums[hi] - sums[lo]))
        return scaled


def speed_for(workload: str, wl) -> Speed:
    if workload == "cli":
        return Speed(lambda: reference_child(wl), CHILD_S)
    return Speed(reference_kernel, KERNEL_S)


class Loop:
    """What a loop keeps of its items: times, failures and counted properties.

    Times sit in arrays and properties in a counter, so the memory a run
    holds grows by a few bytes per item and peak_rss_mb does not follow the
    item rate.
    """

    def __init__(self):
        self.t0, self.s, self.scaled, self.m = array("d"), array("d"), array("d"), array("d")
        self.ok = array("b")
        self.failures: list[tuple[int, tuple, str]] = []  # (item, failure, tag)
        self.counts: Counter = Counter()  # (property, value) -> items
        self.outcomes: list[tuple[object, tuple | None]] = []  # per item of a checked loop

    def add(self, t0: float, seconds: float, failure: tuple | None, facts, outcome=None) -> None:
        pairs, m = facts
        if failure:
            self.failures.append((len(self.s), failure, pairs[0][1]))
        self.t0.append(t0)
        self.s.append(seconds)
        self.ok.append(failure is None)
        self.counts.update(pairs)
        if m is not None:
            self.m.append(m)
        self.outcomes.append((outcome, failure))

    def add_repeat(self, t0: float, seconds: float, ok: bool) -> None:
        self.t0.append(t0)
        self.s.append(seconds)
        self.ok.append(ok)

    def __len__(self) -> int:
        return len(self.s)

    def rate(self, key: str = "s") -> float:
        """Items that passed per second of timed item time."""
        return sum(self.ok) / sum(getattr(self, key))

    def latency_ms(self, key: str = "s") -> list[float]:
        return sorted(1e3 * x for x, ok in zip(getattr(self, key), self.ok) if ok)

    def shares(self) -> dict:
        """Measured share of each input and output property a later change may target."""
        totals: Counter = Counter()
        for (prop, _), n in self.counts.items():
            totals[prop] += n
        out: dict = {}
        for (prop, value), n in sorted(self.counts.items(), key=str):
            out.setdefault(prop, {})[str(value)] = round(n / totals[prop], 4)
        if self.m:
            import numpy

            qs = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
            out["m quantiles"] = {f"q{int(100 * q)}": float(v) for q, v in zip(qs, numpy.quantile(self.m, qs))}
        return out


END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_ms.p50": "ms", "peak_rss_mb": "MB"}

# Per-layer timings: metric name -> (span name, how the spans are reduced).
SPAN_METRICS = {
    "elliptic.complete_K.us": ("elliptic.complete_K", "us"),
    "elliptic.complete_E.us": ("elliptic.complete_E", "us"),
    "elliptic.carlson_rf.us": ("elliptic.carlson_rf", "us"),
    "elliptic.carlson_rj.us": ("elliptic.carlson_rj", "us"),
    "elliptic.jacobi_sn_cn_dn.ns_per_point": ("elliptic.jacobi_sn_cn_dn", "ns_per_point"),
    "elliptic.jacobi_sn_cn_dn.scalar_us": ("elliptic.jacobi_sn_cn_dn.scalar", "us"),
    "chebyshev.model_coefficients.closed_form.us": ("chebyshev.model_coefficients.closed_form", "us"),
    "chebyshev.model_coefficients.series.us": ("chebyshev.model_coefficients.series", "us"),
    "chebyshev.model_coefficients.quadrature.us": ("chebyshev.model_coefficients.quadrature", "us"),
    "quintic.solve.us": ("quintic.solve", "us"),
    "quintic.evaluate.ns_per_point": ("quintic.evaluate", "ns_per_point"),
    "quintic.derivative.ns_per_point": ("quintic.derivative", "ns_per_point"),
    "quintic.evaluate.scalar_us": ("quintic.evaluate.scalar", "us"),
    "quintic.derivative.scalar_us": ("quintic.derivative.scalar", "us"),
    "models.validate_params.us": ("models.validate_params", "us"),
    "models.exact_period.closed_form_ke.us": ("models.exact_period.closed_form_ke", "us"),
    "models.exact_period.closed_form_pi.us": ("models.exact_period.closed_form_pi", "us"),
    "models.exact_period.quadrature.us": ("models.exact_period.quadrature", "us"),
    "models.restoring_force.ns_per_point": ("models.restoring_force", "ns_per_point"),
    "validation.residual_sup_norm.us": ("validation.residual_sup_norm", "us"),
    **{f"cli.{cmd}.s": (f"cli.{cmd}", "s") for cmd in ("coeffs", "period", "solve", "table", "sweep")},
}
# Self times: (outer span, inner replay span on the same arguments, reduction).
SELF_METRICS = {
    "quintic.evaluate.self_ns_per_point": ("quintic.evaluate", "elliptic.jacobi_sn_cn_dn", "ns_per_point"),
    "validation.residual_sup_norm.self_us": ("validation.residual_sup_norm",
                                             "validation.residual_sup_norm.evaluate", "us"),
}
UNITS = {"us": "us", "ns_per_point": "ns", "s": "s"}
# The workload whose items call each span, for the probes.
SPAN_OWNER = {"elliptic.jacobi_sn_cn_dn": "trajectory", "quintic.evaluate": "trajectory",
              "quintic.derivative": "trajectory"}


def span_owner(span: str) -> str:
    if span.startswith("cli."):
        return "cli"
    return SPAN_OWNER.get(span, "catalogue")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all of them one after another, each in its own process")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu,
            "threads": {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                        "MKL_NUM_THREADS")}}


def child(cmd: list[str], wl) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=wl.cli_env(), capture_output=True, text=True, check=False)
    return time.perf_counter() - start, proc


def warm_bytecode(wl) -> None:
    """Import the package once so every timed interpreter loads cached bytecode."""
    _, proc = child([sys.executable, "-c", "import quintosc.cli"], wl)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: cannot import quintosc from src: {proc.stderr.strip()[-300:]}")


def measure_setup(workload: str, seed: int, wl, speed: Speed) -> tuple[list[float], list[float]]:
    """Raw and scaled wall times of fresh interpreters completing the first item."""
    if workload == "cli":
        cmd = [sys.executable, "-m", "quintosc.cli", *wl.cli_input(seed, 0)["args"]]
    else:
        cmd = [sys.executable, str(HERE / "first_item.py"), workload, str(seed)]
    runs = []
    speed.sample()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        elapsed, proc = child(cmd, wl)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up item failed: {proc.stderr.strip()[-300:]}")
        runs.append((start, elapsed))
        speed.sample()
    return [s for _, s in runs], speed.scale(runs)


def run_items(workload: str, seed: int, run, wl, *, seconds=None, count=None, replay=False,
              speed: Speed | None = None, pool: Loop | None = None) -> Loop:
    """Closed loop from item 0, for ``count`` items or ``seconds`` of wall time.

    Without ``pool``, every item is new and checked.  With ``pool``, the
    loop makes passes over it: item ``i`` repeats pool item
    ``i % len(pool)``, its output is compared with the pool's, and it fails
    where the pool item failed.  A repeat whose outcome differs is recorded as a failure of
    that pool item.  A timed cli loop always ends on a whole command
    cycle, so every run times the same mix.  With ``speed``, reference
    samples are interleaved with the items and each item also gets its
    scaled time.
    """
    make, _, _, do_replay = wl.WORKLOADS[workload]
    cycle = len(wl.CLI_MIX) if workload == "cli" else 1
    if speed:
        speed.sample()
    last_sample = time.perf_counter()
    deadline = last_sample + (seconds or 0.0)
    loop = Loop()
    i = 0
    while (i < count) if count is not None else (time.perf_counter() < deadline or i % cycle):
        k = i % len(pool) if pool else i
        inp = make(seed, k)
        start = time.perf_counter()
        elapsed, out, failure, outcome = wl.run_one(workload, run, k, inp, checked=pool is None)
        if replay and do_replay and out is not None:
            do_replay(run, inp, out)
        if pool is None:
            loop.add(start, elapsed, failure, wl.facts(workload, inp, out), outcome)
        else:
            first, first_failure = pool.outcomes[k]
            if outcome != first:
                loop.failures.append((k, ("check", "Nondeterministic",
                                          f"repeat gave {outcome}, the pool pass gave {first}"), inp["tag"]))
            loop.add_repeat(start, elapsed, outcome == first and first_failure is None)
        i += 1
        if speed and (workload == "cli" or time.perf_counter() - last_sample >= KERNEL_EVERY_S):
            speed.sample()
            last_sample = time.perf_counter()
    if speed:
        loop.scaled = array("d", speed.scale(zip(loop.t0, loop.s)))
    return loop


def failure_table(loop: Loop, wl) -> dict:
    table: Counter = Counter()
    for _, failure, tag in loop.failures:
        layer, cls, _ = failure
        table[f"{layer} {cls} [{tag}]" + ("" if wl.is_known(failure) else " UNEXPECTED")] += 1
    return dict(sorted(table.items()))


def end_to_end(workload: str, seed: int, seconds: float, wl) -> tuple[dict, dict, Loop]:
    """The end-to-end metrics, what else the run prints, and the checked pool with every failure."""
    setup_speed, loop_speed = Speed(lambda: reference_child(wl), CHILD_S), speed_for(workload, wl)
    setup, setup_scaled = measure_setup(workload, seed, wl, setup_speed)
    pool = run_items(workload, seed, wl.Runner(False), wl, count=POOL[workload])
    loop = run_items(workload, seed, wl.Runner(False), wl, seconds=seconds, speed=loop_speed, pool=pool)
    failed_items = {k for k, _, _ in pool.failures}
    for k, failure, tag in loop.failures:
        if k not in failed_items:
            failed_items.add(k)
            pool.failures.append((k, failure, tag))
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    lat, raw_lat = loop.latency_ms("scaled"), loop.latency_ms()
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "items_per_s": loop.rate("scaled"),
        "item_ms.p50": statistics.median(lat) if lat else float("nan"),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    extra = {
        "samples": {"setup_s": len(setup), "items_per_s": len(loop), "item_ms.p50": len(lat)},
        "timed_items": len(loop), "timed_passed": len(lat), "pool_items": len(pool),
        "raw": {"setup_s": statistics.median(setup), "items_per_s": loop.rate(),
                "item_ms.p50": statistics.median(raw_lat) if raw_lat else float("nan")},
        "reference_samples": {"setup": len(setup_speed.samples), "loop": len(loop_speed.samples)},
        "mean_reference_s": {"setup": statistics.fmean(d for _, d in setup_speed.samples),
                             "loop": statistics.fmean(d for _, d in loop_speed.samples)},
        "item_ms.p90": (statistics.quantiles(lat, n=10)[-1] if len(lat) >= P90_MIN_ITEMS else
                        f"not reported: {len(lat)} passed items, fewer than {P90_MIN_ITEMS}"),
        "fail_ratio": len(pool.failures) / len(pool),
    }
    return metrics, extra, pool


def scipy_import_seconds(importtime: str) -> float:
    """Cumulative -X importtime of the outermost scipy modules, in seconds.

    The listing is post-order (a module after the modules it imports) and
    indented two spaces per level, so read it backwards, parents first.
    """
    total_us = 0
    stack: list[tuple[int, bool]] = []
    for line in reversed(importtime.splitlines()):
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2]
        depth = len(raw) - len(raw.lstrip())
        name = raw.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        under_scipy = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not under_scipy:
            total_us += int(parts[1])
        stack.append((depth, under_scipy or is_scipy))
    return total_us / 1e6


def import_metrics(wl) -> dict:
    code = "import time; t = time.perf_counter(); import quintosc; print(time.perf_counter() - t)"
    totals, scipy_parts = [], []
    for _ in range(IMPORT_REPEATS):
        _, proc = child([sys.executable, "-X", "importtime", "-c", code], wl)
        totals.append(float(proc.stdout.split()[-1]))
        scipy_parts.append(scipy_import_seconds(proc.stderr))
    return {"quintosc.import.s": statistics.median(totals), "quintosc.import.scipy_s": statistics.median(scipy_parts)}


def inproc_cli(seed: int, wl) -> tuple[dict, list[tuple]]:
    """Each cli command of the mix once, in this process, through click's CliRunner."""
    from click.testing import CliRunner

    from quintosc import cli

    runner = CliRunner()
    metrics, failures = {}, []
    for i in range(len(wl.CLI_MIX)):
        inp = wl.cli_input(seed, i)
        start = time.perf_counter()
        result = runner.invoke(cli.main, inp["args"])
        metrics[f"cli.{inp['command']}.inproc_s"] = time.perf_counter() - start
        if result.exit_code != 0:
            failures.append((f"cli.{inp['command']}.inproc", f"exit {result.exit_code}", result.output[-200:]))
    return metrics, failures


def span_values(spans: list[tuple], name: str, how: str) -> list[float]:
    if how == "ns_per_point":
        return [1e9 * (s[2] - s[1]) / s[5] for s in spans if s and s[0] == name]
    scale = 1e6 if how == "us" else 1.0
    return [scale * (s[2] - s[1]) for s in spans if s and s[0] == name]


def self_values(spans: list[tuple], outer: str, inner: str, how: str) -> list[float]:
    """Outer span minus the replayed inner call of the same item."""
    inner_by_item = {(s[4], s[3]): s for s in spans if s and s[0] == inner}
    values = []
    for s in spans:
        if s and s[0] == outer and (s[4], s[3]) in inner_by_item:
            i = inner_by_item[(s[4], s[3])]
            diff = (s[2] - s[1]) - (i[2] - i[1])
            values.append(1e9 * diff / s[5] if how == "ns_per_point" else 1e6 * diff)
    return values


def traced(workload: str, seed: int, seconds: float, wl) -> tuple[dict, dict, Loop, list[tuple]]:
    count = max(1, round(seconds * TRACED_RATE[workload]))
    if workload == "cli":
        count = len(wl.CLI_MIX) * -(-count // len(wl.CLI_MIX))
    else:
        run_items(workload, seed, wl.Runner(False), wl, count=WARMUP_ITEMS)
    plain_speed, traced_speed = speed_for(workload, wl), speed_for(workload, wl)
    plain = run_items(workload, seed, wl.Runner(False), wl, count=count, speed=plain_speed)
    main_run = wl.Runner(True)
    loop = run_items(workload, seed, main_run, wl, count=count, replay=True, speed=traced_speed)
    spans = main_run.spans
    probe_spans = {workload: spans}
    extra_failures = []
    for other in WORKLOADS:
        if other != workload:
            probe = wl.Runner(True)
            probe_loop = run_items(other, seed, probe, wl, count=PROBE_ITEMS[other], replay=True)
            extra_failures += [f for _, f, _ in probe_loop.failures if not wl.is_known(f)]
            probe_spans[other] = probe.spans

    metrics, sources = {}, {}
    for metric, (span, how) in SPAN_METRICS.items():
        source = workload if span_values(spans, span, how) else span_owner(span)
        values = span_values(probe_spans[source], span, how)
        metrics[metric] = statistics.median(values) if values else float("nan")
        sources[metric] = f"{source} ({len(values)} spans)"
    for metric, (outer, inner, how) in SELF_METRICS.items():
        source = workload if self_values(spans, outer, inner, how) else span_owner(outer)
        values = self_values(probe_spans[source], outer, inner, how)
        metrics[metric] = statistics.median(values) if values else float("nan")
        sources[metric] = f"{source} ({len(values)} spans)"
    inproc, inproc_failures = inproc_cli(seed, wl)
    metrics.update(inproc)
    metrics.update(import_metrics(wl))

    counts = loop.counts
    failures = [f for _, f, _ in loop.failures]
    for method in ("closed_form_ke", "closed_form_pi", "quadrature"):
        metrics[f"models.exact_period.{method}.count"] = counts[("exact_period_route", method)]
    metrics["quintic.solve.case_I.count"] = counts[("case", "I")]
    metrics["quintic.solve.case_II.count"] = counts[("case", "II")]
    metrics["quintic.solve.nudged.count"] = counts[("nudged", True)]
    metrics["quintic.fail.ConstructionError.count"] = sum(
        f[0].startswith("quintic.") and f[1] == "ConstructionError" for f in failures)
    metrics["check.fail.count"] = sum(f[0] == "check" for f in failures)
    metrics["unexpected.fail.count"] = sum(not wl.is_known(f) for f in failures)
    metrics["trace.overhead_ratio"] = plain.rate("scaled") / loop.rate("scaled")
    extra = {"sources": sources, "traced_items": count, "probe_failures": extra_failures + inproc_failures}
    return metrics, extra, loop, spans


def metric_unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".count"):
        return "count"
    if name == "trace.overhead_ratio":
        return "ratio"
    if name in SPAN_METRICS:
        return UNITS[SPAN_METRICS[name][1]]
    if name in SELF_METRICS:
        return UNITS[SELF_METRICS[name][2]]
    return "s"  # import and in-process cli wall times


def run_all(args) -> int:
    """Every workload in a fresh process, so peak memory stays per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{name}": entry for name, entry in result["metrics"].items()})
    print(f"correct: {str(correct).lower()} over all workloads")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "quintosc" / "__init__.py").is_file():
        print(f"perfbench: no quintosc package under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    # One CPU for this process and every child it starts, so the reference
    # kernel runs where the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    warm_bytecode(wl)
    workload, seed = args.workload, args.seed
    if args.trace:
        metrics, extra, loop, spans = traced(workload, seed, args.seconds, wl)
    else:
        metrics, extra, loop = end_to_end(workload, seed, args.seconds, wl)
        spans = []
    failed = len(loop.failures)
    unexpected = [f for _, f, _ in loop.failures if not wl.is_known(f)]
    unexpected += extra.get("probe_failures", [])
    report = {
        "workload": workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "why": wl.WHY[workload], "machine": machine_facts(),
        "metrics": {name: {"value": value, "unit": metric_unit(name)} for name, value in metrics.items()},
        **extra,
        "attempted": len(loop), "failed": failed,
        "failures": failure_table(loop, wl), "unexpected_failures": unexpected[:20],
        "shares": loop.shares(),
    }
    correct = not unexpected and all(v["value"] == v["value"] for v in report["metrics"].values())

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    if spans:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for name, start, end, parent, item, points in spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "item": item, "points": points}) + "\n")

    print(f"perfbench {workload} seed={seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {wl.WHY[workload]}")
    print("machine: " + json.dumps(report["machine"]))
    counts = extra.get("samples", {})
    for name, entry in report["metrics"].items():
        n = f" (n={counts[name]})" if name in counts else ""
        print(f"{workload} {name} = {entry['value']:.6g} {entry['unit']}{n}")
    if "fail_ratio" in extra:
        p90 = extra["item_ms.p90"]
        print(f"{workload} item_ms.p90 = {p90:.6g} ms (n={extra['timed_passed']})" if isinstance(p90, float)
              else f"{workload} item_ms.p90: {p90}")
        print(f"{workload} fail_ratio = {extra['fail_ratio']:.6g} ({failed} of {len(loop)} pool items; "
              f"{extra['timed_items']} timed repeats of them)")
        print("  (item_ms.p90 and fail_ratio are printed here only: a cli run holds 15 to 20 items and "
              "cli's fail ratio is 0, so neither fits BENCHMARK.json's per-run, never-zero metrics)")
        print(f"  (times are scaled to the reference speed; raw: {json.dumps(extra['raw'])})")
    for name, source in extra.get("sources", {}).items():
        print(f"  source of {name}: {source}")
    print(f"failures: {failed} of {len(loop)} items")
    for key, n in report["failures"].items():
        print(f"  {key}: {n}")
    for failure in unexpected[:20]:
        print(f"  unexpected: {failure}")
    print("shares: " + json.dumps(report["shares"]))
    print(f"correct: {str(correct).lower()}")
    print(json.dumps({"correct": correct, "attempted": len(loop), "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
