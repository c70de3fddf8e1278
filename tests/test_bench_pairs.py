"""Unit tests of the summary arithmetic in tools/bench_pairs.py (no benchmark run, no subprocess)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"items_per_s": "higher", "item_ms.p50": "lower", "quintic.evaluate.ns_per_point": "lower"}


def run(values: dict, raw: dict | None = None, failed: int = 0) -> dict:
    """One perfbench result line as bench_pairs.perfbench returns it."""
    result = {"metrics": {name: {"value": v, "unit": "u"} for name, v in values.items()},
              "correct": True, "attempted": 100, "failed": failed}
    if raw is not None:
        result["raw"] = raw
    return result


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pairs.quartiles([1.0, 2.0]) == {"median": 1.5, "q1": 1.25, "q3": 1.75}


@pytest.mark.parametrize("name, parent, change, wins", [
    ("items_per_s", [10.0, 20.0, 30.0, 40.0], [10.0, 25.0, 29.0, 41.0], "2 of 4"),
    ("item_ms.p50", [1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 3.5, 4.0], "1 of 4"),
])
def test_ties_count_for_neither_side(name, parent, change, wins):
    out = bench_pairs.summarise({"parent": [run({name: v}) for v in parent],
                                 "change": [run({name: v}) for v in change]}, BETTER)
    assert out[name]["change_wins"] == wins
    assert out[name]["parent"]["runs"] == parent and out[name]["change"]["runs"] == change
    assert out[name]["change"]["median"] == bench_pairs.quartiles(change)["median"]


def test_direction_of_an_all_prefixed_metric():
    # A traced "--workload all" run names its metrics "<workload>.<metric>".
    names = {"trajectory.items_per_s": ([1.0, 2.0], [2.0, 1.0]),
             "trajectory.quintic.evaluate.ns_per_point": ([5.0, 5.0], [4.0, 6.0]),
             "trajectory.unlisted.metric": ([5.0, 5.0], [4.0, 6.0])}
    out = bench_pairs.summarise({side: [run({n: v[i][k] for n, v in names.items()}) for k in range(2)]
                                 for i, side in enumerate(bench_pairs.SIDES)}, BETTER)
    assert out["trajectory.items_per_s"]["better"] == "higher"
    assert out["trajectory.items_per_s"]["change_wins"] == "1 of 2"
    assert out["trajectory.quintic.evaluate.ns_per_point"]["better"] == "lower"
    assert out["trajectory.quintic.evaluate.ns_per_point"]["change_wins"] == "1 of 2"
    assert out["trajectory.unlisted.metric"]["better"] == "lower"  # the default


def test_raw_only_for_printed_metrics():
    runs = {"parent": [run({"items_per_s": 10.0, "item_ms.p50": 2.0}, raw={"item_ms.p50": 3.0}),
                       run({"items_per_s": 11.0, "item_ms.p50": 2.1}, raw={"item_ms.p50": 3.1})],
            "change": [run({"items_per_s": 12.0, "item_ms.p50": 1.9}, raw={"item_ms.p50": 2.9}),
                       run({"items_per_s": 13.0, "item_ms.p50": 1.8}, raw={"item_ms.p50": 2.8}, failed=1)]}
    out = bench_pairs.summarise(runs, BETTER)
    assert "raw" not in out["items_per_s"]
    assert out["item_ms.p50"]["raw"]["parent"]["runs"] == [3.0, 3.1]
    assert out["item_ms.p50"]["raw"]["change"]["runs"] == [2.9, 2.8]
    assert out["runs"]["change"] == {"correct": [True, True], "attempted": [100, 100], "failed": [0, 1]}


def test_shares_of_each_side_first_run():
    # perfbench prints one "shares:" line per workload, before its result line; an "all" run prints each workload's.
    def stdout(workload_shares):
        lines = []
        for workload, shares in workload_shares.items():
            lines += [f"perfbench {workload} seed=36 seconds=20 trace=0", f"{workload} items_per_s = 10 1/s (n=5)",
                      "  (times are scaled to the reference speed; raw: {\"item_ms.p50\": 3.0})",
                      "shares: " + json.dumps(shares), "correct: true"]
        return "\n".join(lines + ['{"correct": true, "attempted": 100, "failed": 0, "metrics": {}}']) + "\n"

    one = bench_pairs.parse(stdout({"catalogue": {"tag": {"generic/1-coefficient": 0.0625}}}))
    assert one["shares"] == {"catalogue": {"tag": {"generic/1-coefficient": 0.0625}}}
    assert one["raw"] == {"item_ms.p50": 3.0} and one["correct"] is True
    both = bench_pairs.parse(stdout({"trajectory": {"case": {"I": 0.5}}, "cli": {"command": {"table": 1.0}}}))
    assert both["shares"] == {"trajectory": {"case": {"I": 0.5}}, "cli": {"command": {"table": 1.0}}}

    runs = {"parent": [{**run({"items_per_s": 1.0}), "shares": {"catalogue": {"x": {"a": 1.0}}}},
                       {**run({"items_per_s": 2.0}), "shares": {"catalogue": {"x": {"a": 0.0}}}}],
            "change": [{**run({"items_per_s": 3.0}), "shares": {"catalogue": {"x": {"a": 0.5}}}},
                       run({"items_per_s": 4.0})]}
    assert bench_pairs.summarise(runs, BETTER)["shares"] == {"parent": {"catalogue": {"x": {"a": 1.0}}},
                                                            "change": {"catalogue": {"x": {"a": 0.5}}}}
