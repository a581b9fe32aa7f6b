"""BENCHMARK.json, run.py and workloads.py name the same things."""

import json
from pathlib import Path

import run
import workloads
from worker import nearest_rank, tail_percentile

SPEC = json.loads((Path(run.BENCH).parent / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_the_spec():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_workload_names_match_the_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_tail_percentile_leaves_ten_graphs_beyond():
    for count, p in ((40, 75), (42, 76), (43, 76), (544, 98), (587, 98)):
        assert tail_percentile(count) == p
        values = list(range(count))
        assert count - 1 - nearest_rank(values, p) >= 10
        assert count - 1 - nearest_rank(values, p + 1) < 10
