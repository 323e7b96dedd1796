"""The committed benchmark records, BENCH_*.json, against BENCHMARK.json.

Each record compares alternating perfbench runs of a parent commit and of
the change that adds the file.  A record must say where and how it was
measured, name a claim that the benchmark can check, summarize every
end-to-end metric, and carry a claim that its own figures bear out.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}


@pytest.fixture(params=RECORDS, ids=lambda path: path.name)
def record(request):
    return json.loads(request.param.read_text())


def test_records_are_committed():
    assert RECORDS


def test_a_record_names_where_and_how_it_was_measured(record):
    for key in ("python", "platform"):
        assert isinstance(record[key], str) and record[key], key
    assert type(record["seed"]) is int and record["seed"] >= 0
    assert record["seconds"] > 0
    assert type(record["pairs"]) is int and record["pairs"] > 0
    revision = record["parent"]["revision"]
    assert len(revision) == 40 and int(revision, 16) >= 0, revision


def test_a_claim_names_a_benchmarked_workload_and_metric(record):
    claimed = record["claimed"]
    assert claimed["workload"] in WORKLOADS
    assert claimed["metric"] in END_TO_END


def test_each_workload_summarizes_every_end_to_end_metric(record):
    assert set(record["workloads"]) == WORKLOADS
    for workload in record["workloads"].values():
        assert set(END_TO_END) <= set(workload["summary"])


def test_each_change_is_the_ratio_of_the_medians(record):
    for name, workload in record["workloads"].items():
        for metric in END_TO_END:
            s = workload["summary"][metric]
            want = s["change_median"] / s["parent_median"] - 1
            assert math.isclose(s["change_vs_parent"], want, rel_tol=1e-9, abs_tol=1e-12), (
                name, metric)


def test_the_claimed_metric_moved_the_better_way(record):
    claimed = record["claimed"]
    s = record["workloads"][claimed["workload"]]["summary"][claimed["metric"]]
    sign = 1 if END_TO_END[claimed["metric"]]["better"] == "higher" else -1
    assert sign * s["change_vs_parent"] > 0
