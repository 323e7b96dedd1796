"""Smoke test of the benchmark itself, at a tiny size.

Each workload must finish, print every end-to-end metric by name with its
unit, and end with the one-line JSON result; a wrong engine result must be
counted as failed.  Nothing here times anything or changes the package.
"""

import json
import shutil
import subprocess
import sys

import pytest

import bench_core as core
import bench_trace

TINY = core.Sizes(lefts_per_right=4, fresh_chunk=16, verify_trials=2,
                  setup_reps=1, trace_groups=1, checked_groups=2)
PRODUCT_METRICS = {
    "setup_s": "s",
    "naive_products_per_s": "1/s",
    "dense_products_per_s": "1/s",
    "fast_products_per_s": "1/s",
    "fast_p50_us": "us",
    "fast_p99_us": "us",
    "peak_rss_mib": "MiB",
    "failed_fraction": "ratio",
}
VERIFY_METRICS = {"setup_s": "s", "verify_s": "s", "peak_rss_mib": "MiB",
                  "failed_fraction": "ratio"}


@pytest.fixture(scope="module")
def k():
    return core.load_kaluza()


def printed(out):
    lines = out.strip().splitlines()
    shown = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and parts[0][0].isalpha():
            shown[parts[0]] = parts[2]
    return shown, json.loads(lines[-1])


@pytest.mark.parametrize("workload", core.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(k, capsys, workload):
    core.run_untraced(k, workload, seed=3, seconds=0, sizes=TINY)
    shown, result = printed(capsys.readouterr().out)
    want = VERIFY_METRICS if workload == "verify_suite" else PRODUCT_METRICS
    for name, unit in want.items():
        assert shown.get(name) == unit, name
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(want) - {"failed_fraction"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if workload == "fresh_pairs":
        # Both magnitude edges of the chunk defeat the fast engine today.
        assert result["failed"] >= 1
    else:
        assert result["failed"] == 0


def test_same_seed_gives_the_same_inputs(k):
    def coeffs(seed):
        sets = core.fresh_pairs_group(k, k.prng.Stream(seed), TINY)
        return [(b.coeffs, items[0].a.coeffs) for b, items in sets]

    assert coeffs(5) == coeffs(5)
    assert coeffs(5) != coeffs(6)


def test_checked_counts_do_not_depend_on_how_many_groups_ran(k):
    short = core.run_products(k, "fresh_pairs", 5, 0, TINY)
    long = core.run_products(k, "fresh_pairs", 5, 0, TINY, groups=TINY.checked_groups + 2)
    assert short.groups == TINY.checked_groups
    assert short.counted() == long.counted()
    assert long.attempted > long.counted()[0]


def test_a_wrong_engine_result_counts_as_failed(k):
    def wrong_fast(a, pipeline):
        got = k.mul_fast(a, pipeline).coeffs
        return k.KaluzaNumber((got[0] + 1.0,) + got[1:])

    engines = core.make_engines(k)
    engines["fast"] = (engines["fast"][0], wrong_fast)
    tally = core.run_products(k, "shared_right", 3, 0, TINY, engines=engines)
    assert tally.failures == {("fast", "ordinary"): tally.products["fast"]}
    assert tally.failed == tally.products["fast"] > 0
    assert tally.correct is False


def test_latency_percentiles_from_the_histogram():
    tally = core.Tally()
    tally.add_latencies(1000.0 * i for i in range(1, 101))
    assert tally.latency_percentile(0.50) == pytest.approx(50_000, rel=2e-3)
    assert tally.latency_percentile(0.99) == pytest.approx(99_000, rel=2e-3)


def test_verify_output_with_a_fail_line_counts_as_failed():
    text = "\n".join(("[PASS] a", "[FAIL] b") + core.EXPECTED_WARN[:1]
                     + tuple("         " + x for x in core.EXPECTED_WARN[1:]))
    assert core.check_verify_output(1, text) == (3, 1)
    assert core.check_verify_output(0, text.replace("[FAIL]", "[PASS]")) == (3, 0)
    assert core.check_verify_output(0, "[PASS] a") == (1, 1)  # the frozen warning is gone


def test_traced_run_reports_exact_counts(k, capsys):
    bench_trace.run_traced(k, "shared_right", seed=3, seconds=0, sizes=TINY)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    m = {n: v["value"] for n, v in result["metrics"].items()}
    assert m["linops.block_diagonal_scale.muls_per_product"] == 512
    assert m["linops.fan_in_sum.adds_per_product"] == 480
    assert m["linops.hadamard_pairs.adds_per_product"] == 64
    assert m["fastmul.compute_c.adds_per_call"] == 32
    assert (m["number.mul_naive.muls_per_call"], m["number.mul_naive.adds_per_call"]) == (1024, 992)
    assert m["fastmul.build_pipeline.calls_per_product"] == 1 / TINY.lefts_per_right
    assert m["bench.trace_overhead_ratio"] > 0
    assert result["correct"] is True


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(core.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shared_right",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
