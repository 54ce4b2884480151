"""Tests of the benchmark's pure parts.

Run from the checkout root::

    python -m pytest perfbench/test_perfbench.py
"""

import json
import os
import random
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
from exp_worker import experiment_order  # noqa: E402


def test_mix_is_a_function_of_the_seed():
    assert loadgen.Mix(7).take(3000) == loadgen.Mix(7).take(3000)
    assert loadgen.Mix(7).take(3000) != loadgen.Mix(8).take(3000)


def test_mix_shares_and_fresh_keys():
    mix = loadgen.Mix(3)
    hot = {loadgen.request_id(r) for r in loadgen.hot_set()}
    fresh = []
    for _ in range(10):
        batch = mix.take(1500)
        new = [r for r in batch if loadgen.request_id(r) not in hot]
        points = [r for r in new if r["scheduler"] == "sync"]
        assert len(new) == 75 and len(points) == 15
        fresh += new
    # A fresh key is never repeated, so each one is a miss.
    ids = [loadgen.request_id(r) for r in fresh]
    assert len(set(ids)) == len(ids)


def test_hot_set_ranking_does_not_depend_on_the_seed():
    assert loadgen.Mix(1).hot == loadgen.Mix(2).hot == loadgen.hot_set()


def test_arrival_schedule_is_seeded_and_increasing():
    a = loadgen.poisson_arrivals(random.Random(5), 400, 1000)
    assert a == loadgen.poisson_arrivals(random.Random(5), 400, 1000)
    assert a != loadgen.poisson_arrivals(random.Random(6), 400, 1000)
    assert all(x < y for x, y in zip(a, a[1:]))
    assert 2.0 < a[-1] < 3.0  # 1000 arrivals at 400/s


def test_experiment_order_is_a_seeded_permutation():
    order = experiment_order("verdict-sweeps", 4)
    assert order == experiment_order("verdict-sweeps", 4)
    assert sorted(order, key=lambda e: int(e[1:])) == [f"E{i}" for i in range(1, 15)]


def test_percentile_needs_ten_samples_beyond():
    assert common.min_samples_for(0.99) == 1000
    assert common.min_samples_for(0.90) == 100
    values = list(range(1, 1001))
    assert common.percentile(values, 0.99) == 990
    assert common.percentile(values[:-1], 0.99) is None
    assert common.percentile([], 0.5) is None
    assert common.percentile(list(range(20)), 0.5) == 9


def test_union_length():
    assert common.union_length([]) == 0
    assert common.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert common.union_length([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_what_children_cover():
    spans = [
        (1, 0, "root", 0.0, 10.0),
        (2, 1, "a", 1.0, 3.0),
        (3, 1, "b", 2.0, 5.0),  # overlaps a: covered union is 1..5
        (4, 3, "c", 2.5, 3.5),
        (5, 0, "other", 20.0, 21.0),
    ]
    selfs = common.self_times(spans)
    assert selfs == {1: 6.0, 2: 2.0, 3: 2.0, 4: 1.0, 5: 1.0}


def test_self_time_clips_children_to_the_parent():
    spans = [(1, 0, "root", 0.0, 4.0), (2, 1, "late", 3.0, 6.0)]
    assert common.self_times(spans)[1] == 3.0


def test_reference_seconds_scale_with_the_gauged_speed():
    assert common.reference_s(3.0, common.REFERENCE_MOPS) == 3.0
    assert common.reference_s(3.0, common.REFERENCE_MOPS / 2) == 1.5


def test_pass_gauge_samples_during_the_work_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with common.PassGauge(before=5.0) as gauge:
        end = time.perf_counter() + 3 * common.GAUGE_EVERY_S + 0.05
        while time.perf_counter() < end:
            pass
    assert len(gauge.samples) >= 3 and gauge.samples[0] == 5.0
    assert 0 < gauge.gauged_s < 3 * common.GAUGE_EVERY_S
    assert all(mops > 0 for mops in gauge.samples)
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_gauging_every_cpu_restores_the_affinity():
    cpus = os.sched_getaffinity(0)
    assert common.gauge_cpus_mops(0.02) > 0
    assert os.sched_getaffinity(0) == cpus


def test_step_limit_rules():
    def step(latencies_ms, backlog=0, status=200):
        s = loadgen.Step(rate=100.0, backlog_at_end=backlog)
        s.outcomes = [
            loadgen.Outcome(i, 0.0, 0.0, ms / 1e3, status) for i, ms in enumerate(latencies_ms)
        ]
        return s

    assert step([1.0] * 1000).meets(50.0)
    assert not step([1.0] * 999).meets(50.0)  # p99 not reportable
    assert not step([1.0] * 980 + [60.0] * 20).meets(50.0)
    assert not step([1.0] * 1000, backlog=60).meets(50.0)
    assert not step([1.0] * 1000, status=429).meets(50.0)


def test_answer_shares_are_stats_differences():
    def stats(hits, computed, coalesced):
        values = {"service_cache_hits": hits, "service_computed": computed, "service_coalesced": coalesced}
        return {"metrics": {k: {"value": v} for k, v in values.items()}}

    shares = run.answer_shares(stats(60, 60, 0), stats(960, 150, 10))
    assert shares == {"hit": 0.9, "miss": 0.09, "coalesced": 0.01}
    assert run.answer_shares({}, {}) == {"hit": 0.0, "miss": 0.0, "coalesced": 0.0}


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
