"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def pins():
    return workloads.load_pins()


@pytest.fixture(scope="module")
def desk(pins):
    return workloads.desk_pool_from_pins(pins)


# -- the workload generator ----------------------------------------------------


def test_sweep_inputs_repeat_per_seed_and_change_across_seeds():
    assert workloads.sieve_legs(7) == workloads.sieve_legs(7)
    assert workloads.arith_legs(7) == workloads.arith_legs(7)
    assert len({json.dumps(workloads.sieve_legs(s)) for s in range(10)}) == 10
    assert len({json.dumps(workloads.arith_legs(s)) for s in range(10)}) > 1
    assert workloads.arith_legs(1) != workloads.arith_legs(2)


def test_desk_stream_repeats_per_seed_and_changes_across_seeds(desk):
    _, groups = desk
    first = workloads.desk_stream(3, groups, 1)
    assert first == workloads.desk_stream(3, groups, 1)
    assert first != workloads.desk_stream(4, groups, 1)
    # a pass sends every pool entry once
    assert sorted(first) == sorted(i for _, _, idx in groups for i in idx)


def test_desk_stream_prefix_keeps_the_pool_mix(desk):
    pool, groups = desk
    per_block = sum(n for _, n, _ in groups)
    stream = workloads.desk_stream(5, groups, 1)[:per_block]
    for name, n, indices in groups:
        assert sum(i in set(indices) for i in stream) == n, name


def test_sweep_inputs_have_pins(pins):
    for seed in range(20):
        for leg in workloads.arith_legs(seed):
            assert str(leg["lo"]) in pins["arith"][leg["task"]]
        for leg in workloads.sieve_legs(seed):
            assert leg["hi"] <= pins["sieve"][leg["task"]]["hi"]


def test_desk_pool_is_pinned_and_in_domain(pins, desk):
    pool, _ = desk
    assert len(pins["desk"]["digests"]) == len(pool)
    for argv in pool:
        tail = argv[4:]
        if tail[:2] == ["triangle", "square-seq"]:
            assert 1 <= int(tail[2]) <= 11
        if tail[:2] == ["triangle", "faulhaber"]:
            assert 0 <= int(tail[2]) <= 12
        if tail[:2] == ["ideals", "radical"]:
            assert 1 <= int(tail[2]) < 2**64


def test_digest_ignores_config_echo_and_elapsed():
    a = b"config: convention=include1 workers=2\n\n| elapsed (s) | 0.013 |\n| verified | 4 |\n"
    b = b"config: convention=include1 workers=64\n\n| elapsed (s) | 0.700 |\n| verified | 4 |\n"
    c = b"config: convention=include1 workers=2\n\n| elapsed (s) | 0.013 |\n| verified | 5 |\n"
    assert workloads.normalized_digest(0, a, b"", "md") == workloads.normalized_digest(0, b, b"", "md")
    assert workloads.normalized_digest(0, a, b"", "md") != workloads.normalized_digest(0, c, b"", "md")
    assert workloads.normalized_digest(0, a, b"", "md") != workloads.normalized_digest(2, a, b"", "md")
    j1 = json.dumps({"kind": "verify-summary", "config": {"workers": 2}, "report": {"elapsed": 0.1, "verified": 4}})
    j2 = json.dumps({"kind": "verify-summary", "config": {"workers": 8}, "report": {"elapsed": 0.9, "verified": 4}})
    assert workloads.normalized_digest(0, j1.encode(), b"", "json") == workloads.normalized_digest(0, j2.encode(), b"", "json")


# -- percentiles and failure counting ----------------------------------------------


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 50) == 50.0
    assert run.percentile(values, 99) == 99.0
    assert run.percentile(values, 100) == 100.0
    assert run.percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_failures_count_as_infinite_latency():
    ok = [(0.001 * i, True) for i in range(990)]
    assert run.latencies([(0.5, True), (None, False), (0.2, False)]) == [0.5, math.inf, math.inf]
    ten_missed = run.latencies(ok + [(None, False)] * 10)
    eleven_missed = run.latencies(ok + [(None, False)] * 11)
    assert math.isfinite(run.percentile(ten_missed, 99))
    assert run.percentile(eleven_missed, 99) == math.inf


class FakeDeskBench(run.Bench):
    def __init__(self, results):
        super().__init__(HERE, trace=False)
        self._results = results

    def child(self, job, spec):
        return {"results": self._results, "rss_kb": 1024}


def test_desk_counts_deadline_misses_and_mismatches_as_failures(pins):
    digests = pins["desk"]["digests"]
    ref = run.REFERENCE_S * 2  # the host ran at half the reference speed
    results = [[0, 0.002, digests[0], ref], [1, 4.0, None, ref],
               [2, 0.004, "0" * 16, ref], [3, 0.008, digests[3], ref]]
    bench = FakeDeskBench(results)
    metrics, lines = run.desk_metrics(bench.desk(seed=1, seconds=1.0))
    assert (bench.attempted, bench.failed) == (4, 2)
    assert len(bench.problems) == 2
    # two good queries in (2 + 4000 + 4 + 8) ms, halved to the reference speed
    assert metrics["throughput_per_s"] == pytest.approx(2 / 2.007)
    assert metrics["latency_p50_ms"] == pytest.approx(4.0)
    assert metrics["latency_p99_ms"] == math.inf
    assert lines["raw_query_p99_ms"] == pytest.approx(8.0)


def test_timings_are_restated_at_the_reference_speed():
    assert run.at_reference(3.0, run.REFERENCE_S) == 3.0
    assert run.at_reference(3.0, 2 * run.REFERENCE_S) == 1.5


def test_fold_records_needs_a_tiling_and_keeps_the_first_max():
    def rec(lo, hi, depth, at):
        return {"lo": lo, "hi": hi, "status": "verified",
                "stats": {"instances": (hi - lo) // 2 + 1, "max_depth": depth, "max_depth_at": at}}

    lo, hi, stats = run.fold_records([rec(8, 10, 5, 10), rec(2, 6, 5, 4)], 2)
    assert (lo, hi) == (2, 10)
    assert stats == {"instances": 5, "max_depth": 5, "max_depth_at": 4}
    assert run.fold_records([rec(2, 6, 5, 4), rec(10, 12, 7, 12)], 2) is None
    assert run.fold_records([rec(2, 6, 5, 4), rec(6, 12, 7, 12)], 2) is None
    bad = dict(rec(8, 10, 5, 10), status="counterexample")
    assert run.fold_records([rec(2, 6, 5, 4), bad], 2) is None


# -- the tracer ------------------------------------------------------------------------


def _landau_bindings():
    import landau.cli  # noqa: F401  (loads every landau module)

    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "landau" or name.startswith("landau.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tracer_restores_every_landau_function():
    before = _landau_bindings()
    fsync, replace = os.fsync, os.replace
    with Tracer():
        from landau import primes, zn

        assert primes.is_prime is not before[("landau.primes", "is_prime")]
        assert zn.is_prime is not before[("landau.zn", "is_prime")]
        zn.totient(91)
    after = _landau_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert (os.fsync, os.replace) == (fsync, replace)


def test_tracer_wraps_each_target_at_every_binding():
    import landau.cli  # noqa: F401

    with Tracer():
        for mod_name, fn_name, _ in TARGETS:
            original = getattr(sys.modules[f"landau.{mod_name}"], fn_name).__wrapped__
            for name, mod in sys.modules.items():
                if name.startswith("landau"):
                    assert all(v is not original for v in vars(mod).values()), (name, fn_name)


def test_tracer_self_time_subtracts_child_spans():
    from landau import zn

    tracer = Tracer()
    with tracer:
        zn.totient(2**31 - 1)
    summary = tracer.summary()["names"]
    totient, factorize = summary["zn.totient"], summary["zn.factorize"]
    assert (totient["calls"], factorize["calls"]) == (1, 1)
    assert summary["primes.is_prime"]["calls"] >= 1
    assert totient["self_s"] == pytest.approx(totient["s"] - factorize["s"], abs=1e-9)
    assert factorize["self_s"] < factorize["s"]
    assert tracer.summary()["is_prime_under_factorize"] == summary["primes.is_prime"]["calls"]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert set(run.layer_metrics([], 1.0, 1.0)) == {m["name"] for m in spec["per_layer"]}
