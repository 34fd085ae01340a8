"""Resumable range verification: checkpoints, determinism, crash recovery."""
from __future__ import annotations

import fcntl
import functools
import itertools
import json
import multiprocessing
import operator
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import landau.figurate as figurate
import landau.harness as harness
import landau.primes as primes
import oracles
from landau.goldbach import canonical_couple
from landau.harness import (
    Checkpoint,
    CheckpointError,
    RunSummary,
    Task,
    instance_count,
    load_checkpoints,
    verify_range,
)
from landau.primes import PrimeConvention, is_prime

INC = PrimeConvention.INCLUDE1
EXC = PrimeConvention.EXCLUDE1


def record(task="goldbach", convention="include1", lo=2, hi=100, status="verified",
           stats=None, ts="2026-01-01T00:00:00Z", witness=None):
    obj = {"v": 1, "task": task, "convention": convention, "lo": lo, "hi": hi,
           "status": status, "stats": stats or {}, "ts": ts}
    if witness is not None:
        obj["witness"] = witness
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def seed(path, *lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def strip_timestamps(text: str) -> str:
    return re.sub(r'"ts":"[^"]*"', '"ts":"T"', text)


# ---------------------------------------------------------------------------
# fresh runs and bookkeeping


def test_fresh_run_verifies_every_even_instance(tmp_path):
    cp = tmp_path / "g.jsonl"
    s = verify_range(Task.GOLDBACH, 2, 1000, INC, checkpoint_path=cp)
    assert isinstance(s, RunSummary)
    assert (s.verified, s.skipped, s.counterexamples, s.complete) == (500, 0, (), True)
    recs = load_checkpoints(str(cp))
    assert [(r.lo, r.hi, r.status) for r in recs] == [(2, 1000, "verified")]
    assert recs[0].stats["instances"] == 500


def test_rerun_skips_everything(tmp_path):
    cp = tmp_path / "g.jsonl"
    verify_range(Task.GOLDBACH, 2, 1000, INC, checkpoint_path=cp)
    before = strip_timestamps(cp.read_text())
    s = verify_range(Task.GOLDBACH, 2, 1000, INC, checkpoint_path=cp)
    assert (s.verified, s.skipped, s.complete) == (0, 500, True)
    assert strip_timestamps(cp.read_text()) == before


def test_extension_only_checks_the_gap(tmp_path):
    cp = tmp_path / "g.jsonl"
    verify_range(Task.GOLDBACH, 2, 1000, INC, checkpoint_path=cp)
    s = verify_range(Task.GOLDBACH, 2, 2000, INC, checkpoint_path=cp)
    assert (s.verified, s.skipped, s.complete) == (500, 500, True)
    recs = load_checkpoints(str(cp))
    assert [(r.lo, r.hi) for r in recs] == [(2, 1000), (1002, 2000)]


def test_seeded_coverage_leaves_disjoint_gapfree_records(tmp_path):
    cp = tmp_path / "g.jsonl"
    verify_range(Task.GOLDBACH, 400, 600, INC, checkpoint_path=cp)
    s = verify_range(Task.GOLDBACH, 2, 1000, INC, checkpoint_path=cp)
    assert (s.verified, s.skipped, s.complete) == (399, 101, True)
    spans = [(r.lo, r.hi) for r in load_checkpoints(str(cp))]
    assert spans == [(2, 398), (400, 600), (602, 1000)]
    for (_, b), (a, _) in zip(spans, spans[1:]):
        assert a == b + 2  # union has no gap


def test_runs_without_checkpoint_file():
    s = verify_range(Task.GOLDBACH, 2, 200, INC)
    assert s.verified == 100 and s.complete


def test_records_for_other_tasks_survive(tmp_path):
    cp = tmp_path / "mixed.jsonl"
    verify_range(Task.PARABOLIC, 1, 50, INC, checkpoint_path=cp)
    verify_range(Task.GOLDBACH, 2, 100, INC, checkpoint_path=cp)
    recs = load_checkpoints(str(cp))
    assert {r.task for r in recs} == {Task.PARABOLIC, Task.GOLDBACH}
    para = [r for r in recs if r.task is Task.PARABOLIC]
    assert [(r.lo, r.hi) for r in para] == [(1, 50)]


def test_parity_alignment_of_odd_endpoints():
    s = verify_range(Task.GOLDBACH, 3, 999, INC)
    assert (s.lo, s.hi) == (4, 998)
    assert s.verified == instance_count(Task.GOLDBACH, 4, 998) == 498


def test_domain_validation():
    with pytest.raises(ValueError):
        verify_range(Task.GOLDBACH, 2, 100, EXC)  # 2 needs the unit
    with pytest.raises(ValueError):
        verify_range(Task.LEGENDRE, 0, 10, INC)
    with pytest.raises(ValueError):
        verify_range(Task.GOLDBACH, 100, 2, INC)
    with pytest.raises(ValueError):
        verify_range(Task.GOLDBACH, 2, 100, INC, worker_count=0)


def test_missing_checkpoint_file_is_empty_history(tmp_path):
    assert load_checkpoints(str(tmp_path / "absent.jsonl")) == []


# ---------------------------------------------------------------------------
# checkpoint parsing defects


@pytest.mark.parametrize("lines,line_no,fragment", [
    (["{not json"], 1, "invalid JSON"),
    ([record(), "{not json"], 2, "invalid JSON"),
    ([record(), ""], 2, "blank line"),
    (['[1, 2]'], 1, "expected a JSON object"),
    ([record().replace('"task":"goldbach",', "")], 1, "missing field 'task'"),
    ([record()[:-1] + ',"extra":1}'], 1, "unknown field"),
    ([record().replace('"v":1', '"v":2')], 1, "unsupported schema version"),
    ([record(task="fermat")], 1, "fermat"),
    ([record(convention="sometimes")], 1, "sometimes"),
    ([record(lo=10, hi=4)], 1, "empty range"),
    ([record(status="maybe")], 1, "unknown status"),
    ([record(status="counterexample")], 1, "witness"),
    ([record(lo="2")], 1, "lo/hi must be integers"),
    ([record().replace('"stats":{}', '"stats":[]')], 1, "stats must be an object"),
])
def test_corrupt_line_names_path_and_line(tmp_path, lines, line_no, fragment):
    cp = tmp_path / "bad.jsonl"
    seed(cp, *lines)
    with pytest.raises(CheckpointError) as err:
        load_checkpoints(str(cp))
    assert str(err.value).startswith(f"{cp}:{line_no}: ")
    assert fragment in str(err.value)


def test_overlapping_ranges_rejected(tmp_path):
    cp = tmp_path / "ov.jsonl"
    seed(cp, record(lo=2, hi=398), record(lo=300, hi=500))
    with pytest.raises(CheckpointError, match=r":2: .*overlaps"):
        load_checkpoints(str(cp))


def test_overlap_in_one_task_does_not_blame_another(tmp_path):
    cp = tmp_path / "ok.jsonl"
    seed(cp, record(lo=2, hi=398), record(task="legendre", lo=300, hi=500))
    recs = load_checkpoints(str(cp))
    assert len(recs) == 2  # same numbers, different tasks: no conflict


# ---------------------------------------------------------------------------
# counterexample semantics


def test_recorded_counterexample_is_terminal(tmp_path):
    cp = tmp_path / "term.jsonl"
    witness = {"instance": 10, "reason": "synthetic"}
    seed(cp, record(lo=10, hi=10, status="counterexample", witness=witness))
    s = verify_range(Task.GOLDBACH, 2, 1000, INC, checkpoint_path=cp)
    assert (s.verified, s.skipped, s.complete) == (0, 0, False)
    assert s.counterexamples == (witness,)
    # the file is left untouched
    assert load_checkpoints(str(cp))[0].witness == witness


def test_counterexample_only_blocks_its_own_convention(tmp_path):
    cp = tmp_path / "term.jsonl"
    seed(cp, record(lo=10, hi=10, status="counterexample",
                    witness={"instance": 10, "reason": "synthetic"}))
    s = verify_range(Task.GOLDBACH, 4, 1000, EXC, checkpoint_path=cp)
    assert s.verified == 499 and s.complete


def _fixed_chunks(monkeypatch, size):
    """Make every chunk of every task `size` instances wide."""
    monkeypatch.setattr(harness, "_chunk_size", lambda task: size)


def _break_goldbach_at_76(monkeypatch):
    def broken(conv, lo, hi):
        stats = {"instances": 0, "max_depth": 0, "max_depth_at": 0}
        for two_n in range(lo, hi + 1, 2):
            if two_n == 76:
                witness = {"instance": two_n, "reason": "synthetic"}
                return {"stats": stats, "witness": witness}
            stats["instances"] += 1
        return {"stats": stats, "witness": None}

    monkeypatch.setitem(harness._CHECKERS, Task.GOLDBACH, broken)


@pytest.mark.parametrize("workers", [1, 2])
def test_checker_failure_writes_prefix_and_counterexample(tmp_path, monkeypatch, workers):
    _break_goldbach_at_76(monkeypatch)
    for size in (1, 8, 4096):
        _fixed_chunks(monkeypatch, size)
        cp = tmp_path / f"cx{size}.jsonl"
        s = verify_range(Task.GOLDBACH, 2, 1000, INC, checkpoint_path=cp, worker_count=workers)
        assert s.counterexamples and s.counterexamples[0]["instance"] == 76
        assert not s.complete
        assert s.verified == instance_count(Task.GOLDBACH, 2, 74)
        recs = load_checkpoints(str(cp))
        assert [(r.lo, r.hi, r.status) for r in recs] == [
            (2, 74, "verified"), (76, 76, "counterexample")]
        # and the counterexample now blocks reruns
        s2 = verify_range(Task.GOLDBACH, 2, 1000, INC, checkpoint_path=cp)
        assert s2.verified == 0 and not s2.complete


@pytest.mark.parametrize("task,hi", [(Task.GOLDBACH, 3000), (Task.PRE_POLIGNAC, 1200)])
@pytest.mark.parametrize("conv", [INC, EXC], ids=lambda c: c.value)
@pytest.mark.parametrize("workers", [1, 2])
def test_widening_from_the_smallest_reach_changes_nothing(tmp_path, monkeypatch, task, hi,
                                                          conv, workers):
    lo = 2 if conv is INC else 4
    _fixed_chunks(monkeypatch, 16)
    texts = []
    for reach in (harness._REACH, 1):
        monkeypatch.setattr(harness, "_REACH", reach)
        cp = tmp_path / f"r{reach}.jsonl"
        s = verify_range(task, lo, hi, conv, checkpoint_path=cp, worker_count=workers)
        assert s.complete
        texts.append(strip_timestamps(cp.read_text()))
    assert texts[0] == texts[1]


def test_pre_polignac_window_at_the_64_bit_top_reads_every_partner_below_it():
    # hi + 1024 is the highest window the range check lets through; the
    # witness of 2^64 - 7772 is 1097, past the reach, so the widened window
    # stops at 2^64 - 1 and each instance still tries every partner in it
    hi = 2**64 - 1026
    x = 2**64 - 7772
    assert [q for q in primes.primes_in_range(1, 1097) if is_prime(x + q)] == [1097]
    for conv in (INC, EXC):
        s = verify_range(Task.PRE_POLIGNAC, hi - 8000, hi, conv)
        assert s.complete and s.verified == 4001
        assert (s.stats["max_witness"], s.stats["max_witness_at"]) == (1097, x)
    # the last 501 instances, whose partners the window cuts off, by trial
    qs = primes.primes_in_range(2, 1097)
    for gap in range(hi - 1000, hi + 1, 2):
        assert any(gap + q < 2**64 and is_prime(gap + q) for q in qs), gap


@pytest.mark.parametrize("conv", [INC, EXC], ids=lambda c: c.value)
def test_pre_polignac_at_the_64_bit_top_equals_the_per_instance_checker(conv):
    # the span of the test above, whose widened window stops at 2^64 - 1
    hi = 2**64 - 1026
    got = harness._check_pre_polignac(conv, hi - 8000, hi)
    assert got == oracles.check_pre_polignac(conv, hi - 8000, hi)
    assert got["stats"] == {"instances": 4001, "max_witness": 1097, "max_witness_at": 2**64 - 7772}


def _chunks_from(task, lo, chunks):
    """The top of `chunks` full chunks of the rule's size from lo."""
    return lo + harness._step(task) * (chunks * harness._chunk_size(task) - 1)


def _traced_peak(task, lo, hi):
    # the base primes up to min(sqrt(hi), primes._BASE_LIMIT) are sieved once
    # per process and kept: an untraced run first leaves them built, so the
    # peak is the chunks' own
    verify_range(task, lo, hi, INC)
    tracemalloc.start()
    try:
        s = verify_range(task, lo, hi, INC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.complete
    return peak


@pytest.mark.parametrize("task", [Task.GOLDBACH, Task.PRE_POLIGNAC])
def test_even_task_memory_does_not_grow_with_height(monkeypatch, task):
    # at 10^15, sqrt(hi) is past the cap on the base primes, and is_prime
    # tests what the sieve leaves; tracing its many short-lived ints takes
    # half a minute, so, as in the parabolic test below, a cache that the
    # untraced run fills answers them in the traced one
    monkeypatch.setattr(primes, "is_prime", functools.cache(is_prime))
    for lo, chunks in ((10**7, 2), (10**12, 2), (10**15, 1)):
        peak = _traced_peak(task, lo, _chunks_from(task, lo, chunks))
        assert peak < 4 * 2**20, (lo, peak)


def test_parabolic_memory_at_the_widest_chunk(monkeypatch):
    # the certificate's pow and is_prime allocate many small ints that no
    # call keeps, and tracing each of them makes the traced run 4x slower;
    # caches that the untraced run fills answer them there, with the same peak
    monkeypatch.setattr(figurate, "pow", functools.cache(pow), raising=False)
    monkeypatch.setattr(harness, "is_prime", functools.cache(is_prime))
    # a chunk of the rule's size at k = 2^20 and the last one below 2^32
    for lo in (2**20, 2**32 - harness._chunk_size(Task.PARABOLIC)):
        peak = _traced_peak(Task.PARABOLIC, lo, _chunks_from(Task.PARABOLIC, lo, 1))
        assert peak < 4 * 2**20, (lo, peak)


def _fail_at_first_instance(conv, lo, hi):
    stats = {"instances": 0, "max_depth": 0, "max_depth_at": 0}
    return {"stats": stats, "witness": {"instance": lo, "reason": "synthetic"}}


@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_holds_nothing_that_grows_with_its_range(monkeypatch, workers):
    # chunks are made as the fold asks for them, so a run that stops in its
    # first chunk returns at once however far its range reaches
    monkeypatch.setitem(harness._CHECKERS, Task.GOLDBACH, _fail_at_first_instance)
    verify_range(Task.GOLDBACH, 4, 10**5, worker_count=workers)  # imports the pool's modules
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        s = verify_range(Task.GOLDBACH, 4, 10**13, worker_count=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert s.counterexamples == ({"instance": 4, "reason": "synthetic"},)
    assert peak < 2**20, peak


# ---------------------------------------------------------------------------
# the bitset scan against the per-instance checkers it replaced

_EVEN_CHECKERS = [
    (harness._check_goldbach, oracles.check_goldbach),
    (harness._check_pre_polignac, oracles.check_pre_polignac),
]


@st.composite
def even_spans(draw):
    conv = draw(st.sampled_from([INC, EXC]))
    floor = 2 if conv is INC else 4
    top = 10 ** draw(st.integers(1, 12))
    lo = 2 * draw(st.integers(floor // 2, top // 2))
    width = draw(st.integers(1, 3 * 4096))
    return conv, lo, lo + 2 * (width - 1)


@pytest.mark.parametrize("reach", [harness._REACH, 1])
@given(span=even_spans())
@settings(max_examples=40, deadline=None)
def test_bitset_scan_equals_per_instance_checkers(reach, span):
    conv, lo, hi = span
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_REACH", reach)
        for checker, oracle in _EVEN_CHECKERS:
            assert checker(conv, lo, hi) == oracle(conv, lo, hi)


def _goldbach_chunks(conv):
    """Full chunks at 10^6 and 10^9, then every chunk of a run over [2, 4e6]."""
    stride = 2 * harness._chunk_size(Task.GOLDBACH)
    yield from ((h, h + stride - 2) for h in (10**6, 10**9))
    floor = 2 if conv is INC else 4
    yield from ((c, min(c + stride - 2, 4 * 10**6)) for c in range(floor, 4 * 10**6, stride))


@pytest.mark.parametrize("conv", [INC, EXC])
def test_goldbach_full_chunks_equal_per_instance_checker(conv):
    # the depth pruning decides which instances are counted; a bound a block
    # too tight already moves max_depth_at in one chunk of [4, 4e6] under
    # exclude1
    for lo, hi in _goldbach_chunks(conv):
        assert harness._check_goldbach(conv, lo, hi) == oracles.check_goldbach(conv, lo, hi)


def _most_in_blocks(flags, m):
    """Brute force: the most set flags in any m consecutive 8-flag blocks."""
    counts = [sum(flags[j:j + 8]) for j in range(0, len(flags), 8)]
    return max(sum(counts[s:s + m]) for s in range(max(len(counts) - m, 0) + 1))


@st.composite
def flag_windows(draw):
    """0/1 bytes, a run of set flags up front driving the block sums past
    one byte, then random flags."""
    size = draw(st.integers(0, 720))
    ones = draw(st.integers(0, size))
    rest = draw(st.binary(min_size=size - ones, max_size=size - ones))
    return bytearray([1] * ones) + bytearray(b & 1 for b in rest)


@given(flags=flag_windows())
@settings(max_examples=60, deadline=None)
def test_block_test_is_the_most_primes_in_m_blocks(flags):
    holds = harness._block_test(harness._as_int(flags), len(flags))
    prefix = list(itertools.accumulate(flags, initial=0))
    for m in range(1, 100):
        most = _most_in_blocks(flags, m)
        assert holds(m, most) and not holds(m, most + 1)
        # every window of w odd values that the pruning maps to m blocks
        for w in range(max(8 * m - 14, 1), min(8 * m - 7, len(flags)) + 1):
            assert (w + 6) // 8 + 1 == m
            assert max(map(operator.sub, prefix[w:], prefix)) <= most


@pytest.mark.parametrize("set_bits", [0, 1, 2, 9, 63, 64, 65, 100, 4096])
@pytest.mark.parametrize("width", [1, 64, 1 << 16])
def test_set_bits_equals_bin_on_sparse_and_dense_ints(set_bits, width):
    rng = random.Random(set_bits * width)
    positions = rng.sample(range(width), min(set_bits, width))
    x = sum(1 << b for b in positions)
    expected = [i for i, bit in enumerate(reversed(bin(x)[2:])) if bit == "1"]
    assert list(harness._set_bits(x)) == expected == sorted(positions)


@pytest.mark.parametrize("m", [1, 31, 32, 8160, 8161, 9000])
@pytest.mark.parametrize("density", [1, 2])
def test_block_test_at_every_digit_width(m, density):
    # 1-, 2- and 3-byte digits, on a window just wider than m blocks, all
    # set or half set
    rng = random.Random(m)
    flags = bytearray(rng.getrandbits(1) | (density == 1) for _ in range(8 * m + 100))
    holds = harness._block_test(harness._as_int(flags), len(flags))
    most = _most_in_blocks(flags, m)
    assert holds(m, most) and not holds(m, most + 1)


def _doctor_primes(monkeypatch, keep):
    """Make every prime source that the even checkers and their oracles read
    forget the primes p with keep(p) false, so that some instance has no
    decomposition or no witness."""
    real_odd_flags = primes._odd_flags
    real_range = primes.primes_in_range
    real_flags = primes.prime_flags

    def odd_flags(lo, hi, conv):
        first, flags = real_odd_flags(lo, hi, conv)
        for j, flag in enumerate(flags):
            flags[j] = flag and keep(first + 2 * j)
        return first, flags

    def primes_in_range(lo, hi, conv):
        return [p for p in real_range(lo, hi, conv) if keep(p)]

    def prime_flags(hi, conv):
        return bytearray(flag and keep(v) for v, flag in enumerate(real_flags(hi, conv)))

    monkeypatch.setattr(harness, "_odd_flags", odd_flags)
    monkeypatch.setattr(harness, "primes_in_range", primes_in_range)
    monkeypatch.setattr(oracles, "primes_in_range", primes_in_range)
    monkeypatch.setattr(oracles, "prime_flags", prime_flags)


_DOCTORED = {
    "above-600": lambda p: p <= 600,
    "above-1000": lambda p: p <= 1000,
    "above-3000": lambda p: p <= 3000,
    "without-3": lambda p: p != 3,  # gaps 2 and 4 meet q = 5, 7 first
}


def _doctored_case(which, conv, dropped, lo=None):
    task = ("goldbach", "pre-polignac")[which]
    start = f"from-{lo}" if lo else "from-floor"
    return pytest.param(which, conv, dropped, lo, id=f"{task}-{conv.value}-{dropped}-{start}")


@pytest.mark.parametrize(
    "which,conv,dropped,lo",
    [
        _doctored_case(which, conv, dropped, lo)
        for which in (0, 1)
        for conv in (INC, EXC)
        for dropped, lo in (("above-600", None), ("above-1000", 1500), ("above-3000", 1500))
    ]
    + [_doctored_case(0, EXC, "without-3"), _doctored_case(1, INC, "without-3"),
       _doctored_case(1, EXC, "without-3")],
)
def test_counterexample_branch_matches_per_instance_checkers(monkeypatch, which, conv,
                                                             dropped, lo):
    _doctor_primes(monkeypatch, _DOCTORED[dropped])
    checker, oracle = _EVEN_CHECKERS[which]
    lo = lo or (2 if conv is INC else 4)
    got, want = checker(conv, lo, 8000), oracle(conv, lo, 8000)
    assert want["witness"] is not None
    assert got["witness"] == want["witness"]
    assert got["stats"] == want["stats"]


# ---------------------------------------------------------------------------
# the N - 1 certificate against the per-k checker that factors k^2 + 1


@st.composite
def parabolic_spans(draw):
    conv = draw(st.sampled_from([INC, EXC]))
    hi = draw(st.integers(1, 2 ** draw(st.integers(4, 32)) - 1))
    width = draw(st.integers(1, min(hi, 4096)))
    return conv, hi - width + 1, hi


@given(span=parabolic_spans())
@settings(max_examples=25, deadline=None)
def test_parabolic_certificate_equals_per_k_checker(span):
    conv, lo, hi = span
    assert harness._check_parabolic(conv, lo, hi) == oracles.check_parabolic(conv, lo, hi)


def _lying_is_prime(above, says):
    """is_prime that answers `says` for every k^2 + 1 with k > above."""

    def lie(n, conv=INC):
        return says if n > above * above + 1 else is_prime(n, conv)

    return lie


@pytest.mark.parametrize("conv", [INC, EXC], ids=lambda c: c.value)
@pytest.mark.parametrize(
    "lo,above,says",
    [(1, 0, True), (1, 2, False), (1, 900, True), (1, 900, False), (5000, 6000, False),
     (10**6, 10**6 + 77, True)],
)
def test_parabolic_counterexample_branch_matches_per_k_checker(monkeypatch, conv, lo,
                                                               above, says):
    lie = _lying_is_prime(above, says)
    monkeypatch.setattr(harness, "is_prime", lie)
    monkeypatch.setattr(oracles, "is_prime", lie)
    hi = lo + 2000
    got, want = harness._check_parabolic(conv, lo, hi), oracles.check_parabolic(conv, lo, hi)
    assert want["witness"] is not None and want["witness"]["prime"] is says
    assert got["witness"] == want["witness"]
    assert got["stats"] == want["stats"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "task,lo,hi,convs,stats",
    [
        (Task.GOLDBACH, 2, 4 * 10**6, [INC], (42, 3807404)),
        (Task.PRE_POLIGNAC, 2, 4 * 10**6, [INC], (631, 2373478)),
        (Task.GOLDBACH, 10**9, 10**9 + 10**6, [INC, EXC], (43, 1000235816)),
        (Task.PRE_POLIGNAC, 10**9, 10**9 + 10**6, [INC, EXC], (1039, 1000045258)),
        (Task.PARABOLIC, 1, 25000, [INC], (1914, 24996)),
        (Task.PARABOLIC, 351, 25350, [INC], (1885, 25350)),
        (Task.PARABOLIC, 10**6, 10**6 + 2 * 10**4, [INC, EXC], (993, 1019994)),
    ],
    ids=["goldbach-4e6", "pre-polignac-4e6", "goldbach-1e9", "pre-polignac-1e9",
         "parabolic-25e3", "parabolic-351", "parabolic-1e6"],
)
def test_benchmark_range_statistics(task, lo, hi, convs, stats, workers):
    keys = [k for _, key, at_key in harness._STAT_MERGE[task] for k in (key, at_key) if k]
    for conv in convs:
        s = verify_range(task, lo, hi, conv, worker_count=workers)
        assert s.complete and s.verified == instance_count(task, lo, hi)
        assert tuple(s.stats[k] for k in keys) == stats


# ---------------------------------------------------------------------------
# determinism and parallelism


def test_worker_count_does_not_change_checkpoint_bytes(tmp_path, monkeypatch):
    _fixed_chunks(monkeypatch, 512)
    texts = {}
    for workers in (1, 3):
        cp = tmp_path / f"w{workers}.jsonl"
        s = verify_range(Task.GOLDBACH, 2, 50000, INC, checkpoint_path=cp,
                         worker_count=workers)
        assert s.complete
        texts[workers] = strip_timestamps(cp.read_text())
    assert texts[1] == texts[3]


class _FakeContext:
    """Stands in for a fork context: records pool sizes, starts no process."""

    def __init__(self):
        self.sizes = []

    def Pool(self, n):
        self.sizes.append(n)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "workers, cores, size", [(100_000, 4, 4), (3, 4, 3), (100_000, None, None)]
)
def test_pool_is_bounded_by_cores_and_chunks(monkeypatch, workers, cores, size):
    _fixed_chunks(monkeypatch, 64)
    fake = _FakeContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: fake)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cores)
    s = verify_range(Task.LEGENDRE, 1, 640, INC, worker_count=workers)
    assert s.verified == 640
    # an unknown core count means one: the serial path, no pool
    assert fake.sizes == ([] if size is None else [size])
    assert verify_range(Task.LEGENDRE, 1, 128, INC, worker_count=workers).verified == 128
    assert fake.sizes[1:] == ([] if size is None else [2])


@st.composite
def run_plans(draw):
    """A task, convention and range of up to 300 instances, with a subrange
    that a resumed run finds already recorded."""
    task = draw(st.sampled_from(list(Task)))
    conv = draw(st.sampled_from([INC, EXC]))
    step = 2 if task in (Task.GOLDBACH, Task.PRE_POLIGNAC) else 1
    lo = step * draw(st.integers(harness._domain_lo(task, conv) // step, 2000))
    hi = lo + step * draw(st.integers(0, 299))
    # a history that starts the range ends where this run's first record starts
    seed_lo = lo + step * draw(st.just(0) | st.integers(0, (hi - lo) // step))
    seed_hi = seed_lo + step * draw(st.integers(0, (hi - seed_lo) // step))
    return task, conv, lo, hi, (seed_lo, seed_hi)


def _sizes_agree(tmp, task, conv, lo, hi, seeded, sizes):
    """Run [lo, hi] fresh and resumed from the seeded history, at each chunk
    size (None is the rule's own) and at 1 and 2 workers; every run must
    leave the same records and summary.  Returns the last summary."""
    for resumed in (False, True):
        outcomes = set()
        for size in sizes:
            rule = harness._chunk_size if size is None else lambda task, size=size: size
            for workers in (1, 2):
                cp = tmp / f"{resumed}-{size}-{workers}.jsonl"
                if resumed:
                    cp.write_text(seeded)
                with mock.patch.object(harness, "_chunk_size", rule):
                    s = verify_range(task, lo, hi, conv, checkpoint_path=cp,
                                     worker_count=workers)
                text = cp.read_text()
                # the records tile the range, and this run's never absorb the history's
                recs = load_checkpoints(str(cp))
                assert sum(instance_count(task, r.lo, r.hi) for r in recs) == s.skipped + s.verified
                assert not resumed or set(seeded.splitlines()) <= set(text.splitlines())
                outcomes.add((strip_timestamps(text), repr(replace(s, elapsed=0.0))))
        assert len(outcomes) == 1, outcomes
    return s


@given(plan=run_plans())
@settings(max_examples=20, deadline=None)
def test_chunk_size_changes_no_record_and_no_summary(tmp_path_factory, plan):
    task, conv, lo, hi, (seed_lo, seed_hi) = plan
    tmp = tmp_path_factory.mktemp("sizes")
    history = tmp / "seed.jsonl"
    verify_range(task, seed_lo, seed_hi, conv, checkpoint_path=history)
    _sizes_agree(tmp, task, conv, lo, hi, history.read_text(), (1, 7, 512, 4096))


# ranges of at least three chunks of the rule's size, with a seeded record in
# the middle for resumed runs
_RULE_RANGES = {
    Task.GOLDBACH: (4, 400_000),
    Task.PRE_POLIGNAC: (4, 400_000),
    Task.LEGENDRE: (1, 12_300),
    Task.PARABOLIC: (126_800, 140_000),
}


@pytest.mark.parametrize("conv", [INC, EXC], ids=lambda c: c.value)
@pytest.mark.parametrize("task", list(Task), ids=lambda t: t.value)
def test_rule_sized_chunks_change_no_record_and_no_summary(tmp_path, task, conv):
    lo, hi = _RULE_RANGES[task]
    count = instance_count(task, lo, hi)
    assert count >= 3 * harness._chunk_size(task)
    history = tmp_path / "seed.jsonl"
    mid = lo + harness._step(task) * (count // 3)
    verify_range(task, mid, mid + harness._step(task) * 999, conv, checkpoint_path=history)
    s = _sizes_agree(tmp_path, task, conv, lo, hi, history.read_text(), (512, 4096, None))
    assert s.complete


def test_parallel_summary_matches_serial(monkeypatch):
    _fixed_chunks(monkeypatch, 128)
    serial = verify_range(Task.LEGENDRE, 1, 3000, INC)
    parallel = verify_range(Task.LEGENDRE, 1, 3000, INC, worker_count=3)
    assert serial.verified == parallel.verified == 3000
    assert serial.stats == parallel.stats


def test_flush_leaves_no_temp_file(tmp_path, monkeypatch):
    _fixed_chunks(monkeypatch, 64)
    monkeypatch.setattr(harness, "FLUSH_SECONDS", 0)
    cp = tmp_path / "g.jsonl"
    verify_range(Task.GOLDBACH, 2, 5000, INC, checkpoint_path=cp)
    assert not (tmp_path / "g.jsonl.tmp").exists()
    assert load_checkpoints(str(cp))[0].hi == 5000


def test_a_chunk_slower_than_the_flush_interval_is_on_disk_before_the_next(tmp_path,
                                                                         monkeypatch):
    cp = tmp_path / "g.jsonl"
    on_disk = []

    def slow(conv, lo, hi):
        # what a kill before this chunk would leave behind
        on_disk.append([(r.lo, r.hi) for r in load_checkpoints(str(cp))])
        time.sleep(0.02)
        return harness._check_goldbach(conv, lo, hi)

    monkeypatch.setitem(harness._CHECKERS, Task.GOLDBACH, slow)
    monkeypatch.setattr(harness, "FLUSH_SECONDS", 0.01)
    _fixed_chunks(monkeypatch, 64)
    verify_range(Task.GOLDBACH, 2, 640, INC, checkpoint_path=cp)
    assert on_disk == [[], [(2, 128)], [(2, 256)], [(2, 384)], [(2, 512)]]
    assert [(r.lo, r.hi) for r in load_checkpoints(str(cp))] == [(2, 640)]


def test_checkpoint_lock_excludes_concurrent_writers(tmp_path):
    cp = tmp_path / "g.jsonl"
    fd = os.open(str(cp) + ".lock", os.O_CREAT | os.O_RDWR)
    fcntl.flock(fd, fcntl.LOCK_EX)
    released = threading.Event()
    finished_after_release = []
    done = threading.Event()

    def run():
        verify_range(Task.GOLDBACH, 2, 100, INC, checkpoint_path=cp)
        finished_after_release.append(released.is_set())
        done.set()

    worker = threading.Thread(target=run)
    worker.start()
    time.sleep(0.2)
    assert not done.is_set()  # blocked on the lock (or not yet there)
    released.set()
    fcntl.flock(fd, fcntl.LOCK_UN)
    os.close(fd)
    worker.join(timeout=30)
    assert done.is_set() and finished_after_release == [True]


def test_kill_and_resume(tmp_path):
    cp = tmp_path / "kill.jsonl"
    child = (
        "from landau import harness\n"
        "harness._chunk_size, harness.FLUSH_SECONDS = lambda task: 512, 0\n"
        f"harness.verify_range(harness.Task.GOLDBACH, 2, 2000000, checkpoint_path={str(cp)!r})\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", child])
    deadline = time.time() + 60
    while time.time() < deadline:
        if cp.exists() and cp.stat().st_size > 0:
            break
        time.sleep(0.01)
    else:
        proc.kill()
        pytest.fail("child made no visible progress")
    time.sleep(0.05)
    proc.send_signal(signal.SIGKILL)
    proc.wait()

    recs = load_checkpoints(str(cp))  # parses despite the crash
    assert recs
    partial = sum(instance_count(Task.GOLDBACH, r.lo, r.hi) for r in recs)
    s = verify_range(Task.GOLDBACH, 2, 2000000, INC, checkpoint_path=cp)
    assert s.skipped == partial
    assert s.verified == 1000000 - partial
    assert s.complete
    spans = sorted((r.lo, r.hi) for r in load_checkpoints(str(cp)))
    assert spans[0][0] == 2 and spans[-1][1] == 2000000
    for (_, b), (a, _) in zip(spans, spans[1:]):
        assert a == b + 2


# ---------------------------------------------------------------------------
# checker semantics against the per-instance APIs


@given(two_n=st.integers(min_value=1, max_value=20000))
@settings(max_examples=60, deadline=None)
def test_descent_depth_matches_canonical_trace(two_n):
    two_n = 2 * two_n  # even instances only
    for conv in (INC, EXC):
        if two_n < 4 and conv is EXC:
            continue
        s = verify_range(Task.GOLDBACH, two_n, two_n, conv)
        _, trace = canonical_couple(two_n, conv)
        assert s.stats["max_depth"] == trace.depth()
        assert s.stats["max_depth_at"] == two_n


@given(gap=st.integers(min_value=1, max_value=2000))
@settings(max_examples=60, deadline=None)
def test_gap_witness_is_the_smallest(gap):
    gap = 2 * gap
    for conv in (INC, EXC):
        if gap < 4 and conv is EXC:
            continue  # the gap-2 witness needs the unit
        s = verify_range(Task.PRE_POLIGNAC, gap, gap, conv)
        assert s.stats["max_witness"] == oracles.pre_polignac_witness(gap, conv is INC)


def test_square_interval_first_prime_offsets():
    s = verify_range(Task.LEGENDRE, 1, 1, INC)
    assert s.stats["max_first_gap"] == 0  # the unit sits at 1^2 itself
    s = verify_range(Task.LEGENDRE, 1, 1, EXC)
    assert s.stats["max_first_gap"] == 1  # first prime is 2
    s = verify_range(Task.LEGENDRE, 1, 10000, INC)
    assert s.complete and s.verified == 10000


def test_parabolic_counts_match_direct_enumeration():
    s = verify_range(Task.PARABOLIC, 1, 200, INC)
    direct = [k for k in range(1, 201) if is_prime(k * k + 1, INC)]
    assert s.stats["parabolic"] == len(direct)
    assert s.stats["largest_parabolic_k"] == direct[-1]
    assert s.verified == 200 and s.complete


def test_record_stats_merge_like_a_single_run(tmp_path, monkeypatch):
    cp = tmp_path / "g.jsonl"
    whole = verify_range(Task.GOLDBACH, 2, 500, INC)
    _fixed_chunks(monkeypatch, 7)
    verify_range(Task.GOLDBACH, 2, 500, INC, checkpoint_path=cp)
    rec = load_checkpoints(str(cp))[0]
    assert rec.stats == whole.stats


@given(st.lists(st.tuples(st.integers(1, 200), st.integers(1, 10)), max_size=4))
@settings(max_examples=40, deadline=None)
def test_random_seeded_coverage_still_completes(tmp_path_factory, spans):
    tmp = tmp_path_factory.mktemp("seeded")
    cp = tmp / "g.jsonl"
    covered = []
    cursor = 2
    for start, width in sorted(spans):
        lo = max(cursor, 2 * start)
        hi = lo + 2 * width
        if hi > 400:
            break
        covered.append((lo, hi))
        cursor = hi + 4  # keep seeds disjoint and non-adjacent
    seed(cp, *[record(lo=lo, hi=hi, stats={"instances": (hi - lo) // 2 + 1})
               for lo, hi in covered])
    s = verify_range(Task.GOLDBACH, 2, 400, INC, checkpoint_path=cp)
    seeded = sum((hi - lo) // 2 + 1 for lo, hi in covered)
    assert s.skipped == seeded
    assert s.verified == 200 - seeded
    assert s.complete
    spans_after = sorted((r.lo, r.hi) for r in load_checkpoints(str(cp)))
    assert spans_after[0][0] == 2 and spans_after[-1][1] == 400
    for (_, b), (a, _) in zip(spans_after, spans_after[1:]):
        assert a == b + 2


def test_checkpoint_roundtrip_preserves_fields():
    cp = Checkpoint(Task.LEGENDRE, EXC, 1, 99, "verified",
                    {"instances": 99, "max_first_gap": 5, "max_first_gap_at": 4},
                    "2026-02-03T04:05:06Z")
    line = cp.to_json()
    obj = json.loads(line)
    assert obj["v"] == 1
    assert obj["task"] == "legendre"
    assert obj["convention"] == "exclude1"
    assert obj["ts"] == "2026-02-03T04:05:06Z"
    assert json.dumps(obj, sort_keys=True, separators=(",", ":")) == line


def test_square_interval_scan_agrees_with_sieve_route():
    # The certificate scan finds the first prime in [n^2, (n+1)^2] by direct
    # primality testing; legendre_primes sieves the whole interval.  The two
    # routes must name the same first prime for every n up to 500.
    from landau.gaps import legendre_primes

    for conv in (INC, EXC):
        for n in range(1, 501):
            s = verify_range(Task.LEGENDRE, n, n, conv)
            assert s.stats["max_first_gap"] == legendre_primes(n, conv)[0] - n * n, (
                conv,
                n,
            )
