"""Acceptance gate.

One test per acceptance criterion; `pytest -v tests/test_acceptance.py`
prints exactly one pass/fail line per criterion.  Stated time budgets are
asserted with perf counters around the operation they constrain.
"""

import json
import math
import random
import signal
import subprocess
import sys
import time
from bisect import bisect_right
from fractions import Fraction

from landau.config import Config
from landau.figurate import (
    parabolic_primes,
    square_triangular,
    three_triangular,
    triangle_index,
    triangle_number,
    faulhaber,
    zeta_partial,
)
from landau.gaps import legendre_primes, polignac_pairs
from landau.goldbach import CoupleKind, canonical_couple, enumerate_couples, quasi_couples
from landau.harness import Task, instance_count, load_checkpoints, verify_range
from landau.ideals import PrincipalIdeal, goldbach_ideal_analysis, radical, working_modulus
from landau.primes import PrimeConvention, is_prime, primes_in_range
from landau.reports import build_report
from landau.zn import crt_decompose, multiplication_table, totient, units_profile

from oracles import crt_reconstruct

from test_figurate import PARABOLIC_K, PARABOLIC_P
from test_gaps import LEGENDRE_ROWS, PUBLISHED_PAIRS
from test_goldbach import DESCENT_CHAINS, DESCENT_CHAINS_SMALL, RING_ROWS, chain
from test_zn import INVERSES_10, INVERSES_22, TABLE_10, TABLE_22

INC = PrimeConvention.INCLUDE1
EXC = PrimeConvention.EXCLUDE1


def test_c01_descent_chains_exact_under_one_second():
    chains = {**DESCENT_CHAINS_SMALL, **DESCENT_CHAINS}
    start = time.perf_counter()
    for two_n, expected in chains.items():
        assert chain(two_n, INC) == expected, two_n
        couple, _ = canonical_couple(two_n, INC)
        assert (couple.p, couple.q) == (expected[-1][1], expected[-1][0])
    elapsed = time.perf_counter() - start
    couple, _ = canonical_couple(670, INC)
    assert (couple.p, couple.q) == (11, 659)
    assert elapsed < 1.0, elapsed


def test_c02_multiplication_tables_exact_under_one_second():
    start = time.perf_counter()
    t10 = multiplication_table(10)
    t22 = multiplication_table(22)
    elapsed = time.perf_counter() - start
    assert t10.rows == TABLE_10
    assert t22.rows == TABLE_22
    assert dict(t10.inverses) == INVERSES_10
    assert dict(t22.inverses) == INVERSES_22
    assert elapsed < 1.0, elapsed


def test_c03_ring_summary_rows_exact():
    for two_n, row in RING_ROWS.items():
        profile = units_profile(two_n, INC)
        assert list(profile.units) == row["units"]
        assert profile.totient == totient(two_n) == row["phi"]
        assert list(profile.strong) == [u for u in row["units"] if is_prime(u, INC)]
        couples = [
            (p, q, canonical)
            for p, q, kind, canonical in enumerate_couples(two_n, INC)
            if kind is not CoupleKind.TRIVIAL or two_n == 2
        ]
        assert [(p, q) for p, q, _ in couples] == row["couples"]
        assert [(p, q) for p, q, canonical in couples if canonical] == [row["star"]]
        assert quasi_couples(two_n, INC) == row["quasi"]


def test_c04_ideal_analysis_examples_and_radical_rows():
    for two_n in (2, 4, 6):
        rep = goldbach_ideal_analysis(two_n)
        assert rep.generators == () and rep.couples == ()
    rep8 = goldbach_ideal_analysis(8)
    assert working_modulus(8).value() == 15
    assert working_modulus(8).factors == ((3, 1), (5, 1))
    assert rep8.maximal_subset == (3, 5) and rep8.couples == ((3, 5),)
    rep10 = goldbach_ideal_analysis(10)
    assert working_modulus(10).value() == 21 and rep10.couples == ((3, 7),)

    rep = goldbach_ideal_analysis(28)
    plain, wide = working_modulus(28), working_modulus(28, include_top=True)
    assert plain.value() == 239028075
    assert wide.value() == 717084225
    assert rep.maximal_subset == (5, 11, 17, 23)
    assert rep.couples == ((5, 23), (11, 17))
    for r in (plain, wide):
        assert r.primes() == (3, 5, 11, 13, 17, 19, 23)
    cfg = Config(workers=1)
    table = build_report("ideal-table", {"two_n": 28, "include_top": True}, cfg)
    by_rem = {e["remainder"]: e for e in table.payload["entries"]}
    containments = {
        5: ((2,), True),
        9: ((1,), False),
        11: ((3,), True),
        15: ((1, 2), True),
        17: ((5,), True),
        23: ((7,), True),
        25: ((2,), False),
    }
    assert set(by_rem) == set(containments)
    for rem, (indices, squarefree) in containments.items():
        entry = by_rem[rem]
        assert tuple(entry["maximal_indices"]) == indices, rem
        assert entry["squarefree"] == squarefree, rem

    assert working_modulus(220).primes()[:6] == (3, 7, 13, 17, 19, 23)
    table220 = build_report("ideal-table", {"two_n": 220}, cfg)
    descent = {e["remainder"]: e for e in table220.payload["entries"]}
    assert descent[9]["maximal_indices"] == [1] and not descent[9]["squarefree"]
    assert descent[21]["maximal_indices"] == [1, 2] and descent[21]["squarefree"]
    assert descent[23]["maximal_indices"] == [6] and descent[23]["squarefree"]


def test_c05_goldbach_certificate_to_a_million_and_oracle_to_50k():
    start = time.perf_counter()
    sweep = verify_range(Task.GOLDBACH, 2, 10**6, INC)
    elapsed = time.perf_counter() - start
    assert sweep.complete and not sweep.counterexamples
    assert sweep.verified == 500_000
    assert elapsed < 60.0, elapsed
    sweep_exc = verify_range(Task.GOLDBACH, 4, 10**6, EXC)
    assert sweep_exc.complete and not sweep_exc.counterexamples

    limit = 50_000
    primes = list(primes_in_range(1, limit, INC))
    flags = bytearray(limit + 1)
    for p in primes:
        flags[p] = 1

    def brute(two_n, allow_unit):
        lo = 0 if allow_unit else 1
        return [
            (p, two_n - p)
            for p in primes[lo : bisect_right(primes, two_n // 2)]
            if flags[two_n - p]
        ]

    for two_n in range(2, limit + 1, 2):
        got = [c[:2] for c in enumerate_couples(two_n, INC)]
        assert got == brute(two_n, True), two_n

    rng = random.Random(20260819)
    for two_n in rng.sample(range(4, limit + 1, 2), 500):
        got = [c[:2] for c in enumerate_couples(two_n, EXC)]
        assert got == brute(two_n, False), two_n


def test_c06_polignac_published_pairs_and_certificate_to_10k():
    for gap, published in PUBLISHED_PAIRS.items():
        q_max = max(q for q, _ in published)
        found = polignac_pairs(gap, q_max, INC)
        pairs = {(c.q, c.p) for c in found}
        blocks = {(c.q, c.p): c.block for c in found}
        for pair in published:
            assert pair in pairs, (gap, pair)
            assert blocks[pair] <= 4, (gap, pair)
    cert = verify_range(Task.PRE_POLIGNAC, 2, 10**4, INC)
    assert cert.complete and not cert.counterexamples


def test_c07_square_interval_rows_and_certificate_to_10k():
    for n, row in LEGENDRE_ROWS.items():
        assert legendre_primes(n, INC) == row
    assert legendre_primes(1, EXC) == [2, 3]
    start = time.perf_counter()
    cert = verify_range(Task.LEGENDRE, 1, 10**4, INC)
    elapsed = time.perf_counter() - start
    assert cert.complete and not cert.counterexamples
    assert cert.verified == 10**4
    assert elapsed < 120.0, elapsed


def test_c08_parabolic_marks_totient_equivalence_and_zeta_bounds():
    records = parabolic_primes(60)
    marked = [r.k for r in records if r.is_parabolic]
    assert marked == PARABOLIC_K
    assert [r.p for r in records if r.is_parabolic] == PARABOLIC_P

    for r in parabolic_primes(10**4):
        assert r.is_parabolic == (totient(r.p) == r.k**2), r.k

    for k_max in (2, 3, 5, 10, 25, 60):
        partial, upper = zeta_partial(k_max)
        assert math.isclose(upper, math.pi**2 / 6)
        assert 1 < float(partial) <= upper, k_max
    assert zeta_partial(10)[0] == Fraction(1) + Fraction(1, 4) + Fraction(
        1, 16
    ) + Fraction(1, 36) + Fraction(1, 100)


def test_c09_identity_suites_200_randomized_cases_each():
    Z = PrincipalIdeal.of_int
    rng = random.Random(97)

    for _ in range(200):  # radical idempotence
        a = Z(rng.randrange(1, 10**6))
        assert radical(radical(a)) == radical(a)

    for _ in range(200):  # CRT round-trip
        n = rng.randrange(1, 10**6)
        a = rng.randrange(n)
        assert crt_reconstruct(crt_decompose(a, n)) == a

    for _ in range(200):  # totient summed over divisors recovers n
        n = rng.randrange(1, 5000)
        assert sum(totient(d) for d in range(1, n + 1) if n % d == 0) == n

    for _ in range(200):  # unit raised to the group order is 1
        n = rng.randrange(2, 10**4)
        a = rng.randrange(1, n)
        while math.gcd(a, n) != 1:
            a = rng.randrange(1, n)
        assert pow(a, totient(n), n) == 1

    for _ in range(200):  # triangular addition/multiplication/square-split
        a, b = rng.randrange(1, 10**4), rng.randrange(1, 10**4)
        assert triangle_number(a + b) == triangle_number(a) + triangle_number(b) + a * b
        assert triangle_number(a * b) == (
            triangle_number(a) * triangle_number(b)
            + triangle_number(a - 1) * triangle_number(b - 1)
        )
        assert triangle_number(a) + triangle_number(a - 1) == a * a

    for k in range(1, 6):  # square triangular numbers are both at once
        s = square_triangular(k)
        assert math.isqrt(s) ** 2 == s
        assert triangle_number(triangle_index(s)) == s

    for _ in range(200):  # every n is a sum of at most three triangulars
        n = rng.randrange(0, 10**6)
        parts = three_triangular(n)
        assert len(parts) <= 3 and sum(parts) == n
        assert all(triangle_number(triangle_index(t)) == t for t in parts if t)

    for _ in range(200):  # closed-form power sums against direct summation
        m, n = rng.randrange(0, 6), rng.randrange(0, 200)
        assert faulhaber(m, n) == sum(k**m for k in range(1, n + 1))


def test_c10_harness_idempotent_worker_invariant_kill_resume(tmp_path):
    def strip_ts(path):
        return [
            {k: v for k, v in json.loads(line).items() if k != "ts"}
            for line in path.read_text().splitlines()
        ]

    # idempotence: a rerun over covered ground checks nothing and adds nothing
    cp = tmp_path / "idem.jsonl"
    first = verify_range(Task.GOLDBACH, 2, 20000, INC, checkpoint_path=cp)
    assert first.complete and first.verified == 10000
    content = cp.read_bytes()
    again = verify_range(Task.GOLDBACH, 2, 20000, INC, checkpoint_path=cp)
    assert again.verified == 0 and again.skipped == 10000 and again.complete
    assert cp.read_bytes() == content

    # worker invariance: identical records modulo timestamps
    solo, trio = tmp_path / "w1.jsonl", tmp_path / "w3.jsonl"
    s1 = verify_range(Task.GOLDBACH, 2, 20000, INC, checkpoint_path=solo, worker_count=1)
    s3 = verify_range(Task.GOLDBACH, 2, 20000, INC, checkpoint_path=trio, worker_count=3)
    assert (s1.verified, s1.stats) == (s3.verified, s3.stats)
    assert strip_ts(solo) == strip_ts(trio)

    # kill mid-run, then resume to completion with no gaps
    cp = tmp_path / "kill.jsonl"
    child = (
        "import dataclasses\nfrom landau import harness\n"
        "g = harness._RULES[harness.Task.GOLDBACH]\n"
        "harness._RULES[harness.Task.GOLDBACH] = dataclasses.replace(g, chunk=lambda lo: 512)\n"
        "harness.FLUSH_SECONDS = 0\n"
        f"harness.verify_range(harness.Task.GOLDBACH, 2, 1000000, checkpoint_path={str(cp)!r})\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", child])
    deadline = time.time() + 60
    while time.time() < deadline:
        if cp.exists() and cp.stat().st_size > 0:
            break
        time.sleep(0.01)
    else:
        proc.kill()
        raise AssertionError("child made no visible progress")
    proc.send_signal(signal.SIGKILL)
    proc.wait()
    partial = sum(instance_count(Task.GOLDBACH, r.lo, r.hi) for r in load_checkpoints(str(cp)))
    resumed = verify_range(Task.GOLDBACH, 2, 1000000, INC, checkpoint_path=cp)
    assert resumed.complete
    assert resumed.skipped == partial and resumed.verified == 500000 - partial
    spans = sorted((r.lo, r.hi) for r in load_checkpoints(str(cp)))
    assert spans[0][0] == 2 and spans[-1][1] == 1000000
    for (_, b), (a, _) in zip(spans, spans[1:]):
        assert a == b + 2
