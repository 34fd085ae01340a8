"""Fixed-gap prime pairs, dyadic block layout, and square-interval primes."""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landau.figurate import triangle_number
from landau.gaps import (
    POLIGNAC_MAX_WINDOW,
    LegendreCounterexample,
    legendre_primes,
    polignac_dyadic_search,
    polignac_pairs,
    twin_stats,
)
from landau.harness import Task, verify_range
from landau.primes import PrimeConvention, is_prime

from oracles import gap_pairs_by_is_prime, trial_division_prime

INC = PrimeConvention.INCLUDE1
EXC = PrimeConvention.EXCLUDE1

# pair lists printed for the six worked gaps; illustrative, not exhaustive,
# so tests check membership (every pair with q <= 32n is inside block m <= 4)
PUBLISHED_PAIRS = {
    2: [(1, 3), (3, 5), (5, 7), (11, 13), (17, 19), (29, 31)],
    4: [(3, 7), (7, 11), (13, 17), (19, 23), (43, 47), (37, 41)],
    6: [
        (1, 7),
        (5, 11),
        (17, 23),
        (13, 19),
        (11, 17),
        (7, 13),
        (41, 47),
        (37, 43),
        (31, 37),
        (23, 29),
        (83, 89),
        (73, 79),
        (61, 67),
        (53, 59),
        (47, 53),
    ],
    8: [
        (3, 11),
        (5, 13),
        (11, 19),
        (23, 31),
        (29, 37),
        (53, 61),
        (101, 109),
        (89, 97),
        (71, 79),
        (59, 67),
    ],
    10: [
        (1, 11),
        (3, 13),
        (7, 17),
        (19, 29),
        (13, 23),
        (61, 71),
        (43, 53),
        (37, 47),
        (139, 149),
        (127, 137),
        (103, 113),
        (79, 89),
        (73, 83),
    ],
    20: [
        (3, 23),
        (11, 31),
        (17, 37),
        (41, 61),
        (47, 67),
        (53, 73),
        (59, 79),
        (83, 103),
        (107, 127),
        (131, 151),
        (137, 157),
        (173, 193),
        (191, 211),
        (251, 271),
        (257, 277),
        (263, 283),
        (293, 313),
    ],
}

LEGENDRE_ROWS = {
    1: [1, 2, 3],
    2: [5, 7],
    3: [11, 13],
    4: [17, 19, 23],
    5: [29, 31],
    6: [37, 41, 43, 47],
    7: [53, 59, 61],
    8: [67, 71, 73, 79],
    9: [83, 89, 97],
    10: [101, 103, 107, 109, 113],
}


class TestPolignacPairs:
    def test_twin_search_includes_unit_pair(self):
        got = [(p.q, p.p) for p in polignac_pairs(2, 4, INC)]
        assert got == [(1, 3), (3, 5)]

    def test_gap_four_exact(self):
        got = [(p.q, p.p) for p in polignac_pairs(4, 28, EXC)]
        assert got == [(3, 7), (7, 11), (13, 17), (19, 23)]

    def test_gap_twenty_complete(self):
        # (23, 43) qualifies like the other three and must not be dropped
        got = [(p.q, p.p) for p in polignac_pairs(20, 37, EXC)]
        assert got == [(3, 23), (11, 31), (17, 37), (23, 43)]

    def test_published_pairs_are_found(self):
        for gap, printed in PUBLISHED_PAIRS.items():
            found = {(p.q, p.p) for p in polignac_pairs(gap, 32 * gap, INC)}
            missing = set(printed) - found
            assert not missing, (gap, missing)

    def test_members_prime_and_gap_exact(self):
        for gap in (2, 6, 12, 30):
            for pr in polignac_pairs(gap, 500, INC):
                assert pr.p - pr.q == gap
                assert is_prime(pr.q, INC) and is_prime(pr.p, INC)

    def test_complete_against_trial_division(self):
        for gap in (2, 4, 6, 8, 10, 20):
            for conv, inc1 in ((INC, True), (EXC, False)):
                got = [(p.q, p.p) for p in polignac_pairs(gap, 300, conv)]
                want = [
                    (q, q + gap)
                    for q in range(1, 301)
                    if trial_division_prime(q, inc1)
                    and trial_division_prime(q + gap, inc1)
                ]
                assert got == want, (gap, conv)

    def test_convention_moves_only_the_unit(self):
        inc = {(p.q, p.p) for p in polignac_pairs(6, 100, INC)}
        exc = {(p.q, p.p) for p in polignac_pairs(6, 100, EXC)}
        assert inc - exc == {(1, 7)}

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            polignac_pairs(3, 10)
        with pytest.raises(ValueError):
            polignac_pairs(0, 10)
        with pytest.raises(ValueError):
            polignac_pairs(2, 0)


class TestAgainstIsPrime:
    """The shifted AND of the prime flags against one is_prime call per value."""

    @settings(max_examples=40, deadline=None)
    @given(
        half_gap=st.integers(1, 256),
        q_max=st.integers(1, 5 * 10**4),
        conv=st.sampled_from(PrimeConvention),
    )
    @example(half_gap=256, q_max=5 * 10**4, conv=INC)
    @example(half_gap=1, q_max=5 * 10**4, conv=EXC)
    def test_polignac_pairs(self, half_gap, q_max, conv):
        two_n = 2 * half_gap
        got = [(c.q, c.p, c.block) for c in polignac_pairs(two_n, q_max, conv)]
        assert got == gap_pairs_by_is_prime(two_n, q_max, conv)

    @settings(max_examples=20, deadline=None)
    @given(n_max=st.integers(2, 5 * 10**4), conv=st.sampled_from(PrimeConvention))
    @example(n_max=5 * 10**4, conv=INC)
    def test_twin_stats(self, n_max, conv):
        want = [(q, p) for q, p, _ in gap_pairs_by_is_prime(2, n_max - 2, conv)]
        pairs = [(c.q, c.p) for c in polignac_pairs(2, n_max - 2, conv)] if n_max > 2 else []
        assert pairs == want and twin_stats(n_max, conv).count == len(want)


class TestWindowBound:
    """Both searches refuse a flag window q_max + 2n above the bound before
    they allocate it, naming the parameter that set it."""

    def test_pairs_at_and_past_the_bound(self):
        gap = POLIGNAC_MAX_WINDOW - 2
        assert polignac_pairs(gap, 2, EXC) == []  # no odd q <= 2 is prime
        with pytest.raises(ValueError, match=f"<= {POLIGNAC_MAX_WINDOW}, .* from q_max = 3$"):
            polignac_pairs(gap, 3, INC)
        with pytest.raises(ValueError, match="from q_max = 10"):
            polignac_pairs(2, 10**12)

    def test_dyadic_at_and_past_the_bound(self):
        # 2 * (2^22 + 1) fits the window; 2 * (2^23 + 1) does not
        assert polignac_dyadic_search(2, 22, INC)[22]
        for m in (23, 60):
            with pytest.raises(ValueError, match=f"<= {POLIGNAC_MAX_WINDOW}, .* from m_max = {m}$"):
                polignac_dyadic_search(2, m, INC)


class TestDyadicBlocks:
    def test_block_boundaries(self):
        # block 1 reaches q = 4n inclusive; each later block doubles
        by_q = {p.q: p.block for p in polignac_pairs(2, 64, INC)}
        assert by_q[1] == 1 and by_q[3] == 1
        assert by_q[5] == 2
        assert by_q[11] == 3
        assert by_q[17] == 4 and by_q[29] == 4
        assert by_q[41] == 5 and by_q[59] == 5

    def test_every_pair_lies_in_its_block(self):
        # block m is the smallest m >= 1 with q <= gap * 2^m
        for gap in (2, 6, 12, 30):
            for conv in (INC, EXC):
                for pr in polignac_pairs(gap, 500, conv):
                    assert pr.q <= gap << pr.block, pr
                    assert pr.block == 1 or pr.q > gap << (pr.block - 1), pr

    def test_partition_matches_flat_search(self):
        for gap in (2, 6, 10, 20):
            blocks = polignac_dyadic_search(gap, 5, INC)
            assert sorted(blocks) == [1, 2, 3, 4, 5]
            merged = [p for j in sorted(blocks) for p in blocks[j]]
            flat = polignac_pairs(gap, gap << 5, INC)
            assert sorted((p.q, p.p) for p in merged) == [(p.q, p.p) for p in flat]
            for j, ps in blocks.items():
                for p in ps:
                    assert p.block == j
                    assert p.q <= gap << j
                    if j > 1:
                        assert p.q > gap << (j - 1)

    def test_documented_memberships(self):
        twin_blocks = polignac_dyadic_search(2, 4, INC)
        everything = {(p.q, p.p) for ps in twin_blocks.values() for p in ps}
        assert {(11, 13), (17, 19), (29, 31)} <= everything
        six = polignac_dyadic_search(6, 4, INC)
        assert {(1, 7), (5, 11)} <= {(p.q, p.p) for ps in six.values() for p in ps}

    def test_zero_blocks_rejected(self):
        with pytest.raises(ValueError):
            polignac_dyadic_search(2, 0)

    def test_pair_count_grows_with_reach(self):
        for gap in (2, 4, 6, 10, 20, 36):
            counts = [len(polignac_pairs(gap, gap << m, INC)) for m in range(1, 9)]
            assert all(a <= b for a, b in zip(counts, counts[1:])), gap
            assert counts[-1] > counts[0], gap


class TestGapCertificate:
    """The per-gap certificate as `polignac verify` checks it: the stat
    max_witness of a one-gap range is that gap's smallest witness q."""

    @staticmethod
    def witness(two_n, conv=INC):
        return verify_range(Task.PRE_POLIGNAC, two_n, two_n, conv).stats["max_witness"]

    def test_witness_examples(self):
        assert [self.witness(t) for t in range(2, 21, 2)] == [
            1, 1, 1, 3, 1, 1, 3, 1, 1, 3,
        ]

    def test_witness_is_smallest(self):
        for two_n in range(2, 501, 2):
            w = self.witness(two_n)
            assert is_prime(w, INC) and is_prime(w + two_n, INC) and w < two_n
            for q in range(1, w):
                assert not (is_prime(q, INC) and is_prime(q + two_n, INC))

    def test_certificate_holds_everywhere(self):
        for lo, conv in ((2, INC), (4, EXC)):
            s = verify_range(Task.PRE_POLIGNAC, lo, 10_000, conv)
            assert s.complete and not s.counterexamples
            assert s.stats["max_witness"] < s.stats["max_witness_at"]


class TestLegendrePrimes:
    def test_documented_rows(self):
        for n, row in LEGENDRE_ROWS.items():
            if n == 1:
                assert legendre_primes(1, INC) == row
                assert legendre_primes(1, EXC) == row[1:]
            else:
                assert legendre_primes(n, INC) == row, n
                assert legendre_primes(n, EXC) == row, n

    def test_each_result_stays_in_interval(self):
        for n in (3, 12, 100, 777):
            row = legendre_primes(n)
            assert all(n * n <= p <= (n + 1) * (n + 1) for p in row)
            assert row == sorted(row)

    def test_nonempty_sweep(self):
        for n in range(1, 2_001):
            assert legendre_primes(n)

    def test_interval_matches_triangular_split(self):
        # the square interval endpoints are consecutive triangular sums
        for n in range(1, 501):
            lo = triangle_number(n - 1) + triangle_number(n)
            hi = triangle_number(n) + triangle_number(n + 1)
            assert lo == n * n and hi == (n + 1) * (n + 1)
            assert legendre_primes(n)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            legendre_primes(0)

    def test_empty_interval_is_reported(self, monkeypatch):
        import landau.gaps as gaps

        monkeypatch.setattr(gaps, "primes_in_range", lambda lo, hi, conv: [])
        with pytest.raises(LegendreCounterexample) as exc:
            gaps.legendre_primes(9)
        assert (exc.value.lo, exc.value.hi) == (81, 100)
