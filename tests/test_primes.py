from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau import primes
from landau.primes import (
    _MR_TIERS,
    _WHEEL,
    PrimeConvention,
    _odd_flags,
    is_prime,
    next_prime,
    prev_prime,
    prime_flags,
    primes_in_range,
    twin_stats,
)

from oracles import naive_prev_prime, naive_primes, trial_division_prime

INC = PrimeConvention.INCLUDE1
EXC = PrimeConvention.EXCLUDE1


class TestIsPrime:
    @pytest.mark.parametrize(
        "n,conv,expected",
        [
            (1, INC, True),
            (1, EXC, False),
            (997, EXC, True),
            (997, INC, True),
            (21, INC, False),
            (21, EXC, False),
            (0, INC, False),
            (-7, INC, False),
            (2, EXC, True),
        ],
    )
    def test_pinned(self, n, conv, expected):
        assert is_prime(n, conv) is expected

    def test_oracle_equivalence_up_to_1e5(self):
        for n in range(2, 100001):
            assert is_prime(n, EXC) == trial_division_prime(n, include1=False), n

    def test_convention_only_changes_1(self):
        for n in range(0, 2000):
            if n != 1:
                assert is_prime(n, INC) == is_prime(n, EXC)

    @pytest.mark.parametrize(
        "n,expected",
        [
            # spot checks straddling the witness-set tier boundaries
            (2_047, False),
            (1_373_653, False),
            (41 * 43, False),
            (257 * 257, False),
            (257 * 263, False),
            (263 * 263, False),
            (25_326_001, False),
            (15_188_557, False),  # 1949 * 7793, a strong pseudoprime to 2 and 7
            (3_215_031_751, False),  # 151 * 751 * 28351, caught by the gcd
            (4_759_123_141, False),  # 48781 * 97561, by the next tier
            (2_152_302_898_747, False),
            (67_280_421_310_721, True),  # known prime (Fermat factor)
            (2_305_843_009_213_693_951, True),  # 2^61 - 1
            ((1 << 61) - 1 + 2, False),
        ],
    )
    def test_tier_boundaries(self, n, expected):
        assert is_prime(n, EXC) is expected

    def test_tier_table_shape(self):
        bounds = [bound for bound, _ in _MR_TIERS]
        assert bounds == sorted(set(bounds))
        assert bounds[-1] == 1 << 64

    def test_beyond_64_bits(self):
        # False with a prime factor up to 257, otherwise a refusal
        big = (1 << 61) - 1
        assert is_prime(1 << 64, EXC) is False
        assert is_prime(257 * big, EXC) is False
        with pytest.raises(ValueError):
            is_prime(263 * big, EXC)
        with pytest.raises(ValueError):
            is_prime((1 << 64) + 1, EXC)  # 274177 * 67280421310721

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=300)
    def test_agrees_with_trial_division(self, n):
        assert is_prime(n, EXC) == trial_division_prime(n, include1=False)

    @given(
        st.integers(min_value=0, max_value=5 * 10**9),
        st.integers(min_value=4096, max_value=8192),
    )
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_sieved_windows(self, lo, width):
        hi = lo + width
        got = primes_in_range(lo, hi, EXC)
        assert got == [k for k in range(lo, hi + 1) if is_prime(k, EXC)]


class TestPrevNextPrime:
    @pytest.mark.parametrize(
        "n,conv,expected",
        [
            (220, INC, 211),
            (2, EXC, None),
            (2, INC, 1),
            (28, INC, 23),
            (28, EXC, 23),
            (3, EXC, 2),
            (1, INC, None),
            (0, INC, None),
        ],
    )
    def test_pinned(self, n, conv, expected):
        assert prev_prime(n, conv) == expected

    def test_oracle_small(self):
        for n in range(0, 500):
            assert prev_prime(n, INC) == naive_prev_prime(n, include1=True)
            assert prev_prime(n, EXC) == naive_prev_prime(n, include1=False)

    def test_round_trip_through_next_prime(self):
        for p in primes_in_range(2, 100000, EXC):
            assert prev_prime(next_prime(p, EXC), EXC) == p

    @pytest.mark.parametrize("conv", [INC, EXC])
    def test_wheel_walks_match_flags(self, conv):
        # around each multiple of the wheel's modulus, where the walks wrap
        top = 12 * _WHEEL + 200
        primes = [k for k, f in enumerate(prime_flags(top, conv)) if f]
        for n in range(0, 12 * _WHEEL + 31):
            if 30 < n % _WHEEL < _WHEEL - 30:
                continue
            i = bisect_right(primes, n)
            assert next_prime(n, conv) == primes[i], n
            j = bisect_left(primes, n)
            assert prev_prime(n, conv) == (primes[j - 1] if j else None), n

    @pytest.mark.parametrize("conv", [INC, EXC])
    def test_below_zero(self, conv):
        for n in range(-10, 0):
            assert prev_prime(n, conv) is None
            assert next_prime(n, conv) == (1 if conv is INC else 2)

    def test_next_prime_small(self):
        assert next_prime(0, INC) == 1
        assert next_prime(0, EXC) == 2
        assert next_prime(1) == 2
        assert next_prime(2) == 3
        assert next_prime(89) == 97


class TestPrimesInRange:
    @pytest.mark.parametrize(
        "lo,hi,conv,expected",
        [
            (16, 25, EXC, [17, 19, 23]),
            (1, 4, INC, [1, 2, 3]),
            (1, 4, EXC, [2, 3]),
            (90, 96, INC, []),
            (0, 2, EXC, [2]),
            (53, 53, EXC, [53]),
        ],
    )
    def test_pinned(self, lo, hi, conv, expected):
        assert primes_in_range(lo, hi, conv) == expected

    def test_usage_error(self):
        with pytest.raises(ValueError):
            primes_in_range(10, 5, INC)
        with pytest.raises(ValueError):
            primes_in_range(-1, 5, INC)

    def test_matches_naive(self):
        assert primes_in_range(0, 1000, INC) == naive_primes(0, 1000, include1=True)
        assert primes_in_range(0, 1000, EXC) == naive_primes(0, 1000, include1=False)

    def test_segment_composition(self):
        whole = primes_in_range(0, 30000, EXC)
        left = primes_in_range(0, 17389, EXC)
        right = primes_in_range(17390, 30000, EXC)
        assert left + right == whole

    # sqrt(hi) below the cap on the base primes (up to 10^13) and above it,
    # where what survives the capped sieve is tested
    @pytest.mark.parametrize("width", [10, 1000, 1 << 17], ids=["tiny", "narrow", "wide"])
    @pytest.mark.parametrize(
        "hi", [10**3, 10**6, 10**9, 10**12, 10**13, 3 * 10**13, 10**15, 10**18, 2**64 - 2**13]
    )
    def test_windows_match_is_prime_on_both_sides_of_the_cap(self, hi, width):
        lo = max(hi - width, 0)
        got = primes_in_range(lo, hi, EXC)
        assert got == [k for k in range(lo, hi + 1) if is_prime(k, EXC)]

    def test_base_table_grows_on_demand_and_never_past_its_cap(self, monkeypatch):
        # start from the seed table, which covers [2, 36]
        monkeypatch.setattr(primes, "_base_primes", primes._base_primes[:11])
        monkeypatch.setattr(primes, "_base_limit", 36)
        _odd_flags(3, 4 * 10**6, EXC)  # a sweep to 4e6 needs the primes to 2,000
        assert primes._base_limit < 1 << 12
        # 2^17 odd slots at 10^18: their width term, about 6.9e6, passes the
        # cap, but is_prime tests what the sieve leaves, so it strikes to r only
        _odd_flags(10**18, 10**18 + (1 << 18), EXC)
        assert primes._base_limit == primes._TEST_COST * (1 << 17)
        # the same width below 2^44, whose square root is the cap: sieved whole
        _odd_flags(2**44 - (1 << 18), 2**44, EXC)
        assert primes._base_primes[-1] <= primes._BASE_LIMIT == primes._base_limit

    def test_window_past_64_bits_is_refused_before_it_allocates(self):
        # 2^40 slots would be a MemoryError, were the window allocated
        with pytest.raises(ValueError, match="beyond the supported 64-bit range"):
            _odd_flags(2**64 - 2**13, 2**64 + 2**41, EXC)
        with pytest.raises(ValueError, match="beyond the supported 64-bit range"):
            primes_in_range(2**64, 2**64 + 10**12, EXC)

    def test_prime_flags_consistent(self):
        for conv in (INC, EXC):
            flags = prime_flags(3000, conv)
            assert [k for k, f in enumerate(flags) if f] == primes_in_range(0, 3000, conv)

    @given(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=200)
    def test_membership_matches_is_prime(self, lo, width):
        hi = lo + width
        got = primes_in_range(lo, hi, INC)
        assert got == [k for k in range(lo, hi + 1) if is_prime(k, INC)]


class TestTwinStats:
    def test_pinned_exclude1(self):
        s = twin_stats(20, EXC)
        assert s.count == 4
        assert s.pairs == ((3, 5), (5, 7), (11, 13), (17, 19))

    def test_pinned_small(self):
        assert twin_stats(4, EXC).count == 0
        s = twin_stats(4, INC)
        assert s.count == 1 and s.pairs == ((1, 3),)

    def test_domain(self):
        with pytest.raises(ValueError):
            twin_stats(1, EXC)
        assert twin_stats(2, EXC).count == 0

    def test_brun_sum_value(self):
        s = twin_stats(20, EXC)
        expected = (
            Fraction(1, 3) + Fraction(1, 5)
            + Fraction(1, 5) + Fraction(1, 7)
            + Fraction(1, 11) + Fraction(1, 13)
            + Fraction(1, 17) + Fraction(1, 19)
        )
        assert s.brun_sum == expected

    @pytest.mark.parametrize("n_max", [3, 5, 7, 100, 2_003, 30_000])
    @pytest.mark.parametrize("conv", [INC, EXC])
    def test_brun_sum_equals_the_sequential_sum(self, n_max, conv):
        s = twin_stats(n_max, conv)
        acc = Fraction(0)
        for p, q in s.pairs:
            acc += Fraction(1, p) + Fraction(1, q)
        assert s.brun_sum == acc

    def test_brun_sums_nondecreasing(self):
        prev = Fraction(0)
        for n in range(2, 400):
            cur = twin_stats(n, EXC).brun_sum
            assert cur >= prev
            prev = cur

    def test_bound_shape(self):
        import math

        s = twin_stats(1000, EXC)
        assert s.brun_bound == pytest.approx(1000 / math.log(1000) ** 2)
