import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau import primes
from landau.gaps import polignac_pairs, twin_stats
from landau.primes import (
    _BASE_LIMIT,
    _LEGENDRE_SLOTS,
    _MR_TIERS,
    _SQUARE_SIEVE_TOP,
    _WHEEL,
    PrimeConvention,
    _first_gaps,
    _odd_flags,
    _root_plan,
    _square_flags,
    _square_floor,
    _square_roots,
    _square_sieve_pays,
    _sieved_rows,
    is_prime,
    next_prime,
    prev_prime,
    prime_flags,
    primes_in_range,
)

from oracles import naive_prev_prime, naive_primes, tonelli_shanks_roots, trial_division_prime

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

    def test_prime_flags_refuse_a_negative_top(self):
        with pytest.raises(ValueError, match="hi must be nonnegative"):
            prime_flags(-1)

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


class TestSquareFlags:
    # rows from 3014 and from the odd row after it, and at 10^4, 10^5 and
    # 2^20; step-2 rows over even k are the parabolic k^2 + 1; and blocks up
    # to the least top that sieves, from their floors, where k^2 is just past
    # the base primes and the values are below them at the block's top
    @pytest.mark.parametrize(
        "ks,slots",
        [(range(3014, 3413), 8), (range(3015, 3215), 8), (range(10**4, 10**4 + 300), 16),
         (range(10**5, 10**5 + 200), 8), (range(2**20, 2**20 + 100), 2),
         (range(3015, 3314, 2), 3), (range(3014, 7012, 2), 1), (range(2**20, 2**20 + 2000, 2), 1),
         (range(3 * 10**4, 3 * 10**4 + 300), _LEGENDRE_SLOTS),
         (range(_square_floor(_SQUARE_SIEVE_TOP, _LEGENDRE_SLOTS), _SQUARE_SIEVE_TOP + 1),
          _LEGENDRE_SLOTS),
         (range(_square_floor(_SQUARE_SIEVE_TOP, 1) + 1 & -2, _SQUARE_SIEVE_TOP + 1, 2), 1)],
        ids=["small", "3014", "1e4", "1e5", "2^20", "odd-rows", "parabolic", "parabolic-2^20",
             "legendre-3e4", "legendre-floor", "parabolic-floor"],
    )
    def test_flags_equal_is_prime_of_each_value(self, ks, slots):
        values = [k * k + 2 * s + 1 + (k & 1) for k in ks for s in range(slots)]
        assert list(_square_flags(ks, slots)) == [is_prime(v) for v in values]

    def test_rows_past_the_base_prime_cap_are_refused_before_they_allocate(self):
        # the parabolic rows just below 2^32 need base primes up to 2^32, and
        # so do the even k from the floor to 2^32, a span wide enough to pay
        # for its primes, as the even k from the floor to 2^22 do within the cap
        assert _square_sieve_pays(range(_square_floor(2**22 - 2, 1), 2**22, 2))
        for ks in (range(2**32 - 2**15, 2**32, 2), range(_square_floor(2**32 - 2, 1), 2**32, 2)):
            assert not _square_sieve_pays(ks)
            with pytest.raises(ValueError, match="past"):
                _square_flags(ks, 1)

    # rows below the floor, a step of 3, no rows, no slots, a block whose
    # first row is one below its floor, Legendre's and parabolic's, and
    # negative rows, whose squares would pass their base primes
    @pytest.mark.parametrize("ks,slots", [
        (range(0, 10), 1), (range(3014, 3030, 3), 1), (range(3020, 3020), 1), (range(3014, 3030), 0),
        (range(_square_floor(3099, 1) - 1, 3100), 1),
        (range(_square_floor(_SQUARE_SIEVE_TOP, _LEGENDRE_SLOTS) - 1, _SQUARE_SIEVE_TOP + 1),
         _LEGENDRE_SLOTS),
        (range(-100, -90), 1)])
    def test_bad_rows_are_refused(self, ks, slots):
        with pytest.raises(ValueError, match="needs rows"):
            _square_flags(ks, slots)

    def test_the_sieve_pays_while_its_primes_number_a_quarter_of_its_span(self):
        # the primes up to 59,999, counted as 59,999 / ln 60,001 = 5,453.4,
        # are a quarter of 21,813.6 rows
        assert _square_sieve_pays(range(38_186, 60_000))
        assert not _square_sieve_pays(range(38_187, 60_000))
        assert not _square_sieve_pays(range(5, 5))

    # where each caller's spans switch from walking to sieving, at the least
    # top, one row or even k apart: parabolic zeta and list at k_max = 1999
    # and 2000 (their even k from 2), the ghost table at n_max = 1999 and
    # 2000 (its even k from 42) and a Legendre chunk (its rows from 1); the
    # sieved rows start at the floor of their top, and the walked ones are
    # none; the quarter rule alone would sieve the shorter span too, so the
    # least top is what keeps it walked
    @pytest.mark.parametrize("ks,slots", [
        (range(2, _SQUARE_SIEVE_TOP + 1, 2), 1),
        (range(42, _SQUARE_SIEVE_TOP + 1, 2), 1),
        (range(1, _SQUARE_SIEVE_TOP + 1), _LEGENDRE_SLOTS),
    ], ids=["parabolic", "ghost-table", "legendre"])
    def test_the_sieve_takes_over_where_it_did_for_each_task(self, monkeypatch, ks, slots):
        walked, sieved = _sieved_rows(ks[:-1], slots), _sieved_rows(ks, slots)
        assert not walked and walked.start == ks[:-1].stop
        floor = _square_floor(_SQUARE_SIEVE_TOP, slots)
        assert sieved == range(floor + (ks.start - floor) % ks.step, ks.stop, ks.step)
        assert not _square_sieve_pays(ks[:-1]) and _square_sieve_pays(sieved)
        monkeypatch.setattr(primes, "_SQUARE_SIEVE_TOP", 0)
        assert _sieved_rows(ks[:-1], slots)

    def test_the_floor_is_past_the_base_primes_and_within_two_bases(self):
        # a block's floor is the least row whose square passes every base
        # prime the block strikes with, so the sieve needs no case for a prime
        # that strikes itself; and the rows a block tests one by one, below
        # the floor of the tallest block the cap lets sieve or in a block
        # below the least top, Legendre's _LEGENDRE_SLOTS odd values above n^2
        # the tallest, are proven by is_prime's two-base tier
        for slots in (1, 2, _LEGENDRE_SLOTS):
            for top in (_SQUARE_SIEVE_TOP, 3014, 10**4, 61_021 + 2**15, _BASE_LIMIT - 1):
                limit = math.isqrt(top * top + 2 * slots)
                floor = _square_floor(top, slots)
                assert (floor - 1) ** 2 <= limit < floor**2, (slots, top)
            for tested in (_square_floor(_BASE_LIMIT, slots) - 1, _SQUARE_SIEVE_TOP - 1):
                assert tested**2 + 2 * _LEGENDRE_SLOTS < _MR_TIERS[1][0]
        assert len(_MR_TIERS[1][1]) == 2


# a root's class repeats every 2p / step rows, so a block of exactly that
# many rows holds one slot of it: the primes below p strike their classes by
# slice, and p and the primes above it by index; 50 is a few rows past 46,
# the floor of the tallest of these blocks from it, whose top is 2075
@pytest.mark.parametrize("h", [50, 3014, 10**4])
@pytest.mark.parametrize("p", [3, 101, 1013])
@pytest.mark.parametrize("step,slots", [(1, _LEGENDRE_SLOTS), (2, 1)], ids=["legendre", "parabolic"])
def test_square_flags_at_a_stride_as_long_as_the_block(h, p, step, slots):
    ks = range(h, h + 2 * p, step)
    assert len(ks) == 2 * p // step
    values = [k * k + 2 * s + 1 + (k & 1) for k in ks for s in range(slots)]
    assert list(_square_flags(ks, slots)) == [is_prime(v) for v in values]


# _first_gaps run to its end, as _check_legendre's zip never runs it, on a
# span below the least top and on one above it too narrow for the sieve to
# pay, where every row is walked, and on the span to the least top, sieved
# from its floor and walked below it: the generator stops after the last row
@pytest.mark.parametrize("lo,hi,sieved", [(1, 300, False), (3014, 3113, False),
                                          (1, _SQUARE_SIEVE_TOP, True)],
                         ids=["below-floor", "walked-from-floor", "sieved-from-floor"])
@pytest.mark.parametrize("conv", [INC, EXC])
def test_first_gaps_exhausted_equal_a_next_prime_walk(lo, hi, sieved, conv):
    assert bool(_sieved_rows(range(lo, hi + 1), _LEGENDRE_SLOTS)) == sieved
    assert list(_first_gaps(lo, hi, conv)) == [next_prime(n * n - 1, conv) - n * n
                                                 for n in range(lo, hi + 1)]


# the offsets the square sieve asks roots for: a Legendre row's both
# parities, its even offsets alone (step-2 rows over odd k), and parabolic's 1
_OFFSETS = [range(1, 2 * _LEGENDRE_SLOTS + 1), range(2, 2 * _LEGENDRE_SLOTS + 1, 2), range(1, 3, 2)]


class TestSquareRoots:
    def test_roots_are_every_x_whose_square_is_minus_j(self):
        for p in naive_primes(3, 2**11):
            squares = {}
            for x in range(p):
                squares.setdefault(x * x % p, []).append(x)
            for offsets in _OFFSETS:
                got = _square_roots(p, offsets)
                assert len(got) == len(set(got))
                assert set(got) == {(j, x) for j in offsets for x in squares.get(-j % p, ())}, (p, offsets)

    def test_closed_forms_find_what_tonelli_shanks_found(self):
        # every class mod 8 of the primes below 2^18, past and up to the
        # largest offset, for each set of offsets the sieve asks roots for;
        # each set is within the first, so one oracle call serves all three
        ps = primes_in_range(3, 2**18)
        assert {p % 8 for p in ps} == {1, 3, 5, 7}
        assert all(set(offsets) <= set(_OFFSETS[0]) for offsets in _OFFSETS)
        for p in ps:
            roots = tonelli_shanks_roots(p, _OFFSETS[0])
            for offsets in _OFFSETS:
                got = _square_roots(p, offsets)
                assert len(got) == len(set(got)), (p, offsets)
                assert set(got) == {(j, x) for j, x in roots if j in offsets}, (p, offsets)

    def test_residue_classes_follow_eulers_criterion(self):
        # _square_roots sends every odd prime through these bytes, so each
        # byte is 0 where p divides j (a prime up to 23 here)
        ps = primes_in_range(3, 2**16 - 1)
        tables, _ = _root_plan(_OFFSETS[0])
        assert [j for j, _, _ in tables] == list(_OFFSETS[0])
        for j, table, m in tables:
            assert m == len(table) == 4 * j
            for p in ps:
                if j % p:
                    assert table[p % (4 * j)] == (pow(-j, (p - 1) // 2, p) == 1), (j, p)
                else:
                    assert p <= 23 and table[p % (4 * j)] == 0, (j, p)


def _twins(n_max, conv):
    """The twin pairs (p, p+2) with p+2 <= n_max that twin_stats counts and sums."""
    return [(c.q, c.p) for c in polignac_pairs(2, n_max - 2, conv)]


class TestTwinStats:
    def test_pinned_exclude1(self):
        s = twin_stats(20, EXC)
        assert s.count == 4
        assert _twins(20, EXC) == [(3, 5), (5, 7), (11, 13), (17, 19)]

    def test_pinned_small(self):
        assert twin_stats(4, EXC).count == 0
        s = twin_stats(4, INC)
        assert s.count == 1 and _twins(4, INC) == [(1, 3)]

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
        for p, q in _twins(n_max, conv):
            acc += Fraction(1, p) + Fraction(1, q)
        assert s.count == len(_twins(n_max, conv)) and s.brun_sum == acc

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
