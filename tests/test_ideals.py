"""Tests for principal ideals, radicals, Bezout certificates, and the
even-number ideal analysis."""
import math
import random
import time
import tracemalloc
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau.config import Config
from landau.ideals import (
    IDEAL_ANALYSIS_MAX_TWO_N,
    PrincipalIdeal,
    bezout,
    goldbach_ideal_analysis,
    jacobson_radical_zn,
    radical,
    working_modulus,
)
from landau.primes import PrimeConvention, is_prime
from landau.reports import build_report
from landau.zn import Factorization, factorize, unit_inverse

from oracles import egcd, naive_factorize

INC = PrimeConvention.INCLUDE1
EXC = PrimeConvention.EXCLUDE1

Z = PrincipalIdeal.of_int


def kernel(n: int) -> int:
    """The squarefree kernel of n: the product of its distinct primes."""
    return math.prod(naive_factorize(n))


def ideal_entries(two_n: int, include_top: bool = False) -> dict[int, dict]:
    """The ideal-table rows of 2n as payload entries keyed by generator b."""
    params = {"two_n": two_n, "include_top": include_top}
    report = build_report("ideal-table", params, Config(workers=1))
    return {e["generator_unit"]: e for e in report.payload["entries"]}


class TestPrincipalIdeal:
    def test_generator_must_divide_modulus(self):
        with pytest.raises(ValueError):
            PrincipalIdeal(factorize(5), factorize(12))
        with pytest.raises(ValueError):
            PrincipalIdeal(factorize(8), factorize(12))


class TestRadical:
    @pytest.mark.parametrize("n,rad", [(4, 2), (7, 7), (360, 30), (1, 1)])
    def test_pinned(self, n, rad):
        assert radical(Z(n)).generator.value() == rad

    def test_idempotent(self):
        rng = random.Random(29)
        for _ in range(200):
            a = Z(rng.randrange(1, 10**6))
            assert radical(radical(a)) == radical(a)

    def test_radical_of_product_is_intersection_of_radicals(self):
        rng = random.Random(31)
        for _ in range(200):
            a, b = rng.randrange(1, 10**4), rng.randrange(1, 10**4)
            assert radical(Z(a * b)) == Z(math.lcm(kernel(a), kernel(b)))
        # and inside a quotient, where the product is capped at the modulus
        mod = 2**3 * 3**2 * 5
        M = factorize(mod)
        for d, e in [(4, 6), (8, 15), (12, 30), (2, 180)]:
            product = PrincipalIdeal(factorize(math.gcd(d * e, mod)), M)
            assert radical(product) == PrincipalIdeal(
                factorize(math.lcm(kernel(d), kernel(e))), M
            )


class TestJacobson:
    def test_pinned(self):
        j = jacobson_radical_zn(12)
        assert j.generator.value() == 6 and j.modulus.value() == 12
        j15 = jacobson_radical_zn(15)
        assert j15.generator == j15.modulus  # the zero ideal
        j30 = jacobson_radical_zn(30)
        assert j30.generator == j30.modulus  # squarefree modulus

    def test_equals_intersection_of_maximals(self):
        # the maximal ideals of Z_n are pZ/nZ for p | n; they meet in lcm(p)
        for n in range(2, 500):
            expected = PrincipalIdeal(factorize(kernel(n)), factorize(n))
            assert jacobson_radical_zn(n) == expected, n

    def test_equals_nilradical(self):
        # radical of the zero ideal
        for n in range(2, 500):
            zero = PrincipalIdeal(factorize(n), factorize(n))
            assert jacobson_radical_zn(n) == radical(zero), n


class TestBezout:
    def test_pinned(self):
        assert bezout(21, 19) == (1, -9, 10)
        assert bezout(7, 7) == (7, 1, 0)
        d, x, y = bezout(22, 19)
        assert d == 1 and 22 * x + 19 * y == 1

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            bezout(0, 0)

    @given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=300)
    def test_identity_and_bounds(self, a, b):
        d, x, y = bezout(a, b)
        assert a * x + b * y == d == math.gcd(a, b)
        assert abs(x) <= b // d and abs(y) <= a // d

    @given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=-10**6, max_value=10**6))
    @settings(max_examples=200)
    def test_identity_with_signs(self, a, b):
        if a == 0 and b == 0:
            return
        d, x, y = bezout(a, b)
        assert a * x + b * y == d == math.gcd(a, b) > 0

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=300)
    def test_matches_recursive_euclid(self, a, b):
        if a == b:
            return  # bezout answers a == b without running Euclid
        assert bezout(a, b) == egcd(a, b)

    def test_long_inputs_do_not_recurse(self):
        # consecutive Fibonacci numbers are Euclid's longest case: F(3001)
        # and F(3000) take about 3,000 division steps
        f_prev, f = 0, 1
        for _ in range(3000):
            f_prev, f = f, f_prev + f
        rng = random.Random(59)
        pairs = [(f, f_prev)] + [(rng.getrandbits(4000), rng.getrandbits(4000)) for _ in range(3)]
        for a, b in pairs:
            d, x, y = bezout(a, b)
            assert a * x + b * y == d == math.gcd(a, b)
            assert abs(x) <= b // d and abs(y) <= a // d

    def test_links_to_unit_inverse(self):
        rng = random.Random(47)
        for _ in range(200):
            n = rng.randrange(2, 10**6)
            a = rng.randrange(1, n)
            if math.gcd(a, n) != 1:
                continue
            d, x, _ = bezout(a, n)
            assert d == 1
            assert x % n == unit_inverse(a, n)


class TestIdealLatticeChains:
    def test_atoms_are_primes_and_chains_stabilize(self):
        # in the divisor lattice of Z_n, the last proper step of any maximal
        # ascending chain is a prime-generated (i.e. maximal) ideal
        for n in range(2, 5001):
            primes = list(factorize(n).primes())
            divs = sorted(d for d in range(2, n + 1) if n % d == 0)
            atoms = [d for d in divs if all(d % q != 0 or q == d for q in divs)]
            assert atoms == primes, n
            # explicit chain: divide out the smallest prime until one is left
            d = n
            while d not in primes:
                d //= min(factorize(d).primes())
            assert is_prime(d, EXC) and n % d == 0  # so dZ/nZ is maximal


class TestGoldbachIdealAnalysis:
    def test_pinned_8(self):
        rep = goldbach_ideal_analysis(8)
        r = working_modulus(8)
        assert r.value() == 15
        assert r.factors == ((3, 1), (5, 1))
        assert rep.remainders == (3, 5) and rep.generators == (5, 3)
        assert rep.maximal_subset == (3, 5) and rep.couples == ((3, 5),)
        assert rep.noether == (1, 7) and rep.trivial is None

    def test_pinned_10(self):
        rep = goldbach_ideal_analysis(10)
        r = working_modulus(10)
        assert r.value() == 21 and r.factors == ((3, 1), (7, 1))
        assert rep.couples == ((3, 7),)
        assert rep.noether is None and rep.trivial == (5, 5)

    def test_pinned_small_empty(self):
        for two_n in (2, 4, 6):
            rep = goldbach_ideal_analysis(two_n)
            assert rep.generators == () and rep.couples == ()
        rep6 = goldbach_ideal_analysis(6)
        assert rep6.noether == (1, 5) and rep6.trivial == (3, 3)
        rep2 = goldbach_ideal_analysis(2)
        assert rep2.noether == (1, 1) and rep2.trivial == (1, 1)
        assert goldbach_ideal_analysis(6, EXC).noether is None

    def test_the_widest_analysis_stays_within_the_call_budget(self):
        # 2n = 2p with p prime has the most units: the worst 2n below the bound
        assert is_prime(1_249_999) and IDEAL_ANALYSIS_MAX_TWO_N - 2_499_998 == 2
        tracemalloc.start()
        try:
            rep = goldbach_ideal_analysis(2_499_998)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rep.generators) > 10**5
        assert peak < 64 << 20

    @pytest.mark.parametrize("past", [0, 2, 10**20])
    def test_past_the_bound_is_refused_at_once(self, past):
        two_n = IDEAL_ANALYSIS_MAX_TWO_N + past
        if not past:
            rep = goldbach_ideal_analysis(two_n)
            assert {b + rem for b, rem in zip(rep.generators, rep.remainders)} == {two_n}
            return
        start = time.perf_counter()
        with pytest.raises(ValueError, match=(
            f"goldbach_ideal_analysis needs two_n <= {IDEAL_ANALYSIS_MAX_TWO_N}, "
            f"got two_n = {two_n}$"
        )):
            goldbach_ideal_analysis(two_n)
        assert time.perf_counter() - start < 0.1

    def test_usage_errors(self):
        with pytest.raises(ValueError):
            goldbach_ideal_analysis(9)
        with pytest.raises(ValueError):
            goldbach_ideal_analysis(0)

    def test_r_is_the_lcm_of_the_units(self):
        for two_n in range(2, 601, 2):
            inner = [u for u in range(2, two_n - 1) if math.gcd(u, two_n) == 1]
            for include_top in (False, True):
                lcm_inputs = inner + [two_n - 1] if include_top and two_n >= 3 else inner
                want = factorize(reduce(math.lcm, lcm_inputs, 1))
                assert working_modulus(two_n, include_top) == want

    def test_pinned_28_under_both_moduli(self):
        rep = goldbach_ideal_analysis(28)
        plain, wide = working_modulus(28), working_modulus(28, include_top=True)
        assert plain.value() == 239028075
        assert wide.value() == 717084225
        assert rep.maximal_subset == (5, 11, 17, 23)
        assert rep.couples == ((5, 23), (11, 17))
        assert rep.remainders == (5, 9, 11, 15, 17, 23, 25)
        for r in (plain, wide):
            assert r.primes() == (3, 5, 11, 13, 17, 19, 23)

    def test_pinned_28_containments(self):
        entries = ideal_entries(28, include_top=True)
        expected = {
            23: (5, True, (2,)),
            19: (9, False, (1,)),
            17: (11, True, (3,)),
            13: (15, False, (1, 2)),
            11: (17, True, (5,)),
            5: (23, True, (7,)),
            3: (25, False, (2,)),
        }
        for b, (rem, maximal, idxs) in expected.items():
            e = entries[b]
            assert e["remainder"] == rem and e["maximal"] == maximal
            assert tuple(e["maximal_indices"]) == idxs
            assert e["squarefree"] == all(x == 1 for _, x in e["factors"])

    def test_pinned_220_descent_rows(self):
        entries = ideal_entries(220)
        for b, rem, idxs in [(211, 9, (1,)), (199, 21, (1, 2)), (197, 23, (6,))]:
            e = entries[b]
            assert e["remainder"] == rem and tuple(e["maximal_indices"]) == idxs
        assert working_modulus(220).primes()[:6] == (3, 7, 13, 17, 19, 23)

    def test_entry_generators_divide_r_and_avoid_2n(self):
        for two_n in (8, 10, 12, 28, 100, 220, 972):
            r = working_modulus(two_n)
            for b, e in ideal_entries(two_n).items():
                fact = Factorization(tuple(map(tuple, e["factors"])))
                assert fact.value() == e["remainder"]
                assert fact.divides(r)
                assert math.gcd(e["remainder"], two_n) == 1
                assert e["maximal"] == is_prime(e["remainder"], EXC)
                assert b + e["remainder"] == two_n

    def test_couples_follow_maximal_subset(self):
        for two_n in range(8, 600, 2):
            rep = goldbach_ideal_analysis(two_n)
            derived = {
                (min(b, r), max(b, r))
                for b, r in zip(rep.generators, rep.remainders)
                if r in set(rep.maximal_subset)
            }
            assert set(rep.couples) == derived, two_n
            assert list(rep.couples) == sorted(rep.couples)
            for p, q in rep.couples:
                assert p + q == two_n and is_prime(p, EXC) and is_prime(q, EXC)

    def test_maximal_subset_nonempty_under_lemma_conditions(self):
        # n composite, 2n-1 composite, n > 3 force a maximal ideal in the set
        checked = 0
        for two_n in range(8, 10**4 + 1, 2):
            n = two_n // 2
            if is_prime(n, EXC) or is_prime(two_n - 1, EXC) or n <= 3:
                continue
            rep = goldbach_ideal_analysis(two_n)
            assert rep.maximal_subset, two_n
            checked += 1
        assert checked > 1000

    def test_include1_adds_only_annotations(self):
        for two_n in (8, 14, 100):
            a = goldbach_ideal_analysis(two_n, INC)
            b = goldbach_ideal_analysis(two_n, EXC)
            assert a.generators == b.generators
            assert a.maximal_subset == b.maximal_subset
            assert a.couples == b.couples
