"""Tests for principal-ideal algebra and the even-number ideal analysis."""
import math
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau.ideals import (
    CombineKind,
    PrincipalIdeal,
    bezout,
    containing_maximal_ideal,
    goldbach_ideal_analysis,
    ideal_combine,
    jacobson_radical_zn,
    maximal_ideals_zn,
    primary_decomposition,
    radical,
)
from landau.primes import PrimeConvention, is_prime, primes_in_range
from landau.zn import Factorization, factorize, unit_inverse

INC = PrimeConvention.INCLUDE1
EXC = PrimeConvention.EXCLUDE1
SUM, CAP, MUL = CombineKind.SUM, CombineKind.INTERSECTION, CombineKind.PRODUCT

Z = PrincipalIdeal.of_int


class TestPrincipalIdeal:
    def test_generator_must_divide_modulus(self):
        with pytest.raises(ValueError):
            PrincipalIdeal(factorize(5), factorize(12))
        with pytest.raises(ValueError):
            PrincipalIdeal(factorize(8), factorize(12))

    def test_quotient_normalization(self):
        assert PrincipalIdeal.in_quotient(9, 12).generator.value() == 3
        assert PrincipalIdeal.in_quotient(0, 12).generator.value() == 12
        assert PrincipalIdeal.in_quotient(5, 12).generator.value() == 1

    def test_zero_and_full_flags(self):
        full = PrincipalIdeal(Factorization(), factorize(12))
        zero = PrincipalIdeal(factorize(12), factorize(12))
        assert full.is_full_ring and not full.is_zero
        assert zero.is_zero and not zero.is_full_ring
        assert not Z(6).is_quotient and Z(6).modulus is None

    def test_index_and_order(self):
        a = PrincipalIdeal.in_quotient(4, 12)
        assert a.index() == 4 and a.order() == 3
        assert PrincipalIdeal.in_quotient(1, 12).order() == 12
        with pytest.raises(ValueError):
            Z(4).order()


class TestCombine:
    def test_pinned(self):
        assert ideal_combine(SUM, Z(4), Z(6)).generator.value() == 2
        assert ideal_combine(CAP, Z(7), Z(7)).generator.value() == 7
        assert ideal_combine(MUL, Z(3), Z(5)) == ideal_combine(CAP, Z(3), Z(5))
        assert ideal_combine(MUL, Z(3), Z(5)).generator.value() == 15

    def test_ring_mismatch(self):
        with pytest.raises(ValueError):
            ideal_combine(SUM, Z(4), PrincipalIdeal.in_quotient(2, 12))
        with pytest.raises(ValueError):
            ideal_combine(SUM, PrincipalIdeal.in_quotient(2, 12), PrincipalIdeal.in_quotient(2, 24))

    def test_product_caps_at_modulus(self):
        a = PrincipalIdeal.in_quotient(4, 12)
        b = PrincipalIdeal.in_quotient(6, 12)
        assert ideal_combine(MUL, a, b).is_zero

    def test_gcd_lcm_product_identity(self):
        # (A + B)(A ∩ B) = AB over the integers
        rng = random.Random(23)
        for _ in range(500):
            m, n = rng.randrange(1, 10**6), rng.randrange(1, 10**6)
            s = ideal_combine(SUM, Z(m), Z(n))
            i = ideal_combine(CAP, Z(m), Z(n))
            p = ideal_combine(MUL, Z(m), Z(n))
            assert ideal_combine(MUL, s, i) == p
            assert s.generator.value() == math.gcd(m, n)
            assert i.generator.value() == math.lcm(m, n)


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
            a, b = Z(rng.randrange(1, 10**4)), Z(rng.randrange(1, 10**4))
            lhs = radical(ideal_combine(MUL, a, b))
            rhs = ideal_combine(CAP, radical(a), radical(b))
            assert lhs == rhs
        # and inside a quotient, where the product is capped
        mod = 2**3 * 3**2 * 5
        for d, e in [(4, 6), (8, 15), (12, 30), (2, 180)]:
            A = PrincipalIdeal.in_quotient(d, mod)
            B = PrincipalIdeal.in_quotient(e, mod)
            assert radical(ideal_combine(MUL, A, B)) == ideal_combine(
                CAP, radical(A), radical(B)
            )


class TestMaximalIdeals:
    def test_pinned(self):
        assert [i.generator.value() for i in maximal_ideals_zn(12)] == [2, 3]
        m7 = maximal_ideals_zn(7)
        assert len(m7) == 1 and m7[0].is_zero  # field case
        assert [i.generator.value() for i in maximal_ideals_zn(717084225)] == [
            3, 5, 11, 13, 17, 19, 23,
        ]

    def test_domain_error(self):
        with pytest.raises(ValueError):
            maximal_ideals_zn(1)

    def test_one_per_prime_factor(self):
        for n in range(2, 500):
            ms = maximal_ideals_zn(n)
            assert [i.generator.value() for i in ms] == list(factorize(n).primes())

    def test_two_distinct_maximals_sum_to_full_ring(self):
        rng = random.Random(37)
        count = 0
        while count < 200:
            n = rng.randrange(6, 10**5)
            ms = maximal_ideals_zn(n)
            if len(ms) < 2:
                continue
            a, b = rng.sample(ms, 2)
            assert ideal_combine(SUM, a, b).is_full_ring
            count += 1

    def test_subgroup_order_identity(self):
        # order(A ∩ B) * order(A + B) = order(A) * order(B)
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randrange(2, 10**5)
            divs = [d for d in range(1, n + 1) if n % d == 0]
            A = PrincipalIdeal.in_quotient(rng.choice(divs), n)
            B = PrincipalIdeal.in_quotient(rng.choice(divs), n)
            cap = ideal_combine(CAP, A, B)
            s = ideal_combine(SUM, A, B)
            assert cap.order() * s.order() == A.order() * B.order()


class TestJacobson:
    def test_pinned(self):
        j = jacobson_radical_zn(12)
        assert j.generator.value() == 6 and j.modulus.value() == 12
        assert jacobson_radical_zn(15).is_zero
        assert jacobson_radical_zn(30).is_zero  # squarefree modulus

    def test_equals_intersection_of_maximals(self):
        for n in range(2, 500):
            expected = reduce(
                lambda a, b: ideal_combine(CAP, a, b), maximal_ideals_zn(n)
            )
            assert jacobson_radical_zn(n) == expected, n

    def test_equals_nilradical(self):
        # radical of the zero ideal
        for n in range(2, 500):
            zero = PrincipalIdeal.in_quotient(0, n)
            assert jacobson_radical_zn(n) == radical(zero), n


class TestContainingMaximal:
    @pytest.mark.parametrize("a,n,p", [(9, 12, 3), (6, 12, 2), (5, 10, 5), (0, 12, 2)])
    def test_pinned(self, a, n, p):
        ideal = containing_maximal_ideal(a, n)
        assert ideal.generator.value() == p and ideal.modulus.value() == n

    def test_unit_rejected(self):
        with pytest.raises(ValueError):
            containing_maximal_ideal(5, 12)
        with pytest.raises(ValueError):
            containing_maximal_ideal(13, 12)  # reduces to the unit 1

    def test_membership_and_maximality(self):
        rng = random.Random(43)
        for _ in range(300):
            n = rng.randrange(2, 10**4)
            a = rng.randrange(0, n)
            if math.gcd(a, n) == 1 and a != 0:
                continue
            ideal = containing_maximal_ideal(a, n)
            p = ideal.generator.value()
            assert a % p == 0 and n % p == 0
            assert ideal in maximal_ideals_zn(n)


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


class TestPrimaryDecomposition:
    def test_pinned_quotient_rows(self):
        r = factorize(717084225)
        pd = primary_decomposition(PrincipalIdeal(factorize(15), r))
        assert [c.generator.value() for c in pd.components] == [3, 5]
        assert pd.radical.generator.value() == 15
        pd9 = primary_decomposition(PrincipalIdeal(factorize(9), r))
        assert [c.generator.value() for c in pd9.components] == [9]
        assert pd9.radical.generator.value() == 3
        pd23 = primary_decomposition(PrincipalIdeal(factorize(23), r))
        assert len(pd23.components) == 1 and pd23.radical.generator.value() == 23

    def test_errors(self):
        with pytest.raises(ValueError):
            primary_decomposition(PrincipalIdeal(Factorization(), factorize(12)))
        with pytest.raises(ValueError):
            primary_decomposition(Z(12))  # integers, not a quotient

    def test_components_intersect_to_ideal(self):
        rng = random.Random(53)
        for _ in range(200):
            n = rng.randrange(2, 10**5)
            divs = [d for d in range(2, n + 1) if n % d == 0]
            a = PrincipalIdeal.in_quotient(rng.choice(divs), n)
            pd = primary_decomposition(a)
            back = reduce(lambda u, v: ideal_combine(CAP, u, v), pd.components)
            assert back == a
            rad_via_maximals = reduce(
                lambda u, v: ideal_combine(CAP, u, v),
                (radical(c) for c in pd.components),
            )
            assert rad_via_maximals == pd.radical

    def test_zero_ideal_matches_jacobson(self):
        pd = primary_decomposition(PrincipalIdeal.in_quotient(0, 12))
        assert [c.generator.value() for c in pd.components] == [4, 3]
        assert pd.radical == jacobson_radical_zn(12)


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
            assert is_prime(d, EXC)
            assert PrincipalIdeal.in_quotient(d, n) in maximal_ideals_zn(n)


class TestGoldbachIdealAnalysis:
    def test_pinned_8(self):
        rep = goldbach_ideal_analysis(8)
        assert rep.r.value() == 15
        assert rep.r.factors == ((3, 1), (5, 1))
        assert rep.remainders == (3, 5) and rep.generators == (5, 3)
        assert rep.maximal_subset == (3, 5) and rep.couples == ((3, 5),)
        assert rep.noether == (1, 7) and rep.trivial is None

    def test_pinned_10(self):
        rep = goldbach_ideal_analysis(10)
        assert rep.r.value() == 21 and rep.r.factors == ((3, 1), (7, 1))
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
                want = reduce(Factorization.lcm, map(factorize, lcm_inputs), Factorization())
                for conv in (INC, EXC):
                    assert goldbach_ideal_analysis(two_n, conv, include_top).r == want

    def test_pinned_28_under_both_moduli(self):
        plain = goldbach_ideal_analysis(28)
        wide = goldbach_ideal_analysis(28, include_top=True)
        assert plain.r.value() == 239028075
        assert wide.r.value() == 717084225
        for rep in (plain, wide):
            assert rep.maximal_subset == (5, 11, 17, 23)
            assert rep.couples == ((5, 23), (11, 17))
            assert rep.remainders == (5, 9, 11, 15, 17, 23, 25)
            assert rep.primes_of_r == (3, 5, 11, 13, 17, 19, 23)

    def test_pinned_28_containments(self):
        rep = goldbach_ideal_analysis(28, include_top=True)
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
            e = rep.entry_for(b)
            assert e.remainder == rem and e.maximal == maximal
            assert e.maximal_indices == idxs
            assert e.squarefree == all(x == 1 for _, x in e.remainder_factorization.factors)

    def test_pinned_220_descent_rows(self):
        rep = goldbach_ideal_analysis(220)
        for b, rem, idxs in [(211, 9, (1,)), (199, 21, (1, 2)), (197, 23, (6,))]:
            e = rep.entry_for(b)
            assert e.remainder == rem and e.maximal_indices == idxs
        assert rep.primes_of_r[:6] == (3, 7, 13, 17, 19, 23)

    def test_entry_generators_divide_r_and_avoid_2n(self):
        for two_n in (8, 10, 12, 28, 100, 220, 972):
            rep = goldbach_ideal_analysis(two_n)
            for e in rep.entries:  # PrincipalIdeal construction re-checks divisibility
                assert e.remainder_factorization.divides(rep.r)
                assert math.gcd(e.remainder, two_n) == 1
                assert e.maximal == is_prime(e.remainder, EXC)
                assert e.generator_unit + e.remainder == two_n

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

    def test_entry_lookup_error(self):
        rep = goldbach_ideal_analysis(28)
        with pytest.raises(KeyError):
            rep.entry_for(9)
