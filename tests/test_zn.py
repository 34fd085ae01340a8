"""Tests for the Z_n structure module: factorization, totient and
Carmichael functions, unit groups, multiplication tables, CRT."""
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import landau.zn as zn
from landau.primes import PrimeConvention, is_prime, prev_prime
from landau.zn import (
    factorize,
    totient,
    carmichael,
    units,
    units_profile,
    unit_inverse,
    multiplication_table,
    crt_decompose,
    UNITS_PROFILE_MAX_N,
)
from oracles import brute_carmichael, brute_totient, crt_reconstruct, naive_factorize

EXC = PrimeConvention.EXCLUDE1


def sieve_phi(limit: int) -> list[int]:
    """phi(0..limit) by the sieve recurrence, independent of factorize."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return phi


class TestFactorize:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (28, {2: 2, 7: 1}),
            (1, {}),
            (220, {2: 2, 5: 1, 11: 1}),
            (2, {2: 1}),
            (997, {997: 1}),
            (1024, {2: 10}),
            (717084225, {3: 3, 5: 2, 11: 1, 13: 1, 17: 1, 19: 1, 23: 1}),
            (239028075, {3: 2, 5: 2, 11: 1, 13: 1, 17: 1, 19: 1, 23: 1}),
        ],
    )
    def test_pinned(self, n, expected):
        assert dict(factorize(n).factors) == expected

    @pytest.mark.parametrize("bad", [0, -4])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            factorize(bad)

    def test_matches_naive_oracle(self):
        for n in range(1, 5000):
            assert dict(factorize(n).factors) == naive_factorize(n), n

    @given(st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=200)
    def test_value_round_trip(self, n):
        f = factorize(n)
        assert f.value() == n
        for p, e in f.factors:
            assert is_prime(p, EXC) and e >= 1
        primes = f.primes()
        assert all(a < b for a, b in zip(primes, primes[1:])), f.factors

    def test_large_semiprime_beyond_sieve_cache(self):
        p, q = 1_000_003, 1_000_033
        assert dict(factorize(p * q).factors) == {p: 1, q: 1}

    @pytest.mark.parametrize(
        "n,expected",
        [
            # the two largest primes below 2^32: the hardest split for rho
            (4294967279 * 4294967291, {4294967279: 1, 4294967291: 1}),
            (4294967291**2, {4294967291: 2}),
            (65521**4, {65521: 4}),
            (2**61 - 1, {2**61 - 1: 1}),
            # three Carmichael numbers, whose primes overlap
            (561 * 1105 * 1729, {3: 1, 5: 1, 7: 1, 11: 1, 13: 2, 17: 2, 19: 1}),
        ],
    )
    def test_pinned_64_bit(self, n, expected):
        assert dict(factorize(n).factors) == expected

    @given(
        st.integers(min_value=3, max_value=2**32),
        st.integers(min_value=3, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_two_prime_round_trip(self, a, b):
        p, q = prev_prime(a, EXC), prev_prime(b, EXC)
        start = time.perf_counter()
        f = factorize(p * q)
        assert time.perf_counter() - start < 2.0
        assert dict(f.factors) == ({p: 2} if p == q else {p: 1, q: 1})

    def test_past_2_64_with_small_cofactor_answers(self):
        assert dict(factorize(2**70).factors) == {2: 70}
        assert dict(factorize(3 * 5**30 * (2**61 - 1)).factors) == {3: 1, 5: 30, 2**61 - 1: 1}

    @pytest.mark.parametrize(
        "n",
        [
            3 * (2**61 - 1) ** 2,
            # 274177 * 67280421310721: both primes lie above 1024
            2**64 + 1,
        ],
    )
    def test_past_2_64_with_large_cofactor_refuses_at_once(self, n):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="2\\*\\*64"):
            factorize(n)
        assert time.perf_counter() - start < 0.5

    def test_each_cofactor_is_tested_once(self, monkeypatch):
        calls = []

        def counting_is_prime(n, conv=PrimeConvention.INCLUDE1):
            calls.append(n)
            return is_prime(n, conv)

        monkeypatch.setattr(zn, "is_prime", counting_is_prime)
        p, q = 4294967279, 4294967291
        # the cofactor 1031 of 4 * 1031 is below 1024^2, so prime without a test
        assert dict(factorize(4 * 1031).factors) == {2: 2, 1031: 1}
        assert calls == []
        f = factorize(3 * p * q)
        assert dict(f.factors) == {3: 1, p: 1, q: 1}
        assert sorted(calls) == [p, q, p * q]
        calls.clear()
        fp, fq = factorize(p), factorize(q)
        assert calls == [p, q]
        calls.clear()
        assert f.squarefree() == f
        assert fp.divides(f) and fq.divides(f)
        assert calls == []


class TestFactorizationAlgebra:
    def test_pinned_ops(self):
        assert factorize(360).squarefree().value() == 30
        assert factorize(1).squarefree().value() == 1
        assert str(factorize(28)) == "2^2*7"
        assert str(factorize(1)) == "1"

    def test_squarefree_idempotent(self):
        rng = random.Random(11)
        for _ in range(200):
            f = factorize(rng.randrange(1, 10**6))
            sf = f.squarefree()
            assert sf.squarefree() == sf
            assert all(e == 1 for _, e in sf.factors)
            assert sf.divides(f)

    def test_divides_and_cap(self):
        assert factorize(6).divides(factorize(12))
        assert not factorize(8).divides(factorize(12))
        assert factorize(1).divides(factorize(7))


class TestTotientCarmichael:
    @pytest.mark.parametrize("n,phi", [(6, 2), (22, 10), (8, 4), (1, 1), (2, 1)])
    def test_totient_pinned(self, n, phi):
        assert totient(n) == phi

    @pytest.mark.parametrize("n,lam", [(10, 4), (22, 10), (8, 2), (1, 1), (2, 1), (4, 2), (16, 4)])
    def test_carmichael_pinned(self, n, lam):
        assert carmichael(n) == lam

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            totient(0)
        with pytest.raises(ValueError):
            carmichael(0)

    def test_totient_matches_sieve_to_1e4(self):
        phi = sieve_phi(10**4)
        for n in range(1, 10**4 + 1):
            assert totient(n) == phi[n], n

    def test_brute_oracles_small(self):
        for n in range(1, 200):
            assert totient(n) == brute_totient(n)
            assert carmichael(n) == brute_carmichael(n)

    def test_divisor_sum_identity(self):
        # sum of phi over the divisors of n recovers n
        phi = sieve_phi(10**4)
        for n in range(1, 10**4 + 1):
            total = 0
            for d in range(1, math.isqrt(n) + 1):
                if n % d == 0:
                    total += phi[d]
                    if d != n // d:
                        total += phi[n // d]
            assert total == n, n

    @given(
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=1, max_value=3000),
    )
    @settings(max_examples=300)
    def test_multiplicative_on_coprime_pairs(self, a, b):
        if math.gcd(a, b) == 1:
            assert totient(a * b) == totient(a) * totient(b)
            assert carmichael(a * b) == math.lcm(carmichael(a), carmichael(b))

    def test_carmichael_divides_totient(self):
        for n in range(1, 2001):
            assert totient(n) % carmichael(n) == 0, n


class TestUnits:
    def test_matches_gcd_scan(self):
        for n in range(2, 2001):
            assert units(n) == tuple(k for k in range(1, n) if math.gcd(k, n) == 1), n

    @pytest.mark.parametrize("n", [1, 0, -4])
    def test_modulus_below_2_raises(self, n):
        with pytest.raises(ValueError, match=f"modulus must be >= 2, got {n}"):
            units(n)


class TestUnitsProfile:
    def test_pinned_mod_10(self):
        p = units_profile(10)
        assert p.units == (1, 3, 7, 9)
        assert p.totient == 4 and p.carmichael == 4 and p.cyclic
        assert p.strong == (1, 3, 7)

    def test_pinned_mod_28(self):
        p = units_profile(28)
        assert p.units == (1, 3, 5, 9, 11, 13, 15, 17, 19, 23, 25, 27)
        assert p.strong == (1, 3, 5, 11, 13, 17, 19, 23)
        assert p.totient == 12 and not p.cyclic

    def test_pinned_mod_12(self):
        p = units_profile(12)
        assert p.units == (1, 5, 7, 11)
        assert not p.cyclic  # Klein four-group

    def test_pinned_mod_22(self):
        p = units_profile(22)
        assert p.units == (1, 3, 5, 7, 9, 13, 15, 17, 19, 21)
        assert p.strong == (1, 3, 5, 7, 13, 17, 19)
        assert p.totient == 10 and p.carmichael == 10 and p.cyclic

    def test_exclude1_drops_1_from_strong(self):
        p = units_profile(10, EXC)
        assert p.strong == (3, 7)
        assert p.units == (1, 3, 7, 9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            units_profile(1)

    def test_unit_count_equals_totient(self):
        phi = sieve_phi(10**4)
        for n in range(2, 4001):
            assert len(units_profile(n).units) == phi[n], n
        rng = random.Random(13)
        for n in rng.sample(range(4001, 10**4 + 1), 300):
            assert len(units_profile(n).units) == phi[n], n
        # 2 * 3 * 83311, above the factorize trial-division limit
        assert len(units_profile(499_866).units) == 166_620
        with pytest.raises(ValueError, match=f"n <= {UNITS_PROFILE_MAX_N} .* got n = 1000002"):
            units_profile(1_000_002)

    def test_euler_theorem(self):
        # every unit raised to phi(n) is 1, for all n up to 2000
        for n in range(2, 2001):
            p = units_profile(n)
            for a in p.units:
                assert pow(a, p.totient, n) == 1, (n, a)

    def test_cyclic_flag_against_generator_search(self):
        # brute-force the group exponent, then verify the cyclic witness by
        # enumerating its powers; non-cyclic means no unit attains order phi
        for n in range(2, 2001):
            p = units_profile(n)
            phi_fact = factorize(p.totient).factors
            exponent = 1
            witness = None
            for a in p.units:
                if pow(a, exponent, n) == 1:
                    continue  # order divides the current exponent
                o = p.totient
                for q, _ in phi_fact:
                    while o % q == 0 and pow(a, o // q, n) == 1:
                        o //= q
                exponent = math.lcm(exponent, o)
                if o == p.totient:
                    witness = a
            assert exponent == p.carmichael, n
            assert p.cyclic == (exponent == p.totient), n
            if witness is not None:
                powers = set()
                x = 1
                for _ in range(p.totient):
                    powers.add(x)
                    x = x * witness % n
                assert powers == set(p.units), n

    def test_unit_mirror_symmetry_even_moduli(self):
        # u unit of Z_2n iff 2n-u is; phi(2n) even from 2n = 6 on
        phi = sieve_phi(10**4)
        for two_n in range(6, 10**4 + 1, 2):
            assert phi[two_n] % 2 == 0, two_n
        for two_n in range(4, 2001, 2):
            units = set(units_profile(two_n).units)
            assert units == {two_n - u for u in units}, two_n

    def test_strong_not_mirror_symmetric(self):
        p = units_profile(10)
        assert 9 in p.units and 10 - 9 in p.strong and 9 not in p.strong


class TestUnitInverse:
    @pytest.mark.parametrize("a,n,inv", [(3, 10, 7), (13, 22, 17), (1, 97, 1)])
    def test_pinned(self, a, n, inv):
        assert unit_inverse(a, n) == inv

    def test_non_unit_error_names_gcd(self):
        with pytest.raises(ValueError, match="gcd\\(6, 10\\) = 2"):
            unit_inverse(6, 10)

    def test_inverse_round_trip(self):
        for n in range(2, 400):
            for a in range(1, n):
                if math.gcd(a, n) == 1:
                    assert a * unit_inverse(a, n) % n == 1


# the two grids below are frozen goldens (4x4 and 10x10 unit tables)
TABLE_10 = (
    (1, 3, 7, 9),
    (3, 9, 1, 7),
    (7, 1, 9, 3),
    (9, 7, 3, 1),
)
INVERSES_10 = {1: 1, 3: 7, 7: 3, 9: 9}

TABLE_22 = (
    (1, 3, 5, 7, 9, 13, 15, 17, 19, 21),
    (3, 9, 15, 21, 5, 17, 1, 7, 13, 19),
    (5, 15, 3, 13, 1, 21, 9, 19, 7, 17),
    (7, 21, 13, 5, 19, 3, 17, 9, 1, 15),
    (9, 5, 1, 19, 15, 7, 3, 21, 17, 13),
    (13, 17, 21, 3, 7, 15, 19, 1, 5, 9),
    (15, 1, 9, 17, 3, 19, 5, 13, 21, 7),
    (17, 7, 19, 9, 21, 1, 13, 3, 15, 5),
    (19, 13, 7, 1, 17, 5, 21, 15, 9, 3),
    (21, 19, 17, 15, 13, 9, 7, 5, 3, 1),
)
INVERSES_22 = {1: 1, 3: 15, 5: 9, 7: 19, 9: 5, 13: 17, 15: 3, 17: 13, 19: 7, 21: 21}


class TestMultiplicationTable:
    def test_mod_10_cell_for_cell(self):
        t = multiplication_table(10)
        assert t.units == (1, 3, 7, 9)
        assert t.rows == TABLE_10
        assert dict(t.inverses) == INVERSES_10

    def test_mod_22_cell_for_cell(self):
        t = multiplication_table(22)
        assert t.units == (1, 3, 5, 7, 9, 13, 15, 17, 19, 21)
        assert t.rows == TABLE_22
        assert dict(t.inverses) == INVERSES_22

    @pytest.mark.parametrize("a,b,n,val", [(3, 7, 10, 1), (5, 9, 22, 1), (21, 21, 22, 1)])
    def test_entry_pinned(self, a, b, n, val):
        t = multiplication_table(n)
        assert t.rows[t.units.index(a)][t.units.index(b)] == val

    def test_latin_square_and_symmetry(self):
        for n in (10, 22, 12, 18):
            t = multiplication_table(n)
            expected = list(t.units)
            for i, row in enumerate(t.rows):
                assert sorted(row) == expected
                for j in range(len(t.units)):
                    assert row[j] == t.rows[j][i]


class TestPrimalityViaTotient:
    """m is prime exactly when phi(m) = m - 1: the totient test for primality."""

    @pytest.mark.parametrize("m,res", [(7, True), (4, False), (2917, True), (2, True)])
    def test_pinned(self, m, res):
        assert (totient(m) == m - 1) is res

    def test_agrees_with_direct_primality_to_1e4(self):
        for m in range(2, 10**4 + 1):
            assert (totient(m) == m - 1) == is_prime(m, EXC), m


class TestCrt:
    def test_pinned(self):
        assert crt_decompose(7, 12) == [(3, 4), (1, 3)]
        assert crt_decompose(0, 45) == [(0, 9), (0, 5)]
        assert crt_reconstruct([(3, 4), (1, 3)]) == 7
        assert crt_reconstruct([(0, 9), (0, 5)]) == 0

    def test_prime_power_modulus_single_component(self):
        assert crt_decompose(5, 8) == [(5, 8)]
        assert crt_decompose(3, 7) == [(3, 7)]

    def test_errors(self):
        with pytest.raises(ValueError):
            crt_decompose(0, 1)

    def test_round_trip_exhaustive_small(self):
        for n in range(2, 200):
            for a in range(n):
                assert crt_reconstruct(crt_decompose(a, n)) == a, (a, n)

    @given(st.integers(min_value=2, max_value=10**9), st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200)
    def test_round_trip_hypothesis(self, n, a):
        a %= n
        parts = crt_decompose(a, n)
        assert crt_reconstruct(parts) == a
        assert math.prod(m for _, m in parts) == n

    def test_ring_hom_respects_addition_and_multiplication(self):
        n = 45
        for a in range(n):
            for b in range(0, n, 7):
                da = crt_decompose(a, n)
                db = crt_decompose(b, n)
                s = [( (ra + rb) % m, m) for (ra, m), (rb, _) in zip(da, db)]
                p = [( (ra * rb) % m, m) for (ra, m), (rb, _) in zip(da, db)]
                assert crt_reconstruct(s) == (a + b) % n
                assert crt_reconstruct(p) == (a * b) % n
