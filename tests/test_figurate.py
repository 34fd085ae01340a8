"""Triangular identities, square-triangular chain, power sums, parabolic
primes, and the zeta-style estimate."""
from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import landau.figurate as figurate
from landau.figurate import (
    SQUARE_TRIANGULAR_MAX_K,
    THREE_TRIANGULAR_MAX_N,
    DecompositionCounterexample,
    ParabolicRecord,
    faulhaber,
    is_triangular,
    parabolic_primes,
    parabolic_totients,
    square_triangular,
    three_triangular,
    triangle_index,
    triangle_number,
    zeta_partial,
)
from landau.primes import PrimeConvention, is_prime
from landau.zn import totient

EXC = PrimeConvention.EXCLUDE1

# k <= 60 whose k^2 + 1 is prime, with those primes
PARABOLIC_K = [1, 2, 4, 6, 10, 14, 16, 20, 24, 26, 36, 40, 54, 56]
PARABOLIC_P = [2, 5, 17, 37, 101, 197, 257, 401, 577, 677, 1297, 1601, 2917, 3137]


class TestTriangleNumbers:
    def test_documented_values(self):
        assert triangle_number(8) == 36
        assert triangle_number(1) == 1
        assert triangle_number(0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            triangle_number(-1)

    def test_recognizer_round_trip(self):
        for n in range(0, 300):
            t = triangle_number(n)
            assert is_triangular(t)
            assert triangle_index(t) == n
        for x in (2, 4, 5, 7, 8, 9, 11, 100):
            assert not is_triangular(x)
        with pytest.raises(ValueError):
            triangle_index(5)

    def test_addition_identity(self):
        rng = random.Random(31415)
        for _ in range(500):
            a, b = rng.randrange(0, 10**6), rng.randrange(0, 10**6)
            assert triangle_number(a + b) == (
                triangle_number(a) + triangle_number(b) + a * b
            )

    def test_multiplication_identity(self):
        rng = random.Random(27182)
        for _ in range(500):
            a, b = rng.randrange(1, 10**6), rng.randrange(1, 10**6)
            assert triangle_number(a * b) == (
                triangle_number(a) * triangle_number(b)
                + triangle_number(a - 1) * triangle_number(b - 1)
            )

    def test_square_split_identity(self):
        for n in range(1, 1_000):
            assert triangle_number(n) + triangle_number(n - 1) == n * n


class TestSquareTriangular:
    def test_chain_start(self):
        assert square_triangular(1) == 1
        assert square_triangular(2) == 36
        assert square_triangular(3) == 41616
        assert square_triangular(4) == 55420693056

    def test_both_forms_hold(self):
        for k in range(1, 7):
            s = square_triangular(k)
            assert is_triangular(s)
            assert math.isqrt(s) ** 2 == s

    def test_chain_step_is_the_recurrence(self):
        for k in range(1, 6):
            s = square_triangular(k)
            assert square_triangular(k + 1) == 4 * s * (8 * s + 1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            square_triangular(0)

    def test_refuses_k_past_the_bound_at_once(self):
        # S(k) doubles its bit length each step; S(13) is already past the
        # digits CPython converts to text, so the bound stops at 12
        assert len(str(square_triangular(SQUARE_TRIANGULAR_MAX_K))) == 3135
        for k in (SQUARE_TRIANGULAR_MAX_K + 1, 40, 10**9):
            with pytest.raises(ValueError, match=f"k <= {SQUARE_TRIANGULAR_MAX_K}, got k = {k}"):
                square_triangular(k)


def brute_three(n: int) -> tuple[int, ...]:
    """Exhaustive ascending-lex minimum over <= 3 triangular parts."""
    tris = [triangle_number(k) for k in range(1, n + 2)]
    tris = [t for t in tris if t <= n]
    best: tuple[int, ...] | None = None
    for i, a in enumerate(tris):
        if a == n:
            best = min(best, (a,)) if best else (a,)
        for j in range(i, len(tris)):
            b = tris[j]
            if a + b > n:
                break
            if a + b == n:
                cand = (a, b)
                best = min(best, cand) if best else cand
            for k in range(j, len(tris)):
                c = tris[k]
                if a + b + c > n:
                    break
                if a + b + c == n:
                    cand = (a, b, c)
                    best = min(best, cand) if best else cand
    assert best is not None
    return best


class TestThreeTriangular:
    def test_documented_values(self):
        assert three_triangular(37) == [21, 15, 1]
        assert three_triangular(1) == [1]
        assert three_triangular(5) == [3, 1, 1]

    def test_parts_are_valid(self):
        rng = random.Random(999)
        for _ in range(300):
            n = rng.randrange(1, 100_000)
            parts = three_triangular(n)
            assert 1 <= len(parts) <= 3
            assert sum(parts) == n
            assert all(is_triangular(p) for p in parts)
            assert parts == sorted(parts, reverse=True)

    def test_matches_exhaustive_minimum(self):
        for n in range(1, 401):
            assert tuple(reversed(three_triangular(n))) == brute_three(n)

    def test_large_target(self):
        # below the bound, yet the walk runs for 78 smallest parts
        start = time.perf_counter()
        assert three_triangular(7_497_790_074) == [6766392615, 731397381, 78]
        assert time.perf_counter() - start < 1.0

    def test_every_target_is_decomposable(self):
        # vectorized reachability of 1..10^5 by sums of <= 3 triangulars
        limit = 100_000
        ks = np.arange(1, 450)
        tris = ks * (ks + 1) // 2
        tris = tris[tris <= limit]
        one = np.zeros(limit + 1, dtype=bool)
        one[tris] = True
        two = np.zeros(limit + 1, dtype=bool)
        for t in tris:
            two[t:] |= one[: limit + 1 - t]
        three = np.zeros(limit + 1, dtype=bool)
        for t in tris:
            three[t:] |= two[: limit + 1 - t]
        reachable = one | two | three
        assert bool(reachable[1:].all())

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            three_triangular(0)
        assert three_triangular(THREE_TRIANGULAR_MAX_N)
        for n in (THREE_TRIANGULAR_MAX_N + 1, 10**12):
            with pytest.raises(ValueError, match=f"n <= {THREE_TRIANGULAR_MAX_N}, got n = {n}"):
                three_triangular(n)

    def test_counterexample_type_exists(self):
        exc = DecompositionCounterexample(7)
        assert exc.n == 7


class TestFaulhaber:
    def test_documented_values(self):
        assert faulhaber(1, 4) == 10
        assert faulhaber(2, 3) == 14
        for n in (1, 5, 9):
            assert faulhaber(0, n) == n

    def test_matches_direct_summation(self):
        for m in range(0, 13):
            for n in range(1, 201):
                assert faulhaber(m, n) == sum(k**m for k in range(1, n + 1)), (m, n)

    def test_randomized_large_arguments(self):
        rng = random.Random(5)
        for _ in range(200):
            m = rng.randrange(0, 13)
            n = rng.randrange(1, 3000)
            assert faulhaber(m, n) == sum(k**m for k in range(1, n + 1))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=10**9))
    def test_degree_one_is_triangular(self, n):
        assert faulhaber(1, n) == triangle_number(n)

    def test_rejects_unsupported_degree(self):
        with pytest.raises(ValueError):
            faulhaber(13, 5)
        with pytest.raises(ValueError):
            faulhaber(-1, 5)
        with pytest.raises(ValueError):
            faulhaber(2, -1)


class TestParabolicPrimes:
    def test_marked_rows(self):
        rows = parabolic_primes(60)
        marked = [r.k for r in rows if r.is_parabolic]
        assert marked == PARABOLIC_K
        assert [r.p for r in rows if r.is_parabolic] == PARABOLIC_P

    def test_nine_plus_one_is_not(self):
        rec = parabolic_primes(3)[-1]
        assert rec.k == 3 and rec.p == 10
        assert not rec.is_parabolic and not rec.totient_check

    def test_totient_equivalence_sweep(self):
        for rec in parabolic_primes(3_000):
            assert rec.is_parabolic == rec.totient_check
            assert rec.totient_check == (totient(rec.p) == rec.k**2)

    # prime squares divide k^2 + 1 at 7^2 + 1 = 2 * 5^2, 38^2 + 1 = 5 * 17^2,
    # 57^2 + 1 = 2 * 5^3 * 13 and 70^2 + 1 = 13^2 * 29
    @pytest.mark.parametrize(
        "lo,hi",
        [(1, 1), (1, 2), (2, 2), (1, 400), (2, 401), (7, 7), (38, 38), (57, 57), (70, 70),
         (0, 70), (10**6, 10**6 + 300), (3 * 10**6 - 200, 3 * 10**6)],
    )
    def test_sieve_equals_totient_per_k(self, lo, hi):
        assert parabolic_totients(lo, hi) == [totient(k * k + 1) for k in range(lo, hi + 1)]

    @given(lo=st.integers(0, 2 * 10**5), width=st.integers(1, 600))
    @settings(max_examples=30, deadline=None)
    def test_sieve_equals_totient_on_random_windows(self, lo, width):
        hi = lo + width - 1
        assert parabolic_totients(lo, hi) == [totient(k * k + 1) for k in range(lo, hi + 1)]

    @pytest.mark.parametrize("window", [1, 7, 1 << 10])
    def test_sieve_does_not_depend_on_the_prime_window(self, monkeypatch, window):
        want = parabolic_totients(5000, 8000)
        monkeypatch.setattr(figurate, "_ROOT_WINDOW", window)
        assert parabolic_totients(5000, 8000) == want

    def test_odd_k_beyond_one_never_qualifies(self):
        for k in range(3, 100_001, 2):
            assert not is_prime(k * k + 1, EXC)

    def test_record_validation(self):
        with pytest.raises(ValueError, match="not"):
            ParabolicRecord(2, 6, True, True)
        with pytest.raises(ValueError, match="disagree"):
            ParabolicRecord(2, 5, True, False)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            parabolic_primes(0)
        with pytest.raises(ValueError):
            parabolic_totients(-1, 5)


class TestZetaEstimate:
    def test_documented_values(self):
        total, bound = zeta_partial(1)
        assert total == 1
        assert abs(bound - math.pi**2 / 6) < 1e-12
        total10, _ = zeta_partial(10)
        assert total10 == Fraction(9722, 7200)
        assert total10 == 1 + Fraction(1, 4) + Fraction(1, 16) + Fraction(1, 36) + Fraction(1, 100)

    def test_window_for_larger_reach(self):
        previous = Fraction(0)
        for k_max in range(1, 61):
            total, bound = zeta_partial(k_max)
            assert total >= previous
            previous = total
            if k_max >= 2:
                assert 1 < total
            assert float(total) < bound

    def test_stays_under_exact_floor(self):
        # a Basel partial sum is already a strict lower bound of pi^2/6
        floor = sum((Fraction(1, j * j) for j in range(1, 33)), Fraction(0))
        total, _ = zeta_partial(200)
        assert total < floor

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            zeta_partial(0)
