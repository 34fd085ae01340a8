"""Triangular numbers and their identities, the square-triangular chain,
three-part triangular decompositions, exact power sums, and parabolic primes
k^2 + 1 with their zeta-style estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .primes import DEFAULT_CONVENTION, PrimeConvention, is_prime, next_prime, primes_in_range

__all__ = [
    "ParabolicRecord",
    "DecompositionCounterexample",
    "SQUARE_TRIANGULAR_MAX_K",
    "triangle_number",
    "is_triangular",
    "triangle_index",
    "square_triangular",
    "three_triangular",
    "faulhaber",
    "parabolic_totients",
    "parabolic_primes",
    "zeta_partial",
]


def triangle_number(n: int) -> int:
    if n < 0:
        raise ValueError(f"needs n >= 0, got {n}")
    return n * (n + 1) // 2


def is_triangular(x: int) -> bool:
    if x < 0:
        return False
    r = math.isqrt(8 * x + 1)
    return r * r == 8 * x + 1


def triangle_index(x: int) -> int:
    """The n with T_n = x, for triangular x."""
    if not is_triangular(x):
        raise ValueError(f"{x} is not triangular")
    return (math.isqrt(8 * x + 1) - 1) // 2


# S(k) doubles its digit count each step: S(12) has 3,135 digits and S(13)
# 6,270, past the 4,300 digits CPython will convert to text
SQUARE_TRIANGULAR_MAX_K = 12


def square_triangular(k: int) -> int:
    """k-th member of the chain S(1) = 1, S(k+1) = 4 S(k) (8 S(k) + 1);
    every member is checked to be both triangular and a perfect square."""
    if not 1 <= k <= SQUARE_TRIANGULAR_MAX_K:
        raise ValueError(f"needs 1 <= k <= {SQUARE_TRIANGULAR_MAX_K}, got k = {k}")
    s = 1
    for _ in range(k - 1):
        s = 4 * s * (8 * s + 1)
    root = math.isqrt(s)
    if root * root != s or not is_triangular(s):
        raise RuntimeError(f"chain member {s} lost its dual form")
    return s


class DecompositionCounterexample(Exception):
    """No sum of at most three triangular numbers hit the target."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"no triangular decomposition found for {n}")


def three_triangular(n: int) -> list[int]:
    """A decomposition of n into at most three triangular numbers, parts
    descending; among all decompositions the one whose ascending part list
    is lexicographically smallest."""
    if n < 1:
        raise ValueError(f"needs n >= 1, got {n}")
    i, a = 1, 1  # the smallest part a = T_i, rising
    while a <= n:
        rest = n - a
        if rest == 0:
            return [a]
        if rest >= a:
            # b = T_j rises from a while c = T_k falls from the largest
            # triangular number <= rest - a; a pair is passed over only when
            # no partner of b or of c is left, so the first hit has the least b
            j, b = i, a
            k = (math.isqrt(8 * (rest - a) + 1) - 1) // 2
            c = k * (k + 1) // 2
            while b <= c:
                if b + c == rest:
                    return [c, b, a]
                if b + c < rest:
                    j += 1
                    b += j
                else:
                    c -= k
                    k -= 1
            if is_triangular(rest):
                return [rest, a]
        i += 1
        a += i
    raise DecompositionCounterexample(n)


# Bernoulli numbers with the plus convention: flipping the sign of B_1 in
# the standard recurrence makes the power sum include its top term
_MAX_POWER = 12


def _bernoulli_plus() -> list[Fraction]:
    bern = [Fraction(1)]
    for m in range(1, _MAX_POWER + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * bern[j]
        bern.append(-acc / (m + 1))
    bern[1] = Fraction(1, 2)
    return bern


_BERNOULLI = _bernoulli_plus()


def faulhaber(m: int, n: int) -> int:
    """Sum of k^m for k = 1..n, through the exact Bernoulli expansion."""
    if not 0 <= m <= _MAX_POWER:
        raise ValueError(f"exponent must lie in [0, {_MAX_POWER}], got {m}")
    if n < 0:
        raise ValueError(f"needs n >= 0, got {n}")
    total = Fraction(0)
    for j in range(m + 1):
        total += math.comb(m + 1, j) * _BERNOULLI[j] * n ** (m + 1 - j)
    total /= m + 1
    if total.denominator != 1:
        raise RuntimeError(f"power sum came out fractional: {total}")
    return int(total)


@dataclass(frozen=True)
class ParabolicRecord:
    """k alongside k^2 + 1, with the primality verdict and the independent
    unit-count check: k^2 + 1 is prime exactly when its totient is k^2."""

    k: int
    p: int
    is_parabolic: bool
    totient_check: bool

    def __post_init__(self) -> None:
        if self.k < 0 or self.p != self.k * self.k + 1:
            raise ValueError(f"{self.p} is not {self.k}^2 + 1")
        if self.is_parabolic != self.totient_check:
            raise ValueError(
                f"primality and totient disagree at k={self.k}: "
                f"prime={self.is_parabolic}, totient hit={self.totient_check}"
            )


# width of the prime windows parabolic_totients walks
_ROOT_WINDOW = 1 << 16


def parabolic_totients(lo: int, hi: int) -> list[int]:
    """Euler's totient of k^2 + 1 for k = lo..hi, by sieving the polynomial
    over the window (the n^2 + a sieve of Shanks, Math. Comp. 14 (1960)
    321-332) rather than factoring each value.

    An odd prime p divides k^2 + 1 exactly when p = 1 (mod 4) and k = +-r
    (mod p), r a square root of -1 mod p; 2 divides it exactly once for odd
    k.  Once every such p <= hi is divided out, each k is left with a
    cofactor whose primes exceed k; two of them would exceed k^2 + 1, so the
    cofactor is 1 or prime and the totient is exact.  The primes are walked
    in windows of fixed width, so memory is O(hi - lo + window) at any
    height.
    """
    if lo < 0:
        raise ValueError(f"needs lo >= 0, got {lo}")
    n = hi - lo + 1
    rem = [k * k + 1 for k in range(lo, hi + 1)]
    phi = [1] * n
    odd = (lo + 1) % 2  # index of the first odd k
    rem[odd::2] = [v >> 1 for v in rem[odd::2]]
    for start in range(5, hi + 1, _ROOT_WINDOW):
        for p in primes_in_range(start, min(start + _ROOT_WINDOW - 1, hi)):
            if p % 4 != 1:
                continue
            # c^((p-1)/4) squares to the Legendre symbol of c, so it is a
            # root of -1 at the least non-residue c, which is prime; 2 is one
            # exactly when p = 5 (mod 8)
            c = 2 if p & 4 else 3
            while (r := pow(c, p >> 2, p)) * r % p != p - 1:
                c = next_prime(c, PrimeConvention.EXCLUDE1)
            for root in (r, p - r):
                for j in range((root - lo) % p, n, p):
                    v, e = rem[j] // p, 1
                    while v % p == 0:  # p^2 | k^2 + 1 happens, e.g. 5^3 | 57^2 + 1
                        v //= p
                        e += 1
                    rem[j] = v
                    phi[j] *= p ** (e - 1) * (p - 1)
    return [f * (v - 1) if v > 1 else f for f, v in zip(phi, rem)]


def parabolic_primes(
    k_max: int, conv: PrimeConvention = DEFAULT_CONVENTION
) -> list[ParabolicRecord]:
    """Records for k = 1..k_max, the totients from one sieve over the whole
    range; construction re-verifies the totient equivalence on every row."""
    if k_max < 1:
        raise ValueError(f"needs k_max >= 1, got {k_max}")
    return [
        ParabolicRecord(k, k * k + 1, is_prime(k * k + 1, conv), phi == k * k)
        for k, phi in zip(range(1, k_max + 1), parabolic_totients(1, k_max))
    ]


# strict lower bound of pi^2/6 by a partial sum; far above any value the
# parabolic series can reach (1 + sum over even k of 1/k^2 < 1.42)
_ZETA2_FLOOR = sum((Fraction(1, j * j) for j in range(1, 33)), Fraction(0))


def zeta_partial(k_max: int) -> tuple[Fraction, float]:
    """(sum of 1/(p - 1) over parabolic p = k^2 + 1 with k <= k_max, pi^2/6).

    The sum is exact; it must stay strictly below a rational lower bound
    of pi^2/6 and, from k_max = 2 on, strictly above 1."""
    if k_max < 1:
        raise ValueError(f"needs k_max >= 1, got {k_max}")
    total = Fraction(0)
    for k in range(1, k_max + 1):
        if is_prime(k * k + 1, PrimeConvention.EXCLUDE1):
            total += Fraction(1, k * k)
    _check_zeta_bounds(total, k_max)
    return total, math.pi * math.pi / 6


def _check_zeta_bounds(total: Fraction, k_max: int) -> None:
    """Raise unless the parabolic sum up to k_max keeps zeta_partial's bounds."""
    if total >= _ZETA2_FLOOR:
        raise RuntimeError(f"series estimate {total} escaped its ceiling")
    if k_max >= 2 and total <= 1:
        raise RuntimeError(f"series estimate {total} fell under 1")
