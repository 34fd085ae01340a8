"""Triangular numbers and their identities, the square-triangular chain,
three-part triangular decompositions, exact power sums, and parabolic primes
k^2 + 1 with their zeta-style estimate; whether the units of Z_{k^2+1} number
k^2 is decided per k by an N - 1 certificate, apart from the primality of
k^2 + 1, which the square sieve gives.  _parabolic_scan is the one place
that compares the two, odd k > 1 settled by parity; parabolic_primes, the
ghost table and the parabolic verify task all read it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import chain, compress
from typing import TYPE_CHECKING

from .primes import (
    _TRIAL_PRIMES,
    _TRIAL_PRODUCT,
    _parabolic_verdicts,
)
from .zn import factorize

if TYPE_CHECKING:
    from fractions import Fraction


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

# each smallest part that three_triangular tries costs one walk of up to
# sqrt(2n) steps, and some n need dozens of parts (7,497,790,074 needs 78)
THREE_TRIANGULAR_MAX_N = 10**10


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
    if not 1 <= n <= THREE_TRIANGULAR_MAX_N:
        raise ValueError(f"needs 1 <= n <= {THREE_TRIANGULAR_MAX_N}, got n = {n}")
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


@cache
def _bernoulli_plus() -> list[Fraction]:
    from fractions import Fraction

    bern = [Fraction(1)]
    for m in range(1, _MAX_POWER + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * bern[j]
        bern.append(-acc / (m + 1))
    bern[1] = Fraction(1, 2)
    return bern


def faulhaber(m: int, n: int) -> int:
    """Sum of k^m for k = 1..n, through the exact Bernoulli expansion."""
    if not 0 <= m <= _MAX_POWER:
        raise ValueError(f"exponent must lie in [0, {_MAX_POWER}], got {m}")
    if n < 0:
        raise ValueError(f"needs n >= 0, got {n}")
    from fractions import Fraction

    bern = _bernoulli_plus()
    total = Fraction(0)
    for j in range(m + 1):
        total += math.comb(m + 1, j) * bern[j] * n ** (m + 1 - j)
    total /= m + 1
    if total.denominator != 1:
        raise RuntimeError(f"power sum came out fractional: {total}")
    return int(total)


@dataclass(frozen=True)
class ParabolicRecord:
    """k alongside k^2 + 1 and whether it is prime, a verdict that the unit
    count has certified: k^2 + 1 is prime exactly when its totient is k^2."""

    k: int
    is_parabolic: bool

    @property
    def p(self) -> int:
        return self.k * self.k + 1


def totient_is_k_squared(k: int) -> bool:
    """Whether phi(k^2 + 1) = k^2, that is, whether the unit group of
    Z_{k^2+1} has order k^2, decided without a primality test of N = k^2 + 1.

    N - 1 = k^2 is fully factored once k is, so Pocklington's N - 1 test
    decides it (Brillhart, Lehmer and Selfridge, Math. Comp. 29 (1975)
    620-647, Theorem 1): N is prime iff for each prime q | k some a gives
    x = a^(k^2/q) != 1 (mod N) with x^q = 1 and gcd(x - 1, N) = 1.  A factor
    shared with the primes up to 257 (every odd k > 1) or a base-2 Fermat
    witness settles it first.  Past the gcd k is even, and every power of 2
    the test reads is a power of y = 2^k with an exponent of k's length, not
    k^2's: the Fermat test is (y^(k/2))^2 = 1, and 2^(k^2/q) = y^(k/q) is
    the y^(k/2) already computed for q = 2.  Bases a = 2, 3, ... are tried in turn,
    which ends at a q-th power non-residue of a prime N, or at the latest at
    the smallest prime factor of a composite one.
    """
    if k < 0:
        raise ValueError(f"needs k >= 0, got {k}")
    n, order = k * k + 1, k * k
    if math.gcd(n, _TRIAL_PRODUCT) != 1:
        return n in _TRIAL_PRIMES
    y = pow(2, k, n)
    half = pow(y, k >> 1, n)
    if half * half % n != 1:
        return False
    for q in factorize(k).primes():
        a, x = 2, half if q == 2 else pow(y, k // q, n)
        while x == 1:
            a += 1
            x = pow(a, order // q, n)
        # for a = 2, x^q = 2^(k^2) = 1 is the Fermat test above
        if (a > 2 and pow(x, q, n) != 1) or math.gcd(x - 1, n) != 1:
            return False
    return True


def parabolic_primes(k_max: int) -> list[ParabolicRecord]:
    """Records for k = 1..k_max, each with the sieve's primality verdict,
    which the unit count has certified on every row."""
    return [ParabolicRecord(k, bool(v)) for k, v in enumerate(_certified_verdicts(k_max), 1)]


def _certified_verdicts(k_max: int) -> bytes:
    """Byte k - 1 is 1 iff k^2 + 1 is prime, k = 1..k_max; raises
    RuntimeError, a failed internal check, at the first k whose certificate
    disagrees with its verdict."""
    if k_max < 1:
        raise ValueError(f"needs k_max >= 1, got {k_max}")
    verdicts, end = _parabolic_scan(range(1, k_max + 1))
    if end < k_max:
        raise RuntimeError(f"primality and totient disagree at k={end + 1}: "
                           f"prime={verdicts[end] == 1}, totient hit={verdicts[end] != 1}")
    return verdicts


def _parabolic_scan(ks: range) -> tuple[bytes, int]:
    """The primality verdicts of ks (k >= 1, step 1) as bytes, and the index
    of the first k whose unit count disagrees with its verdict (len(ks) when
    none does), the primality from the square sieve and the unit count from
    totient_is_k_squared, so the two stay independent.  An odd k > 1 makes
    k^2 + 1 even and past 2, which the certificate's gcd step rejects: those
    k agree up to the first whose verdict says prime, and only k = 1 and the
    even k before it take the certificate."""
    lo = ks.start
    verdicts = bytes(_parabolic_verdicts(ks))
    odd = max(lo | 1, 3) - lo
    found = verdicts[odd::2].find(1)
    end = len(verdicts) if found < 0 else odd + 2 * found
    for k in chain((1,) if lo == 1 else (), range(lo + (lo & 1), lo + end, 2)):
        if verdicts[k - lo] != totient_is_k_squared(k):
            return verdicts, k - lo
    return verdicts, end


@cache
def _zeta2_floor() -> Fraction:
    """A strict lower bound of pi^2/6 by a partial sum; far above any value
    the parabolic series can reach (1 + sum over even k of 1/k^2 < 1.42)."""
    from fractions import Fraction

    return sum((Fraction(1, j * j) for j in range(1, 33)), Fraction(0))


def zeta_partial(k_max: int) -> tuple[Fraction, float]:
    """(sum of 1/(p - 1) over parabolic p = k^2 + 1 with k <= k_max, pi^2/6).

    The sum is exact; it must stay strictly below a rational lower bound
    of pi^2/6 and, from k_max = 2 on, strictly above 1."""
    if k_max < 1:
        raise ValueError(f"needs k_max >= 1, got {k_max}")
    from fractions import Fraction

    total = Fraction(0)
    ks = range(1, k_max + 1)
    for k in compress(ks, _parabolic_verdicts(ks)):
        total += Fraction(1, k * k)
    _check_zeta_bounds(total, k_max)
    return total, math.pi * math.pi / 6


def _check_zeta_bounds(total: Fraction, k_max: int) -> None:
    """Raise unless the parabolic sum up to k_max keeps zeta_partial's bounds."""
    if total >= _zeta2_floor():
        raise RuntimeError(f"series estimate {total} escaped its ceiling")
    if k_max >= 2 and total <= 1:
        raise RuntimeError(f"series estimate {total} fell under 1")
