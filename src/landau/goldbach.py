"""Goldbach couples for even 2n: canonical descent search, full enumeration,
and quasi-couples.

The canonical couple comes from one fixed criterion: walk candidate primes
down from prev_prime(2n) and stop at the first whose remainder 2n - p is
prime. Enumeration is independent of the descent: it ANDs the prime flags of
the odd values below 2n with their own mirror image, and its first pair is
that couple; the tests check it against the descent and against the
ideal-theoretic route of the ring analysis.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import compress

from .primes import DEFAULT_CONVENTION, PrimeConvention, _odd_flags, is_prime, prev_prime
from .zn import factorize


class CoupleKind(Enum):
    TRIVIAL = "trivial"  # (n, n) with n prime
    NOETHER = "noether"  # (1, 2n-1), needs 1 to count as prime
    ORDINARY = "ordinary"


@dataclass(frozen=True)
class GoldbachCouple:
    """Unordered prime pair p <= q, the canonical couple of p + q."""

    p: int
    q: int
    kind: CoupleKind


@dataclass(frozen=True)
class DescentTrace:
    """The primes tried as the larger member, from prev_prime(2n) down; the
    remainder 2n - c of every candidate c but the last is not prime."""

    candidates: tuple[int, ...]

    def depth(self) -> int:
        return len(self.candidates)


class GoldbachCounterexample(Exception):
    """Descent exhausted every candidate prime without finding a couple."""

    def __init__(self, two_n: int, conv: PrimeConvention, candidates: tuple[int, ...]):
        self.two_n = two_n
        self.convention = conv
        self.candidates = candidates
        super().__init__(f"descent exhausted for {two_n} under {conv.value}")


def _validate_even(two_n: int, conv: PrimeConvention) -> None:
    if two_n < 2 or two_n % 2 == 1:
        raise ValueError(f"needs an even number >= 2, got {two_n}")
    if two_n == 2 and conv is PrimeConvention.EXCLUDE1:
        raise ValueError("2 = 1 + 1 needs the unit counted as prime; use include1")


def _classify(p: int, q: int) -> CoupleKind:
    if p == 1:  # at two_n = 2 the pair (1,1) is also trivial; this kind wins
        return CoupleKind.NOETHER
    if p == q:
        return CoupleKind.TRIVIAL
    return CoupleKind.ORDINARY


def canonical_couple(
    two_n: int, conv: PrimeConvention = DEFAULT_CONVENTION
) -> tuple[GoldbachCouple, DescentTrace]:
    """Descend candidate primes from prev_prime(2n); the first prime
    remainder ends the search and names the canonical couple.  2n is at most
    2^64, so that every candidate and remainder is below it."""
    _validate_even(two_n, conv)
    _check_bound(two_n, 1 << 64, "canonical_couple")
    candidates: list[int] = []
    cand = prev_prime(two_n, conv)
    while cand is not None:
        candidates.append(cand)
        rem = two_n - cand
        if is_prime(rem, conv):
            p, q = min(cand, rem), max(cand, rem)
            return GoldbachCouple(p, q, _classify(p, q)), DescentTrace(tuple(candidates))
        cand = prev_prime(cand, conv)
    raise GoldbachCounterexample(two_n, conv, tuple(candidates))


# Bounds on 2n from one memory budget of 64 MiB per call.  The tracemalloc
# peaks they rest on (CPython 3.11, x86-64): enumerate_couples holds the odd
# flags of [1, 2n), read as two ints and ANDed (about 2.1 bytes per unit of
# 2n), then one (p, q, kind, canonical) tuple per couple: 2.0 MiB at 10^6,
# 20.0 MiB at 10^7, and 19.4 MiB at 9,699,690 = 2·3·5·7·11·13·17·19, the 2n
# below the bound with the most couples (38.9 MiB at twice that).  quasi_couples also holds
# a byte per odd a <= n and returns about phi(2n)/2 pairs, so it peaks at
# 2n = 2p: 31.0 MiB at 999,958 (and 62.2 MiB at 1,999,966, too close to the
# budget to double the bound); 977,702 takes 0.05 s.
ENUMERATE_MAX_TWO_N = 10**7
QUASI_MAX_TWO_N = 10**6


def _check_bound(two_n: int, limit: int, name: str) -> None:
    if two_n > limit:
        raise ValueError(f"{name} needs two_n <= {limit}, got two_n = {two_n}")


def _both_prime(two_n: int, conv: PrimeConvention) -> bytes:
    """Byte i is 1 iff 2i + 1 <= n and 2n - 2i - 1 are both prime under conv:
    the odd flags of [1, 2n - 1] ANDed, as one int, with their own reversal
    (the same bytes read little-endian), cut to the first half."""
    _, flags = _odd_flags(1, two_n - 1, conv)
    both = int.from_bytes(flags, "big") & int.from_bytes(flags, "little")
    return both.to_bytes(len(flags), "big")[: (len(flags) + 1) // 2]


def enumerate_couples(
    two_n: int, conv: PrimeConvention = DEFAULT_CONVENTION
) -> list[tuple[int, int, CoupleKind, bool]]:
    """Every couple (p, 2n - p) of 2n as (p, q, kind, canonical), ascending
    by p."""
    _check_bound(two_n, ENUMERATE_MAX_TWO_N, "enumerate_couples")
    _validate_even(two_n, conv)
    # a 1 byte at offset i is the couple (2i + 1, 2n - 2i - 1)
    smaller = [2 * m.start() + 1 for m in re.finditer(b"\x01", _both_prime(two_n, conv))]
    if two_n == 4:  # the one couple with an even member
        smaller.append(2)
    # only p = 1 (NOETHER) and p = n (TRIVIAL) can be other than ORDINARY:
    # the first and the last couple; the descent stops at the largest
    # candidate whose remainder is prime, so the canonical couple is the one
    # with the smallest smaller member
    ordinary = CoupleKind.ORDINARY  # looked up once, not once a couple
    couples = [(p, two_n - p, ordinary, False) for p in smaller]
    for i in {0, len(couples) - 1} if couples else ():
        p = smaller[i]
        couples[i] = (p, two_n - p, _classify(p, two_n - p), i == 0)
    return couples


def quasi_couples(
    two_n: int, conv: PrimeConvention = DEFAULT_CONVENTION
) -> list[tuple[int, int]]:
    """Unit pairs (a, 2n-a) with a composite member: sums that stay inside
    the unit group but fail to be couples."""
    _check_bound(two_n, QUASI_MAX_TWO_N, "quasi_couples")
    _validate_even(two_n, conv)
    n = two_n // 2
    # byte i says whether 2i + 1 <= n is a unit of 2n: struck out for each
    # odd prime factor p at its odd multiples, p bytes apart
    odd_units = bytearray([1]) * ((n + 1) // 2)
    for p in factorize(two_n).primes()[1:]:
        odd_units[p >> 1 :: p] = bytes(len(range(p >> 1, len(odd_units), p)))
    # a unit whose byte in _both_prime is 0 pairs with a composite
    units_int = int.from_bytes(odd_units, "big")
    both = int.from_bytes(_both_prime(two_n, conv), "big")
    quasi = (units_int & ~both).to_bytes(len(odd_units), "big")
    return [(a, two_n - a) for a in compress(range(1, n + 1, 2), quasi)]
