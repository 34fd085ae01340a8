"""Goldbach couples for even 2n: canonical descent search, full enumeration,
and quasi-couples.

The canonical couple comes from one fixed criterion: walk candidate primes
down from prev_prime(2n) and stop at the first whose remainder 2n - p is
prime. Enumeration is an independent half-range scan whose first pair is
that couple; the tests check it against the descent and against the
ideal-theoretic route of the ring analysis.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import compress

from .primes import (
    DEFAULT_CONVENTION,
    PrimeConvention,
    is_prime,
    prev_prime,
    prime_flags,
)
from .zn import Factorization, factorize, units

__all__ = [
    "CoupleKind",
    "GoldbachCouple",
    "DescentStep",
    "DescentTrace",
    "GoldbachCounterexample",
    "canonical_couple",
    "enumerate_couples",
    "quasi_couples",
]


class CoupleKind(Enum):
    TRIVIAL = "trivial"  # (n, n) with n prime
    NOETHER = "noether"  # (1, 2n-1), needs 1 to count as prime
    ORDINARY = "ordinary"


@dataclass(frozen=True)
class GoldbachCouple:
    """Unordered prime pair p <= q with p + q = two_n."""

    p: int
    q: int
    two_n: int
    kind: CoupleKind
    canonical: bool

    def __post_init__(self) -> None:
        if not (0 < self.p <= self.q) or self.p + self.q != self.two_n:
            raise ValueError(f"not a couple for {self.two_n}: ({self.p}, {self.q})")
        if self.kind is CoupleKind.NOETHER and self.p != 1:
            raise ValueError(f"({self.p}, {self.q}) cannot be a top couple")
        if self.kind is CoupleKind.TRIVIAL and self.p != self.q:
            raise ValueError(f"({self.p}, {self.q}) cannot be a middle couple")


@dataclass(frozen=True)
class DescentStep:
    candidate: int  # the prime tried as the larger member
    remainder: int  # two_n - candidate
    remainder_factorization: Factorization | None  # None iff remainder is prime


@dataclass(frozen=True)
class DescentTrace:
    two_n: int
    steps: tuple[DescentStep, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a descent trace cannot be empty")
        cands = [s.candidate for s in self.steps]
        if any(a >= b for a, b in zip(cands[1:], cands)):
            raise ValueError(f"descent candidates must strictly decrease: {cands}")

    def depth(self) -> int:
        return len(self.steps)


class GoldbachCounterexample(Exception):
    """Descent exhausted every candidate prime without finding a couple."""

    def __init__(self, two_n: int, conv: PrimeConvention, steps: tuple[DescentStep, ...]):
        self.two_n = two_n
        self.convention = conv
        self.steps = steps
        super().__init__(f"descent exhausted for {two_n} under {conv.value}")


def _validate_even(two_n: int, conv: PrimeConvention) -> None:
    if two_n < 2 or two_n % 2 == 1:
        raise ValueError(f"needs an even number >= 2, got {two_n}")
    if two_n == 2 and conv is PrimeConvention.EXCLUDE1:
        raise ValueError("2 = 1 + 1 needs the unit counted as prime; use include1")


def _classify(p: int, q: int, two_n: int) -> CoupleKind:
    if p == 1:  # at two_n = 2 the pair (1,1) is also trivial; this kind wins
        return CoupleKind.NOETHER
    if p == q:
        return CoupleKind.TRIVIAL
    return CoupleKind.ORDINARY


def canonical_couple(
    two_n: int, conv: PrimeConvention = DEFAULT_CONVENTION
) -> tuple[GoldbachCouple, DescentTrace]:
    """Descend candidate primes from prev_prime(2n); the first prime
    remainder ends the search and names the canonical couple."""
    _validate_even(two_n, conv)
    steps: list[DescentStep] = []
    cand = prev_prime(two_n, conv)
    while cand is not None:
        rem = two_n - cand
        if is_prime(rem, conv):
            steps.append(DescentStep(cand, rem, None))
            trace = DescentTrace(two_n, tuple(steps))
            p, q = min(cand, rem), max(cand, rem)
            return GoldbachCouple(p, q, two_n, _classify(p, q, two_n), True), trace
        steps.append(DescentStep(cand, rem, factorize(rem)))
        cand = prev_prime(cand, conv)
    raise GoldbachCounterexample(two_n, conv, tuple(steps))


def enumerate_couples(
    two_n: int, conv: PrimeConvention = DEFAULT_CONVENTION
) -> list[GoldbachCouple]:
    """All couples for 2n, ascending by smaller member, canonical one marked."""
    _validate_even(two_n, conv)
    n = two_n // 2
    flags = prime_flags(two_n, conv)
    pairs: list[tuple[int, int]] = []
    for p in compress(range(n + 1), flags[: n + 1]):
        if flags[two_n - p]:
            pairs.append((p, two_n - p))
    # the descent stops at the largest candidate whose remainder is prime, so
    # the canonical couple is the one with the smallest smaller member
    return [
        GoldbachCouple(p, q, two_n, _classify(p, q, two_n), i == 0)
        for i, (p, q) in enumerate(pairs)
    ]


def quasi_couples(
    two_n: int, conv: PrimeConvention = DEFAULT_CONVENTION
) -> list[tuple[int, int]]:
    """Unit pairs (a, 2n-a) with a composite member: sums that stay inside
    the unit group but fail to be couples."""
    _validate_even(two_n, conv)
    flags = prime_flags(two_n, conv)
    return [
        (a, two_n - a)
        for a in units(two_n)
        if a <= two_n - a and not (flags[a] and flags[two_n - a])
    ]
