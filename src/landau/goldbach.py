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

from dataclasses import dataclass
from enum import Enum
from itertools import compress

from .primes import DEFAULT_CONVENTION, PrimeConvention, _odd_flags, is_prime, prev_prime
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
    "ENUMERATE_MAX_TWO_N",
    "QUASI_MAX_TWO_N",
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

    @classmethod
    def _of_pair(cls, p: int, q: int, two_n: int, canonical: bool) -> "GoldbachCouple":
        """Build a couple that a prime scan already found, without checking
        it again."""
        out = object.__new__(cls)
        out.__dict__.update(p=p, q=q, two_n=two_n, kind=_classify(p, q), canonical=canonical)
        return out


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
            return GoldbachCouple(p, q, two_n, _classify(p, q), True), trace
        steps.append(DescentStep(cand, rem, factorize(rem)))
        cand = prev_prime(cand, conv)
    raise GoldbachCounterexample(two_n, conv, tuple(steps))


# Bounds on 2n from one memory budget of 64 MiB per call.  The tracemalloc
# peaks they rest on (CPython 3.11, x86-64): enumerate_couples holds the odd
# flags of [1, 2n), read as two ints and ANDed (about 2.1 bytes per unit of
# 2n), then one couple object per couple: 2.0 MiB at 10^6, 20.0 MiB at 10^7,
# and 44.5 MiB at 9,699,690 = 2·3·5·7·11·13·17·19, the 2n below the bound
# with the most couples (81.3 MiB at twice that).  quasi_couples also builds
# the units of 2n and returns about phi(2n)/2 pairs, so it peaks at 2n = 2p:
# 42.1 MiB at 999,958.
ENUMERATE_MAX_TWO_N = 10**7
QUASI_MAX_TWO_N = 10**6


def _check_bound(two_n: int, limit: int, name: str) -> None:
    if two_n > limit:
        raise ValueError(f"{name} needs two_n <= {limit}, got two_n = {two_n}")


def _both_prime(two_n: int, conv: PrimeConvention) -> bytes:
    """Byte i is 1 iff 2i + 1 and 2n - 2i - 1 are both prime under conv, for
    each odd value 2i + 1 < 2n: the odd flags of [1, 2n - 1] ANDed, as one
    int, with their own reversal (the same bytes read little-endian)."""
    _, flags = _odd_flags(1, two_n - 1)
    flags[0] = is_prime(1, conv)
    both = int.from_bytes(flags, "big") & int.from_bytes(flags, "little")
    return both.to_bytes(len(flags), "big")


def _couple_pairs(two_n: int, conv: PrimeConvention) -> list[tuple[int, int]]:
    """Every couple (p, 2n - p) of 2n as a pair, ascending by p."""
    _check_bound(two_n, ENUMERATE_MAX_TWO_N, "enumerate_couples")
    _validate_even(two_n, conv)
    n = two_n // 2
    pairs = [(p, two_n - p) for p in compress(range(1, n + 1, 2), _both_prime(two_n, conv))]
    if two_n == 4:  # the one couple with an even member
        pairs.append((2, 2))
    return pairs


def enumerate_couples(
    two_n: int, conv: PrimeConvention = DEFAULT_CONVENTION
) -> list[GoldbachCouple]:
    """All couples for 2n, ascending by smaller member, canonical one marked."""
    # the descent stops at the largest candidate whose remainder is prime, so
    # the canonical couple is the one with the smallest smaller member
    return [
        GoldbachCouple._of_pair(p, q, two_n, i == 0)
        for i, (p, q) in enumerate(_couple_pairs(two_n, conv))
    ]


def quasi_couples(
    two_n: int, conv: PrimeConvention = DEFAULT_CONVENTION
) -> list[tuple[int, int]]:
    """Unit pairs (a, 2n-a) with a composite member: sums that stay inside
    the unit group but fail to be couples."""
    _check_bound(two_n, QUASI_MAX_TWO_N, "quasi_couples")
    _validate_even(two_n, conv)
    both = _both_prime(two_n, conv)
    # the units of 2n are odd, and both[a >> 1] reads the pair (a, 2n - a)
    return [(a, two_n - a) for a in units(two_n) if a <= two_n - a and not both[a >> 1]]
