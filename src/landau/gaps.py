"""Prime pairs separated by a fixed even gap, their dyadic block layout,
the twin pairs' Brun sum, and primes between consecutive squares.

A pair (q, p) with p - q = 2n lives in the dyadic block indexed by the
smallest m >= 1 with q <= 2n * 2^m, so block 1 covers q in [0, 4n] and
block j >= 2 covers (2n * 2^(j-1), 2n * 2^j].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING

from .primes import (
    _BASE_LIMIT,
    DEFAULT_CONVENTION,
    PrimeConvention,
    _odd_flags,
    primes_in_range,
)

if TYPE_CHECKING:
    from fractions import Fraction


def _block_index(q: int, gap: int) -> int:
    # q <= gap * 2^m iff (q - 1) // gap < 2^m
    return max(1, ((q - 1) // gap).bit_length())


@dataclass(frozen=True)
class PolignacPair:
    q: int
    p: int
    block: int  # smallest m >= 1 with q <= (p - q) * 2**m


class LegendreCounterexample(Exception):
    """An interval [n^2, (n+1)^2] without a prime; never observed."""

    def __init__(self, n: int, lo: int, hi: int, conv: PrimeConvention):
        self.n = n
        self.lo = lo
        self.hi = hi
        self.convention = conv
        super().__init__(f"no prime in [{lo}, {hi}] under {conv.value}")


def _validate_gap(two_n: int) -> None:
    if two_n < 2 or two_n % 2 == 1:
        raise ValueError(f"needs an even gap >= 2, got {two_n}")


# Bound on the flag window q_max + 2n from one memory budget of 64 MiB per
# call, as for the couple lists in goldbach.py: a call holds about 1.6 bytes
# per unit of the window (the odd flags, their int, its shift and the AND)
# and 165 per pair, and gaps with many small odd prime factors have the most
# pairs.  Tracemalloc peaks in MiB (CPython 3.11, x86-64), q_max = window - 2n:
#   window  2n = 2     6     30   2310  30030  510510
#   10^6        2.8   4.1    5.0    6.1    6.3     4.1
#   10^7       24.1  33.5   39.7   48.2   50.9    51.1
POLIGNAC_MAX_WINDOW = 10**7


def _check_window(window: int, name: str, value: int) -> None:
    if window > POLIGNAC_MAX_WINDOW:
        raise ValueError(
            f"needs a flag window q_max + 2n <= {POLIGNAC_MAX_WINDOW}, "
            f"got {window} from {name} = {value}"
        )


def polignac_pairs(
    two_n: int, q_max: int, conv: PrimeConvention = DEFAULT_CONVENTION
) -> list[PolignacPair]:
    """All pairs (q, q + 2n) with q <= q_max and both members prime,
    ascending by q: the odd prime flags of [1, q_max + 2n], read as one int,
    ANDed with themselves shifted down by n slots."""
    _validate_gap(two_n)
    if q_max < 1:
        raise ValueError(f"needs a positive search bound, got {q_max}")
    _check_window(q_max + two_n, "q_max", q_max)
    _, flags = _odd_flags(1, q_max + two_n, conv)
    # byte i flags 2i + 1, so q + 2n sits n bytes above q
    bits = int.from_bytes(flags, "little")
    both = (bits & bits >> 4 * two_n).to_bytes(len(flags), "little")
    return [
        PolignacPair(q, q + two_n, _block_index(q, two_n))
        for q in compress(range(1, q_max + 1, 2), both)
    ]


def polignac_dyadic_search(
    two_n: int, m_max: int, conv: PrimeConvention = DEFAULT_CONVENTION
) -> dict[int, list[PolignacPair]]:
    """Pairs with q <= 2n * 2^m_max, partitioned by dyadic block index."""
    _validate_gap(two_n)
    if m_max < 1:
        raise ValueError(f"needs at least one dyadic block, got m_max={m_max}")
    _check_window((two_n << m_max) + two_n, "m_max", m_max)
    blocks: dict[int, list[PolignacPair]] = {j: [] for j in range(1, m_max + 1)}
    for pair in polignac_pairs(two_n, two_n << m_max, conv):
        blocks[pair.block].append(pair)
    return blocks


@dataclass(frozen=True)
class TwinStats:
    """How many twin pairs (p, p+2) have p+2 <= n_max, and Brun's sum of
    their reciprocals."""

    count: int
    brun_sum: Fraction
    brun_bound: float  # N/(ln N)^2, the C=1 shape comparison only


def twin_stats(n_max: int, conv: PrimeConvention = DEFAULT_CONVENTION) -> TwinStats:
    if n_max < 2:
        raise ValueError(f"twin_stats needs n_max >= 2, got {n_max}")
    from fractions import Fraction

    pairs = polignac_pairs(2, n_max - 2, conv) if n_max > 2 else []
    # summed pairwise in a balanced tree, so that each addition meets two
    # denominators of like size rather than one huge and one small
    terms = [Fraction(c.q + c.p, c.q * c.p) for c in pairs] or [Fraction(0)]
    while len(terms) > 1:
        terms = [a + b for a, b in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1:]
    bound = n_max / math.log(n_max) ** 2
    return TwinStats(len(pairs), terms[0], bound)


# Bound on n from the cap on the base primes, not from a memory budget:
# [n^2, (n+1)^2] is sieved whole while its root n + 1 is within
# primes._BASE_LIMIT = 2^22.  Past it, _odd_flags tests every odd value the
# capped sieve leaves (about 7 %) with is_prime: n = 4,194,304 took 16.2 s
# and 10^8 did not finish in 60 s.  At the bound a `legendre primes` report
# takes about 0.55 s, within the 64 MiB budget per call of the other bounds:
# tracemalloc peaks (CPython 3.11, x86-64) of 51.5 MiB for md, 38.9 for csv
# (its one 4 MB cell is held as text, as UTF-8 and in the output buffer at
# once) and 58.3 for json.
LEGENDRE_MAX_N = _BASE_LIMIT - 1


def legendre_primes(
    n: int, conv: PrimeConvention = DEFAULT_CONVENTION
) -> list[int]:
    """Primes in [n^2, (n+1)^2]; raises rather than ever return empty."""
    if n < 1:
        raise ValueError(f"needs n >= 1, got {n}")
    if n > LEGENDRE_MAX_N:
        raise ValueError(f"legendre_primes needs n <= {LEGENDRE_MAX_N}, got n = {n}")
    lo, hi = n * n, (n + 1) * (n + 1)
    out = primes_in_range(lo, hi, conv)
    if not out:
        raise LegendreCounterexample(n, lo, hi, conv)
    return out
