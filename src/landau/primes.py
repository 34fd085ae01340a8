"""Prime generation, primality, and prime-gap statistics.

Responsibility: everything about the set P of primes lives here, including
the convention switch for whether 1 belongs to P. Other modules never roll
their own primality.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from itertools import compress, islice
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "PrimeConvention",
    "DEFAULT_CONVENTION",
    "TwinStats",
    "is_prime",
    "prev_prime",
    "next_prime",
    "primes_in_range",
    "prime_flags",
    "twin_stats",
]


class PrimeConvention(Enum):
    """Whether the number 1 counts as prime.

    Only the input 1 is affected; every n >= 2 tests identically under both
    modes, and 0 and negatives are non-prime under both.
    """

    INCLUDE1 = "include1"
    EXCLUDE1 = "exclude1"


DEFAULT_CONVENTION = PrimeConvention.INCLUDE1

# Trial division by every prime up to 257 is one gcd with their product; a
# value below 263^2 that shares no factor with it is prime.
_TRIAL_PRIMES = frozenset((
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
    73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151,
    157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233,
    239, 241, 251, 257,
))
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)
_TRIAL_LIMIT = 263 * 263

# Strong-pseudoprime witness tiers (Pomerance, Selfridge and Wagstaff, Math.
# Comp. 35 (1980) 1003-1026; Jaeschke, Math. Comp. 61 (1993) 915-926); each
# row is proven exact for n below its bound, the last one for the full 64-bit
# range.  Every n that reaches the table is at least 263^2.  No row may be
# dominated by a later one that is exact on a wider range with as few bases:
# (2, 7, 61) decides everything from 9,080,191 up to 4,759,123,141, so the
# rows (2, 3, 5) below 25,326,001 and (2, 3, 5, 7) below 3,215,031,751 are
# gone, and the (2,) row below 2,047 can no longer be reached.
_MR_TIERS = (
    (1_373_653, (2, 3)),
    (9_080_191, (31, 73)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1_662_803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (1 << 64, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)


def _strong_probable_prime(n: int, bases: tuple[int, ...]) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # every base is below n: no n < 263^2 gets here, and the one base above
    # that only serves n above 4.7e9
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int, conv: PrimeConvention = DEFAULT_CONVENTION) -> bool:
    """Exact, deterministic primality for n < 2**64.

    0 and negatives are non-prime; 1 is prime exactly under Include1.  For
    n >= 2**64 the answer is False when n has a prime factor up to 257;
    otherwise ValueError is raised.
    """
    if n < 2:
        return n == 1 and conv is PrimeConvention.INCLUDE1
    if math.gcd(n, _TRIAL_PRODUCT) != 1:
        return n in _TRIAL_PRIMES
    if n < _TRIAL_LIMIT:
        return True
    for bound, bases in _MR_TIERS:
        if n < bound:
            return _strong_probable_prime(n, bases)
    raise ValueError(f"{n} is beyond the supported 64-bit range")


# The prime walks skip every multiple of 2, 3, 5, 7, 11 and 13: the values
# coprime to the wheel's modulus are a fifth of all values, and no gap
# between two of them exceeds 22, so one byte holds each step.
_WHEEL = 30030


@functools.cache
def _wheel_steps() -> bytes:
    """steps[r] is the distance from r up to the next value above r that is
    coprime to _WHEEL; by the symmetry r <-> _WHEEL - r, steps[-k % _WHEEL]
    is the distance from k down to the next such value below k.  Built on
    first use, in about a millisecond."""
    # coprime[i] says whether i + 1 is coprime to _WHEEL, up to _WHEEL + 1
    coprime = bytearray([1]) * (_WHEEL + 1)
    for p in (2, 3, 5, 7, 11, 13):
        coprime[p - 1 :: p] = bytes(len(range(p - 1, _WHEEL + 1, p)))
    # from each r in [below, above) the next coprime value is above - r away
    runs = [bytes(range(gap, 0, -1)) for gap in range(23)]
    steps = bytearray()
    below = 0
    for above in compress(range(1, _WHEEL + 2), coprime):
        steps += runs[above - below]
        below = above
    return bytes(steps[:_WHEEL])


# the primes up to 17, where the wheel walks take over, with the unit, which
# counts under include1 only
_SMALL_PRIMES = (1, 2, 3, 5, 7, 11, 13, 17)


def prev_prime(n: int, conv: PrimeConvention = DEFAULT_CONVENTION) -> int | None:
    """Largest prime strictly below n, or None when none exists."""
    if n > 17:
        # 17 is prime and coprime to the wheel, so the walk stops by then
        steps = _wheel_steps()
        k = n - steps[-n % _WHEEL]
        while not is_prime(k, conv):
            k -= steps[-k % _WHEEL]
        return k
    return max((p for p in _SMALL_PRIMES if p < n and is_prime(p, conv)), default=None)


def next_prime(n: int, conv: PrimeConvention = DEFAULT_CONVENTION) -> int:
    """Smallest prime strictly above n (exists for every n by Bertrand)."""
    if n >= 13:
        # every prime above 13 is coprime to the wheel
        steps = _wheel_steps()
        k = n + steps[n % _WHEEL]
        while not is_prime(k, conv):
            k += steps[k % _WHEEL]
        return k
    return next(p for p in _SMALL_PRIMES if p > n and is_prime(p, conv))


# --- segmented sieve ---------------------------------------------------------

# _odd_flags sieves a window whole, striking the odd multiples of the base
# primes up to sqrt(hi), when sqrt(hi) is within both caps: _BASE_LIMIT and
# the width term r ln(r + 2), r = _TEST_COST * count.  Otherwise it strikes
# the base primes only up to min(r, _BASE_LIMIT) and tests the flags still
# set with is_prime (Bays and Hudson, BIT 17 (1977) 121-127).  An is_prime
# call costs about _TEST_COST base primes' share of the sieve (building them
# plus their slice pass), and r ln r bounds about r base primes, as costly as
# testing every candidate: without that width term, a 10-wide window at 10^12
# would take 24 ms, not 0.01.  B = _BASE_LIMIT must pass the width term of a
# 2^16-instance chunk, 3.3e6, or the heights near 10^13 that such a chunk
# sieves whole would test their primes instead.  Milliseconds per window of
# 2^16 odd slots, CPython 3.11 on a 2-core x86-64 Xeon, min of 3:
#
#   height             10^12   10^13   3*10^13   10^14   10^15   10^18
#   every one tested     283     564       429     537     635     689
#   B = 2^20              34     356       335     389     440     562
#   B = 2^21              35     348       428     424     518     551
#   B = 2^22              39      84       413     450     592     598
#
# The table to 2^22 holds 295,947 primes, 11.5 MB traced, built in 80-100 ms;
# it grows only as far as a window needs, to 2^11 for a run to 4*10^6.
#
# When the survivors are tested anyway, a struck prime p saves about
# count / (p ln p) tests, so the sieve pays only up to a reach proportional
# to count.  Time per window whose survivors are tested, by the reach L in
# odd slots (count), against the width term that bounded it before, min of
# 7 windows (3 for 2^16 slots), same host:
#
#   slots, height      L = count/4   count   4*count   16*count   64*count   width
#   5, 10^12 (us)           3.5        3.1      3.5        5.5       12.6      4.9
#   5, 10^18 (us)          12.9       12.9     12.3       16.8       23.1     14.6
#   64, 10^14 (us)          145        149      146        151        199      164
#   64, 10^18 (us)          114        111      118        104        171      121
#   512, 10^12 (us)        1330       1268     1184       1307       1664     1298
#   512, 10^18 (us)        2528       2433     2327       2592       2897     2411
#   4096, 10^12 (ms)        9.5        8.8      8.5        9.3       12.3     10.4
#   4096, 10^18 (ms)       21.3       20.5     20.0       20.1       22.6     21.5
#   2^16, 10^14 (ms)        237        232      235        239        291      282
#   2^16, 10^18 (ms)        327        316      318        354        362      360
#
# So the reach is r = _TEST_COST * count itself: at most 15 % off a row's
# best, and 3-18 % faster than the width term from 512 slots up.
_TEST_COST = 4
_BASE_LIMIT = 1 << 22

# The seed list covers [2, 36]: the smallest growth, to 2^10, sieves with
# primes up to 32, and _odd_flags must find those here without growing again.
_base_primes: list[int] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
_base_limit = 36


def _ensure_base_primes(limit: int) -> list[int]:
    """The cached base primes, grown on demand to cover [2, limit] but never
    past _BASE_LIMIT."""
    global _base_primes, _base_limit
    limit = min(limit, _BASE_LIMIT)
    if limit <= _base_limit:
        return _base_primes
    limit = min(max(limit, 2 * _base_limit, 1 << 10), _BASE_LIMIT)
    first, flags = _odd_flags(3, limit, DEFAULT_CONVENTION)
    _base_primes = [2, *compress(range(first, limit + 1, 2), flags)]
    _base_limit = limit
    return _base_primes


def _odd_flags(lo: int, hi: int, conv: PrimeConvention) -> tuple[int, bytearray]:
    """Flags for odd values in [lo, hi]: returns (first_odd, flags), where
    flags[i] == 1 iff first_odd + 2i is prime under conv.  Refuses hi >= 2**64,
    past the range of is_prime, with ValueError before it allocates."""
    if hi >> 64:
        raise ValueError(f"{hi} is beyond the supported 64-bit range")
    first = lo | 1
    if first > hi:
        return first, bytearray()
    count = (hi - first) // 2 + 1
    flags = bytearray([1]) * count
    zeros = memoryview(bytes(count // 3 + 1))
    root = math.isqrt(hi)
    r = _TEST_COST * count
    limit = min(root, _BASE_LIMIT, int(r * math.log(r + 2)))
    if limit < root:  # is_prime tests what the sieve leaves: strike only to r
        limit = min(limit, r)
    for p in islice(_ensure_base_primes(limit), 1, None):
        if p > limit:
            break
        # slot of the first odd multiple of p from max(p*p, first) on; the
        # odd multiples of p are p slots apart
        if p * p >= first:
            j = (p * p - first) // 2
        else:
            j = -first * ((p + 1) // 2) % p
        if p < count:
            flags[j::p] = zeros[: (count - 1 - j) // p + 1]
        elif j < count:
            flags[j] = 0
    if limit < root:
        odd = range(first, hi + 1, 2)
        for j in compress(range(count), flags):
            flags[j] = is_prime(odd[j])
    if first == 1:
        flags[0] = conv is PrimeConvention.INCLUDE1
    return first, flags


def primes_in_range(
    lo: int, hi: int, conv: PrimeConvention = DEFAULT_CONVENTION
) -> list[int]:
    """Ascending primes in the inclusive range [lo, hi] under conv, read off
    _odd_flags with 2 put in its place."""
    if lo < 0 or lo > hi:
        raise ValueError(f"invalid range [{lo}, {hi}]: need 0 <= lo <= hi")
    first, flags = _odd_flags(lo, hi, conv)
    odd = compress(range(first, hi + 1, 2), flags)
    # the unit, when the window holds it and conv counts it, comes before 2
    out = [next(odd)] if lo <= 1 <= hi and flags[0] else []
    if lo <= 2 <= hi:
        out.append(2)
    out.extend(odd)
    return out


def prime_flags(hi: int, conv: PrimeConvention = DEFAULT_CONVENTION) -> bytearray:
    """One byte per value in [0, hi]; 1 marks a prime under conv: the odd
    values' flags from _odd_flags, laid in by one slice assignment, and 2."""
    if hi < 0:
        raise ValueError("hi must be nonnegative")
    out = bytearray(hi + 1)
    out[1::2] = _odd_flags(1, hi, conv)[1]
    if hi >= 2:
        out[2] = 1
    return out


@dataclass(frozen=True)
class TwinStats:
    """Twin pairs (p, p+2) with p+2 <= n_max, plus Brun-style running sums."""

    n_max: int
    count: int
    pairs: tuple[tuple[int, int], ...]
    brun_sum: Fraction
    brun_bound: float  # N/(ln N)^2, the C=1 shape comparison only


def twin_stats(n_max: int, conv: PrimeConvention = DEFAULT_CONVENTION) -> TwinStats:
    if n_max < 2:
        raise ValueError(f"twin_stats needs n_max >= 2, got {n_max}")
    from fractions import Fraction

    from .gaps import polignac_pairs  # gaps builds on this module

    pairs = tuple((c.q, c.p) for c in polignac_pairs(2, n_max - 2, conv)) if n_max > 2 else ()
    # summed pairwise in a balanced tree, so that each addition meets two
    # denominators of like size rather than one huge and one small
    terms = [Fraction(p + q, p * q) for p, q in pairs] or [Fraction(0)]
    while len(terms) > 1:
        terms = [a + b for a, b in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1:]
    bound = n_max / math.log(n_max) ** 2
    return TwinStats(n_max, len(pairs), pairs, terms[0], bound)
