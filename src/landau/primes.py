"""Prime generation and primality.

Responsibility: everything about the set P of primes lives here, including
the convention switch for whether 1 belongs to P, and the square sieve with
both readers of its rows; figurate certifies the parabolic reader's
verdicts. Other modules never roll their own primality.
"""
from __future__ import annotations

import functools
import math
from enum import Enum
from itertools import compress, islice
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Iterator


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


# --- square sieve ------------------------------------------------------------

# _square_flags sieves the odd values k^2 + j just above the squares of a block
# of rows k, the way _odd_flags sieves a window: an odd prime p divides k^2 + j
# exactly when k is a root of x^2 = -j (mod p), so each root strikes its class
# of rows with one slice assignment (Shanks, MTAC 13 (1959) 78-86), or by
# index where the class holds one slot of the block, and every value that
# survives the primes up to its square root is prime.  Every prime reads
# _root_plan's Jacobi tables at p mod 4j and pays a pow only for the offsets
# that have roots, about half of them, and the root is a closed form unless
# p = 1 (mod 8); an offset d^2 m takes d times the root of the offset m, and
# an offset that p divides has the single root 0 (_square_roots).
# _parabolic_verdicts sieves the even k only: an odd k > 1 is settled by
# parity, k^2 + 1 being even.
#
# The sieve pays while the primes up to its last row, counted as
# top / ln top, number at most a quarter of the k its rows span (len(ks) *
# ks.step), for both callers, once that row reaches _SQUARE_SIEVE_TOP.  A
# prime costs its roots and their strikes, and a spanned k saves what the
# caller would spend on it unsieved.  The Legendre rows of both parities
# hold 24 offsets between them, about half of them with roots for a given
# prime, and a row saves next_prime's walk from n^2, several Miller-Rabin
# tests, except on the rows struck whole (one in four at 3*10^4), which walk
# on past their values.  Parabolic rows hold only k^2 + 1 over the even k,
# one offset with roots only for p = 1 (mod 4), and an even k saves one
# is_prime.  Milliseconds per chunk of rows from h, every row walked against
# every row sieved (the Legendre rows the sieve leaves walked on), CPython
# 3.11 on a shared 2-core x86-64 Xeon, the median of three fresh processes
# that each take the median of three after a warm-up, with the primes per
# spanned k as _square_sieve_pays counts them:
#
#   rows from h, width        walked   sieved   primes/k
#   Legendre 10^4, 4096         43.4     58.5     0.36
#   Legendre 10^4, 2^15          504      373     0.12
#   Legendre 10^4, 2^16         1417      681     0.10
#   Legendre 3*10^4, 4096       59.9    118.5     0.80
#   Legendre 3*10^4, 2^15        797      417     0.17
#   Legendre 3*10^4, 2^16       1663      799     0.13
#   Legendre 10^5, 4096          140      313     2.2
#   Legendre 10^5, 2^15         1050      696     0.34
#   Legendre 10^5, 2^16         2200     1196     0.21
#   parabolic 10^4, 4096         3.3      5.2     0.36
#   parabolic 10^4, 2^15        33.5     15.6     0.12
#   parabolic 10^4, 2^16        87.4     27.7     0.10
#   parabolic 3*10^4, 4096       4.5      9.8     0.80
#   parabolic 3*10^4, 2^15      51.5     21.6     0.17
#   parabolic 3*10^4, 2^16       111     33.6     0.13
#   parabolic 10^5, 4096         7.7     27.6     2.2
#   parabolic 10^5, 2^15        62.2     39.2     0.34
#   parabolic 10^5, 2^16         128     52.2     0.21
#   parabolic 10^6, 2^15        75.8      357     2.3
#   parabolic 10^6, 2^16         162      294     1.2
#
# A walked row costs more as h grows (the Miller-Rabin tiers and the
# operands widen), so the break-even moves up with h; a quarter is where the
# sieve is never the slower.  A chunk of 2^15 rows meets it from a first row
# up to 61,021.
#
# A block sieves only while its last row is at least _SQUARE_SIEVE_TOP, and
# then every row k of it whose k^2 passes the base primes it strikes with
# (_square_floor, about the square root of its last row), since the block
# pays for those primes' roots whichever of its rows it sieves; the few rows
# below that floor are tested one by one, as are all the rows of a block
# that does not sieve.  As k^2 passes every base prime the block uses, no
# value a row holds is itself a base prime, and the sieve needs no case for
# a prime that would strike its own value.  The least top is where sieving
# every row from the floor stops costing more than testing each of them, for
# both readers over [1, t]: milliseconds sieved and tested, and their ratio,
# CPython 3.11 on the shared 2-core x86-64 Xeon above, base primes built,
# the median of 21 interleaved pairs in a process, the median of three
# processes:
#
#   t                      500     1000     2000     3014     5000
#   Legendre, sieved      3.38     6.77     13.4     20.1     34.3
#   Legendre, tested      1.77     5.23     13.1     21.9     45.0
#   ratio                 1.85     1.27     1.02     0.92     0.75
#   parabolic, sieved    0.315    0.635    1.082    1.706    2.827
#   parabolic, tested    0.234    0.617    1.385    2.351    4.683
#   ratio                 1.32     0.99     0.80     0.71     0.60
#
# Parabolic breaks even near 1000 and Legendre near 2000 (0.91-0.93 in three
# more processes at t = 2000 alone, 0.95-0.97 at 1800), so both sieve from a
# top of 2000, where neither is the slower.
_SQUARE_SIEVE_TOP = 2000


def _square_floor(top: int, slots: int) -> int:
    """The least row k with k^2 past every base prime that _square_flags
    strikes rows up to top with, `slots` to a row."""
    return math.isqrt(math.isqrt(top * top + 2 * slots)) + 1


def _square_sieve_pays(ks: range) -> bool:
    """Whether _square_flags over the rows ks ends at _SQUARE_SIEVE_TOP or
    past it, within the base-prime cap, and costs less than the caller's
    tests of the k they span."""
    if not ks:
        return False
    top = ks[-1]
    return (_SQUARE_SIEVE_TOP <= top <= _BASE_LIMIT
            and 4 * top / math.log(top + 2) <= len(ks) * ks.step)


def _sieved_rows(ks: range, slots: int) -> range:
    """The rows of ks that a reader sieves: those from _square_floor on
    where the sieve pays for them, else none, an empty range at ks.stop."""
    if ks:
        floor = _square_floor(ks[-1], slots)
        rows = ks[max(0, -((ks.start - floor) // ks.step)):]
        if _square_sieve_pays(rows):
            return rows
    return range(ks.stop, ks.stop, ks.step)


@functools.cache
def _root_plan(offsets: range) -> tuple[tuple[tuple[int, bytes, int], ...], dict[int, tuple[int, int]]]:
    """What _square_roots reads for the offsets, built once per range.  For
    each offset j, (j, symbols, 4j): byte c of symbols is 1 iff the Jacobi
    symbol (-j | c) is 1, so by reciprocity symbols[p % 4j] is 1 iff -j is a
    nonzero square modulo the odd prime p, and 0 where p divides j.  And
    j -> (m, d) for each offset j = d^2 m, d >= 2, with m an offset too:
    d x is a root of x^2 = -j wherever x is one of x^2 = -m."""
    tables = []
    for j in offsets:
        symbols = bytearray(4 * j)
        for c in range(1, 4 * j, 2):
            a, n, t = -j % c, c, 1
            while a:
                while not a & 1:
                    a >>= 1
                    if n & 7 in (3, 5):
                        t = -t
                a, n = n, a
                if a & n & 3 == 3:
                    t = -t
                a %= n
            symbols[c] = n == 1 and t == 1
        tables.append((j, bytes(symbols), 4 * j))
    sources = {
        j: (j // (d * d), d)
        for j in offsets
        for d in range(2, math.isqrt(j) + 1)
        if j % (d * d) == 0 and j // (d * d) in offsets
    }
    return tuple(tables), sources


def _square_roots(p: int, offsets: range) -> list[tuple[int, int]]:
    """(j, r) for each offset j and each root r of x^2 = -j (mod p), for an
    odd prime p and ascending offsets j >= 1.  _root_plan's tables drop the
    j without roots, and the j that p divides, before any pow; an offset
    d^2 m takes d times the root of the offset m, and a root of a = -j is a
    closed form unless p = 1 (mod 8) (Mueller, Des. Codes Cryptogr. 31
    (2004) 301-312): a^((p + 1) / 4) for p = 3 (mod 4), and Atkin's
    a v (2a v^2 - 1), v = (2a)^((p - 5) / 8), for p = 5 (mod 8).  The other
    primes take Tonelli and Shanks' loop.  An offset that p divides has the
    single root 0."""
    tables, sources = _root_plan(offsets)
    residues = [j for j, symbols, m in tables if symbols[p % m]]
    fresh = [j for j in residues if j not in sources] if sources else residues
    out = []
    if p & 3 == 3:
        e = (p + 1) >> 2
        for j in fresh:
            x = pow(p - j, e, p)
            out += ((j, x), (j, p - x))
    elif p & 7 == 5:
        e = (p - 5) >> 3
        for j in fresh:
            a = p - j
            v = pow(2 * a, e, p)
            x = a * v * (2 * a * v * v - 1) % p
            out += ((j, x), (j, p - x))
    else:
        out = _tonelli_shanks(p, fresh)
    if sources:
        root = dict(out[::2])  # each fresh offset's pair starts with one root
        for j in residues:
            if j in sources:
                m, d = sources[j]
                x = d * root[m] % p
                out += ((j, x), (j, p - x))
    if p < offsets.stop:  # after the pairs, whose first roots out[::2] read
        out += [(j, 0) for j in range(p, offsets.stop, p) if j in offsets]
    return out


def _tonelli_shanks(p: int, residues: list[int]) -> list[tuple[int, int]]:
    """(j, x), (j, p - x) for each offset j with -j a nonzero square modulo
    the prime p = 1 (mod 8), by Tonelli and Shanks' loop from z^q, z the
    least non-residue, which Euler's criterion tells by z^((p - 1) / 2) = -1."""
    q, s = p - 1, 0
    while not q & 1:
        q, s = q >> 1, s + 1
    z = 2
    while pow(z, (p - 1) >> 1, p) != p - 1:
        z += 1
    zq, e = pow(z, q, p), (q - 1) >> 1
    out = []
    for j in residues:
        a = -j % p
        y = pow(a, e, p)
        x, t, m, c = a * y % p, a * y * y % p, s, zq  # a^((q+1)/2), a^q
        while t != 1:
            i, u = 0, t
            while u != 1:
                u, i = u * u % p, i + 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, x = t * c % p, x * b % p
        out += ((j, x), (j, p - x))
    return out


def _square_flags(ks: range, slots: int) -> bytearray:
    """Prime flags of the odd values just above the squares of ks:
    flags[i * slots + s] == 1 iff k^2 + j is prime, k = ks[i] and
    j = 2s + 1 + (k & 1), so each row holds the `slots` odd values from
    k^2 + 1 on.  ks is a nonempty range of step 1 or 2 from _square_floor
    on, so that k^2 passes every base prime the block strikes with.  A block
    whose square roots pass the base-prime cap is refused with ValueError
    before anything is allocated."""
    if not ks or ks.step not in (1, 2) or slots < 1 or ks.start < _square_floor(ks[-1], slots):
        raise ValueError(f"needs rows k with k^2 past their base primes, of step 1 or 2, "
                         f"slots >= 1, got {ks}, {slots}")
    step, first, rows = ks.step, ks.start, len(ks)
    limit = math.isqrt(ks[-1] ** 2 + 2 * slots)
    if limit > _BASE_LIMIT:
        raise ValueError(f"rows up to {ks[-1]} need base primes up to {limit}, past {_BASE_LIMIT}")
    size = rows * slots
    flags = bytearray([1]) * size
    zeros = memoryview(bytes(rows // 3 + 1))  # a class of rows is 2p / step >= 3 rows apart
    # the offsets j the rows hold: both parities for step 1, and for step 2
    # the one that makes k^2 + j odd
    offsets = range(1 + (first & 1 if step == 2 else 0), 2 * slots + 1, step)
    for p in islice(_ensure_base_primes(limit), 1, None):
        if p > limit:
            break
        two_p = 2 * p
        stride = two_p // step * slots
        for j, r in _square_roots(p, offsets):
            # the rows k = r (mod p) with k + j odd are one class mod 2p, the
            # first of them i values past the first row; j sits in slot
            # (j - 1) >> 1 of a row of the other parity
            i = ((r if (r + j) & 1 else r + p) - first) % two_p
            at = i // step * slots + ((j - 1) >> 1)
            # at < stride, so a class whose stride is at least the block
            # holds at most one slot of it, struck by index
            if stride < size:
                flags[at::stride] = zeros[: (size - 1 - at) // stride + 1]
            elif at < size:
                flags[at] = 0
    return flags


# Legendre rows hold the first _LEGENDRE_SLOTS odd values above n^2, and a
# row that the square sieve strikes whole walks on past them with next_prime.
# Each slot adds two offsets' roots for every prime and leaves fewer rows to
# walk.  Milliseconds for the Legendre rows [351, 30,350] (a sweep-arith
# window, one chunk; the median of 13 fresh processes, 8 at 14 slots) and for
# a chunk of 2^15 rows from h (the median of 3), each process the median of
# seven runs, on the host of the table above, and how many of the window's
# 27,337 sieved rows the sieve strikes whole:
#
#   slots                     8       10       12       14       16
#   [351, 30,350]           207      201      196      198      214
#   2^15 from 3*10^4        491      473      415      431      441
#   2^15 from 6*10^4        712      635      628      613      604
#   rows struck whole    10,333    8,238    6,477    4,682    3,854
#
# 12 slots is the fastest, within noise of 14, on the sweep-arith window and
# on 2^15 rows from 3*10^4; only the last chunks that sieve, near 6*10^4, run
# 4 % faster at 16.
_LEGENDRE_SLOTS = 12


def _first_gaps(lo: int, hi: int, conv: PrimeConvention) -> Iterator[int]:
    """For each n of [lo, hi], the distance from n^2 to the first prime from
    n^2 on: sieved where _sieved_rows says, else walked."""
    slots = _LEGENDRE_SLOTS
    rows = _sieved_rows(range(lo, hi + 1), slots)
    for n in range(lo, rows.start):
        yield next_prime(n * n - 1, conv) - n * n
    if not rows:
        return
    flags = _square_flags(rows, slots)
    for at, n in zip(range(0, len(flags), slots), rows):
        s = flags.find(1, at, at + slots)
        # the row's slot s - at holds n^2 + 2(s - at) + 1 + (n & 1)
        yield (2 * (s - at) + 1 + (n & 1) if s >= 0
               else next_prime(n * n + 2 * slots, conv) - n * n)


def _parabolic_verdicts(ks: range) -> bytearray:
    """Byte i is 1 iff k^2 + 1 is prime, k = ks[i] (k >= 1, step 1), under
    either convention, as k^2 + 1 >= 2: 1 at k = 1, 0 at every odd k > 1,
    which makes k^2 + 1 even, and the even k sieved where _sieved_rows says,
    else tested with is_prime.  figurate certifies them."""
    first = ks.start + (ks.start & 1)
    evens = _sieved_rows(range(first, ks.stop, 2), 1)
    tested = range(first, evens.start, 2)
    out = bytearray(len(ks))
    out[ks.start & 1 :: 2] = (bytes(is_prime(k * k + 1) for k in tested)
                              + (_square_flags(evens, 1) if evens else b""))
    if ks and ks.start == 1:
        out[0] = 1
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

