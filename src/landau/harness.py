"""Resumable batch verification over integer ranges.

Each task turns a headline claim into a range certificate: descent success
for every even number (couple search), a small-prime witness for every even
gap, a prime inside every square interval, and totient/primality agreement
for every parabolic candidate k^2 + 1, whose unit count comes from an N - 1
certificate per k and whose primality from the square sieve, so the two
verdicts stay independent.  figurate._parabolic_scan is the one scan that
compares them, odd k > 1 settled by parity; this module keeps only the stats
and the witness.  The square sieve and both of its readers live in primes:
primes._parabolic_verdicts gives the k^2 + 1 verdicts as bytes, and
primes._first_gaps the first prime from each n^2; the sieve strikes a class
of rows by slice, or by index where it holds one slot of the block.

Progress lives in a line-delimited JSON checkpoint, one record per contiguous
verified subrange.  The file is only ever replaced whole (write a sibling
temp file, fsync, rename), so a killed run leaves the previous parseable
state behind; it is rewritten once FLUSH_SECONDS have passed since the last
write and once at the end, so a kill loses at most that much folded work
plus the chunks in flight.  Work is split into chunks whose width each task
takes from its row of _RULES by the height of the chunk's first instance
(wide enough to amortize the sieve and pool trip each pays whatever its
width, small enough for a 4 MB peak, and, where the square tasks walk
their rows, narrow enough to share a range among the workers), made as
the stream of results asks for them,
whose results come back in ascending order (a forked worker pool's ordered
imap, or a plain map with one worker, which never imports multiprocessing)
and are folded into records in that order, which keeps the checkpoint
content independent of the worker count.  A chunk is a pure function of its
task, convention, span and floor, the best stat that the record it extends
already holds (0 for a gap's first chunk, which starts a record): a Goldbach
chunk counts only descents deeper than the floor, so its stats equal the
span's own whenever its best beats the floor, and read 0 at 0 otherwise.  It
sieves only the window it reads, its span plus a reach that grows only when a
search runs off it, and the floor is one (gap start, best) pair, so a run
holds no list that grows with the range: memory is O(chunk + reach + pi(B))
at any height, B the cap on the base primes, and a range that would read
past 2**64 is refused at once.

The two even tasks are certified by one bitset scan rather than a loop per
instance: the window's odd prime flags are packed into one Python int, each
of the chunk's even instances is one bit, and for each small prime q in
ascending order one shift, AND and XOR take out every instance whose
smallest prime remainder (Goldbach) or witness (pre-Polignac) is q.  The
scan leaves a few levels (q, instances); a gap's largest witness is read off
the top level, and the largest descent depth is counted exactly on the top
levels only, down to the first level whose windows are too short to reach
the best depth so far, which starts at the floor.  That bound comes from the
window's prime counts per block of 8 odd values, summed over m consecutive
blocks at once by one big-int multiply with a repunit.
"""

from __future__ import annotations

import fcntl
import json
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import islice
from typing import Any, Callable, Iterable, Iterator

from .figurate import _parabolic_scan
from .primes import (
    DEFAULT_CONVENTION,
    PrimeConvention,
    _first_gaps,
    _odd_flags,
    _square_sieve_pays,
    primes_in_range,
)

FLUSH_SECONDS = 1.0  # least time between checkpoint writes while a run goes on
SCHEMA_VERSION = 1


class Task(Enum):
    GOLDBACH = "goldbach"
    PRE_POLIGNAC = "pre-polignac"
    LEGENDRE = "legendre"
    PARABOLIC = "parabolic"


class CheckpointError(ValueError):
    """An untrustworthy checkpoint file; the message names the bad line."""

    def __init__(self, path: str, line_no: int, reason: str) -> None:
        super().__init__(f"{path}:{line_no}: {reason}")


@dataclass(frozen=True)
class Checkpoint:
    """One contiguous subrange with its outcome and aggregate statistics."""

    task: Task
    convention: PrimeConvention
    lo: int
    hi: int
    status: str  # "verified" or "counterexample"
    stats: dict[str, int] = field(default_factory=dict)
    timestamp: str = ""
    witness: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty range [{self.lo}, {self.hi}]")
        if self.status not in ("verified", "counterexample"):
            raise ValueError(f"unknown status {self.status!r}")
        if (self.status == "counterexample") != (self.witness is not None):
            raise ValueError("witness present iff status is counterexample")

    def to_json(self) -> str:
        record: dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "task": self.task.value,
            "convention": self.convention.value,
            "lo": self.lo,
            "hi": self.hi,
            "status": self.status,
            "stats": self.stats,
            "ts": self.timestamp,
        }
        if self.witness is not None:
            record["witness"] = self.witness
        return json.dumps(record, sort_keys=True, separators=(",", ":"))


_REQUIRED_FIELDS = frozenset({"v", "task", "convention", "lo", "hi", "status", "stats", "ts"})


def load_checkpoints(path: str) -> list[Checkpoint]:
    """Parse a checkpoint file; a missing file is an empty history.

    Any defect (bad JSON, wrong schema, overlapping ranges) raises
    CheckpointError naming the offending line.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        return []
    records: list[tuple[int, Checkpoint]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            raise CheckpointError(path, line_no, "blank line")
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CheckpointError(path, line_no, f"invalid JSON: {exc.msg}") from None
        if not isinstance(obj, dict):
            raise CheckpointError(path, line_no, "expected a JSON object")
        missing = _REQUIRED_FIELDS - obj.keys()
        if missing:
            raise CheckpointError(path, line_no, f"missing field {sorted(missing)[0]!r}")
        unknown = obj.keys() - _REQUIRED_FIELDS - {"witness"}
        if unknown:
            raise CheckpointError(path, line_no, f"unknown field {sorted(unknown)[0]!r}")
        if obj["v"] != SCHEMA_VERSION:
            raise CheckpointError(path, line_no, f"unsupported schema version {obj['v']!r}")
        try:
            task = Task(obj["task"])
            conv = PrimeConvention(obj["convention"])
        except ValueError as exc:
            raise CheckpointError(path, line_no, str(exc)) from None
        lo, hi = obj["lo"], obj["hi"]
        if not isinstance(lo, int) or not isinstance(hi, int) or isinstance(lo, bool) or isinstance(hi, bool):
            raise CheckpointError(path, line_no, "lo/hi must be integers")
        if not isinstance(obj["stats"], dict):
            raise CheckpointError(path, line_no, "stats must be an object")
        try:
            cp = Checkpoint(
                task=task,
                convention=conv,
                lo=lo,
                hi=hi,
                status=obj["status"],
                stats=obj["stats"],
                timestamp=obj["ts"],
                witness=obj.get("witness"),
            )
        except ValueError as exc:
            raise CheckpointError(path, line_no, str(exc)) from None
        records.append((line_no, cp))
    # ranges for one task+convention must never overlap
    by_key: dict[tuple[str, str], list[tuple[int, Checkpoint]]] = {}
    for line_no, cp in records:
        by_key.setdefault((cp.task.value, cp.convention.value), []).append((line_no, cp))
    for group in by_key.values():
        group.sort(key=lambda item: item[1].lo)
        for (_, prev), (line_no, cur) in zip(group, group[1:]):
            if cur.lo <= prev.hi:
                raise CheckpointError(
                    path,
                    line_no,
                    f"range [{cur.lo}, {cur.hi}] overlaps [{prev.lo}, {prev.hi}]",
                )
    return [cp for _, cp in records]


def _order_key(cp: Checkpoint) -> tuple[str, str, int]:
    return (cp.task.value, cp.convention.value, cp.lo)


def _write_checkpoints(path: str, records: Iterable[Checkpoint]) -> None:
    """Replace the file atomically: temp sibling, fsync, rename."""
    tmp = path + ".tmp"
    payload = "".join(cp.to_json() + "\n" for cp in sorted(records, key=_order_key))
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def instance_count(task: Task, lo: int, hi: int) -> int:
    """Number of task instances in the aligned range [lo, hi]."""
    if hi < lo:
        return 0
    return (hi - lo) // _RULES[task].step + 1


def _uncovered(lo: int, hi: int, covered: list[tuple[int, int]], step: int) -> list[tuple[int, int]]:
    """Maximal aligned subranges of [lo, hi] not touched by covered ranges."""
    out = []
    cur = lo
    for c_lo, c_hi in sorted(covered):
        if c_hi < cur or c_lo > hi:
            continue
        if c_lo > cur:
            v = min(c_lo - 1, hi)
            out.append((cur, v - v % step))
        v = c_hi + 1
        cur = max(cur, v + v % step)
        if cur > hi:
            break
    if cur <= hi:
        out.append((cur, hi))
    return [(a, b) for a, b in out if a <= b]


def _merge_stats(rule: _Rule, acc: dict[str, int], new: dict[str, int]) -> None:
    """Fold new into acc in place; an empty acc takes new as it is, and a
    tie keeps acc's holder, the earlier one (which a floored chunk relies on)."""
    if not acc:
        acc.update(new)
        return
    for key in ("instances", *rule.summed):
        acc[key] += new[key]
    if new[rule.best[0]] > acc[rule.best[0]]:
        acc.update((key, new[key]) for key in rule.best)


# ---------------------------------------------------------------------------
# per-task instance checkers
#
# Each checker is a pure function of its span: it takes (conv, lo, hi), sieves
# only the window it reads under the run's own convention (so the unit is
# already in every table under include1), and returns the span's stats and
# the first counterexample, if any.  The Goldbach checker also takes a floor,
# the best depth that the chunk's record already holds, and counts only
# descents deeper than it: its stats equal the span's own whenever its best
# beats the floor, and read 0 at 0 otherwise, which the record's merge keeps
# as it was.  Memory is O(chunk + reach) at any height beside the capped base
# primes, and nothing outlives the chunk.
#
# The even tasks share one scan (the minimal-partition check of Oliveira e
# Silva, Herzog and Pardi, Math. Comp. 83 (2014) 2033-2060, on Python ints).
# The window's odd prime flags become one int P, bit j standing for the odd
# value first + 2j, and the span's instances 2n = lo + 2i become the bits i of
# `remaining`.  For each prime q in ascending order, P shifted so that bit i
# reads 2n - q (Goldbach) or 2n + q (pre-Polignac) is ANDed with `remaining`:
# the hits are the instances whose smallest prime remainder or witness is q,
# they leave `remaining`, and the scan stops once nothing remains.  Each
# instance thus lands on the level its descent or witness search stops at, in
# a few word operations per level rather than a loop per instance.
#
# The Goldbach window reaches _REACH below the span (the descent's
# candidates), the pre-Polignac window _REACH above it (the partners q + 2n);
# a chunk whose search runs off its window is redone with four times the reach.
#
# The largest Goldbach descent depth is counted from the top level down, and
# the count stops at the first level that cannot reach the best depth so far,
# which starts at the floor, so a chunk deep in a record counts only the few
# instances that could beat its record.  The bound is coarse but cheap: a byte
# of P, 8 odd values, is a block; the int of the blocks' prime counts times
# the repunit sum_{i<m} 256^i has, in each digit, the primes of m consecutive
# blocks, and one translate of the product's bytes tells whether any digit
# reaches a given count.

_REACH = 1 << 10
_LAST = (1 << 64) - 1  # the last value is_prime decides
_BITS = bytes.maketrans(b"\0\1", b"01")
_POPCOUNT = bytes(b.bit_count() for b in range(256))


def _as_int(flags: bytearray) -> int:
    """The 0/1 bytes as one int, flags[j] as bit j."""
    return int(flags[::-1].translate(_BITS), 2) if flags else 0


def _lowest(x: int) -> int:
    """Position of the lowest set bit of x > 0."""
    return (x & -x).bit_length() - 1


def _set_bits(x: int) -> list[int]:
    """Positions of the set bits of x >= 0, ascending, peeled off the top."""
    top = []
    while x:
        b = x.bit_length() - 1
        top.append(b)
        x ^= 1 << b
    return top[::-1]


def _ascending_primes(limit: int, conv: PrimeConvention) -> Iterator[int]:
    """Primes up to limit under conv, sieved in blocks that grow 4x from 2^10,
    so a scan that stops early (nearly all stop below 10^3) sieves little."""
    lo, hi = 0, 1 << 10
    while lo <= limit:
        yield from primes_in_range(lo, min(hi, limit), conv)
        lo, hi = hi + 1, 4 * hi


def _scan(
    count: int, qs: Iterable[int], shifted: Callable[[int], int]
) -> tuple[list[tuple[int, int]], int]:
    """The levels (q, hit) of count instances, each hit holding the instances
    first met by q, and the instances that no q met."""
    remaining = (1 << count) - 1
    levels = []
    for q in qs:
        hit = shifted(q) & remaining
        if hit:
            levels.append((q, hit))
            remaining ^= hit
            if not remaining:
                break
    return levels, remaining


def _block_test(P: int, slots: int) -> Callable[[int, int], bool]:
    """(m, need) -> whether some m consecutive blocks of 8 slots hold need
    primes or more, in a window of `slots` slots whose flags are the bits of P."""
    counts = P.to_bytes((slots + 7) // 8, "little").translate(_POPCOUNT)
    spread: dict[int, int] = {}  # digit width -> the counts, one digit each

    def holds(m: int, need: int) -> bool:
        if need <= 0:
            return True
        if need > 8 * m:
            return False
        # digits of `width` bytes hold a sum of m counts, at most 8m, plus
        # the lift t below without a carry
        width, unit = 1, 1
        while 8 * m > 255 * unit:
            width, unit = width + 1, unit << 8
        if width not in spread:
            wide = bytearray(width * len(counts))
            wide[::width] = counts
            spread[width] = int.from_bytes(wide, "little")
        one = b"\1" + bytes(width - 1)
        digits = len(counts) + m - 1
        # times the repunit, digit k is the sum of the m counts ending at k;
        # lifted by t, it reaches need exactly when its top byte reaches h
        t = -need % unit
        h = (need + t) // unit
        sums = spread[width] * int.from_bytes(one * m, "little")
        if t:
            sums += t * int.from_bytes(one * digits, "little")
        top = sums.to_bytes(width * digits, "little")[width - 1::width]
        return 1 in top.translate(bytes(h) + b"\1" * (256 - h))

    return holds


def _check_goldbach(conv: PrimeConvention, lo: int, hi: int, floor: int = 0) -> dict[str, Any]:
    reach = _REACH
    count = (hi - lo) // 2 + 1
    while True:
        base = max(lo - reach, 0)
        first, flags = _odd_flags(base, hi, conv)  # the candidates p and remainders q
        P = _as_int(flags)
        # 2 is a candidate or a remainder only in 4 = 2 + 2
        four = 1 << (4 - lo) // 2 if lo <= 4 and base <= 2 else 0

        def shifted(q: int) -> int:
            if q == 2:
                return four
            s = (lo - q - first) // 2
            return P >> s if s >= 0 else P << -s

        levels, remaining = _scan(count, _ascending_primes(hi - base, conv), shifted)
        if remaining and base > 0:
            reach *= 4  # a descent ran below the window: widen it
            continue
        n_ok = _lowest(remaining) if remaining else count
        # The depth of 2n at level q counts the candidates in [2n - q, 2n):
        # the primes among its w = (q + 1) // 2 odd values, and 2 when the
        # window holds it.  Only depths above the floor, the best depth the
        # chunk's record already holds, count: `best` starts there with no
        # holder, so a depth that only equals it never displaces the record's
        # earlier holder.  Depths are counted exactly, level by level from
        # the top, down to the first level whose windows, which touch at most
        # (w + 6) // 8 + 1 blocks of 8 odd values, fit in `stop` blocks: no
        # `stop` consecutive blocks of the window hold enough primes to reach
        # the best depth so far.
        with_two = base <= 2
        holds = _block_test(P, len(flags))
        prefix = (1 << n_ok) - 1
        best, best_at = floor, 0
        stop = cut = 0  # `cut`: the depth that `stop` was bisected for
        for q, hit in reversed(levels):
            hit &= prefix
            if not hit:
                continue
            blocks = ((q + 1) // 2 + 6) // 8 + 1
            if best > cut:
                # the most blocks that cannot reach the best depth, bisected
                # between the last such count (the depth has only grown) and
                # one past this level's
                low, high = stop, blocks + 1
                while high - low > 1:
                    mid = (low + high) // 2
                    if holds(mid, best - with_two):
                        high = mid
                    else:
                        low = mid
                stop, cut = low, best
            if blocks <= stop:
                break
            for i in _set_bits(hit):
                two_n = lo + 2 * i
                a = two_n - q
                depth = (flags.count(1, (a - first + 1) // 2, (two_n - first + 1) // 2)
                         + (with_two and a <= 2 < two_n))
                if depth > best or depth == best and two_n < best_at:
                    best, best_at = depth, two_n
        # a chunk that beats no depth of its record reports none
        stats = {"instances": n_ok, "max_depth": best if best_at else 0, "max_depth_at": best_at}
        witness = None
        if n_ok < count:
            witness = {"instance": lo + 2 * n_ok, "reason": "descent exhausted"}
        return {"stats": stats, "witness": witness}


def _check_pre_polignac(conv: PrimeConvention, lo: int, hi: int) -> dict[str, Any]:
    reach = _REACH
    count = (hi - lo) // 2 + 1
    while True:
        first, flags = _odd_flags(lo, hi + reach, conv)  # the partners 2n + q
        P = _as_int(flags)
        # a window that ends at 2**64 - 1 can grow no further, so every
        # instance tries each q whose partner the window holds
        last = hi + reach == _LAST

        def shifted(q: int) -> int:
            # an even gap plus 2 is even, never a prime partner
            return 0 if q == 2 else P >> (lo + q - first) // 2

        qs = _ascending_primes(min(_LAST - lo if last else reach, hi), conv)
        levels, failed = _scan(count, qs, shifted)
        # the certificate needs q < gap: a gap first met by some q >= gap has
        # no witness below it, like one that no q met
        for q, hit in levels:
            if q >= lo:
                failed |= hit & ((2 << (q - lo) // 2) - 1)
        n_ok = _lowest(failed) if failed else count
        bad = lo + 2 * n_ok
        if n_ok < count and (_LAST - bad if last else reach) < bad:
            # the search stopped at the window's end, below the gap
            if last:
                raise ValueError(
                    f"{Task.PRE_POLIGNAC.value} instance {bad} has no witness whose partner "
                    "is below 2**64: its search runs beyond the supported 64-bit range "
                    "(below 2**64)")
            reach = min(4 * reach, _LAST - hi)  # a witness may lie above the reach
            continue
        prefix = (1 << n_ok) - 1
        stats = {"instances": n_ok, "max_witness": 0, "max_witness_at": 0}
        for q, hit in reversed(levels):
            hit &= prefix
            if hit:
                stats["max_witness"] = q
                stats["max_witness_at"] = lo + 2 * _lowest(hit)
                break
        witness = None
        if n_ok < count:
            witness = {"instance": bad, "reason": "no prime witness below the gap"}
        return {"stats": stats, "witness": witness}


def _check_legendre(conv: PrimeConvention, lo: int, hi: int) -> dict[str, Any]:
    stats = {"instances": 0, "max_first_gap": 0, "max_first_gap_at": 0}
    for n, gap in zip(range(lo, hi + 1), _first_gaps(lo, hi, conv)):
        # the upper endpoint (n+1)^2 is a square > 1, never prime, so the
        # first prime from n^2 on decides the whole closed interval
        if gap > 2 * n:
            witness = {"instance": n, "reason": "no prime in the square interval"}
            return {"stats": stats, "witness": witness}
        stats["instances"] += 1
        if gap > stats["max_first_gap"]:
            stats["max_first_gap"] = gap
            stats["max_first_gap_at"] = n
    return {"stats": stats, "witness": None}


def _check_parabolic(conv: PrimeConvention, lo: int, hi: int) -> dict[str, Any]:
    verdicts, end = _parabolic_scan(range(lo, hi + 1))
    last = verdicts.rfind(1, 0, end)
    stats = {"instances": end, "parabolic": verdicts.count(1, 0, end),
             "largest_parabolic_k": lo + last if last >= 0 else 0}
    witness = None
    if end < len(verdicts):
        prime = verdicts[end] == 1
        witness = {
            "instance": lo + end,
            "reason": "primality and totient verdicts disagree",
            "prime": prime,
            "totient_match": not prime,
        }
    return {"stats": stats, "witness": witness}


@dataclass(frozen=True)
class _Rule:
    """One task's certificate: how its instances are checked, spaced,
    chunked, bounded and merged."""

    check: Callable[[PrimeConvention, int, int], dict[str, Any]]  # (conv, lo, hi) -> result
    step: int  # between instances
    chunk: Callable[[int], int]  # instances per chunk from its first instance
    first: dict[PrimeConvention, int]  # the first instance under each convention
    reads: Callable[[int], int]  # the largest value a range ending at hi reads
    best: tuple[str, ...]  # the max stat, then its `_at` partner if it has one
    summed: tuple[str, ...] = ()  # stats added up beside the instances


# Instances per chunk, sized to amortize what every chunk pays whatever its
# width: an even-task chunk sieves with the base primes up to sqrt(hi) (from
# 1.1e13 on, only to 4 times its odd slots, then tests the survivors), a
# Legendre or parabolic chunk finds the roots of x^2 = -j modulo each prime
# up to sqrt(top) for its square sieve, and every chunk makes one pool trip.
# In process with one worker, CPython 3.11 on a shared 2-core x86-64 Xeon, a
# fresh process per cell, one warm-up run, then the median of three (the
# [4, 4e6] rates: the median of three such sweeps, under exclude1, with the
# depth count starting at the record's floor; the 1e12 rows predate the
# floor); rates in instances per second, peaks the tracemalloc peak of one
# chunk after one at the same height has grown the base primes:
#
#   task and range              4096      2^15      2^16      2^17      2^18
#   Goldbach [4, 4e6]           20.0 M/s  60.8 M/s  71.5 M/s  63.2 M/s  57.5 M/s
#   pre-Polignac [4, 4e6]       22.9 M/s  85.7 M/s  103 M/s   99.3 M/s  82.5 M/s
#   Goldbach [1e12, +2e6]       0.20 M/s  1.05 M/s  1.73 M/s  2.80 M/s  4.18 M/s
#   Goldbach peak at 1e12                           1.4 MB    3.0 MB    6.3 MB
#   pre-Polignac peak at 1e12                       2.5 MB    5.5 MB    11.4 MB
#
# So the even tasks take 2^16, the fastest width at 4e6 for both, under a
# 4 MB peak per chunk.  Goldbach alone
# would run faster at 1e12 with 2^17, but pre-Polignac shares the width and
# its 2^17 chunk passes 4 MB.
#
# The square tasks sieve a chunk only while the square sieve pays, which a
# wider chunk meets up to a greater height.  The range [h, h + 2^16)
# in chunks of each width, on the same host (one process, base primes built,
# the median of three), rates in thousands of instances per second with
# every row walked and by that rule, and the peak of one chunk by the rule:
#
#   task, h          4096               2^15               2^16
#   Legendre 1e4     37.3  35.3  0.001  33.7  45.6  0.27   36.2  53.3  0.53
#   Legendre 3e4     24.0  29.2  0.001  27.3  30.2  0.27   31.0  42.6  0.53
#   Legendre 1e5     21.9  23.6  0.001  19.4  20.4  0.001  20.5  32.5  0.53
#   Legendre 1e6     14.0  16.5  0.001  17.4  18.7  0.001  16.7  18.3  0.001
#   parabolic 1e4     168   161  0.002   163   181  0.025   190   275  0.049
#   parabolic 3e4     120   119  0.002   115   143  0.025   134   190  0.049
#   parabolic 1e5     109   135  0.002   113    98  0.002   101   140  0.049
#   parabolic 1e6     103   109  0.002   104   130  0.003   115   121  0.005
#
# Runs of one cell spread by up to a fifth, so only the sieved cells (a peak
# above 0.005 MB) differ from walking.  A chunk pays the roots for every
# prime up to its top, so a range costs least in the fewest chunks, and the
# peak is a byte per odd value held (8 a Legendre row when the table was
# measured, 12 since, and 1 an even parabolic k, beside a verdict byte per k
# since).  But a range splits across
# a pool only by its chunks.  With two
# workers (the median of three fresh processes), Legendre on 2^15 rows from
# 1e6, walked, took 1.07 s in chunks of 4096 and 1.78 s in one of 2^15; on
# 2^16 rows from 1e4, two sieved chunks of 2^15 took 0.76 s against 0.90 s
# walked in chunks of 4096, and one chunk of 2^16 took 1.04 s, as long as
# walking in that run.  So a square task's chunk is 2^15 rows while the
# sieve pays for that many from its first row (a first row up to 61,021,
# the same for both tasks), which holds a sweep of 3e4 rows whole and still
# gives two workers a chunk each of 2^16 rows, and 4096 where the rows are
# walked anyway.
#
_SQUARE_CHUNK = 1 << 15


def _square_chunk(lo: int) -> int:
    """A square task's chunk width from its first row: _SQUARE_CHUNK rows
    while the square sieve pays for that many, else 4096."""
    return _SQUARE_CHUNK if _square_sieve_pays(range(lo, lo + _SQUARE_CHUNK)) else 4096


# The even tasks start at 2 only under include1: 2 = 1 + 1 and the gap-2
# witness q = 1 both need the unit counted.
_INC, _EXC = PrimeConvention.INCLUDE1, PrimeConvention.EXCLUDE1
_RULES = {
    Task.GOLDBACH: _Rule(_check_goldbach, 2, lambda lo: 1 << 16, {_INC: 2, _EXC: 4},
                         lambda hi: hi, ("max_depth", "max_depth_at")),
    Task.PRE_POLIGNAC: _Rule(_check_pre_polignac, 2, lambda lo: 1 << 16, {_INC: 2, _EXC: 4},
                             lambda hi: hi + _REACH, ("max_witness", "max_witness_at")),
    Task.LEGENDRE: _Rule(_check_legendre, 1, _square_chunk,
                         {_INC: 1, _EXC: 1}, lambda hi: (hi + 1) ** 2,
                         ("max_first_gap", "max_first_gap_at")),
    Task.PARABOLIC: _Rule(_check_parabolic, 1, _square_chunk,
                          {_INC: 1, _EXC: 1}, lambda hi: hi * hi + 1,
                          ("largest_parabolic_k",), ("parabolic",)),
}


def _spans(rule: _Rule, gaps: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """The chunks that cover the gaps, each as wide as the rule's chunk at
    its first instance."""
    for a, b in gaps:
        while a <= b:
            top = min(a + rule.step * (rule.chunk(a) - 1), b)
            yield a, top
            a = top + rule.step


def _run_chunk(
    item: tuple[Task, PrimeConvention, int, int, int]
) -> tuple[int, int, dict[str, Any]]:
    """The chunk's span with its checker's stats and witness."""
    # looked up here, in the worker, so a replaced rule reaches forked workers;
    # only the Goldbach checker reads the floor, and any other, a replaced one
    # too, takes (conv, lo, hi)
    task, conv, lo, hi, floor = item
    check = _RULES[task].check
    return lo, hi, check(conv, lo, hi, floor) if check is _check_goldbach else check(conv, lo, hi)


# ---------------------------------------------------------------------------
# the run itself


@dataclass(frozen=True)
class RunSummary:
    task: Task
    convention: PrimeConvention
    lo: int
    hi: int
    verified: int
    skipped: int
    counterexamples: tuple[dict[str, Any], ...]
    stats: dict[str, int]
    complete: bool
    elapsed: float


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@contextmanager
def _locked_history(path: str | None) -> Iterator[list[Checkpoint]]:
    """Hold the checkpoint's lock file and yield its records; without a
    checkpoint there is no lock and the history is empty."""
    if path is None:
        yield []
        return
    lock_fd = os.open(path + ".lock", os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(lock_fd, fcntl.LOCK_EX)
        yield load_checkpoints(path)
    finally:
        fcntl.flock(lock_fd, fcntl.LOCK_UN)
        os.close(lock_fd)


def _fork_pool(size: int):
    """A pool of size forked workers, or a null context (pool None) for at
    most one; multiprocessing is imported only when a run forks."""
    if size <= 1:
        return nullcontext()
    from multiprocessing import get_context

    return get_context("fork").Pool(size)


def verify_range(
    task: Task,
    lo: int,
    hi: int,
    conv: PrimeConvention = DEFAULT_CONVENTION,
    checkpoint_path: str | os.PathLike[str] | None = None,
    worker_count: int = 1,
) -> RunSummary:
    """Check every instance of [lo, hi] not already covered by the checkpoint.

    The checkpoint (when given) is extended atomically as ascending progress
    accumulates; rerunning over covered ground verifies nothing and skips
    everything.  A counterexample stops the run, is recorded terminally, and
    appears in the summary.
    """
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if worker_count < 1:
        raise ValueError(f"worker_count must be positive, got {worker_count}")
    start = time.perf_counter()
    rule = _RULES[task]
    step = rule.step
    lo, hi = lo + lo % step, hi - hi % step
    if lo < rule.first[conv]:
        raise ValueError(
            f"{task.value} instances start at {rule.first[conv]} under {conv.value}, got {lo}"
        )
    top = rule.reads(hi)
    if top >> 64:
        raise ValueError(f"{task.value} to {hi} reads primality up to {top}, "
                         "beyond the supported 64-bit range (below 2**64)")

    path = None if checkpoint_path is None else os.fspath(checkpoint_path)
    run_stats: dict[str, int] = {}
    witness = None
    # a range with no instance of the right parity reads no checkpoint
    with _locked_history(path if lo <= hi else None) as existing:
        mine = [cp for cp in existing if cp.task is task and cp.convention is conv]
        # a recorded counterexample has already falsified the claim here
        terminal = tuple(cp.witness for cp in mine if cp.status == "counterexample")
        gaps = [] if terminal else _uncovered(lo, hi, [(cp.lo, cp.hi) for cp in mine], step)
        skipped = 0 if terminal else (
            instance_count(task, lo, hi) - sum(instance_count(task, a, b) for a, b in gaps))
        # the best stat of the record that a gap's chunks extend, keyed by the
        # gap's first instance: one pair, replaced whole as records fold
        floor = (lo, 0)

        def items() -> Iterator[tuple[Task, PrimeConvention, int, int, int]]:
            # chunks are made as the stream asks for them; a pool's task pipe
            # fills and pushes back, so only a few chunks are ever in flight,
            # and a chunk made ahead of the fold reads an older floor of its
            # gap, which only prunes less
            for a, b in gaps:
                for c_lo, c_hi in _spans(rule, [(a, b)]):
                    start, best = floor  # one read: the pair may change meanwhile
                    yield task, conv, c_lo, c_hi, best if start == a else 0

        # workers beyond the chunks or the host's cores only add forks; results
        # do not depend on the count
        chunks = sum(1 for _ in islice(_spans(rule, gaps), worker_count))
        pool_size = min(worker_count, chunks, os.cpu_count() or 1)
        # the history plus this run's records; this run's last record stays
        # open, growing while the chunks that follow continue its gap
        records = list(existing)
        ts = _now()
        flushed = time.perf_counter()
        # leaving the pool's block stops any workers still busy
        with _fork_pool(pool_size) as pool:
            results = pool.imap(_run_chunk, items()) if pool else map(_run_chunk, items())
            for c_lo, c_hi, res in results:
                stats, witness = res["stats"], res["witness"]
                _merge_stats(rule, run_stats, stats)
                if stats["instances"] > 0:
                    if witness is not None:
                        c_hi = witness["instance"] - step
                    if len(records) > len(existing) and records[-1].hi == c_lo - step:
                        _merge_stats(rule, records[-1].stats, stats)
                        records[-1] = replace(records[-1], hi=c_hi)
                    else:
                        records.append(Checkpoint(task, conv, c_lo, c_hi, "verified",
                                                  dict(stats), ts))
                    floor = (records[-1].lo, records[-1].stats[rule.best[0]])
                if witness is not None:
                    bad = witness["instance"]
                    records.append(Checkpoint(task, conv, bad, bad, "counterexample",
                                              {}, ts, witness=witness))
                    break
                if path is not None and time.perf_counter() - flushed >= FLUSH_SECONDS:
                    _write_checkpoints(path, records)
                    flushed = time.perf_counter()
        if path is not None and gaps:
            _write_checkpoints(path, records)
    counterexamples = terminal if witness is None else (witness,)
    return RunSummary(
        task=task,
        convention=conv,
        lo=lo,
        hi=hi,
        verified=run_stats.get("instances", 0),
        skipped=skipped,
        counterexamples=counterexamples,
        stats=run_stats,
        complete=not counterexamples,
        elapsed=time.perf_counter() - start,
    )
