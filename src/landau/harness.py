"""Resumable batch verification over integer ranges.

Each task turns a headline claim into a range certificate: descent success
for every even number (couple search), a small-prime witness for every even
gap, a prime inside every square interval, and totient/primality agreement
for every parabolic candidate k^2 + 1, whose unit count comes from an N - 1
certificate per k (figurate.totient_is_k_squared) and whose primality from
is_prime, so the two verdicts stay independent.

Progress lives in a line-delimited JSON checkpoint, one record per contiguous
verified subrange.  The file is only ever replaced whole (write a sibling
temp file, fsync, rename), so a killed run leaves the previous parseable
state behind; it is rewritten once FLUSH_SECONDS have passed since the last
write and once at the end, so a kill loses at most that much folded work
plus the chunks in flight.  Work is split into chunks whose width each task
takes from one rule (_chunk_size: the even tasks' chunks wide enough to
amortize the sieve and pool trip each pays whatever its width, every chunk
small enough for a 4 MB peak), made as the stream of results asks for them,
whose results come back in ascending order (a forked worker pool's ordered
imap, or a plain map with one worker, which never imports multiprocessing)
and are folded into records in that order, which keeps the checkpoint
content independent of the worker count.  A chunk is a pure function of its
task, convention and span: it sieves only the window it reads, its span plus
a reach that grows only when a search runs off it, so a run holds no list
that grows with the range: memory is O(chunk + reach + pi(B)) at any height,
B the cap on the base primes, and a range that would read past 2**64 is
refused at once.

The two even tasks are certified by one bitset scan rather than a loop per
instance: the window's odd prime flags are packed into one Python int, each
of the chunk's even instances is one bit, and for each small prime q in
ascending order one shift, AND and XOR take out every instance whose
smallest prime remainder (Goldbach) or witness (pre-Polignac) is q.  The
scan leaves a few levels (q, instances); a gap's largest witness is read off
the top level, and the largest descent depth is counted exactly on the top
levels only, down to the first level whose windows are too short to reach
the best depth so far.  That bound comes from the window's prime counts per
block of 8 odd values, summed over m consecutive blocks at once by one
big-int multiply with a repunit.
"""

from __future__ import annotations

import fcntl
import json
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Iterable, Iterator

from .figurate import totient_is_k_squared
from .primes import (
    DEFAULT_CONVENTION,
    PrimeConvention,
    _odd_flags,
    is_prime,
    next_prime,
    primes_in_range,
)

FLUSH_SECONDS = 1.0  # least time between checkpoint writes while a run goes on
SCHEMA_VERSION = 1


class Task(Enum):
    GOLDBACH = "goldbach"
    PRE_POLIGNAC = "pre-polignac"
    LEGENDRE = "legendre"
    PARABOLIC = "parabolic"


# tasks whose instances are even numbers (sum targets and gaps)
_EVEN_TASKS = frozenset({Task.GOLDBACH, Task.PRE_POLIGNAC})


# Instances per chunk, sized to amortize what every chunk pays whatever its
# width: an even-task chunk sieves with the base primes up to sqrt(hi) (from
# 1.1e13 on, only to 4 times its odd slots, then tests the survivors) and
# makes one pool trip.
# Legendre and parabolic chunks pay neither: their work is per instance.
# In process with one worker, CPython 3.11 on a shared 2-core x86-64 Xeon, a
# fresh process per cell, one warm-up run, then the median of three (the
# Goldbach rates: the median of three such sweeps, which spread by up to a
# third); rates in instances per second, peaks the tracemalloc peak of one
# chunk after one at the same height has grown the base primes:
#
#   task and range              4096      2^15      2^16      2^17      2^18
#   Goldbach [4, 4e6]           8.2 M/s   31.8 M/s  41.3 M/s  29.7 M/s  26.2 M/s
#   pre-Polignac [4, 4e6]       10.4 M/s            44.2 M/s
#   Goldbach [1e12, +2e6]       0.20 M/s  1.05 M/s  1.73 M/s  2.80 M/s  4.18 M/s
#   Goldbach peak at 1e12                           1.4 MB    3.0 MB    6.3 MB
#   pre-Polignac peak at 1e12                       2.5 MB    5.5 MB    11.4 MB
#   parabolic [1e7, 1e7+2^16)   0.72 s    0.74 s
#   Legendre [1, 3e4]           0.40 s    0.46 s
#
# So the even tasks take 2^16, under a 4 MB peak per chunk, and the others
# 4096 (a parabolic chunk of 4096 at 1e7 peaks at 0.013 MB).  Goldbach alone
# would run faster at 1e12 with 2^17, but pre-Polignac shares the rule and
# its 2^17 chunk passes 4 MB.
def _chunk_size(task: Task) -> int:
    """Instances per chunk of task."""
    return 1 << 16 if task in _EVEN_TASKS else 4096


# how record statistics combine when subranges are concatenated
_STAT_MERGE: dict[Task, tuple[tuple[str, str, str | None], ...]] = {
    Task.GOLDBACH: (("max", "max_depth", "max_depth_at"),),
    Task.PRE_POLIGNAC: (("max", "max_witness", "max_witness_at"),),
    Task.LEGENDRE: (("max", "max_first_gap", "max_first_gap_at"),),
    Task.PARABOLIC: (("sum", "parabolic", None), ("max", "largest_parabolic_k", None)),
}


class CheckpointError(ValueError):
    """An untrustworthy checkpoint file; the message names the bad line."""

    def __init__(self, path: str, line_no: int, reason: str) -> None:
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


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


def _step(task: Task) -> int:
    return 2 if task in _EVEN_TASKS else 1


def _domain_lo(task: Task, conv: PrimeConvention) -> int:
    if task in _EVEN_TASKS:
        # 2 = 1 + 1 and the gap-2 witness q = 1 both need the unit counted
        return 2 if conv is PrimeConvention.INCLUDE1 else 4
    return 1


def instance_count(task: Task, lo: int, hi: int) -> int:
    """Number of task instances in the aligned range [lo, hi]."""
    if hi < lo:
        return 0
    return (hi - lo) // _step(task) + 1


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


def _merge_stats(task: Task, acc: dict[str, int], new: dict[str, int]) -> None:
    """Fold new into acc in place; an empty acc takes new as it is."""
    if not acc:
        acc.update(new)
        return
    acc["instances"] += new["instances"]
    for kind, key, at_key in _STAT_MERGE[task]:
        if kind == "sum":
            acc[key] += new[key]
        elif new[key] > acc[key]:
            acc[key] = new[key]
            if at_key is not None:
                acc[at_key] = new[at_key]


# ---------------------------------------------------------------------------
# per-task instance checkers
#
# Each checker is a pure function of its span: it takes (conv, lo, hi), sieves
# only the window it reads under the run's own convention (so the unit is
# already in every table under include1), and returns the span's stats and
# the first counterexample, if any.  Memory is O(chunk + reach) at any height
# beside the capped base primes, and nothing outlives the chunk.
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
# the count stops at the first level that cannot reach the best depth so far.
# The bound is coarse but cheap: a byte of P, 8 odd values, is a block; the
# int of the blocks' prime counts times the repunit sum_{i<m} 256^i has, in
# each digit, the primes of m consecutive blocks, and one translate of the
# product's bytes tells whether any digit reaches a given count.

_REACH = 1 << 10
_BITS = bytes.maketrans(b"\0\1", b"01")
_POPCOUNT = bytes(b.bit_count() for b in range(256))
_NONZERO = b"\0" + b"\1" * 255
_BIT_POSITIONS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))


def _as_int(flags: bytearray) -> int:
    """The 0/1 bytes as one int, flags[j] as bit j."""
    return int(flags[::-1].translate(_BITS), 2) if flags else 0


def _lowest(x: int) -> int:
    """Position of the lowest set bit of x > 0."""
    return (x & -x).bit_length() - 1


# Up to this many set bits, peeling off the top bit beats reading all of x
# byte by byte: on 2^16-bit ints, 1.2 against 7.1 us at 1 bit, 11 against 28
# at 16, about even from 100 (CPython 3.11, x86-64); near 60 on 2^18 bits.
_SPARSE_BITS = 64


def _set_bits(x: int) -> Iterator[int]:
    """Positions of the set bits of x >= 0, ascending."""
    if x.bit_count() <= _SPARSE_BITS:
        top = []
        while x:
            b = x.bit_length() - 1
            top.append(b)
            x ^= 1 << b
        yield from reversed(top)
        return
    data = x.to_bytes((x.bit_length() + 7) // 8, "little")
    marks = data.translate(_NONZERO)
    j = marks.find(1)
    while j >= 0:
        for b in _BIT_POSITIONS[data[j]]:
            yield 8 * j + b
        j = marks.find(1, j + 1)


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


def _check_goldbach(conv: PrimeConvention, lo: int, hi: int) -> dict[str, Any]:
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
        # window holds it.  Depths are counted exactly, level by level from
        # the top, down to the first level whose windows, which touch at most
        # (w + 6) // 8 + 1 blocks of 8 odd values, fit in `stop` blocks: no
        # `stop` consecutive blocks of the window hold enough primes to reach
        # the best depth so far.
        with_two = base <= 2
        holds = _block_test(P, len(flags))
        prefix = (1 << n_ok) - 1
        best = best_at = 0
        stop = 0
        for q, hit in reversed(levels):
            hit &= prefix
            if not hit:
                continue
            blocks = ((q + 1) // 2 + 6) // 8 + 1
            if blocks <= stop:
                break
            before = best
            for i in _set_bits(hit):
                two_n = lo + 2 * i
                a = two_n - q
                depth = (flags.count(1, (a - first + 1) // 2, (two_n - first + 1) // 2)
                         + (with_two and a <= 2 < two_n))
                if depth > best or depth == best and two_n < best_at:
                    best, best_at = depth, two_n
            if best > before:
                # the most blocks that cannot reach the best depth, bisected
                # between the last such count (the depth has only grown) and
                # this level's
                low, high = stop, blocks
                while high - low > 1:
                    mid = (low + high) // 2
                    if holds(mid, best - with_two):
                        high = mid
                    else:
                        low = mid
                stop = low
        stats = {"instances": n_ok, "max_depth": best, "max_depth_at": best_at}
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

        def shifted(q: int) -> int:
            # an even gap plus 2 is even, never a prime partner
            return 0 if q == 2 else P >> (lo + q - first) // 2

        levels, failed = _scan(count, _ascending_primes(min(reach, hi), conv), shifted)
        # the certificate needs q < gap: a gap first met by some q >= gap has
        # no witness below it, like one that no q met
        for q, hit in levels:
            if q >= lo:
                failed |= hit & ((2 << (q - lo) // 2) - 1)
        n_ok = _lowest(failed) if failed else count
        if n_ok < count and reach < lo + 2 * n_ok:
            reach *= 4  # a witness may lie above the reach: widen it
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
            witness = {"instance": lo + 2 * n_ok, "reason": "no prime witness below the gap"}
        return {"stats": stats, "witness": witness}


def _check_legendre(conv: PrimeConvention, lo: int, hi: int) -> dict[str, Any]:
    stats = {"instances": 0, "max_first_gap": 0, "max_first_gap_at": 0}
    for n in range(lo, hi + 1):
        base = n * n
        found = next_prime(base - 1, conv)
        # the upper endpoint (n+1)^2 is a square > 1, never prime, so the
        # first prime from n^2 on decides the whole closed interval
        if found > base + 2 * n:
            witness = {"instance": n, "reason": "no prime in the square interval"}
            return {"stats": stats, "witness": witness}
        stats["instances"] += 1
        gap = found - base
        if gap > stats["max_first_gap"]:
            stats["max_first_gap"] = gap
            stats["max_first_gap_at"] = n
    return {"stats": stats, "witness": None}


def _check_parabolic(conv: PrimeConvention, lo: int, hi: int) -> dict[str, Any]:
    stats = {"instances": 0, "parabolic": 0, "largest_parabolic_k": 0}
    for k in range(lo, hi + 1):
        prime = is_prime(k * k + 1, conv)
        tot_match = totient_is_k_squared(k)
        if prime != tot_match:
            witness = {
                "instance": k,
                "reason": "primality and totient verdicts disagree",
                "prime": prime,
                "totient_match": tot_match,
            }
            return {"stats": stats, "witness": witness}
        stats["instances"] += 1
        if prime:
            stats["parabolic"] += 1
            stats["largest_parabolic_k"] = k
    return {"stats": stats, "witness": None}


_CHECKERS = {
    Task.GOLDBACH: _check_goldbach,
    Task.PRE_POLIGNAC: _check_pre_polignac,
    Task.LEGENDRE: _check_legendre,
    Task.PARABOLIC: _check_parabolic,
}


def _run_chunk(item: tuple[Task, PrimeConvention, int, int]) -> tuple[int, int, dict[str, Any]]:
    """The chunk's span with its checker's stats and witness."""
    # looked up here, in the worker, so a replaced checker reaches forked workers
    task, conv, lo, hi = item
    return lo, hi, _CHECKERS[task](conv, lo, hi)


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
    step = _step(task)
    lo, hi = lo + lo % step, hi - hi % step
    floor = _domain_lo(task, conv)
    if lo < floor:
        raise ValueError(
            f"{task.value} instances start at {floor} under {conv.value}, got {lo}"
        )
    top = {Task.GOLDBACH: hi, Task.PRE_POLIGNAC: hi + _REACH,
           Task.LEGENDRE: (hi + 1) ** 2, Task.PARABOLIC: hi * hi + 1}[task]
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
        stride = _chunk_size(task) * step
        # chunks are made as the stream asks for them; a pool's task pipe
        # fills and pushes back, so only a few chunks are ever in flight
        items = ((task, conv, c_lo, min(c_lo + stride - step, b))
                 for a, b in gaps for c_lo in range(a, b + 1, stride))
        chunks = sum(len(range(a, b + 1, stride)) for a, b in gaps)
        # workers beyond the chunks or the host's cores only add forks; results
        # do not depend on the count
        pool_size = min(worker_count, chunks, os.cpu_count() or 1)
        # the history plus this run's records; this run's last record stays
        # open, growing while the chunks that follow continue its gap
        records = list(existing)
        ts = _now()
        flushed = time.perf_counter()
        # leaving the pool's block stops any workers still busy
        with _fork_pool(pool_size) as pool:
            results = pool.imap(_run_chunk, items) if pool else map(_run_chunk, items)
            for c_lo, c_hi, res in results:
                stats, witness = res["stats"], res["witness"]
                _merge_stats(task, run_stats, stats)
                if stats["instances"] > 0:
                    if witness is not None:
                        c_hi = witness["instance"] - step
                    if len(records) > len(existing) and records[-1].hi == c_lo - step:
                        _merge_stats(task, records[-1].stats, stats)
                        records[-1] = replace(records[-1], hi=c_hi)
                    else:
                        records.append(Checkpoint(task, conv, c_lo, c_hi, "verified",
                                                  dict(stats), ts))
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
