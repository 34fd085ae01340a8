"""Write pins.json: the expected outputs the benchmark checks against.

    python3 perfbench/make_pins.py        # from the root of a checkout

Run it only on a commit whose outputs are trusted; the pins are the
benchmark's reference.  It takes a few minutes on one core.

* sweep statistics for every range the sweeps can draw;
* the 64-bit inputs of the desk stream's `ideals radical` slice: uniform
  draws from [1, 2^64), keeping those whose trial-division fallback walk in
  `factorize` stops below RADICAL_WALK_MAX (the rest take seconds to
  minutes, see README.md);
* a digest of every desk pool query's output.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys

import workloads

ROOT = os.getcwd()
RADICAL_WALK_FROM = 10**6  # factorize's trial-division table ends here
RADICAL_WALK_MAX = 12 * 10**6


def _small_primes(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if flags[p]]


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, exact below 2^64."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def fallback_walk_end(m: int, primes: list[int]) -> int:
    """Where factorize's odd-divisor walk past 10^6 stops for m (0: no walk)."""
    for p in primes:
        if p * p > m:
            return 0
        while m % p == 0:
            m //= p
    if m == 1 or _is_probable_prime(m):
        return 0
    d = RADICAL_WALK_FROM + 1
    while d <= RADICAL_WALK_MAX:
        if m % d == 0:
            return d
        d += 2
    return RADICAL_WALK_MAX + 1


def radical_inputs(count: int) -> tuple[list[int], int]:
    """Kept draws ordered by walk length, the size that drives their latency."""
    rng = random.Random(f"{workloads.POOL_SEED}/radical")
    primes = _small_primes(RADICAL_WALK_FROM)
    kept, drawn = [], 0
    while len(kept) < count:
        m = rng.randrange(1, 1 << 64)
        drawn += 1
        walk = fallback_walk_end(m, primes)
        if walk <= RADICAL_WALK_MAX:
            kept.append((walk, m))
    return [m for _, m in sorted(kept)], drawn


def desk_digests(pool: list[list[str]]) -> list[str]:
    from child import Captured, run_cli
    from landau.cli import main

    out = []
    for argv in pool:
        with Captured() as cap:
            code = run_cli(main, argv)
        out.append(workloads.normalized_digest(code, cap.out.getvalue(), cap.err.getvalue(), argv[1]))
    return out


def sweep_stats() -> tuple[dict, dict]:
    from landau.harness import Task, verify_range
    from landau.primes import PrimeConvention

    def stats(task: str, lo: int, hi: int) -> dict:
        s = verify_range(Task(task), lo, hi, PrimeConvention.INCLUDE1, worker_count=1)
        if not s.complete or s.counterexamples:
            raise RuntimeError(f"{task} [{lo}, {hi}] did not verify")
        return s.stats

    sieve = {task: {"lo": 2, "hi": workloads.SIEVE_HI, "stats": stats(task, 2, workloads.SIEVE_HI)}
             for task in ("goldbach", "pre-polignac")}
    arith = {task: {str(lo): stats(task, lo, hi) for lo, hi in windows}
             for task, windows in workloads.arith_windows().items()}
    return sieve, arith


def main() -> None:
    for key in [k for k in os.environ if k.startswith("LANDAU_")]:
        del os.environ[key]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    radical_m, drawn = radical_inputs(workloads.RADICAL_PER_BLOCK * workloads.POOL_BLOCKS)
    pool, _ = workloads.build_pool(radical_m)
    digests = desk_digests(pool)
    sieve, arith = sweep_stats()
    pins = {
        "sieve": sieve,
        "arith": arith,
        "desk": {
            "radical_m": radical_m,
            "radical_drawn": drawn,
            "radical_walk_max": RADICAL_WALK_MAX,
            "pool_sha256": workloads.pool_fingerprint(pool),
            "digests": digests,
        },
    }
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(digests)} desk queries; kept {len(radical_m)} of {drawn} radical draws")


if __name__ == "__main__":
    main()
