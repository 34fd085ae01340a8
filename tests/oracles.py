"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written with different algorithms than the
package under test: trial division instead of strong-pseudoprime tests,
naive scans instead of sieves, direct counting instead of product formulas.
Slow on purpose; keep inputs small.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Any

from landau.primes import PrimeConvention, is_prime, prime_flags, primes_in_range
from landau.zn import totient


def trial_division_prime(n: int, include1: bool = True) -> bool:
    if n < 1:
        return False
    if n == 1:
        return include1
    if n == 2:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def naive_primes(lo: int, hi: int, include1: bool = True) -> list[int]:
    return [k for k in range(lo, hi + 1) if trial_division_prime(k, include1)]


def naive_prev_prime(n: int, include1: bool = True) -> int | None:
    for k in range(n - 1, 0, -1):
        if trial_division_prime(k, include1):
            return k
    return None


def brute_totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def brute_carmichael(n: int) -> int:
    """Smallest e >= 1 with a**e == 1 (mod n) for every unit a."""
    if n == 1:
        return 1  # pow(_, e, 1) is 0, so the scan below would never halt
    units = [a for a in range(1, n + 1) if math.gcd(a, n) == 1]
    e = 1
    while True:
        if all(pow(a, e, n) == 1 for a in units):
            return e
        e += 1


def brute_order(a: int, n: int) -> int:
    x = a % n
    e = 1
    while x != 1:
        x = x * a % n
        e += 1
    return e


def brute_couples(two_n: int, include1: bool = True) -> list[tuple[int, int]]:
    """All unordered prime pairs (p, q), p <= q, p + q = two_n."""
    out = []
    for p in range(1, two_n // 2 + 1):
        q = two_n - p
        if trial_division_prime(p, include1) and trial_division_prime(q, include1):
            out.append((p, q))
    return out


def brute_quasi(two_n: int, include1: bool = True) -> list[tuple[int, int]]:
    """Unit pairs (a, 2n - a), a <= 2n - a, whose members are not both prime."""
    return [
        (a, two_n - a)
        for a in range(1, two_n // 2 + 1)
        if math.gcd(a, two_n) == 1
        and not (trial_division_prime(a, include1) and trial_division_prime(two_n - a, include1))
    ]


def tonelli_shanks_roots(p: int, offsets: range) -> set[tuple[int, int]]:
    """(j, x) for each offset j and each root x of x^2 = -j (mod p), for an
    odd prime p: Tonelli and Shanks' loop for every j, the reference for
    the square sieve's closed forms."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    out = set()
    for j in offsets:
        a = -j % p
        if a == 0:
            out.add((j, 0))
            continue
        if pow(a, (p - 1) // 2, p) != 1:
            continue
        m, c, t, x = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, u = 0, t
            while u != 1:
                u, i = u * u % p, i + 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c, t, x = i, b * b % p, t * b * b % p, x * b % p
        out |= {(j, x), (j, p - x)}
    return out


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b), textbook recursion."""
    if b == 0:
        return (abs(a), (1 if a >= 0 else -1) if a else 0, 0)
    g, x, y = egcd(b, a % b)
    return (g, y, x - (a // b) * y)


def crt_reconstruct(components: list[tuple[int, int]]) -> int:
    """The residue modulo the product of the coprime moduli m that leaves
    remainder r modulo each m, lifted one modulus at a time (Garner)."""
    x, total = 0, 1
    for r, m in components:
        x += total * ((r - x) * pow(total, -1, m) % m)
        total *= m
    return x


def pre_polignac_witness(two_n: int, include1: bool = True) -> int | None:
    """Smallest prime q < 2n with q + 2n prime, or None if there is none."""
    for q in range(1, two_n):
        if trial_division_prime(q, include1) and trial_division_prime(q + two_n, include1):
            return q
    return None


def naive_factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def brun_sum_naive(n_max: int, include1: bool) -> Fraction:
    acc = Fraction(0)
    lo = 1 if include1 else 2
    for p in range(lo, n_max - 1):
        if trial_division_prime(p, include1) and trial_division_prime(p + 2, include1):
            acc += Fraction(1, p) + Fraction(1, p + 2)
    return acc


def numpy_sieve(limit: int):
    """Boolean prime mask over [0, limit], excluding 1; classic vector sieve."""
    import numpy as np

    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def numpy_goldbach_pairs(two_n: int, mask, primes) -> list[tuple[int, int]]:
    """Pairs (p, 2n-p) with p <= n from a numpy mask; oracle for enumerate."""
    import numpy as np

    ps = primes[primes <= two_n // 2]
    hit = mask[two_n - ps]
    return [(int(p), two_n - int(p)) for p in ps[hit]]


# The per-instance even-task checkers that the bitset scan in landau.harness
# replaced; kept as the oracle for it.  Same (conv, lo, hi) -> {"stats",
# "witness"} contract, and the same widening from their own reach.

_REACH = 1 << 10
_LAST = (1 << 64) - 1  # the last value is_prime decides


def check_goldbach(conv: PrimeConvention, lo: int, hi: int) -> dict[str, Any]:
    reach = _REACH
    while True:
        base = max(lo - reach, 0)
        primes = primes_in_range(base, hi, conv)
        primes.append(hi + 1)  # sentinel above every target
        flags = prime_flags(hi - base, conv)  # remainders 2n - p with p >= base
        stats = {"instances": 0, "max_depth": 0, "max_depth_at": 0}
        top = -1  # primes[top] is the largest candidate below 2n
        for two_n in range(lo, hi + 1, 2):
            while primes[top + 1] < two_n:
                top += 1
            k = top
            while k >= 0 and not flags[two_n - primes[k]]:
                k -= 1
            if k < 0:
                if base > 0:
                    break  # the descent ran below the window: widen it
                witness = {"instance": two_n, "reason": "descent exhausted"}
                return {"stats": stats, "witness": witness}
            depth = top - k + 1
            stats["instances"] += 1
            if depth > stats["max_depth"]:
                stats["max_depth"] = depth
                stats["max_depth_at"] = two_n
        else:
            return {"stats": stats, "witness": None}
        reach *= 4


def check_pre_polignac(conv: PrimeConvention, lo: int, hi: int) -> dict[str, Any]:
    reach = _REACH
    while True:
        # a window that ends at 2**64 - 1 can grow no further, so each gap
        # tries every q whose partner the window holds
        last = hi + reach == _LAST
        witnesses = primes_in_range(0, min(_LAST - lo if last else reach, hi), conv)
        partners = bytearray(hi + reach - lo + 1)  # partners[v - lo]: is v prime
        for p in primes_in_range(lo, hi + reach, conv):
            partners[p - lo] = 1
        stats = {"instances": 0, "max_witness": 0, "max_witness_at": 0}
        for gap in range(lo, hi + 1, 2):
            # w: the smallest q with q + gap prime; the certificate needs q < gap
            off = gap - lo
            w = gap
            for q in witnesses:
                if q + off >= len(partners):
                    break  # past 2**64 - 1
                if partners[q + off]:
                    w = q
                    break
            if w >= gap:
                if (_LAST - gap if last else reach) < gap:
                    if last:
                        raise ValueError(f"pre-polignac instance {gap} has no witness whose "
                                         "partner is below 2**64")
                    break  # a witness may lie above the reach: widen it
                witness = {"instance": gap, "reason": "no prime witness below the gap"}
                return {"stats": stats, "witness": witness}
            stats["instances"] += 1
            if w > stats["max_witness"]:
                stats["max_witness"] = w
                stats["max_witness_at"] = gap
        else:
            return {"stats": stats, "witness": None}
        reach = min(4 * reach, _LAST - hi)


# The per-k parabolic checker that the k^2 + 1 sieve in landau.harness
# replaced: every totient by trial division through zn.totient.


def check_parabolic(conv: PrimeConvention, lo: int, hi: int) -> dict[str, Any]:
    stats = {"instances": 0, "parabolic": 0, "largest_parabolic_k": 0}
    for k in range(lo, hi + 1):
        p = k * k + 1
        prime = is_prime(p, conv)
        tot_match = totient(p) == k * k
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


# Fixed-gap pairs one is_prime call per value, and the dyadic block by the
# loop that the closed form in landau.gaps replaced.


def gap_pairs_by_is_prime(
    two_n: int, q_max: int, conv: PrimeConvention
) -> list[tuple[int, int, int]]:
    """(q, q + 2n, block) for every q <= q_max with q and q + 2n prime."""
    out = []
    for q in range(1, q_max + 1):
        if is_prime(q, conv) and is_prime(q + two_n, conv):
            m = 1
            while q > two_n << m:
                m += 1
            out.append((q, q + two_n, m))
    return out


# The Markdown renderer that landau.reports replaced: it escapes each cell
# on its own and joins each row in turn.


def render_md_per_cell(report, config) -> bytes:
    def line(cells: tuple[str, ...]) -> str:
        return "| " + " | ".join([c.replace("|", "\\|") for c in cells]) + " |"

    lines = [f"config: {config.echo()}", "", f"### {report.title}", "", line(report.headers)]
    lines.append("|" + "|".join(" --- " for _ in report.headers) + "|")
    lines.extend(map(line, report.rows))
    if report.footers:
        lines.append("")
        lines.extend(report.footers)
    return ("\n".join(lines) + "\n").encode("utf-8")
