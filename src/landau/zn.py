"""Structure of the ring Z_n: factorization, totient, Carmichael, units,
strong generators, CRT decomposition, and the subgroup lattice.

Factorizations are exponent vectors; all gcd/lcm/product arithmetic happens
on exponents so values never need to fit a machine word.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress

from .primes import (
    DEFAULT_CONVENTION,
    PrimeConvention,
    _ensure_base_primes,
    is_prime,
    prime_flags,
)

__all__ = [
    "Factorization",
    "UnitsProfile",
    "MultiplicationTable",
    "factorize",
    "totient",
    "carmichael",
    "units",
    "units_profile",
    "unit_inverse",
    "multiplication_table",
    "is_prime_via_totient",
    "crt_decompose",
    "crt_reconstruct",
    "subgroup_lattice",
]

# factorize divides by cached base primes up to here and walks the odd numbers above
_GCD_SCAN_LIMIT = 10**6


@dataclass(frozen=True)
class Factorization:
    """Product of prime powers as an ascending ((p, e), ...) tuple; () is 1."""

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError(f"primes must be strictly increasing: {self.factors}")
            if e < 1:
                raise ValueError(f"exponent must be >= 1: {p}^{e}")
            if not is_prime(p, PrimeConvention.EXCLUDE1):
                raise ValueError(f"{p} is not prime")
            last = p

    # -- views ---------------------------------------------------------------
    def value(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def exponent(self, p: int) -> int:
        return self._exponents.get(p, 0)

    @cached_property
    def _exponents(self) -> dict[int, int]:
        # built once, so a modulus with thousands of primes answers each
        # divisibility check in O(the divisor's own primes)
        return dict(self.factors)

    def is_one(self) -> bool:
        return not self.factors

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(str(p) if e == 1 else f"{p}^{e}" for p, e in self.factors)

    # -- exponent-vector arithmetic -------------------------------------------
    def _merge(self, other: "Factorization", combine) -> "Factorization":
        exps: dict[int, int] = {}
        for p, e in self.factors:
            exps[p] = e
        seen = set(exps)
        for p, e in other.factors:
            exps[p] = combine(exps.get(p, 0), e)
            seen.discard(p)
        for p in seen:  # primes only on the left
            exps[p] = combine(exps[p], 0)
        out = tuple(sorted((p, e) for p, e in exps.items() if e > 0))
        return Factorization(out)

    def gcd(self, other: "Factorization") -> "Factorization":
        return self._merge(other, min)

    def lcm(self, other: "Factorization") -> "Factorization":
        return self._merge(other, max)

    def product(self, other: "Factorization") -> "Factorization":
        return self._merge(other, lambda a, b: a + b)

    def squarefree(self) -> "Factorization":
        return Factorization(tuple((p, 1) for p, _ in self.factors))

    def divides(self, other: "Factorization") -> bool:
        return all(other.exponent(p) >= e for p, e in self.factors)

    def capped_by(self, cap: "Factorization") -> "Factorization":
        """Exponentwise min against cap, dropping primes not in cap."""
        out = tuple(
            (p, min(e, cap.exponent(p))) for p, e in self.factors if cap.exponent(p) > 0
        )
        return Factorization(tuple((p, e) for p, e in out if e > 0))

    @staticmethod
    def of(n: int) -> "Factorization":
        return factorize(n)


def factorize(n: int) -> Factorization:
    """Exact prime factorization of n >= 1 by trial division."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    if n == 1:
        return Factorization()
    out: list[tuple[int, int]] = []
    limit = min(math.isqrt(n), _GCD_SCAN_LIMIT)
    for p in _ensure_base_primes(max(limit, 3)):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        if is_prime(n, PrimeConvention.EXCLUDE1):
            out.append((n, 1))
        else:
            # all remaining factors exceed the sieve cache; walk the odds
            d = _GCD_SCAN_LIMIT + 1
            while d * d <= n:
                if n % d == 0:
                    e = 0
                    while n % d == 0:
                        n //= d
                        e += 1
                    out.append((d, e))
                    if n > 1 and is_prime(n, PrimeConvention.EXCLUDE1):
                        break
                d += 2
            if n > 1:
                out.append((n, 1))
            out.sort()
    return Factorization(tuple(out))


def totient(n: int) -> int:
    """Euler's phi via the product formula; phi(1) = 1."""
    if n < 1:
        raise ValueError(f"totient needs n >= 1, got {n}")
    out = n
    for p, _ in factorize(n).factors:
        out -= out // p
    return out


def carmichael(n: int) -> int:
    """lambda(n): lcm of unit-group exponents of the prime-power factors.

    lambda(2)=1, lambda(4)=2, lambda(2^e)=2^(e-2) for e >= 3; lambda(p^e) =
    phi(p^e) for odd p.
    """
    if n < 1:
        raise ValueError(f"carmichael needs n >= 1, got {n}")
    parts = []
    for p, e in factorize(n).factors:
        if p == 2:
            parts.append(1 if e == 1 else 2 if e == 2 else 1 << (e - 2))
        else:
            parts.append((p - 1) * p ** (e - 1))
    return reduce(math.lcm, parts, 1)


@dataclass(frozen=True)
class UnitsProfile:
    """The unit group of Z_n in one view: members, sizes, cyclicity, and the
    strong subset (units that are prime under the stated convention)."""

    modulus: int
    units: tuple[int, ...]
    totient: int
    carmichael: int
    cyclic: bool
    strong: tuple[int, ...]
    convention: PrimeConvention

    def __post_init__(self) -> None:
        if len(self.units) != self.totient:
            raise ValueError(f"unit count {len(self.units)} != phi {self.totient}")


def units(n: int) -> tuple[int, ...]:
    """The units of Z_n, ascending: every k in [1, n) coprime to n.

    One bytearray over [0, n) with the multiples of each prime factor of n
    struck out, so the cost is a few slice assignments rather than a gcd per k.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    mask = bytearray(b"\x01") * n
    for p in factorize(n).primes():
        mask[::p] = bytes(len(range(0, n, p)))
    return tuple(compress(range(n), mask))


def units_profile(n: int, conv: PrimeConvention = DEFAULT_CONVENTION) -> UnitsProfile:
    if n < 2:
        raise ValueError(f"units_profile needs n >= 2, got {n}")
    unit_list = units(n)
    phi = totient(n)
    lam = carmichael(n)
    flags = prime_flags(n, conv)
    strong = tuple(u for u in unit_list if flags[u])
    return UnitsProfile(n, unit_list, phi, lam, phi == lam, strong, conv)


def unit_inverse(a: int, n: int) -> int:
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    g = math.gcd(a % n, n)
    if g != 1:
        raise ValueError(f"{a} is not a unit modulo {n}: gcd({a}, {n}) = {g}")
    return pow(a, -1, n)


@dataclass(frozen=True)
class MultiplicationTable:
    """Unit-by-unit multiplication grid; a symmetric Latin square."""

    modulus: int
    units: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    inverses: tuple[tuple[int, int], ...]

    def entry(self, a: int, b: int) -> int:
        try:
            i = self.units.index(a)
            j = self.units.index(b)
        except ValueError:
            raise ValueError(f"{a} or {b} is not a unit modulo {self.modulus}") from None
        return self.rows[i][j]


def multiplication_table(n: int) -> MultiplicationTable:
    unit_list = units(n)
    rows = tuple(tuple(u * v % n for v in unit_list) for u in unit_list)
    inverses = tuple((u, unit_inverse(u, n)) for u in unit_list)
    return MultiplicationTable(n, unit_list, rows, inverses)


def is_prime_via_totient(m: int) -> bool:
    """m prime iff phi(m) = m - 1; the totient route, independent of P."""
    if m < 2:
        raise ValueError(f"needs m >= 2, got {m}")
    return totient(m) == m - 1


def crt_decompose(a: int, n: int) -> list[tuple[int, int]]:
    """Residues of a over the prime-power factors of n, ascending by prime."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    a %= n
    return [(a % p**e, p**e) for p, e in factorize(n).factors]


def crt_reconstruct(components: list[tuple[int, int]]) -> int:
    """Inverse of crt_decompose: unique residue modulo the product."""
    if not components:
        raise ValueError("nothing to reconstruct")
    total = 1
    for _, m in components:
        total *= m
    x = 0
    for r, m in components:
        rest = total // m
        x += r * rest * pow(rest, -1, m)
    return x % total


def subgroup_lattice(n: int) -> list[tuple[int, int]]:
    """All subgroups of Z_n as (index c, order b) pairs, n = b*c, ascending
    by index; entry (c, b) names the subgroup cZ/nZ isomorphic to Z_b."""
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    divisors = [1]
    for p, e in factorize(n).factors:
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    return [(c, n // c) for c in sorted(divisors)]
