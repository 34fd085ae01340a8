"""Structure of the ring Z_n: factorization, totient, Carmichael, units,
strong generators, and CRT decomposition.

Factorizations are ascending (prime, exponent) vectors.  `factorize` divides
out the primes up to 1024 and splits what is left with Pollard-Brent rho, so
it answers every n whose cofactor after that division is below 2**64 (every
n < 2**64 among them) and refuses any other n with ValueError at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
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
    "crt_decompose",
    "MULTIPLICATION_TABLE_MAX_PHI",
    "UNITS_PROFILE_MAX_N",
]

# factorize divides by the primes up to here, read off the sieve's capped base
# table; a cofactor below its square is then prime, and rho splits the others
_TRIAL_BOUND = 1 << 10
# differences x - y multiplied together before each gcd in _rho
_RHO_BATCH = 128


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

    @classmethod
    def _of_primes(cls, factors: tuple[tuple[int, int], ...]) -> "Factorization":
        """Build from ascending (p, e) pairs whose p are already known prime
        and whose e are >= 1, without testing them again."""
        out = object.__new__(cls)
        object.__setattr__(out, "factors", factors)
        return out

    def value(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(str(p) if e == 1 else f"{p}^{e}" for p, e in self.factors)

    def squarefree(self) -> "Factorization":
        return Factorization._of_primes(tuple((p, 1) for p, _ in self.factors))

    def divides(self, other: "Factorization") -> bool:
        exps = dict(other.factors)
        return all(exps.get(p, 0) >= e for p, e in self.factors)


def factorize(n: int) -> Factorization:
    """Exact prime factorization of n >= 1: trial division by the primes up
    to 1024, then Pollard-Brent rho on each composite cofactor.

    Every n < 2**64 is answered.  Past that, n is answered when dividing out
    the primes up to 1024 leaves a cofactor below 2**64; otherwise ValueError
    is raised at once, since primality is exact only below 2**64.
    """
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    m = n
    exps: dict[int, int] = {}
    for p in _ensure_base_primes(_TRIAL_BOUND):
        if p > _TRIAL_BOUND or p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            exps[p] = e
    if m >> 64:
        raise ValueError(
            f"cannot factorize {n}: its cofactor {m} has no prime factor up to "
            f"{_TRIAL_BOUND} and is not below 2**64"
        )
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL_BOUND**2 or is_prime(m, PrimeConvention.EXCLUDE1):
            exps[m] = exps.get(m, 0) + 1
        else:
            d = _rho(m)
            stack += (d, m // d)
    return Factorization._of_primes(tuple(sorted(exps.items())))


def _rho(m: int) -> int:
    """A proper divisor of the composite m, which has no prime factor up to
    _TRIAL_BOUND: Pollard's rho (BIT 15 (1975) 331-334) in Brent's form (BIT 20
    (1980) 176-184) on y <- y^2 + c mod m from y = 2, for c = 1, 2, ..."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = math.gcd(q, m)
                k += _RHO_BATCH
            r *= 2
        if g == m:
            # the batch overshot: step again from its start, one gcd per step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(x - ys, m)
        if g != m:
            return g


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


# Bound on n from the 64 MiB budget per call that bounds the couple lists in
# goldbach.py: the profile holds every unit, phi(n) of them, plus a prime flag
# per value below n, and its report about 121 bytes a unit at worst, when n is
# prime.  Tracemalloc peaks of the report (CPython 3.11, x86-64) at n =
# 499,979: 52.7 MiB for md, 53.4 for csv and 60.7 for json; n = 524,999 takes
# json to 64.1 MiB.  The strong-generator report of the same n peaks lower.
UNITS_PROFILE_MAX_N = 5 * 10**5


def units_profile(n: int, conv: PrimeConvention = DEFAULT_CONVENTION) -> UnitsProfile:
    if n < 2:
        raise ValueError(f"units_profile needs n >= 2, got {n}")
    if n > UNITS_PROFILE_MAX_N:
        raise ValueError(
            f"units_profile needs n <= {UNITS_PROFILE_MAX_N} for its list of units, got n = {n}"
        )
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


# Bound on phi(n) from the 64 MiB budget per call that bounds the couple
# lists in goldbach.py: the table holds phi(n)^2 products, and its report
# peaks at about 140 bytes a cell (every n with phi(n) <= 640 is below 10^4).
# Tracemalloc peaks of the report (CPython 3.11, x86-64) at n = 2640, phi 640:
# 53.9 MiB for md, 44.6 for json and 42.0 for csv; n = 2940, phi 672, takes
# md to 59.6 MiB.
MULTIPLICATION_TABLE_MAX_PHI = 640


def multiplication_table(n: int) -> MultiplicationTable:
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    phi = totient(n)
    if phi > MULTIPLICATION_TABLE_MAX_PHI:
        raise ValueError(
            f"needs phi(n) <= {MULTIPLICATION_TABLE_MAX_PHI} for the phi(n)^2 grid, "
            f"got phi(n) = {phi} for n = {n}"
        )
    unit_list = units(n)
    rows = tuple(tuple(u * v % n for v in unit_list) for u in unit_list)
    inverses = tuple((u, unit_inverse(u, n)) for u in unit_list)
    return MultiplicationTable(n, unit_list, rows, inverses)


def crt_decompose(a: int, n: int) -> list[tuple[int, int]]:
    """Residues of a over the prime-power factors of n, ascending by prime."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    a %= n
    return [(a % p**e, p**e) for p, e in factorize(n).factors]
