"""Principal ideals of Z and Z/nZ on factored generators: radicals, the
Jacobson radical of Z_n, Bezout certificates, and the even-number ideal
analysis over the working modulus r.

The modulus r is kept as a Factorization and read off one prime list,
since it grows super-exponentially with 2n.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .primes import DEFAULT_CONVENTION, PrimeConvention, prime_flags, primes_in_range
from .zn import Factorization, factorize, units

__all__ = [
    "PrincipalIdeal",
    "GoldbachIdealReport",
    "radical",
    "jacobson_radical_zn",
    "bezout",
    "goldbach_ideal_analysis",
]


@dataclass(frozen=True)
class PrincipalIdeal:
    """Ideal dZ of Z (modulus None) or dZ/nZ of Z/nZ, with d dividing n."""

    generator: Factorization
    modulus: Factorization | None = None

    def __post_init__(self) -> None:
        if self.modulus is not None and not self.generator.divides(self.modulus):
            raise ValueError(
                f"generator {self.generator} does not divide modulus {self.modulus}"
            )

    @staticmethod
    def of_int(m: int) -> "PrincipalIdeal":
        return PrincipalIdeal(factorize(m))


def radical(a: PrincipalIdeal) -> PrincipalIdeal:
    """Squarefree kernel of the generator; idempotent."""
    return PrincipalIdeal(a.generator.squarefree(), a.modulus)


def jacobson_radical_zn(n: int) -> PrincipalIdeal:
    """Intersection of all maximal ideals of Z_n: the squarefree kernel of n
    over nZ; coincides with the nilradical. Zero iff n squarefree."""
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    mod = factorize(n)
    return PrincipalIdeal(mod.squarefree(), mod)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(d, x, y) with a*x + b*y = d = gcd(a, b) for a, b >= 0, by the
    iterative extended Euclid, so inputs of any length stay off the stack."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, (a, b) = a // b, (b, a % b)
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def bezout(a: int, b: int) -> tuple[int, int, int]:
    """(d, x, y) with a*x + b*y = d = gcd(a, b), |x| <= |b/d|, |y| <= |a/d|."""
    if a == 0 and b == 0:
        raise ValueError("bezout(0, 0) is undefined")
    if a == b:
        return abs(a), (1 if a > 0 else -1), 0
    d, x, y = _egcd(abs(a), abs(b))
    return d, (-x if a < 0 else x), (-y if b < 0 else y)


@dataclass(frozen=True)
class GoldbachIdealReport:
    """Ring-theoretic picture of one even number 2n: the working modulus r,
    the ideals carried by strong generators, which of them are maximal, and
    the prime couples those maximal ideals certify."""

    two_n: int
    convention: PrimeConvention
    include_top: bool  # widen the lcm to include the unit 2n-1
    generators: tuple[int, ...]  # strong b with 1 < 2n-b < 2n-1, by ascending remainder
    remainders: tuple[int, ...]  # 2n - b, ascending
    maximal_subset: tuple[int, ...]  # the prime remainders, ascending
    couples: tuple[tuple[int, int], ...]  # unordered prime pairs, deduplicated
    noether: tuple[int, int] | None  # (1, 2n-1) when 2n-1 counts as prime
    trivial: tuple[int, int] | None  # (n, n) when n is prime

    @cached_property
    def r(self) -> Factorization:
        """The lcm of the units of Z_2n strictly inside ]1, 2n-1[, and of the
        top unit 2n-1 when include_top is set: each prime p not dividing 2n
        to its largest power at or below that top."""
        top = self.two_n - 1 if self.include_top else self.two_n - 2
        factors = []
        # 2 always divides 2n, so the range may start at 2 even when top < 2
        for p in primes_in_range(2, max(top, 2)):
            if self.two_n % p:
                power, e = p, 1
                while power * p <= top:
                    power *= p
                    e += 1
                factors.append((p, e))
        # primes_in_range yields primes, so they are not tested again
        return Factorization._of_primes(tuple(factors))

    @cached_property
    def primes_of_r(self) -> tuple[int, ...]:
        return self.r.primes()


def goldbach_ideal_analysis(
    two_n: int,
    conv: PrimeConvention = DEFAULT_CONVENTION,
    include_top: bool = False,
) -> GoldbachIdealReport:
    if two_n < 2 or two_n % 2 == 1:
        raise ValueError(f"needs an even number >= 2, got {two_n}")
    n = two_n // 2
    flags = prime_flags(two_n, conv)
    # strong generators b with both b and its mirror inside ]1, 2n-1[;
    # b = 1 and b = 2n-1 never carry an ideal, whatever the convention
    generators = tuple(b for b in reversed(units(two_n)) if 1 < b < two_n - 1 and flags[b])
    remainders = tuple(two_n - b for b in generators)
    maximal_subset = tuple(rem for rem in remainders if flags[rem])
    couples = sorted({(min(b, r), max(b, r)) for r, b in zip(remainders, generators) if flags[r]})
    # the top couple needs both members prime: 1 itself and the unit 2n-1
    noether = (1, two_n - 1) if flags[1] and flags[two_n - 1] else None
    trivial = (n, n) if flags[n] else None
    return GoldbachIdealReport(
        two_n=two_n,
        convention=conv,
        include_top=include_top,
        generators=generators,
        remainders=remainders,
        maximal_subset=maximal_subset,
        couples=tuple(couples),
        noether=noether,
        trivial=trivial,
    )
