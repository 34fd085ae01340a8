"""Principal-ideal algebra of Z and Z/nZ on factored generators, and the
even-number ideal analysis built on it.

Everything is exponent arithmetic on Factorization values; the working
modulus r is never expanded to a plain integer, since it grows
super-exponentially with 2n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .primes import DEFAULT_CONVENTION, PrimeConvention, prime_flags, primes_in_range
from .zn import Factorization, factorize, units

__all__ = [
    "CombineKind",
    "PrincipalIdeal",
    "PrimaryDecomposition",
    "IdealEntry",
    "GoldbachIdealReport",
    "ideal_combine",
    "radical",
    "maximal_ideals_zn",
    "jacobson_radical_zn",
    "containing_maximal_ideal",
    "bezout",
    "primary_decomposition",
    "goldbach_ideal_analysis",
]


class CombineKind(Enum):
    SUM = "sum"
    INTERSECTION = "intersection"
    PRODUCT = "product"


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

    @staticmethod
    def in_quotient(d: int, n: int) -> "PrincipalIdeal":
        """The ideal generated by d in Z/nZ; its canonical generator is
        gcd(d, n), so non-divisor inputs are normalized."""
        return PrincipalIdeal(factorize(math.gcd(d, n) if d else n), factorize(n))

    @property
    def is_quotient(self) -> bool:
        return self.modulus is not None

    @property
    def is_full_ring(self) -> bool:
        return self.generator.is_one()

    @property
    def is_zero(self) -> bool:
        return self.modulus is not None and self.generator == self.modulus

    def index(self) -> int:
        """Additive-subgroup index: dZ/nZ has index d in Z/nZ."""
        return self.generator.value()

    def order(self) -> int:
        """Additive order of dZ/nZ, i.e. n/d. Quotient rings only."""
        if self.modulus is None:
            raise ValueError("order is defined only in a quotient ring")
        exps = {p: e for p, e in self.modulus.factors}
        for p, e in self.generator.factors:
            exps[p] -= e
        out = 1
        for p, e in exps.items():
            out *= p**e
        return out

    def __str__(self) -> str:
        if self.modulus is None:
            return f"({self.generator})Z"
        return f"({self.generator})Z/({self.modulus})Z"


def ideal_combine(kind: CombineKind, a: PrincipalIdeal, b: PrincipalIdeal) -> PrincipalIdeal:
    """Sum = gcd of generators, intersection = lcm, product = exponent sum
    (capped at the modulus inside a quotient)."""
    if a.modulus != b.modulus:
        raise ValueError(f"mismatched rings: {a} vs {b}")
    if kind is CombineKind.SUM:
        gen = a.generator.gcd(b.generator)
    elif kind is CombineKind.INTERSECTION:
        gen = a.generator.lcm(b.generator)
    elif kind is CombineKind.PRODUCT:
        gen = a.generator.product(b.generator)
        if a.modulus is not None:
            gen = gen.capped_by(a.modulus)
    else:
        raise ValueError(f"unknown combine kind: {kind!r}")
    return PrincipalIdeal(gen, a.modulus)


def radical(a: PrincipalIdeal) -> PrincipalIdeal:
    """Squarefree kernel of the generator; idempotent."""
    return PrincipalIdeal(a.generator.squarefree(), a.modulus)


def maximal_ideals_zn(n: int) -> list[PrincipalIdeal]:
    """pZ/nZ for each prime p | n, ascending. For prime n this is the zero
    ideal and Z_n is a field."""
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    mod = factorize(n)
    return [PrincipalIdeal(Factorization(((p, 1),)), mod) for p, _ in mod.factors]


def jacobson_radical_zn(n: int) -> PrincipalIdeal:
    """Intersection of all maximal ideals of Z_n: the squarefree kernel of n
    over nZ; coincides with the nilradical. Zero iff n squarefree."""
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    mod = factorize(n)
    return PrincipalIdeal(mod.squarefree(), mod)


def containing_maximal_ideal(a: int, n: int) -> PrincipalIdeal:
    """Smallest-prime maximal ideal of Z_n containing a; units are in none."""
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    a %= n
    mod = factorize(n)
    if a == 0:
        # zero lies in every maximal ideal; smallest prime breaks the tie
        return PrincipalIdeal(Factorization(((mod.factors[0][0], 1),)), mod)
    g = math.gcd(a, n)
    if g == 1:
        raise ValueError(f"{a} is a unit modulo {n} and lies in no proper ideal")
    p = min(p for p, _ in factorize(g).factors)
    return PrincipalIdeal(Factorization(((p, 1),)), mod)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return a, 1, 0
    d, x, y = _egcd(b, a % b)
    return d, y, x - (a // b) * y


def bezout(a: int, b: int) -> tuple[int, int, int]:
    """(d, x, y) with a*x + b*y = d = gcd(a, b), |x| <= |b/d|, |y| <= |a/d|."""
    if a == 0 and b == 0:
        raise ValueError("bezout(0, 0) is undefined")
    if a == b:
        return abs(a), (1 if a > 0 else -1), 0
    d, x, y = _egcd(abs(a), abs(b))
    return d, (-x if a < 0 else x), (-y if b < 0 else y)


@dataclass(frozen=True)
class PrimaryDecomposition:
    components: tuple[PrincipalIdeal, ...]
    radical: PrincipalIdeal


def primary_decomposition(a: PrincipalIdeal) -> PrimaryDecomposition:
    """One primary component p^e Z/nZ per prime power of the generator; their
    intersection reproduces the ideal, and the radical is the intersection of
    the matching maximal ideals."""
    if a.modulus is None:
        raise ValueError("primary decomposition is provided in quotient rings only")
    if a.is_full_ring:
        raise ValueError("the full ring has no primary decomposition")
    components = tuple(
        PrincipalIdeal(Factorization(((p, e),)), a.modulus) for p, e in a.generator.factors
    )
    return PrimaryDecomposition(components, radical(a))


@dataclass(frozen=True)
class IdealEntry:
    """One ideal (2n - b)Z/rZ attached to the strong generator b."""

    generator_unit: int  # b, a prime unit of Z_2n
    remainder: int  # 2n - b, the ideal's generator value
    remainder_factorization: Factorization
    ideal: PrincipalIdeal
    maximal: bool  # remainder prime
    maximal_indices: tuple[int, ...]  # 1-based ranks of its primes among the primes of r
    squarefree: bool  # equality with the maximal-ideal intersection vs strict inclusion


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

    @cached_property
    def _rank_in_r(self) -> dict[int, int]:
        return {p: k for k, p in enumerate(self.primes_of_r, start=1)}

    def maximal_index(self, p: int) -> int:
        """1-based position of pZ/rZ in the ascending maximal ideals of Z_r."""
        try:
            return self._rank_in_r[p]
        except KeyError:
            raise ValueError(f"{p} is not a prime of r") from None

    @cached_property
    def entries(self) -> tuple[IdealEntry, ...]:
        out = []
        maximal = set(self.maximal_subset)
        for b, rem in zip(self.generators, self.remainders):
            fact = factorize(rem)
            out.append(
                IdealEntry(
                    generator_unit=b,
                    remainder=rem,
                    remainder_factorization=fact,
                    ideal=PrincipalIdeal(fact, self.r),
                    maximal=rem in maximal,
                    maximal_indices=tuple(self.maximal_index(p) for p in fact.primes()),
                    squarefree=all(e == 1 for _, e in fact.factors),
                )
            )
        return tuple(out)

    def entry_for(self, b: int) -> IdealEntry:
        for entry in self.entries:
            if entry.generator_unit == b:
                return entry
        raise KeyError(f"{b} is not a strong generator with an attached ideal")


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
