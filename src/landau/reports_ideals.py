"""Reports on ideals: the maximal ideals over the working modulus r of a
descent, the radical of mZ, the Jacobson radical of Z_n and a Bezout
identity."""

from __future__ import annotations

import sys
from math import log10
from typing import Any

from .ideals import (
    PrincipalIdeal,
    _r_prime_powers,
    bezout,
    goldbach_ideal_analysis,
    jacobson_radical_zn,
    radical,
    working_modulus,
)
from .primes import PrimeConvention
from .reports import Report, ReportError, _factor_list, _sub, _zn, _zx
from .zn import Factorization, factorize


_SUP = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _sup(v: int | str) -> str:
    return str(v).translate(_SUP)


def _dot_powers(fact: Factorization) -> str:
    """45 -> ``3²·5``: prime powers with superscript exponents, ·-joined."""
    return "·".join(str(p) if e == 1 else f"{p}{_sup(e)}" for p, e in fact.factors)


# --------------------------------------------------------------------------
# maximal-ideal tables over the working modulus r

def _r_as_prime_powers(fact: Factorization) -> str:
    """Render r as its prime powers, each written out as an integer and
    joined ascending by value (so 3³·5²·11 reads 11·25·27·...)."""
    values = sorted(p**e for p, e in fact.factors)
    return "·".join(str(v) for v in values)


def _ideal(two_n: int, generator: int, rem: int, fact: Factorization, maximal) -> tuple:
    """The ideal (2n - b)Z/rZ as (generator, remainder, factorization, the
    indices of the maximal ideals over it), given fact, the factorization of
    its remainder; ``maximal`` numbers the maximal ideals pZ/rZ of Z_r by p."""
    missing = [p for p in fact.primes() if p not in maximal]
    if missing:
        raise ReportError(
            f"remainder {rem} is not a unit ideal modulo {two_n}: "
            f"prime(s) {missing} do not divide r"
        )
    return generator, rem, fact, [maximal[p] for p in fact.primes()]


def _ideal_cell(index: int, two_n: int, generator: int, rem: int, fact, indices) -> tuple[str]:
    a_i = f"𝔞{_sub(index)}"
    lhs = f"{a_i}=({two_n}-{generator})ℤ/rℤ"
    if rem == 1:
        return (f"{lhs}=ℤᵣ",)
    maximals = "∩".join(f"𝔪{_sub(i)}" for i in indices)
    relation = "=" if all(e == 1 for _, e in fact.factors) else "⊂"
    return (f"{lhs}={_dot_powers(fact)}ℤ/rℤ{relation}{maximals}=𝔯({a_i})",)


def _ideal_entry(index: int, generator: int, rem: int, fact, indices) -> dict[str, Any]:
    return {
        "index": index,
        "generator_unit": generator,
        "remainder": rem,
        "factors": _factor_list(fact),
        "maximal": fact.factors == ((rem, 1),),
        "maximal_indices": indices,
        "squarefree": all(e == 1 for _, e in fact.factors),
    }


def _long_r(two_n: int, limit: int) -> ReportError:
    return ReportError(
        f"2N={two_n}: r = l.c.m.(aᵢ) has more than {limit} digits, "
        "past what Python converts to text"
    )


def _emit_ideal_table(
    conv: PrimeConvention, /, *, two_n: int, include_top: bool = False, descent_only: bool = False
) -> Report:
    from .goldbach import canonical_couple  # the one report here that loads goldbach

    # both r values go into the footer and the payload as decimal text; a 2N
    # whose r is sure to be too long for that is refused before the analysis
    # and r, which grow with 2N, are built (an odd 2N is the analysis' to
    # refuse): the digits of the wider r's primes up to 2^16, cheap whatever
    # 2N is, already bound its length from below
    limit = sys.get_int_max_str_digits()
    if limit and two_n % 2 == 0:
        digits = sum(e * log10(p) for p, e in _r_prime_powers(two_n, two_n - 1, 1 << 16))
        if digits > limit + 1e-6:
            raise _long_r(two_n, limit)
    rep = goldbach_ideal_analysis(two_n, conv)
    r_fact, alt_fact = working_modulus(two_n, include_top), working_modulus(two_n, not include_top)
    r, alt_r = r_fact.value(), alt_fact.value()
    if limit and max(r, alt_r) >= 10**limit:
        raise _long_r(two_n, limit)

    if descent_only:
        _, trace = canonical_couple(two_n, conv)
        items = [(c, two_n - c) for c in trace.candidates]
    else:
        items = zip(rep.generators, rep.remainders)
    primes_of_r = r_fact.primes()
    maximal = {p: i for i, p in enumerate(primes_of_r, start=1)}
    ideals = [_ideal(two_n, generator, rem, factorize(rem), maximal) for generator, rem in items]

    alt_text = f"{_r_as_prime_powers(alt_fact)} = {alt_r}."
    if include_top:
        alt_note = f"Without the top unit 2n-1={two_n - 1}, r = {alt_text}"
    else:
        alt_note = f"Including the top unit 2n-1={two_n - 1} widens r to {alt_text}"
    shown = primes_of_r[:8]
    ideal_list = ", ".join(f"{p}ℤ/rℤ" for p in shown)
    if len(primes_of_r) > len(shown):
        ideal_list += ", ⋯"
    footers = (
        f"r = l.c.m.(aᵢ) = {_r_as_prime_powers(r_fact)} = {r}.",
        alt_note,
        f"{_zx(two_n)} = {{1, aᵢ | 1 < aᵢ < {two_n}={_dot_powers(factorize(two_n))}, "
        f"g.c.d.({two_n}, aᵢ) = 1}}.",
        f"Maximal ideals in ℤᵣ: {{𝔪ᵢ}} = {{{ideal_list}}}.",
    )
    scope = "the canonical descent" if descent_only else "the strong generators"
    return Report(
        title=f"Maximal ideals containing the ideals 𝔞ᵢ of {scope} for 2n={two_n}",
        headers=("ideals 𝔞ᵢ and their radicals in ℤᵣ",),
        build_rows=lambda: tuple(
            _ideal_cell(index, two_n, *ideal) for index, ideal in enumerate(ideals, start=1)
        ),
        footers=footers,
        build_payload=lambda: {
            "two_n": two_n,
            "convention": conv.value,
            "include_top": include_top,
            "descent_only": descent_only,
            "r": {"value": r, "factors": _factor_list(r_fact)},
            "r_alternate": {"value": alt_r, "factors": _factor_list(alt_fact)},
            "maximal_ideal_primes": list(primes_of_r),
            "entries": [
                _ideal_entry(index, *ideal) for index, ideal in enumerate(ideals, start=1)
            ],
            "maximal_subset": list(rep.maximal_subset),
            "couples": [[p, q] for p, q in rep.couples],
            "noether": list(rep.noether) if rep.noether else None,
            "trivial": list(rep.trivial) if rep.trivial else None,
        },
    )


def _emit_radical(conv: PrimeConvention, /, *, m: int) -> Report:
    if m < 1:
        raise ReportError(f"m: needs a positive integer, got {m}")
    ideal = PrincipalIdeal.of_int(m)
    rad = radical(ideal)
    return Report(
        title=f"Radical of the ideal {m}ℤ",
        headers=("ideal", "factorization", "radical", "radical factorization"),
        build_rows=lambda: (
            (
                f"{m}ℤ",
                _dot_powers(ideal.generator) or "1",
                f"{rad.generator.value()}ℤ",
                _dot_powers(rad.generator) or "1",
            ),
        ),
        footers=("The radical keeps each prime once: 𝔯(mℤ) = (∏ p | m) ℤ.",),
        build_payload=lambda: {
            "m": m,
            "factors": _factor_list(ideal.generator),
            "radical": rad.generator.value(),
            "radical_factors": _factor_list(rad.generator),
        },
    )


def _emit_jacobson(conv: PrimeConvention, /, *, n: int) -> Report:
    ideal = jacobson_radical_zn(n)
    gen = ideal.generator.value()
    return Report(
        title=f"Jacobson radical of {_zn(n)}",
        headers=("ring", "jacobson radical", "generator"),
        build_rows=lambda: ((_zn(n), f"{gen}ℤ/{n}ℤ", str(gen)),),
        footers=(
            "The Jacobson radical of ℤₙ is generated by the product of the primes dividing n.",
        ),
        build_payload=lambda: {
            "modulus": n,
            "generator": gen,
            "generator_factors": _factor_list(ideal.generator),
        },
    )


def _emit_bezout(conv: PrimeConvention, /, *, a: int, b: int) -> Report:
    g, x, y = bezout(a, b)
    identity = f"{a}·({x}) + {b}·({y}) = {g}"
    return Report(
        title=f"Bezout identity for ({a}, {b})",
        headers=("a", "b", "gcd", "x", "y", "identity"),
        build_rows=lambda: ((str(a), str(b), str(g), str(x), str(y), identity),),
        footers=(),
        build_payload=lambda: {"a": a, "b": b, "gcd": g, "x": x, "y": y},
    )
