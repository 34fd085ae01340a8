"""Publication-shaped reports over the library's routines.

Every emitter builds a :class:`Report` — a titled grid of pre-rendered cells
plus a JSON-shaped payload, each built on first read — and :func:`emit_report`
serializes it to one of three formats, building only the part it shows:

* ``md``   — a config echo line, the title, a pipe table, then footnotes;
* ``csv``  — a leading ``# config:`` comment and RFC-4180 rows (no footnotes);
* ``json`` — ``{"kind", "title", "config", "footnotes", "report"}``, byte for
  byte as ``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)``.

Each emitter is a plain function ``(conv, /, *, name: type = default, ...)``
of the prime convention and its keywords; the signature is the one declaration
of a report's parameters, checked by :func:`build_report`.  A kind is named
only by its ``_EMITTERS`` key, which the JSON renderer is handed.

All three formats are deterministic byte-for-byte for a fixed config, so they
can be frozen as golden files.  Tables never carry floating-point cells; exact
rationals are rendered as ``numerator/denominator`` strings.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from math import log10
from typing import TYPE_CHECKING, Any, Callable, Mapping

from .config import Config
from .primes import DEFAULT_CONVENTION, PrimeConvention, primes_in_range

# each emitter imports the library functions it calls, so a library module
# runs only when a report first needs it
if TYPE_CHECKING:
    from fractions import Fraction

    from .goldbach import CoupleKind
    from .harness import RunSummary
    from .zn import Factorization


class ReportError(ValueError):
    """A bad report request: unknown kind, unknown format, or bad parameter."""


@dataclass(frozen=True)
class Report:
    """One table ready for rendering: cells are final strings, the payload
    mirrors them as plain JSON-able data, and each is built on first read."""

    title: str
    headers: tuple[str, ...]
    build_rows: Callable[[], tuple[tuple[str, ...], ...]]
    footers: tuple[str, ...]
    build_payload: Callable[[], dict[str, Any]]

    @cached_property
    def rows(self) -> tuple[tuple[str, ...], ...]:
        return self.build_rows()

    @cached_property
    def payload(self) -> dict[str, Any]:
        return self.build_payload()


# the even numbers whose canonical descents the criterion table prints
DESCENT_TARGETS = (
    2, 4, 6, 8, 10, 12, 14, 16, 18, 20,
    220, 346, 518, 532, 538, 556, 586, 628, 640, 670, 700, 718,
    782, 796, 806, 820, 838, 848, 872, 896, 902, 928, 962, 972,
    978, 984, 992, 998,
)

# the moduli of the strong-generator overview table
RING_MODULI = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 28)

# the gaps of the de Polignac couple table
POLIGNAC_GAPS = (2, 4, 6, 8, 10, 20)


# --------------------------------------------------------------------------
# small text helpers

_SUB = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")
_SUP = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _sub(v: int | str) -> str:
    return str(v).translate(_SUB)


def _sup(v: int | str) -> str:
    return str(v).translate(_SUP)


def _zn(n: int) -> str:
    return f"ℤ{_sub(n)}"


def _zx(n: int) -> str:
    return f"ℤ×{_sub(n)}"


def _frac(fr: Fraction) -> str:
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


def _times_expanded(fact: Factorization) -> str:
    """9 -> ``3×3``: factors expanded with multiplicity, ×-joined."""
    parts: list[str] = []
    for p, e in fact.factors:
        parts.extend([str(p)] * e)
    return "×".join(parts)


def _dot_powers(fact: Factorization) -> str:
    """45 -> ``3²·5``: prime powers with superscript exponents, ·-joined."""
    return "·".join(str(p) if e == 1 else f"{p}{_sup(e)}" for p, e in fact.factors)


def _pair(p: int, q: int) -> str:
    return f"({p},{q})"


def _factor_list(fact: Factorization) -> list[list[int]]:
    return [[p, e] for p, e in fact.factors]


def _braced(values) -> str:
    return "{" + ",".join(map(str, values)) + "}"


def _steps_entry(steps) -> list[dict[str, Any]]:
    return [
        {
            "candidate": s.candidate,
            "remainder": s.remainder,
            "factors": None
            if s.remainder_factorization is None
            else _factor_list(s.remainder_factorization),
        }
        for s in steps
    ]


def _couple_entry(p: int, q: int, kind: CoupleKind, canonical: bool) -> dict[str, Any]:
    return {"pair": [p, q], "kind": kind.value, "canonical": canonical}


# --------------------------------------------------------------------------
# parameter checks: an emitter's annotation picks the check its value gets;
# any other annotation (the verify summary) passes the value through

def _coerce(name: str, value: Any, annotation: str) -> Any:
    if annotation == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ReportError(f"{name}: expected an integer, got {value!r}")
        return value
    if annotation == "bool":
        if not isinstance(value, bool):
            raise ReportError(f"{name}: expected a boolean, got {value!r}")
        return value
    if annotation.startswith("tuple[int, ...]"):
        if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
            raise ReportError(f"{name}: expected a sequence of integers, got {value!r}")
        value = tuple(value)
        for item in value:
            if isinstance(item, bool) or not isinstance(item, int):
                raise ReportError(f"{name}: expected integers, got {item!r}")
        return value
    return value


# --------------------------------------------------------------------------
# the descent criterion table

_DESCENT_ERRATA = {
    670: (
        "†",
        "† Some transcriptions of this row read 640-659=21=3×7 ⇒ 670-653=17; "
        "the computed descent shown here ends at 670-659=11.",
    ),
    718: (
        "‡",
        "‡ Some transcriptions of this row print n=309; 718=2×359.",
    ),
}


def _chain_text(two_n: int, steps) -> str:
    parts = []
    for step in steps:
        cell = f"{two_n}-{step.candidate}={step.remainder}"
        fact = step.remainder_factorization
        if fact is not None and fact.factors:
            cell += "=" + _times_expanded(fact)
        parts.append(cell)
    return " ⇒ ".join(parts)


def _emit_descent_table(
    conv: PrimeConvention, /, *, targets: tuple[int, ...] = DESCENT_TARGETS
) -> Report:
    from .goldbach import canonical_couple

    descents = [(two_n, *canonical_couple(two_n, conv)) for two_n in targets]
    errata = _DESCENT_ERRATA if conv is PrimeConvention.INCLUDE1 else {}

    footers = [
        "p₁ is the highest prime such that p₁ < 2n.",
        "p₁⁽ⁱ⁾ is the highest prime such that p₁⁽ⁱ⁾ < p₁⁽ⁱ⁻¹⁾, i ≥ 1, p₁⁽⁰⁾ = p₁.",
        "p₂⁽ˢ⁾ is the first number in the sequence i, i ≥ 1, such that p₂⁽ˢ⁾ ∈ P.",
        "P ⊂ ℕ is the set of prime numbers of ℕ.",
        *(errata[two_n][1] for two_n in targets if two_n in errata),
    ]
    return Report(
        title=(
            "Criterion to find a solution to the Goldbach conjecture: "
            "2n=p₁⁽ˢ⁾+p₂⁽ˢ⁾ with p₁⁽ˢ⁾, p₂⁽ˢ⁾ ∈ P"
        ),
        headers=(
            "n≥1",
            "2n",
            "p₁∈P",
            "2n-p₁=p₂ ⇒ 2n-p₁⁽¹⁾=p₂⁽¹⁾ ⇒ ⋯ 2n-p₁⁽ˢ⁾=p₂⁽ˢ⁾",
        ),
        build_rows=lambda: tuple(
            (
                str(two_n // 2),
                str(two_n),
                str(trace.steps[0].candidate),
                _chain_text(two_n, trace.steps)
                + (f" {errata[two_n][0]}" if two_n in errata else ""),
            )
            for two_n, _, trace in descents
        ),
        footers=tuple(footers),
        build_payload=lambda: {
            "convention": conv.value,
            "rows": [
                {
                    "n": two_n // 2,
                    "two_n": two_n,
                    "first_candidate": trace.steps[0].candidate,
                    "couple": [couple.p, couple.q],
                    "kind": couple.kind.value,
                    "depth": trace.depth(),
                    "steps": _steps_entry(trace.steps),
                }
                for two_n, couple, trace in descents
            ],
        },
    )


# --------------------------------------------------------------------------
# unit-group multiplication grids

def _emit_units_grid(conv: PrimeConvention, /, *, n: int) -> Report:
    from .zn import multiplication_table

    table = multiplication_table(n)
    caption = "; ".join(f"{u}⁻¹={v}" for u, v in table.inverses) + "."
    return Report(
        title=f"Multiplication table in {_zx(n)}",
        headers=("", *(str(u) for u in table.units)),
        build_rows=lambda: tuple(
            (str(u), *map(str, row)) for u, row in zip(table.units, table.rows)
        ),
        footers=(caption,),
        build_payload=lambda: {
            "modulus": n,
            "units": list(table.units),
            "grid": [list(row) for row in table.rows],
            "inverses": [[u, v] for u, v in table.inverses],
        },
    )


# --------------------------------------------------------------------------
# strong-generator overview across small even moduli

def _emit_ring_table(conv: PrimeConvention, /, *, moduli: tuple[int, ...] | None = None) -> Report:
    from .goldbach import CoupleKind, enumerate_couples, quasi_couples
    from .zn import units_profile

    # 2 = 1 + 1 is a couple only when the unit counts as prime
    include1 = conv is PrimeConvention.INCLUDE1
    if moduli is None:
        moduli = RING_MODULI if include1 else tuple(m for m in RING_MODULI if m != 2)
    elif not include1 and 2 in moduli:
        raise ReportError("moduli: 2 = 1 + 1 needs the unit counted as prime; use include1")
    rings = []
    for two_n in moduli:
        profile = units_profile(two_n, conv)
        couples = [
            (c.p, c.q, c.kind, c.canonical)
            for c in enumerate_couples(two_n, conv)
            if c.kind is not CoupleKind.TRIVIAL or two_n == 2
        ]
        rings.append((two_n, couples, profile, set(profile.strong), quasi_couples(two_n, conv)))

    footers = [
        "The Goldbach couples marked by ()★ are the ones obtained by the canonical descent criterion.",
        "The set of strong generators is obtained from the group of units by forgetting the numbers between brackets ().",
        f"ℤ×₂ₙ = {{k ∈ ℤ₂ₙ | g.c.d.(2n,k) = 1, 1 ≤ k < 2n}} is also called the multiplicative group of integers (mod 2n).",
        "(♣) Except for the case n=1, trivial Goldbach couples ((n,n) with n prime) do not appear.",
        "(♣) Except in the case n=1, trivial Goldbach couples are never identified by units in ℤ₂ₙ.",
        "(♠) Quasi-Goldbach couples that are not Goldbach couples.",
    ]
    if include1 and 22 in moduli:
        footers.append(
            "Erratum: some transcriptions of the ℤ₂₂ row list 11 among the units "
            "and leave 21 unbracketed; 11 divides 22, and 21=3×7 is composite."
        )
    return Report(
        title="Examples of strong generators in ℤ₂ₙ",
        headers=(
            "ℤ₂ₙ",
            "Goldbach couples (♣)",
            "ℤ×₂ₙ (group of units)",
            "φ(2n)",
            "Quasi-Goldbach couples (♠)",
        ),
        build_rows=lambda: tuple(
            (
                _zn(two_n),
                "; ".join(_pair(p, q) + ("★" if star else "") for p, q, _, star in couples),
                _braced(u if u in strong else f"({u})" for u in profile.units),
                str(profile.totient),
                "; ".join(_pair(a, b) for a, b in quasi) if quasi else "-",
            )
            for two_n, couples, profile, strong, quasi in rings
        ),
        footers=tuple(footers),
        build_payload=lambda: {
            "convention": conv.value,
            "rows": [
                {
                    "two_n": two_n,
                    "couples": [_couple_entry(*c) for c in couples],
                    "units": list(profile.units),
                    "composite_units": [u for u in profile.units if u not in strong],
                    "strong": list(profile.strong),
                    "totient": profile.totient,
                    "quasi": [[a, b] for a, b in quasi],
                }
                for two_n, couples, profile, strong, quasi in rings
            ],
        },
    )


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
    from .goldbach import canonical_couple
    from .ideals import _r_prime_powers, goldbach_ideal_analysis
    from .zn import factorize

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
    rep = goldbach_ideal_analysis(two_n, conv, include_top=include_top)
    # only r depends on include_top
    alt = replace(rep, include_top=not include_top)
    r, alt_r = rep.r.value(), alt.r.value()
    if limit and max(r, alt_r) >= 10**limit:
        raise _long_r(two_n, limit)

    if descent_only:
        _, trace = canonical_couple(two_n, conv)
        items = [(s.candidate, s.remainder) for s in trace.steps]
    else:
        items = zip(rep.generators, rep.remainders)
    maximal = {p: i for i, p in enumerate(rep.primes_of_r, start=1)}
    ideals = [_ideal(two_n, generator, rem, factorize(rem), maximal) for generator, rem in items]

    alt_text = f"{_r_as_prime_powers(alt.r)} = {alt_r}."
    if include_top:
        alt_note = f"Without the top unit 2n-1={two_n - 1}, r = {alt_text}"
    else:
        alt_note = f"Including the top unit 2n-1={two_n - 1} widens r to {alt_text}"
    shown = rep.primes_of_r[:8]
    ideal_list = ", ".join(f"{p}ℤ/rℤ" for p in shown)
    if len(rep.primes_of_r) > len(shown):
        ideal_list += ", ⋯"
    footers = (
        f"r = l.c.m.(aᵢ) = {_r_as_prime_powers(rep.r)} = {r}.",
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
            "r": {"value": r, "factors": _factor_list(rep.r)},
            "r_alternate": {"value": alt_r, "factors": _factor_list(alt.r)},
            "maximal_ideal_primes": list(rep.primes_of_r),
            "entries": [
                _ideal_entry(index, *ideal) for index, ideal in enumerate(ideals, start=1)
            ],
            "maximal_subset": list(rep.maximal_subset),
            "couples": [[p, q] for p, q in rep.couples],
            "noether": list(rep.noether) if rep.noether else None,
            "trivial": list(rep.trivial) if rep.trivial else None,
        },
    )


# --------------------------------------------------------------------------
# de Polignac couples in dyadic blocks

def _emit_polignac_table(
    conv: PrimeConvention, /, *, gaps: tuple[int, ...] = POLIGNAC_GAPS, m_max: int = 4
) -> Report:
    from .gaps import polignac_dyadic_search

    if m_max < 1:
        raise ReportError(f"m_max: needs at least 1, got {m_max}")
    columns = []
    for gap in gaps:
        blocks = polignac_dyadic_search(gap, m_max, conv)
        columns.append((gap, [blocks.get(m, []) for m in range(1, m_max + 1)]))

    footers = []
    if 2 in gaps:
        footers.append("The 2n-case with n=1 corresponds to the twin conjecture.")
    footers.append(
        "Infinite 2n-de Polignac couples are obtained since we can take any integer m ≥ 1."
    )
    footers.append(
        "Column m lists every couple (q, p) with p - q = 2n, q prime, and q in the "
        "m-th dyadic block: q ∈ [0, 4n] for m=1, q ∈ (2n·2^(m-1), 2n·2^m] for m ≥ 2."
    )
    footers.append(
        "Grouping couples by the larger member instead moves some couples one column "
        "to the right; the cells here are complete for the stated rule."
    )
    if 20 in gaps and m_max >= 4:
        footers.append(
            "For n=10 the couple (317,337), with 317 ∈ [0,320], appears at m=4 under "
            "the stated rule; grouped by the larger member it falls beyond m=4."
        )
    if conv is PrimeConvention.INCLUDE1:
        footers.append(
            "Here 1 counts as prime; the certificate works equally well taking 2 as the first prime."
        )
    else:
        footers.append("Here 1 is not counted as prime.")
    return Report(
        title=(
            f"Examples of 2n-de Polignac couples (q,p) with q ∈ [0, 2n·2^m], "
            f"1 ≤ m ≤ {m_max}"
        ),
        headers=("n", "2n", *(f"m={m}" for m in range(1, m_max + 1))),
        build_rows=lambda: tuple(
            (str(gap // 2), str(gap), *(", ".join(_pair(c.q, c.p) for c in col) for col in cols))
            for gap, cols in columns
        ),
        footers=tuple(footers),
        build_payload=lambda: {
            "convention": conv.value,
            "m_max": m_max,
            "rows": [
                {
                    "n": gap // 2,
                    "two_n": gap,
                    "blocks": [[m, [[c.q, c.p] for c in col]] for m, col in enumerate(cols, 1)],
                }
                for gap, cols in columns
            ],
        },
    )


def _emit_polignac_pairs(conv: PrimeConvention, /, *, two_n: int, q_max: int) -> Report:
    from .gaps import polignac_pairs

    pairs = polignac_pairs(two_n, q_max, conv)
    return Report(
        title=f"{two_n}-de Polignac couples with q ≤ {q_max}",
        headers=("q", "p", "block m"),
        build_rows=lambda: tuple((str(c.q), str(c.p), str(c.block)) for c in pairs),
        footers=(
            "block m is the smallest m ≥ 1 with q ≤ 2n·2^m.",
            f"{len(pairs)} couple(s) under {conv.value}.",
        ),
        build_payload=lambda: {
            "two_n": two_n,
            "q_max": q_max,
            "convention": conv.value,
            "pairs": [{"q": c.q, "p": c.p, "block": c.block} for c in pairs],
        },
    )


# --------------------------------------------------------------------------
# primes in square intervals

def _emit_legendre_table(
    conv: PrimeConvention, /, *, ns: tuple[int, ...] = tuple(range(1, 11))
) -> Report:
    from .gaps import legendre_primes

    intervals = [(n, legendre_primes(n, conv)) for n in ns]
    if conv is PrimeConvention.INCLUDE1:
        conv_note = "Here 1 counts as prime."
    else:
        conv_note = "Here 1 is not counted as prime; the row n=1 starts at 2."
    return Report(
        title="Examples of primes p ∈ [n², (n+1)²]",
        headers=("n", "n²", "(n+1)²", "prime p ∈ [n², (n+1)²]"),
        build_rows=lambda: tuple(
            (str(n), str(n * n), str((n + 1) * (n + 1)), ", ".join(map(str, primes)))
            for n, primes in intervals
        ),
        footers=(
            conv_note,
            "The certificate works equally well taking 2 as the first prime.",
        ),
        build_payload=lambda: {
            "convention": conv.value,
            "rows": [
                {"n": n, "lo": n * n, "hi": (n + 1) * (n + 1), "primes": list(primes)}
                for n, primes in intervals
            ],
        },
    )


# --------------------------------------------------------------------------
# ghost right-triangles (parabolic primes)

# Bound on n_max from the 64 MiB budget per call that bounds the couple lists
# in goldbach.py: the table holds a record and a row for every k <= 40 and
# every even k past it.  Tracemalloc peaks (CPython 3.11, x86-64) at 10^5:
# 35.4 MiB for md, 41.3 for json and 29.2 for csv, in about 1 s.
GHOST_TABLE_MAX_N = 10**5


def _emit_ghost_table(conv: PrimeConvention, /, *, n_max: int = 60) -> Report:
    from .figurate import _parabolic_record

    if not 1 <= n_max <= GHOST_TABLE_MAX_N:
        raise ReportError(f"n_max: needs 1 <= n_max <= {GHOST_TABLE_MAX_N}, got {n_max}")
    limit = min(n_max, 40)
    ks = list(range(1, limit + 1)) + [k for k in range(42, n_max + 1, 2)]
    records = {k: _parabolic_record(k, conv) for k in ks}  # only the k that rows print
    marks = [k for k in range(1, limit + 1) if records[k].is_parabolic]

    runs = [
        (a, b, primes_in_range(a * a + 2, b * b, PrimeConvention.EXCLUDE1))
        for a, b in zip(marks, marks[1:])
    ]

    def rows() -> tuple[tuple[str, ...], ...]:
        # a run's primes go on the first row after it starts, or on a row of
        # their own when the two parabolic values are adjacent
        first_row = {a + 1: between for a, b, between in runs if b - a > 1}
        own_row = {a: between for a, b, between in runs if b - a == 1}
        out = []
        for k in ks:
            rec, between = records[k], ", ".join(map(str, first_row.get(k, [])))
            out.append((str(k), f"p={k * k}+1={rec.p}", "(□)" if rec.is_parabolic else "", between))
            if k in own_row:
                out.append(("", "", "", ", ".join(map(str, own_row[k]))))
        return tuple(out)

    footers = [
        "For n ≥ 40 only even n = 2m are reported: for odd n > 1 the number n²+1 is even, hence composite.",
        "For n ≥ 40 the primes between consecutive parabolic values are omitted.",
        "Each between-list is printed on the first row after a parabolic value and covers "
        "the whole run up to the next one; when two parabolic values are adjacent the list "
        "gets its own row.",
    ]
    if limit >= 15:
        footers.append(
            "Erratum: some transcriptions print 245 = 5·7² (composite) in the n=15 "
            "run where the prime 251 belongs."
        )
    if limit >= 27:
        footers.append(
            "Erratum: some transcriptions print 739 twice in the n=27 run; it appears once here."
        )
    return Report(
        title=f"n-ghost-right-triangles: 1 ≤ n ≤ {n_max}, n²+1 = p ∈ P",
        headers=(
            "n",
            "p=n²+1",
            "(□)=ghost right-triangle",
            "primes between two consecutive (□)",
        ),
        build_rows=rows,
        footers=tuple(footers),
        build_payload=lambda: {
            "n_max": n_max,
            "convention": conv.value,
            "rows": [
                {"n": k, "p": records[k].p, "parabolic": records[k].is_parabolic}
                for k in ks
            ],
            "marks": marks,
            "between": [{"after": a, "before": b, "primes": between} for a, b, between in runs],
        },
    )


# --------------------------------------------------------------------------
# zeta estimate over the parabolic primes

# Bound on k_max from the 64 MiB budget per call: the exact partial sum is
# printed on every row, so the text grows with the square of the rows.
# Tracemalloc peaks (CPython 3.11, x86-64) at 31,199: 63.97 MiB for md, 55.9
# for json and 37.0 for csv, in under a second untraced; the next parabolic
# k, 31,200, takes md to 64.03 MiB.  (The partial sum first has more than the
# 4,300 digits CPython converts to text at k = 32,386.)
ZETA_TABLE_MAX_K = 31_199


def _emit_zeta_table(conv: PrimeConvention, /, *, k_max: int = 10) -> Report:
    from fractions import Fraction

    from .figurate import _check_zeta_bounds, parabolic_primes

    if k_max > ZETA_TABLE_MAX_K:
        raise ReportError(f"k_max: needs k_max <= {ZETA_TABLE_MAX_K}, got {k_max}")
    terms = []  # (k, p, 1/(p-1), partial sum), the fractions as text
    running = Fraction(0)
    for rec in parabolic_primes(k_max, conv):
        if rec.is_parabolic:
            term = Fraction(1, rec.p - 1)
            running += term
            terms.append((rec.k, rec.p, _frac(term), _frac(running)))
    _check_zeta_bounds(running, k_max)
    return Report(
        title="Euler-Riemann zeta estimate for the parabolic primes",
        headers=("k", "p=k²+1", "1/(p-1)", "partial sum"),
        build_rows=lambda: tuple((str(k), str(p), term, partial) for k, p, term, partial in terms),
        footers=(
            "The full series over parabolic primes satisfies 1 < Σ 1/(p-1) ≤ ζ(2) = π²/6.",
            f"With k ≤ {k_max} the partial sum is {_frac(running)}.",
            "All entries are exact rationals.",
        ),
        build_payload=lambda: {
            "k_max": k_max,
            "terms": [
                {"k": k, "p": p, "term": term, "partial": partial}
                for k, p, term, partial in terms
            ],
            "partial_sum": _frac(running),
            "upper_bound": "pi^2/6",
        },
    )


# --------------------------------------------------------------------------
# single-shot renderings used by the command line

def _emit_couple(conv: PrimeConvention, /, *, two_n: int, trace: bool = False) -> Report:
    from .goldbach import canonical_couple

    couple, descent = canonical_couple(two_n, conv)
    return Report(
        title=f"Canonical Goldbach couple for {two_n}",
        headers=("2n", "p", "q", "kind", "depth", *(("descent",) if trace else ())),
        build_rows=lambda: (
            (
                *map(str, (two_n, couple.p, couple.q)),
                couple.kind.value,
                str(descent.depth()),
                *((_chain_text(two_n, descent.steps),) if trace else ()),
            ),
        ),
        footers=(),
        build_payload=lambda: {
            "two_n": two_n,
            "convention": conv.value,
            "couple": [couple.p, couple.q],
            "kind": couple.kind.value,
            "depth": descent.depth(),
            **({"steps": _steps_entry(descent.steps)} if trace else {}),
        },
    )


def _emit_couples(conv: PrimeConvention, /, *, two_n: int) -> Report:
    from .goldbach import _couple_pairs

    couples = _couple_pairs(two_n, conv)
    return Report(
        title=f"Goldbach couples for {two_n}",
        headers=("p", "q", "kind", "canonical"),
        build_rows=lambda: tuple(
            (str(p), str(q), kind.value, "★" if canonical else "")
            for p, q, kind, canonical in couples
        ),
        footers=(f"{len(couples)} couple(s) under {conv.value}.",),
        build_payload=lambda: {
            "two_n": two_n,
            "convention": conv.value,
            "couples": [_couple_entry(*c) for c in couples],
        },
    )


def _emit_quasi_couples(conv: PrimeConvention, /, *, two_n: int) -> Report:
    from .goldbach import quasi_couples

    quasi = quasi_couples(two_n, conv)
    return Report(
        title=f"Quasi-Goldbach couples for {two_n}",
        headers=("a", "2n-a"),
        build_rows=lambda: tuple((str(a), str(b)) for a, b in quasi),
        footers=(
            "Unit pairs (a, 2n-a) with at least one composite member.",
            f"{len(quasi)} pair(s) under {conv.value}.",
        ),
        build_payload=lambda: {
            "two_n": two_n,
            "convention": conv.value,
            "pairs": [[a, b] for a, b in quasi],
        },
    )


def _emit_units_profile(conv: PrimeConvention, /, *, n: int) -> Report:
    from .zn import units_profile

    profile = units_profile(n, conv)
    return Report(
        title=f"Unit group of {_zn(n)}",
        headers=("field", "value"),
        build_rows=lambda: (
            ("modulus", str(profile.modulus)),
            ("units", _braced(profile.units)),
            ("totient φ", str(profile.totient)),
            ("carmichael λ", str(profile.carmichael)),
            ("cyclic", "yes" if profile.cyclic else "no"),
            ("strong generators", _braced(profile.strong)),
        ),
        footers=(f"Strong generators are the units that are prime under {profile.convention.value}.",),
        build_payload=lambda: {
            "modulus": profile.modulus,
            "convention": profile.convention.value,
            "units": list(profile.units),
            "totient": profile.totient,
            "carmichael": profile.carmichael,
            "cyclic": profile.cyclic,
            "strong": list(profile.strong),
        },
    )


def _emit_strong_generators(conv: PrimeConvention, /, *, n: int) -> Report:
    from .zn import units_profile

    profile = units_profile(n, conv)
    return Report(
        title=f"Strong generators in {_zn(n)}",
        headers=("n", "strong generators", "count"),
        build_rows=lambda: ((str(n), _braced(profile.strong), str(len(profile.strong))),),
        footers=(f"Units of {_zn(n)} that are prime under {profile.convention.value}.",),
        build_payload=lambda: {
            "modulus": n,
            "convention": profile.convention.value,
            "strong": list(profile.strong),
            "count": len(profile.strong),
        },
    )


def _emit_crt(conv: PrimeConvention, /, *, a: int, n: int) -> Report:
    from .zn import crt_decompose, factorize

    components = crt_decompose(a, n)
    fact = factorize(n)
    iso = " × ".join(_zn(p**e) for p, e in fact.factors)
    return Report(
        title=f"CRT decomposition of {a} modulo {n}",
        headers=("residue", "modulus", "prime", "exponent"),
        build_rows=lambda: tuple(
            (str(r), str(pe), str(p), str(e))
            for (r, pe), (p, e) in zip(components, fact.factors)
        ),
        footers=(f"{_zn(n)} ≅ {iso}.",),
        build_payload=lambda: {
            "value": a % n,
            "modulus": n,
            "components": [[r, pe] for r, pe in components],
        },
    )


def _emit_radical(conv: PrimeConvention, /, *, m: int) -> Report:
    from .ideals import PrincipalIdeal, radical

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
    from .ideals import jacobson_radical_zn

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
    from .ideals import bezout

    g, x, y = bezout(a, b)
    identity = f"{a}·({x}) + {b}·({y}) = {g}"
    return Report(
        title=f"Bezout identity for ({a}, {b})",
        headers=("a", "b", "gcd", "x", "y", "identity"),
        build_rows=lambda: ((str(a), str(b), str(g), str(x), str(y), identity),),
        footers=(),
        build_payload=lambda: {"a": a, "b": b, "gcd": g, "x": x, "y": y},
    )


def _emit_triangle(conv: PrimeConvention, /, *, n: int) -> Report:
    from .figurate import triangle_number

    value = triangle_number(n)
    return Report(
        title=f"Triangular number T({n})",
        headers=("n", "T(n)"),
        build_rows=lambda: ((str(n), str(value)),),
        footers=("T(n) = n(n+1)/2.",),
        build_payload=lambda: {"n": n, "value": value},
    )


def _emit_square_triangular(conv: PrimeConvention, /, *, k_max: int) -> Report:
    from .figurate import square_triangular

    last = square_triangular(k_max)  # refuses k_max = 0 too, not an empty table
    values = [square_triangular(k) for k in range(1, k_max)] + [last]
    return Report(
        title="Numbers that are both square and triangular",
        headers=("k", "S(k)"),
        build_rows=lambda: tuple((str(k), str(s)) for k, s in enumerate(values, 1)),
        footers=("S(1) = 1 and S(k+1) = 4·S(k)·(8·S(k) + 1).",),
        build_payload=lambda: {"k_max": k_max, "values": values},
    )


def _emit_three_triangular(conv: PrimeConvention, /, *, n: int) -> Report:
    from .figurate import three_triangular, triangle_index

    parts = three_triangular(n)
    indices = [triangle_index(p) for p in parts]
    return Report(
        title=f"Three-triangular decomposition of {n}",
        headers=("n", "decomposition", "triangle indices"),
        build_rows=lambda: ((str(n), " + ".join(map(str, parts)), ", ".join(map(str, indices))),),
        footers=("Every natural number is a sum of at most three triangular numbers.",),
        build_payload=lambda: {"n": n, "parts": list(parts), "indices": indices},
    )


def _emit_faulhaber(conv: PrimeConvention, /, *, m: int, n: int) -> Report:
    from .figurate import faulhaber

    value = faulhaber(m, n)
    return Report(
        title=f"Power sum Σ k^{m} for k = 1..{n}",
        headers=("m", "n", "sum"),
        build_rows=lambda: ((str(m), str(n), str(value)),),
        footers=(),
        build_payload=lambda: {"m": m, "n": n, "value": value},
    )


def _emit_verify_summary(conv: PrimeConvention, /, *, summary: RunSummary) -> Report:
    return Report(
        title=f"Verification summary: {summary.task.value} on [{summary.lo}, {summary.hi}]",
        headers=("field", "value"),
        build_rows=lambda: (
            ("task", summary.task.value),
            ("convention", summary.convention.value),
            ("range", f"[{summary.lo}, {summary.hi}]"),
            ("verified", str(summary.verified)),
            ("skipped", str(summary.skipped)),
            ("complete", "yes" if summary.complete else "no"),
            ("elapsed (s)", f"{summary.elapsed:.3f}"),
            *((key, str(summary.stats[key])) for key in sorted(summary.stats)),
            *(("counterexample", json.dumps(w, sort_keys=True)) for w in summary.counterexamples),
        ),
        footers=(),
        build_payload=lambda: {
            "task": summary.task.value,
            "convention": summary.convention.value,
            "lo": summary.lo,
            "hi": summary.hi,
            "verified": summary.verified,
            "skipped": summary.skipped,
            "complete": summary.complete,
            "elapsed": round(summary.elapsed, 3),
            "stats": dict(summary.stats),
            "counterexamples": list(summary.counterexamples),
        },
    )


# --------------------------------------------------------------------------
# renderers

def _md_cells(rows: tuple[tuple[str, ...], ...]) -> str:
    """The rows as Markdown table lines without their outer pipes, each | in
    a cell escaped as \\|: one join for the whole table, and a second that
    escapes cell by cell only when some cell holds a |."""
    body = " |\n| ".join(map(" | ".join, rows))
    # the separators alone hold one | per cell boundary and two per row boundary
    if body.count("|") > sum(map(len, rows)) + len(rows) - 2:
        body = " |\n| ".join([" | ".join([c.replace("|", "\\|") for c in r]) for r in rows])
    return body


def _render_md(report: Report, config: Config, kind: str) -> bytes:
    rule = "|".join(" --- " for _ in report.headers)
    out = [f"config: {config.echo()}\n\n### {report.title}\n\n| ", _md_cells((report.headers,))]
    out.append(f" |\n|{rule}|\n")
    if report.rows:
        out += ["| ", _md_cells(report.rows), " |\n"]
    if report.footers:
        out.append("\n".join(("", *report.footers, "")))
    return "".join(out).encode("utf-8")


def _render_csv(report: Report, config: Config, kind: str) -> bytes:
    buf = io.StringIO()
    buf.write(f"# config: {config.echo()}\r\n")
    writer = csv.writer(buf)
    writer.writerow(report.headers)
    writer.writerows(report.rows)
    return buf.getvalue().encode("utf-8")


_json_str = json.encoder.encode_basestring  # the escaping of ensure_ascii=False


def _json(value: Any, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)``,
    byte for byte, for data whose dict keys are strings.  CPython serves an
    indented dump only from its pure-Python encoder; here a list of plain ints
    is written with one join at C speed."""
    if type(value) is str:
        return _json_str(value)
    if type(value) is int:
        return str(value)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([f"{_json_str(k)}: {_json(v, inner)}" for k, v in sorted(value.items())])
        return f"{{{inner}{body}{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:  # no bools, no int subclasses
            body = sep.join(map(str, value))
        else:
            body = sep.join([_json(x, inner) for x in value])
        return f"[{inner}{body}{indent}]"
    if value is None or type(value) is bool:
        return "null" if value is None else "true" if value else "false"
    return json.dumps(value, ensure_ascii=False)  # floats, and subclasses of str or int


def _render_json(report: Report, config: Config, kind: str) -> bytes:
    doc = {
        "kind": kind,
        "title": report.title,
        "config": config.as_dict(),
        "footnotes": list(report.footers),
        "report": report.payload,
    }
    return (_json(doc) + "\n").encode("utf-8")


_RENDERERS: dict[str, Callable[[Report, Config, str], bytes]] = {
    "md": _render_md,
    "csv": _render_csv,
    "json": _render_json,
}

_EMITTERS: dict[str, Callable[..., Report]] = {
    "descent-table": _emit_descent_table,
    "units-grid": _emit_units_grid,
    "ring-table": _emit_ring_table,
    "ideal-table": _emit_ideal_table,
    "polignac-table": _emit_polignac_table,
    "polignac-pairs": _emit_polignac_pairs,
    "legendre-table": _emit_legendre_table,
    "ghost-table": _emit_ghost_table,
    "zeta-table": _emit_zeta_table,
    "couple": _emit_couple,
    "couples": _emit_couples,
    "quasi-couples": _emit_quasi_couples,
    "units-profile": _emit_units_profile,
    "strong-generators": _emit_strong_generators,
    "crt": _emit_crt,
    "radical": _emit_radical,
    "jacobson": _emit_jacobson,
    "bezout": _emit_bezout,
    "triangle": _emit_triangle,
    "square-triangular": _emit_square_triangular,
    "three-triangular": _emit_three_triangular,
    "faulhaber": _emit_faulhaber,
    "verify-summary": _emit_verify_summary,
}


# each emitter's keyword-only parameters, read once: their names, annotations
# and defaults are the one declaration of what a report kind accepts
_PARAMETERS = {
    kind: {
        name: param
        for name, param in inspect.signature(emitter).parameters.items()
        if param.kind is inspect.Parameter.KEYWORD_ONLY
    }
    for kind, emitter in _EMITTERS.items()
}


def report_kinds() -> tuple[str, ...]:
    return tuple(sorted(_EMITTERS))


def report_parameters(kind: str) -> Mapping[str, inspect.Parameter]:
    """The parameters a report kind accepts, by name, with their defaults."""
    return _PARAMETERS[kind]


def build_report(
    kind: str, params: Mapping[str, Any] | None = None, config: Config | None = None
) -> Report:
    """The structured form of :func:`emit_report`, for callers that want the
    grid and payload without serialization.  ``params`` is checked against
    :func:`report_parameters` before the emitter runs."""
    try:
        emitter = _EMITTERS[kind]
    except KeyError:
        raise ReportError(
            f"unknown report kind {kind!r}; expected one of: {', '.join(report_kinds())}"
        ) from None
    params = dict(params or {})
    kwargs = {}
    for name, param in _PARAMETERS[kind].items():
        if name in params:
            kwargs[name] = _coerce(name, params.pop(name), param.annotation)
        elif param.default is param.empty:
            raise ReportError(f"{name}: required parameter missing")
    if params:
        raise ReportError(f"unknown parameter(s): {', '.join(sorted(params))}")
    return emitter(DEFAULT_CONVENTION if config is None else config.convention, **kwargs)


def emit_report(
    kind: str,
    params: Mapping[str, Any] | None = None,
    fmt: str = "md",
    config: Config | None = None,
) -> bytes:
    if config is None:
        config = Config(workers=1)
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise ReportError(
            f"unknown format {fmt!r}; expected one of: {', '.join(sorted(_RENDERERS))}"
        ) from None
    return renderer(build_report(kind, params, config), config, kind)
