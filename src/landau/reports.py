"""Publication-shaped reports over the library's routines.

Every emitter builds a :class:`Report` — a titled grid of pre-rendered cells
plus a JSON-shaped payload — and :func:`emit_report` serializes it to one of
three formats:

* ``md``   — a config echo line, the title, a pipe table, then footnotes;
* ``csv``  — a leading ``# config:`` comment and RFC-4180 rows (no footnotes);
* ``json`` — ``{"kind", "title", "config", "footnotes", "report"}`` with
  sorted keys and stable indentation.

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
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Mapping

from .config import Config
from .figurate import (
    _check_zeta_bounds,
    faulhaber,
    parabolic_primes,
    square_triangular,
    three_triangular,
    triangle_index,
    triangle_number,
)
from .gaps import legendre_primes, polignac_dyadic_search, polignac_pairs
from .goldbach import CoupleKind, canonical_couple, enumerate_couples, quasi_couples
from .ideals import (
    PrincipalIdeal,
    bezout,
    goldbach_ideal_analysis,
    jacobson_radical_zn,
    radical,
)
from .primes import DEFAULT_CONVENTION, PrimeConvention, primes_in_range
from .zn import Factorization, crt_decompose, factorize, multiplication_table, units_profile

if TYPE_CHECKING:
    from .harness import RunSummary

__all__ = [
    "DESCENT_TARGETS",
    "POLIGNAC_GAPS",
    "Report",
    "ReportError",
    "RING_MODULI",
    "build_report",
    "emit_report",
    "report_kinds",
    "report_parameters",
]


class ReportError(ValueError):
    """A bad report request: unknown kind, unknown format, or bad parameter."""


@dataclass(frozen=True)
class Report:
    """One table ready for rendering: cells are final strings, the payload
    mirrors the table as plain JSON-able data."""

    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    footers: tuple[str, ...]
    payload: dict[str, Any]


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


def _couple_entry(c) -> dict[str, Any]:
    return {"pair": [c.p, c.q], "kind": c.kind.value, "canonical": c.canonical}


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
    rows = []
    payload_rows = []
    errata_notes = []
    for two_n in targets:
        couple, trace = canonical_couple(two_n, conv)
        chain = _chain_text(two_n, trace.steps)
        n_cell = str(two_n // 2)
        if conv is PrimeConvention.INCLUDE1 and two_n in _DESCENT_ERRATA:
            mark, note = _DESCENT_ERRATA[two_n]
            chain += f" {mark}"
            errata_notes.append(note)
        rows.append((n_cell, str(two_n), str(trace.steps[0].candidate), chain))
        payload_rows.append(
            {
                "n": two_n // 2,
                "two_n": two_n,
                "first_candidate": trace.steps[0].candidate,
                "couple": [couple.p, couple.q],
                "kind": couple.kind.value,
                "depth": trace.depth(),
                "steps": _steps_entry(trace.steps),
            }
        )
    footers = [
        "p₁ is the highest prime such that p₁ < 2n.",
        "p₁⁽ⁱ⁾ is the highest prime such that p₁⁽ⁱ⁾ < p₁⁽ⁱ⁻¹⁾, i ≥ 1, p₁⁽⁰⁾ = p₁.",
        "p₂⁽ˢ⁾ is the first number in the sequence i, i ≥ 1, such that p₂⁽ˢ⁾ ∈ P.",
        "P ⊂ ℕ is the set of prime numbers of ℕ.",
        *errata_notes,
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
        rows=tuple(rows),
        footers=tuple(footers),
        payload={"convention": conv.value, "rows": payload_rows},
    )


# --------------------------------------------------------------------------
# unit-group multiplication grids

def _emit_units_grid(conv: PrimeConvention, /, *, n: int) -> Report:
    table = multiplication_table(n)
    headers = ("", *(str(u) for u in table.units))
    rows = tuple(
        (str(u), *(str(v) for v in row)) for u, row in zip(table.units, table.rows)
    )
    caption = "; ".join(f"{u}⁻¹={v}" for u, v in table.inverses) + "."
    return Report(
        title=f"Multiplication table in {_zx(n)}",
        headers=headers,
        rows=rows,
        footers=(caption,),
        payload={
            "modulus": n,
            "units": list(table.units),
            "grid": [list(row) for row in table.rows],
            "inverses": [[u, v] for u, v in table.inverses],
        },
    )


# --------------------------------------------------------------------------
# strong-generator overview across small even moduli

def _emit_ring_table(conv: PrimeConvention, /, *, moduli: tuple[int, ...] | None = None) -> Report:
    # 2 = 1 + 1 is a couple only when the unit counts as prime
    include1 = conv is PrimeConvention.INCLUDE1
    if moduli is None:
        moduli = RING_MODULI if include1 else tuple(m for m in RING_MODULI if m != 2)
    elif not include1 and 2 in moduli:
        raise ReportError("moduli: 2 = 1 + 1 needs the unit counted as prime; use include1")
    rows = []
    payload_rows = []
    for two_n in moduli:
        profile = units_profile(two_n, conv)
        couples = [
            c
            for c in enumerate_couples(two_n, conv)
            if c.kind is not CoupleKind.TRIVIAL or two_n == 2
        ]
        couple_cell = "; ".join(
            f"{_pair(c.p, c.q)}★" if c.canonical else _pair(c.p, c.q) for c in couples
        )
        strong = set(profile.strong)
        unit_cell = _braced(u if u in strong else f"({u})" for u in profile.units)
        quasi = quasi_couples(two_n, conv)
        quasi_cell = "; ".join(_pair(a, b) for a, b in quasi) if quasi else "-"
        rows.append(
            (_zn(two_n), couple_cell, unit_cell, str(profile.totient), quasi_cell)
        )
        payload_rows.append(
            {
                "two_n": two_n,
                "couples": [_couple_entry(c) for c in couples],
                "units": list(profile.units),
                "composite_units": [u for u in profile.units if u not in strong],
                "strong": list(profile.strong),
                "totient": profile.totient,
                "quasi": [[a, b] for a, b in quasi],
            }
        )
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
        rows=tuple(rows),
        footers=tuple(footers),
        payload={"convention": conv.value, "rows": payload_rows},
    )


# --------------------------------------------------------------------------
# maximal-ideal tables over the working modulus r

def _r_as_prime_powers(fact: Factorization) -> str:
    """Render r as its prime powers, each written out as an integer and
    joined ascending by value (so 3³·5²·11 reads 11·25·27·...)."""
    values = sorted(p**e for p, e in fact.factors)
    return "·".join(str(v) for v in values)


def _ideal_row(index: int, two_n: int, generator: int, rem: int, maximal) -> tuple[str, dict]:
    """The rendered cell and the payload entry of the ideal (2n - b)Z/rZ,
    both read off one factorization of its remainder; ``maximal`` numbers
    the maximal ideals pZ/rZ of Z_r by their primes p."""
    fact = factorize(rem)
    missing = [p for p in fact.primes() if p not in maximal]
    if missing:
        raise ReportError(
            f"remainder {rem} is not a unit ideal modulo {two_n}: "
            f"prime(s) {missing} do not divide r"
        )
    indices = [maximal[p] for p in fact.primes()]
    squarefree = all(e == 1 for _, e in fact.factors)
    a_i = f"𝔞{_sub(index)}"
    lhs = f"{a_i}=({two_n}-{generator})ℤ/rℤ"
    if rem == 1:
        cell = f"{lhs}=ℤᵣ"
    else:
        maximals = "∩".join(f"𝔪{_sub(i)}" for i in indices)
        relation = "=" if squarefree else "⊂"
        cell = f"{lhs}={_dot_powers(fact)}ℤ/rℤ{relation}{maximals}=𝔯({a_i})"
    entry = {
        "index": index,
        "generator_unit": generator,
        "remainder": rem,
        "factors": _factor_list(fact),
        "maximal": fact.factors == ((rem, 1),),
        "maximal_indices": indices,
        "squarefree": squarefree,
    }
    return cell, entry


def _emit_ideal_table(
    conv: PrimeConvention, /, *, two_n: int, include_top: bool = False, descent_only: bool = False
) -> Report:
    rep = goldbach_ideal_analysis(two_n, conv, include_top=include_top)
    # only r depends on include_top
    alt = replace(rep, include_top=not include_top)
    r, alt_r = rep.r.value(), alt.r.value()
    # both r values go into the footer and the payload as decimal text
    limit = sys.get_int_max_str_digits()
    if limit and max(r, alt_r) >= 10**limit:
        raise ReportError(
            f"2N={two_n}: r = l.c.m.(aᵢ) has more than {limit} digits, "
            "past what Python converts to text"
        )

    if descent_only:
        _, trace = canonical_couple(two_n, conv)
        items = [(s.candidate, s.remainder) for s in trace.steps]
    else:
        items = zip(rep.generators, rep.remainders)
    maximal = {p: i for i, p in enumerate(rep.primes_of_r, start=1)}
    rows = []
    payload_entries = []
    for index, (generator, rem) in enumerate(items, start=1):
        cell, entry = _ideal_row(index, two_n, generator, rem, maximal)
        rows.append((cell,))
        payload_entries.append(entry)

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
        rows=tuple(rows),
        footers=footers,
        payload={
            "two_n": two_n,
            "convention": conv.value,
            "include_top": include_top,
            "descent_only": descent_only,
            "r": {"value": r, "factors": _factor_list(rep.r)},
            "r_alternate": {"value": alt_r, "factors": _factor_list(alt.r)},
            "maximal_ideal_primes": list(rep.primes_of_r),
            "entries": payload_entries,
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
    if m_max < 1:
        raise ReportError(f"m_max: needs at least 1, got {m_max}")
    rows = []
    payload_rows = []
    for gap in gaps:
        blocks = polignac_dyadic_search(gap, m_max, conv)
        columns = [blocks.get(m, []) for m in range(1, m_max + 1)]
        cells = (", ".join(_pair(c.q, c.p) for c in col) for col in columns)
        rows.append((str(gap // 2), str(gap), *cells))
        payload_rows.append(
            {
                "n": gap // 2,
                "two_n": gap,
                "blocks": [[m, [[c.q, c.p] for c in col]] for m, col in enumerate(columns, 1)],
            }
        )
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
        rows=tuple(rows),
        footers=tuple(footers),
        payload={"convention": conv.value, "m_max": m_max, "rows": payload_rows},
    )


def _emit_polignac_pairs(conv: PrimeConvention, /, *, two_n: int, q_max: int) -> Report:
    pairs = polignac_pairs(two_n, q_max, conv)
    rows = tuple((str(c.q), str(c.p), str(c.block)) for c in pairs)
    return Report(
        title=f"{two_n}-de Polignac couples with q ≤ {q_max}",
        headers=("q", "p", "block m"),
        rows=rows,
        footers=(
            "block m is the smallest m ≥ 1 with q ≤ 2n·2^m.",
            f"{len(pairs)} couple(s) under {conv.value}.",
        ),
        payload={
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
    rows = []
    payload_rows = []
    for n in ns:
        primes = legendre_primes(n, conv)
        rows.append(
            (str(n), str(n * n), str((n + 1) * (n + 1)), ", ".join(str(p) for p in primes))
        )
        payload_rows.append(
            {"n": n, "lo": n * n, "hi": (n + 1) * (n + 1), "primes": list(primes)}
        )
    if conv is PrimeConvention.INCLUDE1:
        conv_note = "Here 1 counts as prime."
    else:
        conv_note = "Here 1 is not counted as prime; the row n=1 starts at 2."
    return Report(
        title="Examples of primes p ∈ [n², (n+1)²]",
        headers=("n", "n²", "(n+1)²", "prime p ∈ [n², (n+1)²]"),
        rows=tuple(rows),
        footers=(
            conv_note,
            "The certificate works equally well taking 2 as the first prime.",
        ),
        payload={"convention": conv.value, "rows": payload_rows},
    )


# --------------------------------------------------------------------------
# ghost right-triangles (parabolic primes)

def _emit_ghost_table(conv: PrimeConvention, /, *, n_max: int = 60) -> Report:
    if n_max < 1:
        raise ReportError(f"n_max: needs at least 1, got {n_max}")
    records = {r.k: r for r in parabolic_primes(n_max, conv)}
    limit = min(n_max, 40)
    ks = list(range(1, limit + 1)) + [k for k in range(42, n_max + 1, 2)]
    marks = [k for k in range(1, limit + 1) if records[k].is_parabolic]

    first_row_lists: dict[int, list[int]] = {}
    own_row_lists: dict[int, list[int]] = {}
    runs = []
    for a, b in zip(marks, marks[1:]):
        between = primes_in_range(a * a + 2, b * b, PrimeConvention.EXCLUDE1)
        runs.append({"after": a, "before": b, "primes": list(between)})
        if b - a == 1:
            own_row_lists[a] = list(between)
        else:
            first_row_lists[a + 1] = list(between)

    rows = []
    for k in ks:
        rec = records[k]
        p_cell = f"p={k * k}+1={rec.p}"
        mark_cell = "(□)" if rec.is_parabolic else ""
        between_cell = ", ".join(str(p) for p in first_row_lists.get(k, []))
        rows.append((str(k), p_cell, mark_cell, between_cell))
        if k in own_row_lists:
            rows.append(("", "", "", ", ".join(str(p) for p in own_row_lists[k])))

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
        rows=tuple(rows),
        footers=tuple(footers),
        payload={
            "n_max": n_max,
            "convention": conv.value,
            "rows": [
                {"n": k, "p": records[k].p, "parabolic": records[k].is_parabolic}
                for k in ks
            ],
            "marks": marks,
            "between": runs,
        },
    )


# --------------------------------------------------------------------------
# zeta estimate over the parabolic primes

def _emit_zeta_table(conv: PrimeConvention, /, *, k_max: int = 10) -> Report:
    records = parabolic_primes(k_max, conv)
    rows = []
    terms = []
    running = Fraction(0)
    for rec in records:
        if not rec.is_parabolic:
            continue
        term = Fraction(1, rec.p - 1)
        running += term
        rows.append((str(rec.k), str(rec.p), _frac(term), _frac(running)))
        terms.append(
            {"k": rec.k, "p": rec.p, "term": _frac(term), "partial": _frac(running)}
        )
    _check_zeta_bounds(running, k_max)
    return Report(
        title="Euler-Riemann zeta estimate for the parabolic primes",
        headers=("k", "p=k²+1", "1/(p-1)", "partial sum"),
        rows=tuple(rows),
        footers=(
            "The full series over parabolic primes satisfies 1 < Σ 1/(p-1) ≤ ζ(2) = π²/6.",
            f"With k ≤ {k_max} the partial sum is {_frac(running)}.",
            "All entries are exact rationals.",
        ),
        payload={
            "k_max": k_max,
            "terms": terms,
            "partial_sum": _frac(running),
            "upper_bound": "pi^2/6",
        },
    )


# --------------------------------------------------------------------------
# single-shot renderings used by the command line

def _emit_couple(conv: PrimeConvention, /, *, two_n: int, trace: bool = False) -> Report:
    couple, descent = canonical_couple(two_n, conv)
    row = [
        str(two_n),
        str(couple.p),
        str(couple.q),
        couple.kind.value,
        str(descent.depth()),
    ]
    headers = ["2n", "p", "q", "kind", "depth"]
    payload = {
        "two_n": two_n,
        "convention": conv.value,
        "couple": [couple.p, couple.q],
        "kind": couple.kind.value,
        "depth": descent.depth(),
    }
    if trace:
        headers.append("descent")
        row.append(_chain_text(two_n, descent.steps))
        payload["steps"] = _steps_entry(descent.steps)
    return Report(
        title=f"Canonical Goldbach couple for {two_n}",
        headers=tuple(headers),
        rows=(tuple(row),),
        footers=(),
        payload=payload,
    )


def _emit_couples(conv: PrimeConvention, /, *, two_n: int) -> Report:
    couples = enumerate_couples(two_n, conv)
    rows = tuple(
        (str(c.p), str(c.q), c.kind.value, "★" if c.canonical else "")
        for c in couples
    )
    return Report(
        title=f"Goldbach couples for {two_n}",
        headers=("p", "q", "kind", "canonical"),
        rows=rows,
        footers=(f"{len(couples)} couple(s) under {conv.value}.",),
        payload={
            "two_n": two_n,
            "convention": conv.value,
            "couples": [_couple_entry(c) for c in couples],
        },
    )


def _emit_quasi_couples(conv: PrimeConvention, /, *, two_n: int) -> Report:
    quasi = quasi_couples(two_n, conv)
    return Report(
        title=f"Quasi-Goldbach couples for {two_n}",
        headers=("a", "2n-a"),
        rows=tuple((str(a), str(b)) for a, b in quasi),
        footers=(
            "Unit pairs (a, 2n-a) with at least one composite member.",
            f"{len(quasi)} pair(s) under {conv.value}.",
        ),
        payload={
            "two_n": two_n,
            "convention": conv.value,
            "pairs": [[a, b] for a, b in quasi],
        },
    )


def _emit_units_profile(conv: PrimeConvention, /, *, n: int) -> Report:
    profile = units_profile(n, conv)
    rows = (
        ("modulus", str(profile.modulus)),
        ("units", _braced(profile.units)),
        ("totient φ", str(profile.totient)),
        ("carmichael λ", str(profile.carmichael)),
        ("cyclic", "yes" if profile.cyclic else "no"),
        ("strong generators", _braced(profile.strong)),
    )
    return Report(
        title=f"Unit group of {_zn(n)}",
        headers=("field", "value"),
        rows=rows,
        footers=(f"Strong generators are the units that are prime under {profile.convention.value}.",),
        payload={
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
    profile = units_profile(n, conv)
    return Report(
        title=f"Strong generators in {_zn(n)}",
        headers=("n", "strong generators", "count"),
        rows=((str(n), _braced(profile.strong), str(len(profile.strong))),),
        footers=(f"Units of {_zn(n)} that are prime under {profile.convention.value}.",),
        payload={
            "modulus": n,
            "convention": profile.convention.value,
            "strong": list(profile.strong),
            "count": len(profile.strong),
        },
    )


def _emit_crt(conv: PrimeConvention, /, *, a: int, n: int) -> Report:
    components = crt_decompose(a, n)
    fact = factorize(n)
    rows = tuple(
        (str(r), str(pe), str(p), str(e))
        for (r, pe), (p, e) in zip(components, fact.factors)
    )
    iso = " × ".join(_zn(p**e) for p, e in fact.factors)
    return Report(
        title=f"CRT decomposition of {a} modulo {n}",
        headers=("residue", "modulus", "prime", "exponent"),
        rows=rows,
        footers=(f"{_zn(n)} ≅ {iso}.",),
        payload={
            "value": a % n,
            "modulus": n,
            "components": [[r, pe] for r, pe in components],
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
        rows=(
            (
                f"{m}ℤ",
                _dot_powers(ideal.generator) or "1",
                f"{rad.generator.value()}ℤ",
                _dot_powers(rad.generator) or "1",
            ),
        ),
        footers=("The radical keeps each prime once: 𝔯(mℤ) = (∏ p | m) ℤ.",),
        payload={
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
        rows=((_zn(n), f"{gen}ℤ/{n}ℤ", str(gen)),),
        footers=(
            "The Jacobson radical of ℤₙ is generated by the product of the primes dividing n.",
        ),
        payload={
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
        rows=((str(a), str(b), str(g), str(x), str(y), identity),),
        footers=(),
        payload={"a": a, "b": b, "gcd": g, "x": x, "y": y},
    )


def _emit_triangle(conv: PrimeConvention, /, *, n: int) -> Report:
    value = triangle_number(n)
    return Report(
        title=f"Triangular number T({n})",
        headers=("n", "T(n)"),
        rows=((str(n), str(value)),),
        footers=("T(n) = n(n+1)/2.",),
        payload={"n": n, "value": value},
    )


def _emit_square_triangular(conv: PrimeConvention, /, *, k_max: int) -> Report:
    last = square_triangular(k_max)  # refuses k_max = 0 too, not an empty table
    values = [square_triangular(k) for k in range(1, k_max)] + [last]
    return Report(
        title="Numbers that are both square and triangular",
        headers=("k", "S(k)"),
        rows=tuple((str(k), str(s)) for k, s in enumerate(values, 1)),
        footers=("S(1) = 1 and S(k+1) = 4·S(k)·(8·S(k) + 1).",),
        payload={"k_max": k_max, "values": values},
    )


def _emit_three_triangular(conv: PrimeConvention, /, *, n: int) -> Report:
    parts = three_triangular(n)
    indices = [triangle_index(p) for p in parts]
    return Report(
        title=f"Three-triangular decomposition of {n}",
        headers=("n", "decomposition", "triangle indices"),
        rows=((str(n), " + ".join(map(str, parts)), ", ".join(map(str, indices))),),
        footers=("Every natural number is a sum of at most three triangular numbers.",),
        payload={"n": n, "parts": list(parts), "indices": indices},
    )


def _emit_faulhaber(conv: PrimeConvention, /, *, m: int, n: int) -> Report:
    value = faulhaber(m, n)
    return Report(
        title=f"Power sum Σ k^{m} for k = 1..{n}",
        headers=("m", "n", "sum"),
        rows=((str(m), str(n), str(value)),),
        footers=(),
        payload={"m": m, "n": n, "value": value},
    )


def _emit_verify_summary(conv: PrimeConvention, /, *, summary: RunSummary) -> Report:
    rows = [
        ("task", summary.task.value),
        ("convention", summary.convention.value),
        ("range", f"[{summary.lo}, {summary.hi}]"),
        ("verified", str(summary.verified)),
        ("skipped", str(summary.skipped)),
        ("complete", "yes" if summary.complete else "no"),
        ("elapsed (s)", f"{summary.elapsed:.3f}"),
    ]
    for key in sorted(summary.stats):
        rows.append((key, str(summary.stats[key])))
    for witness in summary.counterexamples:
        rows.append(("counterexample", json.dumps(witness, sort_keys=True)))
    return Report(
        title=f"Verification summary: {summary.task.value} on [{summary.lo}, {summary.hi}]",
        headers=("field", "value"),
        rows=tuple(rows),
        footers=(),
        payload={
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

def _render_md(report: Report, config: Config, kind: str) -> bytes:
    def esc(cell: str) -> str:
        return cell.replace("|", "\\|")

    lines = [f"config: {config.echo()}", "", f"### {report.title}", ""]
    lines.append("| " + " | ".join(esc(h) for h in report.headers) + " |")
    lines.append("|" + "|".join(" --- " for _ in report.headers) + "|")
    for row in report.rows:
        lines.append("| " + " | ".join(esc(c) for c in row) + " |")
    if report.footers:
        lines.append("")
        lines.extend(report.footers)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _render_csv(report: Report, config: Config, kind: str) -> bytes:
    buf = io.StringIO()
    buf.write(f"# config: {config.echo()}\r\n")
    writer = csv.writer(buf)
    writer.writerow(report.headers)
    writer.writerows(report.rows)
    return buf.getvalue().encode("utf-8")


def _render_json(report: Report, config: Config, kind: str) -> bytes:
    doc = {
        "kind": kind,
        "title": report.title,
        "config": config.as_dict(),
        "footnotes": list(report.footers),
        "report": report.payload,
    }
    return (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode(
        "utf-8"
    )


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
