"""Reports on Goldbach couples: the descent criterion table, the overview of
strong generators in small rings, and the canonical couple, the couples and
the quasi-couples of one 2n."""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from .goldbach import CoupleKind, canonical_couple, enumerate_couples, quasi_couples
from .primes import PrimeConvention
from .reports import Report, _factor_list, _pair, _zn
from .zn import Factorization, factorize, units_profile


# the even numbers whose canonical descents the criterion table prints
DESCENT_TARGETS = (
    2, 4, 6, 8, 10, 12, 14, 16, 18, 20,
    220, 346, 518, 532, 538, 556, 586, 628, 640, 670, 700, 718,
    782, 796, 806, 820, 838, 848, 872, 896, 902, 928, 962, 972,
    978, 984, 992, 998,
)

# the moduli of the strong-generator overview table
RING_MODULI = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 28)


def _rows_for(two_ns: tuple[int, ...], conv: PrimeConvention) -> tuple[int, ...]:
    """The 2n of a table that have couples under conv: 2 = 1 + 1 is a couple
    only when the unit counts as prime."""
    return two_ns if conv is PrimeConvention.INCLUDE1 else tuple(m for m in two_ns if m != 2)


def _times_expanded(fact: Factorization) -> str:
    """9 -> ``3×3``: factors expanded with multiplicity, ×-joined."""
    parts: list[str] = []
    for p, e in fact.factors:
        parts.extend([str(p)] * e)
    return "×".join(parts)


def _descent(
    two_n: int, candidates: tuple[int, ...]
) -> list[tuple[int, int, Factorization | None]]:
    """(candidate, remainder, factorization) per step of a descent; the
    factorization is None on the last step, whose remainder is prime."""
    last = len(candidates) - 1
    return [
        (c, two_n - c, None if i == last else factorize(two_n - c))
        for i, c in enumerate(candidates)
    ]


def _steps_entry(two_n: int, candidates: tuple[int, ...]) -> list[dict[str, Any]]:
    return [
        {"candidate": c, "remainder": rem, "factors": None if fact is None else _factor_list(fact)}
        for c, rem, fact in _descent(two_n, candidates)
    ]


def _kind_texts(couples: list[tuple[int, int, CoupleKind, bool]]) -> list[str]:
    """Each couple's kind as text, for couples in enumerate_couples' order or
    a part of it: only the first and the last can be other than ORDINARY."""
    texts = [CoupleKind.ORDINARY.value] * len(couples)
    for i in {0, len(couples) - 1} if couples else ():
        texts[i] = couples[i][2].value
    return texts


def _couple_entries(couples: list[tuple[int, int, CoupleKind, bool]]) -> list[dict[str, Any]]:
    return [
        {"pair": [p, q], "kind": kind, "canonical": canonical}
        for (p, q, _, canonical), kind in zip(couples, _kind_texts(couples))
    ]


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


def _chain_text(two_n: int, candidates: tuple[int, ...]) -> str:
    parts = []
    for c, rem, fact in _descent(two_n, candidates):
        cell = f"{two_n}-{c}={rem}"
        if fact is not None and fact.factors:
            cell += "=" + _times_expanded(fact)
        parts.append(cell)
    return " ⇒ ".join(parts)


def _emit_descent_table(conv: PrimeConvention, /) -> Report:
    descents = [
        (two_n, *canonical_couple(two_n, conv)) for two_n in _rows_for(DESCENT_TARGETS, conv)
    ]
    errata = _DESCENT_ERRATA if conv is PrimeConvention.INCLUDE1 else {}

    footers = [
        "p₁ is the highest prime such that p₁ < 2n.",
        "p₁⁽ⁱ⁾ is the highest prime such that p₁⁽ⁱ⁾ < p₁⁽ⁱ⁻¹⁾, i ≥ 1, p₁⁽⁰⁾ = p₁.",
        "p₂⁽ˢ⁾ is the first number in the sequence i, i ≥ 1, such that p₂⁽ˢ⁾ ∈ P.",
        "P ⊂ ℕ is the set of prime numbers of ℕ.",
        *(note for _, note in errata.values()),
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
                str(trace.candidates[0]),
                _chain_text(two_n, trace.candidates)
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
                    "first_candidate": trace.candidates[0],
                    "couple": [couple.p, couple.q],
                    "kind": couple.kind.value,
                    "depth": trace.depth(),
                    "steps": _steps_entry(two_n, trace.candidates),
                }
                for two_n, couple, trace in descents
            ],
        },
    )


# --------------------------------------------------------------------------
# strong-generator overview across small even moduli

def _emit_ring_table(conv: PrimeConvention, /) -> Report:
    rings = []
    for two_n in _rows_for(RING_MODULI, conv):
        profile = units_profile(two_n, conv)
        couples = [  # (p, q, kind, canonical), trivial ones only at 2n = 2
            c for c in enumerate_couples(two_n, conv)
            if c[2] is not CoupleKind.TRIVIAL or two_n == 2
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
    if conv is PrimeConvention.INCLUDE1:
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
                "{" + ",".join([str(u) if u in strong else f"({u})" for u in profile.units]) + "}",
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
                    "couples": _couple_entries(couples),
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


def _emit_couple(conv: PrimeConvention, /, *, two_n: int, trace: bool = False) -> Report:
    couple, descent = canonical_couple(two_n, conv)
    return Report(
        title=f"Canonical Goldbach couple for {two_n}",
        headers=("2n", "p", "q", "kind", "depth", *(("descent",) if trace else ())),
        build_rows=lambda: (
            (
                *map(str, (two_n, couple.p, couple.q)),
                couple.kind.value,
                str(descent.depth()),
                *((_chain_text(two_n, descent.candidates),) if trace else ()),
            ),
        ),
        footers=(),
        build_payload=lambda: {
            "two_n": two_n,
            "convention": conv.value,
            "couple": [couple.p, couple.q],
            "kind": couple.kind.value,
            "depth": descent.depth(),
            **({"steps": _steps_entry(two_n, descent.candidates)} if trace else {}),
        },
    )


def _emit_couples(conv: PrimeConvention, /, *, two_n: int) -> Report:
    couples = enumerate_couples(two_n, conv)
    return Report(
        title=f"Goldbach couples for {two_n}",
        headers=("p", "q", "kind", "canonical"),
        build_rows=lambda: tuple(zip(
            map(str, map(itemgetter(0), couples)),
            map(str, map(itemgetter(1), couples)),
            _kind_texts(couples),
            map(("", "★").__getitem__, map(itemgetter(3), couples)),
        )),
        footers=(f"{len(couples)} couple(s) under {conv.value}.",),
        build_payload=lambda: {
            "two_n": two_n,
            "convention": conv.value,
            "couples": _couple_entries(couples),
        },
    )


def _emit_quasi_couples(conv: PrimeConvention, /, *, two_n: int) -> Report:
    quasi = quasi_couples(two_n, conv)
    return Report(
        title=f"Quasi-Goldbach couples for {two_n}",
        headers=("a", "2n-a"),
        build_rows=lambda: tuple(
            zip(map(str, map(itemgetter(0), quasi)), map(str, map(itemgetter(1), quasi)))
        ),
        footers=(
            "Unit pairs (a, 2n-a) with at least one composite member.",
            f"{len(quasi)} pair(s) under {conv.value}.",
        ),
        build_payload=lambda: {
            "two_n": two_n,
            "convention": conv.value,
            "pairs": list(map(list, quasi)),
        },
    )
