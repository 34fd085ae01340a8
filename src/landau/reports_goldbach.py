"""Reports on Goldbach couples: the descent criterion table, the overview of
strong generators in small rings, and the canonical couple, the couples and
the quasi-couples of one 2n."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .primes import PrimeConvention
from .reports import Report, ReportError, _braced, _factor_list, _pair, _zn

if TYPE_CHECKING:
    from .goldbach import CoupleKind
    from .zn import Factorization


# the even numbers whose canonical descents the criterion table prints
DESCENT_TARGETS = (
    2, 4, 6, 8, 10, 12, 14, 16, 18, 20,
    220, 346, 518, 532, 538, 556, 586, 628, 640, 670, 700, 718,
    782, 796, 806, 820, 838, 848, 872, 896, 902, 928, 962, 972,
    978, 984, 992, 998,
)

# the moduli of the strong-generator overview table
RING_MODULI = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 28)


def _times_expanded(fact: Factorization) -> str:
    """9 -> ``3×3``: factors expanded with multiplicity, ×-joined."""
    parts: list[str] = []
    for p, e in fact.factors:
        parts.extend([str(p)] * e)
    return "×".join(parts)


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
