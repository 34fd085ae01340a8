"""Reports on prime gaps: de Polignac couples in dyadic blocks and up to a
bound, and the primes between consecutive squares."""

from __future__ import annotations

from operator import attrgetter

from .gaps import legendre_primes, polignac_dyadic_search, polignac_pairs
from .primes import PrimeConvention
from .reports import Report, ReportError, _ints, _pair


# the gaps of the de Polignac couple table
POLIGNAC_GAPS = (2, 4, 6, 8, 10, 20)


# --------------------------------------------------------------------------
# de Polignac couples in dyadic blocks

def _emit_polignac_table(
    conv: PrimeConvention, /, *, gaps: tuple[int, ...] = POLIGNAC_GAPS, m_max: int = 4
) -> Report:
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
    pairs = polignac_pairs(two_n, q_max, conv)
    return Report(
        title=f"{two_n}-de Polignac couples with q ≤ {q_max}",
        headers=("q", "p", "block m"),
        build_rows=lambda: tuple(
            zip(*(map(str, map(attrgetter(field), pairs)) for field in ("q", "p", "block")))
        ),
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
    intervals = [(n, legendre_primes(n, conv)) for n in ns]
    if conv is PrimeConvention.INCLUDE1:
        conv_note = "Here 1 counts as prime."
    else:
        conv_note = "Here 1 is not counted as prime; the row n=1 starts at 2."
    return Report(
        title="Examples of primes p ∈ [n², (n+1)²]",
        headers=("n", "n²", "(n+1)²", "prime p ∈ [n², (n+1)²]"),
        build_rows=lambda: tuple(
            (str(n), str(n * n), str((n + 1) * (n + 1)), _ints(primes, ", "))
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
