"""Reports on figurate numbers: the parabolic primes k^2 + 1 and their zeta
estimate, and the triangular-number tables."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .primes import PrimeConvention
from .reports import Report, ReportError

if TYPE_CHECKING:
    from fractions import Fraction


def _frac(fr: Fraction) -> str:
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


# --------------------------------------------------------------------------
# ghost right-triangles (parabolic primes)

# Bound on n_max from the 64 MiB budget per call that bounds the couple lists
# in goldbach.py: the table holds a record and a row for every k <= 40 and
# every even k past it.  Tracemalloc peaks (CPython 3.11, x86-64) at 10^5:
# 35.4 MiB for md, 41.3 for json and 29.2 for csv, in about 1 s.
GHOST_TABLE_MAX_N = 10**5


def _emit_ghost_table(conv: PrimeConvention, /, *, n_max: int = 60) -> Report:
    from .figurate import _parabolic_record
    from .primes import primes_in_range

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
