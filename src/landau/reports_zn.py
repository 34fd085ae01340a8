"""Reports on the ring Z_n: the multiplication table of its units, its unit
group and strong generators, and the CRT split of a residue."""

from __future__ import annotations

from .primes import PrimeConvention
from .reports import Report, _braced, _zn, _zx


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
