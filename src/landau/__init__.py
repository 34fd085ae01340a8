"""Desk-scale number theory around additive prime problems.

Goldbach couples via a descent through the units of Z_2n, prime pairs with a
fixed even gap, primes between consecutive squares, and primes of the form
k^2 + 1 — each with exact small-case tables, range certificates, and the
supporting modular/ideal arithmetic.
"""

from .config import Config, ConfigError, load_config
from .figurate import (
    ParabolicRecord,
    faulhaber,
    parabolic_primes,
    square_triangular,
    three_triangular,
    triangle_index,
    triangle_number,
    zeta_partial,
)
from .gaps import (
    LegendreCounterexample,
    PolignacPair,
    legendre_primes,
    polignac_dyadic_search,
    polignac_pairs,
)
from .goldbach import (
    CoupleKind,
    DescentTrace,
    GoldbachCouple,
    GoldbachCounterexample,
    canonical_couple,
    enumerate_couples,
    quasi_couples,
)
from .harness import RunSummary, Task, verify_range
from .ideals import (
    GoldbachIdealReport,
    PrincipalIdeal,
    bezout,
    goldbach_ideal_analysis,
    jacobson_radical_zn,
    radical,
)
from .primes import (
    DEFAULT_CONVENTION,
    PrimeConvention,
    TwinStats,
    is_prime,
    next_prime,
    prev_prime,
    primes_in_range,
    twin_stats,
)
from .reports import Report, ReportError, build_report, emit_report, report_kinds
from .zn import (
    Factorization,
    MultiplicationTable,
    UnitsProfile,
    carmichael,
    crt_decompose,
    factorize,
    multiplication_table,
    totient,
    unit_inverse,
    units_profile,
)

__version__ = "0.1.0"

__all__ = [
    "Config",
    "ConfigError",
    "CoupleKind",
    "DEFAULT_CONVENTION",
    "DescentTrace",
    "Factorization",
    "GoldbachCouple",
    "GoldbachCounterexample",
    "GoldbachIdealReport",
    "LegendreCounterexample",
    "MultiplicationTable",
    "ParabolicRecord",
    "PolignacPair",
    "PrimeConvention",
    "PrincipalIdeal",
    "Report",
    "ReportError",
    "RunSummary",
    "Task",
    "TwinStats",
    "UnitsProfile",
    "bezout",
    "build_report",
    "canonical_couple",
    "carmichael",
    "crt_decompose",
    "emit_report",
    "enumerate_couples",
    "factorize",
    "faulhaber",
    "goldbach_ideal_analysis",
    "is_prime",
    "jacobson_radical_zn",
    "legendre_primes",
    "load_config",
    "multiplication_table",
    "next_prime",
    "parabolic_primes",
    "polignac_dyadic_search",
    "polignac_pairs",
    "prev_prime",
    "primes_in_range",
    "quasi_couples",
    "radical",
    "report_kinds",
    "square_triangular",
    "three_triangular",
    "totient",
    "triangle_index",
    "triangle_number",
    "twin_stats",
    "unit_inverse",
    "units_profile",
    "verify_range",
    "zeta_partial",
]
