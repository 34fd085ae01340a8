"""Desk-scale number theory around additive prime problems.

Goldbach couples via a descent through the units of Z_2n, prime pairs with a
fixed even gap, primes between consecutive squares, and primes of the form
k^2 + 1 — each with exact small-case tables, range certificates, and the
supporting modular/ideal arithmetic.
"""

from types import ModuleType as _Module

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

# every name imported above, but not the submodules that importing them binds
__all__ = sorted(
    k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, _Module)
)
