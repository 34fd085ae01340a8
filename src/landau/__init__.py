"""Desk-scale number theory around additive prime problems.

Goldbach couples via a descent through the units of Z_2n, prime pairs with a
fixed even gap, primes between consecutive squares, and primes of the form
k^2 + 1 — each with exact small-case tables, range certificates, and the
supporting modular/ideal arithmetic.

Importing the package runs none of its modules.  Each library module (all
but cli and __main__) is entered in sys.modules as a lazy module
(importlib.util.LazyLoader), which runs the first time one of its attributes
is read or it is imported: by ``from .zn import factorize``, by ``from landau
import harness``, or by reading a public name such as ``landau.is_prime``,
which the module __getattr__ (PEP 562) fetches from the module that defines
it.  So a ``landau`` command runs only the command line, its config, the
prime layer and the report renderers at start, and each command group loads
its report module and what that calls on first use.
"""

import importlib as _importlib
import importlib.util as _util
import sys as _sys

__version__ = "0.1.0"

# the public names, by the library module that defines them
_EXPORTS = {
    "config": ("Config", "ConfigError", "load_config"),
    "figurate": (
        "ParabolicRecord", "faulhaber", "parabolic_primes", "square_triangular",
        "three_triangular", "triangle_index", "triangle_number", "zeta_partial",
    ),
    "gaps": (
        "LegendreCounterexample", "PolignacPair", "legendre_primes", "polignac_dyadic_search",
        "polignac_pairs",
    ),
    "goldbach": (
        "CoupleKind", "DescentTrace", "GoldbachCouple", "GoldbachCounterexample",
        "canonical_couple", "enumerate_couples", "quasi_couples",
    ),
    "harness": ("RunSummary", "Task", "verify_range"),
    "ideals": (
        "GoldbachIdealReport", "PrincipalIdeal", "bezout", "goldbach_ideal_analysis",
        "jacobson_radical_zn", "radical",
    ),
    "primes": (
        "DEFAULT_CONVENTION", "PrimeConvention", "TwinStats", "is_prime", "next_prime",
        "prev_prime", "primes_in_range", "twin_stats",
    ),
    "reports": ("Report", "ReportError", "build_report", "emit_report", "report_kinds"),
    "zn": (
        "Factorization", "MultiplicationTable", "UnitsProfile", "carmichael", "crt_decompose",
        "factorize", "multiplication_table", "totient", "unit_inverse", "units_profile",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)

for _module in _EXPORTS:
    _spec = _util.find_spec(f"{__name__}.{_module}")
    _spec.loader = _util.LazyLoader(_spec.loader)
    _sys.modules[_spec.name] = _util.module_from_spec(_spec)
    _spec.loader.exec_module(_sys.modules[_spec.name])
del _module, _spec


def __getattr__(name: str):
    if name in _EXPORTS:
        # the import reads the module's __spec__, which runs a lazy module
        return _importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(_importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_OWNER, *_EXPORTS])
