"""What a cold start runs.

Importing the package runs no landau module; the command line runs only
what parsing and rendering need; the calls a verify run makes after its
imports load nothing new.  Each case runs in a fresh interpreter that
writes no bytecode cache, as the first start after an install does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import landau
from test_cli import _child_env

ROOT = Path(__file__).resolve().parents[1]

# the landau modules that have run: a lazy module not yet run keeps the
# class importlib.util.LazyLoader gave it until its first attribute read
RAN = """
import sys, types
class json:  # prints as json does, but imports json only then
    @staticmethod
    def dumps(value):
        import json
        return json.dumps(value)
def ran():
    return sorted(n for n, m in sys.modules.items()
                  if n.partition(".")[0] == "landau" and type(m) is types.ModuleType)
"""

PUBLIC_NAMES = [
    "Config", "ConfigError", "CoupleKind", "DEFAULT_CONVENTION", "DescentTrace", "Factorization",
    "GoldbachCounterexample", "GoldbachCouple", "GoldbachIdealReport", "LegendreCounterexample",
    "MultiplicationTable", "ParabolicRecord", "PolignacPair", "PrimeConvention", "PrincipalIdeal",
    "Report", "ReportError", "RunSummary", "Task", "TwinStats", "UnitsProfile", "bezout",
    "build_report", "canonical_couple", "carmichael", "crt_decompose", "emit_report",
    "enumerate_couples", "factorize", "faulhaber", "goldbach_ideal_analysis", "is_prime",
    "jacobson_radical_zn", "legendre_primes", "load_config", "multiplication_table", "next_prime",
    "parabolic_primes", "polignac_dyadic_search", "polignac_pairs", "prev_prime",
    "primes_in_range", "quasi_couples", "radical", "report_kinds", "square_triangular",
    "three_triangular", "totient", "triangle_index", "triangle_number", "twin_stats",
    "unit_inverse", "units_profile", "verify_range", "zeta_partial",
]


def _cold(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=ROOT, timeout=120,
        env={**_child_env(), "PYTHONDONTWRITEBYTECODE": "1"},
    )


def _probe(code: str):
    """The JSON the code prints on its last line, run cold after RAN."""
    proc = _cold(["-c", RAN + code])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_runs_no_landau_module():
    assert _probe("import landau; print(json.dumps(ran()))") == ["landau"]


def test_the_command_line_runs_only_parsing_config_primes_and_reports():
    ran, forked, exact, serialized = _probe(
        "import landau.cli\n"
        "print(json.dumps([ran(), 'multiprocessing' in sys.modules, 'fractions' in sys.modules,\n"
        "                  [m for m in ('json', 'csv') if m in sys.modules]]))"
    )
    assert ran == ["landau", "landau.cli", "landau.config", "landau.primes", "landau.reports"]
    assert (forked, exact) == (False, False)
    assert serialized == []


# one md leaf of each group, and the library modules its report calls
GROUP_LEAVES = [
    (["goldbach", "canonical", "220"], "reports_goldbach", ["goldbach", "zn"]),
    (["zn", "profile", "22"], "reports_zn", ["zn"]),
    (["ideals", "radical", "45"], "reports_ideals", ["ideals", "zn"]),
    (["polignac", "pairs", "20", "--max-q", "337"], "reports_gaps", ["gaps"]),
    (["legendre", "primes", "5"], "reports_gaps", ["gaps"]),
    (["parabolic", "list"], "reports_figurate", ["figurate", "zn"]),
    (["triangle", "value", "5"], "reports_figurate", ["figurate", "zn"]),
]


@pytest.mark.parametrize("argv, report_module, calls", GROUP_LEAVES,
                         ids=[" ".join(argv) for argv, _, _ in GROUP_LEAVES])
def test_a_leaf_runs_only_its_own_report_module_and_what_it_calls(argv, report_module, calls):
    ran, serialized = _probe(f"""
from landau.cli import main
try:
    main(args={argv!r}, prog_name="landau")
except SystemExit as exc:
    assert exc.code == 0, exc.code
print()  # after the report
print(json.dumps([ran(), [m for m in ("json", "csv") if m in sys.modules]]))
""")
    start = ["landau", "landau.cli", "landau.config", "landau.primes", "landau.reports"]
    assert ran == sorted(start + [f"landau.{m}" for m in [report_module, *calls]])
    assert serialized == []  # md is the default format


# each kind's keyword parameters as (annotation, default), None for a
# required one, as the emitters declared them when they all sat in reports.py;
# the descent and ring tables have since taken their rows from the paper alone
PARAMETERS = {
    "bezout": {"a": ["int", None], "b": ["int", None]},
    "couple": {"two_n": ["int", None], "trace": ["bool", "False"]},
    "couples": {"two_n": ["int", None]},
    "crt": {"a": ["int", None], "n": ["int", None]},
    "descent-table": {},
    "faulhaber": {"m": ["int", None], "n": ["int", None]},
    "ghost-table": {"n_max": ["int", "60"]},
    "ideal-table": {"two_n": ["int", None], "include_top": ["bool", "False"],
                    "descent_only": ["bool", "False"]},
    "jacobson": {"n": ["int", None]},
    "legendre-table": {"ns": ["tuple[int, ...]", repr(tuple(range(1, 11)))]},
    "polignac-pairs": {"two_n": ["int", None], "q_max": ["int", None]},
    "polignac-table": {"gaps": ["tuple[int, ...]", "(2, 4, 6, 8, 10, 20)"], "m_max": ["int", "4"]},
    "quasi-couples": {"two_n": ["int", None]},
    "radical": {"m": ["int", None]},
    "ring-table": {},
    "square-triangular": {"k_max": ["int", None]},
    "strong-generators": {"n": ["int", None]},
    "three-triangular": {"n": ["int", None]},
    "triangle": {"n": ["int", None]},
    "units-grid": {"n": ["int", None]},
    "units-profile": {"n": ["int", None]},
    "verify-summary": {"summary": ["RunSummary", None]},
    "zeta-table": {"k_max": ["int", "10"]},
}


def test_every_kind_resolves_through_the_registry_with_its_parameters():
    loaded_before, params = _probe("""
from landau.reports import report_kinds, report_parameters
loaded_before = sorted(n for n in ran() if n.startswith("landau.reports_"))
params = {
    kind: {name: [p.annotation, None if p.default is p.empty else repr(p.default)]
           for name, p in report_parameters(kind).items()}
    for kind in report_kinds()
}
print(json.dumps([loaded_before, params]))
""")
    assert loaded_before == []
    assert params == PARAMETERS
    # in the order of the signature too
    assert [list(p) for p in params.values()] == [list(p) for p in PARAMETERS.values()]


def test_verify_calls_after_their_imports_load_no_further_module(tmp_path):
    # the imports a benchmarked verify process makes before its clock starts,
    # then the calls it times: the two even tasks through the command line
    # (one worker, a checkpoint) and the other two through the library
    checkpoint = tmp_path / "run.jsonl"
    new, ran_before, ran_after = _probe(f"""
from landau import harness
from landau.cli import main
from landau.primes import PrimeConvention
before, ran_before = set(sys.modules), ran()
for task in ("goldbach", "polignac"):
    argv = ["--format", "json", "--convention", "include1", task, "verify", "--from", "4",
            "--to", "100000", "--checkpoint", {str(checkpoint)!r}, "--jobs", "1"]
    try:
        main(args=argv, prog_name="landau")
    except SystemExit as exc:
        assert exc.code == 0, exc.code
for task, hi in ((harness.Task.LEGENDRE, 3000), (harness.Task.PARABOLIC, 3000)):
    summary = harness.verify_range(task, 1, hi, PrimeConvention.INCLUDE1, checkpoint_path=None,
                                   worker_count=1)
    assert summary.complete
assert len(harness.load_checkpoints({str(checkpoint)!r})) == 2
print()  # after the verify reports
print(json.dumps([sorted(set(sys.modules) - before), ran_before, ran()]))
""")
    assert new == []
    assert ran_before == ran_after
    assert "landau.goldbach" not in ran_after and "landau.harness" in ran_after


def test_public_names_are_unchanged_and_each_is_its_modules_object():
    assert landau.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(landau, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(PUBLIC_NAMES) <= set(dir(landau))
    assert landau.harness is sys.modules["landau.harness"]
    assert not hasattr(landau, "no_such_name")


def test_the_benchmark_suite_passes_on_its_own():
    # in a fresh interpreter the landau modules are still lazy when the
    # tracer looks them up, which the full suite, having run them, never sees
    proc = _cold(["-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"])
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
