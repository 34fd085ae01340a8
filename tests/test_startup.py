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

import landau
from test_cli import _child_env

ROOT = Path(__file__).resolve().parents[1]

# the landau modules that have run: a lazy module not yet run keeps the
# class importlib.util.LazyLoader gave it until its first attribute read
RAN = """
import json, sys, types
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
    ran, forked, exact = _probe(
        "import landau.cli\n"
        "print(json.dumps([ran(), 'multiprocessing' in sys.modules, 'fractions' in sys.modules]))"
    )
    assert ran == ["landau", "landau.cli", "landau.config", "landau.primes", "landau.reports"]
    assert (forked, exact) == (False, False)


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
