"""Command-line interface: grammar, exit codes, config precedence, formats."""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import landau
import landau.cli as cli_module
from landau.cli import main
from landau.figurate import THREE_TRIANGULAR_MAX_N
from landau.gaps import LEGENDRE_MAX_N, POLIGNAC_MAX_WINDOW
from landau.goldbach import ENUMERATE_MAX_TWO_N, QUASI_MAX_TWO_N
from landau.harness import RunSummary, Task
from landau.primes import PrimeConvention
from landau.reports import report_kinds, report_parameters
from landau.reports_figurate import GHOST_TABLE_MAX_N, ZETA_TABLE_MAX_K
from landau.zn import MULTIPLICATION_TABLE_MAX_PHI, UNITS_PROFILE_MAX_N

SMOKE = [
    ["goldbach", "canonical", "220"],
    ["goldbach", "canonical", "220", "--trace"],
    ["goldbach", "enumerate", "28"],
    ["goldbach", "quasi", "10"],
    ["goldbach", "verify", "--from", "2", "--to", "200"],
    ["zn", "profile", "22"],
    ["zn", "table", "10"],
    ["zn", "strong", "22"],
    ["zn", "crt", "7", "60"],
    ["ideals", "analyze", "28"],
    ["ideals", "analyze", "28", "--include-top"],
    ["ideals", "analyze", "220", "--descent-only"],
    ["ideals", "radical", "45"],
    ["ideals", "jacobson", "60"],
    ["ideals", "bezout", "28", "45"],
    ["polignac", "pairs", "20", "--max-q", "337"],
    ["polignac", "dyadic", "4", "--m", "3"],
    ["polignac", "verify", "--from", "4", "--to", "100"],
    ["legendre", "primes", "4"],
    ["legendre", "verify", "--from", "1", "--to", "50"],
    ["parabolic", "list", "--max-k", "20"],
    ["parabolic", "zeta"],
    ["parabolic", "verify", "--from", "1", "--to", "50"],
    ["triangle", "value", "10"],
    ["triangle", "square-seq", "4"],
    ["triangle", "three", "35"],
    ["triangle", "faulhaber", "2", "10"],
]


def _run_under_memory_limit(
    argv: list[str], timeout: float = 30
) -> tuple[subprocess.CompletedProcess, float]:
    """Run the CLI in a child process under a 1.5 GB address-space limit,
    where a refusal that came after the allocation would die of MemoryError
    (exit 1); returns the process and its wall time."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "landau", *argv],
        capture_output=True, text=True, env=_child_env(), preexec_fn=limit_memory, timeout=timeout,
    )
    return proc, time.perf_counter() - start


def _child_env() -> dict[str, str]:
    """This environment without LANDAU_* settings or COLUMNS, with this
    checkout's landau first on the path."""
    src = str(Path(landau.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("LANDAU_") and k != "COLUMNS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestGrammar:
    @pytest.mark.parametrize("argv", SMOKE, ids=lambda a: " ".join(a))
    def test_subcommand_succeeds(self, runner, argv):
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        assert result.output.startswith("config: convention=")

    def test_top_level_groups(self):
        assert set(cli_module.ROOT.commands) == {
            "goldbach",
            "zn",
            "ideals",
            "polignac",
            "legendre",
            "parabolic",
            "triangle",
        }

    def test_leaf_commands(self):
        expected = {
            "goldbach": {"canonical", "enumerate", "quasi", "verify"},
            "zn": {"profile", "table", "strong", "crt"},
            "ideals": {"analyze", "radical", "jacobson", "bezout"},
            "polignac": {"pairs", "dyadic", "verify"},
            "legendre": {"primes", "verify"},
            "parabolic": {"list", "zeta", "verify"},
            "triangle": {"value", "square-seq", "three", "faulhaber"},
        }
        for group, leaves in expected.items():
            assert set(cli_module.ROOT.commands[group].commands) == leaves

    def test_trace_flag_adds_descent_column(self, runner):
        bare = runner.invoke(main, ["goldbach", "canonical", "220"]).output
        traced = runner.invoke(main, ["goldbach", "canonical", "220", "--trace"]).output
        assert "descent" not in bare and "220-211=9" not in bare
        assert "220-211=9=3×3 ⇒ 220-199=21=3×7 ⇒ 220-197=23" in traced

    def test_enumerate_stars_the_canonical_couple(self, runner):
        out = runner.invoke(main, ["goldbach", "enumerate", "28"]).output
        assert "| 5 | 23 |" in out and "★" in out

    def test_enumerate_builds_the_couple_list_once(self, runner, monkeypatch):
        import landau.reports_goldbach as reports_goldbach

        calls = []
        real = reports_goldbach.enumerate_couples
        monkeypatch.setattr(
            reports_goldbach, "enumerate_couples", lambda *a: calls.append(a) or real(*a)
        )
        result = runner.invoke(main, ["goldbach", "enumerate", "28"])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "row", cli_module.REPORT_LEAVES, ids=lambda row: f"{row[0]} {row[1]}"
    )
    def test_report_row_agrees_with_its_emitter(self, row):
        _, _, kind, _, params = row
        assert kind in report_kinds()
        keywords = report_parameters(kind)
        names = {p.name for p in params}
        assert names <= set(keywords)
        assert {name for name, k in keywords.items() if k.default is k.empty} <= names
        for p in params:
            if not p.required:
                assert p.default == keywords[p.name].default, p.name


class TestExitCodes:
    def test_usage_error_for_odd_goldbach_target(self, runner):
        result = runner.invoke(main, ["goldbach", "canonical", "7"])
        assert result.exit_code == 2
        assert "even" in result.stderr

    def test_usage_error_for_unknown_format(self, runner):
        result = runner.invoke(main, ["--format", "html", "zn", "table", "10"])
        assert result.exit_code == 2

    def test_usage_error_for_missing_required_option(self, runner):
        result = runner.invoke(main, ["polignac", "pairs", "20"])
        assert result.exit_code == 2
        assert "--max-q" in result.stderr

    def test_counterexample_exits_1_with_json_on_stderr(self, runner, monkeypatch):
        fake = RunSummary(
            task=Task.GOLDBACH,
            convention=PrimeConvention.INCLUDE1,
            lo=2,
            hi=100,
            verified=49,
            skipped=0,
            counterexamples=({"instance": 98, "reason": "descent exhausted"},),
            stats={"instances": 50},
            complete=False,
            elapsed=0.01,
        )
        monkeypatch.setattr(landau.harness, "verify_range", lambda *a, **k: fake)
        result = runner.invoke(main, ["goldbach", "verify", "--from", "2", "--to", "100"])
        assert result.exit_code == 1
        payload = json.loads(result.stderr.strip())
        assert payload == {"instance": 98, "reason": "descent exhausted"}
        assert "counterexample" in result.output

    def test_jobs_below_1_is_usage_error_naming_the_option(self, runner):
        result = runner.invoke(
            main, ["legendre", "verify", "--from", "1", "--to", "10", "--jobs", "0"]
        )
        assert result.exit_code == 2
        assert "--jobs" in result.stderr
        assert "worker_count" not in result.stderr

    @pytest.mark.parametrize("argv,error", [
        (["polignac", "dyadic", "4", "--m", "0"], "m_max: needs at least 1, got 0"),
        (["ideals", "radical", "0"], "m: needs a positive integer, got 0"),
        (["ideals", "jacobson", "1"], "needs n >= 2, got 1"),
        (["zn", "table", "1"], "modulus must be >= 2, got 1"),
    ], ids=["polignac dyadic 4 --m 0", "ideals radical 0", "ideals jacobson 1", "zn table 1"])
    def test_parameter_below_its_least_value_is_usage_error_naming_it(self, runner, argv,
                                                                    error):
        result = runner.invoke(main, argv)
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr.splitlines()[-1] == f"Error: {error}"

    def test_interrupted_leaf_exits_1_with_aborted(self, runner, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(landau.harness, "verify_range", interrupt)
        result = runner.invoke(main, ["legendre", "verify", "--from", "1", "--to", "10"])
        assert result.exit_code == 1
        assert result.stderr == "\nAborted!\n" and result.stdout == ""

    def test_64_bit_radical_exits_0(self, runner):
        n = 18446743979220271189  # 4294967279 * 4294967291, squarefree
        result = runner.invoke(main, ["--format", "json", "ideals", "radical", str(n)])
        assert result.exit_code == 0
        report = json.loads(result.output)["report"]
        assert report["radical"] == n
        assert report["radical_factors"] == [[4294967279, 1], [4294967291, 1]]

    def test_radical_past_2_64_is_usage_error(self, runner):
        result = runner.invoke(main, ["ideals", "radical", str(2**64 + 1)])
        assert result.exit_code == 2
        assert "2**64" in result.stderr

    def test_bezout_on_long_fibonacci_pair_exits_0(self, runner):
        # F(3001) and F(3000), 627 digits each: about 3,000 Euclid steps
        f_prev, f = 0, 1
        for _ in range(3000):
            f_prev, f = f, f_prev + f
        argv = ["--format", "json", "ideals", "bezout", str(f), str(f_prev)]
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)["report"]
        assert report["gcd"] == 1
        assert f * report["x"] + f_prev * report["y"] == 1

    def test_square_seq_past_the_bound_is_usage_error_naming_k(self, runner):
        for k in (0, 13):
            result = runner.invoke(main, ["triangle", "square-seq", str(k)])
            assert result.exit_code == 2
            assert f"needs 1 <= k <= 12, got k = {k}" in result.stderr
            assert result.stdout == ""  # no row was printed, not even an empty table

    def test_three_triangular_past_the_bound_is_usage_error_naming_n(self, runner):
        n = THREE_TRIANGULAR_MAX_N + 1
        result = runner.invoke(main, ["triangle", "three", str(n)])
        assert result.exit_code == 2
        assert f"needs 1 <= n <= {THREE_TRIANGULAR_MAX_N}, got n = {n}" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "leaf, name, bound",
        [("enumerate", "enumerate_couples", ENUMERATE_MAX_TWO_N),
         ("quasi", "quasi_couples", QUASI_MAX_TWO_N)],
    )
    @pytest.mark.parametrize("at", ["bound", "bound + 1", "10^11"])
    def test_couple_lists_past_their_bound_are_usage_errors_naming_2n(
        self, runner, leaf, name, bound, at
    ):
        two_n = {"bound": bound, "bound + 1": bound + 1, "10^11": 10**11}[at]
        result = runner.invoke(main, ["--format", "csv", "goldbach", leaf, str(two_n)])
        if two_n == bound:
            assert result.exit_code == 0, result.output
            assert result.stdout.count("\n") > 1000
        else:
            assert result.exit_code == 2
            assert f"{name} needs two_n <= {bound}, got two_n = {two_n}" in result.stderr
            assert result.stdout == ""

    @pytest.mark.parametrize("two_n", [2**64, 2**64 + 2, 10**20])
    def test_canonical_couple_past_2_to_the_64_is_usage_error_naming_2n(self, runner, two_n):
        result = runner.invoke(main, ["goldbach", "canonical", str(two_n)])
        if two_n == 2**64:
            assert result.exit_code == 0, result.output
            assert f"| {two_n} | 59 | 18446744073709551557 | ordinary | 1 |" in result.stdout
        else:
            assert result.exit_code == 2
            assert result.stderr.endswith(
                f"Error: canonical_couple needs two_n <= {2**64}, got two_n = {two_n}\n")
            assert result.stdout == ""

    @pytest.mark.parametrize(
        "argv, name",
        [(["polignac", "pairs", "2", "--max-q", str(10**12)], "q_max = 1000000000000"),
         (["polignac", "dyadic", "2", "--m", "60"], "m_max = 60")],
    )
    def test_oversize_polignac_window_is_refused_under_a_memory_limit(self, argv, name):
        proc, elapsed = _run_under_memory_limit(argv)
        assert proc.returncode == 2, proc.stderr
        assert f"q_max + 2n <= {POLIGNAC_MAX_WINDOW}" in proc.stderr and name in proc.stderr
        assert proc.stdout == ""
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "leaf, name, bound",
        [("list", "n_max", GHOST_TABLE_MAX_N), ("zeta", "k_max", ZETA_TABLE_MAX_K)],
    )
    @pytest.mark.parametrize("at", ["bound", "bound + 1", "10^12"])
    def test_parabolic_tables_past_their_bound_are_refused_under_a_memory_limit(
        self, leaf, name, bound, at
    ):
        value = {"bound": bound, "bound + 1": bound + 1, "10^12": 10**12}[at]
        argv = ["--format", "csv", "parabolic", leaf, "--max-k", str(value)]
        proc, elapsed = _run_under_memory_limit(argv)
        if value == bound:
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.count("\n") > 1000
        else:
            assert proc.returncode == 2, proc.stderr
            assert f"{name}: needs" in proc.stderr and f"{bound}, got {value}" in proc.stderr
            assert proc.stdout == ""
            assert elapsed < 1.0

    @pytest.mark.parametrize("n, code", [(2640, 0), (643, 2), (10**4, 2), (10**12, 2)])
    def test_units_table_past_its_bound_is_refused_under_a_memory_limit(self, n, code):
        # phi(2640) = 640 is the bound, phi(643) = 642 the first past it
        proc, elapsed = _run_under_memory_limit(["--format", "csv", "zn", "table", str(n)])
        assert proc.returncode == code, proc.stderr
        if code:
            assert f"needs phi(n) <= {MULTIPLICATION_TABLE_MAX_PHI}" in proc.stderr
            assert f"for n = {n}" in proc.stderr
            assert proc.stdout == ""
            assert elapsed < 1.0
        else:
            assert proc.stdout.count("\n") > 640

    @pytest.mark.parametrize("leaf", ["profile", "strong"])
    @pytest.mark.parametrize("n, code", [(499_979, 0), (500_001, 2), (10**8, 2), (10**12, 2)])
    def test_units_profile_past_its_bound_is_refused_under_a_memory_limit(self, leaf, n, code):
        # 499,979 is the largest prime within the bound, where every value below n is a unit
        proc, elapsed = _run_under_memory_limit(["--format", "csv", "zn", leaf, str(n)])
        assert proc.returncode == code, proc.stderr
        if code:
            assert f"needs n <= {UNITS_PROFILE_MAX_N}" in proc.stderr
            assert f"got n = {n}" in proc.stderr
            assert proc.stdout == ""
            assert elapsed < 1.0
        else:
            assert proc.stderr == "" and str(n) in proc.stdout

    @pytest.mark.parametrize("n, code", [(LEGENDRE_MAX_N, 0), (LEGENDRE_MAX_N + 1, 2),
                                         (10**8, 2), (10**9, 2)])
    def test_square_interval_past_its_bound_is_refused_under_a_memory_limit(self, n, code):
        # n + 1 = 2^22, the cap on the base primes, is the last root sieved whole
        proc, elapsed = _run_under_memory_limit(["--format", "csv", "legendre", "primes", str(n)])
        assert proc.returncode == code, proc.stderr
        if code:
            assert f"legendre_primes needs n <= {LEGENDRE_MAX_N}, got n = {n}" in proc.stderr
            assert proc.stdout == ""
            assert elapsed < 1.0
        else:
            assert proc.stderr == "" and f"{n},{n * n}," in proc.stdout

    @pytest.mark.parametrize("two_n, code", [(4, 2), (6, 2), (8, 0)])
    def test_descent_ending_at_the_trivial_couple_is_usage_error(self, runner, two_n, code):
        # under exclude1 the descents of 4 and 6 end at (n, n), and nZ/rZ is
        # no unit ideal: n is prime and divides 2n, so it is no prime of r
        argv = ["--convention", "exclude1", "ideals", "analyze", str(two_n), "--descent-only"]
        result = runner.invoke(main, argv)
        assert result.exit_code == code
        if code:
            assert f"remainder {two_n // 2} is not a unit ideal modulo {two_n}" in result.stderr
            assert result.stdout == ""

    @pytest.mark.parametrize("two_n, code", [(2, 0), (9884, 0), (9886, 2), (10000, 2)])
    def test_ideal_table_past_the_digit_limit_is_usage_error_naming_2n(
        self, runner, two_n, code
    ):
        # r for 2N = 9886 first has more than the 4,300 digits Python prints
        result = runner.invoke(main, ["ideals", "analyze", str(two_n)])
        assert result.exit_code == code
        if code:
            assert f"2N={two_n}" in result.stderr
            assert result.stdout == ""

    @pytest.mark.parametrize("two_n", [10**6, 10**12])
    def test_ideal_table_far_past_the_digit_limit_is_refused_at_once(self, runner, two_n):
        start = time.perf_counter()
        result = runner.invoke(main, ["ideals", "analyze", str(two_n)])
        assert time.perf_counter() - start < 0.5
        assert result.exit_code == 2
        assert f"2N={two_n}" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "group, to",
        [("goldbach", 2**64 + 100),  # hi itself
         ("polignac", 2**64 - 1000),  # hi plus the witness search's reach
         ("legendre", 2**32 - 1),  # (hi + 1)^2
         ("parabolic", 2**32)],  # hi^2 + 1
    )
    def test_verify_past_64_bits_is_refused_before_any_chunk(self, runner, tmp_path,
                                                             group, to):
        path = tmp_path / "run.jsonl"
        start = time.perf_counter()
        result = runner.invoke(main, [group, "verify", "--from", "4", "--to", str(to),
                                      "--checkpoint", str(path)])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert "beyond the supported 64-bit range (below 2**64)" in result.stderr
        assert list(tmp_path.iterdir()) == []  # neither the checkpoint nor its lock

    def test_verify_below_the_first_instance_is_usage_error(self, runner):
        result = runner.invoke(main, ["--convention", "exclude1", "goldbach", "verify",
                                      "--from", "2", "--to", "10"])
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr.endswith(
            "Error: goldbach instances start at 4 under exclude1, got 2\n")

    def test_pre_polignac_instance_without_a_witness_below_the_top_is_usage_error(
        self, runner, tmp_path, monkeypatch
    ):
        # the least witness of x = 2^64 - 7772 is 1097; with the last value
        # the harness may read moved down to x + 1024, x has no witness whose
        # partner it may read
        x = 2**64 - 7772
        monkeypatch.setattr(landau.harness, "_LAST", x + 1024)
        path = tmp_path / "run.jsonl"
        argv = ["polignac", "verify", "--from", str(x - 1000), "--checkpoint", str(path),
                "--jobs", "1", "--to"]
        assert runner.invoke(main, [*argv, str(x - 2)]).exit_code == 0
        result = runner.invoke(main, [*argv, str(x)])
        assert result.exit_code == 2
        assert result.stderr.endswith(
            f"Error: pre-polignac instance {x} has no witness whose partner is below 2**64: "
            "its search runs beyond the supported 64-bit range (below 2**64)\n")
        assert "Traceback" not in result.output and result.stdout == ""
        records = landau.harness.load_checkpoints(str(path))
        assert [(r.lo, r.hi, r.status) for r in records] == [(x - 1000, x - 2, "verified")]

    def test_parabolic_verify_just_below_2_to_the_32_finishes(self, tmp_path):
        # k^2 + 1 is decided per k, so a chunk pays nothing that grows with k
        argv = ["parabolic", "verify", "--from", "4294963200", "--to", "4294967295",
                "--jobs", "1", "--checkpoint", str(tmp_path / "run.jsonl")]
        proc, _ = _run_under_memory_limit(argv, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert "| verified | 4096 |" in proc.stdout and "| parabolic | 119 |" in proc.stdout

    def test_clean_verify_exits_0(self, runner):
        result = runner.invoke(main, ["goldbach", "verify", "--from", "2", "--to", "100"])
        assert result.exit_code == 0
        assert "| verified | 50 |" in result.output
        assert result.stderr == ""

    @pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
    def test_checkpoint_in_a_missing_directory_is_usage_error(self, tmp_path, relative):
        missing = tmp_path / "missing" / "dir"
        env = _child_env()
        if relative:
            env["LANDAU_CHECKPOINT_DIR"] = str(missing)
        checkpoint = "x.ckpt" if relative else str(missing / "x.ckpt")
        proc = subprocess.run(
            [sys.executable, "-m", "landau", "goldbach", "verify", "--from", "4", "--to", "100",
             "--checkpoint", checkpoint],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 2  # not 1, the code of a counterexample
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == (
            f"Error: checkpoint {missing / 'x.ckpt'}: No such file or directory")
        assert list(tmp_path.iterdir()) == []  # nothing created

    def test_relative_checkpoint_is_judged_in_the_checkpoint_directory(self, tmp_path):
        # a directory of that name in the working directory is no obstacle;
        # one at the resolved path is refused when it is opened
        (tmp_path / "g.ckpt").mkdir()
        (tmp_path / "store").mkdir()
        env = {**_child_env(), "LANDAU_CHECKPOINT_DIR": "store"}
        argv = [sys.executable, "-m", "landau", "goldbach", "verify", "--from", "4", "--to",
                "100", "--checkpoint", "g.ckpt"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path,
                              timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "store" / "g.ckpt").is_file()
        (tmp_path / "store" / "g.ckpt").unlink()
        (tmp_path / "store" / "g.ckpt").mkdir()
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path,
                              timeout=30)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == (
            f"Error: checkpoint {os.path.join('store', 'g.ckpt')}: Is a directory")


# one case for each parser branch no other test reaches: (argv, COLUMNS, exit
# code, the lines of stderr, or for a help page the first lines of stdout)
PARSER_BRANCHES = [
    (["goldbach", "canonical", "220", "-x"], "80", 2,
     ["Usage: landau goldbach canonical [OPTIONS] 2N",
      "Try 'landau goldbach canonical --help' for help.", "",
      "Error: No such option '-x'."]),
    (["goldbach", "canonical", "220", "--tarce"], "80", 2,
     ["Usage: landau goldbach canonical [OPTIONS] 2N",
      "Try 'landau goldbach canonical --help' for help.", "",
      "Error: No such option '--tarce'. Did you mean '--trace'?"]),
    (["--conv", "include1", "triangle", "value", "3"], "80", 2,
     ["Usage: landau [OPTIONS] COMMAND [ARGS]...", "Try 'landau --help' for help.", "",
      "Error: No such option '--conv'. (Did you mean one of: '--config', '--convention'?)"]),
    (["goldbach", "canonical", "220", "--trace=1"], "80", 2,
     ["Error: Option '--trace' does not take a value."]),
    (["--format", "json"], "80", 2,
     ["Usage: landau [OPTIONS] COMMAND [ARGS]...", "Try 'landau --help' for help.", "",
      "Error: Missing command."]),
    (["polignac", "pairs", "20", "--max-q"], "80", 2,
     ["Error: Option '--max-q' requires an argument."]),
    (["triangle", "value", "5", "6"], "80", 2,
     ["Usage: landau triangle value [OPTIONS] N",
      "Try 'landau triangle value --help' for help.", "",
      "Error: Got unexpected extra argument (6)"]),
    # a usage prefix too long for the width puts [OPTIONS] on a line of its own
    (["parabolic", "verify", "--help"], "50", 0,
     ["Usage: landau parabolic verify ", "           [OPTIONS]", ""]),
]


class TestParser:
    @pytest.mark.parametrize(
        "argv, columns, code, lines", PARSER_BRANCHES,
        ids=[" ".join(case[0]) for case in PARSER_BRANCHES],
    )
    def test_branch_wording(self, runner, argv, columns, code, lines):
        result = runner.invoke(main, argv, env={"COLUMNS": columns})
        assert result.exit_code == code
        if code:
            assert result.stderr.splitlines() == lines and result.stdout == ""
        else:
            assert result.stdout.splitlines()[:len(lines)] == lines

    @pytest.mark.parametrize("argv", [["ideals", "bezout", "-4", "6"], ["zn", "crt", "-5", "7"]],
                             ids=" ".join)
    def test_negative_numbers_are_arguments(self, runner, argv):
        group, leaf, *numbers = argv
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        assert result.stdout == runner.invoke(main, [group, leaf, "--", *numbers]).stdout

    def test_bare_group_prints_its_help_as_an_error(self, runner):
        result = runner.invoke(main, ["zn"])
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr == runner.invoke(main, ["zn", "--help"]).stdout

    def test_negative_number_reaches_the_library(self, runner):
        result = runner.invoke(main, ["triangle", "value", "-1"])
        assert result.exit_code == 2
        assert result.stderr.endswith("Error: needs n >= 0, got -1\n")


class TestConfigPrecedence:
    def test_builtin_default(self, runner):
        out = runner.invoke(main, ["triangle", "value", "3"]).output
        assert out.startswith("config: convention=include1")

    def test_file_beats_default(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"convention": "exclude1"}')
        result = runner.invoke(main, ["--config", str(cfg), "triangle", "value", "3"])
        assert result.output.startswith("config: convention=exclude1")

    def test_env_beats_file(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"convention": "include1", "workers": 3}')
        result = runner.invoke(
            main,
            ["--config", str(cfg), "triangle", "value", "3"],
            env={"LANDAU_CONVENTION": "exclude1"},
        )
        assert result.output.startswith(
            "config: convention=exclude1 workers=3"
        )

    def test_flag_beats_env(self, runner):
        result = runner.invoke(
            main,
            ["--convention", "include1", "triangle", "value", "3"],
            env={"LANDAU_CONVENTION": "exclude1"},
        )
        assert result.output.startswith("config: convention=include1")

    def test_config_file_via_environment(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"convention": "exclude1"}')
        result = runner.invoke(
            main,
            ["triangle", "value", "3"],
            env={"LANDAU_CONFIG": str(cfg)},
        )
        assert result.output.startswith("config: convention=exclude1")

    def test_malformed_config_is_usage_error_naming_key(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"workers": "tiny"}')
        result = runner.invoke(main, ["--config", str(cfg), "triangle", "value", "3"])
        assert result.exit_code == 2
        assert "workers" in result.stderr

    def test_missing_explicit_config_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["--config", str(tmp_path / "nope.json"), "triangle", "value", "3"]
        )
        assert result.exit_code == 2

    def test_config_directory_is_usage_error(self, runner, tmp_path):
        # --config, unlike --checkpoint, is a path in the working directory
        result = runner.invoke(main, ["--config", str(tmp_path), "triangle", "value", "3"])
        assert result.exit_code == 2
        assert "is a directory" in result.stderr

    def test_jobs_beats_env_in_the_run_and_the_echo(self, runner, monkeypatch):
        counts = []
        real = landau.harness.verify_range
        monkeypatch.setattr(landau.harness, "verify_range", lambda *a, **k: counts.append(
            k["worker_count"]) or real(*a, **k))
        argv = ["goldbach", "verify", "--from", "4", "--to", "100", "--jobs", "1"]
        env = {"LANDAU_WORKERS": "3"}
        md = runner.invoke(main, argv, env=env)
        assert md.exit_code == 0, md.output
        assert md.stdout.startswith("config: convention=include1 workers=1 checkpoint_dir=.\n")
        doc = json.loads(runner.invoke(main, ["--format", "json", *argv], env=env).stdout)
        assert doc["config"]["workers"] == 1
        assert counts == [1, 1]

    @pytest.mark.parametrize(
        "env, error",
        [({"LANDAU_WORKERS": "abc"}, "workers: expected a positive integer, got 'abc'"),
         ({"LANDAU_FORMAT": "html"},
          "Invalid value for '--format': 'html' is not one of 'json', 'csv', 'md'.")],
        ids=["LANDAU_WORKERS", "LANDAU_FORMAT"],
    )
    def test_malformed_setting_spares_help(self, runner, env, error):
        help_page = runner.invoke(main, ["goldbach", "canonical", "--help"], env=env)
        assert help_page.exit_code == 0 and help_page.stdout.startswith("Usage: ")
        result = runner.invoke(main, ["goldbach", "canonical", "220"], env=env)
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr.splitlines() == [
            "Usage: landau [OPTIONS] COMMAND [ARGS]...", "Try 'landau --help' for help.", "",
            f"Error: {error}"]

    def test_convention_reaches_the_library(self, runner):
        out = runner.invoke(
            main, ["--convention", "exclude1", "legendre", "primes", "1"]
        ).output
        assert "| 1 | 1 | 4 | 2, 3 |" in out


class TestFormats:
    def test_format_json_parses_and_carries_config(self, runner):
        result = runner.invoke(main, ["--format", "json", "zn", "table", "10"])
        doc = json.loads(result.output)
        assert doc["kind"] == "units-grid"
        assert doc["config"]["convention"] == "include1"
        assert doc["report"]["inverses"] == [[1, 1], [3, 7], [7, 3], [9, 9]]

    def test_parabolic_list_json_prints_bools(self, runner):
        # from k = 78, the square sieve's floor for a top of 6000, the even
        # k come from its bytes
        out = runner.invoke(main, ["--format", "json", "parabolic", "list", "--max-k", "6000"]).stdout
        assert '"parabolic": true' in out and '"parabolic": false' in out
        rows = json.loads(out)["report"]["rows"]
        assert all(type(row["parabolic"]) is bool for row in rows)
        assert {row["parabolic"] for row in rows if row["n"] >= 78} == {True, False}

    def test_format_takes_its_value_after_an_equals_sign(self, runner):
        result = runner.invoke(main, ["--format=json", "zn", "table", "10"])
        assert result.exit_code == 0
        assert result.stdout == runner.invoke(main, ["--format", "json", "zn", "table", "10"]).stdout
        json.loads(result.stdout)

    def test_format_csv_has_comment_header(self, runner):
        result = runner.invoke(main, ["--format", "csv", "zn", "table", "10"])
        assert result.output.startswith("# config: convention=include1")

    def test_format_from_environment(self, runner):
        result = runner.invoke(
            main, ["zn", "table", "10"], env={"LANDAU_FORMAT": "json"}
        )
        json.loads(result.output)

    def test_md_output_is_default(self, runner):
        out = runner.invoke(main, ["zn", "table", "10"]).output
        assert "### Multiplication table" in out


class TestCheckpointWiring:
    def test_relative_checkpoint_lands_in_configured_dir(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checkpoint_dir": str(tmp_path)}))
        result = runner.invoke(
            main,
            [
                "--config",
                str(cfg),
                "goldbach",
                "verify",
                "--from",
                "2",
                "--to",
                "200",
                "--checkpoint",
                "run.jsonl",
            ],
        )
        assert result.exit_code == 0
        assert (tmp_path / "run.jsonl").exists()

    def test_absolute_checkpoint_used_verbatim_and_resumes(self, runner, tmp_path):
        path = tmp_path / "abs.jsonl"
        first = runner.invoke(
            main,
            ["goldbach", "verify", "--from", "2", "--to", "200",
             "--checkpoint", str(path), "--jobs", "2"],
        )
        assert first.exit_code == 0 and path.exists()
        second = runner.invoke(
            main,
            ["goldbach", "verify", "--from", "2", "--to", "200",
             "--checkpoint", str(path)],
        )
        assert "| verified | 0 |" in second.output
        assert "| skipped | 100 |" in second.output


GOLDEN_HELP = Path(__file__).parent / "golden" / "cli_help.txt"

USAGE_ERRORS = [
    ["goldbach", "canonical"],
    ["goldbach", "canonical", "7"],
    ["polignac", "pairs", "20"],
    ["parabolic", "list", "--max-k", "ten"],
    ["goldbach", "verify", "--from", "4"],
    ["frobnicate"],
]


def _help_transcript(runner) -> str:
    """`--help` of the root, every group and every leaf, then a few usage
    errors, each with its exit code and both streams, laid out for an
    80-column terminal, as off a terminal."""
    argvs = [["--help"]]
    for group in sorted(cli_module.ROOT.commands):
        argvs.append([group, "--help"])
        for leaf in sorted(cli_module.ROOT.commands[group].commands):
            argvs.append([group, leaf, "--help"])
    argvs += USAGE_ERRORS
    parts = []
    for argv in argvs:
        result = runner.invoke(main, argv, prog_name="landau", env={"COLUMNS": "80"})
        parts.append(
            f"$ landau {' '.join(argv)}\n"
            f"exit: {result.exit_code}\n"
            f"--- stdout\n{result.stdout}"
            f"--- stderr\n{result.stderr}"
        )
    return "".join(parts)


def test_cold_start_imports_no_click_and_prints_the_root_help():
    probe = "import sys, landau.cli; print('click' in sys.modules)"
    imported = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=_child_env(), timeout=30)
    assert imported.stdout == "False\n", imported.stderr
    # stdout is a pipe, not a terminal, so help wraps at the default 78 columns
    proc = subprocess.run([sys.executable, "-m", "landau", "--help"], capture_output=True,
                          text=True, env=_child_env(), timeout=30)
    assert proc.returncode == 0 and proc.stderr == ""
    root_page = GOLDEN_HELP.read_text().split("--- stdout\n", 1)[1].split("--- stderr\n", 1)[0]
    assert proc.stdout == root_page


# the golden transcript is laid out at 80 columns; at the narrowest, most
# short helps are cut to the words that fit, with "..." appended
NARROW_COMMANDS = {
    ("--help",): [
        "  goldbach   Goldbach couples of an even number.",
        "  ideals     Principal ideals, radicals, and...",
        "  legendre   Primes between consecutive squares.",
        "  parabolic  Primes of the form k^2 + 1.",
        "  polignac   Prime pairs with a fixed even...",
        "  triangle   Triangular numbers and their...",
        "  zn         The ring of integers modulo N...",
    ],
    ("goldbach", "--help"): [
        "  canonical  Canonical couple produced by the...",
        "  enumerate  Every couple, classified, with...",
        "  quasi      Quasi-couples: unit pairs...",
        "  verify     Certify a couple exists for...",
    ],
}


@pytest.mark.parametrize("argv", list(NARROW_COMMANDS), ids=" ".join)
def test_commands_section_at_50_columns(runner, argv):
    result = runner.invoke(main, list(argv), prog_name="landau", env={"COLUMNS": "50"})
    assert result.exit_code == 0
    section = result.stdout.split("Commands:\n", 1)[1].splitlines()
    assert section == NARROW_COMMANDS[argv]


def test_help_is_unchanged(runner):
    # regenerate with GOLDEN_HELP.write_text(_help_transcript(runner)) only
    # when the command surface is meant to change
    assert _help_transcript(runner) == GOLDEN_HELP.read_text()
