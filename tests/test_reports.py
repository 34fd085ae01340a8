"""Report emitters: golden bytes, cross-checks against the frozen table
constants of the sibling suites, renderer determinism, and error paths."""

import json
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landau import primes, reports_gaps
from landau.config import Config
from landau.figurate import zeta_partial
from landau.gaps import LEGENDRE_MAX_N, legendre_primes
from landau.harness import Task, verify_range
from landau.primes import PrimeConvention
from landau.reports import (
    _RENDERERS,
    Report,
    _ints,
    ReportError,
    build_report,
    emit_report,
    report_kinds,
    report_parameters,
)
from landau.reports_figurate import ZETA_TABLE_MAX_K
from landau.reports_gaps import POLIGNAC_GAPS
from landau.reports_goldbach import DESCENT_TARGETS, RING_MODULI
from landau.zn import factorize

from oracles import render_md_per_cell
from test_figurate import PARABOLIC_K, PARABOLIC_P
from test_gaps import LEGENDRE_ROWS, PUBLISHED_PAIRS
from test_goldbach import DESCENT_CHAINS, DESCENT_CHAINS_SMALL, RING_ROWS
from test_zn import INVERSES_10, INVERSES_22, TABLE_10, TABLE_22

INC = PrimeConvention.INCLUDE1
EXC = PrimeConvention.EXCLUDE1

GOLDEN = Path(__file__).parent / "golden"
CFG = Config(workers=1)

# cells drawn often from what csv's quoting turns on: the delimiter, the
# quote, CR and LF, with a space, ASCII and a character past it
_CELLS = st.text(st.sampled_from(',"\r\n a€') | st.characters(blacklist_categories=("Cs",)), max_size=6)

# one valid parameter set per report kind but verify-summary, whose summary
# comes from a verify run
VALID_PARAMS = {
    "descent-table": {},
    "units-grid": {"n": 10},
    "ring-table": {},
    "ideal-table": {"two_n": 28},
    "polignac-table": {"gaps": (2,), "m_max": 2},
    "polignac-pairs": {"two_n": 20, "q_max": 37},
    "legendre-table": {"ns": (1, 2)},
    "ghost-table": {"n_max": 16},
    "zeta-table": {"k_max": 10},
    "couple": {"two_n": 220},
    "couples": {"two_n": 28},
    "quasi-couples": {"two_n": 10},
    "units-profile": {"n": 22},
    "strong-generators": {"n": 22},
    "crt": {"a": 7, "n": 60},
    "radical": {"m": 45},
    "jacobson": {"n": 60},
    "bezout": {"a": 28, "b": 45},
    "triangle": {"n": 10},
    "square-triangular": {"k_max": 4},
    "three-triangular": {"n": 35},
    "faulhaber": {"m": 2, "n": 10},
}

# (kind, parameter, bad value, start of the error after the name) for every
# int, bool and integer-sequence parameter of every kind
_BAD = {
    "int": [("7", "expected an integer"), (True, "expected an integer")],
    "bool": [(1, "expected a boolean")],
    "ints": [(7, "expected a sequence of integers"), ((2, "4"), "expected integers")],
}
_TYPED = {
    "units-grid": {"n": "int"},
    "ideal-table": {"two_n": "int", "include_top": "bool", "descent_only": "bool"},
    "polignac-table": {"gaps": "ints", "m_max": "int"},
    "polignac-pairs": {"two_n": "int", "q_max": "int"},
    "legendre-table": {"ns": "ints"},
    "ghost-table": {"n_max": "int"},
    "zeta-table": {"k_max": "int"},
    "couple": {"two_n": "int", "trace": "bool"},
    "couples": {"two_n": "int"},
    "quasi-couples": {"two_n": "int"},
    "units-profile": {"n": "int"},
    "strong-generators": {"n": "int"},
    "crt": {"a": "int", "n": "int"},
    "radical": {"m": "int"},
    "jacobson": {"n": "int"},
    "bezout": {"a": "int", "b": "int"},
    "triangle": {"n": "int"},
    "square-triangular": {"k_max": "int"},
    "three-triangular": {"n": "int"},
    "faulhaber": {"m": "int", "n": "int"},
}
BAD_VALUES = [
    (kind, name, value, message)
    for kind, names in _TYPED.items()
    for name, type_ in names.items()
    for value, message in _BAD[type_]
]
REQUIRED = [
    ("units-grid", "n"), ("ideal-table", "two_n"), ("polignac-pairs", "two_n"),
    ("polignac-pairs", "q_max"), ("couple", "two_n"), ("couples", "two_n"),
    ("quasi-couples", "two_n"), ("units-profile", "n"), ("strong-generators", "n"),
    ("crt", "a"), ("crt", "n"), ("radical", "m"), ("jacobson", "n"), ("bezout", "a"),
    ("bezout", "b"), ("triangle", "n"), ("square-triangular", "k_max"),
    ("three-triangular", "n"), ("faulhaber", "m"), ("faulhaber", "n"),
    ("verify-summary", "summary"),
]

GOLDEN_CASES = {
    "descent_table.md": ("descent-table", {}, "md"),
    "units_grid_10.md": ("units-grid", {"n": 10}, "md"),
    "units_grid_22.md": ("units-grid", {"n": 22}, "md"),
    "units_grid_10.csv": ("units-grid", {"n": 10}, "csv"),
    "ring_table.md": ("ring-table", {}, "md"),
    "ideal_table_28_top.md": ("ideal-table", {"two_n": 28, "include_top": True}, "md"),
    "ideal_table_28_top.json": (
        "ideal-table",
        {"two_n": 28, "include_top": True},
        "json",
    ),
    "ideal_table_220_descent.md": (
        "ideal-table",
        {"two_n": 220, "descent_only": True},
        "md",
    ),
    "polignac_table.md": ("polignac-table", {}, "md"),
    "legendre_table.md": ("legendre-table", {}, "md"),
    "ghost_table.md": ("ghost-table", {}, "md"),
    "zeta_table.md": ("zeta-table", {}, "md"),
}


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_bytes_match(self, name):
        kind, params, fmt = GOLDEN_CASES[name]
        assert emit_report(kind, dict(params), fmt, CFG) == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_no_floating_point_cells(self, name):
        text = (GOLDEN / name).read_text(encoding="utf-8")
        assert not re.search(r"\d+\.\d+", text)

    def test_emission_is_byte_stable(self):
        for name, (kind, params, fmt) in GOLDEN_CASES.items():
            first = emit_report(kind, dict(params), fmt, CFG)
            second = emit_report(kind, dict(params), fmt, CFG)
            assert first == second, name


class TestDescentTable:
    def test_rows_match_frozen_chains(self):
        report = build_report("descent-table", {}, CFG)
        chains = {**DESCENT_CHAINS_SMALL, **DESCENT_CHAINS}
        assert tuple(r["two_n"] for r in report.payload["rows"]) == DESCENT_TARGETS
        for row in report.payload["rows"]:
            expected = chains[row["two_n"]]
            got = [
                (
                    s["candidate"],
                    s["remainder"],
                    None if s["factors"] in (None, []) else s["factors"],
                )
                for s in row["steps"]
            ]
            frozen = [
                (
                    cand,
                    rem,
                    None
                    if fact is None
                    else [
                        [int(b.split("^")[0]), int(b.split("^")[1]) if "^" in b else 1]
                        for b in fact.split("*")
                    ],
                )
                for cand, rem, fact in expected
            ]
            assert got == frozen, row["two_n"]

    def test_md_chains_carry_the_remainders_factors(self):
        # each failed remainder is printed factored, ×-joined with multiplicity
        report = build_report("descent-table", {}, CFG)
        chains = {**DESCENT_CHAINS_SMALL, **DESCENT_CHAINS}
        assert tuple(int(row[1]) for row in report.rows) == DESCENT_TARGETS
        for row in report.rows:
            two_n = int(row[1])
            cells = []
            for cand, rem, fact in chains[two_n]:
                cell = f"{two_n}-{cand}={rem}"
                if fact is not None:
                    powers = [b.partition("^") for b in fact.split("*")]
                    cell += "=" + "×".join("×".join([p] * int(e or 1)) for p, _, e in powers)
                cells.append(cell)
            assert row[3].removesuffix(" †").removesuffix(" ‡") == " ⇒ ".join(cells), two_n

    def test_markers_and_notes_for_known_transcription_slips(self):
        text = emit_report("descent-table", {}, "md", CFG).decode()
        assert "670-659=11 †" in text
        assert "718-709=9=3×3 ⇒ 718-701=17 ‡" in text
        assert text.count("† Some transcriptions") == 1
        assert text.count("‡ Some transcriptions") == 1

    def test_exclude1_has_no_markers_and_clean_unit_chain(self):
        cfg = Config(convention=EXC, workers=1)
        text = emit_report("descent-table", {}, "md", cfg).decode()
        assert "†" not in text and "‡" not in text
        assert "| 2 | 4 | 3 | 4-3=1 ⇒ 4-2=2 |" in text

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_exclude1_default_starts_at_4(self, fmt):
        # 2 = 1 + 1 is no couple without the unit, so the table starts at 4
        cfg = Config(convention=EXC, workers=1)
        raw = emit_report("descent-table", {}, fmt, cfg).decode("utf-8")
        if fmt == "json":
            rows = json.loads(raw)["report"]["rows"]
            assert [r["two_n"] for r in rows] == [m for m in DESCENT_TARGETS if m != 2]
        elif fmt == "md":
            assert "\n| 2 | 4 | 3 | " in raw and "| 1 | 2 |" not in raw
        else:
            assert raw.splitlines()[2].startswith("2,4,3,") and "\n1,2," not in raw

    def test_published_row_strings(self):
        text = (GOLDEN / "descent_table.md").read_text(encoding="utf-8")
        assert (
            "| 110 | 220 | 211 | 220-211=9=3×3 ⇒ 220-199=21=3×7 ⇒ 220-197=23 |" in text
        )
        assert "| 1 | 2 | 1 | 2-1=1 |" in text
        assert "| 499 | 998 | 997 | 998-997=1 |" in text
        assert (
            "962-953=9=3×3 ⇒ 962-947=15=3×5 ⇒ 962-941=21=3×7 ⇒ 962-937=25=5×5 "
            "⇒ 962-929=33=3×11 ⇒ 962-919=43" in text
        )


class TestUnitsGrid:
    def test_grid_10_matches_frozen_table(self):
        report = build_report("units-grid", {"n": 10}, CFG)
        assert tuple(tuple(r) for r in report.payload["grid"]) == TABLE_10
        assert dict(map(tuple, report.payload["inverses"])) == INVERSES_10

    def test_grid_22_matches_frozen_table(self):
        report = build_report("units-grid", {"n": 22}, CFG)
        assert tuple(tuple(r) for r in report.payload["grid"]) == TABLE_22
        assert dict(map(tuple, report.payload["inverses"])) == INVERSES_22
        assert 11 not in report.payload["units"]

    def test_inverse_caption_lines(self):
        md10 = (GOLDEN / "units_grid_10.md").read_text(encoding="utf-8")
        assert "1⁻¹=1; 3⁻¹=7; 7⁻¹=3; 9⁻¹=9." in md10
        md22 = (GOLDEN / "units_grid_22.md").read_text(encoding="utf-8")
        assert (
            "1⁻¹=1; 3⁻¹=15; 5⁻¹=9; 7⁻¹=19; 9⁻¹=5; 13⁻¹=17; 15⁻¹=3; 17⁻¹=13; "
            "19⁻¹=7; 21⁻¹=21." in md22
        )

    def test_csv_uses_crlf_and_comment_header(self):
        raw = (GOLDEN / "units_grid_10.csv").read_bytes()
        assert raw.startswith(b"# config: ")
        assert b"\r\n" in raw
        assert b",1,3,7,9\r\n" in raw

    @given(headers=st.lists(_CELLS, max_size=4).map(tuple),
           rows=st.lists(st.lists(_CELLS, max_size=4).map(tuple), max_size=6))
    @example(headers=("",), rows=[(), ("", ""), ("a,b", 'c"d', "e\r", "f\n", "g"), ("",)])
    @settings(max_examples=100, deadline=None)
    def test_csv_rows_are_the_bytes_csv_writer_writes(self, headers, rows):
        # the excel dialect's minimal quoting, differentially against csv
        import csv
        import io

        text = io.StringIO(newline="")
        text.write(f"# config: {CFG.echo()}\r\n")
        csv.writer(text).writerows([headers, *rows])
        report = Report("t", headers, lambda: tuple(rows), (), dict)
        assert _RENDERERS["csv"](report, CFG, "t") == text.getvalue().encode("utf-8")


class TestRingTable:
    def test_rows_match_frozen_ring_rows(self):
        report = build_report("ring-table", {}, CFG)
        assert tuple(r["two_n"] for r in report.payload["rows"]) == RING_MODULI
        for row in report.payload["rows"]:
            frozen = RING_ROWS[row["two_n"]]
            assert [tuple(c["pair"]) for c in row["couples"]] == frozen["couples"]
            stars = [tuple(c["pair"]) for c in row["couples"] if c["canonical"]]
            assert stars == [frozen["star"]]
            assert row["units"] == frozen["units"]
            assert row["totient"] == frozen["phi"]
            assert [tuple(q) for q in row["quasi"]] == frozen["quasi"]

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_exclude1_default_starts_at_z4(self, fmt):
        cfg = Config(convention=EXC, workers=1)
        raw = emit_report("ring-table", {}, fmt, cfg).decode("utf-8")
        if fmt == "json":
            rows = json.loads(raw)["report"]["rows"]
            assert [r["two_n"] for r in rows] == [m for m in RING_MODULI if m != 2]
            assert all(1 not in r["strong"] for r in rows)
            assert all(c["pair"][0] != 1 for r in rows for c in r["couples"])
        elif fmt == "md":
            assert "\n| ℤ₄ | " in raw and "ℤ₂ |" not in raw
        else:
            assert raw.splitlines()[2].startswith("ℤ₄,") and "\nℤ₂," not in raw

    def test_published_row_strings(self):
        text = (GOLDEN / "ring_table.md").read_text(encoding="utf-8")
        assert (
            "| ℤ₂₈ | (5,23)★; (11,17) | {1,3,5,(9),11,13,(15),17,19,23,(25),(27)} "
            "| 12 | (1,27); (3,25); (9,19); (13,15) |" in text
        )
        assert (
            "| ℤ₂₂ | (3,19)★; (5,17) | {1,3,5,7,(9),13,(15),17,19,(21)} | 10 "
            "| (1,21); (7,15); (9,13) |" in text
        )
        assert "Erratum: some transcriptions of the ℤ₂₂ row list 11" in text


class TestIdealTable:
    def test_28_payload_has_both_radical_conventions(self):
        raw = emit_report(
            "ideal-table", {"two_n": 28, "include_top": True}, "json", CFG
        )
        doc = json.loads(raw)
        rep = doc["report"]
        assert rep["r"]["value"] == 717084225
        assert rep["r"]["factors"] == [[3, 3], [5, 2], [11, 1], [13, 1], [17, 1], [19, 1], [23, 1]]
        assert rep["r_alternate"]["value"] == 239028075
        assert rep["maximal_ideal_primes"] == [3, 5, 11, 13, 17, 19, 23]
        assert rep["maximal_subset"] == [5, 11, 17, 23]
        assert rep["couples"] == [[5, 23], [11, 17]]
        assert rep["noether"] is None and rep["trivial"] is None

    def test_28_rows_match_published_relations(self):
        text = (GOLDEN / "ideal_table_28_top.md").read_text(encoding="utf-8")
        for line in (
            "𝔞₁=(28-23)ℤ/rℤ=5ℤ/rℤ=𝔪₂=𝔯(𝔞₁)",
            "𝔞₂=(28-19)ℤ/rℤ=3²ℤ/rℤ⊂𝔪₁=𝔯(𝔞₂)",
            "𝔞₃=(28-17)ℤ/rℤ=11ℤ/rℤ=𝔪₃=𝔯(𝔞₃)",
            "𝔞₄=(28-13)ℤ/rℤ=3·5ℤ/rℤ=𝔪₁∩𝔪₂=𝔯(𝔞₄)",
            "𝔞₅=(28-11)ℤ/rℤ=17ℤ/rℤ=𝔪₅=𝔯(𝔞₅)",
            "𝔞₆=(28-5)ℤ/rℤ=23ℤ/rℤ=𝔪₇=𝔯(𝔞₆)",
            "𝔞₇=(28-3)ℤ/rℤ=5²ℤ/rℤ⊂𝔪₂=𝔯(𝔞₇)",
        ):
            assert line in text
        assert "r = l.c.m.(aᵢ) = 11·13·17·19·23·25·27 = 717084225." in text
        assert "Without the top unit 2n-1=27, r = 9·11·13·17·19·23·25 = 239028075." in text

    def test_220_descent_rows_match_published_relations(self):
        text = (GOLDEN / "ideal_table_220_descent.md").read_text(encoding="utf-8")
        for line in (
            "𝔞₁=(220-211)ℤ/rℤ=3²ℤ/rℤ⊂𝔪₁=𝔯(𝔞₁)",
            "𝔞₂=(220-199)ℤ/rℤ=3·7ℤ/rℤ=𝔪₁∩𝔪₂=𝔯(𝔞₂)",
            "𝔞₃=(220-197)ℤ/rℤ=23ℤ/rℤ=𝔪₆=𝔯(𝔞₃)",
        ):
            assert line in text
        assert "{𝔪ᵢ} = {3ℤ/rℤ, 7ℤ/rℤ, 13ℤ/rℤ, 17ℤ/rℤ, 19ℤ/rℤ, 23ℤ/rℤ, 29ℤ/rℤ, 31ℤ/rℤ, ⋯}" in text

    def test_full_ring_cell_for_unit_remainder(self):
        # with 1 counted prime, the descent for 8 stops at once on 7 + 1
        report = build_report("ideal-table", {"two_n": 8, "descent_only": True}, CFG)
        assert report.rows == (("𝔞₁=(8-7)ℤ/rℤ=ℤᵣ",),)

    @pytest.mark.parametrize(
        "params,calls",
        [
            ({"two_n": 28, "include_top": True}, 8),
            ({"two_n": 220}, 45),
            ({"two_n": 220, "descent_only": True}, 4),
        ],
    )
    def test_one_factorize_per_row_and_one_for_2n(self, monkeypatch, params, calls):
        import landau.reports_ideals as reports_ideals

        seen = []

        def counting_factorize(n):
            seen.append(n)
            return factorize(n)

        # the emitter's own binding: zn's helpers, which call factorize too,
        # keep theirs
        monkeypatch.setattr(reports_ideals, "factorize", counting_factorize)
        report = build_report("ideal-table", params, CFG)
        remainders = [e["remainder"] for e in report.payload["entries"]]
        assert sorted(seen) == sorted(remainders + [params["two_n"]])
        assert len(seen) == calls


class TestPolignacTable:
    def test_every_published_pair_appears_in_its_row(self):
        report = build_report("polignac-table", {}, CFG)
        rows = {r["two_n"]: r for r in report.payload["rows"]}
        assert tuple(rows) == POLIGNAC_GAPS
        for gap, published in PUBLISHED_PAIRS.items():
            table_pairs = {
                tuple(pair)
                for _, pairs in rows[gap]["blocks"]
                for pair in pairs
            }
            for pair in published:
                assert pair in table_pairs, (gap, pair)

    def test_blocks_follow_smaller_member_rule(self):
        report = build_report("polignac-table", {}, CFG)
        for row in report.payload["rows"]:
            gap = row["two_n"]
            for m, pairs in row["blocks"]:
                for q, p in pairs:
                    assert p - q == gap
                    assert q <= gap * 2**m
                    if m > 1:
                        assert q > gap * 2 ** (m - 1)

    def test_317_337_lands_in_block_4(self):
        text = (GOLDEN / "polignac_table.md").read_text(encoding="utf-8")
        row_20 = next(l for l in text.splitlines() if l.startswith("| 10 | 20 |"))
        assert "(317,337)" in row_20.split("|")[6]


class TestLegendreTable:
    def test_rows_match_frozen_rows(self):
        report = build_report("legendre-table", {}, CFG)
        for row in report.payload["rows"]:
            assert row["primes"] == LEGENDRE_ROWS[row["n"]]
            assert row["lo"] == row["n"] ** 2
            assert row["hi"] == (row["n"] + 1) ** 2

    def test_exclude1_drops_the_unit(self):
        cfg = Config(convention=EXC, workers=1)
        report = build_report("legendre-table", {"ns": (1,)}, cfg)
        assert report.payload["rows"][0]["primes"] == [2, 3]

    @pytest.fixture(scope="class")
    def widest_primes(self):
        """The widest interval's primes with the traced peak of sieving them
        and their traced size.  Tracing the sieve's 295k base primes is slow,
        so it is done once, not once a format."""
        legendre_primes(1, CFG.convention)  # loads what it calls
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            built = legendre_primes(LEGENDRE_MAX_N, CFG.convention)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return built, peak, size - before

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_the_widest_interval_renders_within_the_call_budget(self, monkeypatch,
                                                                 widest_primes, fmt):
        # a call peaks either while it sieves, or while it renders with the
        # primes held: the rendering is traced alone, the list already built
        built, sieve_peak, size = widest_primes
        emit_report("legendre-table", {"ns": (1,)}, fmt, CFG)  # loads what it calls
        monkeypatch.setattr(reports_gaps, "legendre_primes", lambda n, conv: built)
        tracemalloc.start()
        try:
            out = emit_report("legendre-table", {"ns": (LEGENDRE_MAX_N,)}, fmt, CFG)
            peak = max(sieve_peak, size + tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(out) > 4 * 10**6
        assert peak < 64 * 2**20, peak / 2**20


class TestGhostTable:
    def test_marks_match_frozen_parabolic_list(self):
        report = build_report("ghost-table", {}, CFG)
        assert report.payload["marks"] == [k for k in PARABOLIC_K if k <= 40]
        by_k = {r["n"]: r for r in report.payload["rows"]}
        for k, p in zip(PARABOLIC_K, PARABOLIC_P):
            assert by_k[k]["parabolic"] and by_k[k]["p"] == p

    def test_between_runs_are_the_exact_prime_gaps(self):
        from landau.primes import primes_in_range

        report = build_report("ghost-table", {}, CFG)
        for run in report.payload["between"]:
            a, b = run["after"], run["before"]
            assert run["primes"] == list(
                primes_in_range(a * a + 2, b * b, EXC)
            )

    def test_adjacent_marks_get_their_own_row(self):
        text = (GOLDEN / "ghost_table.md").read_text(encoding="utf-8")
        lines = text.splitlines()
        first = next(i for i, l in enumerate(lines) if l.startswith("| 1 | p=1+1=2"))
        assert lines[first + 1] == "|  |  |  | 3 |"
        assert lines[first + 2].startswith("| 2 | p=4+1=5")

    def test_run_content_is_deduplicated_and_composite_free(self):
        report = build_report("ghost-table", {}, CFG)
        runs = {r["after"]: r["primes"] for r in report.payload["between"]}
        assert 245 not in runs[14] and 251 in runs[14]
        assert runs[26].count(739) == 1

    def test_rows_past_40_are_even_only(self):
        report = build_report("ghost-table", {}, CFG)
        ks = [r["n"] for r in report.payload["rows"]]
        assert ks == list(range(1, 41)) + list(range(42, 61, 2))


class TestZetaTable:
    def test_partial_sum_is_the_pinned_rational(self):
        report = build_report("zeta-table", {}, CFG)
        assert report.payload["partial_sum"] == "4861/3600"
        assert [t["k"] for t in report.payload["terms"]] == [1, 2, 4, 6, 10]
        assert [t["term"] for t in report.payload["terms"]] == [
            "1",
            "1/4",
            "1/16",
            "1/36",
            "1/100",
        ]

    @given(k_max=st.integers(1, 2000))
    @settings(max_examples=25, deadline=None)
    def test_table_sum_is_zeta_partial(self, k_max):
        report = build_report("zeta-table", {"k_max": k_max}, CFG)
        assert Fraction(report.payload["partial_sum"]) == zeta_partial(k_max)[0]

    def test_the_cap_renders_within_the_call_budget(self):
        # traced as a fresh process's first call, the call that peaks highest,
        # since what it imports counts too: the report is built once, and
        # each format renders a copy with nothing cached, the terms held
        script = f"""if True:
            import dataclasses, json, sys, tracemalloc
            sys.path.insert(0, {str(Path(primes.__file__).parents[1])!r})
            from landau.config import Config
            from landau.reports import _RENDERERS, build_report
            cfg = Config(workers=1)
            tracemalloc.start()
            report = build_report("zeta-table", {{"k_max": {ZETA_TABLE_MAX_K}}}, cfg)
            peaks = {{"build": tracemalloc.get_traced_memory()[1]}}
            for fmt in ("md", "csv", "json"):
                tracemalloc.reset_peak()
                out = _RENDERERS[fmt](dataclasses.replace(report), cfg, "zeta-table")
                peaks[fmt] = tracemalloc.get_traced_memory()[1]
                assert len(out) > 9 * 10**6, fmt
                del out
            print(json.dumps(peaks))
        """
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        peaks = json.loads(proc.stdout)
        assert max(peaks.values()) < 64 * 2**20, {k: v / 2**20 for k, v in peaks.items()}

    def test_each_candidate_is_tested_once(self, monkeypatch):
        # each even k is settled once: by is_prime below the square sieve's
        # floor for a top of 6000, and by one sieve over the even k from it
        # on; an odd k > 1 gives an even k^2 + 1, and is not tested at all
        sieved, tested = [], []
        real_flags, real_prime = primes._square_flags, primes.is_prime
        monkeypatch.setattr(primes, "_square_flags",
                            lambda ks, slots: sieved.extend(ks) or real_flags(ks, slots))
        monkeypatch.setattr(primes, "is_prime", lambda n, conv=primes.DEFAULT_CONVENTION: (
            tested.append(n) or real_prime(n, conv)))
        build_report("zeta-table", {"k_max": 6000}, CFG)
        floor = primes._square_floor(6000, 1)
        assert tested == [k * k + 1 for k in range(2, floor, 2)]
        assert sieved == list(range(floor + (floor & 1), 6001, 2))


class TestRenderers:
    def test_no_config_renders_as_one_worker_under_the_defaults(self):
        for fmt in ("md", "csv", "json"):
            assert emit_report("ring-table", {}, fmt) == emit_report("ring-table", {}, fmt, CFG)

    def test_json_documents_are_sorted_and_parse(self):
        raw = emit_report("ring-table", {}, "json", CFG)
        doc = json.loads(raw)
        assert set(doc) == {"kind", "title", "config", "footnotes", "report"}
        assert doc["config"] == {
            "convention": "include1",
            "workers": 1,
            "checkpoint_dir": ".",
        }
        assert raw == (
            json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        ).encode("utf-8")

    def test_md_escapes_pipes(self):
        report = Report("t", ("a|b",), lambda: (("c|d",),), (), dict)
        text = _RENDERERS["md"](report, CFG, "x").decode()
        assert "a\\|b" in text and "c\\|d" in text

    @given(
        headers=st.lists(st.text(max_size=6), min_size=1, max_size=4),
        rows=st.lists(st.lists(st.text(max_size=8), min_size=4, max_size=4), max_size=6),
        footers=st.lists(st.text(max_size=8), max_size=2),
    )
    @example(headers=["a|b", "é"], rows=[], footers=[])
    @example(
        headers=["x"] * 4,
        rows=[["", "|", "\\|", "₂ₙ ∈ ℤ"], ["||", " | ", "\\", ""]],
        footers=["f | g"],
    )
    @settings(max_examples=200, deadline=None)
    def test_md_matches_the_per_cell_renderer(self, headers, rows, footers):
        rows = tuple(tuple(r[: len(headers)]) for r in rows)
        report = Report("t", tuple(headers), lambda: rows, tuple(footers), dict)
        assert _RENDERERS["md"](report, CFG, "x") == render_md_per_cell(report, CFG)

    def test_every_kind_payload_is_json_serializable(self):
        summary = verify_range(Task.GOLDBACH, 2, 200)
        cases = {**VALID_PARAMS, "verify-summary": {"summary": summary}}
        assert set(cases) == set(report_kinds())
        for kind, params in cases.items():
            report = build_report(kind, dict(params), CFG)
            json.dumps(report.payload)
            for fmt in ("md", "csv", "json"):
                assert emit_report(kind, dict(params), fmt, CFG)

    def test_verify_summary_renders_stats_and_witnesses(self):
        summary = verify_range(Task.GOLDBACH, 2, 1000)
        text = emit_report("verify-summary", {"summary": summary}, "md", CFG).decode()
        assert "| verified | 500 |" in text
        assert "| complete | yes |" in text
        assert "| max_depth | 6 |" in text


def _dumps(doc) -> bytes:
    """The JSON renderer's byte contract, written with the standard library."""
    return (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _params_under(kind: str, conv: PrimeConvention) -> dict:
    """VALID_PARAMS for kind; the verify summary comes from a short run."""
    if kind == "verify-summary":
        return {"summary": verify_range(Task.GOLDBACH, 4, 200, conv)}
    return dict(VALID_PARAMS[kind])


def _never() -> None:
    raise AssertionError("this builder must not run")


_TEXT = st.text() | st.sampled_from(["", "\u2028\u2029", "\x00\x1f\x7f\"\\/\t", "ℤ₂ₙ ★ é 𝔞₁"])
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-1)
    | st.floats()
    | _TEXT
)
# lists whose items share one shape: int lists of one length, and dicts with
# the same keys, each key holding one kind of value (or, last, any of them)
_SLOTS = (
    st.integers(),
    _TEXT,
    st.booleans(),
    st.none(),
    st.lists(st.integers(), min_size=2, max_size=2),
    st.lists(st.integers(), max_size=3),
    _LEAVES,
)
_SHAPED = st.integers(0, 3).flatmap(
    lambda n: st.lists(st.lists(st.integers(), min_size=n, max_size=n), min_size=1, max_size=6)
) | st.dictionaries(_TEXT, st.sampled_from(_SLOTS), min_size=1, max_size=4).flatmap(
    lambda shape: st.lists(st.fixed_dictionaries(shape), min_size=1, max_size=6)
)
_JSON = st.recursive(
    _LEAVES | _SHAPED,
    lambda inner: (
        st.lists(inner, max_size=6)
        | st.lists(st.integers() | st.booleans(), max_size=6)
        | st.dictionaries(_TEXT, inner, max_size=6)
    ),
    max_leaves=40,
)


class _Int(int):
    pass


class _Str(str):
    pass


_COUPLE = {"canonical": False, "kind": "ordinary", "pair": [3, 7]}
# a list of same-shaped items with one item changed so that it no longer
# shares the shape, or shares it with text that looks like a template
_NEAR_MISSES = {
    "bool in an int list": [[1, 2], [True, 2]],
    "float in an int list": [[1, 2], [1.5, 2]],
    "int subclass in an int list": [[1, 2], [_Int(3), 2]],
    "another length": [[1, 2], [1, 2, 3]],
    "an empty list": [[1, 2], []],
    "empty lists": [[], []],
    "bool for an int": [_COUPLE, {**_COUPLE, "pair": [3, True]}],
    "int for a bool": [_COUPLE, {**_COUPLE, "canonical": 1}],
    "float for an int": [_COUPLE, {**_COUPLE, "pair": [3, 7.0]}],
    "str subclass for a str": [_COUPLE, {**_COUPLE, "kind": _Str("trivial")}],
    "None for a str": [_COUPLE, {**_COUPLE, "kind": None}],
    "missing key": [_COUPLE, {"kind": "ordinary", "pair": [3, 7]}],
    "extra key": [_COUPLE, {**_COUPLE, "depth": 2}],
    "other key": [{"a": 1}, {"b": 1}],
    "% in a key": [{"100%": 1, "%d": 2}, {"100%": 3, "%d": 4}],
    "% in a value": [{"k": "%s%%d"}, {"k": "%"}],
    "empty dicts": [{}, {}],
    "an empty list inside": [{"p": []}, {"p": [1]}],
    "int lists of other lengths inside": [{"p": [1, 2], "q": 0}, {"p": [1], "q": 1}],
    "tuples and lists": [(1, 2), [3, 4]],
    "nested shapes": [{"a": [[1, 2], [3, 4]]}, {"a": [[5, 6], [7, 8]]}],
}


class TestJsonEncoder:
    @pytest.mark.parametrize("conv", [INC, EXC])
    @pytest.mark.parametrize("kind", report_kinds())
    def test_every_kind_renders_as_json_dumps_would(self, kind, conv):
        config = Config(convention=conv, workers=1)
        params = _params_under(kind, conv)
        report = build_report(kind, params, config)
        doc = {
            "kind": kind,
            "title": report.title,
            "config": config.as_dict(),
            "footnotes": list(report.footers),
            "report": report.payload,
        }
        assert emit_report(kind, params, "json", config) == _dumps(doc)

    @settings(max_examples=300, deadline=None)
    @given(_JSON)
    @example([[], {}, {"a": []}, [[[]], {"b": {}}]])
    @example([1, True, 0, False, 2**64, -(2**70)])
    @example({"elapsed": 0.123, "nan": float("nan"), "inf": float("-inf")})
    def test_nested_values_render_as_json_dumps_would(self, value):
        report = Report("t", ("h",), _never, ("f",), lambda: value)
        doc = {"kind": "x", "title": "t", "config": CFG.as_dict(), "footnotes": ["f"], "report": value}
        assert _RENDERERS["json"](report, CFG, "x") == _dumps(doc)

    @pytest.mark.parametrize("case", list(_NEAR_MISSES))
    def test_near_misses_of_a_shape_render_as_json_dumps_would(self, case):
        value = {"rows": _NEAR_MISSES[case]}
        report = Report("t", ("h",), _never, ("f",), lambda: value)
        doc = {"kind": "x", "title": "t", "config": CFG.as_dict(), "footnotes": ["f"], "report": value}
        assert _RENDERERS["json"](report, CFG, "x") == _dumps(doc)

    def test_int_text_is_str_of_each_int(self):
        values = (0, -1, 7, -(2**63), 2**64, 10**4299, -(10**4299))
        for sep in (",", ", ", " + ", "%d"):
            assert _ints(values, sep) == sep.join(map(str, values))
            assert _ints(values[:1], sep) == "0" and _ints((), sep) == ""
        with pytest.raises(ValueError) as raised:
            ",".join(map(str, (1, 10**4300)))
        with pytest.raises(ValueError, match=re.escape(str(raised.value))):
            _ints((1, 10**4300), ",")


class TestLaziness:
    @pytest.mark.parametrize("fmt", ["md", "csv"])
    def test_table_formats_never_build_the_payload(self, fmt):
        report = Report("t", ("h",), lambda: (("cell",),), ("f",), _never)
        assert b"cell" in _RENDERERS[fmt](report, CFG, "x")

    def test_json_never_builds_the_rows(self):
        report = Report("t", ("h",), _never, ("f",), lambda: {"k": [1]})
        assert json.loads(_RENDERERS["json"](report, CFG, "x"))["report"] == {"k": [1]}

    @pytest.mark.parametrize("kind", report_kinds())
    def test_every_emitter_builds_only_what_its_format_shows(self, kind):
        params = _params_under(kind, INC)
        for fmt, unbuilt in (("md", "payload"), ("csv", "payload"), ("json", "rows")):
            report = build_report(kind, params, CFG)
            assert not vars(report).keys() & {"rows", "payload"}, kind
            _RENDERERS[fmt](report, CFG, kind)
            assert unbuilt not in vars(report), (kind, fmt)


class TestErrors:
    def test_unknown_kind(self):
        with pytest.raises(ReportError, match="unknown report kind"):
            emit_report("no-such-table", {}, "md", CFG)

    def test_unknown_format(self):
        with pytest.raises(ReportError, match="unknown format"):
            emit_report("units-grid", {"n": 10}, "html", CFG)

    def test_missing_required_parameter(self):
        with pytest.raises(ReportError, match="n: required parameter missing"):
            emit_report("units-grid", {}, "md", CFG)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ReportError, match="unknown parameter"):
            emit_report("units-grid", {"n": 10, "bogus": 1}, "md", CFG)

    @pytest.mark.parametrize(
        "params",
        [{"n": "ten"}, {"n": True}, {"n": 10.0}],
    )
    def test_bad_integer_parameter(self, params):
        with pytest.raises(ReportError, match="n: expected an integer"):
            emit_report("units-grid", params, "md", CFG)

    @pytest.mark.parametrize("kind, name", [("descent-table", "targets"), ("ring-table", "moduli")])
    def test_paper_tables_take_no_row_parameter(self, kind, name):
        # both tables print the paper's rows and nothing else
        with pytest.raises(ReportError, match=f"^unknown parameter\\(s\\): {name}$"):
            emit_report(kind, {name: (4, 10)}, "md", CFG)

    def test_bad_sequence_parameter(self):
        with pytest.raises(ReportError, match="^ns: expected a sequence of integers"):
            emit_report("legendre-table", {"ns": 7}, "md", CFG)

    def test_library_domain_errors_propagate(self):
        with pytest.raises(ValueError, match="even"):
            emit_report("couple", {"two_n": 7}, "md", CFG)

    def test_unknown_format_is_refused_before_the_report_is_built(self):
        # building would raise the library's "even" ValueError first
        with pytest.raises(ReportError, match="unknown format"):
            emit_report("couple", {"two_n": 7}, "html", CFG)

    @pytest.mark.parametrize("kind, name, value, message", BAD_VALUES)
    def test_bad_value_names_the_parameter(self, kind, name, value, message):
        params = {**VALID_PARAMS[kind], name: value}
        with pytest.raises(ReportError, match=f"^{name}: {message}"):
            build_report(kind, params, CFG)

    @pytest.mark.parametrize("kind, name", REQUIRED)
    def test_missing_required_parameter_on_every_kind(self, kind, name):
        params = {k: v for k, v in VALID_PARAMS.get(kind, {}).items() if k != name}
        with pytest.raises(ReportError, match=f"^{name}: required parameter missing$"):
            build_report(kind, params, CFG)

    def test_the_cases_cover_every_parameter(self):
        params = {
            (kind, name): p
            for kind in report_kinds()
            for name, p in report_parameters(kind).items()
        }
        # the verify summary is the harness's own object and is passed through
        checked = {(kind, name) for kind, name, _, _ in BAD_VALUES}
        assert set(params) - checked == {("verify-summary", "summary")}
        assert {key for key, p in params.items() if p.default is p.empty} == set(REQUIRED)

    @pytest.mark.parametrize("two_n", [9886, 10000])
    def test_ideal_table_refuses_an_r_too_long_to_print(self, two_n):
        with pytest.raises(ReportError, match=f"^2N={two_n}: r .* more than 4300 digits"):
            build_report("ideal-table", {"two_n": two_n}, CFG)

    def test_ideal_table_just_below_the_digit_limit_renders(self):
        report = build_report("ideal-table", {"two_n": 9884}, CFG)
        assert len(str(report.payload["r_alternate"]["value"])) <= 4300
