"""Couple search, descent traces, quasi-couples, and the triangle identity.

Chain and table goldens are frozen literals, hand-checked by trial
arithmetic; sweeps compare against the independent oracles in oracles.py.
"""
from __future__ import annotations

import math
import random
from operator import attrgetter

import numpy as np
import pytest

from landau.config import Config
from landau.goldbach import (
    CoupleKind,
    GoldbachCounterexample,
    _classify,
    canonical_couple,
    enumerate_couples,
    quasi_couples,
)
from landau.ideals import bezout, goldbach_ideal_analysis
from landau.primes import PrimeConvention, is_prime, prev_prime
from landau.reports import build_report
from landau.zn import factorize, totient, units_profile

from oracles import brute_couples, brute_quasi, numpy_goldbach_pairs, numpy_sieve

INC = PrimeConvention.INCLUDE1
EXC = PrimeConvention.EXCLUDE1
PQ = attrgetter("p", "q")  # the canonical couple as its (p, q) pair


def chain(two_n: int, conv: PrimeConvention = INC) -> list[tuple[int, int, str | None]]:
    """The descent of 2n as (candidate, remainder, the remainder factored),
    with None for the last remainder, the prime one."""
    _, trace = canonical_couple(two_n, conv)
    *failed, last = trace.candidates
    return [(c, two_n - c, str(factorize(two_n - c))) for c in failed] + [
        (last, two_n - last, None)
    ]


# every even number through 20: single-step descents
DESCENT_CHAINS_SMALL = {
    2: [(1, 1, None)],
    4: [(3, 1, None)],
    6: [(5, 1, None)],
    8: [(7, 1, None)],
    10: [(7, 3, None)],
    12: [(11, 1, None)],
    14: [(13, 1, None)],
    16: [(13, 3, None)],
    18: [(17, 1, None)],
    20: [(19, 1, None)],
}

DESCENT_CHAINS = {
    220: [(211, 9, "3^2"), (199, 21, "3*7"), (197, 23, None)],
    346: [(337, 9, "3^2"), (331, 15, "3*5"), (317, 29, None)],
    518: [(509, 9, "3^2"), (503, 15, "3*5"), (499, 19, None)],
    532: [(523, 9, "3^2"), (521, 11, None)],
    538: [(523, 15, "3*5"), (521, 17, None)],
    556: [
        (547, 9, "3^2"),
        (541, 15, "3*5"),
        (523, 33, "3*11"),
        (521, 35, "5*7"),
        (509, 47, None),
    ],
    586: [(577, 9, "3^2"), (571, 15, "3*5"), (569, 17, None)],
    628: [(619, 9, "3^2"), (617, 11, None)],
    640: [(631, 9, "3^2"), (619, 21, "3*7"), (617, 23, None)],
    670: [(661, 9, "3^2"), (659, 11, None)],
    700: [(691, 9, "3^2"), (683, 17, None)],
    718: [(709, 9, "3^2"), (701, 17, None)],
    782: [(773, 9, "3^2"), (769, 13, None)],
    796: [(787, 9, "3^2"), (773, 23, None)],
    806: [(797, 9, "3^2"), (787, 19, None)],
    820: [(811, 9, "3^2"), (809, 11, None)],
    838: [(829, 9, "3^2"), (827, 11, None)],
    848: [(839, 9, "3^2"), (829, 19, None)],
    872: [(863, 9, "3^2"), (859, 13, None)],
    896: [(887, 9, "3^2"), (883, 13, None)],
    902: [(887, 15, "3*5"), (883, 19, None)],
    928: [(919, 9, "3^2"), (911, 17, None)],
    962: [
        (953, 9, "3^2"),
        (947, 15, "3*5"),
        (941, 21, "3*7"),
        (937, 25, "5^2"),
        (929, 33, "3*11"),
        (919, 43, None),
    ],
    972: [(971, 1, None)],
    978: [(977, 1, None)],
    984: [(983, 1, None)],
    992: [(991, 1, None)],
    998: [(997, 1, None)],
}

# couple and quasi-couple layout for every ring treated in detail: couples
# (trivial ones suppressed beyond 2n = 2), the canonical member, the units,
# the totient, and the quasi-couples
RING_ROWS = {
    2: dict(couples=[(1, 1)], star=(1, 1), units=[1], phi=1, quasi=[]),
    4: dict(couples=[(1, 3)], star=(1, 3), units=[1, 3], phi=2, quasi=[]),
    6: dict(couples=[(1, 5)], star=(1, 5), units=[1, 5], phi=2, quasi=[]),
    8: dict(couples=[(1, 7), (3, 5)], star=(1, 7), units=[1, 3, 5, 7], phi=4, quasi=[]),
    10: dict(couples=[(3, 7)], star=(3, 7), units=[1, 3, 7, 9], phi=4, quasi=[(1, 9)]),
    12: dict(
        couples=[(1, 11), (5, 7)], star=(1, 11), units=[1, 5, 7, 11], phi=4, quasi=[]
    ),
    14: dict(
        couples=[(1, 13), (3, 11)],
        star=(1, 13),
        units=[1, 3, 5, 9, 11, 13],
        phi=6,
        quasi=[(5, 9)],
    ),
    16: dict(
        couples=[(3, 13), (5, 11)],
        star=(3, 13),
        units=[1, 3, 5, 7, 9, 11, 13, 15],
        phi=8,
        quasi=[(1, 15), (7, 9)],
    ),
    18: dict(
        couples=[(1, 17), (5, 13), (7, 11)],
        star=(1, 17),
        units=[1, 5, 7, 11, 13, 17],
        phi=6,
        quasi=[],
    ),
    20: dict(
        couples=[(1, 19), (3, 17), (7, 13)],
        star=(1, 19),
        units=[1, 3, 7, 9, 11, 13, 17, 19],
        phi=8,
        quasi=[(9, 11)],
    ),
    22: dict(
        couples=[(3, 19), (5, 17)],
        star=(3, 19),
        units=[1, 3, 5, 7, 9, 13, 15, 17, 19, 21],
        phi=10,
        quasi=[(1, 21), (7, 15), (9, 13)],
    ),
    28: dict(
        couples=[(5, 23), (11, 17)],
        star=(5, 23),
        units=[1, 3, 5, 9, 11, 13, 15, 17, 19, 23, 25, 27],
        phi=12,
        quasi=[(1, 27), (3, 25), (9, 19), (13, 15)],
    ),
}

# full enumeration for the same moduli, trivial couples included
ENUM_FULL = {
    2: [(1, 1)],
    4: [(1, 3), (2, 2)],
    6: [(1, 5), (3, 3)],
    8: [(1, 7), (3, 5)],
    10: [(3, 7), (5, 5)],
    12: [(1, 11), (5, 7)],
    14: [(1, 13), (3, 11), (7, 7)],
    16: [(3, 13), (5, 11)],
    18: [(1, 17), (5, 13), (7, 11)],
    20: [(1, 19), (3, 17), (7, 13)],
    22: [(3, 19), (5, 17), (11, 11)],
    28: [(5, 23), (11, 17)],
}


class TestCanonicalDescent:
    def test_single_step_chains(self):
        for two_n, expected in DESCENT_CHAINS_SMALL.items():
            assert chain(two_n) == expected, two_n

    def test_multi_step_chains(self):
        for two_n, expected in DESCENT_CHAINS.items():
            assert chain(two_n) == expected, two_n

    def test_couples_from_chains(self):
        couple, trace = canonical_couple(220)
        assert (couple.p, couple.q) == (23, 197)
        assert couple.kind is CoupleKind.ORDINARY
        assert (23, 197, CoupleKind.ORDINARY, True) in enumerate_couples(220)
        assert trace.depth() == 3
        assert PQ(canonical_couple(10)[0]) == (3, 7)
        assert PQ(canonical_couple(972)[0]) == (1, 971)
        assert canonical_couple(972)[0].kind is CoupleKind.NOETHER

    def test_descent_keeps_strictly_decreasing(self):
        # 670 descends 661 -> 659; a lazier walk would resume above 659
        couple, trace = canonical_couple(670)
        assert (couple.p, couple.q) == (11, 659)
        assert trace.candidates == (661, 659)

    def test_exclude1_changes_small_targets(self):
        assert PQ(canonical_couple(8, EXC)[0]) == (3, 5)
        assert PQ(canonical_couple(4, EXC)[0]) == (2, 2)
        assert canonical_couple(4, EXC)[0].kind is CoupleKind.TRIVIAL
        assert PQ(canonical_couple(6, EXC)[0]) == (3, 3)

    def test_two_is_unit_plus_unit(self):
        couple, trace = canonical_couple(2, INC)
        assert (couple.p, couple.q) == (1, 1)
        # (1, 1) is both a top and a middle pair; top classification wins
        assert couple.kind is CoupleKind.NOETHER
        assert trace.depth() == 1

    def test_trace_links_through_prev_prime(self):
        for two_n in (220, 556, 962, 1000, 5000, 12346):
            for conv in (INC, EXC):
                couple, trace = canonical_couple(two_n, conv)
                cands = trace.candidates
                assert cands[0] == prev_prime(two_n, conv)
                for a, b in zip(cands, cands[1:]):
                    assert b == prev_prime(a, conv)
                for c in cands[:-1]:
                    assert not is_prime(two_n - c, conv)
                assert is_prime(two_n - cands[-1], conv)
                assert (couple.p, couple.q) == tuple(sorted((cands[-1], two_n - cands[-1])))

    def test_descent_factorizes_nothing(self, monkeypatch):
        # the descent asks only whether each remainder is prime; the reports
        # factor the remainders they print
        import landau.goldbach as gb
        import landau.zn as zn

        calls = []
        for mod in (gb, zn):
            real = mod.factorize
            monkeypatch.setattr(mod, "factorize", lambda n, real=real: calls.append(n) or real(n))
        for conv, start in ((INC, 2), (EXC, 4)):
            for two_n in range(start, 3_001, 2):
                canonical_couple(two_n, conv)
        assert calls == []

    def test_rejects_odd_and_tiny(self):
        for bad in (7, 1, 0, -4):
            with pytest.raises(ValueError):
                canonical_couple(bad)
        with pytest.raises(ValueError, match="include1"):
            canonical_couple(2, EXC)

    def test_exhaustion_raises_counterexample(self, monkeypatch):
        import landau.goldbach as gb

        monkeypatch.setattr(gb, "is_prime", lambda v, conv=None: False)
        with pytest.raises(GoldbachCounterexample) as exc:
            gb.canonical_couple(20, EXC)
        assert exc.value.two_n == 20
        # the failed attempts are reported, not dropped
        assert exc.value.candidates == (19, 17, 13, 11, 7, 5, 3, 2)

    def test_depth_stays_shallow(self):
        deepest, at = 0, 0
        for two_n in range(4, 10_001, 2):
            d = canonical_couple(two_n)[1].depth()
            if d > deepest:
                deepest, at = d, two_n
        # deterministic: the first worst chain in this range has 15 steps
        assert (deepest, at) == (15, 9596)


class TestTraceShape:
    """A trace comes only from canonical_couple, which builds it by the rule
    stated here; no constructor check restates it."""

    def test_trace_is_never_empty(self):
        for conv, start in ((INC, 2), (EXC, 4)):
            for two_n in range(start, 3_001, 2):
                _, trace = canonical_couple(two_n, conv)
                assert trace.candidates and trace.candidates[0] < two_n, (two_n, conv)

    def test_candidates_strictly_decrease(self):
        for conv, start in ((INC, 2), (EXC, 4)):
            for two_n in range(start, 3_001, 2):
                cands = canonical_couple(two_n, conv)[1].candidates
                assert all(a > b for a, b in zip(cands, cands[1:])), (two_n, cands)


def _every_couple():
    """Every couple the package builds for 2n <= 3000, under both conventions,
    as (2n, p, q, kind): the enumeration and the descent's own couple."""
    for conv, start in ((INC, 2), (EXC, 4)):
        for two_n in range(start, 3_001, 2):
            couple = canonical_couple(two_n, conv)[0]
            yield two_n, couple.p, couple.q, couple.kind
            for p, q, kind, _ in enumerate_couples(two_n, conv):
                yield two_n, p, q, kind


class TestCoupleValidation:
    """The couple invariants hold by construction; checked on the outputs."""

    def test_sum_must_match(self):
        for two_n, p, q, kind in _every_couple():
            assert p + q == two_n, (two_n, p, q)

    def test_ordering_enforced(self):
        for two_n, p, q, kind in _every_couple():
            assert 0 < p <= q, (two_n, p, q)

    def test_kind_shape_enforced(self):
        for two_n, p, q, kind in _every_couple():
            # (1, 1) is both a top and a middle pair; top classification wins
            assert (kind is CoupleKind.NOETHER) == (p == 1), (two_n, p, q, kind)
            assert (kind is CoupleKind.TRIVIAL) == (p == q > 1), (two_n, p, q, kind)


class TestEnumerate:
    def test_documented_rings(self):
        for two_n, expected in ENUM_FULL.items():
            got = enumerate_couples(two_n)
            assert [(p, q) for p, q, _, _ in got] == expected, two_n
            stars = [(p, q) for p, q, _, canonical in got if canonical]
            assert stars == [RING_ROWS[two_n]["star"]]

    def test_kind_labels(self):
        kinds = {(p, q): kind for p, q, kind, _ in enumerate_couples(22)}
        assert kinds == {
            (3, 19): CoupleKind.ORDINARY,
            (5, 17): CoupleKind.ORDINARY,
            (11, 11): CoupleKind.TRIVIAL,
        }
        kinds4 = {(p, q): kind for p, q, kind, _ in enumerate_couples(4)}
        assert kinds4[(1, 3)] is CoupleKind.NOETHER
        assert kinds4[(2, 2)] is CoupleKind.TRIVIAL

    def test_every_kind_is_the_classified_one(self):
        # enumerate_couples classifies only its first and last couple
        for conv, start in ((INC, 2), (EXC, 4)):
            for two_n in range(start, 3_000, 2):
                for p, q, kind, _ in enumerate_couples(two_n, conv):
                    assert kind is _classify(p, q), (two_n, conv, p, q, kind)

    def test_complete_against_vector_oracle(self):
        limit = 50_000
        mask = numpy_sieve(limit)
        primes = np.nonzero(mask)[0]
        rng = random.Random(20260819)
        targets = list(range(4, 10_001, 2)) + [
            rng.randrange(10_002, limit + 1, 2) for _ in range(200)
        ]
        for two_n in targets:
            expected = numpy_goldbach_pairs(two_n, mask, primes)
            inc = [c[:2] for c in enumerate_couples(two_n, INC)]
            exc = [c[:2] for c in enumerate_couples(two_n, EXC)]
            top = [(1, two_n - 1)] if mask[two_n - 1] else []
            assert inc == top + expected, two_n
            assert exc == expected, two_n

    def test_smallest_targets_and_their_edge_couples(self):
        # (1, 1) and (1, 3) need the unit; (2, 2) is the one couple with an
        # even member, so the mirrored odd flags alone cannot find it
        expected = {
            (2, INC): [(1, 1)],
            (4, INC): [(1, 3), (2, 2)],
            (4, EXC): [(2, 2)],
            (6, INC): [(1, 5), (3, 3)],
            (6, EXC): [(3, 3)],
        }
        for (two_n, conv), pairs in expected.items():
            couples = enumerate_couples(two_n, conv)
            assert [c[:2] for c in couples] == pairs
            assert pairs == brute_couples(two_n, include1=conv is INC)
            assert [c[3] for c in couples] == [True] + [False] * (len(pairs) - 1)
        kinds = [kind for _, _, kind, _ in enumerate_couples(4)]
        assert kinds == [CoupleKind.NOETHER, CoupleKind.TRIVIAL]
        assert enumerate_couples(2)[0][2] is CoupleKind.NOETHER

    def test_couples_report_rows_equal_the_enumeration(self):
        for conv, start in ((INC, 2), (EXC, 4)):
            config = Config(convention=conv, workers=1)
            for two_n in range(start, 2_001, 2):
                report = build_report("couples", {"two_n": two_n}, config)
                couples = enumerate_couples(two_n, conv)
                assert report.rows == tuple(
                    (str(p), str(q), kind.value, "★" if canonical else "")
                    for p, q, kind, canonical in couples
                ), (two_n, conv)
                assert report.payload["couples"] == [
                    {"pair": [p, q], "kind": kind.value, "canonical": canonical}
                    for p, q, kind, canonical in couples
                ], (two_n, conv)

    def test_complete_against_trial_division(self):
        for two_n in range(2, 301, 2):
            assert [c[:2] for c in enumerate_couples(two_n, INC)] == brute_couples(
                two_n, include1=True
            )
        for two_n in range(4, 301, 2):
            assert [c[:2] for c in enumerate_couples(two_n, EXC)] == brute_couples(
                two_n, include1=False
            )

    def test_canonical_member_agrees_with_descent(self):
        for conv, start in ((INC, 2), (EXC, 4)):
            for two_n in range(start, 3_001, 2):
                stars = [c for c in enumerate_couples(two_n, conv) if c[3]]
                direct = canonical_couple(two_n, conv)[0]
                assert stars == [(direct.p, direct.q, direct.kind, True)], (two_n, conv)

    def test_top_couple_is_always_canonical(self):
        # descent starts at prev_prime(2n), so a prime 2n-1 ends it at once
        for two_n in range(4, 3_001, 2):
            couples = enumerate_couples(two_n)
            tops = [c for c in couples if c[2] is CoupleKind.NOETHER]
            if tops:
                assert tops[0][3]

    def test_convention_only_moves_the_top_couple(self):
        for two_n in range(4, 2_001, 2):
            inc = {c[:2] for c in enumerate_couples(two_n, INC)}
            exc = {c[:2] for c in enumerate_couples(two_n, EXC)}
            assert exc <= inc
            assert inc - exc <= {(1, two_n - 1)}

    def test_members_are_units_unless_trivial(self):
        for two_n in range(2, 2_001, 2):
            for p, q, kind, _ in enumerate_couples(two_n):
                if kind is CoupleKind.TRIVIAL and two_n > 2:
                    assert math.gcd(p, two_n) == p
                else:
                    assert math.gcd(p, two_n) == 1
                    assert math.gcd(q, two_n) == 1

    def test_distinct_members_admit_bezout_certificates(self):
        rng = random.Random(7)
        targets = [rng.randrange(4, 20_000, 2) for _ in range(60)]
        for two_n in targets:
            for p, q, _, _ in enumerate_couples(two_n):
                if p == q:
                    continue
                d, x, y = bezout(q, p)
                assert d == 1
                assert x * q + y * p == 1

    def test_ideal_route_agrees(self):
        targets = list(range(4, 601, 2)) + [220, 972, 2028]
        for two_n in targets:
            for conv in (INC, EXC):
                rep = goldbach_ideal_analysis(two_n, conv)
                expected = set(rep.couples)
                expected.update(c for c in (rep.noether, rep.trivial) if c is not None)
                scan = {c[:2] for c in enumerate_couples(two_n, conv)}
                assert scan == expected, (two_n, conv)

    def test_nonempty_through_moderate_range(self):
        # descent success is an existence certificate; it raises otherwise
        for two_n in range(2, 50_001, 2):
            assert sum(PQ(canonical_couple(two_n, INC)[0])) == two_n
        for two_n in range(4, 50_001, 2):
            assert sum(PQ(canonical_couple(two_n, EXC)[0])) == two_n


class TestQuasiCouples:
    def test_documented_rings(self):
        for two_n, row in RING_ROWS.items():
            assert quasi_couples(two_n) == row["quasi"], two_n

    def test_spec_examples(self):
        assert quasi_couples(22) == [(1, 21), (7, 15), (9, 13)]
        assert quasi_couples(28) == [(1, 27), (3, 25), (9, 19), (13, 15)]
        assert quasi_couples(12) == []

    def test_partition_of_unit_pairs(self):
        for two_n in range(2, 2_001, 2):
            for conv in (INC,) if two_n == 2 else (INC, EXC):
                unit_pairs = {
                    (a, two_n - a)
                    for a in range(1, two_n // 2 + 1, 2)
                    if math.gcd(a, two_n) == 1
                }
                couple_pairs = {
                    (p, q) for p, q, _, _ in enumerate_couples(two_n, conv) if math.gcd(p, two_n) == 1
                }
                quasi = set(quasi_couples(two_n, conv))
                assert couple_pairs | quasi == unit_pairs
                assert not couple_pairs & quasi

    def test_convention_shift_adds_only_the_top_pair(self):
        for two_n in range(4, 2_001, 2):
            inc = set(quasi_couples(two_n, INC))
            exc = set(quasi_couples(two_n, EXC))
            assert inc <= exc
            assert exc - inc <= {(1, two_n - 1)}
            if is_prime(two_n - 1, EXC):
                assert (1, two_n - 1) in exc

    def test_matches_the_brute_oracle(self):
        for two_n in range(2, 3_001, 2):
            assert quasi_couples(two_n, INC) == brute_quasi(two_n, include1=True), two_n
            if two_n > 2:
                assert quasi_couples(two_n, EXC) == brute_quasi(two_n, include1=False), two_n

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            quasi_couples(15)
        with pytest.raises(ValueError):
            quasi_couples(2, EXC)


class TestNoetherStatus:
    """The Noether couple (1, 2n-1) as the ideal analysis reports it, checked
    against the unit-group order: phi(2n-1) = 2n-2 exactly for prime 2n-1."""

    def test_documented_values(self):
        assert goldbach_ideal_analysis(8).noether == (1, 7) and totient(7) == 6
        assert goldbach_ideal_analysis(10).noether is None and totient(9) == 6
        assert goldbach_ideal_analysis(4).noether == (1, 3) and totient(3) == 2

    def test_agrees_with_enumeration(self):
        for two_n in range(4, 3_001, 2):
            flag = goldbach_ideal_analysis(two_n).noether is not None
            assert flag == (totient(two_n - 1) == two_n - 2)
            present = any(
                kind is CoupleKind.NOETHER for _, _, kind, _ in enumerate_couples(two_n, INC)
            )
            assert flag == present


class TestRingTableRows:
    def test_couples_column(self):
        for two_n, row in RING_ROWS.items():
            shown = [
                (p, q)
                for p, q, kind, _ in enumerate_couples(two_n)
                if kind is not CoupleKind.TRIVIAL or two_n == 2
            ]
            assert shown == row["couples"], two_n

    def test_units_and_totient_columns(self):
        for two_n, row in RING_ROWS.items():
            if two_n == 2:
                continue  # the unit group of a two-element ring is just (1)
            prof = units_profile(two_n)
            assert list(prof.units) == row["units"], two_n
            assert prof.totient == row["phi"], two_n
            # unmarked units in the table are exactly the prime ones
            strong = tuple(u for u in row["units"] if is_prime(u, INC))
            assert prof.strong == strong, two_n

    def test_tiny_ring_row(self):
        prof = units_profile(2)
        assert list(prof.units) == [1] and prof.totient == 1
