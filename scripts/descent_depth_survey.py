#!/usr/bin/env python3
"""Survey the canonical Goldbach descent over a range of even numbers.

Prints a depth histogram, the first even number to reach each depth, and the
deepest instances seen.  The descent almost always stops within a handful of
steps; this measures how rare the deep cases are.

Usage: python3 scripts/descent_depth_survey.py [--to N] [--convention C] [--top K]
"""

import argparse
from collections import Counter

from landau.goldbach import canonical_couple
from landau.primes import PrimeConvention


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--to", type=int, default=1_000_000, metavar="N",
                        help="largest even number surveyed (default 1000000)")
    parser.add_argument("--convention", choices=["include1", "exclude1"],
                        default="include1", help="whether 1 counts as prime")
    parser.add_argument("--top", type=int, default=10, metavar="K",
                        help="how many of the deepest instances to list")
    args = parser.parse_args()
    conv = PrimeConvention(args.convention)
    start = 2 if conv is PrimeConvention.INCLUDE1 else 4

    histogram: Counter[int] = Counter()
    frontier: dict[int, int] = {}
    deepest: list[tuple[int, int]] = []

    for two_n in range(start, args.to + 1, 2):
        couple, trace = canonical_couple(two_n, conv)
        depth = trace.depth()
        histogram[depth] += 1
        if depth not in frontier:
            frontier[depth] = two_n
        deepest.append((depth, two_n))
        deepest.sort(reverse=True)
        del deepest[args.top:]

    total = sum(histogram.values())
    print(f"canonical descent survey: even numbers {start}..{args.to}, "
          f"convention {conv.value}")
    print(f"{total} instances, all split\n")
    print("depth  count      share     first reached at")
    for depth in sorted(histogram):
        share = histogram[depth] / total
        print(f"{depth:5d}  {histogram[depth]:9d}  {share:8.5f}  {frontier[depth]}")
    print(f"\n{args.top} deepest instances (depth, 2n):")
    for depth, two_n in deepest:
        couple, trace = canonical_couple(two_n, conv)
        chain = " -> ".join(map(str, trace.candidates))
        print(f"  depth {depth}: 2n={two_n}, couple {(couple.p, couple.q)}, candidates {chain}")


if __name__ == "__main__":
    main()
