#!/usr/bin/env python3
"""Twin-pair counts against the N/(ln N)^2 shape.

For a ladder of cutoffs N this prints the number of twin pairs (p, p+2) with
p + 2 <= N, the running sum of their reciprocals, the reference shape
N/(ln N)^2, and the dimensionless ratio count * (ln N)^2 / N.  Only the shape
is compared; no constant in front of it is asserted.

Usage: python3 scripts/twin_shape.py [--max-n N] [--convention C]
"""

import argparse
import math

from landau.gaps import twin_stats
from landau.primes import PrimeConvention


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=1_000_000, metavar="N",
                        help="largest cutoff (default 1000000)")
    parser.add_argument("--convention", choices=["include1", "exclude1"],
                        default="exclude1", help="whether 1 counts as prime")
    args = parser.parse_args()
    conv = PrimeConvention(args.convention)

    cutoffs = []
    n = 100
    while n < args.max_n:
        cutoffs.append(n)
        n *= 10
    cutoffs.append(args.max_n)

    print(f"twin pairs (p, p+2) with p+2 <= N, convention {conv.value}\n")
    print("         N    count   reciprocal sum    N/(ln N)^2    count*(ln N)^2/N")
    for cutoff in cutoffs:
        s = twin_stats(cutoff, conv)
        ratio = s.count * math.log(cutoff) ** 2 / cutoff
        print(f"{cutoff:10d}  {s.count:7d}  {float(s.brun_sum):14.9f}"
              f"  {s.brun_bound:12.1f}  {ratio:17.5f}")
    print("\n(the last column hovering near a constant is the shape comparison; "
          "the constant itself is not asserted)")


if __name__ == "__main__":
    main()
