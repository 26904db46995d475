#!/usr/bin/env python3
"""Walk the classical family past its break point and show the exact deficit.

Usage: python scripts/show_break.py [MAX_N]
"""

import sys

from sincprod import SincprodError, classical_frequencies, evaluate


def main() -> int:
    args = sys.argv[1:] or ["10"]
    try:
        max_n = int(args[0]) if len(args) == 1 else 0
    except ValueError:
        max_n = 0
    if max_n < 1:
        print("usage: python scripts/show_break.py [MAX_N]  (MAX_N a positive integer, default 10)", file=sys.stderr)
        return 1
    print(f"integral of sinc(x) sinc(x/3) ... sinc(x/(2n-1)) as a multiple of pi, n = 1..{max_n}\n")
    for n in range(1, max_n + 1):
        try:
            result = evaluate(classical_frequencies(n))
        except SincprodError as exc:  # n = 41 and up is over the engine's budget
            print(f"error: {exc}", file=sys.stderr)
            return 1
        coeff, provenance = result.value.coefficient, result.provenance
        deficit = 1 - coeff
        deficit_note = "exactly pi" if deficit == 0 else f"deficit {float(deficit):.3e} * pi"
        print(f"n = {n:2d}  {provenance:28s} {deficit_note}")
        if deficit != 0 and n <= 12:
            print(f"        coefficient = {coeff}")

    print("\nwhy it breaks at n = 8: the all-but-first-negative sign pattern flips side")
    a = classical_frequencies(8).sorted_entries
    gap = 1 - sum(x / a[0] for x in a[1:])
    print(f"  1 - 1/3 - 1/5 - ... - 1/15 = {gap}  (< 0, with N = {len(a) - 1})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
