#!/usr/bin/env python3
"""Walk the classical family past its break point and show the exact deficit.

Usage: python scripts/show_break.py [MAX_N]
"""

import sys

from sincprod import classical_frequencies, correction_term, evaluate


def main() -> int:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    print(f"integral of sinc(x) sinc(x/3) ... sinc(x/(2n-1)) as a multiple of pi, n = 1..{max_n}\n")
    for n in range(1, max_n + 1):
        result = evaluate(classical_frequencies(n))
        coeff, provenance = result.value.coefficient, result.provenance
        deficit = 1 - coeff
        deficit_note = "exactly pi" if deficit == 0 else f"deficit {float(deficit):.3e} * pi"
        print(f"n = {n:2d}  {provenance:28s} {deficit_note}")
        if deficit != 0 and n <= 12:
            print(f"        coefficient = {coeff}")

    print("\nwhy it breaks at n = 8: the all-but-first-negative sign pattern flips side")
    term = correction_term(classical_frequencies(8))
    print(f"  1 - 1/3 - 1/5 - ... - 1/15 = {term.normalized_gap}  (< 0, with N = {term.dominated_count})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
