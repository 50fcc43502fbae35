#!/usr/bin/env python3
"""Sweep every truth table up to a given arity through the separator.

For each non-monotonic table this builds the separating sequent, runs the
full verification (classical validity by enumeration, refutation in the
two-world chain, expected-table re-derivation), and tallies cases: a
quick demonstration that the synthesis covers the whole small-arity
space, with per-case example output. It exits 1 when the count of
monotone tables of some arity is not the Dedekind number (OEIS
A000372) of that arity, and 2, on one error line, when --max-arity is
not 1-4: past 4 no Dedekind number is listed, and arity 5 alone has
2**32 tables.

    python scripts/separate_all_small_tables.py --max-arity 3 --show-examples
    python scripts/separate_all_small_tables.py --max-arity 4 | tail -n 23
"""

import argparse
import sys
import time
from collections import Counter

from cdkripke.separator import AllMonotone, _separated, render_separation
from cdkripke.syntax import print_sequent
from cdkripke.truthfn import Signature, all_tables

# monotone boolean functions of n arguments, OEIS A000372
DEDEKIND = {1: 3, 2: 6, 3: 20, 4: 168}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-arity", type=int, default=3)
    parser.add_argument("--show-examples", action="store_true",
                        help="print one full rendering per case/subcase")
    args = parser.parse_args()
    if args.max_arity not in DEDEKIND:
        print(f"error: --max-arity must be 1-{max(DEDEKIND)}, got {args.max_arity}",
              file=sys.stderr)
        return 2

    counts = Counter()
    examples = {}
    start = time.monotonic()
    for arity in range(1, args.max_arity + 1):
        for table in all_tables(arity):
            # the report that verified the result renders it below
            result, report = _separated(Signature.of(table))
            if isinstance(result, AllMonotone):
                counts[("monotone", arity)] += 1
                continue
            key = (result.case, result.subcase)
            counts[(key, arity)] += 1
            examples.setdefault(key, (result, report))
            print(
                f"arity {arity} bits {table.bits()}: case {result.case}"
                f"{result.subcase or ''} -> {print_sequent(result.sequent)}"
            )
    elapsed = time.monotonic() - start

    print()
    print(f"finished in {elapsed:.1f}s")
    for key in sorted(counts, key=str):
        print(f"  {key}: {counts[key]}")
    if args.show_examples:
        for key in sorted(examples, key=str):
            print()
            print(f"=== example for case {key} ===")
            print(render_separation(*examples[key]))
    wrong = [(arity, counts[("monotone", arity)], DEDEKIND[arity])
             for arity in range(1, args.max_arity + 1)
             if counts[("monotone", arity)] != DEDEKIND[arity]]
    for arity, found, expected in wrong:
        print(f"error: arity {arity}: {found} monotone tables, expected {expected}",
              file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
