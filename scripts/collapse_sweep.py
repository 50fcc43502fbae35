#!/usr/bin/env python3
"""Exhaustive agreement check between the two semantics on small models.

Enumerates every constant-domain Kripke model within the bounds (one
unary predicate P, two propositional symbols p and q, one preorder per
isomorphism class) and every formula of bounded depth over a monotonic
signature, comparing the Kripke value against the classical value in the
per-world projection. Expected outcome: exact agreement everywhere.

The default bounds reproduce the full desk-scale check in a fraction
of a second, since the interpretations of every frame and of every
domain size are evaluated together in bit-parallel lane sets of at most
2**14 interpretations, whatever their world counts: the 8,976 models of
the default bounds are one lane set, and the 181,768 models of
--max-worlds 4 are thirteen:

    python scripts/collapse_sweep.py
    python scripts/collapse_sweep.py --max-worlds 2 --depth 2   # milliseconds
    python scripts/collapse_sweep.py --max-worlds 4             # about a second

Exit codes: 0 agreement, 1 a disagreement, 2 a bound or depth below 1
or an infeasible bound (the enumeration cap of CDKRIPKE_MAX_ENUM, or
frames of more than six worlds), reported on one error line.
"""

import argparse
import sys
import time

from cdkripke.collapse import run_collapse_sweep
from cdkripke.errors import EnumerationCapError, UsageError
from cdkripke.truthfn import standard_signature


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-worlds", type=int, default=3)
    parser.add_argument("--max-domain", type=int, default=2)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--labeled-frames", action="store_true",
                        help="enumerate labeled preorders instead of one per iso class")
    args = parser.parse_args()

    sig = standard_signature("and", "or")
    start = time.monotonic()
    try:
        report = run_collapse_sweep(
            sig,
            max_worlds=args.max_worlds,
            max_domain=args.max_domain,
            depth=args.depth,
            up_to_iso=not args.labeled_frames,
        )
    except (EnumerationCapError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - start
    print(report.render())
    print(f"elapsed: {elapsed:.1f}s")
    return 0 if report.agreement else 1


if __name__ == "__main__":
    sys.exit(main())
