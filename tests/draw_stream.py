"""The suites' seeded draws against the reference generators, without pytest.

    PYTHONPATH=src:tests python tests/draw_stream.py

For each seed 0-199 and each model shape (the suites' defaults, a
constant domain, and max_worlds=4, max_domain=3 with either), three
models are drawn from random.Random(seed), each followed by a formula of
each formula shape, by the generators of cdkripke.suites and by those of
scalar_reference; then three propositional sequents from a fresh
generator of the same seed. Each pair must be equal and print the same,
and the two generators must end in one state. Prints the first mismatch
and exits 1, or exits 0. It needs only the standard library, so it runs
on every supported Python, pytest or not.
"""

import random
import sys

import scalar_reference
from cdkripke import suites

SEEDS = range(200)
MODEL_SHAPES = [
    {},
    {"constant_domain": True},
    {"max_worlds": 4, "max_domain": 3},
    {"max_worlds": 4, "max_domain": 3, "constant_domain": True},
]
FORMULA_SHAPES = [
    (suites.MIXED_SIGNATURE, 4, True),
    (suites.MONOTONE_SIGNATURE, 3, True),
    (suites.MIXED_SIGNATURE, 3, False),
]


def same(ours, ref) -> bool:
    return ours == ref and repr(ours) == repr(ref)


def mismatch(seed: int) -> str:
    """The first draw of the seed that differs from the reference, or ""."""
    for shape in MODEL_SHAPES:
        ours, ref = random.Random(seed), random.Random(seed)
        for i in range(3):
            model = suites.random_kripke_model(ours, **shape)
            if not same(model, scalar_reference.random_kripke_model(ref, **shape)):
                return f"seed {seed} {shape}: model {i} differs"
            for sig, depth, quantifiers in FORMULA_SHAPES:
                f = suites.random_formula(ours, sig, depth, quantifiers=quantifiers)
                g = scalar_reference.random_formula(ref, sig, depth, quantifiers=quantifiers)
                if not same(f, g):
                    return f"seed {seed} {shape}: formula {f} differs from {g}"
        if ours.getstate() != ref.getstate():
            return f"seed {seed} {shape}: the generators end in different states"
    ours, ref = random.Random(seed), random.Random(seed)
    for i in range(3):
        s = suites.random_propositional_sequent(ours, suites.MIXED_SIGNATURE)
        t = scalar_reference.random_propositional_sequent(ref, suites.MIXED_SIGNATURE)
        if not (s == t and str(s) == str(t)):
            return f"seed {seed}: sequent {s} differs from {t}"
    if ours.getstate() != ref.getstate():
        return f"seed {seed}: the sequent generators end in different states"
    return ""


def main() -> int:
    for seed in SEEDS:
        found = mismatch(seed)
        if found:
            print(found)
            return 1
    print(f"draws of seeds {SEEDS.start}-{SEEDS.stop - 1} equal the reference on "
          f"{len(MODEL_SHAPES)} model shapes and {len(FORMULA_SHAPES)} formula shapes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
