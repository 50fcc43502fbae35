"""Growing domains on the lane core, against the scalar reference.

KripkeEvaluator, model_validity and check_heredity run on Lanes, with an
existence mask per domain element. The scalar evaluator in
scalar_reference is the independent engine they are compared with, on
seeded random models whose domains grow along the order.
"""

import random

import pytest

from cdkripke.classical import ClassicalModel
from cdkripke.errors import ModelValidationError, UsageError
from cdkripke.kripke import (
    Failure,
    KripkeEvaluator,
    assemble_kripke_model,
    NoCountermodelUpTo,
    bounded_cd_countermodel_search,
    check_heredity,
    model_validity,
    validate_kripke_model,
)
from cdkripke.lanes import Lanes
from cdkripke.suites import MIXED_SIGNATURE, random_formula, random_kripke_model
from cdkripke.syntax import Atom, Sequent, parse_formula, parse_sequent
from cdkripke.truthfn import standard_signature

import scalar_reference

# two free variables, so assignments can die at a world through either
ATOMS = (Atom("p"), Atom("q"), Atom("P", ("x",)), Atom("P", ("y",)))


def growing_model(rng):
    return random_kripke_model(rng, max_worlds=4, max_domain=3)


def assignments(model, f):
    """Every assignment of f's free variables into the union domain."""
    elements = sorted({a for w in model.worlds for a in model.domains[w]})
    rhos = [{}]
    for x in f.fvs:
        rhos = [{**rho, x: a} for rho in rhos for a in elements]
    return rhos


class TestAgainstScalarReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_profile_value_and_heredity(self, seed):
        rng = random.Random(6_100 + seed)
        growing = undefined = 0
        for _ in range(60):
            model = growing_model(rng)
            growing += not model.constant_domain
            lanes = KripkeEvaluator(model, MIXED_SIGNATURE)
            scalar = scalar_reference.KripkeEvaluator(model, MIXED_SIGNATURE)
            for _ in range(6):
                f = random_formula(rng, MIXED_SIGNATURE, depth=5, atoms=ATOMS)
                for rho in assignments(model, f):
                    profile = scalar.profile(f, rho)
                    assert lanes.profile(f, rho) == profile, (str(f), rho)
                    undefined += profile.count(None)
                    for w, expected in zip(model.worlds, profile):
                        if expected is None:
                            with pytest.raises(UsageError):
                                lanes.value(f, w, rho)
                        else:
                            assert lanes.value(f, w, rho) == expected
                    assert check_heredity(model, f, rho, MIXED_SIGNATURE) == (
                        scalar_reference.check_heredity(model, f, rho, MIXED_SIGNATURE))
        assert growing >= 10 and undefined > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_model_validity(self, seed):
        rng = random.Random(6_200 + seed)
        failures = 0
        for _ in range(40):
            model = growing_model(rng)
            for _ in range(6):
                sides = [[random_formula(rng, MIXED_SIGNATURE, depth=4, atoms=ATOMS)
                          for _ in range(rng.randint(lo, 2))] for lo in (0, 1)]
                s = Sequent(*sides)
                expected = scalar_reference.model_validity(model, s, MIXED_SIGNATURE)
                assert model_validity(model, s, MIXED_SIGNATURE) == expected, str(s)
                failures += isinstance(expected, Failure)
        assert 0 < failures < 240


class TestUniversalCrossCheck:
    """On a constant-domain model that breaks heredity the universal's
    present-world reading differs; the cross-check catches it, and
    switching it off leaves the future-world clause."""

    SIG = standard_signature("and", "or")

    def broken(self):
        return assemble_kripke_model(
            ["w0", "w1"], [("w0", "w1")], {"w0": ("a1",), "w1": ("a1",)},
            {("w0", "P", ("a1",)): 1})

    def test_cross_check_fires(self):
        if not __debug__:
            pytest.skip("the cross-check is an assertion")
        f = parse_formula("forall x. P(x)", self.SIG)
        with pytest.raises(AssertionError, match="universal clause mismatch"):
            KripkeEvaluator(self.broken(), self.SIG).profile(f, {})

    def test_switched_off_matches_reference(self):
        model = self.broken()
        cases = (("forall x. P(x)", {}), ("P(x)", {"x": "a1"}), ("or(P(x), p)", {"x": "a1"}))
        for text, rho in cases:
            f = parse_formula(text, self.SIG)
            lanes = Lanes.for_model(model, self.SIG)
            lanes.cross_check = False
            mask, alive = lanes.value(f, rho)[0], lanes.alive(rho, f.fvs)
            profile = tuple(mask >> i & 1 if alive >> i & 1 else None
                            for i in range(len(model.worlds)))
            reference = scalar_reference.KripkeEvaluator(model, self.SIG, check_cd_universal=False)
            assert profile == reference.profile(f, rho)
            assert check_heredity(model, f, rho, self.SIG) == (
                scalar_reference.check_heredity(model, f, rho, self.SIG))


class TestConstantDomainAxiom:
    """forall x. or(P(x), q) => or(forall x. P(x), q) holds on every
    constant-domain model but fails on a growing one."""

    SIG = standard_signature("and", "or")
    AXIOM = "forall x. or(P(x), q) => or(forall x. P(x), q)"

    def test_refuted_where_the_domain_grows(self):
        model = validate_kripke_model(
            ["w0", "w1"], [("w0", "w1")], {"w0": ("a",), "w1": ("a", "b")},
            {("w0", "P", ("a",)): 1, ("w1", "P", ("a",)): 1, ("w1", "q", ()): 1})
        s = parse_sequent(self.AXIOM, self.SIG)
        assert model_validity(model, s, self.SIG) == Failure("w0", {})

    def test_no_constant_domain_countermodel(self):
        s = parse_sequent(self.AXIOM, self.SIG)
        assert bounded_cd_countermodel_search(self.SIG, s, 3, 2) == NoCountermodelUpTo(3, 2)


class TestRepeatedNames:
    def test_repeated_world(self):
        with pytest.raises(ModelValidationError, match="repeated-world"):
            validate_kripke_model(["w0", "w0"], [], {"w0": ("a1",)}, {})

    def test_repeated_element(self):
        with pytest.raises(ModelValidationError, match="repeated-element"):
            validate_kripke_model(["w0", "w1"], [], {"w0": ("a1",), "w1": ("a1", "a1")}, {})

    def test_repeated_classical_element(self):
        with pytest.raises(ModelValidationError, match="repeated-element"):
            ClassicalModel(("a1", "a2", "a1"), {})
