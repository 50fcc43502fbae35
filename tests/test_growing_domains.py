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
    kripke_violations,
    model_validity,
    validate_kripke_model,
)
from cdkripke.lanes import Lanes
from cdkripke.suites import MIXED_SIGNATURE, random_formula, random_kripke_model
from cdkripke.syntax import Atom, Conn, Exists, Forall, Sequent, parse_formula, parse_sequent
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
            lanes = Lanes.for_models((model,), self.SIG)
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


def shrinking_model(rng):
    """An assembled model whose domains need not grow along the order and
    whose interpretation need not be hereditary, with now and then an
    atom on an element outside the world's domain: validation refuses
    most of them."""
    worlds = [f"w{i}" for i in range(rng.randint(2, 4))]
    pairs = [(v, u) for v in worlds for u in worlds if v != u and rng.random() < 0.4]
    pool = ("a1", "a2", "a3")
    domains = {w: tuple(a for a in pool if rng.random() < 0.6) or (rng.choice(pool),)
               for w in worlds}
    interp = {}
    for w in worlds:
        for key in [("p", ()), ("q", ())] + [("P", (a,)) for a in pool + ("a4",)]:
            if (not key[1] or key[1][0] in domains[w] or rng.random() < 0.2) and rng.random() < 0.5:
                interp[(w, *key)] = 1
    return assemble_kripke_model(worlds, pairs, domains, interp)


def heredity_by_domains(model, f, rho, sig):
    """check_heredity as a loop over the worlds: f's drops along the
    order, read on lanes, where rho's values all lie in the world's
    domain."""
    lanes = Lanes.for_models((model,), sig)
    lanes.cross_check = False
    value = lanes.value(f, rho)[0]
    drops = value & ~lanes.box(value)
    return not any(drops >> i & 1 and all(rho[x] in model.domains[w] for x in f.fv)
                   for i, w in enumerate(model.worlds))


def binds(f):
    return isinstance(f, (Forall, Exists)) or isinstance(f, Conn) and any(map(binds, f.args))


def missing_above(model, f, rho):
    """Whether an element f is read on, one of rho's values or, when f
    binds a variable, any element, exists at some world and is missing at
    a world above it: the scalar reference leaves a subformula's value
    undefined where one of its values is missing, and a world below that
    reads it."""
    elements = {rho[x] for x in f.fv}
    if binds(f):
        elements.update(*model.domains.values())
    return any(a in model.domains[w] and a not in model.domains[v]
               for a in elements for w in model.worlds for v in model.future[w])


class TestShrinkingDomains:
    """check_heredity compares w <= v only where rho's values lie in D(w),
    read from the existence masks. On models whose domains shrink along
    the order, and under assignments to an element of no domain, it
    agrees with a loop over the worlds' domains and, where the scalar
    reference defines every value it compares, with that reference."""

    @pytest.mark.parametrize("seed", range(4))
    def test_heredity_matches_the_domains(self, seed):
        rng = random.Random(6_300 + seed)
        shrinking = compared = dropped = 0
        for _ in range(50):
            model = shrinking_model(rng)
            shrinking += any(v.code == "domain-monotonicity" for v in kripke_violations(model))
            for _ in range(5):
                f = random_formula(rng, MIXED_SIGNATURE, depth=4, atoms=ATOMS)
                rhos = [{}]
                for x in f.fvs:
                    rhos = [{**rho, x: a} for rho in rhos for a in ("a1", "a2", "a3", "a4")]
                for rho in rhos:
                    verdict = check_heredity(model, f, rho, MIXED_SIGNATURE)
                    assert verdict == heredity_by_domains(model, f, rho, MIXED_SIGNATURE)
                    try:
                        expected = scalar_reference.check_heredity(model, f, rho, MIXED_SIGNATURE)
                    except (UsageError, TypeError):
                        # the reference leaves a value undefined at a world
                        # missing one of its elements, and a world below it
                        # then cannot read it
                        assert missing_above(model, f, rho), (str(f), rho)
                        continue
                    assert verdict == expected, (str(f), rho)
                    compared += 1
                    dropped += not verdict
        assert shrinking >= 20 and compared >= 300 and dropped >= 10

    def test_an_element_of_no_domain_compares_no_world(self):
        # P(a1) and P(a9) drop from w0 to w1, but a9 lies in no domain
        model = assemble_kripke_model(["w0", "w1"], [("w0", "w1")],
                                      {"w0": ("a1",), "w1": ("a1",)},
                                      {("w0", "P", ("a1",)): 1, ("w0", "P", ("a9",)): 1})
        f = Atom("P", ("x",))
        for rho, holds in (({"x": "a9"}, True), ({"x": "a1"}, False)):
            assert check_heredity(model, f, rho, MIXED_SIGNATURE) is holds
            assert scalar_reference.check_heredity(model, f, rho, MIXED_SIGNATURE) is holds
