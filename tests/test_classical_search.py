"""The classical deciders as the one-world case of the lane search.

decide_propositional and bounded_fo_validity run the constant-domain
lane search with one world. The reference below is the scalar
enumeration they used before: one ClassicalModel and one fresh
ClassicalEvaluator per valuation or interpretation, in the documented
order. Whole results are compared, so the countermodel's interp (zero
values listed) and the assignment must match too. The reference leaves
out the enumeration cap; the cap rule is pinned by its own tests.
"""

import itertools
import random
import tracemalloc

import pytest

from cdkripke import classical, kripke
from cdkripke.classical import (
    ClassicalModel,
    Countermodel,
    NoCountermodelUpTo,
    Valid,
    bounded_fo_validity,
    decide_propositional,
)
from cdkripke.errors import EnumerationCapError
from cdkripke.kripke import bounded_cd_countermodel_search, interpretation_slots
from cdkripke.suites import MIXED_SIGNATURE, MONOTONE_SIGNATURE, random_propositional_sequent
from cdkripke.syntax import (
    Atom,
    Conn,
    Exists,
    Forall,
    Sequent,
    free_vars,
    parse_sequent,
    predicates,
)
from scalar_reference import ClassicalEvaluator

SIGNATURES = pytest.mark.parametrize(
    "sig", [MIXED_SIGNATURE, MONOTONE_SIGNATURE], ids=["mixed", "monotone"])


def scalar_decide_propositional(sig, s):
    symbols = sorted(predicates(s))
    evaluator_domain = ("a1",)
    for values in itertools.product((0, 1), repeat=len(symbols)):
        interp = {(p, ()): v for p, v in zip(symbols, values)}
        model = ClassicalModel(evaluator_domain, interp)
        if ClassicalEvaluator(model, sig).sequent_value(s, {}) == 0:
            return Countermodel(model, {})
    return Valid()


def scalar_bounded_fo_validity(sig, s, max_domain):
    preds = predicates(s)
    fv = sorted(free_vars(s))
    for size in range(1, max_domain + 1):
        domain = tuple(f"a{i + 1}" for i in range(size))
        slots = interpretation_slots(preds, domain)
        for bits in itertools.product((0, 1), repeat=len(slots)):
            interp = {slot: b for slot, b in zip(slots, bits)}
            model = ClassicalModel(domain, interp)
            evaluator = ClassicalEvaluator(model, sig)
            for values in itertools.product(domain, repeat=len(fv)):
                rho = dict(zip(fv, values))
                if evaluator.sequent_value(s, rho) == 0:
                    return Countermodel(model, rho)
    return NoCountermodelUpTo(1, max_domain)


FO_ATOMS = (Atom("P", ("x",)), Atom("P", ("y",)), Atom("R", ("x", "y")), Atom("R", ("y", "x")))


def random_fo_formula(rng, sig, depth):
    """Atoms over a unary P and a binary R, quantifiers binding x or y."""
    if depth <= 1 or rng.random() < 0.3:
        return rng.choice(FO_ATOMS)
    kind = rng.choice(["conn"] * 3 + ["forall", "exists"])
    if kind == "conn":
        name = rng.choice(sig.names())
        return Conn(name, tuple(random_fo_formula(rng, sig, depth - 1)
                                for _ in range(sig.arity(name))))
    body = random_fo_formula(rng, sig, depth - 1)
    var = rng.choice("xy")
    return Forall(var, body) if kind == "forall" else Exists(var, body)


def random_fo_sequent(rng, sig):
    """1-3 formulas with x or y (or both) free."""
    while True:
        formulas = [random_fo_formula(rng, sig, 3) for _ in range(rng.randint(1, 3))]
        cut = rng.randint(0, len(formulas))
        s = Sequent(formulas[:cut], formulas[cut:])
        if free_vars(s):
            return s


class TestDecidePropositionalAgainstScalar:
    @SIGNATURES
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_sequents(self, sig, k):
        rng = random.Random(4_100 + k)
        symbols = ("p", "q", "r", "s")[:k]
        outcomes = set()
        for _ in range(40):
            s = random_propositional_sequent(rng, sig, symbols=symbols, depth=4)
            verdict = decide_propositional(sig, s)
            assert verdict == scalar_decide_propositional(sig, s), str(s)
            outcomes.add(type(verdict))
        assert outcomes == {Valid, Countermodel}

    def test_zero_valued_symbols_are_listed(self):
        verdict = decide_propositional(MIXED_SIGNATURE, parse_sequent(
            "q => implies(p, and(q, r))", MIXED_SIGNATURE))
        assert verdict.model.interp == {("p", ()): 1, ("q", ()): 1, ("r", ()): 0}
        assert verdict.model.domain == ("a1",) and verdict.assignment == {}


class TestBoundedFoValidityAgainstScalar:
    @SIGNATURES
    @pytest.mark.parametrize("max_domain", [1, 2, 3])
    def test_random_sequents(self, sig, max_domain):
        rng = random.Random(4_200 + max_domain)
        outcomes = set()
        for _ in range(30):
            s = random_fo_sequent(rng, sig)
            verdict = bounded_fo_validity(sig, s, max_domain)
            assert verdict == scalar_bounded_fo_validity(sig, s, max_domain), str(s)
            outcomes.add(type(verdict))
        assert Countermodel in outcomes

    @SIGNATURES
    def test_propositional_sequents(self, sig):
        rng = random.Random(4_300)
        for _ in range(20):
            s = random_propositional_sequent(rng, sig, depth=4)
            assert bounded_fo_validity(sig, s, 2) == scalar_bounded_fo_validity(sig, s, 2)

    def test_three_element_countermodel(self):
        # refuted only by three elements: one with P and R(x, x), one
        # without P, one without R(x, x), and none without both
        s = parse_sequent(
            "exists x. and(P(x), R(x, x)), exists x. not(P(x)), exists x. not(R(x, x))"
            " => exists x. and(not(P(x)), not(R(x, x)))", MIXED_SIGNATURE)
        verdict = bounded_fo_validity(MIXED_SIGNATURE, s, 3)
        assert verdict == scalar_bounded_fo_validity(MIXED_SIGNATURE, s, 3)
        assert len(verdict.model.domain) == 3
        assert bounded_fo_validity(MIXED_SIGNATURE, s, 2) == NoCountermodelUpTo(1, 2)

    def test_bound_report_is_the_one_world_search_report(self):
        # one type for both searches: a filter on either name sees both
        assert classical.NoCountermodelUpTo is kripke.NoCountermodelUpTo
        s = parse_sequent("P(x) => exists y. P(y)", MIXED_SIGNATURE)
        verdict = bounded_fo_validity(MIXED_SIGNATURE, s, 2)
        assert verdict == bounded_cd_countermodel_search(MIXED_SIGNATURE, s, 1, 2)
        assert (verdict.max_worlds, verdict.max_domain) == (1, 2)

    def test_countermodel_with_assignment(self):
        s = parse_sequent("P(x) => forall y. P(y)", MIXED_SIGNATURE)
        verdict = bounded_fo_validity(MIXED_SIGNATURE, s, 2)
        assert verdict == Countermodel(
            ClassicalModel(("a1", "a2"), {("P", ("a1",)): 0, ("P", ("a2",)): 1}),
            {"x": "a2"},
        )


class TestCapRule:
    EXISTS_FORALL = "exists x. P(x) => forall x. P(x)"

    def test_decide_propositional_is_not_capped(self, monkeypatch):
        monkeypatch.setenv("CDKRIPKE_MAX_ENUM", "4")
        valid = parse_sequent("and(p, and(q, r)) => or(r, p)", MONOTONE_SIGNATURE)
        assert decide_propositional(MONOTONE_SIGNATURE, valid) == Valid()
        refuted = parse_sequent("or(p, q) => and(q, r)", MONOTONE_SIGNATURE)
        assert decide_propositional(MONOTONE_SIGNATURE, refuted) == (
            scalar_decide_propositional(MONOTONE_SIGNATURE, refuted))

    def test_decide_propositional_ignores_the_env_var(self, monkeypatch):
        monkeypatch.setenv("CDKRIPKE_MAX_ENUM", "abc")
        s = parse_sequent("p => or(p, q)", MONOTONE_SIGNATURE)
        assert decide_propositional(MONOTONE_SIGNATURE, s) == Valid()

    def test_cap_counts_models_across_domain_sizes(self, monkeypatch):
        # two interpretations at size 1 and four at size 2: six in all
        s = parse_sequent(self.EXISTS_FORALL, MIXED_SIGNATURE)
        monkeypatch.setenv("CDKRIPKE_MAX_ENUM", "6")
        verdict = bounded_fo_validity(MIXED_SIGNATURE, s, 2)
        assert verdict == scalar_bounded_fo_validity(MIXED_SIGNATURE, s, 2)
        assert len(verdict.model.domain) == 2
        monkeypatch.setenv("CDKRIPKE_MAX_ENUM", "4")
        with pytest.raises(EnumerationCapError):
            bounded_fo_validity(MIXED_SIGNATURE, s, 2)

    def test_env_var_caps_bounded_fo_validity(self, monkeypatch):
        s = parse_sequent(self.EXISTS_FORALL, MIXED_SIGNATURE)
        monkeypatch.setenv("CDKRIPKE_MAX_ENUM", "5")
        with pytest.raises(EnumerationCapError):
            bounded_fo_validity(MIXED_SIGNATURE, s, 2)
        monkeypatch.setenv("CDKRIPKE_MAX_ENUM", "6")
        assert isinstance(bounded_fo_validity(MIXED_SIGNATURE, s, 2), Countermodel)

    def test_cap_counts_whole_domain_sizes_of_split_batches(self, monkeypatch):
        # the size-2 models split into two batches of two, and the first
        # holds the countermodel; the cap still sees all four at once
        monkeypatch.setattr("cdkripke.kripke.MAX_BATCH_WIDTH", 2)
        s = parse_sequent(self.EXISTS_FORALL, MIXED_SIGNATURE)
        monkeypatch.setenv("CDKRIPKE_MAX_ENUM", "4")
        with pytest.raises(EnumerationCapError):
            bounded_fo_validity(MIXED_SIGNATURE, s, 2)
        monkeypatch.setenv("CDKRIPKE_MAX_ENUM", "6")
        assert bounded_fo_validity(MIXED_SIGNATURE, s, 2) == (
            scalar_bounded_fo_validity(MIXED_SIGNATURE, s, 2))

    def test_cap_error_names_the_bounds_set(self, monkeypatch):
        s = parse_sequent(self.EXISTS_FORALL, MIXED_SIGNATURE)
        monkeypatch.setenv("CDKRIPKE_MAX_ENUM", "4")
        with pytest.raises(EnumerationCapError) as classical_error:
            bounded_fo_validity(MIXED_SIGNATURE, s, 2)
        assert str(classical_error.value) == (
            "bound infeasible: more than 4 models within domain<=2")
        with pytest.raises(EnumerationCapError) as cd_error:
            bounded_cd_countermodel_search(MIXED_SIGNATURE, s, 2, 2)
        assert str(cd_error.value) == (
            "bound infeasible: more than 4 constant-domain models within "
            "worlds<=2, domain<=2")


class TestWideSearches:
    """More valuations than kripke.MAX_BATCH_WIDTH: the search runs them
    in batches split on the leading symbols."""

    def test_forty_symbols_refuted_by_the_first_valuation(self):
        s = Sequent([], [Atom(f"p{i}") for i in range(1, 41)])
        assert decide_propositional(MIXED_SIGNATURE, s) == (
            scalar_decide_propositional(MIXED_SIGNATURE, s))

    def test_memory_stays_bounded(self):
        # refuted only by the last of 2**22 valuations; one unsplit
        # atom mask would take 512 KB
        symbols = [f"p{i}" for i in range(1, 23)]
        s = Sequent([Atom(p) for p in symbols], [])
        tracemalloc.start()
        try:
            verdict = decide_propositional(MIXED_SIGNATURE, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict == Countermodel(
            ClassicalModel(("a1",), {(p, ()): 1 for p in symbols}), {})
        assert peak < 2 ** 20

    @SIGNATURES
    def test_split_batches_against_scalar(self, sig, monkeypatch):
        monkeypatch.setattr("cdkripke.kripke.MAX_BATCH_WIDTH", 2)
        rng = random.Random(4_400)
        for _ in range(20):
            s = random_propositional_sequent(rng, sig, symbols=("p", "q", "r", "s"), depth=4)
            assert decide_propositional(sig, s) == scalar_decide_propositional(sig, s), str(s)
        for _ in range(15):
            s = random_fo_sequent(rng, sig)
            assert bounded_fo_validity(sig, s, 2) == (
                scalar_bounded_fo_validity(sig, s, 2)), str(s)


def test_valid_is_the_kripke_verdict():
    assert classical.Valid is kripke.Valid
