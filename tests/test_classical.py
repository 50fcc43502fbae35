import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdkripke.classical import (
    ClassicalEvaluator,
    ClassicalModel,
    Countermodel,
    NoCountermodelUpTo,
    Valid,
    bounded_fo_validity,
    classical_model_from_json,
    classical_model_to_json,
    decide_propositional,
)
from cdkripke.collapse import lift_classical
from cdkripke.errors import EnumerationCapError, ModelValidationError, UsageError
from cdkripke.kripke import Failure, model_validity
from cdkripke.syntax import Atom, Conn, Forall, Sequent, parse_formula, parse_sequent, predicates

from cdkripke.truthfn import standard_signature

SIG = standard_signature("and", "or", "implies", "nand", "xor", "not")


def naive_value(model, sig, rho, f):
    """Direct transcription of the interpretation clauses; the oracle for
    the memoizing evaluator."""
    from cdkripke.syntax import Atom, Conn, Forall

    if isinstance(f, Atom):
        return model.interp.get((f.pred, tuple(rho[x] for x in f.args)), 0)
    if isinstance(f, Conn):
        table = sig.table(f.name)
        return table.value([naive_value(model, sig, rho, g) for g in f.args])
    if isinstance(f, Forall):
        return int(all(naive_value(model, sig, {**rho, f.var: a}, f.body) for a in model.domain))
    return int(any(naive_value(model, sig, {**rho, f.var: a}, f.body) for a in model.domain))


def truth_table_oracle(sig, s):
    """Independent propositional validity check by brute enumeration."""
    symbols = sorted(predicates(s))
    for values in itertools.product((0, 1), repeat=len(symbols)):
        model = ClassicalModel(("a1",), {(p, ()): v for p, v in zip(symbols, values)})
        refuted = all(
            naive_value(model, sig, {}, f) == 1 for f in s.antecedent
        ) and all(naive_value(model, sig, {}, f) == 0 for f in s.succedent)
        if refuted:
            return dict(zip(symbols, values))
    return None


class TestEval:
    def test_atom(self):
        m = ClassicalModel(("a1",), {("p", ()): 1})
        assert ClassicalEvaluator(m, SIG).value(Atom("p"), {}) == 1

    def test_conn(self):
        m = ClassicalModel(("a1",), {("p", ()): 1, ("q", ()): 0})
        f = Conn("and", (Atom("p"), Atom("q")))
        assert ClassicalEvaluator(m, SIG).value(f, {}) == 0

    def test_universal(self):
        m = ClassicalModel(("a1", "a2"), {("P", ("a1",)): 1})
        f = parse_formula("forall x. P(x)", SIG)
        assert ClassicalEvaluator(m, SIG).value(f, {}) == 0

    def test_unbound_variable(self):
        m = ClassicalModel(("a1",), {})
        with pytest.raises(UsageError):
            ClassicalEvaluator(m, SIG).value(Atom("P", ("x",)), {})

    def test_value_outside_domain(self):
        m = ClassicalModel(("a1",), {})
        with pytest.raises(UsageError):
            ClassicalEvaluator(m, SIG).value(Atom("P", ("x",)), {"x": "b9"})


# a classical model is refuted at the one world of its lift
REFUTED = Failure("w0", {})


class TestSequentValue:
    def test_identity(self):
        m = ClassicalModel(("a1",), {("p", ()): 0})
        s = Sequent([Atom("p")], [Atom("p")])
        assert model_validity(lift_classical(m), s, SIG) == Valid()

    def test_refuted_succedent(self):
        m = ClassicalModel(("a1",), {})
        assert model_validity(lift_classical(m), Sequent([], [Atom("p")]), SIG) == REFUTED

    def test_satisfied_antecedent_empty_succedent(self):
        m = ClassicalModel(("a1",), {("p", ()): 1})
        assert model_validity(lift_classical(m), Sequent([Atom("p")], []), SIG) == REFUTED

    def test_empty_sequent_always_refuted(self):
        m = ClassicalModel(("a1",), {})
        assert model_validity(lift_classical(m), Sequent([], []), SIG) == REFUTED


class TestDecidePropositional:
    def test_peirce_valid(self):
        s = parse_sequent("=> implies(implies(implies(p,q),p),p)", SIG)
        assert truth_table_oracle(SIG, s) is None
        assert isinstance(decide_propositional(SIG, s), Valid)

    def test_double_nand_negation(self):
        s = parse_sequent("nand(nand(p,p), nand(p,p)) => p", SIG)
        assert truth_table_oracle(SIG, s) is None
        assert isinstance(decide_propositional(SIG, s), Valid)

    def test_atomic_countermodel(self):
        verdict = decide_propositional(SIG, parse_sequent("=> p", SIG))
        assert isinstance(verdict, Countermodel)
        assert verdict.model.value("p", ()) == 0
        assert len(verdict.model.domain) == 1

    def test_first_falsifying_valuation_is_lexicographic(self):
        # p or q fails first at p=0, q=0
        verdict = decide_propositional(SIG, parse_sequent("=> or(p, q)", SIG))
        assert isinstance(verdict, Countermodel)
        assert verdict.model.value("p", ()) == 0
        assert verdict.model.value("q", ()) == 0

    def test_rejects_quantified(self):
        with pytest.raises(UsageError):
            decide_propositional(SIG, parse_sequent("=> forall x. P(x)", SIG))

    def test_rejects_quantified_arity_clash_as_quantified(self):
        # the parser refuses the clash, so build the sequent by hand: the
        # shape check, not the clash, names the error
        clash = Sequent((Forall("x", Atom("P", ("x",))),), (Atom("P"),))
        with pytest.raises(UsageError, match="^decide_propositional expects a propositional sequent$"):
            decide_propositional(SIG, clash)

    def test_matches_oracle_on_random_sequents(self):
        rng = random.Random(5)
        from cdkripke.suites import random_propositional_sequent

        for _ in range(300):
            s = random_propositional_sequent(rng, SIG)
            verdict = decide_propositional(SIG, s)
            oracle = truth_table_oracle(SIG, s)
            assert isinstance(verdict, Valid) == (oracle is None)


class TestBoundedValidity:
    def test_existential_weakening_has_no_countermodel(self):
        s = parse_sequent("P(x) => exists y. P(y)", SIG)
        assert bounded_fo_validity(SIG, s, 2) == NoCountermodelUpTo(1, 2)

    def test_exists_to_forall_countermodel(self):
        s = parse_sequent("exists x. P(x) => forall x. P(x)", SIG)
        verdict = bounded_fo_validity(SIG, s, 2)
        assert isinstance(verdict, Countermodel)
        assert len(verdict.model.domain) == 2
        values = sorted(
            verdict.model.value("P", (a,)) for a in verdict.model.domain
        )
        assert values == [0, 1]

    def test_atomic_countermodel_at_size_one(self):
        verdict = bounded_fo_validity(SIG, parse_sequent("=> p", SIG), 1)
        assert isinstance(verdict, Countermodel)
        assert verdict.model.value("p", ()) == 0

    def test_agrees_with_decide_propositional_at_one(self):
        rng = random.Random(11)
        from cdkripke.suites import random_propositional_sequent

        for _ in range(100):
            s = random_propositional_sequent(rng, SIG)
            prop = decide_propositional(SIG, s)
            bounded = bounded_fo_validity(SIG, s, 1)
            assert isinstance(prop, Valid) == isinstance(bounded, NoCountermodelUpTo)
            if isinstance(prop, Countermodel):
                assert prop.model.interp == bounded.model.interp

    def test_enumeration_cap(self, monkeypatch):
        # identity sequent is never refuted, so the search must reach the
        # size-3 stage whose 2**9 interpretations burst the tiny cap
        s = parse_sequent("P(x, y) => P(x, y)", SIG)
        monkeypatch.setenv("CDKRIPKE_MAX_ENUM", "16")
        with pytest.raises(EnumerationCapError):
            bounded_fo_validity(SIG, s, 3)

    def test_bad_bound(self):
        with pytest.raises(UsageError):
            bounded_fo_validity(SIG, parse_sequent("=> p", SIG), 0)


class TestAssignmentLocality:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_value_depends_only_on_free_variables(self, data):
        domain = ("a1", "a2")
        bits = data.draw(st.tuples(*[st.sampled_from([0, 1])] * 6))
        interp = {
            ("p", ()): bits[0],
            ("q", ()): bits[1],
            ("P", ("a1",)): bits[2],
            ("P", ("a2",)): bits[3],
            ("Qn", ("a1", "a1")): bits[4],
            ("Qn", ("a2", "a1")): bits[5],
        }
        m = ClassicalModel(domain, interp)
        f = parse_formula(
            data.draw(
                st.sampled_from(
                    [
                        "and(P(x), exists y. Qn(y, x))",
                        "forall x. implies(P(x), p)",
                        "xor(p, q)",
                        "exists x. and(P(x), Qn(x, y))",
                    ]
                )
            ),
            SIG,
        )
        rho = {x: data.draw(st.sampled_from(domain)) for x in sorted(f.fv)}
        extended = {**rho, "z9": "a1", "z8": "a2"}
        evaluator = ClassicalEvaluator(m, SIG)
        assert evaluator.value(f, rho) == evaluator.value(f, extended)
        assert evaluator.value(f, rho) == naive_value(m, SIG, rho, f)


class TestMonotoneValuationProperty:
    def test_monotone_signature_formulas_monotone_in_valuation(self):
        mono = standard_signature("and", "or")
        rng = random.Random(3)
        from cdkripke.suites import random_formula

        atoms = (Atom("p"), Atom("q"), Atom("r"))
        symbols = ("p", "q", "r")
        valuations = list(itertools.product((0, 1), repeat=3))
        for _ in range(60):
            f = random_formula(rng, mono, depth=3, atoms=atoms, quantifiers=False)
            values = {}
            for vals in valuations:
                m = ClassicalModel(("a1",), {(s, ()): v for s, v in zip(symbols, vals)})
                values[vals] = ClassicalEvaluator(m, SIG).value(f, {})
            for lo in valuations:
                for hi in valuations:
                    if all(x <= y for x, y in zip(lo, hi)):
                        assert values[lo] <= values[hi]


class TestModelFiles:
    def test_round_trip(self):
        m = ClassicalModel(("a1", "a2"), {("P", ("a2",)): 1, ("p", ()): 1})
        assert classical_model_from_json(classical_model_to_json(m)) == m

    def test_missing_entries_read_zero(self):
        m = classical_model_from_json({"domain": ["a1"], "interp": []})
        assert m.value("p", ()) == 0

    def test_empty_domain_rejected(self):
        with pytest.raises(ModelValidationError):
            classical_model_from_json({"domain": [], "interp": []})

    def test_out_of_domain_interp_rejected(self):
        with pytest.raises(ModelValidationError):
            classical_model_from_json(
                {"domain": ["a1"], "interp": [{"pred": "P", "args": ["b7"], "value": 1}]}
            )
