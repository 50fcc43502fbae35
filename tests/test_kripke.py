import itertools
import random
from dataclasses import replace

import pytest

from cdkripke.classical import ClassicalEvaluator, ClassicalModel, Valid
from cdkripke.errors import EnumerationCapError, ModelValidationError, UsageError
from cdkripke.kripke import (
    CdCountermodel,
    Failure,
    KripkeEvaluator,
    KripkeModel,
    NoCountermodelUpTo,
    _frames,
    assemble_kripke_model,
    bounded_cd_countermodel_search,
    check_heredity,
    closed_frame,
    enumerate_cd_models,
    enumerate_preorders,
    kripke_model_from_json,
    kripke_model_to_json,
    kripke_violations,
    model_validity,
    require_valid,
    validate_kripke_model,
)
from cdkripke.syntax import (
    Atom,
    Conn,
    Forall,
    Sequent,
    parse_formula,
    parse_sequent,
)
from cdkripke.suites import random_kripke_model
from cdkripke.truthfn import standard_signature

import scalar_reference

SIG = standard_signature("and", "or", "implies", "nand", "xor", "not")


def kstar():
    """Two-world chain, one-element domain, p rising, q constant 0."""
    return validate_kripke_model(
        ["w0", "w1"],
        [("w0", "w1")],
        {"w0": ("a1",), "w1": ("a1",)},
        {("w1", "p", ()): 1},
    )


def naive_kripke_value(model, sig, w, rho, f):
    """Direct transcription of the future-world clauses; oracle for the
    profile-based evaluator."""
    if isinstance(f, Atom):
        return model.interp.get((w, f.pred, tuple(rho[x] for x in f.args)), 0)
    if isinstance(f, Conn):
        table = sig.table(f.name)
        return int(
            all(
                table.value([naive_kripke_value(model, sig, v, rho, g) for g in f.args]) == 1
                for v in model.future[w]
            )
        )
    if isinstance(f, Forall):
        return int(
            all(
                naive_kripke_value(model, sig, v, {**rho, f.var: a}, f.body) == 1
                for v in model.future[w]
                for a in model.domains[v]
            )
        )
    return int(
        any(
            naive_kripke_value(model, sig, w, {**rho, f.var: a}, f.body) == 1
            for a in model.domains[w]
        )
    )


class TestValidation:
    def test_heredity_violation_with_witness(self):
        model = assemble_kripke_model(
            ["w0", "w1"],
            [("w0", "w1")],
            {"w0": ("a1",), "w1": ("a1",)},
            {("w0", "p", ()): 1, ("w1", "p", ()): 0},
        )
        violations = kripke_violations(model)
        assert [v.code for v in violations] == ["heredity"]
        assert violations[0].details == {"from": "w0", "to": "w1", "pred": "p", "args": ()}

    def test_single_reflexive_world_valid(self):
        model = validate_kripke_model(["w0"], [], {"w0": ("a1",)}, {("w0", "p", ()): 1})
        assert model.constant_domain

    def test_domain_monotonicity_violation(self):
        model = assemble_kripke_model(
            ["w0", "w1"],
            [("w0", "w1")],
            {"w0": ("a1", "a2"), "w1": ("a1",)},
            {},
        )
        codes = [v.code for v in kripke_violations(model)]
        assert "domain-monotonicity" in codes

    def test_empty_worlds(self):
        model = assemble_kripke_model([], [], {}, {})
        assert [v.code for v in kripke_violations(model)] == ["empty-worlds"]

    def test_order_is_closed(self):
        future = closed_frame(("w0", "w1", "w2"), [("w0", "w1"), ("w1", "w2")])
        assert "w2" in future["w0"]
        assert "w0" in future["w0"]

    def test_growing_domains_accepted(self):
        model = validate_kripke_model(
            ["w0", "w1"],
            [("w0", "w1")],
            {"w0": ("a1",), "w1": ("a1", "a2")},
            {("w1", "P", ("a2",)): 1},
        )
        assert not model.constant_domain

    def test_validation_error_raises_with_all_violations(self):
        with pytest.raises(ModelValidationError) as err:
            validate_kripke_model(
                ["w0", "w1"],
                [("w0", "w1")],
                {"w0": ("a1", "a2"), "w1": ("a1",)},
                {("w0", "p", ()): 1, ("w1", "p", ()): 0},
            )
        codes = {v.code for v in err.value.violations}
        assert codes == {"domain-monotonicity", "heredity"}


# one assembled model breaking each invariant, by violation code
BROKEN_MODELS = {
    "empty-worlds": ([], [], {}, {}),
    "repeated-world": (["w0", "w0"], [], {"w0": ("a1",)}, {}),
    "missing-domain": (["w0", "w1"], [("w0", "w1")], {"w0": ("a1",)}, {}),
    "empty-domain": (["w0", "w1"], [], {"w0": ("a1",), "w1": ()}, {}),
    "repeated-element": (["w0"], [], {"w0": ("a1", "a2", "a1")}, {}),
    "domain-monotonicity": (
        ["w0", "w1"], [("w0", "w1")], {"w0": ("a1", "a2"), "w1": ("a1",)}, {}),
    "interp-unknown-world": (["w0"], [], {"w0": ("a1",)}, {("w9", "p", ()): 1}),
    "bad-value": (["w0"], [], {"w0": ("a1",)}, {("w0", "p", ()): 2}),
    "interp-out-of-domain": (["w0"], [], {"w0": ("a1",)}, {("w0", "P", ("a9",)): 1}),
    "heredity": (
        ["w0", "w1", "w2"], [("w0", "w1"), ("w1", "w2")],
        {w: ("a1",) for w in ("w0", "w1", "w2")}, {("w0", "p", ()): 1, ("w1", "p", ()): 1}),
}


class TestViolationsAgainstScalar:
    """kripke_violations passes a valid model by one unsorted scan and
    lists the witnesses by a sorted scan only when that one finds a
    violation; the old sorted scan alone is the reference."""

    @pytest.mark.parametrize("code", sorted(BROKEN_MODELS))
    def test_each_violation_code(self, code):
        model = assemble_kripke_model(*BROKEN_MODELS[code])
        violations = kripke_violations(model)
        assert code in {v.code for v in violations}
        assert violations == scalar_reference.kripke_violations(model)

    def test_random_models(self):
        rng = random.Random(29)
        for _ in range(300):
            model = random_kripke_model(rng, 3, 2, constant_domain=rng.random() < 0.5)
            assert kripke_violations(model) == scalar_reference.kripke_violations(model) == []

    def test_random_models_broken_by_one_entry(self):
        rng = random.Random(31)
        seen = set()
        for _ in range(300):
            model = random_kripke_model(rng, 3, 2)
            interp, domains = dict(model.interp), dict(model.domains)
            w = rng.choice(model.worlds)
            if rng.random() < 0.5:
                interp[(w, rng.choice("pq"), ())] = rng.choice((0, 1, 1, 2))
            else:
                domains[w] = domains[w][:-1] or domains[w] + domains[w]
            broken = assemble_kripke_model(
                model.worlds, scalar_reference.order_pairs(model), domains, interp)
            violations = kripke_violations(broken)
            assert violations == scalar_reference.kripke_violations(broken)
            seen.update(v.code for v in violations)
        assert {"heredity", "bad-value", "domain-monotonicity"} <= seen


class TestEval:
    def test_single_world_matches_classical(self):
        rng = random.Random(17)
        from cdkripke.suites import random_formula

        for _ in range(200):
            bits = [rng.randint(0, 1) for _ in range(4)]
            classical = ClassicalModel(
                ("a1", "a2"),
                {
                    ("p", ()): bits[0],
                    ("q", ()): bits[1],
                    ("P", ("a1",)): bits[2],
                    ("P", ("a2",)): bits[3],
                },
            )
            lifted = validate_kripke_model(
                ["w0"],
                [],
                {"w0": classical.domain},
                {("w0", pred, args): v for (pred, args), v in classical.interp.items()},
            )
            f = random_formula(rng, SIG, depth=4)
            rho = {"x": "a1"} if f.fv else {}
            assert KripkeEvaluator(lifted, SIG).value(f, "w0", rho) == (
                ClassicalEvaluator(classical, SIG).value(f, rho))

    def test_kstar_negation_of_p_is_false_at_root(self):
        # p holds at the later world, so the c-negation fails already at w0
        f = parse_formula("nand(p, p)", SIG)
        assert KripkeEvaluator(kstar(), SIG).value(f, "w0", {}) == 0

    def test_kstar_atomic_values(self):
        evaluator = KripkeEvaluator(kstar(), SIG)
        assert evaluator.value(Atom("p"), "w0", {}) == 0
        assert evaluator.value(Atom("p"), "w1", {}) == 1

    def test_unknown_world(self):
        with pytest.raises(UsageError):
            KripkeEvaluator(kstar(), SIG).value(Atom("p"), "w9", {})

    def test_assignment_outside_domain(self):
        with pytest.raises(UsageError):
            KripkeEvaluator(kstar(), SIG).value(Atom("P", ("x",)), "w0", {"x": "b4"})

    def test_unbound_variable(self):
        with pytest.raises(UsageError):
            KripkeEvaluator(kstar(), SIG).value(Atom("P", ("x",)), "w0", {})

    def test_matches_naive_oracle_on_random_models(self):
        rng = random.Random(23)
        from cdkripke.suites import random_formula, random_kripke_model

        for _ in range(300):
            model = random_kripke_model(rng)
            f = random_formula(rng, SIG, depth=4)
            rho = {"x": "a1"} if f.fv else {}
            evaluator = KripkeEvaluator(model, SIG)
            for w in model.worlds:
                assert evaluator.value(f, w, rho) == naive_kripke_value(
                    model, SIG, w, rho, f
                )


class TestSequents:
    def test_identity_sequent(self):
        s = Sequent([Atom("p")], [Atom("p")])
        assert model_validity(kstar(), s, SIG) == Valid()

    def test_double_negation_refuted_at_root(self):
        s = parse_sequent("nand(nand(p,p), nand(p,p)) => p", SIG)
        assert model_validity(kstar(), s, SIG) == Failure("w0", {})

    def test_empty_sequent(self):
        # refuted at every world, so at the first
        assert model_validity(kstar(), Sequent([], []), SIG) == Failure("w0", {})


class TestModelValidity:
    def test_failure_carries_first_world(self):
        verdict = model_validity(kstar(), parse_sequent("=> p", SIG), SIG)
        assert verdict == Failure("w0", {})

    def test_valid_sequent(self):
        verdict = model_validity(kstar(), parse_sequent("p => p", SIG), SIG)
        assert isinstance(verdict, Valid)

    def test_single_world_lift_of_countermodel_fails(self):
        from cdkripke.classical import decide_propositional
        from cdkripke.collapse import lift_classical

        s = parse_sequent("=> or(p, q)", SIG)
        countermodel = decide_propositional(SIG, s).model
        verdict = model_validity(lift_classical(countermodel), s, SIG)
        assert isinstance(verdict, Failure)


class TestHeredityChecker:
    def test_atomic_in_validated_model(self):
        assert check_heredity(kstar(), Atom("p"), {}, SIG)

    def test_single_world_model(self):
        model = validate_kripke_model(["w0"], [], {"w0": ("a1",)}, {})
        assert check_heredity(model, parse_formula("nand(p, p)", SIG), {}, SIG)

    def test_injected_violation_caught(self):
        broken = assemble_kripke_model(
            ["w0", "w1"],
            [("w0", "w1")],
            {"w0": ("a1",), "w1": ("a1",)},
            {("w0", "p", ()): 1},
        )
        assert kripke_violations(broken)  # really is invalid
        assert not check_heredity(broken, Atom("p"), {}, SIG)


class TestPreorders:
    def test_counts(self):
        assert len(enumerate_preorders(1)) == 1
        assert len(enumerate_preorders(2)) == 4
        assert len(enumerate_preorders(3)) == 29
        assert len(enumerate_preorders(1, up_to_iso=True)) == 1
        assert len(enumerate_preorders(2, up_to_iso=True)) == 3
        assert len(enumerate_preorders(3, up_to_iso=True)) == 9

    def test_matches_closures_of_every_digraph(self):
        for n in range(5):
            assert enumerate_preorders(n) == scalar_reference.preorders(n)
        assert [len(enumerate_preorders(n, up_to_iso=True)) for n in range(5)] == [1, 1, 3, 9, 33]

    def test_five_worlds(self):
        # OEIS A000798 and A001930
        assert len(enumerate_preorders(5)) == 6942
        assert len(enumerate_preorders(5, up_to_iso=True)) == 139

    def test_frame_vectors_are_the_monotone_world_vectors(self):
        for n in range(5):
            for matrix, (_, worlds, future, vectors, _) in zip(enumerate_preorders(n), _frames(n)):
                assert vectors == tuple(scalar_reference.monotone_world_vectors(matrix))
                pairs = [(worlds[i], worlds[j]) for i in range(n) for j in range(n) if matrix[i][j]]
                assert future == closed_frame(worlds, pairs)

    def test_matrices_are_reflexive_transitive(self):
        for matrix in enumerate_preorders(3):
            n = len(matrix)
            for i in range(n):
                assert matrix[i][i]
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if matrix[i][j] and matrix[j][k]:
                            assert matrix[i][k]

    def test_monotone_vectors_on_chain(self):
        chain = ((True, True), (False, True))
        assert scalar_reference.monotone_world_vectors(chain) == [(0, 0), (0, 1), (1, 1)]


class TestCdSearch:
    def test_peirce_countermodel_on_two_chain(self):
        s = parse_sequent("=> implies(implies(implies(p,q),p),p)", SIG)
        verdict = bounded_cd_countermodel_search(SIG, s, 2, 1)
        assert isinstance(verdict, CdCountermodel)
        model = verdict.model
        # a genuine refutation, not just any model
        assert model_validity(model, s, SIG) == Failure(verdict.world, {})

    def test_identity_never_refuted(self):
        s = parse_sequent("p => p", SIG)
        assert bounded_cd_countermodel_search(SIG, s, 2, 2) == NoCountermodelUpTo(2, 2)

    def test_tau_has_no_countermodel_at_bound(self):
        s = parse_sequent("=> implies(s, s)", SIG)
        assert bounded_cd_countermodel_search(SIG, s, 3, 2) == NoCountermodelUpTo(3, 2)

    def test_cap(self, monkeypatch):
        s = parse_sequent("P(x) => P(x)", SIG)
        monkeypatch.setenv("CDKRIPKE_MAX_ENUM", "50")
        with pytest.raises(EnumerationCapError):
            bounded_cd_countermodel_search(SIG, s, 3, 2)

    def test_enumerated_models_are_valid_and_constant_domain(self):
        count = 0
        for model in enumerate_cd_models({"p": 0, "P": 1}, 2, 2):
            assert model.constant_domain
            assert not kripke_violations(model)
            count += 1
        assert count == sum(
            len(scalar_reference.monotone_world_vectors(m)) ** (1 + d)
            for m in enumerate_preorders(1)
            for d in (1, 2)
        ) + sum(
            len(scalar_reference.monotone_world_vectors(m)) ** (1 + d)
            for m in enumerate_preorders(2)
            for d in (1, 2)
        )


def propositional_formulas(depth, atoms):
    layers = [list(atoms)]
    for _ in range(depth - 1):
        smaller = [f for layer in layers for f in layer]
        new = []
        for name in ("and", "or"):
            for args in itertools.product(smaller, repeat=2):
                new.append(Conn(name, args))
        layers.append(new)
    return [f for layer in layers for f in layer]


def present_world_value(model, sig, w, rho, f):
    """The textbook clause: conjunction and disjunction looked up at the
    present world only."""
    if isinstance(f, Atom):
        return model.interp.get((w, f.pred, tuple(rho[x] for x in f.args)), 0)
    if isinstance(f, Conn):
        table = sig.table(f.name)
        return table.value([present_world_value(model, sig, w, rho, g) for g in f.args])
    if isinstance(f, Forall):
        return int(
            all(
                present_world_value(model, sig, v, {**rho, f.var: a}, f.body) == 1
                for v in model.future[w]
                for a in model.domains[v]
            )
        )
    return int(
        any(
            present_world_value(model, sig, w, {**rho, f.var: a}, f.body) == 1
            for a in model.domains[w]
        )
    )


class TestPresentWorldEquivalence:
    def test_and_or_future_clause_equals_present_world_exhaustively(self):
        """For the standard conjunction and disjunction tables the
        future-world clause computes the same value as the usual
        present-world clause, on every model with <= 3 worlds and two
        propositional symbols."""
        sig = standard_signature("and", "or")
        formulas = propositional_formulas(3, (Atom("p"), Atom("q")))
        checked = 0
        for model in enumerate_cd_models({"p": 0, "q": 0}, 3, 1):
            evaluator = KripkeEvaluator(model, sig)
            for f in formulas:
                for w in model.worlds:
                    assert evaluator.value(f, w, {}) == present_world_value(
                        model, sig, w, {}, f
                    )
                    checked += 1
        assert checked > 100_000

    def test_universal_clause_equals_present_world_on_constant_domains(self):
        # the evaluator asserts this internally as well; here both routes
        # are compared through an independent recursion
        sig = standard_signature("and", "or")
        f = parse_formula("forall x. or(P(x), p)", sig)
        for model in enumerate_cd_models({"p": 0, "P": 1}, 2, 2):
            evaluator = KripkeEvaluator(model, sig)
            for w in model.worlds:
                domain = model.domains[w]
                present = int(
                    all(
                        naive_kripke_value(model, sig, w, {"x": a}, f.body) == 1
                        for a in domain
                    )
                )
                assert evaluator.value(f, w, {}) == present


class TestStoredFrame:
    """A model stores its frame once, as future, and derives
    constant_domain from its domains, so a model that
    dataclasses.replace changes reads the fields it was given."""

    def test_replaced_domains_are_read(self):
        constant = validate_kripke_model(
            ["w0", "w1"], [("w0", "w1")], {"w0": ("a1",), "w1": ("a1",)},
            {("w0", "P", ("a1",)): 1, ("w1", "P", ("a1",)): 1})
        assert constant.constant_domain
        growing = replace(constant, domains={"w0": ("a1",), "w1": ("a1", "a2")})
        assert not growing.constant_domain
        assert not kripke_violations(growing)
        # a2 exists at w1 and lacks P there
        evaluator = KripkeEvaluator(growing, SIG)
        assert [evaluator.value(parse_formula("forall x. P(x)", SIG), w, {})
                for w in growing.worlds] == [0, 0]

    def test_model_file_writes_the_replaced_frame(self):
        discrete = validate_kripke_model(["w0", "w1"], [], {"w0": ("a1",), "w1": ("a1",)}, {})
        assert kripke_model_to_json(discrete)["order"] == [["w0", "w0"], ["w1", "w1"]]
        chain = replace(discrete, future={"w0": ("w0", "w1"), "w1": ("w1",)})
        assert kripke_model_to_json(chain)["order"] == [["w0", "w0"], ["w0", "w1"], ["w1", "w1"]]

    @pytest.mark.parametrize("future, expected", [
        # w0 not above itself, and w1 missing from the map
        ({"w0": ("w1",), "w1": ("w1",)}, [("non-reflexive", {"world": "w0"})]),
        ({"w0": ("w0", "w1")}, [("non-reflexive", {"world": "w1"})]),
        # w0 sees w1 and w1 sees w2, but w0 does not see w2
        ({"w0": ("w0", "w1"), "w1": ("w1", "w2"), "w2": ("w2",)},
         [("non-transitive", {"from": "w0", "via": "w1", "to": "w2"})]),
        ({"w0": ("w0", "w9"), "w1": ("w1",), "w2": ("w2",)},
         [("unknown-world-in-future", {"from": "w0", "to": "w9"})]),
    ])
    def test_the_stored_frame_is_validated(self, future, expected):
        # evaluation reads the frame unchecked, so validation checks it
        # as stored rather than closing it again
        worlds = ("w0", "w1", "w2") if "w2" in future else ("w0", "w1")
        model = KripkeModel(worlds, future, {w: ("a1",) for w in worlds},
                            {(w, "p", ()): 1 for w in worlds[1:]})
        violations = kripke_violations(model)
        assert [(v.code, v.details) for v in violations] == expected
        assert violations == scalar_reference.kripke_violations(model)
        with pytest.raises(ModelValidationError):
            require_valid(model)


class TestModelFiles:
    def test_round_trip(self):
        model = kstar()
        again = kripke_model_from_json(kripke_model_to_json(model))
        assert again == model

    def test_constant_domain_shorthand(self):
        obj = {
            "worlds": ["w0", "w1"],
            "order": [["w0", "w1"]],
            "domain": ["a1"],
            "interp": [{"world": "w1", "pred": "p", "args": [], "value": 1}],
        }
        model = kripke_model_from_json(obj)
        assert model.constant_domain
        assert model.domains["w0"] == ("a1",)

    def test_unknown_world_in_order(self):
        obj = {"worlds": ["w0"], "order": [["w0", "w9"]], "domain": ["a1"], "interp": []}
        with pytest.raises(ModelValidationError):
            kripke_model_from_json(obj)

    def test_heredity_violation_in_file(self):
        obj = {
            "worlds": ["w0", "w1"],
            "order": [["w0", "w1"]],
            "domain": ["a1"],
            "interp": [
                {"world": "w0", "pred": "p", "args": [], "value": 1},
                {"world": "w1", "pred": "p", "args": [], "value": 0},
            ],
        }
        with pytest.raises(ModelValidationError):
            kripke_model_from_json(obj)
