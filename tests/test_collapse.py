import itertools
import random

import pytest

from cdkripke.classical import ClassicalModel, Countermodel, decide_propositional
from cdkripke.collapse import (
    check_collapse,
    enumerate_formulas,
    lift_classical,
    project_world,
    require_monotone,
    run_collapse_sweep,
)
from cdkripke.errors import UsageError
from cdkripke.kripke import (
    Failure,
    NoCountermodelUpTo,
    bounded_cd_countermodel_search,
    model_validity,
    validate_kripke_model,
)
from cdkripke.syntax import Atom, Conn, Exists, Forall, connective_names, parse_formula
from cdkripke.truthfn import standard_signature

MONO = standard_signature("and", "or")
SIG = standard_signature("and", "or", "implies", "nand", "xor", "not")


def kstar():
    return validate_kripke_model(
        ["w0", "w1"],
        [("w0", "w1")],
        {"w0": ("a1",), "w1": ("a1",)},
        {("w1", "p", ()): 1},
    )


def kplus():
    return validate_kripke_model(
        ["w0", "w1"],
        [("w0", "w1")],
        {"w0": ("a1",), "w1": ("a1",)},
        {("w1", "p", ()): 1, ("w0", "r", ()): 1, ("w1", "r", ()): 1},
    )


class TestProjection:
    def test_kstar_top_world(self):
        m = project_world(kstar(), "w1")
        assert m.value("p", ()) == 1
        assert m.value("q", ()) == 0

    def test_kplus_root(self):
        m = project_world(kplus(), "w0")
        assert m.value("p", ()) == 0
        assert m.value("q", ()) == 0
        assert m.value("r", ()) == 1

    def test_round_trip_through_lift(self):
        classical = ClassicalModel(("a1", "a2"), {("P", ("a1",)): 1, ("p", ()): 1})
        lifted = lift_classical(classical)
        assert project_world(lifted, "w0") == classical

    def test_requires_constant_domain(self):
        growing = validate_kripke_model(
            ["w0", "w1"],
            [("w0", "w1")],
            {"w0": ("a1",), "w1": ("a1", "a2")},
            {},
        )
        with pytest.raises(UsageError):
            project_world(growing, "w0")

    def test_unknown_world(self):
        with pytest.raises(UsageError):
            project_world(kstar(), "w7")


class TestLift:
    def test_lift_validates_and_is_constant_domain(self):
        m = lift_classical(ClassicalModel(("a1",), {("p", ()): 0}))
        assert m.constant_domain
        assert m.worlds == ("w0",)

    def test_lift_of_refuting_model_refutes(self):
        from cdkripke.syntax import parse_sequent

        s = parse_sequent("=> p", SIG)
        verdict = decide_propositional(SIG, s)
        assert isinstance(verdict, Countermodel)
        lifted = lift_classical(verdict.model)
        assert isinstance(model_validity(lifted, s, SIG), Failure)


class TestCheckCollapse:
    def test_monotone_agreement_on_seeded_models(self):
        rng = random.Random(99)
        from cdkripke.suites import random_formula, random_kripke_model

        for _ in range(100):
            model = random_kripke_model(rng, constant_domain=True)
            formulas = [random_formula(rng, MONO, depth=3) for _ in range(3)]
            report = check_collapse(model, formulas, MONO, keep_pairs=True)
            assert report.agreement
            assert report.checked == len(report.pairs) > 0

    def test_quantified_formula_agreement(self):
        f = parse_formula("forall x. or(P(x), q)", MONO)
        rng = random.Random(3)
        from cdkripke.suites import random_kripke_model

        for _ in range(50):
            model = random_kripke_model(rng, constant_domain=True)
            assert check_collapse(model, [f], MONO).agreement

    def test_refuses_non_monotone_with_witness(self):
        f = parse_formula("implies(p, q)", SIG)
        with pytest.raises(UsageError) as err:
            check_collapse(kstar(), [f], SIG)
        assert "implies" in str(err.value)
        assert "(0, 0)" in str(err.value) and "(1, 0)" in str(err.value)

    def test_requires_constant_domain(self):
        growing = validate_kripke_model(
            ["w0", "w1"],
            [("w0", "w1")],
            {"w0": ("a1",), "w1": ("a1", "a2")},
            {},
        )
        with pytest.raises(UsageError):
            check_collapse(growing, [Atom("p")], MONO)


class TestFormulaEnumeration:
    def test_depth_counts(self):
        atoms = [Atom("p"), Atom("q"), Atom("P", ("x",))]
        d1 = enumerate_formulas(MONO, atoms, 1)
        d2 = enumerate_formulas(MONO, atoms, 2)
        d3 = enumerate_formulas(MONO, atoms, 3)
        assert len(d1) == 3
        # 3 atoms + 2 connectives on 3x3 pairs + 2 quantifiers on 3 bodies
        assert len(d2) == 3 + 2 * 9 + 2 * 3
        # depth 3 adds the pairs with a member of depth 2 and the
        # quantified formulas of depth 2
        assert len(d3) == len(d2) + 2 * (len(d2) ** 2 - len(d1) ** 2) + 2 * (len(d2) - len(d1))
        assert len(d3) == len(set(d3)) == 1515

    @pytest.mark.parametrize("names", [("and", "or"), ("implies", "top", "not")])
    def test_each_formula_at_its_first_position(self, names):
        # every layer built from all shorter formulas, as before the
        # inventory was deduplicated, lists the same formulas in the
        # same first-occurrence order
        sig = standard_signature(*names)
        atoms = [Atom("p"), Atom("q"), Atom("P", ("x",))]
        layers = [list(atoms)]
        for _ in range(2):
            smaller = [f for layer in layers for f in layer]
            layers.append(
                [Conn(n, args) for n in sig.names()
                 for args in itertools.product(smaller, repeat=sig.table(n).arity)]
                + [q("x", f) for f in smaller for q in (Forall, Exists)])
        reemitted = [f for layer in layers for f in layer]
        assert enumerate_formulas(sig, atoms, 3) == list(dict.fromkeys(reemitted))

    def test_subformula_sharing(self):
        atoms = [Atom("p")]
        formulas = enumerate_formulas(MONO, atoms, 2)
        conn = next(f for f in formulas if f not in atoms and hasattr(f, "args"))
        assert conn.args[0] is atoms[0]


class TestSmallSweep:
    def test_two_world_sweep_agrees(self):
        report = run_collapse_sweep(MONO, max_worlds=2, max_domain=1, depth=2)
        assert report.agreement
        # one-world frame: 2^3 interps; two-world frames up to iso:
        # discrete 4^3, chain 3^3, two-cycle 2^3 (three slots: p, q, P(a1))
        assert report.models == 8 + 64 + 27 + 8
        assert report.values > 0

    @pytest.mark.parametrize("max_worlds, values", [(2, 2_089_654), (3, 61_552_366)])
    def test_sweep_counts_every_live_comparison_once(self, max_worlds, values):
        # a lane set holds both domain sizes; an assignment
        # of a2 is compared on the domain-2 models only
        report = run_collapse_sweep(MONO, max_worlds=max_worlds, max_domain=2, depth=3)
        assert report.agreement
        assert report.values == values

    def test_sweep_rejects_non_monotone_signature(self):
        with pytest.raises(UsageError):
            run_collapse_sweep(SIG, max_worlds=1, max_domain=1, depth=2)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_sweep_guard_names_what_the_whole_inventory_names(self, depth):
        # the sweep checks only the formulas of depth 2, which hold every
        # connective; its error is the one of the whole inventory, and at
        # depth 1, with no connective, there is none
        atoms = [Atom("p"), Atom("q"), Atom("P", ("x",))]
        sig = standard_signature("xor", "and", "not", "implies")
        try:
            require_monotone(connective_names(enumerate_formulas(sig, atoms, depth)), sig)
        except UsageError as exc:
            expected = str(exc)
        else:
            expected = None
        assert (expected is None) == (depth == 1)
        try:
            run_collapse_sweep(sig, max_worlds=1, max_domain=1, depth=depth)
        except UsageError as exc:
            assert str(exc) == expected
        else:
            assert expected is None


class TestBoundedConsistency:
    def test_classically_valid_monotone_sequents_survive_cd_search(self):
        # a spot check of the full-corpus acceptance criterion
        rng = random.Random(7)
        from cdkripke.suites import random_propositional_sequent

        checked = 0
        for _ in range(40):
            s = random_propositional_sequent(rng, MONO)
            from cdkripke.classical import Valid

            if not isinstance(decide_propositional(MONO, s), Valid):
                continue
            checked += 1
            assert bounded_cd_countermodel_search(MONO, s, 2, 1) == NoCountermodelUpTo(2, 1)
        assert checked > 3
