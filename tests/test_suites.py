import random

from cdkripke.kripke import assemble_kripke_model, check_heredity, kripke_violations
from cdkripke.suites import (
    FuzzReport,
    random_formula,
    random_kripke_model,
    random_propositional_sequent,
    run_collapse_suite,
    run_fuzz,
    run_heredity_suite,
    run_lift_suite,
)
from cdkripke.syntax import Atom, free_vars, predicate_shape
from cdkripke.truthfn import standard_signature

SIG = standard_signature("and", "or", "implies", "nand", "xor", "not")


class TestGenerators:
    def test_random_models_always_validate(self):
        rng = random.Random(1)
        for _ in range(200):
            model = random_kripke_model(rng)
            assert not kripke_violations(model)

    def test_constant_domain_flag(self):
        rng = random.Random(2)
        for _ in range(50):
            assert random_kripke_model(rng, constant_domain=True).constant_domain

    def test_random_formula_depth_and_freedom(self):
        rng = random.Random(3)
        for _ in range(100):
            f = random_formula(rng, SIG, depth=4)
            assert free_vars(f) <= {"x"}

    def test_random_sequents_are_propositional(self):
        rng = random.Random(4)
        for _ in range(100):
            s = random_propositional_sequent(rng, SIG)
            assert predicate_shape(s)[1]
            assert s.succedent


class TestSuites:
    def test_heredity_clean(self):
        report = run_heredity_suite(seed=101, trials=500)
        assert report.passed and report.trials == 500

    def test_lift_clean(self):
        report = run_lift_suite(seed=101, trials=300)
        assert report.passed

    def test_collapse_clean(self):
        report = run_collapse_suite(seed=101, trials=500)
        assert report.passed

    def test_reports_deterministic_for_seed(self):
        a = run_fuzz(seed=77, trials=200)
        b = run_fuzz(seed=77, trials=200)
        assert a.render() == b.render()
        assert a.to_json() == b.to_json()

    def test_fuzz_aggregates(self):
        report = run_fuzz(seed=5, trials=100)
        assert isinstance(report, FuzzReport)
        assert [r.name for r in report.reports] == ["heredity", "lift", "collapse"]
        assert report.passed


class TestNegativeControl:
    def test_injected_non_hereditary_model_is_caught(self):
        broken = assemble_kripke_model(
            ["w0", "w1"],
            [("w0", "w1")],
            {"w0": ("a1",), "w1": ("a1",)},
            {("w0", "p", ()): 1},  # true now, false later
        )
        assert kripke_violations(broken)
        assert not check_heredity(broken, Atom("p"), {}, SIG)
