import random

import pytest

from cdkripke import kripke, suites
from cdkripke.collapse import check_collapse, require_monotone
from cdkripke.errors import ModelValidationError, UsageError
from cdkripke.kripke import Violation, assemble_kripke_model, check_heredity, kripke_violations
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
from cdkripke.syntax import Atom, Conn, connective_names, free_vars, predicate_shape
from cdkripke.truthfn import standard_signature

import scalar_reference

SIG = standard_signature("and", "or", "implies", "nand", "xor", "not")


class TestGenerators:
    def test_random_models_always_validate(self):
        # judged by the scalar scan, not by the one random_kripke_model runs
        rng = random.Random(1)
        for constant_domain in (False, True):
            for _ in range(200):
                model = random_kripke_model(rng, max_worlds=4, max_domain=3,
                                            constant_domain=constant_domain)
                assert not scalar_reference.kripke_violations(model)

    def test_a_reported_violation_is_raised(self, monkeypatch):
        # random_kripke_model validates each model where it is drawn
        flagged = [Violation("heredity", {"from": "w0", "to": "w1", "pred": "p", "args": ()})]
        monkeypatch.setattr(kripke, "kripke_violations", lambda model: flagged)
        with pytest.raises(ModelValidationError) as caught:
            random_kripke_model(random.Random(1))
        assert caught.value.violations == flagged

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


class TestDrawStream:
    """The generators draw what the reference copies in scalar_reference
    draw, from the same seeded stream, and leave it in the same state."""

    SEEDS = range(300)
    SHAPES = [
        {},
        {"constant_domain": True},
        {"max_worlds": 4, "max_domain": 3},
        {"max_worlds": 4, "max_domain": 3, "constant_domain": True},
    ]

    FORMULA_SHAPES = [(SIG, 4, True), (suites.MONOTONE_SIGNATURE, 3, True), (SIG, 3, False)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_models_and_formulas_match_the_reference(self, shape):
        for seed in self.SEEDS:
            ours, ref = random.Random(seed), random.Random(seed)
            for _ in range(3):
                model = random_kripke_model(ours, **shape)
                expected = scalar_reference.random_kripke_model(ref, **shape)
                # equal fields, and the maps in the same insertion order
                assert model == expected and repr(model) == repr(expected)
                for sig, depth, quantifiers in self.FORMULA_SHAPES:
                    f = random_formula(ours, sig, depth, quantifiers=quantifiers)
                    g = scalar_reference.random_formula(ref, sig, depth, quantifiers=quantifiers)
                    assert f == g and repr(f) == repr(g)
            assert ours.getstate() == ref.getstate()

    def test_sequents_match_the_reference(self):
        for seed in self.SEEDS:
            ours, ref = random.Random(seed), random.Random(seed)
            for _ in range(3):
                s = random_propositional_sequent(ours, SIG)
                t = scalar_reference.random_propositional_sequent(ref, SIG)
                assert s == t and str(s) == str(t)
            assert ours.getstate() == ref.getstate()


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


# --- the suites' shared lane sets against one check per trial ---------------

NON_MONOTONE = standard_signature("and", "or", "implies")


def broken_models():
    """Models that bypassed validation, each with atoms true at w0 and
    false above it, of one to three worlds, constant and growing."""
    drop = {("w0", "p", ()): 1, ("w0", "q", ()): 1, ("w0", "P", ("a1",)): 1}
    return [
        assemble_kripke_model(["w0", "w1"], [("w0", "w1")],
                              {"w0": ("a1",), "w1": ("a1",)}, drop),
        assemble_kripke_model(["w0", "w1", "w2"], [("w0", "w1"), ("w1", "w2")],
                              {"w0": ("a1",), "w1": ("a1", "a2"), "w2": ("a1", "a2")},
                              {**drop, ("w1", "p", ()): 1, ("w1", "P", ("a2",)): 1}),
        assemble_kripke_model(["w0", "w1", "w2"], [("w0", "w2"), ("w1", "w2")],
                              {w: ("a1", "a2") for w in ("w0", "w1", "w2")},
                              {**drop, ("w1", "q", ()): 1, ("w0", "P", ("a2",)): 1}),
        assemble_kripke_model(["w0"], [], {"w0": ("a1",)}, {("w0", "p", ()): 1}),
    ]


def slip_in(monkeypatch, at):
    """Patch suites.random_kripke_model so that the trials in at get a
    broken model in place of the drawn one, which is drawn all the same,
    and patch it and suites.random_formula to log what they return:
    returns the log, ("model" or "formula", value) per top-level draw."""
    model_at = suites.random_kripke_model
    formula_at = suites.random_formula
    log, broken, depth = [], broken_models(), [0]

    def random_kripke_model(rng, **kwargs):
        model = model_at(rng, **kwargs)
        trial = sum(kind == "model" for kind, _ in log)
        if trial in at:
            model = broken[at.index(trial) % len(broken)]
        log.append(("model", model))
        return model

    def random_formula(*args, **kwargs):
        # random_formula calls itself by its module name: log the outer calls
        depth[0] += 1
        try:
            f = formula_at(*args, **kwargs)
        finally:
            depth[0] -= 1
        if not depth[0]:
            log.append(("formula", f))
        return f

    monkeypatch.setattr(suites, "random_kripke_model", random_kripke_model)
    monkeypatch.setattr(suites, "random_formula", random_formula)
    return log


def trial_by_trial_heredity(seed, trials, sig=SIG):
    """The heredity suite's violations, one check_heredity per trial."""
    rng = random.Random(seed)
    violations = []
    for i in range(trials):
        model = suites.random_kripke_model(rng)
        f = suites.random_formula(rng, sig, depth=4)
        rho = {"x": "a1"} if f.fv else {}
        if not check_heredity(model, f, rho, sig):
            violations.append(f"trial {i}: {f} drops along the order of {model}")
    return violations


def trial_by_trial_collapse(seed, trials, sig):
    """The collapse suite's violations, one check_collapse per trial."""
    rng = random.Random(seed)
    violations = []
    for i in range(trials):
        model = suites.random_kripke_model(rng, constant_domain=True)
        f = suites.random_formula(rng, sig, depth=3)
        sub = check_collapse(model, [f], sig, keep_pairs=False, precheck=False)
        if not sub.agreement:
            w, g, rho, kv, cv = sub.disagreements[0]
            violations.append(f"trial {i}: {g} at {w} under {dict(rho)}: "
                              f"kripke={kv} classical={cv}")
    return violations


# three lane sets at 128 trials a run; broken models sit at two trials
# in three and at both ends of every run
TRIALS = 2 * suites.RUN_TRIALS + 44
BROKEN_AT = sorted({t for t in range(TRIALS) if t % 3 != 1}
                   | {126, 127, 128, 129, 254, 255, 256, 257})

class TestSharedLaneSets:
    def test_runs_cross_a_lane_set_boundary(self):
        assert suites.RUN_TRIALS < TRIALS - suites.RUN_TRIALS

    @pytest.mark.parametrize("seed", [1, 4])
    def test_heredity_with_broken_models(self, seed, monkeypatch):
        log = slip_in(monkeypatch, BROKEN_AT)
        report = run_heredity_suite(seed, TRIALS)
        drawn = list(log)
        log.clear()
        expected = trial_by_trial_heredity(seed, TRIALS)
        assert drawn == log
        assert [kind for kind, _ in drawn] == ["model", "formula"] * TRIALS
        # some broken trials next to a run's end show a drop
        dropped = {int(v.split()[1][:-1]) for v in expected}
        assert len(dropped) >= 30 and dropped & {126, 127, 128}
        assert dropped <= set(BROKEN_AT)
        assert report.violations == expected

    @pytest.mark.parametrize("names, seed", [
        (("and", "or", "implies"), 39),
        (("nand", "xor", "not"), 1),
    ])
    def test_non_monotone_collapse_without_the_guard(self, names, seed, monkeypatch):
        sig = standard_signature(*names)
        monkeypatch.setattr(suites, "require_monotone", lambda *args: None)
        log = slip_in(monkeypatch, [])
        report = run_collapse_suite(seed, TRIALS, sig=sig)
        drawn = list(log)
        log.clear()
        expected = trial_by_trial_collapse(seed, TRIALS, sig)
        assert drawn == log
        assert [kind for kind, _ in drawn] == ["model", "formula"] * TRIALS
        disagree = {int(v.split()[1][:-1]) for v in expected}
        assert len(disagree) >= 4 and max(disagree) >= suites.RUN_TRIALS
        assert report.violations == expected

    def test_monotone_suites_draw_as_one_check_per_trial(self, monkeypatch):
        log = slip_in(monkeypatch, [])
        assert run_collapse_suite(8, TRIALS).passed
        drawn = list(log)
        log.clear()
        assert trial_by_trial_collapse(8, TRIALS, suites.MONOTONE_SIGNATURE) == []
        assert drawn == log


class TestCollapseGuard:
    @pytest.mark.parametrize("seed", range(40))
    def test_non_monotone_signature_is_refused_before_any_trial(self, seed):
        with pytest.raises(UsageError) as err:
            run_collapse_suite(seed, trials=50, sig=NON_MONOTONE)
        with pytest.raises(UsageError) as expected:
            require_monotone(connective_names([Conn("implies", (Atom("p"), Atom("q")))]),
                             NON_MONOTONE)
        assert str(err.value) == str(expected.value)

    def test_refused_before_the_generator_is_drawn(self, monkeypatch):
        log = slip_in(monkeypatch, [])
        with pytest.raises(UsageError):
            run_collapse_suite(0, trials=50, sig=NON_MONOTONE)
        assert log == []
