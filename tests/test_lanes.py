"""The lane core against the scalar evaluators, and invariance checks.

The reference below is the one-model-at-a-time comparison that the lane
core replaced: a memoized Kripke evaluator for the world profile and one
classical evaluator per world projection.
"""

import itertools
import random

import pytest

from cdkripke.classical import ClassicalEvaluator, Valid, decide_propositional
from cdkripke.collapse import (
    check_collapse,
    enumerate_formulas,
    project_world,
    run_collapse_sweep,
)
from cdkripke.kripke import (
    CdCountermodel,
    Failure,
    KripkeEvaluator,
    NoCountermodelUpTo,
    bounded_cd_countermodel_search,
    cd_model_batches,
    enumerate_cd_models,
    model_validity,
    validate_kripke_model,
)
from cdkripke.lanes import Lanes
from cdkripke.suites import (
    MIXED_SIGNATURE,
    MONOTONE_SIGNATURE,
    random_formula,
    random_kripke_model,
    random_propositional_sequent,
)
from cdkripke.syntax import (
    Atom,
    Forall,
    Sequent,
    free_vars,
    parse_formula,
    predicates,
)
from cdkripke.truthfn import standard_signature

PREDS = {"p": 0, "q": 0, "P": 1}
ATOMS = [Atom("p"), Atom("q"), Atom("P", ("x",))]
IMPLIES = standard_signature("implies")


def scalar_collapse(model, formulas, sig, assignments=None):
    """(checked, pairs, disagreements) from the scalar evaluators."""
    worlds = model.worlds
    kripke = KripkeEvaluator(model, sig)
    classical = [ClassicalEvaluator(project_world(model, w), sig) for w in worlds]
    domain = model.domains[worlds[0]]
    checked, pairs, disagreements = 0, [], []
    for f in formulas:
        rhos = assignments
        if rhos is None:
            rhos = [dict(zip(f.fvs, values))
                    for values in itertools.product(domain, repeat=len(f.fvs))]
        for rho in rhos:
            profile = kripke.profile(f, rho)
            checked += len(worlds)
            for i, w in enumerate(worlds):
                entry = (w, f, tuple(sorted(rho.items())), profile[i],
                         classical[i].value(f, rho))
                pairs.append(entry)
                if entry[3] != entry[4]:
                    disagreements.append(entry)
    return checked, pairs, disagreements


def random_cd_model(rng):
    return random_kripke_model(rng, max_worlds=4, max_domain=3, constant_domain=True)


class TestCheckCollapseAgainstScalar:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_models_mixed_signature(self, seed):
        rng = random.Random(9_100 + seed)
        for _ in range(25):
            model = random_cd_model(rng)
            formulas = [random_formula(rng, MIXED_SIGNATURE, depth=5) for _ in range(12)]
            formulas += formulas[:3]  # repeated entries are checked again
            report = check_collapse(model, formulas, MIXED_SIGNATURE, precheck=False)
            checked, pairs, disagreements = scalar_collapse(model, formulas, MIXED_SIGNATURE)
            assert report.checked == checked
            assert report.pairs == pairs
            assert report.disagreements == disagreements

    def test_fixed_assignments(self):
        rng = random.Random(9_200)
        for _ in range(40):
            model = random_cd_model(rng)
            domain = model.domains[model.worlds[0]]
            rhos = [{"x": a, "y": domain[0]} for a in reversed(domain)]
            formulas = [random_formula(rng, MIXED_SIGNATURE, depth=4) for _ in range(6)]
            report = check_collapse(model, formulas, MIXED_SIGNATURE,
                                    assignments=rhos, precheck=False)
            checked, pairs, disagreements = scalar_collapse(
                model, formulas, MIXED_SIGNATURE, rhos)
            assert (report.checked, report.pairs, report.disagreements) == (
                checked, pairs, disagreements)

    def test_implies_disagreement_found(self):
        model = validate_kripke_model(
            ["w0", "w1"], [("w0", "w1")], {"w0": ("a1",), "w1": ("a1",)},
            {("w1", "p", ()): 1})
        f = parse_formula("implies(implies(p, q), p)", IMPLIES)
        report = check_collapse(model, [f], IMPLIES, precheck=False)
        assert report.disagreements == [("w0", f, (), 1, 0)]


def scalar_sweep_disagreements(sig, max_worlds, max_domain, depth):
    formulas = enumerate_formulas(sig, ATOMS, depth)
    out = []
    for model in enumerate_cd_models(PREDS, max_worlds, max_domain, up_to_iso=True):
        out.extend(scalar_collapse(model, formulas, sig)[2][:100])
    return out


class TestSweepAgainstScalar:
    def test_implies_control(self, monkeypatch):
        # the sweep refuses non-monotone connectives; lift that guard to
        # compare the batch path on a signature where disagreements exist
        monkeypatch.setattr("cdkripke.collapse.require_monotone", lambda *args: None)
        report = run_collapse_sweep(IMPLIES, max_worlds=2, max_domain=1, depth=3)
        expected = scalar_sweep_disagreements(IMPLIES, 2, 1, 3)
        assert len(expected) == 630
        assert report.disagreements == expected

    def test_batches_expand_to_enumerated_models(self):
        batched = [m for b in cd_model_batches(PREDS, 2, 2) for m in b.models()]
        assert batched == list(enumerate_cd_models(PREDS, 2, 2))

    def test_batch_lanes_match_single_models(self):
        sig = standard_signature("implies", "not")
        formulas = enumerate_formulas(sig, ATOMS, 3)[::7]
        for batch in cd_model_batches(PREDS, 3, 1, up_to_iso=True):
            lanes = Lanes.for_batch(batch, sig)
            width, n = lanes.width, len(batch.worlds)
            for index, model in enumerate(batch.models()):
                single = Lanes.for_model(model, sig)

                def column(mask):
                    return sum((mask >> (i * width + index) & 1) << i for i in range(n))

                for f in formulas:
                    k, c = lanes.value(f, {"x": "a1"})
                    assert (column(k), column(c)) == single.value(f, {"x": "a1"})


class TestMetamorphic:
    def test_labelled_sweep_matches_iso_reduced(self):
        mono = standard_signature("and", "or")
        labelled = run_collapse_sweep(mono, max_worlds=3, max_domain=2, depth=3,
                                      up_to_iso=False)
        assert labelled.agreement
        assert labelled.models == len(list(enumerate_cd_models(PREDS, 3, 2, up_to_iso=False)))
        assert labelled.models == 22_316

    @pytest.mark.parametrize("seed", range(4))
    def test_renaming_worlds_and_elements(self, seed):
        rng = random.Random(9_300 + seed)
        for _ in range(30):
            model = random_cd_model(rng)
            worlds = list(model.worlds)
            domain = list(model.domains[worlds[0]])
            new_worlds = [f"v{k}" for k in rng.sample(range(10), len(worlds))]
            new_elems = [f"e{k}" for k in rng.sample(range(10), len(domain))]
            wmap, emap = dict(zip(worlds, new_worlds)), dict(zip(domain, new_elems))
            renamed = validate_kripke_model(
                [wmap[w] for w in rng.sample(worlds, len(worlds))],
                [(wmap[w], wmap[v]) for (w, v) in model.order],
                {wmap[w]: tuple(emap[a] for a in model.domains[w]) for w in worlds},
                {(wmap[w], pred, tuple(emap[a] for a in args)): value
                 for (w, pred, args), value in model.interp.items()},
            )
            formulas = [random_formula(rng, MIXED_SIGNATURE, depth=4) for _ in range(10)]
            before = check_collapse(model, formulas, MIXED_SIGNATURE, precheck=False)
            after = check_collapse(renamed, formulas, MIXED_SIGNATURE, precheck=False)
            assert after.agreement == before.agreement
            assert after.checked == before.checked
            assert len(after.disagreements) == len(before.disagreements)


def scalar_cd_search(sig, s, max_worlds, max_domain):
    """The one-model-at-a-time search the lane search replaced: models in
    enumerate_cd_models order, first model_validity Failure wins."""
    for model in enumerate_cd_models(predicates(s), max_worlds, max_domain):
        verdict = model_validity(model, s, sig)
        if isinstance(verdict, Failure):
            return CdCountermodel(model, verdict.world, verdict.assignment)
    return NoCountermodelUpTo(max_worlds, max_domain)


def random_sequent(rng, sig, free):
    """A random sequent of 1-3 formulas; free says whether x occurs free."""
    while True:
        formulas = [random_formula(rng, sig, depth=4) for _ in range(rng.randint(1, 3))]
        cut = rng.randint(0, len(formulas))
        s = Sequent(formulas[:cut], formulas[cut:])
        if bool(free_vars(s)) == free:
            return s


class TestCdSearchAgainstScalar:
    @pytest.mark.parametrize("bounds", [(3, 1), (2, 2)])
    @pytest.mark.parametrize("free", [False, True])
    @pytest.mark.parametrize("sig", [MIXED_SIGNATURE, MONOTONE_SIGNATURE],
                             ids=["mixed", "monotone"])
    def test_random_sequents(self, sig, free, bounds):
        rng = random.Random(9_400 + 2 * bounds[0] + free)
        for _ in range(25):
            s = random_sequent(rng, sig, free)
            assert bounded_cd_countermodel_search(sig, s, *bounds) == (
                scalar_cd_search(sig, s, *bounds)), str(s)

    def test_several_failing_lanes_first_in_order(self):
        # classically refuted only on domain 2: in that batch models 1
        # (P(a2)) and 2 (P(a1)) both fail, at assignments x=a2 and x=a1;
        # the first model wins over the first assignment
        sig = MONOTONE_SIGNATURE
        s = Sequent([Atom("P", ("x",))], [Forall("y", Atom("P", ("y",)))])
        batch = list(cd_model_batches(predicates(s), 2, 2))[1]
        lanes = Lanes.for_batch(batch, sig)
        failing = [
            lanes.value(Atom("P", ("x",)), {"x": a})[0]
            & ~lanes.value(Forall("y", Atom("P", ("y",))), {"x": a})[0]
            for a in batch.domain
        ]
        assert failing == [0b0100, 0b0010]
        verdict = bounded_cd_countermodel_search(sig, s, 2, 2)
        assert verdict == scalar_cd_search(sig, s, 2, 2)
        assert verdict.model == batch.model(1)
        assert (verdict.world, verdict.assignment) == ("w0", {"x": "a2"})

    def test_classically_valid_sequents_reach_larger_frames(self):
        # random sequents are mostly refuted by a one-world model; the
        # classically valid ones are refuted, if at all, on 2-3 worlds
        rng = random.Random(9_500)
        sizes = set()
        checked = 0
        while checked < 20:
            s = random_propositional_sequent(rng, MIXED_SIGNATURE, depth=4)
            if not isinstance(decide_propositional(MIXED_SIGNATURE, s), Valid):
                continue
            checked += 1
            verdict = bounded_cd_countermodel_search(MIXED_SIGNATURE, s, 3, 1)
            assert verdict == scalar_cd_search(MIXED_SIGNATURE, s, 3, 1), str(s)
            sizes.add(len(verdict.model.worlds) if isinstance(verdict, CdCountermodel) else 0)
        assert {0, 2, 3} <= sizes
