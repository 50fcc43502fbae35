"""The lane core against the scalar evaluators, and invariance checks.

The reference below is the one-model-at-a-time comparison that the lane
core replaced: a memoized Kripke evaluator for the world profile and one
classical evaluator per world projection.
"""

import itertools
import random

import pytest

from cdkripke.classical import (
    ClassicalModel,
    Countermodel,
    Valid,
    bounded_fo_validity,
    decide_propositional,
)
from cdkripke.collapse import (
    check_collapse,
    enumerate_formulas,
    project_world,
    run_collapse_sweep,
)
from cdkripke.errors import EnumerationCapError
from cdkripke.kripke import (
    CdCountermodel,
    Failure,
    NoCountermodelUpTo,
    bounded_cd_countermodel_search,
    cd_model_batches,
    enumerate_cd_models,
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
    parse_sequent,
    predicates,
)
from cdkripke.truthfn import Signature, TruthTable, all_tables, standard_signature
from scalar_reference import (
    ClassicalEvaluator,
    KripkeEvaluator,
    close_preorder,
    model_validity,
    order_pairs,
)

PREDS = {"p": 0, "q": 0, "P": 1}
ATOMS = [Atom("p"), Atom("q"), Atom("P", ("x",))]
IMPLIES = standard_signature("implies")


def scalar_collapse(model, formulas, sig):
    """(checked, pairs, disagreements) from the scalar evaluators."""
    worlds = model.worlds
    kripke = KripkeEvaluator(model, sig)
    classical = [ClassicalEvaluator(project_world(model, w), sig) for w in worlds]
    domain = model.domains[worlds[0]]
    checked, pairs, disagreements = 0, [], []
    for f in formulas:
        for values in itertools.product(domain, repeat=len(f.fvs)):
            rho = dict(zip(f.fvs, values))
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

    def test_implies_disagreement_found(self):
        model = validate_kripke_model(
            ["w0", "w1"], [("w0", "w1")], {"w0": ("a1",), "w1": ("a1",)},
            {("w1", "p", ()): 1})
        f = parse_formula("implies(implies(p, q), p)", IMPLIES)
        report = check_collapse(model, [f], IMPLIES, precheck=False)
        assert report.disagreements == [("w0", f, (), 1, 0)]


def scalar_sweep(sig, max_worlds, max_domain, depth):
    """(models, values, disagreements) of the one-model-at-a-time sweep,
    each model keeping its first 100 disagreements."""
    formulas = enumerate_formulas(sig, ATOMS, depth)
    models = values = 0
    out = []
    for model in enumerate_cd_models(PREDS, max_worlds, max_domain, up_to_iso=True):
        checked, _, disagreements = scalar_collapse(model, formulas, sig)
        models += 1
        values += checked
        out.extend(disagreements[:100])
    return models, values, out


def scalar_sweep_disagreements(sig, max_worlds, max_domain, depth):
    return scalar_sweep(sig, max_worlds, max_domain, depth)[2]


class TestSweepAgainstScalar:
    def test_implies_control(self, monkeypatch):
        # the sweep refuses non-monotone connectives; lift that guard to
        # compare the batch path on a signature where disagreements exist
        monkeypatch.setattr("cdkripke.collapse.require_monotone", lambda *args: None)
        report = run_collapse_sweep(IMPLIES, max_worlds=2, max_domain=1, depth=3)
        expected = scalar_sweep_disagreements(IMPLIES, 2, 1, 3)
        assert len(expected) == 612
        assert report.disagreements == expected

    def test_batches_expand_to_enumerated_models(self):
        batched = [m for b in cd_model_batches(PREDS, 2, 2) for m in b.models()]
        assert batched == list(enumerate_cd_models(PREDS, 2, 2))

    def test_batch_lanes_match_single_models(self):
        sig = standard_signature("implies", "not")
        formulas = enumerate_formulas(sig, ATOMS, 3)[::7]
        for batch in cd_model_batches(PREDS, 3, 1, up_to_iso=True):
            lanes = Lanes.for_batches([batch], sig)
            width, n = lanes.width, len(batch.worlds)
            for index, model in enumerate(batch.models()):
                single = Lanes.for_models((model,), sig)

                def column(mask):
                    return mask >> (index * n) & ((1 << n) - 1)

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
                [(wmap[w], wmap[v]) for (w, v) in order_pairs(model)],
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
    @pytest.mark.parametrize("bounds", [(3, 1), (2, 2), (3, 2)])
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
        lanes = Lanes.for_batches([batch], sig)
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

    @pytest.mark.parametrize("bounds", [(3, 1), (2, 2), (3, 2)])
    @pytest.mark.parametrize("sig", [MIXED_SIGNATURE, MONOTONE_SIGNATURE],
                             ids=["mixed", "monotone"])
    def test_classically_valid_first_order_sequents(self, sig, bounds):
        # only these reach the frames of two or more worlds, which the
        # search walks one per isomorphism class
        rng = random.Random(9_800 + 10 * bounds[0] + bounds[1])
        checked = 0
        while checked < 6:
            s = random_sequent(rng, sig, rng.random() < 0.5)
            if isinstance(bounded_fo_validity(sig, s, bounds[1]), Countermodel):
                continue
            checked += 1
            assert bounded_cd_countermodel_search(sig, s, *bounds) == (
                scalar_cd_search(sig, s, *bounds)), str(s)


def mixed_models(rng):
    """Random models of one to three worlds, growing and constant, with
    domains of one and two elements, in no walk order, and one model
    whose domain is neither a1 first nor shared with the others."""
    models = [random_kripke_model(rng, max_worlds=3, max_domain=rng.choice((1, 2)),
                                  constant_domain=rng.random() < 0.5)
              for _ in range(12)]
    odd = validate_kripke_model(["u", "v"], [("v", "u")], {"u": ("b1", "a1"), "v": ("b1", "a1")},
                                {("v", "P", ("b1",)): 1, ("u", "P", ("b1",)): 1,
                                 ("u", "q", ()): 1})
    models.insert(rng.randrange(len(models) + 1), odd)
    return models


def world_projection(model, w):
    """The classical model at world w, its domain the world's own."""
    return ClassicalModel(model.domains[w], {(pred, args): value for (world, pred, args), value
                                             in model.interp.items() if world == w})


class TestForModels:
    """One lane set of many models, each model a segment, against the
    scalar evaluators of each model alone."""

    @pytest.mark.parametrize("seed", range(4))
    def test_segments_match_scalar_models(self, seed):
        rng = random.Random(9_800 + seed)
        sig = MIXED_SIGNATURE
        models = mixed_models(rng)
        lanes = Lanes.for_models(models, sig)
        assert lanes.width == len(models)
        assert [lanes.locate(lane) for lane in range(lanes.full.bit_length())] == [
            (k, 0, i) for k, model in enumerate(models) for i in range(len(model.worlds))]
        formulas = ATOMS + [Forall("x", ATOMS[2])] + [
            random_formula(rng, sig, depth=4) for _ in range(25)]
        for k, model in enumerate(models):
            worlds = model.worlds
            assert lanes.segment(lanes.full, k) == (1 << len(worlds)) - 1
            order = close_preorder(worlds, order_pairs(model))
            x = rng.getrandbits(lanes.full.bit_length())
            boxed = lanes.segment(lanes.box(x), k)
            bits = lanes.segment(x, k)
            for i, w in enumerate(worlds):
                above = [j for j, v in enumerate(worlds) if (w, v) in order]
                assert boxed >> i & 1 == all(bits >> j & 1 for j in above)
            kripke = KripkeEvaluator(model, sig)
            classical = [ClassicalEvaluator(world_projection(model, w), sig) for w in worlds]
            for f in formulas:
                for a in lanes.domain:
                    rho = {"x": a} if f.fv else {}
                    alive = lanes.segment(lanes.alive(rho, f.fvs), k)
                    k_mask, c_mask = (lanes.segment(m, k) for m in lanes.value(f, rho))
                    for i, w in enumerate(worlds):
                        live = all(rho[v] in model.domains[w] for v in f.fvs)
                        assert alive >> i & 1 == live
                        if live:
                            assert k_mask >> i & 1 == kripke.value(f, w, rho), (k, f, w, rho)
                            assert c_mask >> i & 1 == classical[i].value(f, rho), (k, f, w, rho)

    def test_cross_check_only_where_every_domain_is_constant(self):
        rng = random.Random(9_900)
        one = [random_kripke_model(rng, max_domain=1, constant_domain=True) for _ in range(5)]
        two = [random_kripke_model(rng, max_domain=2, constant_domain=True) for _ in range(20)]
        growing = next(m for m in iter(lambda: random_kripke_model(rng), None)
                       if not m.constant_domain)
        assert Lanes.for_models(one, MIXED_SIGNATURE).cross_check
        mixed_sizes = Lanes.for_models(one + two, MIXED_SIGNATURE)
        assert mixed_sizes.exists is not None and mixed_sizes.cross_check
        assert not Lanes.for_models(one + [growing] + two, MIXED_SIGNATURE).cross_check
        assert not Lanes.for_models([growing], MIXED_SIGNATURE).cross_check


class TestSplitBatches:
    """A frame and domain size with more models than MAX_BATCH_WIDTH is
    split on its leading slots; a width of 4 splits nearly every one."""

    NARROW = 4

    def test_models_in_order(self, monkeypatch):
        whole = list(enumerate_cd_models(PREDS, 2, 2))
        monkeypatch.setattr("cdkripke.kripke.MAX_BATCH_WIDTH", self.NARROW)
        batches = list(cd_model_batches(PREDS, 2, 2))
        assert max(b.width for b in batches) <= self.NARROW
        assert [m for b in batches for m in b.models()] == whole

    def test_lanes_match_single_models(self, monkeypatch):
        monkeypatch.setattr("cdkripke.kripke.MAX_BATCH_WIDTH", self.NARROW)
        sig = standard_signature("implies", "not")
        formulas = enumerate_formulas(sig, ATOMS, 3)[::11]
        for batch in cd_model_batches(PREDS, 3, 2, up_to_iso=True):
            assert len(batch.choices[0]) == 1
            lanes = Lanes.for_batches([batch], sig)
            width, n = lanes.width, len(batch.worlds)
            for index, model in enumerate(batch.models()):
                single = Lanes.for_models((model,), sig)

                def column(mask):
                    return mask >> (index * n) & ((1 << n) - 1)

                for f in formulas:
                    k, c = lanes.value(f, {"x": "a2"})
                    assert (column(k), column(c)) == single.value(f, {"x": "a2"})

    def test_sweep(self, monkeypatch):
        monkeypatch.setattr("cdkripke.collapse.require_monotone", lambda *args: None)
        whole = run_collapse_sweep(IMPLIES, max_worlds=2, max_domain=2, depth=2)
        monkeypatch.setattr("cdkripke.kripke.MAX_BATCH_WIDTH", self.NARROW)
        split = run_collapse_sweep(IMPLIES, max_worlds=2, max_domain=2, depth=2)
        assert whole.disagreements
        assert (split.models, split.values, split.disagreements) == (
            whole.models, whole.values, whole.disagreements)

    @pytest.mark.parametrize("bounds", [(3, 1), (2, 2)])
    def test_cd_search(self, bounds, monkeypatch):
        monkeypatch.setattr("cdkripke.kripke.MAX_BATCH_WIDTH", self.NARROW)
        rng = random.Random(9_600 + bounds[0])
        for _ in range(20):
            s = random_sequent(rng, MIXED_SIGNATURE, rng.random() < 0.5)
            assert bounded_cd_countermodel_search(MIXED_SIGNATURE, s, *bounds) == (
                scalar_cd_search(MIXED_SIGNATURE, s, *bounds)), str(s)

    def test_cap_counts_whole_frames(self, monkeypatch):
        # classically valid: refuted first on the 2-world chain, after 72
        # models on the smaller frames; the chain's 27 models split into
        # batches of 3, and the countermodel is model 82 in all
        s = parse_sequent("=> or(p, not(p)), q, r", MIXED_SIGNATURE)
        whole = bounded_cd_countermodel_search(MIXED_SIGNATURE, s, 2, 1)
        monkeypatch.setattr("cdkripke.kripke.MAX_BATCH_WIDTH", self.NARROW)
        monkeypatch.setenv("CDKRIPKE_MAX_ENUM", "84")
        with pytest.raises(EnumerationCapError):
            bounded_cd_countermodel_search(MIXED_SIGNATURE, s, 2, 1)
        monkeypatch.setenv("CDKRIPKE_MAX_ENUM", "99")
        assert bounded_cd_countermodel_search(MIXED_SIGNATURE, s, 2, 1) == whole


@pytest.mark.parametrize("worlds,width", [(1, 1), (2, 1), (1, 8), (2, 8), (1, 16)])
def test_tables_apply_row_by_row(worlds, width):
    """Each lane of a connective's mask is the table's output on the
    row its argument masks spell there, over several worlds and widths,
    lane counts below and above the table's term count among them."""
    rng = random.Random(worlds * 100 + width)
    tables = [t for n in (1, 2, 3) for t in all_tables(n)]
    tables += [TruthTable.from_bits("c", 4, format(rng.getrandbits(16), "016b"))
               for _ in range(40)]
    for table in tables:
        lanes = Lanes(Signature.of(table), [([(i,) for i in range(worlds)], width)], ("a1",), {})
        masks = [rng.getrandbits(worlds * width) for _ in range(table.arity)]
        expected = sum(
            table.value(tuple(mask >> lane & 1 for mask in masks)) << lane
            for lane in range(worlds * width))
        assert lanes._table("c", masks) == expected


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_every_table_applies_row_by_row(arity):
    """Each lane of a connective's mask is the table's output on the
    row its argument masks spell there, for every table of arity 1-4, at
    one lane fewer and one lane more than the table has terms: the terms
    apply exactly at every lane count."""
    rng = random.Random(arity)
    for table in all_tables(arity):
        terms = len(table.lane_terms[1])
        sig = Signature.of(table)
        for lanes_count in (terms - 1, terms + 1):
            if lanes_count < 1:
                continue
            lanes = Lanes(sig, [([(0,)], lanes_count)], ("a1",), {})
            masks = [rng.getrandbits(lanes_count) for _ in range(arity)]
            expected = 0
            for lane in range(lanes_count):
                row = 0  # the first argument most significant
                for mask in masks:
                    row = row << 1 | mask >> lane & 1
                expected |= table.outputs[row] << lane
            assert lanes._table("c", masks) == expected, table.bits()
