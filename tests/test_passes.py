"""Runs: the search and the sweep evaluate every batch of a run of
consecutive batches together, in one Lanes whatever the batches' domain
sizes. The search packs each world count's batches on their own, the
sweep packs the whole walk. The differential tests below patch
MAX_BATCH_WIDTH narrow, so that runs end inside a world count, and
compare each run with the one-model lanes and the one-model-at-a-time
search.

Also the monotone side of the collapse: every monotone table of arity
1-3 goes through the exhaustive sweep alone, and every non-monotone
table of arity 1-2 is seen to disagree once the guard is lifted.
"""

import functools
import random

import pytest

from cdkripke import kripke
from cdkripke.collapse import enumerate_formulas, run_collapse_sweep
from cdkripke.kripke import (
    MAX_BATCH_WIDTH,
    CdBatch,
    _batch_refutation,
    _cd_walk,
    _packed,
    bounded_cd_countermodel_search,
    cd_model_batches,
    validate_kripke_model,
)
from cdkripke.lanes import Lanes
from cdkripke.suites import MIXED_SIGNATURE
from cdkripke.syntax import Atom, free_vars, parse_sequent, predicates
from cdkripke.truthfn import Signature, all_tables, monotonicity_witness, standard_signature
from test_lanes import random_sequent, scalar_cd_search, scalar_sweep

PREDS = {"p": 0, "q": 0, "P": 1}
ATOMS = [Atom("p"), Atom("q"), Atom("P", ("x",))]

# classically valid on domains of up to 2 and never refuted on 2 worlds;
# on 3 worlds it is refuted first by a domain-2 model of the third frame,
# and by domain-1 models of the sixth: one run holds both, and the
# winner's lanes lie before the later frame's
EARLIER_SIZE_2 = ("not(forall x. nand(P(x), q)) => exists x. forall x. p, "
                  "forall x. exists x. implies(p, P(x))")


def narrow(monkeypatch, width):
    monkeypatch.setattr("cdkripke.kripke.MAX_BATCH_WIDTH", width)


def cell(batch):
    return batch.worlds, dict(batch.future), batch.domain, tuple(batch.slots), tuple(batch.choices)


def search_runs(max_worlds, max_domain):
    """The runs that the search evaluates, one lane set each: each world
    count's batches, packed."""
    return [run for batches in _cd_walk(PREDS, max_worlds, max_domain, True)
            for run in _packed(batches)]


def assert_maximal(runs, width, joined):
    """Each run holds at most width models, and the next run's first
    batch would take it past width, unless that batch starts a world
    count and runs are not joined across world counts."""
    for run, after in zip(runs, runs[1:] + [None]):
        total = sum(b.width for b in run)
        assert total <= width
        if after is not None and (joined or len(after[0].worlds) == len(run[0].worlds)):
            assert total + after[0].width > width


@pytest.mark.parametrize("width", [1, 5, 64, 600, MAX_BATCH_WIDTH])
def test_passes_are_maximal_runs_of_one_world_count(width, monkeypatch):
    narrow(monkeypatch, width)
    batches = [cell(b) for b in cd_model_batches(PREDS, 3, 2, up_to_iso=True)]
    runs = search_runs(3, 2)
    assert [cell(b) for run in runs for b in run] == batches
    assert all(len({len(b.worlds) for b in run}) == 1 for run in runs)
    assert_maximal(runs, width, joined=False)
    # one run per world count at the default width
    assert len(runs) == 3 or width < MAX_BATCH_WIDTH


@pytest.mark.parametrize("width", [1, 5, 64, 600, MAX_BATCH_WIDTH])
def test_sweep_runs_are_maximal_across_world_counts(width, monkeypatch):
    narrow(monkeypatch, width)
    batches = list(cd_model_batches(PREDS, 3, 2, up_to_iso=True))
    runs = list(_packed(batches))
    assert [cell(b) for run in runs for b in run] == [cell(b) for b in batches]
    assert_maximal(runs, width, joined=True)
    # a run holds two world counts where a world count's last batches
    # leave room for the next one's first, and at the default width one
    # run holds the whole walk
    counts = [sorted({len(b.worlds) for b in run}) for run in runs]
    assert [c for c in counts if len(c) > 1] == {
        1: [], 5: [[2, 3]], 64: [], 600: [[1, 2]], MAX_BATCH_WIDTH: [[1, 2, 3]]}[width]
    assert len(runs) == 1 or width < MAX_BATCH_WIDTH


@pytest.mark.parametrize("width", [4, 40, MAX_BATCH_WIDTH])
@pytest.mark.parametrize("bounds", [(3, 1), (2, 2), (2, 3)])
def test_pass_lanes_match_single_models(bounds, width, monkeypatch):
    narrow(monkeypatch, width)
    sig = standard_signature("implies", "not", "xor")
    formulas = enumerate_formulas(sig, ATOMS, 3)[::13]
    most = 0  # the most domain sizes that one run holds
    for batches in search_runs(*bounds):
        lanes = Lanes.for_batches(batches, sig)
        assert lanes.cross_check
        assert len(lanes.domain) == max(len(b.domain) for b in batches)
        most = max(most, len({len(b.domain) for b in batches}))
        n, model = len(batches[0].worlds), 0
        for batch in batches:
            for index in range(batch.width):
                single = Lanes.for_models((batch.model(index),), sig)
                for a in lanes.domain:
                    # an assignment is alive on exactly the models whose
                    # domain holds its value, and read only there
                    alive = lanes.alive({"x": a}, ["x"]) >> model * n & (1 << n) - 1
                    assert alive == ((1 << n) - 1 if a in batch.domain else 0)
                for f in formulas:
                    for a in batch.domain:
                        k, c = lanes.value(f, {"x": a})
                        assert (k >> model * n & (1 << n) - 1,
                                c >> model * n & (1 << n) - 1) == single.value(f, {"x": a})
                model += 1
        assert model == lanes.width
    # from a width of 40 on, some run holds two domain sizes, and at
    # the default width the one-world run at (2, 3) holds all three
    assert most == (1 if width == 4 or bounds[1] == 1 else
                    3 if width == MAX_BATCH_WIDTH and bounds[1] == 3 else 2)


def test_cross_check_only_where_each_model_has_one_domain():
    # batch lanes are checked in test_pass_lanes_match_single_models
    sig = standard_signature("implies")
    growing = validate_kripke_model(["w0", "w1"], [("w0", "w1")],
                                    {"w0": ("a1",), "w1": ("a1", "a2")}, {})
    assert not Lanes.for_models((growing,), sig).cross_check
    constant = validate_kripke_model(["w0", "w1"], [("w0", "w1")],
                                     {"w0": ("a1", "a2"), "w1": ("a1", "a2")}, {})
    assert Lanes.for_models((constant,), sig).cross_check


def test_one_world_refutation_makes_no_two_world_batch(monkeypatch):
    # the one-world run ends with the one-world frames: the search
    # neither lists the frames of the next world count nor makes a batch
    # of them to learn that
    made, listed = [], []
    init = CdBatch.__init__
    frames = kripke._frames

    def recorded(self, worlds, *args):
        made.append(len(worlds))
        init(self, worlds, *args)

    def listing(n):
        listed.append(n)
        return frames(n)

    monkeypatch.setattr(CdBatch, "__init__", recorded)
    monkeypatch.setattr(kripke, "_frames", listing)
    s = parse_sequent("p => q", MIXED_SIGNATURE)
    verdict = bounded_cd_countermodel_search(MIXED_SIGNATURE, s, 3, 1)
    assert len(verdict.model.worlds) == 1
    assert made and set(made) == {1}
    assert listed == [1]


@pytest.mark.parametrize("width", [2, 16, 200, MAX_BATCH_WIDTH])
def test_earlier_frame_of_a_larger_domain_wins(width, monkeypatch):
    sig = MIXED_SIGNATURE
    s = parse_sequent(EARLIER_SIZE_2, sig)
    fv = sorted(free_vars(s))
    # the (frame, domain size) cells of 3 worlds, in walk order, that
    # hold a refutation, each read from lanes of its own
    refuting = [(b.future, len(b.domain)) for b in cd_model_batches(predicates(s), 3, 2, True)
                if len(b.worlds) == 3
                and _batch_refutation(Lanes.for_batches([b], sig), [b], s, fv) is not None]
    first, second = refuting[:2]
    assert (first[1], second[1]) == (2, 1) and first[0] is not second[0]
    narrow(monkeypatch, width)
    verdict = bounded_cd_countermodel_search(sig, s, 3, 2)
    assert verdict == scalar_cd_search(sig, s, 3, 2)
    assert (len(verdict.model.worlds), len(verdict.model.domains["w0"])) == (3, 2)


@pytest.mark.parametrize("bounds", [(3, 1), (2, 2), (3, 2)])
def test_cd_search_with_narrow_passes(bounds, monkeypatch):
    narrow(monkeypatch, 24)
    rng = random.Random(9_700 + 3 * bounds[0] + bounds[1])
    for _ in range(12):
        s = random_sequent(rng, MIXED_SIGNATURE, rng.random() < 0.5)
        assert bounded_cd_countermodel_search(MIXED_SIGNATURE, s, *bounds) == (
            scalar_cd_search(MIXED_SIGNATURE, s, *bounds)), str(s)


def test_sweep_reports_disagreements_in_walk_order(monkeypatch):
    # narrow runs split the walk elsewhere; the report still lists
    # models in walk order
    monkeypatch.setattr("cdkripke.collapse.require_monotone", lambda *args: None)
    sig = standard_signature("implies")
    whole = run_collapse_sweep(sig, max_worlds=3, max_domain=2, depth=2)
    narrow(monkeypatch, 8)
    split = run_collapse_sweep(sig, max_worlds=3, max_domain=2, depth=2)
    assert whole.disagreements
    assert (split.models, split.values, split.disagreements) == (
        whole.models, whole.values, whole.disagreements)


def lane_sets(monkeypatch):
    """The world count of each batch of every Lanes.for_batches call from
    now on, one list per call."""
    calls = []
    for_batches = Lanes.for_batches.__func__

    def counted(cls, batches, sig):
        calls.append([len(b.worlds) for b in batches])
        return for_batches(cls, batches, sig)

    monkeypatch.setattr(Lanes, "for_batches", classmethod(counted))
    return calls


def test_mixed_lane_set_matches_single_models(monkeypatch):
    # one lane set of batches of 1, 2 and 3 worlds and both domain
    # sizes, not in walk order, each model read from its own segment
    narrow(monkeypatch, 8)
    sig = standard_signature("implies", "not", "xor")
    formulas = enumerate_formulas(sig, ATOMS, 3)[::13]
    first: dict = {}
    for b in cd_model_batches(PREDS, 3, 2, up_to_iso=True):
        first.setdefault((len(b.worlds), len(b.domain), sum(map(len, b.future.values()))), b)
    batches = [first[key] for key in [(2, 2, 3), (1, 1, 1), (3, 1, 6), (1, 2, 1),
                                      (3, 2, 4), (2, 1, 2)]]
    lanes = Lanes.for_batches(batches, sig)
    assert lanes.cross_check
    assert lanes.width == sum(b.width for b in batches)
    rng = random.Random(9_900)
    xs = [rng.getrandbits(lanes.full.bit_length()) for _ in range(20)]
    start, model = 0, 0
    for segment, batch in enumerate(batches):
        n = len(batch.worlds)
        for index in range(batch.width):
            single = Lanes.for_models((batch.model(index),), sig)
            bits = (1 << n) - 1
            # lane start + j holds world j of this model, which the
            # model's own lanes read at bit j
            assert [lanes.locate(start + j) for j in range(n)] == [
                (segment, index, j) for j in range(n)]

            def column(mask):
                return mask >> start & bits

            for x in xs:
                assert column(lanes.box(x)) == single.box(column(x))
            for a in lanes.domain:
                alive = column(lanes.alive({"x": a}, ["x"]))
                assert alive == (bits if a in batch.domain else 0)
            for f in formulas:
                for a in batch.domain:
                    k, c = lanes.value(f, {"x": a})
                    assert (column(k), column(c)) == single.value(f, {"x": a})
            start += n
            model += 1
    assert start == lanes.full.bit_length()
    assert model == lanes.width


@pytest.mark.parametrize("width", [8, MAX_BATCH_WIDTH])
def test_refutation_in_a_mixed_lane_set(width, monkeypatch):
    # one lane set of every batch of 1-3 worlds and both domain sizes
    # names the refutation that the batches, read one at a time in walk
    # order, find first
    narrow(monkeypatch, width)
    sig = MIXED_SIGNATURE
    rng = random.Random(5)
    mixed = 0  # refutations found past the one-world models
    for _ in range(150):
        s = random_sequent(rng, sig, rng.random() < 0.5)
        fv = sorted(free_vars(s))
        batches = list(cd_model_batches(predicates(s), 3, 2, up_to_iso=True))
        expected = next(filter(None, (
            _batch_refutation(Lanes.for_batches([b], sig), [b], s, fv) for b in batches)), None)
        found = _batch_refutation(Lanes.for_batches(batches, sig), batches, s, fv)
        assert found == expected, str(s)
        mixed += expected is not None and len(expected[0].worlds) > 1
    assert mixed


@functools.lru_cache(maxsize=None)
def scalar_reference(names, bounds):
    return scalar_sweep(standard_signature(*names), *bounds, 2)


@pytest.mark.parametrize("width", [8, 40, 120, MAX_BATCH_WIDTH])
@pytest.mark.parametrize("bounds", [(3, 2), (2, 3)])
@pytest.mark.parametrize("names", [("implies",), ("xor", "and"), ("not", "or")],
                         ids=["implies", "xor-and", "not-or"])
def test_unguarded_sweep_matches_scalar(names, bounds, width, monkeypatch):
    # batches are packed into lane sets of up to the width's models,
    # whatever their world counts: at 8 each lane set is of one world
    # count, at 40 the last models of a world count share a lane set with
    # the first of the next, except at (2, 3) where each world count
    # ends a lane set, at 120 a lane set of one and two worlds ends
    # inside the two-world count, and at the default width one lane set
    # holds the whole sweep
    monkeypatch.setattr("cdkripke.collapse.require_monotone", lambda *args: None)
    narrow(monkeypatch, width)
    calls = lane_sets(monkeypatch)
    report = run_collapse_sweep(standard_signature(*names), *bounds, 2)
    assert (report.models, report.values, report.disagreements) == (
        scalar_reference(names, bounds))
    mixed = [sorted(set(counts)) for counts in calls if len(set(counts)) > 1]
    if width == MAX_BATCH_WIDTH:
        assert len(calls) == 1 and mixed == [list(range(1, bounds[0] + 1))]
    else:
        assert mixed == {8: [], 40: [[1, 2], [2, 3]] if bounds == (3, 2) else [],
                         120: [[1, 2]]}[width]


@pytest.mark.parametrize("max_worlds", [2, 3])
def test_one_lane_set_per_sweep(max_worlds, monkeypatch):
    calls = lane_sets(monkeypatch)
    report = run_collapse_sweep(standard_signature("and", "or"), max_worlds, 2, 3)
    assert report.agreement
    assert [sorted(set(counts)) for counts in calls] == [list(range(1, max_worlds + 1))]


def tables(arities, monotone):
    return [t for arity in arities for t in all_tables(arity)
            if (monotonicity_witness(t) is None) == monotone]


@pytest.mark.parametrize("arities, depth", [((1, 2), 3), ((3,), 2)])
def test_every_monotone_table_collapses(arities, depth):
    # 3 + 6 tables at depth 3 and 20 at depth 2: the Dedekind numbers
    monotone = tables(arities, True)
    assert len(monotone) == (9 if depth == 3 else 20)
    for table in monotone:
        report = run_collapse_sweep(Signature.of(table), max_worlds=3, max_domain=2, depth=depth)
        assert report.agreement, table.bits()
        assert report.models == 8976


def test_every_non_monotone_table_disagrees(monkeypatch):
    # the control: lift the guard, and each of the 1 + 10 non-monotone
    # tables of arity 1-2 disagrees already on two worlds and one element
    monkeypatch.setattr("cdkripke.collapse.require_monotone", lambda *args: None)
    non_monotone = tables((1, 2), False)
    assert len(non_monotone) == 11
    for table in non_monotone:
        report = run_collapse_sweep(Signature.of(table), max_worlds=2, max_domain=1, depth=2)
        assert report.disagreements, table.bits()
