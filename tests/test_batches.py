"""A CdBatch is one product of per-slot tuples of world vectors.

The walk splits a frame and domain size of many models into batches
whose leading slots hold one vector each; the valuations of the exact
propositional decision are batches of the same shape, built without the
capped walk, and one batch per symbol tuple is cached and shared.
"""

import itertools
import random

import pytest

import scalar_reference
from cdkripke import kripke
from cdkripke.classical import ClassicalModel, Countermodel, Valid, decide_propositional
from cdkripke.kripke import (
    MAX_BATCH_WIDTH,
    KripkeModel,
    cd_model_batches,
    valuation_batches,
)
from cdkripke.lanes import Lanes
from cdkripke.separator import separate, verify_separation
from cdkripke.suites import random_propositional_sequent
from cdkripke.syntax import predicates
from cdkripke.truthfn import standard_signature


def shape(batch):
    return batch.worlds, dict(batch.future), batch.domain, list(batch.slots), [
        tuple(choice) for choice in batch.choices], batch.width


@pytest.mark.parametrize("k", range(17))
def test_valuation_batches_are_the_one_world_walk(k, monkeypatch):
    monkeypatch.delenv("CDKRIPKE_MAX_ENUM", raising=False)
    symbols = [f"s{i:02d}" for i in range(k)]
    walked = [shape(b) for b in cd_model_batches(dict.fromkeys(symbols, 0), 1, 1)]
    assert [shape(b) for b in valuation_batches(symbols)] == walked
    assert len(walked) == max(1, 2 ** k // MAX_BATCH_WIDTH)
    assert (len(walked) > 1) == (k >= 15)


def test_valuation_batches_ignore_the_cap(monkeypatch):
    monkeypatch.setenv("CDKRIPKE_MAX_ENUM", "1")
    assert sum(b.width for b in valuation_batches(["p", "q", "r"])) == 8


def test_split_batches_are_the_product_of_their_choices(monkeypatch):
    monkeypatch.setattr("cdkripke.kripke.MAX_BATCH_WIDTH", 4)
    split = 0
    for batch in cd_model_batches({"p": 0, "q": 0, "P": 1}, 2, 2):
        split += len(batch.choices[0]) == 1
        product = list(itertools.product(*batch.choices))
        assert batch.width == len(product) <= 4
        for index, vectors in enumerate(product):
            assert batch.slot_vectors(index) == list(zip(batch.slots, vectors))
            interp = {(w, pred, args): 1 for (pred, args), vec in zip(batch.slots, vectors)
                      for w, bit in zip(batch.worlds, vec) if bit}
            domains = {w: batch.domain for w in batch.worlds}
            assert batch.model(index) == KripkeModel(batch.worlds, batch.future, domains, interp)
    assert split


def scalar_decision(sig, s):
    """The first refuting valuation of s, symbols sorted and valuations
    in lexicographic order, by the scalar evaluator; or Valid()."""
    symbols = sorted(predicates(s))
    for bits in itertools.product((0, 1), repeat=len(symbols)):
        model = ClassicalModel(("a1",), {(sym, ()): bit for sym, bit in zip(symbols, bits)})
        if not scalar_reference.ClassicalEvaluator(model, sig).sequent_value(s, {}):
            return Countermodel(model)
    return Valid()


class TestSharedValuationBatch:
    """decide_propositional and verify_separation read one cached batch
    per symbol tuple, keyed by the MAX_BATCH_WIDTH in force."""

    SIG = standard_signature("and", "or", "implies", "nand", "xor", "not")

    @staticmethod
    def laid_out(monkeypatch):
        """Patch Lanes.of to log the batches of every lane set built."""
        seen = []
        of = Lanes.of.__func__

        def logged(cls, models, batches, sig):
            seen.append(list(batches))
            return of(cls, models, batches, sig)

        monkeypatch.setattr(Lanes, "of", classmethod(logged))
        return seen

    def test_a_batch_of_another_width_is_not_served(self, monkeypatch):
        rng = random.Random(13)
        sequents = [random_propositional_sequent(rng, self.SIG) for _ in range(200)]
        assert {len(predicates(s)) for s in sequents} == {1, 2, 3}
        wide = [decide_propositional(self.SIG, s) for s in sequents]
        seen = self.laid_out(monkeypatch)
        monkeypatch.setattr(kripke, "MAX_BATCH_WIDTH", 2)
        narrow = [decide_propositional(self.SIG, s) for s in sequents]
        assert narrow == wide == [scalar_decision(self.SIG, s) for s in sequents]
        # every lane set holds at most two valuations, in batches laid
        # out under the narrow width
        assert seen and all(sum(b.width for b in run) <= 2 for run in seen)
        assert kripke.valuation_batch(("p", "q")) is None

    def test_separator_and_decision_share_the_batch(self, monkeypatch):
        result = separate(standard_signature("implies"))
        symbols = tuple(sorted(predicates(result.sequent)))
        seen = self.laid_out(monkeypatch)
        assert verify_separation(result).passed
        assert isinstance(decide_propositional(result.signature(), result.sequent), Valid)
        (separator,), (decision,) = seen
        assert separator is decision is kripke.valuation_batch(symbols)
        assert separator.width == 2 ** len(symbols)
