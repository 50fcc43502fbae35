"""A CdBatch is one product of per-slot tuples of world vectors.

The walk splits a frame and domain size of many models into batches
whose leading slots hold one vector each; the valuations of the exact
propositional decision are batches of the same shape, built without the
capped walk.
"""

import itertools

import pytest

from cdkripke.kripke import (
    MAX_BATCH_WIDTH,
    KripkeModel,
    cd_model_batches,
    valuation_batches,
)


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
