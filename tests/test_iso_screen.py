"""The countermodel search walks each world count of two or more on one
frame per isomorphism class; it must report what the labeled walk
reports, and meet the cap where the labeled walk meets it.

tests/test_lanes.py compares whole results with the scalar search; the
tests here cover the cap, the class representatives and the number of
lane passes.
"""

import itertools

import pytest

from cdkripke.errors import EnumerationCapError
from cdkripke.kripke import (
    CdCountermodel,
    Failure,
    NoCountermodelUpTo,
    bounded_cd_countermodel_search,
    cd_model_batches,
    enumerate_cd_models,
    enumerate_preorders,
)
from cdkripke.lanes import Lanes
from cdkripke.suites import MIXED_SIGNATURE, MONOTONE_SIGNATURE
from cdkripke.syntax import parse_sequent, predicates
from scalar_reference import model_validity

# classically valid, first refuted on 3 worlds; 674 labeled models at (3, 1)
THREE_WORLDS = "r => not(r), or(xor(q, or(r, q)), not(not(q)))"


def capped_scalar_search(sig, s, max_worlds, max_domain, monkeypatch):
    """outcome(cap) of the labeled one-model-at-a-time search: models in
    enumerate_cd_models order, first model_validity Failure wins, with
    the cap met where cd_model_batches meets it under
    CDKRIPKE_MAX_ENUM=cap, which outcome sets."""
    preds = predicates(s)
    monkeypatch.delenv("CDKRIPKE_MAX_ENUM", raising=False)
    models = list(enumerate_cd_models(preds, max_worlds, max_domain))
    first = next(((i, v) for i, v in enumerate(model_validity(m, s, sig) for m in models)
                  if isinstance(v, Failure)), None)

    def outcome(cap):
        monkeypatch.setenv("CDKRIPKE_MAX_ENUM", str(cap))
        reached = 0
        try:
            for batch in cd_model_batches(preds, max_worlds, max_domain):
                reached += batch.width
                if first is not None and first[0] < reached:
                    break
        except EnumerationCapError as exc:
            return ("cap", str(exc))
        if first is None:
            return NoCountermodelUpTo(max_worlds, max_domain)
        index, failure = first
        return CdCountermodel(models[index], failure.world, failure.assignment)

    return outcome, len(models)


def test_representatives_come_first_in_their_class():
    # why one frame per class finds the labeled walk's first refutation:
    # the first labeled frame that refutes is the first of its class
    for n in (2, 3, 4):
        firsts = {}
        for matrix in enumerate_preorders(n):
            orbit = frozenset(
                tuple(tuple(matrix[p[i]][p[j]] for j in range(n)) for i in range(n))
                for p in itertools.permutations(range(n)))
            firsts.setdefault(orbit, matrix)
        assert all(matrix == min(orbit) for orbit, matrix in firsts.items())
        assert list(firsts.values()) == enumerate_preorders(n, up_to_iso=True)


@pytest.mark.parametrize("sig, text", [
    (MIXED_SIGNATURE, THREE_WORLDS),
    (MONOTONE_SIGNATURE, "and(p, q) => or(q, p)"),
])
def test_cap_parity(sig, text, monkeypatch):
    # every cap up to the labeled total: the frames left out of the walk
    # still count against the cap
    s = parse_sequent(text, sig)
    expected, total = capped_scalar_search(sig, s, 3, 1, monkeypatch)
    outcomes = []
    for cap in range(1, total + 1):
        monkeypatch.setenv("CDKRIPKE_MAX_ENUM", str(cap))
        try:
            got = bounded_cd_countermodel_search(sig, s, 3, 1)
        except EnumerationCapError as exc:
            got = ("cap", str(exc))
        assert got == expected(cap), cap
        outcomes.append(got)
    monkeypatch.delenv("CDKRIPKE_MAX_ENUM")
    assert isinstance(outcomes[0], tuple)
    assert outcomes[-1] == bounded_cd_countermodel_search(sig, s, 3, 1)
    if text == THREE_WORLDS:
        assert len(outcomes[-1].model.worlds) == 3


def test_one_batch_per_class(monkeypatch):
    # classically valid and/or: no frame refutes it, so the search
    # evaluates one batch for each of the 1 + 3 + 9 isomorphism classes
    # of frames, not 1 + 4 + 29 for the labeled frames, in one lane set
    # per world count
    s = parse_sequent("and(p, q) => or(q, p)", MONOTONE_SIGNATURE)
    calls = []
    for_batches = Lanes.for_batches.__func__

    def counted(cls, batches, sig):
        calls.append(batches)
        return for_batches(cls, batches, sig)

    monkeypatch.setattr(Lanes, "for_batches", classmethod(counted))
    verdict = bounded_cd_countermodel_search(MONOTONE_SIGNATURE, s, 3, 1)
    assert verdict == NoCountermodelUpTo(3, 1)
    assert [[len(b.worlds) for b in batches] for batches in calls] == [[1], [2] * 3, [3] * 9]


def walked(preds, max_worlds, max_domain, up_to_iso, cap, monkeypatch):
    """(the batches cd_model_batches yields under CDKRIPKE_MAX_ENUM=cap,
    as comparable tuples, and the cap error's message or None)."""
    monkeypatch.setenv("CDKRIPKE_MAX_ENUM", str(cap))
    batches = []
    try:
        for b in cd_model_batches(preds, max_worlds, max_domain, up_to_iso=up_to_iso):
            order = frozenset((w, v) for w in b.worlds for v in b.future[w])
            batches.append((b.worlds, order, b.domain, tuple(b.slots), tuple(b.choices), b.width))
    except EnumerationCapError as exc:
        return batches, str(exc)
    return batches, None


def test_cap_parity_across_walks(monkeypatch):
    # every cap up to one past the 674 labeled models: the walk over one
    # frame per class meets the cap where the labeled walk meets it, with
    # the same message, and until then yields the labeled batches of the
    # representatives, in the labeled order
    preds = {"p": 0, "q": 0}
    representatives = {
        frozenset((f"w{i}", f"w{j}") for i in range(n) for j in range(n) if matrix[i][j])
        for n in (1, 2, 3) for matrix in enumerate_preorders(n, up_to_iso=True)
    }
    for cap in range(1, 676):
        labeled, labeled_error = walked(preds, 3, 1, False, cap, monkeypatch)
        classes, classes_error = walked(preds, 3, 1, True, cap, monkeypatch)
        assert classes_error == labeled_error, cap
        assert classes == [b for b in labeled if b[1] in representatives], cap
    assert labeled_error is None and len(classes) == 1 + 3 + 9
