"""Frames closed once per process, against the closure built per call.

kripke.closed_frame closes each distinct (worlds, relation) pair once
and every model assembled on that frame shares the result. The
reference in scalar_reference closes the frame again on every call and
scans the closed order for each world's future. On seeded random
frames and models, many of them broken, both must give the same order,
the same future sets, the same constant-domain verdict and the same
violations in the same order.
"""

import random

import pytest

from cdkripke.kripke import (
    assemble_kripke_model,
    closed_frame,
    kripke_violations,
)

import scalar_reference

ALL_CODES = {
    "empty-worlds",
    "repeated-world",
    "missing-domain",
    "empty-domain",
    "repeated-element",
    "domain-monotonicity",
    "interp-unknown-world",
    "bad-value",
    "interp-out-of-domain",
    "heredity",
}


def random_frame(rng: random.Random):
    """Worlds (sometimes with a repeated name) and a relation with
    repeated pairs, list-typed pairs and pairs naming unknown worlds."""
    n = rng.randint(0, 4)
    worlds = [f"w{i}" for i in range(n)]
    if worlds and rng.random() < 0.1:
        worlds.append(rng.choice(worlds))
    names = worlds + ["w9"]
    pairs = []
    for _ in range(rng.randint(0, 2 * n + 2)):
        pair = (rng.choice(names), rng.choice(names))
        pairs.append(list(pair) if rng.random() < 0.3 else pair)
        if rng.random() < 0.2:
            pairs.append(tuple(pair))
    return worlds, pairs


def random_model_parts(rng: random.Random):
    worlds, pairs = random_frame(rng)
    domains = {}
    for w in worlds:
        if rng.random() < 0.05:
            continue
        domains[w] = tuple(rng.choice("ab") for _ in range(rng.randint(0, 2)))
    interp = {}
    for _ in range(rng.randint(0, 6)):
        w = rng.choice(worlds + ["w9"])
        pred, args = rng.choice([("p", ()), ("q", ()), ("P", ("a",)), ("P", ("b",))])
        interp[(w, pred, args)] = rng.choice([0, 1, 1, 1, 2])
    return worlds, pairs, domains, interp


@pytest.mark.parametrize("seed", range(4))
def test_order_and_future_match_the_reference(seed):
    rng = random.Random(seed)
    for _ in range(300):
        worlds, pairs = random_frame(rng)
        expected = scalar_reference.close_preorder(worlds, pairs)
        future = closed_frame(worlds, pairs)
        assert {(w, v) for w in worlds for v in future[w]} == expected
        future = closed_frame(worlds, iter(pairs))
        assert {(w, v) for w in worlds for v in future[w]} == expected
        assert dict(future) == {
            w: tuple(v for v in worlds if (w, v) in expected) for w in worlds
        }


@pytest.mark.parametrize("seed", range(4))
def test_models_and_violations_match_the_reference(seed):
    rng = random.Random(1000 + seed)
    for _ in range(500):
        parts = random_model_parts(rng)
        model = assemble_kripke_model(*parts)
        reference = scalar_reference.assemble_kripke_model(*parts)
        assert model == reference
        assert list(model.future) == list(reference.future)
        assert model.constant_domain == scalar_reference.constant_domain(reference)
        violations = kripke_violations(model)
        assert violations == kripke_violations(reference)
        assert [str(v) for v in violations] == [str(v) for v in kripke_violations(reference)]


def test_random_models_reach_every_violation_code():
    rng = random.Random(1000)
    codes = set()
    for _ in range(500):
        model = assemble_kripke_model(*random_model_parts(rng))
        codes.update(v.code for v in kripke_violations(model))
    assert codes == ALL_CODES


def test_each_model_owns_its_future():
    worlds, pairs = ["w0", "w1", "w2"], [("w0", "w1"), ["w1", "w2"]]
    domains = {w: ("a",) for w in worlds}
    first = assemble_kripke_model(worlds, pairs, domains, {})
    first.future["w0"] = ()
    first.future["w9"] = ("w9",)
    second = assemble_kripke_model(worlds, [("w1", "w2"), ("w0", "w1")], domains, {})
    assert second.future == {
        "w0": ("w0", "w1", "w2"),
        "w1": ("w1", "w2"),
        "w2": ("w2",),
    }
    assert second.future is not first.future


def test_shared_future_is_read_only():
    future = closed_frame(["w0", "w1"], [("w0", "w1")])
    with pytest.raises(TypeError):
        future["w0"] = ()
