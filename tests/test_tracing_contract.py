"""The benchmark's tracer wraps package functions by name.

benchmark/tracing.py lists them in LAYERS as (module, attribute) pairs,
an attribute "Class.method" naming a method. A refactor that moves or
drops one of them breaks the traced benchmark run, whose own self-test
is too slow for this suite, so the names are checked here. The tracer
source is only read: executing it defines its tables and classes, and
no bytecode cache is written next to it.
"""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_layers():
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace["LAYERS"]


LAYERS = load_layers()


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _, _ in LAYERS],
                         ids=[f"{m}.{a}" for m, a, _, _ in LAYERS])
def test_traced_name_resolves(module_name, attr):
    target = importlib.import_module(f"cdkripke.{module_name}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_search_and_evaluator_are_traced():
    names = {(m, a) for m, a, _, _ in LAYERS}
    assert ("kripke", "bounded_cd_countermodel_search") in names
    assert ("kripke", "KripkeEvaluator.profile") in names
