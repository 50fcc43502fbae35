"""Finite classical models and bounded classical validity checking.

Evaluation is the usual tarskian interpretation with connectives applied
via their truth tables. Validity checking is exact for propositional
sequents (truth-table enumeration over the occurring symbols) and a
bounded semi-check for quantified sequents (exhaustive enumeration of
interpretations over domains up to a size limit).
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .errors import EnumerationCapError, ModelValidationError, UsageError
from .syntax import (
    Atom,
    Conn,
    Exists,
    Forall,
    Formula,
    Sequent,
    free_vars,
    is_propositional_sequent,
    predicates,
)
from .truthfn import Signature

# ceiling on the number of interpretations a bounded search may enumerate
DEFAULT_ENUM_CAP = 2 ** 24
ENUM_CAP_ENV = "CDKRIPKE_MAX_ENUM"


def enum_cap(override: Optional[int] = None) -> int:
    if override is not None:
        return override
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise UsageError(f"{ENUM_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


@dataclass(frozen=True)
class ClassicalModel:
    """A non-empty finite domain plus a 0/1 interpretation of predicates.

    interp maps (predicate, argument tuple) to 1; pairs absent from the
    mapping read as 0, so sparse model files stay small.
    """

    domain: tuple
    interp: Mapping

    def __post_init__(self):
        if not self.domain:
            raise ModelValidationError(["empty-domain"])
        dom = set(self.domain)
        for (pred, args), value in self.interp.items():
            if value not in (0, 1):
                raise ModelValidationError([f"bad-value {pred}{args} = {value!r}"])
            for a in args:
                if a not in dom:
                    raise ModelValidationError(
                        [f"interp-out-of-domain {pred}{args}: {a!r}"]
                    )

    def value(self, pred: str, args: tuple) -> int:
        return self.interp.get((pred, args), 0)


def classical_model(domain: Sequence[str], interp: Mapping) -> ClassicalModel:
    return ClassicalModel(tuple(domain), dict(interp))


class ClassicalEvaluator:
    """Memoized evaluation of formulas on one model.

    Memo keys restrict the assignment to the formula's free variables, so
    a subformula shared by many formulas is evaluated once per relevant
    assignment.
    """

    def __init__(self, model: ClassicalModel, sig: Signature):
        self.model = model
        self.sig = sig
        self._tables = dict(sig.connectives)
        self._memo: dict = {}
        self._keep: dict = {}

    def value(self, f: Formula, rho: Mapping) -> int:
        fvs = f.fvs
        if not fvs:
            key = id(f)
        elif len(fvs) == 1:
            key = (id(f), rho[fvs[0]])
        else:
            key = (id(f), tuple(rho[x] for x in fvs))
        memo = self._memo
        cached = memo.get(key)
        if cached is not None:
            return cached
        self._keep[id(f)] = f
        if isinstance(f, Atom):
            result = self.model.interp.get(
                (f.pred, tuple(rho[x] for x in f.args)), 0
            )
        elif isinstance(f, Conn):
            table = self._tables.get(f.name)
            if table is None:
                table = self.sig.table(f.name)  # raises UsageError
            args = f.args
            if len(args) == 2:
                result = table.outputs[
                    (self.value(args[0], rho) << 1) | self.value(args[1], rho)
                ]
            else:
                idx = 0
                for g in args:
                    idx = (idx << 1) | self.value(g, rho)
                result = table.outputs[idx]
        elif isinstance(f, Forall):
            result = 1
            for a in self.model.domain:
                if not self.value(f.body, {**rho, f.var: a}):
                    result = 0
                    break
        elif isinstance(f, Exists):
            result = 0
            for a in self.model.domain:
                if self.value(f.body, {**rho, f.var: a}):
                    result = 1
                    break
        else:
            raise UsageError(f"not a formula: {f!r}")
        memo[key] = result
        return result

    def sequent_value(self, s: Sequent, rho: Mapping) -> int:
        if all(self.value(f, rho) == 1 for f in s.antecedent) and all(
            self.value(f, rho) == 0 for f in s.succedent
        ):
            return 0
        return 1


def _check_assignment(model: ClassicalModel, rho: Mapping, fv: frozenset):
    missing = [x for x in sorted(fv) if x not in rho]
    if missing:
        raise UsageError(f"assignment misses free variables {missing}")
    dom = set(model.domain)
    for x in sorted(fv):
        if rho[x] not in dom:
            raise UsageError(f"assignment value {rho[x]!r} for {x!r} is outside the domain")


def eval_classical(model: ClassicalModel, rho: Mapping, f: Formula, sig: Signature) -> int:
    _check_assignment(model, rho, f.fv)
    return ClassicalEvaluator(model, sig).value(f, rho)


def eval_sequent_classical(
    model: ClassicalModel, rho: Mapping, s: Sequent, sig: Signature
) -> int:
    _check_assignment(model, rho, free_vars(s))
    return ClassicalEvaluator(model, sig).sequent_value(s, rho)


@dataclass(frozen=True)
class Valid:
    pass


@dataclass(frozen=True)
class Countermodel:
    model: ClassicalModel
    assignment: Mapping = field(default_factory=dict)


@dataclass(frozen=True)
class NoCountermodelUpTo:
    max_domain: int


def decide_propositional(sig: Signature, s: Sequent):
    """Exact validity for propositional sequents.

    Enumerates the 2**k valuations of the k propositional symbols
    occurring in s, symbols in sorted name order, valuations in
    lexicographic order with 0 before 1. Returns Valid() or the first
    falsifying valuation packaged as a one-element-domain Countermodel.
    """
    if not is_propositional_sequent(s):
        raise UsageError("decide_propositional expects a propositional sequent")
    symbols = sorted(predicates(s))
    evaluator_domain = ("a1",)
    for values in itertools.product((0, 1), repeat=len(symbols)):
        interp = {(p, ()): v for p, v in zip(symbols, values)}
        model = ClassicalModel(evaluator_domain, interp)
        if ClassicalEvaluator(model, sig).sequent_value(s, {}) == 0:
            return Countermodel(model, {})
    return Valid()


def _domain(of_size: int) -> tuple:
    return tuple(f"a{i + 1}" for i in range(of_size))


def interpretation_slots(preds: Mapping, domain: Sequence[str]) -> list:
    """The documented slot order: predicates sorted by name, argument
    tuples in lexicographic order over the domain as given."""
    slots = []
    for pred in sorted(preds):
        for args in itertools.product(domain, repeat=preds[pred]):
            slots.append((pred, args))
    return slots


def bounded_fo_validity(
    sig: Signature, s: Sequent, max_domain: int, cap: Optional[int] = None
):
    """Search for a classical countermodel over domains of size 1..max_domain.

    Enumeration order is deterministic: domain size ascending; for each
    size, interpretations as tuples over the slot order of
    ``interpretation_slots`` enumerated lexicographically (0 before 1);
    then assignments to the sequent's free variables, variables sorted,
    values in domain order. A NoCountermodelUpTo result is only a bound
    report, not a validity certificate.
    """
    if max_domain < 1:
        raise UsageError("max_domain must be >= 1")
    preds = predicates(s)
    fv = sorted(free_vars(s))
    ceiling = enum_cap(cap)
    for size in range(1, max_domain + 1):
        domain = _domain(size)
        slots = interpretation_slots(preds, domain)
        if 2 ** len(slots) > ceiling:
            raise EnumerationCapError(
                f"bound infeasible: 2**{len(slots)} interpretations at domain size "
                f"{size} exceeds the ceiling {ceiling}"
            )
        for bits in itertools.product((0, 1), repeat=len(slots)):
            interp = {slot: b for slot, b in zip(slots, bits)}
            model = ClassicalModel(domain, interp)
            evaluator = ClassicalEvaluator(model, sig)
            for values in itertools.product(domain, repeat=len(fv)):
                rho = dict(zip(fv, values))
                if evaluator.sequent_value(s, rho) == 0:
                    return Countermodel(model, rho)
    return NoCountermodelUpTo(max_domain)


# --- model files ---------------------------------------------------------


def classical_model_to_json(model: ClassicalModel) -> dict:
    interp = [
        {"pred": pred, "args": list(args), "value": value}
        for (pred, args), value in sorted(model.interp.items())
    ]
    return {"domain": list(model.domain), "interp": interp}


def classical_model_from_json(obj: dict) -> ClassicalModel:
    try:
        domain = tuple(obj["domain"])
        interp = {
            (entry["pred"], tuple(entry["args"])): int(entry["value"])
            for entry in obj.get("interp", [])
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelValidationError([f"malformed model file: {exc}"]) from None
    return ClassicalModel(domain, interp)


def load_classical_model(path) -> ClassicalModel:
    with open(path, "r", encoding="utf-8") as fh:
        return classical_model_from_json(json.load(fh))
