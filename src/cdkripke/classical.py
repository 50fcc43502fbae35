"""Finite classical models and bounded classical validity checking.

Evaluation is the usual tarskian interpretation with connectives applied
via their truth tables. Validity checking is exact for propositional
sequents (truth-table enumeration over the occurring symbols) and a
bounded semi-check for quantified sequents (exhaustive enumeration of
interpretations over domains up to a size limit). A classical model is
a one-world constant-domain Kripke model, so both checks run the
constant-domain countermodel search of ``kripke`` with one world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .errors import ModelValidationError, UsageError
from .kripke import (
    NoCountermodelUpTo,
    Valid,
    _cd_walk,
    _check_assignment,
    _first_refutation,
    _malformed,
    _model_file_interp,
    _model_file_strings,
    _repeats,
    valuation_batches,
)
from .lanes import Lanes
from .syntax import Formula, Sequent, predicate_shape, predicates
from .truthfn import Signature


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
        if len(dom) < len(self.domain):
            raise ModelValidationError([f"repeated-element {a!r}" for a in _repeats(self.domain)])
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


class ClassicalEvaluator:
    """Evaluation of formulas on one model, a view of one-world Lanes."""

    def __init__(self, model: ClassicalModel, sig: Signature):
        self.model = model
        self.sig = sig
        atoms = {slot: 1 for slot, value in model.interp.items() if value}
        self._lanes = Lanes(sig, [([(0,)], 1)], model.domain, atoms)

    def value(self, f: Formula, rho: Mapping) -> int:
        """f's value under rho, which must map every free variable of f
        into the domain."""
        _check_assignment(self.model.domain, rho, f.fvs)
        return self._lanes.value(f, rho)[0]


@dataclass(frozen=True)
class Countermodel:
    model: ClassicalModel
    assignment: Mapping = field(default_factory=dict)


def _refutation(sig: Signature, s: Sequent, walk: Iterable) -> Optional[Countermodel]:
    """The first refutation of s in walk, _first_refutation's iterators
    of one-world batches, as a classical model whose interp lists every
    slot, zero-valued ones included, or None."""
    found = _first_refutation(sig, s, walk)
    if found is None:
        return None
    batch, index, _, rho = found
    interp = {slot: vec[0] for slot, vec in batch.slot_vectors(index)}
    return Countermodel(ClassicalModel(batch.domain, interp), rho)


def decide_propositional(sig: Signature, s: Sequent):
    """Exact validity for propositional sequents.

    Enumerates the 2**k valuations of the k propositional symbols
    occurring in s, symbols in sorted name order, valuations in
    lexicographic order with 0 before 1. Returns Valid() or the first
    falsifying valuation packaged as a one-element-domain Countermodel.
    The valuations are the batches of valuation_batches, which the
    enumeration cap does not count: the decision is exact.
    """
    try:
        preds, propositional = predicate_shape(s)
    except UsageError:
        propositional = False  # only an atom with arguments can clash
    if not propositional:
        raise UsageError("decide_propositional expects a propositional sequent")
    verdict = _refutation(sig, s, [valuation_batches(sorted(preds))])
    return Valid() if verdict is None else verdict


def bounded_fo_validity(sig: Signature, s: Sequent, max_domain: int):
    """Search for a classical countermodel over domains of size 1..max_domain.

    Enumeration order is deterministic: domain size ascending; for each
    size, interpretations as tuples over the slot order of
    ``interpretation_slots`` enumerated lexicographically (0 before 1);
    then assignments to the sequent's free variables, variables sorted,
    values in domain order. This is the one-world case of the
    constant-domain search order, and the cap counts interpretations
    across all domain sizes. A NoCountermodelUpTo result, with one world,
    is only a bound report, not a validity certificate.
    """
    if max_domain < 1:
        raise UsageError("max_domain must be >= 1")
    verdict = _refutation(sig, s, _cd_walk(predicates(s), 1, max_domain, True))
    return NoCountermodelUpTo(1, max_domain) if verdict is None else verdict


# --- model files ---------------------------------------------------------


def classical_model_to_json(model: ClassicalModel) -> dict:
    interp = [
        {"pred": pred, "args": list(args), "value": value}
        for (pred, args), value in sorted(model.interp.items())
    ]
    return {"domain": list(model.domain), "interp": interp}


def classical_model_from_json(obj: dict) -> ClassicalModel:
    """A validated classical model from the JSON object of a model file."""
    if not isinstance(obj, dict) or "domain" not in obj:
        raise _malformed('a classical model is a JSON object with "domain"')
    domain = tuple(_model_file_strings(obj["domain"], '"domain"'))
    return ClassicalModel(domain, _model_file_interp(obj, ("pred",)))
