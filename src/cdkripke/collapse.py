"""Collapsing constant-domain Kripke evaluation to classical evaluation.

Over a signature whose connectives all preserve the pointwise order, the
value of any formula at a world of a constant-domain model equals its
classical value in the per-world projection of that model. This module
provides the projection, the inverse one-world lift of a classical
model, an equivalence checker, and an exhaustive sweep over all small
models and formulas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .classical import ClassicalModel
from .errors import UsageError
from .kripke import KripkeModel, _packed, cd_model_batches, validate_kripke_model
from .lanes import Lanes
from .syntax import Atom, Conn, Exists, Forall, Formula, connective_names
from .truthfn import Signature, monotonicity_witness


def project_world(model: KripkeModel, w: str) -> ClassicalModel:
    """The classical model seen at one world of a constant-domain model."""
    if not model.constant_domain:
        raise UsageError("project_world needs a constant-domain model")
    if w not in set(model.worlds):
        raise UsageError(f"unknown world {w!r}")
    interp = {
        (pred, args): value
        for (world, pred, args), value in model.interp.items()
        if world == w
    }
    return ClassicalModel(model.domains[w], interp)


def lift_classical(model: ClassicalModel, world: str = "w0") -> KripkeModel:
    """A classical model viewed as a one-world constant-domain Kripke model."""
    interp = {(world, pred, args): value for (pred, args), value in model.interp.items()}
    return validate_kripke_model(
        [world], [], {world: model.domain}, interp
    )


@dataclass
class CollapseReport:
    """Per-(world, formula, assignment) comparison of the two semantics."""

    checked: int = 0
    pairs: list = field(default_factory=list)
    disagreements: list = field(default_factory=list)

    @property
    def agreement(self) -> bool:
        return not self.disagreements


def require_monotone(names: Iterable[str], sig: Signature):
    """Reject any non-monotonic connective of the names, naming the first
    in name order together with its witness pair."""
    for name in sorted(names):
        witness = monotonicity_witness(sig.table(name))
        if witness is not None:
            raise UsageError(
                f"connective {name!r} is not monotonic: "
                f"f{witness[0]} = 1 but f{witness[1]} = 0"
            )


def _lane_values(lanes: Lanes, formulas: Sequence[Formula]):
    """Yield (f, rho, alive, live, kripke, classical) for each formula
    under every assignment of its free variables into the domain, in
    check order (variables sorted, values in domain order), alive being
    the lanes where rho's values exist and live their number."""
    assign_cache: dict = {}
    for f in formulas:
        rhos = assign_cache.get(f.fvs)
        if rhos is None:
            rhos = assign_cache[f.fvs] = []
            for values in itertools.product(lanes.domain, repeat=len(f.fvs)):
                rho = dict(zip(f.fvs, values))
                alive = lanes.alive(rho, f.fvs)
                rhos.append((rho, alive, alive.bit_count()))
        for rho, alive, live in rhos:
            kripke, classical = lanes.value(f, rho)
            yield f, rho, alive, live, kripke, classical


def check_collapse(
    model: KripkeModel,
    formulas: Sequence[Formula],
    sig: Signature,
    keep_pairs: bool = True,
    precheck: bool = True,
) -> CollapseReport:
    """Compare Kripke and projected-classical values on one model.

    Every connective occurring in the formulas must be monotonic; a
    non-monotonic one is rejected with its witness pair, because the
    equivalence genuinely fails there (see the separator module for that
    half of the story). Each formula is checked under every assignment
    of its free variables into the domain.
    Callers that sweep many models with one formula inventory may run
    require_monotone on its connective names once themselves and pass
    precheck=False.
    """
    if not model.constant_domain:
        raise UsageError("check_collapse needs a constant-domain model")
    if precheck:
        require_monotone(connective_names(formulas), sig)
    return segment_collapse(Lanes.for_models((model,), sig), 0, model, formulas, keep_pairs)


def segment_collapse(lanes: Lanes, segment: int, model: KripkeModel,
                     formulas: Sequence[Formula], keep_pairs: bool) -> CollapseReport:
    """check_collapse of the constant-domain model, without its checks,
    read from lanes, in which model alone is the given segment. The
    assignments range over the model's domain, in its order."""
    report = CollapseReport()
    worlds = model.worlds
    domain = model.domains[worlds[0]]
    for f in formulas:
        for values in itertools.product(domain, repeat=len(f.fvs)):
            rho = dict(zip(f.fvs, values))
            kripke, classical = lanes.value(f, rho)
            kripke, classical = lanes.segment(kripke, segment), lanes.segment(classical, segment)
            report.checked += len(worlds)
            if not keep_pairs and kripke == classical:
                continue
            key = tuple(sorted(rho.items()))
            for i, w in enumerate(worlds):
                kv, cv = kripke >> i & 1, classical >> i & 1
                if keep_pairs:
                    report.pairs.append((w, f, key, kv, cv))
                if kv != cv:
                    report.disagreements.append((w, f, key, kv, cv))
    return report


# --- exhaustive sweep ------------------------------------------------------


def enumerate_formulas(sig: Signature, atoms: Sequence[Formula], depth: int) -> list:
    """Every formula of depth <= depth over the given atoms, connectives,
    and the quantifiers binding x.

    Depth counts nodes on the longest root-to-leaf path, atoms being
    depth 1. Formulas are listed by depth, each once. Subformulas are
    shared between entries, so evaluators that memoize per node evaluate
    each distinct subformula once.
    """
    layers = [list(atoms)]
    tables = [sig.table(name) for name in sig.names()]
    for k in range(1, depth):
        # layer k holds the formulas with an immediate subformula in
        # layer k - 1; the constants are of layer 1
        smaller = [f for layer in layers for f in layer]
        in_last = [False] * (len(smaller) - len(layers[-1])) + [True] * len(layers[-1])
        new: list = []
        for table in tables:
            marks = itertools.product(in_last, repeat=table.arity)
            for args, mark in zip(itertools.product(smaller, repeat=table.arity), marks):
                if any(mark) if args else k == 1:
                    new.append(Conn(table.name, args))
        for f in layers[-1]:
            new.append(Forall("x", f))
            new.append(Exists("x", f))
        layers.append(new)
    return [f for layer in layers for f in layer]


@dataclass
class SweepReport:
    models: int = 0
    values: int = 0
    disagreements: list = field(default_factory=list)

    @property
    def agreement(self) -> bool:
        return not self.disagreements

    def render(self) -> str:
        status = "agree" if self.agreement else "DISAGREE"
        return (
            f"collapse sweep: {self.models} models, {self.values} value "
            f"comparisons, {status}"
        )


def run_collapse_sweep(
    sig: Signature,
    max_worlds: int = 3,
    max_domain: int = 2,
    depth: int = 3,
    up_to_iso: bool = True,
) -> SweepReport:
    """Exhaustively compare the two semantics on small models.

    Models: every constant-domain Kripke model with at most max_worlds
    worlds (one preorder per isomorphism class by default; values
    transport along frame isomorphisms, so nothing is lost), domains of
    size 1..max_domain, and every hereditary interpretation of one unary
    predicate P and two propositional symbols p, q. Formulas: every
    formula of depth <= depth over the signature, the atoms p, q, P(x),
    and quantifiers over x. The enumeration cap counts labeled models, as
    in cd_model_batches, also where one frame per class is walked. Raises
    UsageError when a bound or the depth is below 1.

    Consecutive batches are packed while they hold at most
    kripke.MAX_BATCH_WIDTH models, whatever their world counts, and
    each run is evaluated in one Lanes: at the default bounds the 8,976
    models of one to three worlds are one lane set. Disagreements
    are reported in walk order: Lanes.locate maps each lane to its
    batch's segment, its model there and its world, and the models are
    sorted by (segment, model).
    """
    if min(max_worlds, max_domain, depth) < 1:
        raise UsageError("bounds must be >= 1")
    preds = {"p": 0, "q": 0, "P": 1}
    atoms = [Atom("p"), Atom("q"), Atom("P", ("x",))]
    formulas = enumerate_formulas(sig, atoms, depth)
    if depth >= 2:
        # the formulas of depth 2 hold every connective of sig, and those
        # of depth 1 none
        require_monotone(sig.names(), sig)
    report = SweepReport()
    for batches in _packed(cd_model_batches(preds, max_worlds, max_domain, up_to_iso)):
        # every interpretation of the run's frames in one Lanes, models
        # in walk order; each model keeps its first 100 disagreements in
        # check order
        lanes = Lanes.for_batches(batches, sig)
        found: dict = {}  # (segment, model in segment) -> disagreements
        for f, rho, alive, live, kripke, classical in _lane_values(lanes, formulas):
            report.values += live
            diff = (kripke ^ classical) & alive
            if not diff:
                continue
            key = tuple(sorted(rho.items()))
            while diff:
                lane = (diff & -diff).bit_length() - 1
                diff &= diff - 1
                segment, model, world = lanes.locate(lane)
                kept = found.setdefault((segment, model), [])
                if len(kept) < 100:
                    kept.append((batches[segment].worlds[world], f, key,
                                 kripke >> lane & 1, classical >> lane & 1))
        report.models += lanes.width
        for model in sorted(found):
            report.disagreements.extend(found[model])
    return report
