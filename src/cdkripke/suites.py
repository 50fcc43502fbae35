"""Seeded randomized suites for the semantic invariants.

Three suites, all reproducible from their seed:

  heredity   formula values never drop along the order of a validated
             Kripke model (growing domains allowed, non-monotonic
             connectives allowed);
  lift       a propositional sequent with a classical countermodel is
             refuted by the one-world lift of that countermodel;
  collapse   over a monotonic signature, constant-domain Kripke values
             coincide with the per-world classical projections.

A random model's edge coins are a bit mask that picks a frame plan,
from a cache of at most 1024; its domains and interpretation are closed
upward over the plan, and the model is validated where it is drawn. A
random formula reads its signature's (name, arity) menu, built once per
signature. The lift suite decides on the cached valuation batch of a
sequent's symbols (kripke.valuation_batch: at most 64 batches, each of
at most MAX_BATCH_WIDTH valuations).

The heredity and collapse suites draw their trials in runs of at most
RUN_TRIALS, each trial's model and then its formula from the seeded
generator. A run's models are evaluated in one Lanes.for_models, and
each trial's verdict is read from its model's segment alone by the code
that check_heredity and check_collapse run on one model, so a verdict
is the one a check of that trial alone gives. The collapse suite
refuses a non-monotonic signature before it draws anything.

Reports are plain data. Rendering them twice from the same seed gives
byte-identical text, so they can serve as golden artifacts.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from .classical import Countermodel, decide_propositional
from .collapse import lift_classical, require_monotone, segment_collapse
from .kripke import (
    Failure,
    KripkeModel,
    closed_frame,
    model_validity,
    require_valid,
    segment_heredity,
)
from .lanes import Lanes
from .syntax import Atom, Conn, Exists, Forall, Formula, Sequent
from .truthfn import Signature, standard_signature

MIXED_SIGNATURE = standard_signature("and", "or", "implies", "nand", "xor", "not")
MONOTONE_SIGNATURE = standard_signature("and", "or")

# the most trials drawn before their models are evaluated in one Lanes:
# it bounds the memory and the integer width of a lane set
RUN_TRIALS = 128

_PREDS = {"p": 0, "q": 0, "P": 1}
_ATOMS = (Atom("p"), Atom("q"), Atom("P", ("x",)))


@functools.lru_cache(maxsize=1024)
def _frame_plan(n: int, mask: int) -> tuple:
    """(worlds, future, ups) of the frame on n worlds whose edges are the
    set bits of mask, bit k the k-th pair of distinct worlds in row-major
    order: future is its read-only closed_frame map, ups[i] the indices
    of the worlds above world i. The last 1024 plans are kept."""
    worlds = tuple(f"w{i}" for i in range(n))
    candidates = [(v, u) for v in worlds for u in worlds if v != u]
    future = closed_frame(worlds, [pair for k, pair in enumerate(candidates) if mask >> k & 1])
    return worlds, future, tuple(tuple(worlds.index(v) for v in future[w]) for w in worlds)


@functools.lru_cache(maxsize=64)
def _element_menu(max_domain: int) -> tuple:
    """The element pool, and the (predicate, argument tuple) slots that
    random_kripke_model draws, the predicates of _PREDS in sorted order."""
    pool = tuple(f"a{i + 1}" for i in range(max_domain))
    return pool, tuple((pred, args) for pred, arity in sorted(_PREDS.items())
                       for args in (((),) if arity == 0 else [(a,) for a in pool]))


def random_kripke_model(
    rng: random.Random,
    max_worlds: int = 3,
    max_domain: int = 2,
    constant_domain: bool = False,
) -> KripkeModel:
    """A validated random model: the edge coins pick a frame plan, and
    raw random bits are closed upward along its order, so heredity and
    domain growth hold by construction; validated where it is drawn."""
    n = rng.randint(1, max_worlds)
    coin = rng.random
    mask = 0
    for k in range(n * n - n):
        mask |= (coin() < 0.5) << k
    worlds, future, ups = _frame_plan(n, mask)

    pool, slots = _element_menu(max_domain)
    if constant_domain:
        domain = tuple(sorted(["a1", *[elem for elem in pool[1:] if coin() < 0.7]]))
        members = [frozenset(domain)] * n
        domains = dict.fromkeys(worlds, domain)
    else:
        members = [{"a1"} for _ in worlds]
        for elem in pool[1:]:
            for above in ups:
                if coin() < 0.4:
                    for j in above:
                        members[j].add(elem)
        domains = {w: tuple(sorted(held)) for w, held in zip(worlds, members)}

    interp = {}
    for pred, args in slots:
        for w, held in zip(worlds, members):
            if held.issuperset(args) and coin() < 0.4:
                for v in future[w]:
                    interp[v, pred, args] = 1
    return require_valid(KripkeModel(worlds, dict(future), domains, interp))


def random_formula(
    rng: random.Random,
    sig: Signature,
    depth: int,
    atoms: Sequence[Formula] = _ATOMS,
    quantifiers: bool = True,
) -> Formula:
    menu, kinds = sig.arities, ("conn",) * 4 + (("forall", "exists") if quantifiers else ())
    chance, choice = rng.random, rng.choice

    def draw(depth: int) -> Formula:
        if depth <= 1 or chance() < 0.25:
            return choice(atoms)
        kind = choice(kinds)
        if kind == "conn":
            name, arity = choice(menu)
            return Conn(name, [draw(depth - 1) for _ in range(arity)])
        body = draw(depth - 1)
        return Forall("x", body) if kind == "forall" else Exists("x", body)

    return draw(depth)


def random_propositional_sequent(
    rng: random.Random,
    sig: Signature,
    symbols: Sequence[str] = ("p", "q", "r"),
    depth: int = 3,
    max_side: int = 2,
) -> Sequent:
    atoms = tuple(Atom(s) for s in symbols)

    def formula():
        return random_formula(rng, sig, rng.randint(1, depth), atoms, quantifiers=False)

    antecedent = [formula() for _ in range(rng.randint(0, max_side))]
    succedent = [formula() for _ in range(rng.randint(1, max_side))]
    return Sequent(antecedent, succedent)


@dataclass
class SuiteReport:
    name: str
    seed: int
    trials: int
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def render(self) -> str:
        head = (
            f"{self.name}: seed={self.seed} trials={self.trials} "
            f"violations={len(self.violations)}"
        )
        return "\n".join([head] + [f"  {v}" for v in self.violations[:20]])

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "seed": self.seed,
            "trials": self.trials,
            "violations": list(self.violations[:100]),
            "passed": self.passed,
        }


def _runs(trials: int, draw: Callable[[], tuple], sig: Signature) -> Iterator[tuple]:
    """(first, drawn, lanes) for each run of at most RUN_TRIALS trials:
    the index of its first trial, its (model, formula) pairs, one draw()
    per trial in trial order, and Lanes.for_models of their models, each
    trial's model the segment of the trial's index in the run."""
    for first in range(0, trials, RUN_TRIALS):
        drawn = [draw() for _ in range(min(RUN_TRIALS, trials - first))]
        yield first, drawn, Lanes.for_models([model for model, _ in drawn], sig)


def run_heredity_suite(
    seed: int,
    trials: int = 10_000,
    sig: Optional[Signature] = None,
) -> SuiteReport:
    """Formula values never drop along the order, whatever the tables."""
    sig = sig or MIXED_SIGNATURE
    rng = random.Random(seed)
    report = SuiteReport("heredity", seed, trials)

    def draw():
        model = random_kripke_model(rng)
        return model, random_formula(rng, sig, depth=4)

    for first, drawn, lanes in _runs(trials, draw, sig):
        # as in check_heredity, which is the one-trial case
        lanes.cross_check = False
        for segment, (model, f) in enumerate(drawn):
            rho = {"x": "a1"} if f.fv else {}
            if not segment_heredity(lanes, segment, f, rho):
                report.violations.append(
                    f"trial {first + segment}: {f} drops along the order of {model}")
    return report


def run_lift_suite(
    seed: int,
    trials: int = 1_000,
    sig: Optional[Signature] = None,
) -> SuiteReport:
    """A classical countermodel, lifted to one world, still refutes."""
    sig = sig or MIXED_SIGNATURE
    rng = random.Random(seed)
    report = SuiteReport("lift", seed, trials)
    for i in range(trials):
        s = random_propositional_sequent(rng, sig)
        verdict = decide_propositional(sig, s)
        if not isinstance(verdict, Countermodel):
            continue
        lifted = lift_classical(verdict.model)
        outcome = model_validity(lifted, s, sig)
        if not isinstance(outcome, Failure):
            report.violations.append(
                f"trial {i}: lift of classical countermodel fails to refute {s}"
            )
    return report


def run_collapse_suite(
    seed: int,
    trials: int = 10_000,
    sig: Optional[Signature] = None,
    depth: int = 3,
) -> SuiteReport:
    """Constant-domain values match per-world classical projections over
    a monotonic signature; a signature with a non-monotonic connective
    is refused, as require_monotone refuses it, before the first trial."""
    sig = sig or MONOTONE_SIGNATURE
    require_monotone(sig.names(), sig)
    rng = random.Random(seed)
    report = SuiteReport("collapse", seed, trials)

    def draw():
        model = random_kripke_model(rng, constant_domain=True)
        return model, random_formula(rng, sig, depth=depth)

    for first, drawn, lanes in _runs(trials, draw, sig):
        for segment, (model, f) in enumerate(drawn):
            sub = segment_collapse(lanes, segment, model, [f], keep_pairs=False)
            if not sub.agreement:
                w, g, rho, kv, cv = sub.disagreements[0]
                report.violations.append(
                    f"trial {first + segment}: {g} at {w} under {dict(rho)}: "
                    f"kripke={kv} classical={cv}"
                )
    return report


@dataclass
class FuzzReport:
    reports: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def render(self) -> str:
        lines = [r.render() for r in self.reports]
        lines.append("fuzz verdict: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "suites": [r.to_json() for r in self.reports],
            "passed": self.passed,
        }


def run_fuzz(seed: int, trials: int = 10_000) -> FuzzReport:
    """The three suites with one master seed; lift runs a tenth of the
    trials since each trial includes a validity decision."""
    return FuzzReport(
        [
            run_heredity_suite(seed, trials),
            run_lift_suite(seed + 1, max(1, trials // 10)),
            run_collapse_suite(seed + 2, trials),
        ]
    )
