"""Finite Kripke models: validation, evaluation, and countermodel search.

A model is a finite preorder of worlds with growing domains and a
hereditary atomic interpretation. Connectives are evaluated with the
future-world clause: ``c(f1, ..., fn)`` holds at w iff the connective's
truth table accepts the argument values at *every* world above w. The
universal quantifier likewise ranges over future worlds and their
domains; the existential quantifier stays at the present world.

Heredity and domain monotonicity are enforced when a model is validated;
evaluation assumes them and never re-checks.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .classical import Valid, enum_cap, interpretation_slots
from .errors import EnumerationCapError, ModelValidationError, UsageError
from .lanes import Lanes
from .syntax import (
    Atom,
    Conn,
    Exists,
    Forall,
    Formula,
    Sequent,
    free_vars,
    predicates,
)
from .truthfn import Signature


@dataclass
class Violation:
    code: str
    details: Mapping

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.details.items())
        return f"{self.code}({inner})"


@dataclass(frozen=True)
class KripkeModel:
    """Worlds, a reflexive-transitive order, domains, and interpretation.

    ``order`` always stores the full reflexive-transitive closure;
    ``future`` maps each world to the worlds above it, in ``worlds``
    order. ``interp`` maps (world, predicate, argument tuple) to 1, with
    absent triples reading as 0.
    """

    worlds: tuple
    order: frozenset
    domains: Mapping
    interp: Mapping
    constant_domain: bool
    future: Mapping

    def dom(self, w: str) -> tuple:
        return self.domains[w]

    def value_at(self, w: str, pred: str, args: tuple) -> int:
        return self.interp.get((w, pred, args), 0)

    def leq(self, w: str, v: str) -> bool:
        return (w, v) in self.order


def close_preorder(worlds: Sequence[str], pairs: Iterable) -> frozenset:
    """Reflexive-transitive closure of the given relation."""
    index = {w: i for i, w in enumerate(worlds)}
    n = len(worlds)
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for w, v in pairs:
        if w in index and v in index:
            reach[index[w]][index[v]] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return frozenset(
        (worlds[i], worlds[j]) for i in range(n) for j in range(n) if reach[i][j]
    )


def assemble_kripke_model(
    worlds: Sequence[str],
    order_pairs: Iterable,
    domains: Mapping,
    interp: Mapping,
) -> KripkeModel:
    """Close the order and package a model *without* checking invariants.

    Use validate_kripke_model for anything that should satisfy heredity;
    this raw assembler exists so tests can inject broken models.
    """
    worlds = tuple(worlds)
    order = close_preorder(worlds, order_pairs)
    domains = {w: tuple(domains[w]) for w in worlds if w in domains}
    future = {
        w: tuple(v for v in worlds if (w, v) in order) for w in worlds
    }
    domain_sets = [frozenset(d) for d in domains.values()]
    constant = len(worlds) > 0 and len(domains) == len(worlds) and len(set(domain_sets)) <= 1
    return KripkeModel(worlds, order, domains, dict(interp), constant, future)


def kripke_violations(model: KripkeModel) -> list:
    """All invariant violations of an assembled model, with witnesses."""
    out = []
    if not model.worlds:
        out.append(Violation("empty-worlds", {}))
        return out
    world_set = set(model.worlds)
    for w in model.worlds:
        if w not in model.domains:
            out.append(Violation("missing-domain", {"world": w}))
        elif not model.domains[w]:
            out.append(Violation("empty-domain", {"world": w}))
    if any(v.code in ("missing-domain",) for v in out):
        return out
    # domain monotonicity along the closed order
    for w, v in sorted(model.order):
        if w == v:
            continue
        missing = [a for a in model.domains[w] if a not in set(model.domains[v])]
        if missing:
            out.append(
                Violation(
                    "domain-monotonicity",
                    {"from": w, "to": v, "missing": tuple(missing)},
                )
            )
    # interpretation sanity plus atomic heredity; absent entries read 0,
    # so only explicit 1-entries can break heredity
    for (w, pred, args), value in sorted(model.interp.items()):
        if w not in world_set:
            out.append(Violation("interp-unknown-world", {"world": w, "pred": pred}))
            continue
        if value not in (0, 1):
            out.append(
                Violation("bad-value", {"world": w, "pred": pred, "args": args, "value": value})
            )
            continue
        dom_w = set(model.domains[w])
        if any(a not in dom_w for a in args):
            out.append(
                Violation("interp-out-of-domain", {"world": w, "pred": pred, "args": args})
            )
            continue
        if value == 1:
            for v in model.future[w]:
                if v != w and model.value_at(v, pred, args) == 0:
                    out.append(
                        Violation(
                            "heredity",
                            {"from": w, "to": v, "pred": pred, "args": args},
                        )
                    )
    return out


def validate_kripke_model(
    worlds: Sequence[str],
    order_pairs: Iterable,
    domains: Mapping,
    interp: Mapping,
) -> KripkeModel:
    """Assemble and validate; raises ModelValidationError listing every
    violation found."""
    model = assemble_kripke_model(worlds, order_pairs, domains, interp)
    violations = kripke_violations(model)
    if violations:
        raise ModelValidationError(violations)
    return model


class KripkeEvaluator:
    """Memoized evaluation of formulas on one model.

    Values are computed one whole world-profile at a time and memoized
    per (subformula, assignment restricted to its free variables), which
    turns the future-world clause into tuple indexing. On models with
    growing domains an assignment may be meaningless at some worlds (a
    value missing from the domain there); those profile entries are None
    and are never consulted, because the clauses only descend to worlds
    where the relevant values exist.

    For constant-domain models the universal clause may equivalently be
    computed at the present world only; when ``check_cd_universal`` is on
    (the default under __debug__) both computations run and must agree.
    Diagnostics that run on possibly-invalid models should switch the
    check off, since it relies on heredity.
    """

    def __init__(self, model: KripkeModel, sig: Signature, check_cd_universal: Optional[bool] = None):
        self.model = model
        self.sig = sig
        if check_cd_universal is None:
            check_cd_universal = __debug__
        self._check_cd = bool(check_cd_universal) and model.constant_domain
        self._cd = model.constant_domain
        worlds = model.worlds
        self._worlds = worlds
        self._windex = {w: i for i, w in enumerate(worlds)}
        self._future_idx = tuple(
            tuple(self._windex[v] for v in model.future[w]) for w in worlds
        )
        self._tables = dict(sig.connectives)
        # per element: at which worlds it exists (only needed when domains grow)
        self._elem_worlds = {}
        if not self._cd:
            for i, w in enumerate(worlds):
                for a in model.domains[w]:
                    self._elem_worlds.setdefault(a, set()).add(i)
        self._memo: dict = {}
        self._keep: dict = {}

    def value(self, f: Formula, w: str, rho: Mapping) -> int:
        result = self.profile(f, rho)[self._windex[w]]
        if result is None:
            raise UsageError(
                f"assignment {dict(rho)!r} is not defined at world {w!r}"
            )
        return result

    def profile(self, f: Formula, rho: Mapping) -> tuple:
        """Value of f at every world, in model world order."""
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
        result = self._compute(f, rho)
        memo[key] = result
        return result

    def _alive(self, rho: Mapping, fvs) -> Optional[set]:
        """World indices where every assigned value exists, or None for all."""
        if self._cd or not fvs:
            return None
        alive = None
        for x in fvs:
            ws = self._elem_worlds.get(rho[x], set())
            alive = set(ws) if alive is None else alive & ws
        return alive

    def _compute(self, f: Formula, rho: Mapping) -> tuple:
        model = self.model
        worlds = self._worlds
        alive = self._alive(rho, f.fvs)
        if isinstance(f, Atom):
            args = tuple(rho[x] for x in f.args)
            interp = model.interp
            return tuple(
                interp.get((w, f.pred, args), 0)
                if alive is None or i in alive
                else None
                for i, w in enumerate(worlds)
            )
        if isinstance(f, Conn):
            table = self._tables.get(f.name)
            if table is None:
                table = self.sig.table(f.name)  # raises UsageError
            outs = table.outputs
            profiles = [self.profile(g, rho) for g in f.args]
            future = self._future_idx
            vals = []
            if len(profiles) == 2:
                pa, pb = profiles
                for i in range(len(worlds)):
                    if alive is not None and i not in alive:
                        vals.append(None)
                        continue
                    v = 1
                    for j in future[i]:
                        if outs[(pa[j] << 1) | pb[j]] == 0:
                            v = 0
                            break
                    vals.append(v)
            else:
                for i in range(len(worlds)):
                    if alive is not None and i not in alive:
                        vals.append(None)
                        continue
                    v = 1
                    for j in future[i]:
                        idx = 0
                        for p in profiles:
                            idx = (idx << 1) | p[j]
                        if outs[idx] == 0:
                            v = 0
                            break
                    vals.append(v)
            return tuple(vals)
        if isinstance(f, Forall):
            body, var = f.body, f.var
            cache: dict = {}

            def body_profile(a):
                p = cache.get(a)
                if p is None:
                    p = cache[a] = self.profile(body, {**rho, var: a})
                return p

            future = self._future_idx
            domains = model.domains
            vals = []
            for i, w in enumerate(worlds):
                if alive is not None and i not in alive:
                    vals.append(None)
                    continue
                v = 1
                for j in future[i]:
                    for a in domains[worlds[j]]:
                        if body_profile(a)[j] != 1:
                            v = 0
                            break
                    if v == 0:
                        break
                vals.append(v)
            if self._check_cd:
                domain = domains[worlds[0]]
                present = tuple(
                    1 if all(body_profile(a)[i] == 1 for a in domain) else 0
                    for i in range(len(worlds))
                )
                assert present == tuple(vals), (
                    f"universal clause mismatch: future-worlds {tuple(vals)}, "
                    f"present-world {present} for {f}"
                )
            return tuple(vals)
        if isinstance(f, Exists):
            body, var = f.body, f.var
            cache = {}

            def body_profile(a):
                p = cache.get(a)
                if p is None:
                    p = cache[a] = self.profile(body, {**rho, var: a})
                return p

            domains = model.domains
            vals = []
            for i, w in enumerate(worlds):
                if alive is not None and i not in alive:
                    vals.append(None)
                    continue
                v = 0
                for a in domains[w]:
                    if body_profile(a)[i] == 1:
                        v = 1
                        break
                vals.append(v)
            return tuple(vals)
        raise UsageError(f"not a formula: {f!r}")

    def sequent_value(self, s: Sequent, w: str, rho: Mapping) -> int:
        if all(self.value(f, w, rho) == 1 for f in s.antecedent) and all(
            self.value(f, w, rho) == 0 for f in s.succedent
        ):
            return 0
        return 1


def _check_assignment(model: KripkeModel, w: str, rho: Mapping, fv: frozenset):
    if w not in set(model.worlds):
        raise UsageError(f"unknown world {w!r}")
    missing = [x for x in sorted(fv) if x not in rho]
    if missing:
        raise UsageError(f"assignment misses free variables {missing}")
    dom = set(model.domains[w])
    for x in sorted(fv):
        if rho[x] not in dom:
            raise UsageError(
                f"assignment value {rho[x]!r} for {x!r} is outside the domain at {w!r}"
            )


def eval_kripke(model: KripkeModel, w: str, rho: Mapping, f: Formula, sig: Signature) -> int:
    _check_assignment(model, w, rho, f.fv)
    return KripkeEvaluator(model, sig).value(f, w, rho)


def eval_sequent_kripke(
    model: KripkeModel, w: str, rho: Mapping, s: Sequent, sig: Signature
) -> int:
    _check_assignment(model, w, rho, free_vars(s))
    return KripkeEvaluator(model, sig).sequent_value(s, w, rho)


@dataclass(frozen=True)
class Failure:
    world: str
    assignment: Mapping = field(default_factory=dict)


def model_validity(model: KripkeModel, s: Sequent, sig: Signature):
    """Check s at every world and assignment; first failure wins.

    Worlds are visited in model order; assignments enumerate the
    sequent's free variables (sorted) over the world's domain in domain
    order, lexicographically.
    """
    fv = sorted(free_vars(s))
    evaluator = KripkeEvaluator(model, sig)
    for w in model.worlds:
        for values in itertools.product(model.domains[w], repeat=len(fv)):
            rho = dict(zip(fv, values))
            if evaluator.sequent_value(s, w, rho) == 0:
                return Failure(w, rho)
    return Valid()


def check_heredity(model: KripkeModel, f: Formula, rho: Mapping, sig: Signature) -> bool:
    """True iff the formula's value never drops along the order.

    Only pairs w <= v where rho's values all lie in D(w) are compared.
    Runs with the constant-domain cross-check off, so it can diagnose
    models that bypassed validation.
    """
    evaluator = KripkeEvaluator(model, sig, check_cd_universal=False)
    for w, v in sorted(model.order):
        dom_w = set(model.domains[w])
        if any(rho[x] not in dom_w for x in f.fv):
            continue
        if evaluator.value(f, w, rho) > evaluator.value(f, v, rho):
            return False
    return True


# --- enumeration of small constant-domain models ---------------------------


def enumerate_preorders(n: int, up_to_iso: bool = False) -> list:
    """All preorders on n labeled points, as closed boolean matrices.

    Generated as reflexive-transitive closures of every digraph on n
    nodes, deduplicated by the matrix itself and sorted by its row-major
    bit string. With up_to_iso=True, matrices are further deduplicated by
    the minimum row-major code over all point permutations, keeping that
    minimal representative.
    """
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    seen = set()
    for picks in itertools.product((False, True), repeat=len(pairs)):
        reach = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), on in zip(pairs, picks):
            if on:
                reach[i][j] = True
        for k in range(n):
            for i in range(n):
                if reach[i][k]:
                    for j in range(n):
                        if reach[k][j]:
                            reach[i][j] = True
        seen.add(tuple(tuple(row) for row in reach))
    if up_to_iso:
        canonical = set()
        for mat in seen:
            best = min(
                tuple(tuple(mat[p[i]][p[j]] for j in range(n)) for i in range(n))
                for p in itertools.permutations(range(n))
            )
            canonical.add(best)
        seen = canonical
    return sorted(seen)


def monotone_world_vectors(matrix) -> list:
    """All 0/1 world vectors that never drop along the given preorder,
    ordered as binary numbers (first world most significant)."""
    n = len(matrix)
    out = []
    for bits in itertools.product((0, 1), repeat=n):
        if all(
            bits[i] <= bits[j] for i in range(n) for j in range(n) if matrix[i][j]
        ):
            out.append(bits)
    return out


def _world_names(n: int) -> tuple:
    return tuple(f"w{i}" for i in range(n))


def _domain_names(n: int) -> tuple:
    return tuple(f"a{i + 1}" for i in range(n))


class CdBatch:
    """Every interpretation of one frame and domain size: the models are
    the product of per-slot monotone world vectors, slots in
    interpretation_slots order, earlier slots varying slowest; ``width``
    counts them.

    A plain class rather than a dataclass, because every CLI call pays
    the package import and a dataclass takes most of a millisecond to
    create."""

    def __init__(self, worlds: tuple, order: frozenset, future: Mapping,
                 domain: tuple, slots: list, vectors: list):
        self.worlds = worlds
        self.order = order
        self.future = future
        self.domain = domain
        self.slots = slots
        self.vectors = vectors
        self.width = len(vectors) ** len(slots)

    def model(self, index: int) -> KripkeModel:
        """The index-th model of the batch, 0 <= index < width."""
        nvec, last = len(self.vectors), len(self.slots) - 1
        interp = {}
        for s, (pred, args) in enumerate(self.slots):
            vec = self.vectors[index // nvec ** (last - s) % nvec]
            for w, val in zip(self.worlds, vec):
                if val:
                    interp[(w, pred, args)] = 1
        domains = {w: self.domain for w in self.worlds}
        return KripkeModel(self.worlds, self.order, domains, interp, True, self.future)

    def models(self):
        return (self.model(index) for index in range(self.width))


def cd_model_batches(
    preds: Mapping,
    max_worlds: int,
    max_domain: int,
    up_to_iso: bool = False,
    cap: Optional[int] = None,
):
    """Yield one CdBatch per (frame, domain size) in enumerate_cd_models
    order. Raises EnumerationCapError before the batch that would take
    the cumulative model count past the cap."""
    ceiling = enum_cap(cap)
    produced = 0
    for n in range(1, max_worlds + 1):
        worlds = _world_names(n)
        for matrix in enumerate_preorders(n, up_to_iso=up_to_iso):
            order = frozenset(
                (worlds[i], worlds[j])
                for i in range(n)
                for j in range(n)
                if matrix[i][j]
            )
            future = {
                worlds[i]: tuple(worlds[j] for j in range(n) if matrix[i][j])
                for i in range(n)
            }
            vectors = monotone_world_vectors(matrix)
            for size in range(1, max_domain + 1):
                domain = _domain_names(size)
                slots = interpretation_slots(preds, domain)
                batch = CdBatch(worlds, order, future, domain, slots, vectors)
                produced += batch.width
                if produced > ceiling:
                    raise EnumerationCapError(
                        f"bound infeasible: more than {ceiling} constant-domain "
                        f"models within worlds<={max_worlds}, domain<={max_domain}"
                    )
                yield batch


def enumerate_cd_models(
    preds: Mapping,
    max_worlds: int,
    max_domain: int,
    up_to_iso: bool = False,
    cap: Optional[int] = None,
):
    """Yield every constant-domain model over the given predicates within
    the bounds, in a deterministic order.

    Order: world count ascending; preorder matrices in enumerate_preorders
    order; domain size ascending; interpretations as the product of
    per-slot monotone world vectors, slots in interpretation_slots order,
    earlier slots varying slowest. Raises EnumerationCapError when the
    cumulative model count would exceed the cap.
    """
    for batch in cd_model_batches(preds, max_worlds, max_domain, up_to_iso, cap):
        yield from batch.models()


@dataclass(frozen=True)
class CdCountermodel:
    model: KripkeModel
    world: str
    assignment: Mapping = field(default_factory=dict)


@dataclass(frozen=True)
class NoCountermodelUpTo:
    max_worlds: int
    max_domain: int


def bounded_cd_countermodel_search(
    sig: Signature,
    s: Sequent,
    max_worlds: int,
    max_domain: int,
    cap: Optional[int] = None,
):
    """Look for a constant-domain Kripke countermodel within the bounds.

    Searches the models of enumerate_cd_models over the predicates
    occurring in s, one CdBatch at a time: the sequent is evaluated on
    every interpretation of a frame and domain size in one lane pass.
    The refutation returned is the first in (model, world, assignment)
    order, models in enumerate_cd_models order and worlds and
    assignments in model_validity order; only that model is built.
    Otherwise a bound report is returned. The bound report is a
    semi-check only: it never certifies validity beyond the searched
    space.
    """
    if max_worlds < 1 or max_domain < 1:
        raise UsageError("bounds must be >= 1")
    preds = predicates(s)
    fv = sorted(free_vars(s))
    for batch in cd_model_batches(preds, max_worlds, max_domain, cap=cap):
        lanes = Lanes.for_batch(batch, sig)
        rhos = [dict(zip(fv, values))
                for values in itertools.product(batch.domain, repeat=len(fv))]
        # per assignment, the lanes where every antecedent holds and no
        # succedent does
        failing, union = [], 0
        for rho in rhos:
            fail = lanes.full
            for f in s.antecedent:
                fail &= lanes.value(f, rho)[0]
            for f in s.succedent:
                fail &= ~lanes.value(f, rho)[0]
            failing.append(fail)
            union |= fail
        lanes.clear()
        if not union:
            continue
        # fold the world blocks: bit i is set iff model i fails somewhere
        width, block, models = batch.width, (1 << batch.width) - 1, 0
        for j in range(len(batch.worlds)):
            models |= (union >> (j * width)) & block
        index = (models & -models).bit_length() - 1
        for j, w in enumerate(batch.worlds):
            for rho, fail in zip(rhos, failing):
                if fail >> (j * width + index) & 1:
                    return CdCountermodel(batch.model(index), w, rho)
    return NoCountermodelUpTo(max_worlds, max_domain)


# --- model files ---------------------------------------------------------


def kripke_model_to_json(model: KripkeModel) -> dict:
    obj: dict = {
        "worlds": list(model.worlds),
        "order": sorted([w, v] for (w, v) in model.order),
    }
    if model.constant_domain:
        obj["domain"] = list(model.domains[model.worlds[0]])
    else:
        obj["domains"] = {w: list(model.domains[w]) for w in model.worlds}
    obj["interp"] = [
        {"world": w, "pred": pred, "args": list(args), "value": value}
        for (w, pred, args), value in sorted(model.interp.items())
    ]
    return obj


def kripke_model_from_json(obj: dict) -> KripkeModel:
    try:
        worlds = list(obj["worlds"])
        order = [tuple(pair) for pair in obj.get("order", [])]
        if "domain" in obj:
            domains = {w: list(obj["domain"]) for w in worlds}
        else:
            domains = {w: list(d) for w, d in obj["domains"].items()}
        interp = {
            (e["world"], e["pred"], tuple(e["args"])): int(e["value"])
            for e in obj.get("interp", [])
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelValidationError([f"malformed model file: {exc}"]) from None
    known = set(worlds)
    bad = [pair for pair in order if pair[0] not in known or pair[1] not in known]
    if bad:
        raise ModelValidationError(
            [Violation("unknown-world-in-order", {"pair": pair}) for pair in bad]
        )
    return validate_kripke_model(worlds, order, domains, interp)


def load_kripke_model(path) -> KripkeModel:
    with open(path, "r", encoding="utf-8") as fh:
        return kripke_model_from_json(json.load(fh))
