"""Finite Kripke models: validation, evaluation, and countermodel search.

A model is a finite preorder of worlds with growing domains and a
hereditary atomic interpretation. Connectives are evaluated with the
future-world clause: ``c(f1, ..., fn)`` holds at w iff the connective's
truth table accepts the argument values at *every* world above w. The
universal quantifier likewise ranges over future worlds and their
domains; the existential quantifier stays at the present world.

Every evaluation runs on the lane core of ``lanes``: one model is
Lanes.for_models of that model alone, its growing domains existence
masks, and a search evaluates one lane set per run of _packed, the
interpretations of consecutive frames of one world count and of every
domain size at once, each element existing on the models whose domain
holds it.
check_heredity reads one model's segment through segment_heredity,
which the heredity suite runs on the segments of many models'
Lanes.for_models: the drops along the order on the lanes where the
assignment's values exist.
Heredity and domain monotonicity are enforced when a model is validated;
evaluation assumes them and never re-checks.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import EnumerationCapError, ModelValidationError, UsageError
from .lanes import Lanes
from .syntax import Formula, Sequent, free_vars, predicates
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

    ``future`` is the order: it maps each world to the worlds above it,
    in ``worlds`` order, and every check and evaluation reads the frame
    from it. ``interp`` maps (world, predicate, argument tuple) to 1,
    with absent triples reading as 0.
    """

    worlds: tuple
    future: Mapping
    domains: Mapping
    interp: Mapping

    @functools.cached_property
    def constant_domain(self) -> bool:
        """Whether every world has a domain, and all of them one set;
        computed once per model from ``domains``."""
        domains = self.domains
        return (len(self.worlds) > 0 and len(domains) == len(self.worlds)
                and len({frozenset(d) for d in domains.values()}) <= 1)


def closed_frame(worlds: Sequence[str], pairs: Iterable) -> Mapping:
    """The future map of a frame: a read-only map from each world to the
    worlds above it in the reflexive-transitive closure of the pairs, in
    ``worlds`` order, ignoring pairs that name unknown worlds.

    The last 1024 distinct frames are kept closed, so a frame met again
    while it is among them is not closed again, and the map is shared
    by every caller: it may not be mutated. Pairs may be any
    2-sequences, lists included.
    """
    return _closed_frame(tuple(worlds), frozenset(tuple(p) for p in pairs))


@functools.lru_cache(maxsize=1024)
def _closed_frame(worlds: tuple, pairs: frozenset) -> Mapping:
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
    # read off the pairs, not the matrix rows, so that a repeated name
    # is listed once per copy among the worlds above
    order = frozenset(
        (worlds[i], worlds[j]) for i in range(n) for j in range(n) if reach[i][j]
    )
    return MappingProxyType({w: tuple(v for v in worlds if (w, v) in order) for w in worlds})


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
    future = closed_frame(worlds, order_pairs)
    domains = {w: tuple(domains[w]) for w in worlds if w in domains}
    return KripkeModel(worlds, dict(future), domains, dict(interp))


def _order_pairs(model: KripkeModel) -> set:
    """The pairs (w, v) of the model's order, v above w, read from its
    future map; a repeated world name gives each of its pairs once."""
    future = model.future
    return {(w, v) for w in model.worlds for v in future[w]}


def _repeats(names: Sequence) -> list:
    """The names occurring more than once, sorted."""
    return sorted({a for a in names if names.count(a) > 1})


def kripke_violations(model: KripkeModel) -> list:
    """All invariant violations of an assembled model, with witnesses."""
    # a valid model, the usual case, passes one scan in its own order; a
    # failing one is scanned again, sorted, to list every witness stably
    if next(_violations(model, iter), None) is None:
        return []
    return list(_violations(model, sorted))


def _violations(model: KripkeModel, ordered: Callable) -> Iterator:
    """The violations of kripke_violations, reading the pairs of the
    order and the interpretation entries in the order of ordered(...)."""
    worlds, domains, interp = model.worlds, model.domains, model.interp
    if not worlds:
        yield Violation("empty-worlds", {})
        return
    world_set = set(worlds)
    # lanes and the world index are keyed by name: a repeat would merge
    if len(world_set) < len(worlds):
        for w in _repeats(worlds):
            yield Violation("repeated-world", {"world": w})
    domain_sets = {w: set(d) for w, d in domains.items()}
    complete = True
    for w in worlds:
        if w not in domains:
            complete = False
            yield Violation("missing-domain", {"world": w})
        elif not domains[w]:
            yield Violation("empty-domain", {"world": w})
        elif len(domain_sets[w]) < len(domains[w]):
            for a in _repeats(domains[w]):
                yield Violation("repeated-element", {"world": w, "element": a})
    # the frame as stored, which evaluation reads unchecked
    future, frame = model.future, []
    for w in worlds:
        above = future.get(w, ())
        if w not in above:
            frame.append(Violation("non-reflexive", {"world": w}))
        for v in above:
            if v not in world_set:
                frame.append(Violation("unknown-world-in-future", {"from": w, "to": v}))
            elif v != w:
                for u in future.get(v, ()):
                    if u not in above:
                        frame.append(Violation("non-transitive", {"from": w, "via": v, "to": u}))
    yield from frame
    if frame or not complete:
        return
    # domain monotonicity along the order
    for w, v in ordered(_order_pairs(model)):
        if w != v and not domain_sets[v].issuperset(domains[w]):
            missing = tuple(a for a in domains[w] if a not in domain_sets[v])
            yield Violation("domain-monotonicity", {"from": w, "to": v, "missing": missing})
    # interpretation sanity plus atomic heredity; absent entries read 0,
    # so only explicit 1-entries can break heredity
    for (w, pred, args), value in ordered(interp.items()):
        if w not in world_set:
            yield Violation("interp-unknown-world", {"world": w, "pred": pred})
        elif value not in (0, 1):
            yield Violation("bad-value", {"world": w, "pred": pred, "args": args, "value": value})
        elif args and not domain_sets[w].issuperset(args):
            yield Violation("interp-out-of-domain", {"world": w, "pred": pred, "args": args})
        elif value == 1:
            for v in future[w]:
                if v != w and interp.get((v, pred, args), 0) == 0:
                    yield Violation("heredity", {"from": w, "to": v, "pred": pred, "args": args})


def validate_kripke_model(
    worlds: Sequence[str],
    order_pairs: Iterable,
    domains: Mapping,
    interp: Mapping,
) -> KripkeModel:
    """Assemble and validate; raises ModelValidationError listing every
    violation found."""
    return require_valid(assemble_kripke_model(worlds, order_pairs, domains, interp))


def require_valid(model: KripkeModel) -> KripkeModel:
    """The model, once kripke_violations finds nothing in it; raises
    ModelValidationError listing every violation found."""
    violations = kripke_violations(model)
    if violations:
        raise ModelValidationError(violations)
    return model


class KripkeEvaluator:
    """Evaluation of formulas on one model, a view of its Lanes.for_models.

    On models with growing domains an assignment may be meaningless at
    some worlds (a value missing from the domain there); those profile
    entries are None, and value() refuses them with a UsageError.
    Under __debug__ the lanes cross-check each universal of a
    constant-domain model against its present-world reading.
    """

    def __init__(self, model: KripkeModel, sig: Signature):
        self.model = model
        self.sig = sig
        self._lanes = Lanes.for_models((model,), sig)
        self._windex = {w: i for i, w in enumerate(model.worlds)}

    def value(self, f: Formula, w: str, rho: Mapping) -> int:
        """f's value at world w under rho, which must map every free
        variable of f into w's domain."""
        i = self._windex.get(w)
        if i is None:
            raise UsageError(f"unknown world {w!r}")
        _check_assignment(self.model.domains[w], rho, f.fvs, f" at {w!r}")
        return self._lanes.value(f, rho)[0] >> i & 1

    def profile(self, f: Formula, rho: Mapping) -> tuple:
        """Value of f at every world, in model world order."""
        lanes = self._lanes
        mask = lanes.value(f, rho)[0]
        alive = lanes.alive(rho, f.fvs)
        return tuple(mask >> i & 1 if alive >> i & 1 else None for i in range(len(self._windex)))


def _check_assignment(domain: Sequence, rho: Mapping, fvs: Sequence, where: str = ""):
    """UsageError unless rho maps each variable of fvs, sorted, into domain."""
    missing = [x for x in fvs if x not in rho]
    if missing:
        raise UsageError(f"assignment misses free variables {missing}")
    for x in fvs:
        if rho[x] not in domain:
            raise UsageError(f"assignment value {rho[x]!r} for {x!r} is outside the domain{where}")


def _refuted(lanes: Lanes, s: Sequent, rho: Mapping) -> int:
    """The lanes where every antecedent of s holds under rho and no
    succedent does."""
    fail = lanes.full
    for f in s.antecedent:
        fail &= lanes.value(f, rho)[0]
    for f in s.succedent:
        fail &= ~lanes.value(f, rho)[0]
    return fail


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
    return _first_failure(Lanes.for_models((model,), sig), model, s)


def _first_failure(lanes: Lanes, model: KripkeModel, s: Sequent):
    """model_validity read from lanes, Lanes.for_models of the model,
    so that a caller may share them with other checks."""
    fv = sorted(free_vars(s))
    for i, w in enumerate(model.worlds):
        for values in itertools.product(model.domains[w], repeat=len(fv)):
            rho = dict(zip(fv, values))
            if _refuted(lanes, s, rho) >> i & 1:
                return Failure(w, rho)
    return Valid()


def check_heredity(model: KripkeModel, f: Formula, rho: Mapping, sig: Signature) -> bool:
    """True iff the formula's value never drops along the order.

    Only pairs w <= v where rho's values all lie in D(w) are compared.
    Runs with the constant-domain cross-check off, so it can diagnose
    models that bypassed validation.
    """
    lanes = Lanes.for_models((model,), sig)
    lanes.cross_check = False
    return segment_heredity(lanes, 0, f, rho)


def segment_heredity(lanes: Lanes, segment: int, f: Formula, rho: Mapping) -> bool:
    """check_heredity of the model that is the given segment of lanes;
    lanes.cross_check must be off where a model may not be hereditary."""
    value = lanes.value(f, rho)[0]
    # the worlds where rho's values exist and f holds but fails at some
    # world above
    return not lanes.segment(value & ~lanes.box(value) & lanes.alive(rho, f.fv), segment)


# --- enumeration of small constant-domain models ---------------------------


def enumerate_preorders(n: int, up_to_iso: bool = False) -> list:
    """All preorders on n labeled points, as boolean matrices sorted by
    their row-major bit string. With up_to_iso=True, only the first
    matrix of each class of matrices equal up to a permutation of the
    points is kept, which is the class's minimum row-major code."""
    return [tuple(tuple(bool(row >> (n - 1 - j) & 1) for j in range(n)) for row in rows)
            for rows, *_, representative in _frames(n) if representative or not up_to_iso]


# ceiling on the number of models a bounded search may enumerate
DEFAULT_ENUM_CAP = 2 ** 24
ENUM_CAP_ENV = "CDKRIPKE_MAX_ENUM"


def enum_cap() -> int:
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


def interpretation_slots(preds: Mapping, domain: Sequence[str]) -> list:
    """The documented slot order: predicates sorted by name, argument
    tuples in lexicographic order over the domain as given."""
    slots = []
    for pred in sorted(preds):
        for args in itertools.product(domain, repeat=preds[pred]):
            slots.append((pred, args))
    return slots


@dataclass(frozen=True)
class Valid:
    pass


@functools.lru_cache(maxsize=None)
def _frames(n: int) -> tuple:
    """(rows, worlds, future, vectors, representative) per preorder on n
    worlds, in enumerate_preorders order: rows its row masks, as
    _preorder_rows lists them, future a read-only map from each world to
    the worlds above it, vectors the 0/1 world vectors that never drop
    along the order, as binary numbers in increasing order (first world
    most significant), and representative true for the first frame of
    each isomorphism class.

    Computed once per process, so every value is immutable."""
    worlds = tuple(f"w{i}" for i in range(n))
    points = range(n)
    masks = range(1 << n)
    # for each row mask: its bits as a world vector, and the worlds it
    # holds
    bits = [tuple(row >> (n - 1 - j) & 1 for j in points) for row in masks]
    held = [tuple(w for w, x in zip(worlds, b) if x) for b in bits]
    # the row mask of every permutation's image of every row mask
    perms = [(p, [sum(b[p[j]] << (n - 1 - j) for j in points) for b in bits])
             for p in itertools.permutations(points)]
    frames, covered = [], set()
    for rows in _preorder_rows(n):
        representative = rows not in covered
        if representative:
            covered.update(tuple(image[rows[p[i]]] for i in points) for p, image in perms)
        future = MappingProxyType({w: held[row] for w, row in zip(worlds, rows)})
        # up-sets: need[v] is every world reached from the worlds of v
        need = [0] * (1 << n)
        for v in masks[1:]:
            low = v & -v
            need[v] = need[v ^ low] | rows[n - low.bit_length()]
        vectors = tuple(bits[v] for v in masks if need[v] == v)
        frames.append((rows, worlds, future, vectors, representative))
    return tuple(frames)


def _preorder_rows(n: int) -> list:
    """Every preorder on n points as a tuple of row masks, the first
    point most significant, in row-major order: the reflexive relations
    in which each row holds the rows of the points it reaches.

    Rows are chosen in order, each in increasing order of its mask, which
    lists the preorders sorted. A row is dropped as soon as it breaks
    transitivity with a row chosen before it, so no intransitive prefix
    is extended."""
    bit = [1 << (n - 1 - j) for j in range(n)]
    out: list = []
    rows: list = []

    def extend(m: int):
        if m == n:
            out.append(tuple(rows))
            return
        for row in range(1 << n):
            if not row & bit[m] or any(
                    row & bit[k] and rows[k] & ~row or rows[k] & bit[m] and row & ~rows[k]
                    for k in range(m)):
                continue
            rows.append(row)
            extend(m + 1)
            rows.pop()

    extend(0)
    return out


class CdBatch:
    """Interpretations of one frame and domain: the models are the
    product of ``choices``, one tuple of world vectors per slot of
    ``slots``, earlier slots varying slowest; ``width`` counts them.
    ``lane_masks`` is filled in by the first Lanes.for_batches that
    holds the batch.

    A plain class rather than a dataclass, because every CLI call pays
    the package import and a dataclass takes most of a millisecond to
    create."""

    def __init__(self, worlds: tuple, future: Mapping, domain: tuple, slots: Sequence,
                 choices: Sequence):
        self.worlds = worlds
        self.future = future
        self.domain = domain
        self.slots = slots
        self.choices = choices
        width = 1
        for choice in choices:
            width *= len(choice)
        self.width = width
        self.lane_masks = None

    def slot_vectors(self, index: int) -> list:
        """(slot, world vector) pairs of the index-th model, 0 <= index <
        width, in slot order."""
        out = []
        for choice in reversed(self.choices):
            index, at = divmod(index, len(choice))
            out.append(choice[at])
        return list(zip(self.slots, reversed(out)))

    def model(self, index: int) -> KripkeModel:
        """The index-th model of the batch, 0 <= index < width."""
        interp = {}
        for (pred, args), vec in self.slot_vectors(index):
            for w, val in zip(self.worlds, vec):
                if val:
                    interp[(w, pred, args)] = 1
        worlds = self.worlds
        return KripkeModel(worlds, self.future, {w: self.domain for w in worlds}, interp)

    def models(self):
        return (self.model(index) for index in range(self.width))


# the most worlds a walk lists the frames of: _frames(7) alone would list
# all 9,535,241 labeled preorders (OEIS A000798) before a model is counted
MAX_FRAME_WORLDS = 6

# the largest domain a walk lists: with a predicate of arity >= 1, size
# 65 alone has over 2**64 models, and with only 0-ary ones the size
# changes no value but costs a batch and an existence mask
MAX_DOMAIN = 64

# the most models in one batch of cd_model_batches and in one run of
# _packed: each lane mask holds models * worlds bits, and a lane set
# keeps one mask per formula and assignment evaluated
MAX_BATCH_WIDTH = 2 ** 14


def cd_model_batches(preds: Mapping, max_worlds: int, max_domain: int,
                     up_to_iso: bool = False):
    """Yield the models of each (frame, domain size) as CdBatches in
    enumerate_cd_models order, each slot ranging over the frame's
    monotone world vectors, split by _split. With up_to_iso=True, a
    frame that does not represent its isomorphism class yields no batches.

    Raises EnumerationCapError before the models of the frame and domain
    size that would take the cumulative model count past enum_cap(). The
    count runs over every labeled frame and domain size, yielded or
    not, so a bound meets the cap where the labeled walk meets it.
    Frames of more than MAX_FRAME_WORLDS worlds are refused the same way
    when the walk reaches them, and domains of more than MAX_DOMAIN
    elements once the batches of every world count up to that size are
    yielded."""
    return itertools.chain.from_iterable(_cd_walk(preds, max_worlds, max_domain, up_to_iso))


def _cd_walk(preds: Mapping, max_worlds: int, max_domain: int, up_to_iso: bool):
    """The batches of cd_model_batches as one lazy iterator per world
    count, in order. The cap count runs on across the iterators, so each
    must be used up before the next is asked for; asking for the
    iterator of more than MAX_FRAME_WORLDS worlds raises the refusal.
    Each iterator walks the domain sizes up to MAX_DOMAIN, and a bound
    past it is refused when the iterator after the last is asked for."""
    ceiling = enum_cap()
    largest = min(max_domain, MAX_DOMAIN)
    produced = 0
    sizes = []  # (domain, slots) per domain size, listed by the first frame

    def world_count(n):
        nonlocal produced
        for _, worlds, future, vectors, representative in _frames(n):
            for size in range(1, largest + 1):
                if len(sizes) < size:
                    domain = tuple(f"a{i + 1}" for i in range(size))
                    sizes.append((domain, interpretation_slots(preds, domain)))
                domain, slots = sizes[size - 1]
                produced += len(vectors) ** len(slots)
                if produced > ceiling:
                    # one world: the models are classical, name no world bound
                    within = (f"constant-domain models within worlds<={max_worlds}, "
                              if max_worlds > 1 else "models within ")
                    raise EnumerationCapError(
                        f"bound infeasible: more than {ceiling} {within}domain<={max_domain}"
                    )
                if up_to_iso and not representative:
                    continue
                yield from _split(worlds, future, domain, slots, vectors)

    for n in range(1, max_worlds + 1):
        if n > MAX_FRAME_WORLDS:
            raise EnumerationCapError(
                f"bound infeasible: frames of more than {MAX_FRAME_WORLDS} worlds "
                f"are not enumerated, worlds<={max_worlds}"
            )
        yield world_count(n)
    if max_domain > MAX_DOMAIN:
        raise EnumerationCapError(
            f"bound infeasible: domains of more than {MAX_DOMAIN} elements "
            f"are not enumerated, domain<={max_domain}"
        )


def _split(worlds: tuple, future: Mapping, domain: tuple, slots: Sequence, vectors: tuple):
    """The models of one frame and domain, every slot ranging over
    vectors, as CdBatches of at most MAX_BATCH_WIDTH models in order:
    each batch holds one vector of each of the fewest leading slots
    that bring the rest within that width."""
    lead = 0
    while lead < len(slots) and len(vectors) ** (len(slots) - lead) > MAX_BATCH_WIDTH:
        lead += 1
    rest = [vectors] * (len(slots) - lead)
    for fixed in itertools.product(zip(vectors), repeat=lead):
        yield CdBatch(worlds, future, domain, slots, [*fixed, *rest])


def valuation_batches(symbols: Sequence[str]):
    """Every valuation of the symbols, as the batches that
    cd_model_batches(dict.fromkeys(symbols, 0), 1, 1) lists for sorted
    symbols, but not counted against the cap."""
    _, worlds, future, vectors, _ = _frames(1)[0]
    return _split(worlds, future, ("a1",), [(sym, ()) for sym in symbols], vectors)


def _packed(batches):
    """Maximal runs of consecutive batches of at most MAX_BATCH_WIDTH
    models in all, each run a list, in order: one Lanes.for_batches
    each. When the batches raise EnumerationCapError, the pending run is
    yielded first."""
    run: list = []
    width = 0
    try:
        for batch in batches:
            if run and width + batch.width > MAX_BATCH_WIDTH:
                yield run
                run, width = [], 0
            run.append(batch)
            width += batch.width
    except EnumerationCapError:
        if run:
            yield run
        raise
    if run:
        yield run


def enumerate_cd_models(
    preds: Mapping,
    max_worlds: int,
    max_domain: int,
    up_to_iso: bool = False,
):
    """Yield every constant-domain model over the given predicates within
    the bounds, in a deterministic order.

    Order: world count ascending; preorder matrices in enumerate_preorders
    order; domain size ascending; interpretations as the product of
    per-slot monotone world vectors, slots in interpretation_slots order,
    earlier slots varying slowest. Raises EnumerationCapError when the
    cumulative count of labeled models would exceed the cap.
    """
    for batch in cd_model_batches(preds, max_worlds, max_domain, up_to_iso):
        yield from batch.models()


@dataclass(frozen=True)
class CdCountermodel:
    model: KripkeModel
    world: str
    assignment: Mapping = field(default_factory=dict)


@dataclass(frozen=True)
class NoCountermodelUpTo:
    """No countermodel within the bounds: the report of a bounded search.
    The classical searches report one world."""

    max_worlds: int
    max_domain: int


def _first_refutation(sig: Signature, s: Sequent, walk: Iterable):
    """(batch, model index, world, assignment) of the first refutation of
    s in walk, one iterator of batches per world count as _cd_walk lists
    them, or None. Each world count's batches are packed on their own,
    so its last run is evaluated before the next world count is listed."""
    fv = sorted(free_vars(s))
    for batches in walk:
        for run in _packed(batches):
            found = _batch_refutation(Lanes.for_batches(run, sig), run, s, fv)
            if found is not None:
                return found
    return None


def _batch_refutation(lanes: Lanes, batches: Sequence[CdBatch], s: Sequent, fv: Sequence):
    """(batch, model index, world, assignment) of the first refutation of
    s among the models of the batches, in (batch, model, world,
    assignment) order, read from lanes, Lanes.for_batches of the
    batches, of one world count or of several, with fv the sequent's
    sorted free variables; or None. Only the lanes where an
    assignment's values exist are read."""
    rhos = [dict(zip(fv, values)) for values in itertools.product(lanes.domain, repeat=len(fv))]
    failing, union = [], 0
    for rho in rhos:
        fail = _refuted(lanes, s, rho) & lanes.alive(rho, fv)
        failing.append(fail)
        union |= fail
    if not union:
        return None
    # the lowest failing lane is the first failing world of the first
    # failing model; a smaller domain is a prefix of the larger, so its
    # assignments keep their order
    lane = (union & -union).bit_length() - 1
    segment, index, world = lanes.locate(lane)
    batch = batches[segment]
    rho = next(rho for rho, fail in zip(rhos, failing) if fail >> lane & 1)
    return batch, index, batch.worlds[world], rho


def bounded_cd_countermodel_search(sig: Signature, s: Sequent, max_worlds: int,
                                   max_domain: int):
    """Look for a constant-domain Kripke countermodel within the bounds.

    Searches the models of enumerate_cd_models over the predicates
    occurring in s, one run of consecutive batches of one world count at
    a time: the sequent is evaluated on every interpretation of the
    run's frames and of every domain size in one lane set, each
    assignment read on the models whose domain holds its values.
    The refutation returned is the first in (model, world, assignment)
    order, models in enumerate_cd_models order and worlds and
    assignments in model_validity order; only that model is built.
    Otherwise a bound report is returned. The bound report is a
    semi-check only: it never certifies validity beyond the searched
    space.

    Whether some model of a frame refutes s does not change under
    relabeling the frame's worlds, and in enumerate_preorders order the
    representative of an isomorphism class comes before every other
    frame of the class. So the first labeled frame that refutes s is a
    representative, and only representatives are searched; the other
    frames still count against the cap, which is met where the labeled
    search meets it.
    """
    if max_worlds < 1 or max_domain < 1:
        raise UsageError("bounds must be >= 1")
    found = _first_refutation(sig, s, _cd_walk(predicates(s), max_worlds, max_domain, True))
    if found is None:
        return NoCountermodelUpTo(max_worlds, max_domain)
    batch, index, world, rho = found
    return CdCountermodel(batch.model(index), world, rho)


# --- model files ---------------------------------------------------------


def kripke_model_to_json(model: KripkeModel) -> dict:
    obj: dict = {
        "worlds": list(model.worlds),
        "order": sorted([w, v] for w, v in _order_pairs(model)),
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


def _malformed(what: str) -> ModelValidationError:
    return ModelValidationError([f"malformed model file: {what}"])


def _model_file_strings(value, what: str) -> list:
    """value, if it is a JSON list of strings (world names, domain
    elements and predicate arguments are strings in a model file)."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise _malformed(f"{what} must be a list of strings")
    return value


def _model_file_interp(obj: dict, names: tuple) -> dict:
    """The "interp" entries of a model file as {(*names, args): value},
    names being the entry's string fields in key order."""
    entries = obj.get("interp", [])
    if not isinstance(entries, list):
        raise _malformed('"interp" must be a list')
    keys = (*names, "args", "value")
    interp = {}
    for e in entries:
        if not isinstance(e, dict) or any(k not in e for k in keys):
            raise _malformed(f"each interp entry needs the keys {', '.join(keys)}")
        if not all(isinstance(e[k], str) for k in names):
            raise _malformed(f"interp entry {' and '.join(names)} must be strings")
        if isinstance(e["value"], bool) or not isinstance(e["value"], int):
            raise _malformed(f"interp value {e['value']!r} is not an integer")
        args = tuple(_model_file_strings(e["args"], "interp entry args"))
        interp[(*(e[k] for k in names), args)] = int(e["value"])
    return interp


def kripke_model_from_json(obj: dict) -> KripkeModel:
    """A validated Kripke model from the JSON object of a model file."""
    if not isinstance(obj, dict) or "worlds" not in obj:
        raise _malformed('a Kripke model is a JSON object with "worlds"')
    worlds = _model_file_strings(obj["worlds"], '"worlds"')
    order = obj.get("order", [])
    if not isinstance(order, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(isinstance(w, str) for w in pair)
        for pair in order
    ):
        raise _malformed('"order" must be a list of [world, world] pairs')
    order = [tuple(pair) for pair in order]
    if "domain" in obj:
        domain = _model_file_strings(obj["domain"], '"domain"')
        domains = {w: domain for w in worlds}
    elif isinstance(obj.get("domains"), dict):
        domains = {
            w: _model_file_strings(d, f'"domains" of {w!r}') for w, d in obj["domains"].items()
        }
    else:
        raise _malformed('a Kripke model needs "domain" or a "domains" object')
    interp = _model_file_interp(obj, ("world", "pred"))
    known = set(worlds)
    bad = [pair for pair in order if pair[0] not in known or pair[1] not in known]
    if bad:
        raise ModelValidationError(
            [Violation("unknown-world-in-order", {"pair": pair}) for pair in bad]
        )
    return validate_kripke_model(worlds, order, domains, interp)
