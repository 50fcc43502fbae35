"""The scalar evaluators the lane core replaced, kept as a differential
oracle for the tests.

KripkeEvaluator computes one whole world profile at a time, memoized per
(subformula, assignment restricted to its free variables); growing
domains leave None at the worlds where an assigned value does not exist.
ClassicalEvaluator evaluates on one classical model. model_validity and
check_heredity are the scalar loops over them. None of this shares code
with cdkripke.lanes.

close_preorder and assemble_kripke_model close a frame from scratch on
every call and build each world's future by scanning the closed order,
as before frames were closed once per process. constant_domain is the
test a model's constant_domain property must agree with, and
order_pairs lists the pairs of a model's order, read from its future.

preorders lists the preorders on n points as the closures of every
digraph, deduplicated and sorted, as before the frame table kept the
transitive reflexive relations; monotone_world_vectors lists a
preorder's up-sets by testing every pair of points of every vector.

kripke_violations is the invariant scan as it was before a valid model
was passed by one unsorted scan that stops at the first violation: it
sorts the order and the interpretation on every call. It checks the
frame as stored, reflexive, transitive and within the worlds, before
reading domains and heredity along it.

verify_separation is the separator's verifier as it was before its
checks shared lanes: each check runs on its own, through a fresh
decide_propositional and model_validity of cdkripke, and cell_reader
reads every expected-table cell with the scalar evaluators above.

random_kripke_model, random_formula and random_propositional_sequent
are the suites' generators as they were before a drawn model was
packaged on the frame it had closed and validated in place, and before
a formula's connective menu was built once per formula: they pin the
seeded draw stream.
"""

import itertools
import random
from typing import Iterable, Mapping, Optional, Sequence

from cdkripke.classical import ClassicalModel, decide_propositional
from cdkripke.errors import ModelValidationError, UsageError
from cdkripke.kripke import (
    Failure,
    KripkeModel,
    Valid,
    Violation,
    closed_frame,
    validate_kripke_model,
)
from cdkripke.kripke import model_validity as lane_model_validity
from cdkripke.separator import ALLOWED_SYMBOLS, VerificationReport, _resolve
from cdkripke.syntax import (
    Atom,
    Conn,
    Exists,
    Forall,
    Formula,
    Sequent,
    free_vars,
    predicate_shape,
    predicates,
    print_sequent,
)
from cdkripke.truthfn import Signature


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


def preorders(n: int) -> list:
    """The reflexive-transitive closures of every digraph on n points, as
    boolean matrices, each once, sorted by their row-major bit string."""
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


def order_pairs(model: KripkeModel) -> set:
    """The pairs (w, v) of the model's order, v above w; a world missing
    from the future map has none."""
    return {(w, v) for w in model.worlds for v in model.future.get(w, ())}


def constant_domain(model: KripkeModel) -> bool:
    """Every world has a domain, and all of them are one set."""
    domain_sets = [frozenset(d) for d in model.domains.values()]
    return (len(model.worlds) > 0 and len(model.domains) == len(model.worlds)
            and len(set(domain_sets)) <= 1)


def _repeats(names: Sequence) -> list:
    """The names occurring more than once, sorted."""
    return sorted({a for a in names if names.count(a) > 1})


def kripke_violations(model: KripkeModel) -> list:
    """All invariant violations of an assembled model, with witnesses."""
    out = []
    if not model.worlds:
        out.append(Violation("empty-worlds", {}))
        return out
    world_set = set(model.worlds)
    # lanes and the world index are keyed by name: a repeat would merge
    if len(world_set) < len(model.worlds):
        out += [Violation("repeated-world", {"world": w}) for w in _repeats(model.worlds)]
    domain_sets = {w: set(d) for w, d in model.domains.items()}
    for w in model.worlds:
        if w not in model.domains:
            out.append(Violation("missing-domain", {"world": w}))
        elif not model.domains[w]:
            out.append(Violation("empty-domain", {"world": w}))
        elif len(domain_sets[w]) < len(model.domains[w]):
            out += [Violation("repeated-element", {"world": w, "element": a})
                    for a in _repeats(model.domains[w])]
    # the frame as stored, per world in model order and per world above
    # it in future order: reflexive, within the worlds and transitive
    pairs = order_pairs(model)
    frame = []
    for w in model.worlds:
        if (w, w) not in pairs:
            frame.append(Violation("non-reflexive", {"world": w}))
        for v in model.future.get(w, ()):
            if v not in world_set:
                frame.append(Violation("unknown-world-in-future", {"from": w, "to": v}))
                continue
            frame += [Violation("non-transitive", {"from": w, "via": v, "to": u})
                      for u in model.future.get(v, ()) if (w, u) not in pairs]
    out += frame
    if frame or any(v.code in ("missing-domain",) for v in out):
        return out
    # domain monotonicity along the closed order
    for w, v in sorted(pairs):
        if w == v:
            continue
        missing = [a for a in model.domains[w] if a not in domain_sets[v]]
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
        if any(a not in domain_sets[w] for a in args):
            out.append(
                Violation("interp-out-of-domain", {"world": w, "pred": pred, "args": args})
            )
            continue
        if value == 1:
            for v in model.future[w]:
                if v != w and model.interp.get((v, pred, args), 0) == 0:
                    out.append(
                        Violation(
                            "heredity",
                            {"from": w, "to": v, "pred": pred, "args": args},
                        )
                    )
    return out


def assemble_kripke_model(
    worlds: Sequence[str],
    order_pairs: Iterable,
    domains: Mapping,
    interp: Mapping,
) -> KripkeModel:
    """Close the order and package a model without checking invariants."""
    worlds = tuple(worlds)
    order = close_preorder(worlds, order_pairs)
    domains = {w: tuple(domains[w]) for w in worlds if w in domains}
    future = {
        w: tuple(v for v in worlds if (w, v) in order) for w in worlds
    }
    return KripkeModel(worlds, future, domains, dict(interp))


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
        self._check_cd = bool(check_cd_universal) and constant_domain(model)
        self._cd = constant_domain(model)
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
    for w, v in sorted(order_pairs(model)):
        dom_w = set(model.domains[w])
        if any(rho[x] not in dom_w for x in f.fv):
            continue
        if evaluator.value(f, w, rho) > evaluator.value(f, v, rho):
            return False
    return True


def cell_reader(countermodel: KripkeModel, sig: Signature):
    """row(world, valuation) gives the cell function cell(f, kind) of one
    expected-table row: a Kripke row is read at its world of the
    countermodel, a classical row (world None) on the one-element model
    of its ((symbol, bit), ...) valuation. cell(f, "value") is f's value;
    cell(f, "args") is the tuple of the argument values of f's top
    connective, or None when f is not a connective."""
    kripke = KripkeEvaluator(countermodel, sig)

    def row(world: Optional[str], valuation: Sequence = ()):
        if world is not None:
            def value(f):
                return kripke.value(f, world, {})
        else:
            model = ClassicalModel(("a1",), {(sym, ()): 1 for sym, bit in valuation if bit})
            classical = ClassicalEvaluator(model, sig)

            def value(f):
                return classical.value(f, {})

        def cell(f: Formula, kind: str):
            if kind == "value":
                return value(f)
            if isinstance(f, Conn):
                return tuple(value(g) for g in f.args)
            return None

        return cell

    return row


def verify_separation(result) -> VerificationReport:
    """cdkripke.separator.verify_separation, each check on fresh lanes."""
    report = VerificationReport()
    sig = result.signature()

    # the countermodel must itself validate, on its frame as stored
    try:
        violations = kripke_violations(result.countermodel)
        if violations:
            raise ModelValidationError(violations)
        report.add("countermodel-validates", True)
    except Exception as exc:  # noqa: BLE001 - recorded, not raised
        report.add("countermodel-validates", False, str(exc))

    # shape of the sequent
    try:
        propositional = predicate_shape(result.sequent)[1]
    except UsageError:
        propositional = False  # an arity clash needs an atom with arguments
    report.add("sequent-propositional", propositional, print_sequent(result.sequent))
    try:
        symbols = set(predicates(result.sequent))
        report.add(
            "sequent-symbols",
            symbols <= set(ALLOWED_SYMBOLS),
            f"symbols {sorted(symbols)}",
        )
    except UsageError as exc:
        report.add("sequent-symbols", False, str(exc))
        symbols = set()

    # classical half: exhaustive enumeration over the occurring symbols
    try:
        verdict = decide_propositional(sig, result.sequent)
        report.classical_symbols = tuple(sorted(symbols))
        report.classical_valuations = 2 ** len(symbols)
        report.add(
            "classically-valid",
            isinstance(verdict, Valid),
            "valid" if isinstance(verdict, Valid) else f"refuted by {verdict}",
        )
    except UsageError as exc:
        report.add("classically-valid", False, str(exc))

    # constant-domain half: the countermodel refutes it at the stated world
    verdict = lane_model_validity(result.countermodel, result.sequent, sig)
    if isinstance(verdict, Failure):
        report.add(
            "cd-refuted",
            verdict.world == result.failing_world and not verdict.assignment,
            f"failure at {verdict.world}",
        )
    else:
        report.add("cd-refuted", False, "countermodel does not refute the sequent")

    # every embedded expected table cell
    row_evaluator = cell_reader(result.countermodel, sig)
    for table in result.tables:
        for row in table.rows:
            cell_value = row_evaluator(row.world, row.valuation)
            for cell in row.cells:
                f = _resolve(result, cell.formula)
                where = f"table:{table.name}/{row.label}/{cell.formula}"
                actual = cell_value(f, cell.kind)
                if actual is None:
                    report.add(where, False, "args cell on a non-connective")
                else:
                    expected = cell.expected if cell.kind == "value" else tuple(cell.expected)
                    report.add(where, actual == expected, f"expected {expected}, got {actual}")
    return report


_PREDS = {"p": 0, "q": 0, "P": 1}
_ATOMS = (Atom("p"), Atom("q"), Atom("P", ("x",)))


def random_kripke_model(
    rng: random.Random,
    max_worlds: int = 3,
    max_domain: int = 2,
    constant_domain: bool = False,
) -> KripkeModel:
    """A validated random model; heredity and domain growth hold by
    construction (raw random bits are closed upward along the order)."""
    n = rng.randint(1, max_worlds)
    worlds = [f"w{i}" for i in range(n)]
    pairs = [
        (worlds[i], worlds[j])
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < 0.5
    ]
    # future sets under the closure, needed to close things upward
    future = closed_frame(worlds, pairs)

    pool = [f"a{i + 1}" for i in range(max_domain)]
    domains = {w: {"a1"} for w in worlds}
    for elem in pool[1:]:
        if constant_domain:
            if rng.random() < 0.7:
                for w in worlds:
                    domains[w].add(elem)
        else:
            for w in worlds:
                if rng.random() < 0.4:
                    for v in future[w]:
                        domains[v].add(elem)
    domains = {w: tuple(sorted(domains[w])) for w in worlds}

    interp = {}
    for pred, arity in sorted(_PREDS.items()):
        if arity == 0:
            tuples = [()]
        else:
            tuples = [(a,) for a in pool]
        for args in tuples:
            for w in worlds:
                if any(a not in domains[w] for a in args):
                    continue
                if rng.random() < 0.4:
                    for v in future[w]:
                        interp[(v, pred, args)] = 1
    return validate_kripke_model(worlds, pairs, domains, interp)


def random_formula(
    rng: random.Random,
    sig: Signature,
    depth: int,
    atoms: Sequence[Formula] = _ATOMS,
    quantifiers: bool = True,
) -> Formula:
    if depth <= 1 or rng.random() < 0.25:
        return rng.choice(atoms)
    names = sig.names()
    kinds = ["conn"] * 4 + (["forall", "exists"] if quantifiers else [])
    kind = rng.choice(kinds)
    if kind == "conn":
        name = rng.choice(names)
        arity = sig.arity(name)
        return Conn(
            name,
            tuple(random_formula(rng, sig, depth - 1, atoms, quantifiers)
                  for _ in range(arity)),
        )
    body = random_formula(rng, sig, depth - 1, atoms, quantifiers)
    return Forall("x", body) if kind == "forall" else Exists("x", body)


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
