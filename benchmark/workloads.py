"""The four workloads: inputs made from a seed, one timed pass over them,
and a check of every output against a known answer.

A workload's pass returns the time of the whole pass, the time of each
item (a model, query, table or trial batch) and one compact output per
item. check() judges the outputs of one pass, item by item.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracle
from tracing import ROOT

DIGESTS = json.loads((Path(__file__).resolve().parent / "digests.json").read_text())

SWEEP_PREDICATES = {"p": 0, "q": 0, "P": 1}

# monotone truth tables of each arity (Dedekind numbers, OEIS A000372)
MONOTONE_TABLES = {1: 3, 2: 6, 3: 20, 4: 168}


@dataclass
class Pass:
    span: tuple  # (start, end) marks of the whole pass
    item_spans: list  # (start, end) marks of each item
    outputs: list

    @property
    def wall(self) -> float:
        """Seconds of the pass, the sampler's time left out."""
        start, end = self.span
        return end.busy - start.busy


def timed_items(items, call, tracer, mark):
    """Call once per item, marking the start and end of each call and of
    the whole loop."""
    spans, outputs = [], []
    start = mark()
    for item in items:
        t0 = mark()
        idx = tracer.open(ROOT) if tracer else 0
        outputs.append(call(item))
        if tracer:
            tracer.close(idx)
        spans.append((t0, mark()))
    return Pass((start, mark()), spans, outputs)


class Workload:
    """prepare(seed, workdir) makes the inputs; control(m) runs untimed
    before the passes; run_pass(m, inputs, tracer, mark) returns a Pass;
    check(m, inputs, outputs) returns (ok per item, problems, facts)."""

    name = ""

    def control(self, m):
        return {}, []


class CollapseSweep(Workload):
    """run_collapse_sweep over and/or: batch evaluation of one formula
    inventory on every small constant-domain model. Exhaustive, so the
    seed selects nothing. The sweep returns all its verdicts at once, so
    the one item of a pass is the sweep call."""

    name = "collapse-sweep"

    def __init__(self, max_worlds=2, max_domain=2, depth=3, control=(2, 1, 3)):
        self.bounds = dict(max_worlds=max_worlds, max_domain=max_domain, depth=depth)
        self.control_bounds = control

    def prepare(self, seed, workdir):
        return oracle.signature_text(oracle.MONO)

    def control(self, m):
        """Untimed non-vacuity control: over implies, which is not
        monotone, check_collapse must find disagreements."""
        worlds, domain, depth = self.control_bounds
        sig = m.truthfn.parse_signature(oracle.signature_text(oracle.tables_of("implies")))
        atoms = [m.syntax.Atom("p"), m.syntax.Atom("q"), m.syntax.Atom("P", ("x",))]
        formulas = m.collapse.enumerate_formulas(sig, atoms, depth)
        disagreements = sum(
            len(m.collapse.check_collapse(
                model, formulas, sig, keep_pairs=False, precheck=False).disagreements)
            for model in m.kripke.enumerate_cd_models(
                SWEEP_PREDICATES, worlds, domain, up_to_iso=True)
        )
        problems = [] if disagreements else ["control: implies shows no disagreement"]
        return {"control_disagreements": disagreements}, problems

    def run_pass(self, m, signature_text, tracer, mark):
        sig = m.truthfn.parse_signature(signature_text)

        def call(s):
            report = m.collapse.run_collapse_sweep(s, **self.bounds)
            return report.models, report.values, report.agreement

        return timed_items([sig], call, tracer, mark)

    def check(self, m, signature_text, outputs):
        expected = oracle.count_cd_models_up_to_iso(
            SWEEP_PREDICATES, self.bounds["max_worlds"], self.bounds["max_domain"])
        models, values, agreement = outputs[0]
        return [models == expected and agreement], [], {"models": models, "values": values}


@dataclass(frozen=True)
class Query:
    sequent: tuple
    tables: dict
    mode: str
    max_worlds: int
    max_domain: int
    argv: tuple


class ValidityQueries(Workload):
    """Seeded sequents sent one at a time through `cdkripke valid` with
    JSON output: and/or sequents through classical-prop and cd-search,
    mixed-signature sequents through cd-search, quantified and/or
    sequents through classical-bounded and cd-search.

    Sequents are drawn from the generator until every stratum (classically
    valid or not, number of symbols) holds its quota. A valid sequent
    exhausts the bounded search, which costs steeply more with each
    symbol, so fixed quotas keep the work of a pass nearly the same for
    every seed. Valid propositional sequents with three symbols are left
    out: over 3 worlds each costs 100 to 300 ms, and the few a pass could
    afford would make its time follow the seed."""

    name = "validity-queries"

    # group: (tables, quantified, classical bound, modes as (mode, worlds, domain),
    #         quota per (classically valid, number of symbols))
    GROUPS = {
        "mono": (oracle.MONO, False, 1, (("classical-prop", 0, 1), ("cd-search", 3, 1)),
                 {(True, 1): 6, (True, 2): 96, (False, 1): 20, (False, 2): 40, (False, 3): 40}),
        "mixed": (oracle.MIXED, False, 1, (("cd-search", 3, 1),),
                  {(True, 1): 4, (True, 2): 16, (False, 1): 20, (False, 2): 40, (False, 3): 40}),
        "quantified": (oracle.MONO, True, 3, (("classical-bounded", 0, 3), ("cd-search", 2, 2)),
                       {(True, 1): 6, (True, 2): 12, (True, 3): 24,
                        (False, 1): 12, (False, 2): 20, (False, 3): 16}),
    }

    def __init__(self, quotas=None):
        self.quotas = quotas or {g: spec[4] for g, spec in self.GROUPS.items()}

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        sig_paths = {}
        for key, tables in (("mono", oracle.MONO), ("mixed", oracle.MIXED)):
            path = workdir / f"{key}.sig"
            path.write_text(oracle.signature_text(tables))
            sig_paths[id(tables)] = str(path)
        queries = []
        for group, (tables, quantified, bound, modes, _) in self.GROUPS.items():
            need = dict(self.quotas[group])
            atoms = oracle.FO_ATOMS if quantified else oracle.PROP_ATOMS
            while any(need.values()):
                seq = oracle.random_sequent(rng, tables, atoms, quantified)
                stratum = (oracle.first_classical_countermodel(seq, tables, bound) is None,
                           len(oracle.sequent_predicates(seq)))
                if not need.get(stratum):
                    continue
                need[stratum] -= 1
                for mode, worlds, domain in modes:
                    bounds = ["--max-domain", str(domain)]
                    if mode == "cd-search":
                        bounds = ["--max-worlds", str(worlds)] + bounds
                    argv = ("valid", "--sig", sig_paths[id(tables)], "--mode", mode, *bounds,
                            "--sequent", oracle.show_sequent(seq), "--format", "json")
                    queries.append(Query(seq, tables, mode, worlds, domain, argv))
        return queries

    def run_pass(self, m, queries, tracer, mark):
        def call(query):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = m.cli.main(list(query.argv))
            return code, out.getvalue()

        return timed_items(queries, call, tracer, mark)

    def check(self, m, queries, outputs):
        oks = [checked(known_answer, q, code, text) for q, (code, text) in zip(queries, outputs)]
        facts: dict = {}
        for q, ok, (_, text) in zip(queries, oks, outputs):
            verdict = json.loads(text)["verdict"] if ok else "wrong"
            tally = facts.setdefault(q.mode, {})
            tally[verdict] = tally.get(verdict, 0) + 1
        return oks, [], {"verdicts": facts}


def checked(judge, *args) -> bool:
    """judge(*args), with malformed program output judged wrong."""
    try:
        return bool(judge(*args))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError):
        return False


def known_answer(q: Query, code: int, text: str) -> bool:
    """The README's exit code and the first witness in the documented
    search order, from the oracle; returned countermodels must refute."""
    out = json.loads(text)
    seq, tables = q.sequent, q.tables
    expected = oracle.first_classical_countermodel(seq, tables, q.max_domain)
    verdict = out.get("verdict")
    if verdict != "countermodel":
        bounds = {"max_domain": q.max_domain}
        if q.mode == "cd-search":
            bounds["max_worlds"] = q.max_worlds
        wanted = {"verdict": "valid"} if q.mode == "classical-prop" else {
            "verdict": "no-countermodel-up-to", **bounds}
        return expected is None and code == 0 and out == wanted
    if code != 1:
        return False
    assignment = out.get("assignment", {})
    if q.mode != "cd-search":
        domain = tuple(out["model"]["domain"])
        true_atoms = frozenset(
            (e["pred"], tuple(e["args"])) for e in out["model"]["interp"] if e["value"])
        return (
            oracle.classically_refutes(seq, tables, domain, true_atoms, assignment)
            and expected == (domain, true_atoms, assignment)
        )
    model = oracle.KripkeModel(out["model"])
    if not (model.refutes(seq, out["world"], tables, assignment)
            and len(model.worlds) <= q.max_worlds
            and all(len(d) <= q.max_domain for d in model.domains.values())):
        return False
    if expected is None:
        # a constant-domain refutation over a monotone signature projects to
        # a classical one, so only a non-monotone signature may reach here
        return not all(oracle.is_monotone(col) for col in tables.values())
    domain, true_atoms, rho = expected
    return (
        model.worlds == ["w0"]
        and out["world"] == "w0"
        and model.domains["w0"] == domain
        and model.true_atoms == frozenset(("w0",) + atom for atom in true_atoms)
        and assignment == rho
    )


class SeparateTables(Workload):
    """Every table of arity 1 to 3 plus a seeded sample of arity-4 tables,
    each through separate and verify_separation as `cdkripke separate`
    does."""

    name = "separate-tables"

    SAMPLE_ARITY = 4

    def __init__(self, full_arity=3, sample=2000):
        self.full_arity = full_arity
        self.sample = sample

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        tables = []
        for n in range(1, self.full_arity + 1):
            for code in range(2 ** 2 ** n):
                tables.append((n, format(code, f"0{2 ** n}b")))
        rows = 2 ** self.SAMPLE_ARITY
        for code in rng.sample(range(2 ** rows), self.sample):
            tables.append((self.SAMPLE_ARITY, format(code, f"0{rows}b")))
        return tables

    @staticmethod
    def separation_holds(bits, out) -> bool:
        column = tuple(int(ch) for ch in bits)
        if out is None:
            return oracle.is_monotone(column)
        passed, _, text, world, model = out
        seq = oracle.parse_sequent(text, {"c": column})
        return (
            passed
            and not oracle.is_monotone(column)
            and set(oracle.sequent_predicates(seq).items()) <= {(s, 0) for s in "pqrs"}
            and oracle.first_classical_countermodel(seq, {"c": column}, 1) is None
            and oracle.KripkeModel(json.loads(model)).refutes(seq, world, {"c": column}, {})
        )

    def run_pass(self, m, tables, tracer, mark):
        def call(item):
            arity, bits = item
            table = m.truthfn.TruthTable.from_bits("c", arity, bits)
            result = m.separator.separate(m.truthfn.Signature.of(table))
            if isinstance(result, m.separator.AllMonotone):
                return None
            report = m.separator.verify_separation(result)
            return (report.passed, len(report.checks), result.sequent, result.failing_world,
                    result.countermodel)

        p = timed_items(tables, call, tracer, mark)
        p.outputs = [
            None if out is None else out[:2] + (
                m.syntax.print_sequent(out[2]),
                out[3],
                json.dumps(m.kripke.kripke_model_to_json(out[4]), sort_keys=True),
            )
            for out in p.outputs
        ]
        return p

    def check(self, m, tables, outputs):
        oks = [checked(self.separation_holds, bits, out) for (_, bits), out in zip(tables, outputs)]
        full = [out for (arity, _), out in zip(tables, outputs) if arity <= self.full_arity]
        monotone = sum(1 for out in full if out is None)
        expected = sum(MONOTONE_TABLES[n] for n in range(1, self.full_arity + 1))
        problems = []
        if monotone != expected:
            problems.append(f"arity <= {self.full_arity}: {monotone} monotone, expected {expected}")
        facts = {
            "monotone": outputs.count(None),
            "separated": len(outputs) - outputs.count(None),
            "full_arity_monotone": monotone,
            "full_arity_separated": len(full) - monotone,
            "checks": sum(out[1] for out in outputs if out is not None),
        }
        return oks, problems, facts


class FuzzSuites(Workload):
    """suites.run_fuzz in batches of seeded trials: tiny random models
    with growing domains, non-monotone connectives and a fresh evaluator
    per formula. An item is one run_fuzz call."""

    name = "fuzz-suites"

    def __init__(self, batches=100, trials=100):
        self.batches = batches
        self.trials = trials

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        return {"seed": seed, "batches": [rng.randrange(2 ** 31) for _ in range(self.batches)]}

    def run_pass(self, m, inputs, tracer, mark):
        def call(seed):
            report = m.suites.run_fuzz(seed, self.trials)
            return report.passed, report.render()

        return timed_items(inputs["batches"], call, tracer, mark)

    def expected_render(self, seed):
        t = self.trials
        return "\n".join([
            f"heredity: seed={seed} trials={t} violations=0",
            f"lift: seed={seed + 1} trials={max(1, t // 10)} violations=0",
            f"collapse: seed={seed + 2} trials={t} violations=0",
            "fuzz verdict: PASS",
        ])

    def check(self, m, inputs, outputs):
        oks = [passed and text == self.expected_render(seed)
               for seed, (passed, text) in zip(inputs["batches"], outputs)]
        digest = hashlib.sha256("\n".join(text for _, text in outputs).encode()).hexdigest()
        key = f"{self.batches}x{self.trials}/seed{inputs['seed']}"
        problems = []
        if DIGESTS.get(key, digest) != digest:
            problems.append(f"rendered reports differ from the recorded digest {key}")
        return oks, problems, {"digest": digest}
