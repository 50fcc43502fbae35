"""Spans and counts recorded around cdkripke's public functions.

The traced run wraps the functions listed in LAYERS, from the outside:
the program itself is not changed. Every call opens a span (name,
start, end, parent) kept in flat arrays in memory; a call made while a
span of the same layer is open (an evaluator recursing into itself)
joins that span and is only counted. Self times are derived at the end:
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from array import array

# (module, attribute, layer, counter); an attribute "Class.method" wraps
# the method on the class. Counters count every call, joined ones too.
LAYERS = (
    ("kripke", "enumerate_cd_models", "kripke.enum", "kripke.enum.models"),
    ("kripke", "KripkeEvaluator.__init__", "kripke.eval", None),
    ("kripke", "KripkeEvaluator.profile", "kripke.eval", "kripke.eval.calls"),
    ("kripke", "bounded_cd_countermodel_search", "kripke.search", "kripke.search.calls"),
    ("kripke", "check_heredity", "kripke.heredity", "kripke.heredity.calls"),
    ("classical", "ClassicalEvaluator.__init__", "classical.eval", None),
    ("classical", "ClassicalEvaluator.value", "classical.eval", "classical.eval.calls"),
    ("classical", "decide_propositional", "classical.decide", "classical.decide.calls"),
    ("classical", "bounded_fo_validity", "classical.fo", "classical.fo.calls"),
    ("collapse", "run_collapse_sweep", "collapse.sweep", None),
    ("collapse", "enumerate_formulas", "collapse.inventory", None),
    ("collapse", "check_collapse", "collapse.check", None),
    ("separator", "separate", "separator.build", None),
    ("separator", "verify_separation", "separator.verify", None),
    ("truthfn", "monotonicity_witness", "truthfn.mono", None),
    ("syntax", "parse_formula", "syntax.parse", "syntax.parse.calls"),
    ("syntax", "parse_sequent", "syntax.parse", "syntax.parse.calls"),
    ("cli", "main", "cli", None),
    ("suites", "run_heredity_suite", "suites.heredity", None),
    ("suites", "run_lift_suite", "suites.lift", None),
    ("suites", "run_collapse_suite", "suites.collapse", None),
)

# layers whose self time is a per-layer metric, as "<layer>.self_s"
SELF_TIME_LAYERS = (
    "kripke.enum", "kripke.eval", "kripke.search", "kripke.heredity",
    "classical.eval", "classical.decide", "classical.fo",
    "collapse.check", "separator.build", "separator.verify", "truthfn.mono",
    "syntax.parse", "cli", "suites.heredity", "suites.lift", "suites.collapse",
)

ROOT = "bench.item"

# a traced sweep records millions of spans; the file keeps the first ones
SPANS_WRITTEN = 200_000

COUNTS = (
    "kripke.enum.models", "kripke.eval.calls", "kripke.search.calls", "kripke.heredity.calls",
    "classical.eval.calls", "classical.decide.calls", "classical.fo.calls", "syntax.parse.calls",
)

# per-layer metrics in report order, with units
PER_LAYER = (
    ("kripke.enum.self_s", "s"), ("kripke.enum.models", "count"),
    ("kripke.eval.self_s", "s"), ("kripke.eval.calls", "count"),
    ("kripke.search.self_s", "s"), ("kripke.search.calls", "count"),
    ("kripke.search.models_per_call", "models/call"), ("kripke.search.found_frac", "frac"),
    ("kripke.heredity.self_s", "s"), ("kripke.heredity.calls", "count"),
    ("classical.eval.self_s", "s"), ("classical.eval.calls", "count"),
    ("classical.decide.self_s", "s"), ("classical.decide.calls", "count"),
    ("classical.decide.valuations", "count"),
    ("classical.fo.self_s", "s"), ("classical.fo.calls", "count"),
    ("collapse.formulas", "count"), ("collapse.formulas_distinct", "count"),
    ("collapse.check.self_s", "s"), ("collapse.values", "count"),
    ("separator.build.self_s", "s"), ("separator.verify.self_s", "s"),
    ("separator.checks", "count"), ("truthfn.mono.self_s", "s"),
    ("syntax.parse.self_s", "s"), ("syntax.parse.calls", "count"), ("cli.self_s", "s"),
    ("suites.heredity.self_s", "s"), ("suites.lift.self_s", "s"),
    ("suites.collapse.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.counters: dict = {}
        # totals taken from return values by the hooks() wrappers
        self.facts: dict = {}

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def counter(self, name: str) -> list:
        return self.counters.setdefault(name, [0])

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._nid(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, layer: str, counter=None, before=None, after=None):
        """fn inside a span of the given layer. before() runs ahead of the
        call and its value reaches after(result, args, kwargs, token), both
        outside the span."""
        nid = self._nid(layer)
        cell = self.counter(counter) if counter else [0]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        # open() and close() inlined: evaluators call this millions of times
        def traced(*args, **kwargs):
            cell[0] += 1
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            token = before() if before else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after:
                after(result, args, kwargs, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, fn, layer: str, counter: str):
        """A generator function whose every step is a span; the counter
        counts the items it yields."""
        cell = self.counter(counter)

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                idx = self.open(layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                cell[0] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict:
        """Seconds per span name, each span's children subtracted."""
        n = len(self.start)
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        totals = [0.0] * len(self.names)
        for i in range(n):
            totals[names[i]] += ends[i] - starts[i] - covered[i]
        return dict(zip(self.names, totals))

    def counts(self) -> dict:
        return {name: cell[0] for name, cell in self.counters.items()}

    def write(self, directory, stem: str):
        """The first SPANS_WRITTEN spans as flat binary columns, plus a
        JSON header that names them. Parents open before their children,
        so the written spans form a closed tree."""
        spans = directory / f"{stem}.spans"
        with open(spans, "wb") as fh:
            for column in (self.name, self.parent, self.start, self.end):
                column[:SPANS_WRITTEN].tofile(fh)
        header = {
            "spans": len(self.start),
            "written": min(SPANS_WRITTEN, len(self.start)),
            "file": spans.name,
            "columns": [["name", "uint16"], ["parent", "int32"],
                        ["start_s", "float64"], ["end_s", "float64"]],
            "names": self.names,
            "counts": self.counts(),
            "facts": self.facts,
        }
        (directory / f"{stem}.trace.json").write_text(json.dumps(header, indent=1) + "\n")


def instrument(modules: dict, tracer: Tracer, hooks: dict):
    """Replace every function in LAYERS by its traced wrapper, in each
    cdkripke module that holds it. hooks maps an attribute to keyword
    arguments (before/after) for Tracer.wrap."""
    for module_name, attr, layer, counter in LAYERS:
        module = modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(getattr(cls, meth), layer, counter))
            continue
        original = getattr(module, attr)
        if attr == "enumerate_cd_models":
            traced = tracer.wrap_iter(original, layer, counter)
        else:
            traced = tracer.wrap(original, layer, counter, **hooks.get(attr, {}))
        for holder in modules.values():
            for name, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, name, traced)


def hooks(m, tracer: Tracer) -> dict:
    """Result hooks that turn return values into the per-layer facts."""
    facts = tracer.facts
    enumerated = tracer.counter("kripke.enum.models")

    def add(key, n):
        facts[key] = facts.get(key, 0) + n

    def decided(result, args, kwargs, token):
        # valuations the documented order visits up to the verdict
        if isinstance(result, m.classical.Countermodel):
            interp = result.model.interp
            index = 0
            for symbol in sorted(p for p, _ in interp):
                index = (index << 1) | interp[(symbol, ())]
            add("classical.decide.valuations", index + 1)
        else:
            sequent = args[1] if len(args) > 1 else kwargs["s"]
            add("classical.decide.valuations", 2 ** len(m.syntax.predicates(sequent)))

    def searched(result, args, kwargs, before):
        add("kripke.search.models", enumerated[0] - before)
        add("kripke.search.found", int(isinstance(result, m.kripke.CdCountermodel)))

    def swept(result, args, kwargs, token):
        add("collapse.values", result.values)

    def inventory(result, args, kwargs, token):
        add("collapse.formulas", len(result))
        add("collapse.formulas_distinct", len(set(result)))

    def verified(result, args, kwargs, token):
        add("separator.checks", len(result.checks))

    return {
        "decide_propositional": {"after": decided},
        "bounded_cd_countermodel_search": {"before": lambda: enumerated[0], "after": searched},
        "run_collapse_sweep": {"after": swept},
        "enumerate_formulas": {"after": inventory},
        "verify_separation": {"after": verified},
    }


def layer_metrics(tracer: Tracer, factor: float, overhead: float) -> dict:
    """Every per-layer metric; a layer the workload never reaches reads 0.
    Self times are multiplied by factor, which brings span times to the
    reference speed."""
    self_s = {name: t * factor for name, t in tracer.self_times().items()}
    counts = tracer.counts()
    facts = tracer.facts
    searches = counts.get("kripke.search.calls", 0)
    values = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in SELF_TIME_LAYERS}
    values.update({name: counts.get(name, 0) for name in COUNTS})
    values.update({name: facts.get(name, 0) for name in (
        "classical.decide.valuations", "collapse.formulas", "collapse.formulas_distinct",
        "collapse.values", "separator.checks")})
    values["kripke.search.models_per_call"] = (
        facts.get("kripke.search.models", 0) / searches if searches else 0.0)
    values["kripke.search.found_frac"] = (
        facts.get("kripke.search.found", 0) / searches if searches else 0.0)
    values["trace.overhead_frac"] = overhead
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
