"""Synthesis of sequents separating classical from constant-domain validity.

Given any signature containing a non-monotonic connective c, these
builders produce a propositional sequent over the symbols p, q, r, s
that is classically valid yet refuted in an explicit two-world
constant-domain model, together with the expected evaluation tables, and
then verify the whole package mechanically. The construction splits on
the pair (f(all-zeros), f(all-ones)) of c's truth function:

    case a: (0, 0)   sequent  phi => p        refuted in the p/r chain
    case b: (0, 1)   phi => chi, or psi => phi' (two subcases)
    case c: (1, 0)   c-negation: not_c not_c p => p
    case d: (1, 1)   sequent  => phi          refuted in the p/q chain

The countermodel is always the same two-world chain w0 < w1 over a
one-element domain: p is false at w0 and true at w1, q is false
everywhere, and r (when used) is true everywhere. Unmentioned symbols
are false everywhere, which keeps heredity trivially intact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .classical import Valid, decide_propositional
from .errors import ConstructionError, UsageError
from .kripke import (
    CdBatch,
    Failure,
    KripkeModel,
    _first_failure,
    _refuted,
    closed_frame,
    kripke_model_to_json,
    require_valid,
    valuation_batch,
)
from .lanes import Lanes
from .syntax import (
    Atom,
    Conn,
    Formula,
    Sequent,
    predicate_shape,
    print_formula,
    print_sequent,
)
from .truthfn import (
    Signature,
    TruthTable,
    classify_case,
    eval_table,
    invert,
    monotonicity_witness,
    ones,
    relative_invert,
    zeros,
)

P, Q, R, S = Atom("p"), Atom("q"), Atom("r"), Atom("s")

ALLOWED_SYMBOLS = frozenset(["p", "q", "r", "s"])


@dataclass(frozen=True)
class AllMonotone:
    """Every connective preserves the pointwise order; nothing separates."""


@dataclass(frozen=True)
class ExpectedCell:
    formula: str  # key into SeparationResult.formulas, or a bare symbol
    kind: str  # "value" or "args" (argument values of the top connective)
    expected: object


@dataclass(frozen=True)
class ExpectedRow:
    label: str
    cells: tuple
    world: Optional[str] = None  # Kripke rows
    valuation: Optional[tuple] = None  # classical rows: ((symbol, bit), ...)


@dataclass(frozen=True)
class ExpectedTable:
    name: str
    rows: tuple


@dataclass(frozen=True)
class SeparationResult:
    connective: TruthTable
    case: str
    subcase: Optional[int]
    witness_a: Optional[tuple]
    witness_b: Optional[tuple]
    formulas: Mapping
    sequent: Sequent
    countermodel: KripkeModel
    failing_world: str
    tables: tuple
    notes: tuple = ()

    def signature(self) -> Signature:
        return Signature.of(self.connective)


def chain_countermodel(with_r: bool) -> KripkeModel:
    """The two-world chain with p rising 0 -> 1, q constant 0, and r
    constant 1 when requested: the countermodel of every separation.

    Each of the two models is built once per process and shared, so
    its domains, interpretation and future sets are read-only.
    """
    return _chain(with_r)


@functools.lru_cache(maxsize=2)
def _chain(with_r: bool) -> KripkeModel:
    """chain_countermodel(with_r), validated: w0 < w1 over a1, p true at
    w1 and, when with_r, r true at both worlds."""
    worlds = ("w0", "w1")
    interp = {("w1", "p", ()): 1}
    if with_r:
        interp.update({(w, "r", ()): 1 for w in worlds})
    return require_valid(KripkeModel(worlds, closed_frame(worlds, [("w0", "w1")]),
                                     MappingProxyType({w: ("a1",) for w in worlds}),
                                     MappingProxyType(interp)))


def build_negation(table: TruthTable, f: Formula) -> Formula:
    """c(f, ..., f): behaves as negation whenever f(0...0)=1 and f(1...1)=0."""
    if table.arity < 1:
        raise UsageError("negation needs arity >= 1")
    return Conn(table.name, (f,) * table.arity)


def _slots(a: tuple, b: tuple, on_zz: Formula, on_zo: Formula, on_one: Formula) -> tuple:
    """Per-index formula choices keyed by the (a[i], b[i]) pattern; a <= b,
    so the patterns are (0,0), (0,1) and (1,1)."""
    out = []
    for x, y in zip(a, b):
        if x == 1:
            out.append(on_one)
        elif y == 1:
            out.append(on_zo)
        else:
            out.append(on_zz)
    return tuple(out)


# Expected cells and tables are immutable, and the same ones recur from
# connective to connective, so each is built once and shared, in bounded
# caches. Their arguments are strings and tuples of 0/1 ints.


@functools.lru_cache(maxsize=1024)
def _vec(formula_key: str, expected: tuple) -> ExpectedCell:
    return ExpectedCell(formula_key, "args", tuple(expected))


@functools.lru_cache(maxsize=256)
def _val(formula_key: str, expected: int) -> ExpectedCell:
    return ExpectedCell(formula_key, "value", expected)


def _classical_row(valuation: Sequence, cells: Sequence) -> ExpectedRow:
    label = ",".join(f"{sym}={bit}" for sym, bit in valuation)
    return ExpectedRow(label, tuple(cells), valuation=tuple(valuation))


def _kripke_row(world: str, cells: Sequence) -> ExpectedRow:
    return ExpectedRow(world, tuple(cells), world=world)


def _layer_stack(name: str, a: tuple, b: tuple, subcase: int, top: Formula) -> tuple:
    """(sigma, psi, phi): the three-layer stack of case d, top in the
    (1, 1) slots of every layer. Case d puts tau there; case b subcase
    2 puts r, which is the case-d stack with tau replaced by r."""
    sigma = Conn(name, _slots(a, b, Q, P, top))
    if subcase == 1:
        psi = Conn(name, _slots(a, b, P, sigma, top))
        return sigma, psi, Conn(name, _slots(a, b, P, psi, top))
    psi = Conn(name, _slots(a, b, sigma, Q, top))
    return sigma, psi, Conn(name, _slots(a, b, psi, P, top))


@functools.lru_cache(maxsize=512)
def _layer_tables(
    subcase: int,
    a: tuple,
    b: tuple,
    rel: tuple,
    keys: tuple = ("sigma", "psi", "phi"),
    extra_valuation: tuple = (),
) -> tuple:
    """Expected classical and Kripke tables for the three-layer stack of
    case d; also reused by case b subcase 2 with the tau slots renamed to
    r (extra_valuation then pins r to 1 in the classical rows)."""
    n = len(a)
    one = ones(n)
    sg, ps, ph = keys
    if subcase == 1:
        classical = [
            ((0, 0), (_vec(sg, a), _val(sg, 1), _vec(ps, b), _val(ps, 0), _vec(ph, a), _val(ph, 1))),
            ((0, 1), (_vec(sg, rel), _val(sg, 1), _vec(ps, b), _val(ps, 0), _vec(ph, a), _val(ph, 1))),
            ((1, 0), (_vec(sg, b), _val(sg, 0), _vec(ps, rel), _val(ps, 1), _vec(ph, one), _val(ph, 1))),
            ((1, 1), (_vec(sg, one), _val(sg, 1), _vec(ps, one), _val(ps, 1), _vec(ph, one), _val(ph, 1))),
        ]
        kripke = [
            ("w1", (_vec(sg, b), _val(sg, 0), _vec(ps, rel), _val(ps, 1), _vec(ph, one), _val(ph, 1))),
            ("w0", (_vec(sg, a), _val(sg, 0), _vec(ps, a), _val(ps, 1), _vec(ph, b), _val(ph, 0))),
        ]
    else:
        classical = [
            ((0, 0), (_vec(sg, a), _val(sg, 1), _vec(ps, rel), _val(ps, 0), _vec(ph, a), _val(ph, 1))),
            ((0, 1), (_vec(sg, rel), _val(sg, 0), _vec(ps, b), _val(ps, 0), _vec(ph, a), _val(ph, 1))),
            ((1, 0), (_vec(sg, b), _val(sg, 0), _vec(ps, a), _val(ps, 1), _vec(ph, one), _val(ph, 1))),
            ((1, 1), (_vec(sg, one), _val(sg, 1), _vec(ps, one), _val(ps, 1), _vec(ph, one), _val(ph, 1))),
        ]
        kripke = [
            ("w1", (_vec(sg, b), _val(sg, 0), _vec(ps, a), _val(ps, 1), _vec(ph, one), _val(ph, 1))),
            ("w0", (_vec(sg, a), _val(sg, 0), _vec(ps, a), _val(ps, 1), _vec(ph, rel), _val(ph, 0))),
        ]
    classical_rows = [
        _classical_row((("p", pv), ("q", qv)) + tuple(extra_valuation), cells)
        for (pv, qv), cells in classical
    ]
    kripke_rows = [_kripke_row(w, cells) for w, cells in kripke]
    return (
        ExpectedTable(f"classical-subcase-{subcase}", tuple(classical_rows)),
        ExpectedTable(f"kripke-subcase-{subcase}", tuple(kripke_rows)),
    )


def _result(table: TruthTable, case: str, subcase: Optional[int], a: Optional[tuple],
            b: Optional[tuple], formulas: dict, sequent: Sequent, with_r: bool,
            tables: tuple, notes: tuple = ()) -> SeparationResult:
    """The unverified separation of table, refuted at w0 of the chain."""
    return SeparationResult(table, case, subcase, a, b, formulas, sequent,
                            chain_countermodel(with_r), "w0", tables, notes)


# Each case builder takes a non-monotonic table of its case and the
# table's monotonicity witness (a, b), and returns the unverified result;
# _separated verifies it.


def _case_d(table: TruthTable, a: tuple, b: tuple) -> SeparationResult:
    """f(0...0) = f(1...1) = 1: the sequent => phi, refuted at w0 of the
    p/q chain. Subcase 1 or 2 by the value of f on the relative
    inversion of the witness pair. tau = c(s, ..., s) is valid in every
    Kripke model, because every argument vector it can see is all-zeros
    or all-ones."""
    rel = relative_invert(a, b)
    subcase = 1 if eval_table(table, rel) == 1 else 2
    tau = Conn(table.name, (S,) * table.arity)
    sigma, psi, phi = _layer_stack(table.name, a, b, subcase, tau)
    return _result(table, "d", subcase, a, b, {"tau": tau, "sigma": sigma, "psi": psi, "phi": phi},
                   Sequent((), (phi,)), False, _layer_tables(subcase, a, b, rel))


def _case_c(table: TruthTable, a: tuple, b: tuple) -> SeparationResult:
    """f(0...0) = 1 and f(1...1) = 0: double c-negation of p is classically
    equivalent to p but fails at the root of the chain, where p only holds
    later. The witness is not used."""
    not_p = build_negation(table, P)
    not_not_p = build_negation(table, not_p)
    tables = (
        ExpectedTable(
            "classical-negation",
            (
                _classical_row((("p", 0),), (_val("not_p", 1), _val("not_not_p", 0))),
                _classical_row((("p", 1),), (_val("not_p", 0), _val("not_not_p", 1))),
            ),
        ),
        ExpectedTable(
            "kripke-negation",
            (
                _kripke_row("w1", (_val("not_p", 0), _val("not_not_p", 1), _val("p", 1))),
                _kripke_row("w0", (_val("not_p", 0), _val("not_not_p", 1), _val("p", 0))),
            ),
        ),
    )
    return _result(table, "c", None, None, None, {"not_p": not_p, "not_not_p": not_not_p},
                   Sequent((not_not_p,), (P,)), False, tables)


def _case_b(table: TruthTable, a: tuple, b: tuple) -> SeparationResult:
    """f(0...0) = 0 and f(1...1) = 1, yet non-monotonic. Subcase 1
    (f on the inversion of a is 1) refutes phi => chi; subcase 2 reuses
    the case-d stack, in the layer subcase that f selects on the relative
    inversion rel of the witness pair, with its tau slots replaced by r,
    and refutes psi => phi."""
    name = table.name
    if eval_table(table, invert(a)) == 1:
        n = len(a)
        chi = Conn(name, tuple(P if x else Q for x in a))
        psi = Conn(name, _slots(a, b, Q, P, R))
        phi = Conn(name, _slots(a, b, Q, psi, R))
        tables = (
            ExpectedTable(
                "classical-facts",
                (
                    _classical_row((("p", 0), ("q", 1), ("r", 0)), (_val("chi", 1),)),
                    _classical_row((("p", 1), ("q", 0), ("r", 0)), (_val("chi", 1),)),
                    _classical_row((("p", 1), ("q", 1), ("r", 0)), (_val("chi", 1),)),
                    _classical_row((("p", 0), ("q", 0), ("r", 0)), (_val("psi", 0), _val("phi", 0))),
                    _classical_row((("p", 0), ("q", 0), ("r", 1)), (_val("psi", 1), _val("phi", 0))),
                ),
            ),
            ExpectedTable(
                "kripke-chain",
                (
                    _kripke_row(
                        "w1",
                        (_vec("chi", a), _val("chi", 1), _vec("psi", b), _val("psi", 0),
                         _vec("phi", a), _val("phi", 1)),
                    ),
                    _kripke_row(
                        "w0",
                        (_vec("chi", zeros(n)), _val("chi", 0), _vec("psi", a), _val("psi", 0),
                         _vec("phi", a), _val("phi", 1)),
                    ),
                ),
            ),
        )
        return _result(table, "b", 1, a, b, {"chi": chi, "psi": psi, "phi": phi},
                       Sequent((phi,), (chi,)), True, tables)
    layer_subcase = 1 if eval_table(table, relative_invert(a, b)) == 1 else 2
    return _case_b_subcase2(table, a, b, layer_subcase)


def _case_b_subcase2(table: TruthTable, a: tuple, b: tuple, layer_subcase: int) -> SeparationResult:
    """The unverified candidate psi => phi on the case-d stack of the layer
    subcase, tau replaced by r: variant PP for layer subcase 1, QQ for 2.
    _case_b passes 1 exactly when f(rel) = 1. The other variant cannot
    verify: at the classical row p=0, q=1, r=1 the arguments of
    sigma_layer are rel, and PP's table states sigma_layer = 1 there, QQ's
    0. So the notes, which are not verified, name the variant as the one
    preferred and as the only one that verifies."""
    rel = relative_invert(a, b)
    name = table.name
    psi = Conn(name, tuple(R if x else Q for x in a))
    sigma_r, psi_r, phi_r = _layer_stack(name, a, b, layer_subcase, R)
    layer_cls, layer_kr = _layer_tables(layer_subcase, a, b, rel,
                                        keys=("sigma_layer", "psi_layer", "phi"),
                                        extra_valuation=(("r", 1),))
    tables = (
        ExpectedTable(
            "classical-facts",
            (
                _classical_row((("q", 0), ("r", 0)), (_val("psi", 0),)),
                _classical_row((("q", 1), ("r", 0)), (_val("psi", 0),)),
            ),
        ),
        layer_cls,
        ExpectedTable(
            layer_kr.name,
            layer_kr.rows
            + (
                _kripke_row("w1", (_val("psi", 1),)),
                _kripke_row("w0", (_val("psi", 1),)),
            ),
        ),
    )
    variant = "PP" if layer_subcase == 1 else "QQ"
    return _result(table, "b", 2, a, b,
                   {"psi": psi, "sigma_layer": sigma_r, "psi_layer": psi_r, "phi": phi_r},
                   Sequent((psi,), (phi_r,)), True, tables,
                   (f"variant={variant}", f"preferred={variant}",
                    f"PP_verified={variant == 'PP'}", f"QQ_verified={variant == 'QQ'}"))


def _case_a(table: TruthTable, a: tuple, b: tuple) -> SeparationResult:
    """f(0...0) = f(1...1) = 0 with f(a) = 1: phi => p is classically
    valid but the chain satisfies phi at w0 while p fails. Only a is
    used: the first row where f is 1, as every row lies below the
    all-ones row, where f is 0."""
    name = table.name
    psi = Conn(name, tuple(R if x else P for x in a))
    phi = Conn(name, tuple(R if x else psi for x in a))
    n = len(a)
    tables = (
        ExpectedTable(
            "classical-facts",
            (
                _classical_row((("p", 0), ("r", 0)), (_val("psi", 0), _val("phi", 0))),
                _classical_row((("p", 0), ("r", 1)), (_val("psi", 1), _val("phi", 0))),
            ),
        ),
        ExpectedTable(
            "kripke-chain",
            (
                _kripke_row("w1", (_vec("psi", ones(n)), _val("psi", 0), _vec("phi", a), _val("phi", 1))),
                _kripke_row("w0", (_vec("psi", a), _val("psi", 0), _vec("phi", a), _val("phi", 1),
                                   _val("p", 0))),
            ),
        ),
    )
    return _result(table, "a", None, a, None, {"psi": psi, "phi": phi},
                   Sequent((phi,), (P,)), True, tables)


_CASE_BUILDERS = {
    "a": _case_a,
    "b": _case_b,
    "c": _case_c,
    "d": _case_d,
}


def separate(sig: Signature):
    """AllMonotone, or a verified SeparationResult for the first
    non-monotonic connective in name order."""
    return _separated(sig)[0]


def _separated(sig: Signature) -> tuple:
    """(separate(sig), the report that verified it), or (AllMonotone(),
    None): the case builder's result is verified here, once, so that a
    caller needs no second verification. A connective named like a symbol
    of the sequent is refused: the printed sequent would not parse back."""
    clash = sorted(ALLOWED_SYMBOLS.intersection(sig.connectives))
    if clash:
        raise UsageError(f"connective {clash[0]!r} has the name of a propositional symbol "
                         f"of the separating sequent (p, q, r, s)")
    for name in sig.names():
        table = sig.connectives[name]
        witness = monotonicity_witness(table)
        if witness is not None:
            return _checked(_CASE_BUILDERS[classify_case(table)](table, *witness))
    return AllMonotone(), None


def _checked(result: SeparationResult) -> tuple:
    """(result, its passing report); ConstructionError if it fails."""
    report = verify_separation(result)
    if not report.passed:
        raise ConstructionError(
            f"separation for {result.connective.name} "
            f"({result.connective.bits()}) failed verification: {report.summary()}"
        )
    return result, report


# --- verification ----------------------------------------------------------


@dataclass(slots=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)
    classical_symbols: tuple = ()
    classical_valuations: int = 0

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append(Check(name, bool(ok), detail))

    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        bad = self.failures()
        if not bad:
            return f"all {len(self.checks)} checks passed"
        return f"{len(bad)}/{len(self.checks)} checks failed: " + "; ".join(
            f"{c.name} ({c.detail})" for c in bad[:5]
        )

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "classical_symbols": list(self.classical_symbols),
            "classical_valuations": self.classical_valuations,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks
            ],
        }


def _resolve(result: SeparationResult, key: str) -> Formula:
    f = result.formulas.get(key)
    if f is not None:
        return f
    if key in ALLOWED_SYMBOLS:
        return Atom(key)
    raise UsageError(f"expected-table cell names unknown formula {key!r}")


# The details of the cell checks repeat from table to table, so each is
# formatted once, in a bounded cache. A detail is looked up only for int
# values: a key of equal values may carry the text of another type
# (1 == True).


@functools.lru_cache(maxsize=1024)
def _cell_detail(expected, actual) -> str:
    return f"expected {expected}, got {actual}"


_INT = {int}

# a result is verified while it is built and usually once more by its
# caller: the text of its sequent, a check's detail, is printed once
_sequent_text = functools.lru_cache(maxsize=64)(print_sequent)


def verify_separation(result: SeparationResult) -> VerificationReport:
    """Re-derive everything the result claims; mismatches become failed
    checks, never exceptions.

    Both sides are evaluated once, on one lane set every check shares:
    the countermodel's worlds, world i at lane i, give cd-refuted and
    the Kripke rows, and the segment after them, every valuation of the
    sequent's symbols, gives classically-valid and the classical rows. A
    countermodel that cannot be laid out is left off the lanes and fails
    cd-refuted and every Kripke row; a sequent that is quantified, or
    has too many symbols for one batch, leaves the valuations off and
    is decided by decide_propositional."""
    report = VerificationReport()
    sig = result.signature()
    model, sequent = result.countermodel, result.sequent

    # the countermodel must itself validate, on the frame it is
    # evaluated on, as stored
    try:
        require_valid(model)
        report.add("countermodel-validates", True)
    except Exception as exc:  # noqa: BLE001 - recorded, not raised
        report.add("countermodel-validates", False, str(exc))
    valid = report.checks[-1].ok

    # shape of the sequent
    try:
        arities, propositional = predicate_shape(sequent)
        symbols_check = (arities.keys() <= ALLOWED_SYMBOLS, f"symbols {sorted(arities)}")
    except UsageError as exc:
        # an arity clash needs an atom with arguments: not propositional
        arities, propositional, symbols_check = {}, False, (False, str(exc))
    report.add("sequent-propositional", propositional, _sequent_text(sequent))
    report.add("sequent-symbols", *symbols_check)
    symbols = tuple(sorted(arities))

    # the countermodel's lanes, then every valuation of the occurring
    # symbols: the lanes from first on, when there are few enough
    batch = valuation_batch(symbols) if propositional else None
    lanes, fault = _countermodel_lanes(model, sig, batch)
    first = None if batch is None else 0 if fault else len(model.worlds)
    if not valid and lanes is not None:
        # a universal equals its present-world reading only where the
        # countermodel is hereditary
        lanes.cross_check = False

    # classical half: exhaustive enumeration over the occurring symbols
    try:
        if first is not None and not _refuted(lanes, sequent, {}) >> first:
            verdict = Valid()
        else:
            # refuted, quantified or too wide for one batch: the decider
            # names the first refuting valuation, or why it cannot decide
            verdict = decide_propositional(sig, sequent)
        report.classical_symbols = symbols
        report.classical_valuations = 2 ** len(symbols)
        report.add(
            "classically-valid",
            isinstance(verdict, Valid),
            "valid" if isinstance(verdict, Valid) else f"refuted by {verdict}",
        )
    except UsageError as exc:
        report.add("classically-valid", False, str(exc))

    # constant-domain half: the countermodel refutes it at the stated world
    verdict = fault or _first_failure(lanes, model, sequent)
    if isinstance(verdict, Failure):
        report.add(
            "cd-refuted",
            verdict.world == result.failing_world and not verdict.assignment,
            f"failure at {verdict.world}",
        )
    else:
        report.add("cd-refuted", False, verdict if isinstance(verdict, str)
                   else "countermodel does not refute the sequent")

    # every embedded expected table cell
    read_row = _row_lanes(lanes, fault, model.worlds, sig, symbols, first)
    report.checks += [
        Check(f"table:{label}" if cell is None else f"table:{label}/{cell.formula}", ok, detail)
        for label, cell, ok, detail in judge_cells(result, result.tables, read_row)
    ]
    return report


def judge_cells(result: SeparationResult, tables: Sequence, read_row=None):
    """(label, cell, ok, detail) for each cell of the expected tables, in
    order, read on lanes and judged against result's formulas. label is
    the table name and the row label, joined by "/"; a row that cannot be
    read gives one (label, None, False, why) in place of its cells, and
    a cell of a kind other than "value" or "args", or an args cell
    whose expected value is not a tuple or list, one failed check. read_row
    is a _row_lanes reader, by default one over the lanes of result's
    countermodel alone."""
    if read_row is None:
        model, sig = result.countermodel, result.signature()
        read_row = _row_lanes(*_countermodel_lanes(model, sig, None), model.worlds, sig)
    for table in tables:
        for row in table.rows:
            label = f"{table.name}/{row.label}"
            read = read_row(row.world, row.valuation)
            if isinstance(read, str):
                yield label, None, False, read
                continue
            lanes, lane = read
            for cell in row.cells:
                try:
                    f = _resolve(result, cell.formula)
                except UsageError as exc:
                    yield label, cell, False, str(exc)
                    continue
                expected = cell.expected
                if cell.kind == "value":
                    actual = lanes.mask(f) >> lane & 1
                    exact = type(expected) is int
                elif cell.kind != "args":
                    yield label, cell, False, f"cell kind {cell.kind!r} is neither 'value' nor 'args'"
                    continue
                elif not isinstance(f, Conn):
                    yield label, cell, False, "args cell on a non-connective"
                    continue
                elif not isinstance(expected, (tuple, list)):
                    yield label, cell, False, f"args cell expects {expected!r}, not a tuple or list"
                    continue
                else:
                    # the argument values of f's top connective
                    actual = tuple([lanes.mask(g) >> lane & 1 for g in f.args])
                    expected = tuple(expected)
                    exact = {*map(type, expected)} <= _INT
                yield (label, cell, bool(actual == expected),
                       _cell_detail(expected, actual) if exact
                       else f"expected {expected}, got {actual}")


def _countermodel_lanes(model: KripkeModel, sig: Signature, batch: Optional[CdBatch]):
    """(lanes, fault): the lanes of model, world i at lane i, then of
    batch, unless it is None, as the segment after them, with fault "";
    or, when model cannot be laid out, the lanes of batch alone, or
    None without one, and why not: a world that is not hashable, has no
    future set or no domain, or one that is not a tuple or list, a
    future set naming a world the model lacks, an unhashable domain
    element, or an interpretation key that is not a (world, predicate,
    arguments) triple."""
    fault = _layout_fault(model)
    batches = () if batch is None else (batch,)
    if fault:
        return (Lanes.of((), batches, sig) if batches else None), fault
    return Lanes.of((model,), batches, sig), ""


def _layout_fault(model: KripkeModel) -> str:
    """Why model cannot be laid out on lanes, as _countermodel_lanes
    lists the faults, or "": the first world in model order, then the
    first interpretation key."""
    worlds, future, domains = model.worlds, model.future, model.domains
    for w in worlds:
        if not _hashable(w):
            return f"countermodel world {w!r} is not hashable"
        if w not in future:
            return f"countermodel frame gives world {w!r} no future"
        above = future[w]
        if not isinstance(above, (tuple, list)):
            return f"countermodel frame gives world {w!r} the future {above!r}, not a tuple or list"
        for v in above:
            if v not in worlds:
                return f"countermodel frame puts unknown world {v!r} above {w!r}"
        if w not in domains:
            return f"countermodel gives world {w!r} no domain"
        if not isinstance(domains[w], (tuple, list)):
            return f"countermodel gives world {w!r} the domain {domains[w]!r}, not a tuple or list"
        for a in domains[w]:
            if not _hashable(a):
                return f"countermodel gives world {w!r} the element {a!r}, which is not hashable"
    for key in model.interp:
        if not (isinstance(key, tuple) and len(key) == 3):
            return f"countermodel interpretation has key {key!r}, not a (world, predicate, arguments) triple"
    return ""


def _hashable(x) -> bool:
    try:
        hash(x)
    except TypeError:
        return False
    return True


def _row_lanes(lanes: Optional[Lanes], fault: str, worlds: tuple, sig: Signature,
               symbols: tuple = (), first: Optional[int] = None):
    """row(world, valuation) gives the (lanes, lane) that an expected-table
    row is read at, or why it cannot be read; lanes and fault are those
    of _countermodel_lanes. A Kripke row is read at its world, of the
    countermodel whose worlds are given, world i at lane i, or gets the
    fault when there is one. A classical row must give each symbol it
    names 0 or 1, as (symbol, bit) pairs; one naming only the given
    symbols is read from the valuations of valuation_batch(symbols), the
    segment of lanes from lane first, when first is given, with the
    symbols it does not name at 0; any other row from the one lane of
    its own valuation."""
    windex = {} if fault else {w: i for i, w in enumerate(worlds)}
    # a valuation's lane is its bits in symbol order, read in binary
    place = {sym: 1 << i for i, sym in enumerate(reversed(symbols))}

    def row(world: Optional[str], valuation: Optional[Sequence] = ()):
        if world is not None:
            if fault:
                return fault
            lane = windex.get(world)
            return f"countermodel has no world {world!r}" if lane is None else (lanes, lane)
        if valuation is None:
            return "row names neither a world nor a valuation"
        if not isinstance(valuation, (tuple, list)):
            return f"row valuation {valuation!r} is not a tuple or list"
        lane, own = 0, first is None
        for entry in valuation:
            try:
                sym, bit = entry
                weight = place.get(sym)
            except (TypeError, ValueError):
                return f"valuation entry {entry!r} is not a (symbol, bit) pair"
            if bit not in (0, 1):
                return f"valuation gives {sym!r} the value {bit!r}, not 0 or 1"
            if weight is None:
                own = True
            elif bit:
                lane |= weight
        if own:
            one = KripkeModel(("v",), {"v": ("v",)}, {"v": ("a1",)},
                              {("v", sym, ()): 1 for sym, bit in valuation if bit})
            return Lanes.for_models((one,), sig), 0
        return lanes, first + lane

    return row


# --- serialization ---------------------------------------------------------


def separation_to_json(result: SeparationResult, report: VerificationReport) -> dict:
    return {
        "connective": {
            "name": result.connective.name,
            "arity": result.connective.arity,
            "bits": result.connective.bits(),
        },
        "case": result.case,
        "subcase": result.subcase,
        "witness_a": list(result.witness_a) if result.witness_a is not None else None,
        "witness_b": list(result.witness_b) if result.witness_b is not None else None,
        "formulas": {k: print_formula(f) for k, f in sorted(result.formulas.items())},
        "sequent": print_sequent(result.sequent),
        "countermodel": kripke_model_to_json(result.countermodel),
        "failing_world": result.failing_world,
        "notes": list(result.notes),
        "verification": report.to_json(),
    }


def render_separation(result: SeparationResult, report: VerificationReport) -> str:
    lines = [
        f"connective {result.connective.name} "
        f"(arity {result.connective.arity}, bits {result.connective.bits()})",
        f"case {result.case}" + (f" subcase {result.subcase}" if result.subcase else ""),
    ]
    if result.witness_a is not None:
        lines.append(f"witness a = {result.witness_a}")
    if result.witness_b is not None:
        lines.append(f"witness b = {result.witness_b}")
    for key, f in sorted(result.formulas.items()):
        lines.append(f"  {key} = {print_formula(f)}")
    lines.append(f"sequent: {print_sequent(result.sequent)}")
    lines.append(f"refuted at {result.failing_world} of the two-world chain")
    for table in result.tables:
        lines.append(f"table {table.name}:")
        for row in table.rows:
            cells = "  ".join(
                f"{c.formula}{'[args]' if c.kind == 'args' else ''}={c.expected}"
                for c in row.cells
            )
            lines.append(f"  {row.label}: {cells}")
    lines.append(
        "verification: "
        + ("PASS" if report.passed else "FAIL")
        + f" ({len(report.checks)} checks, "
        + f"{report.classical_valuations} classical valuations)"
    )
    for c in report.failures():
        lines.append(f"  FAIL {c.name}: {c.detail}")
    return "\n".join(lines)
