"""verify_separation on shared lanes against the fresh-check reference.

The verifier evaluates each side of a separation once: the countermodel's
lanes serve cd-refuted and every Kripke row, the lanes of every valuation
of the sequent's symbols serve classically-valid and every classical row.
scalar_reference.verify_separation runs each check on its own instead;
the two reports must be equal in every check name, verdict and detail and
in the classical symbols and valuation count, on fresh results and on
results tampered to fail each kind of check.
"""

import dataclasses
import random

import pytest

import scalar_reference
from cdkripke.classical import ClassicalEvaluator, ClassicalModel
from cdkripke.errors import UsageError
from cdkripke.kripke import MAX_BATCH_WIDTH, validate_kripke_model
from cdkripke.lanes import Lanes
from cdkripke.separator import (
    AllMonotone,
    ExpectedCell,
    ExpectedRow,
    ExpectedTable,
    _row_lanes,
    _valuations,
    judge_cells,
    separate,
    verify_separation,
)
from cdkripke.syntax import Atom, Conn, Exists, Forall, Sequent, predicate_shape, predicates
from cdkripke.truthfn import Signature, TruthTable, all_tables, standard_signature

P, Q = Atom("p"), Atom("q")


def assert_same_report(result):
    expected = scalar_reference.verify_separation(result)
    actual = verify_separation(result)
    assert [(c.name, c.ok, c.detail) for c in actual.checks] == [
        (c.name, c.ok, c.detail) for c in expected.checks
    ]
    assert actual.classical_symbols == expected.classical_symbols
    assert actual.classical_valuations == expected.classical_valuations
    return actual


def separated(tables):
    for table in tables:
        result = separate(Signature.of(table))
        if not isinstance(result, AllMonotone):
            yield result


def failed(report) -> set:
    return {c.name for c in report.failures()}


def test_every_table_of_arity_1_to_3():
    results = list(separated(t for n in (1, 2, 3) for t in all_tables(n)))
    assert len(results) == 276 - 3 - 6 - 20
    for result in results:
        assert assert_same_report(result).passed


def test_seeded_arity_4_tables():
    rng = random.Random(7)
    codes = rng.sample(range(2 ** 16), 200)
    tables = [TruthTable.from_bits("c", 4, format(code, "016b")) for code in codes]
    for result in separated(tables):
        assert assert_same_report(result).passed


# one result per construction case and subcase, both subcase-2 variants
BASES = {
    "a": standard_signature("xor"),
    "b1": Signature.of(TruthTable.from_bits("c", 3, "00011001")),
    "b2-PP": Signature.of(TruthTable.from_bits("c", 3, "00001011")),
    "b2-QQ": Signature.of(TruthTable.from_bits("c", 3, "00001001")),
    "c": standard_signature("nand"),
    "d1": standard_signature("implies"),
    "d2": Signature.of(TruthTable.from_bits("c", 3, "10000001")),
}


@pytest.fixture(params=sorted(BASES))
def base(request):
    return separate(BASES[request.param])


def test_bases_cover_every_case():
    for name, sig in BASES.items():
        result = separate(sig)
        variants = [note.split("=")[1] for note in result.notes if note.startswith("variant=")]
        assert "-".join([f"{result.case}{result.subcase or ''}"] + variants) == name


class TestTampered:
    """Each tampering fails the checks it names, the same way in both."""

    def test_quantified_sequent(self, base):
        quantified = Forall("x", Atom("P", ("x",)))
        result = dataclasses.replace(
            base, sequent=Sequent(base.sequent.antecedent | {quantified}, base.sequent.succedent))
        report = assert_same_report(result)
        assert failed(report) == {"sequent-propositional", "sequent-symbols",
                                  "classically-valid", "cd-refuted"}
        assert report.classical_symbols == ()

    def test_arity_conflict(self, base):
        clash = Exists("x", Atom("p", ("x",)))
        result = dataclasses.replace(
            base, sequent=Sequent(base.sequent.antecedent, base.sequent.succedent | {clash}))
        report = assert_same_report(result)
        assert failed(report) >= {"sequent-propositional", "sequent-symbols", "classically-valid"}

    def test_classical_refutation(self, base):
        result = dataclasses.replace(base, sequent=Sequent((), (P,)))
        report = assert_same_report(result)
        details = {c.name: c.detail for c in report.checks}
        assert details["classically-valid"].startswith("refuted by Countermodel(")
        assert report.classical_symbols == ("p",)

    def test_non_refuting_countermodel(self, base):
        interp = dict(base.countermodel.interp)
        interp[("w0", "p", ())] = 1
        model = dataclasses.replace(base.countermodel, interp=interp)
        report = assert_same_report(dataclasses.replace(base, countermodel=model))
        assert "cd-refuted" in failed(report)
        assert "countermodel-validates" not in failed(report)

    def test_non_reflexive_stored_frame(self, base):
        # the countermodel validates on the frame it is evaluated on, as
        # stored, not closed again
        model = dataclasses.replace(base.countermodel, future={"w0": ("w1",), "w1": ("w1",)})
        result = dataclasses.replace(base, countermodel=model)
        checks = [{c.name: c for c in report.checks}["countermodel-validates"]
                  for report in (verify_separation(result), scalar_reference.verify_separation(result))]
        assert not checks[0].ok and "non-reflexive" in checks[0].detail
        assert (checks[0].ok, checks[0].detail) == (checks[1].ok, checks[1].detail)

    def test_wrong_failing_world(self, base):
        report = assert_same_report(dataclasses.replace(base, failing_world="w1"))
        assert failed(report) == {"cd-refuted"}

    @pytest.mark.parametrize("kripke_row", [False, True])
    def test_wrong_cell(self, base, kripke_row):
        tables = list(base.tables)
        t, table = next((i, t) for i, t in enumerate(tables)
                        if (t.rows[0].world is not None) == kripke_row)
        row = table.rows[0]
        cell = row.cells[0]
        wrong = (1 - cell.expected if cell.kind == "value"
                 else tuple(1 - x for x in cell.expected))
        rows = (dataclasses.replace(row, cells=(dataclasses.replace(cell, expected=wrong),)
                                    + row.cells[1:]),) + table.rows[1:]
        tables[t] = dataclasses.replace(table, rows=rows)
        report = assert_same_report(dataclasses.replace(base, tables=tuple(tables)))
        assert failed(report) == {f"table:{table.name}/{row.label}/{cell.formula}"}

    @pytest.mark.parametrize("kripke_row", [False, True])
    def test_bool_expected_values_keep_their_text(self, base, kripke_row):
        # True == 1, but the details print the values given: the int
        # detail already formatted must not stand in for the bool one
        assert_same_report(base)

        def as_bools(row):
            cells = tuple(dataclasses.replace(
                cell, expected=bool(cell.expected) if cell.kind == "value"
                else tuple(map(bool, cell.expected))) for cell in row.cells)
            return dataclasses.replace(row, cells=cells)

        result, _, row = replace_first_row(base, kripke_row, as_bools)
        report = assert_same_report(result)
        details = [c.detail for c in report.checks if c.name.endswith(f"/{row.cells[0].formula}")]
        assert any("True" in d or "False" in d for d in details)
        assert report.passed

    def test_heredity_breaking_model(self, base):
        interp = dict(base.countermodel.interp)
        interp[("w0", "q", ())] = 1  # q stays 0 at w1 above
        model = dataclasses.replace(base.countermodel, interp=interp)
        report = assert_same_report(dataclasses.replace(base, countermodel=model))
        details = {c.name: c.detail for c in report.checks}
        assert "heredity" in details["countermodel-validates"]

    def test_frame_replaced_under_a_valid_model(self, base):
        # valid on its discrete order, but evaluated on the chain it is
        # given, along which p drops: the check validates that chain
        discrete = validate_kripke_model(["w0", "w1"], [], {"w0": ("a1",), "w1": ("a1",)},
                                         {("w0", "p", ()): 1})
        model = dataclasses.replace(discrete, future={"w0": ("w0", "w1"), "w1": ("w1",)})
        report = assert_same_report(dataclasses.replace(base, countermodel=model))
        details = {c.name: c.detail for c in report.checks}
        assert "countermodel-validates" in failed(report)
        assert "heredity" in details["countermodel-validates"]

    def test_row_beyond_the_sequent_symbols(self, base):
        # t occurs in no sequent: the row reads the one lane of its own valuation
        row = ExpectedRow("p=1,t=1", (base.tables[0].rows[0].cells[0],),
                          valuation=(("p", 1), ("t", 1)))
        table = ExpectedTable("extra", (row,))
        assert_same_report(dataclasses.replace(base, tables=base.tables + (table,)))


def replace_first_row(result, kripke_row, change):
    """result with the first row of the first Kripke (or classical)
    table changed by change(row); also that table and the new row."""
    tables = list(result.tables)
    t, table = next((i, t) for i, t in enumerate(tables)
                    if (t.rows[0].world is not None) == kripke_row)
    row = change(table.rows[0])
    tables[t] = dataclasses.replace(table, rows=(row,) + table.rows[1:])
    return dataclasses.replace(result, tables=tuple(tables)), table, row


class TestUnreadableCells:
    """A row or cell the verifier cannot read is a failed check of its
    own; every other check still runs."""

    def test_row_names_a_world_the_countermodel_lacks(self, base):
        result, table, row = replace_first_row(
            base, True, lambda row: dataclasses.replace(row, world="w9"))
        report = verify_separation(result)
        label = f"table:{table.name}/{row.label}"
        assert failed(report) == {label}
        assert {c.name: c.detail for c in report.checks}[label] == (
            "countermodel has no world 'w9'")
        # the row's cells give way to the one check naming the row
        assert len(report.checks) == len(verify_separation(base).checks) - len(row.cells) + 1

    @pytest.mark.parametrize("kripke_row", [False, True])
    def test_cell_names_an_unknown_formula(self, base, kripke_row):
        def rename(row):
            return dataclasses.replace(
                row, cells=(dataclasses.replace(row.cells[0], formula="nosuch"),) + row.cells[1:])

        result, table, row = replace_first_row(base, kripke_row, rename)
        report = verify_separation(result)
        where = f"table:{table.name}/{row.label}/nosuch"
        assert failed(report) == {where}
        assert {c.name: c.detail for c in report.checks}[where] == (
            "expected-table cell names unknown formula 'nosuch'")
        assert len(report.checks) == len(verify_separation(base).checks)


class TestWide:
    """More valuations than one batch holds are evaluated exactly, never
    raised on; the reference's cell_reader reads them on one model each."""

    # one symbol more than a batch of MAX_BATCH_WIDTH valuations holds
    WIDE = tuple(f"p{i}" for i in range(MAX_BATCH_WIDTH.bit_length()))

    def test_wide_classical_row(self):
        result = separate(standard_signature("implies"))
        valuation = tuple((sym, i % 2) for i, sym in enumerate(self.WIDE))
        probe = Conn("implies", (Atom("p1"), Atom("p2")))
        model = ClassicalModel(("a1",), {(sym, ()): bit for sym, bit in valuation})
        expected = ClassicalEvaluator(model, result.signature()).value(probe, {})
        cells = (ExpectedCell("probe", "value", expected), ExpectedCell("probe", "args", (1, 0)))
        wide = ExpectedTable("classical-wide", (ExpectedRow("wide", cells, valuation=valuation),))
        result = dataclasses.replace(result, tables=result.tables + (wide,),
                                     formulas={**result.formulas, "probe": probe})
        assert assert_same_report(result).passed

    def test_wide_sequent(self):
        result = separate(standard_signature("implies"))
        symbols = set(predicates(result.sequent))
        extra = [sym for sym in self.WIDE if sym not in symbols]
        extra = extra[:len(self.WIDE) - len(symbols)]
        wide = Sequent(result.sequent.antecedent | {Atom(sym) for sym in extra},
                       result.sequent.succedent)
        report = assert_same_report(dataclasses.replace(result, sequent=wide))
        assert report.classical_valuations == 2 * MAX_BATCH_WIDTH
        assert failed(report) == {"sequent-symbols", "cd-refuted"}


def test_shared_valuation_lanes_read_unnamed_symbols_as_zero():
    """A row naming fewer symbols than the sequent reads the others at
    0 on the shared lanes, as on the one lane of its own valuation."""
    result = separate(BASES["b2-PP"])
    sig = result.signature()
    symbols = tuple(sorted(predicates(result.sequent)))
    assert symbols == ("p", "q", "r")
    model = result.countermodel
    shared = _row_lanes(Lanes.for_models((model,), sig), model.worlds,
                        sig, symbols, Lanes.for_batches([_valuations(symbols)], sig))
    fresh = scalar_reference.cell_reader(result.countermodel, sig)
    rows = []
    for valuation in ((("q", 1), ("r", 0)), (("p", 1),), (("q", 1), ("r", 1)), ()):
        cell = fresh(None, valuation)
        cells = tuple(ExpectedCell(key, kind, cell(f, kind))
                      for key, f in result.formulas.items() for kind in ("value", "args"))
        rows.append(ExpectedRow(str(valuation), cells, valuation=valuation))
    judged = list(judge_cells(result, (ExpectedTable("rows", tuple(rows)),), shared))
    assert len(judged) == 4 * 2 * len(result.formulas)
    assert [detail for _, _, ok, detail in judged if not ok] == []


class TestPredicateShape:
    def test_one_walk_matches_the_separate_checks(self):
        s = Sequent((Forall("x", Atom("P", ("x",))), P), (Conn("and", (P, Q)),))
        assert predicate_shape(s) == ({"P": 1, "p": 0, "q": 0}, False)
        assert predicate_shape(Sequent((P,), (Q,))) == ({"p": 0, "q": 0}, True)

    @pytest.mark.parametrize("swap", [False, True])
    def test_clash_named_in_printed_order(self, swap):
        # "and(p, q)" prints before "p(x)", so p is met 0-ary first
        formulas = [Atom("p", ("x",)), Conn("and", (P, Q))]
        if swap:
            formulas.reverse()
        s = Sequent(formulas[:1], formulas[1:])
        for check in (predicates, predicate_shape):
            with pytest.raises(UsageError, match="predicate 'p' used with arities 0 and 1"):
                check(s)

    def test_clash_met_in_a_quantifier_first(self):
        # "exists x. p(x)" prints before "implies(...)"
        peirce = separate(standard_signature("implies")).sequent
        s = Sequent(peirce.antecedent, peirce.succedent | {Exists("x", Atom("p", ("x",)))})
        for check in (predicates, predicate_shape):
            with pytest.raises(UsageError, match="predicate 'p' used with arities 1 and 0"):
                check(s)
