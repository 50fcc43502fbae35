"""verify_separation on shared lanes against the fresh-check reference.

The verifier evaluates a separation once, on one lane set: the
countermodel's worlds serve cd-refuted and every Kripke row, the segment
after them, every valuation of the sequent's symbols, serves
classically-valid and every classical row; on each segment the lane set
agrees with the lanes of that part alone.
scalar_reference.verify_separation runs each check on its own instead;
the two reports must be equal in every check name, verdict and detail and
in the classical symbols and valuation count, on fresh results, on
results tampered to fail each kind of check, and on countermodels and
rows that cannot be read at all, which fail checks and never raise.
"""

import dataclasses
import random

import pytest

import scalar_reference
from cdkripke.classical import ClassicalEvaluator, ClassicalModel
from cdkripke.errors import UsageError
from cdkripke.kripke import (
    MAX_BATCH_WIDTH,
    kripke_violations,
    validate_kripke_model,
    valuation_batch,
)
from cdkripke.lanes import Lanes
from cdkripke.separator import (
    AllMonotone,
    ExpectedCell,
    ExpectedRow,
    ExpectedTable,
    _countermodel_lanes,
    _row_lanes,
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

    @pytest.mark.parametrize("where", ["classical-row", "kripke-row", "sequent"])
    def test_universal_on_a_heredity_breaking_model(self, base, where):
        # a universal equals its present-world reading only on a
        # hereditary model: on one that fails validation the universal
        # is read at the worlds above, and nothing asserts the two agree
        interp = dict(base.countermodel.interp)
        interp[("w0", "q", ())] = 1  # q stays 0 at w1 above
        model = dataclasses.replace(base.countermodel, interp=interp)
        every_q = Forall("x", Q)
        sequent, tables = base.sequent, base.tables
        if where == "sequent":
            sequent = Sequent(sequent.antecedent | {every_q}, sequent.succedent)
        else:
            row = (ExpectedRow("w0", (ExpectedCell("every_q", "value", 0),), world="w0")
                   if where == "kripke-row"
                   else ExpectedRow("q=1", (ExpectedCell("every_q", "value", 1),),
                                    valuation=(("q", 1),)))
            tables += (ExpectedTable("extra", (row,)),)
        result = dataclasses.replace(base, countermodel=model, sequent=sequent, tables=tables,
                                     formulas={**base.formulas, "every_q": every_q})
        report = assert_same_report(result)
        assert "countermodel-validates" in failed(report)
        assert not any(name.startswith("table:extra") for name in failed(report))

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
        report = assert_same_report(result)
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


class TestUnlaidCountermodel:
    """A countermodel whose frame or domains cannot be laid out on lanes
    is not evaluated: cd-refuted and each Kripke row fail with the fault,
    countermodel-validates names its violation, and every other check
    runs as on the intact countermodel."""

    # the change, the fault, and the detail of countermodel-validates
    TAMPERINGS = {
        "missing-future": ({"future": {"w0": ("w0", "w1")}},
                           "countermodel frame gives world 'w1' no future",
                           "invalid model: non-reflexive(world='w1')"),
        "unknown-world": ({"future": {"w0": ("w0", "w1", "w9"), "w1": ("w1",)}},
                          "countermodel frame puts unknown world 'w9' above 'w0'",
                          "invalid model: unknown-world-in-future(from='w0', to='w9')"),
        "missing-domain": ({"domains": {"w0": ("a1",)}},
                           "countermodel gives world 'w1' no domain",
                           "invalid model: missing-domain(world='w1')"),
        "domain-not-a-sequence": ({"domains": {"w0": None, "w1": ("a1",)}},
                                  "countermodel gives world 'w0' the domain None, not a tuple or list",
                                  "'NoneType' object is not iterable"),
        "unhashable-world": ({"worlds": (["w0"], "w1")},
                             "countermodel world ['w0'] is not hashable",
                             "unhashable type: 'list'"),
        "unhashable-world-above": ({"future": {"w0": ("w0", ["w1"]), "w1": ("w1",)}},
                                   "countermodel frame puts unknown world ['w1'] above 'w0'",
                                   "unhashable type: 'list'"),
        "unhashable-element": ({"domains": {"w0": ("a1",), "w1": ("a1", ["a2"])}},
                               "countermodel gives world 'w1' the element ['a2'], "
                               "which is not hashable",
                               "unhashable type: 'list'"),
        "unhashable-constant-domain": ({"domains": {"w0": ([1],), "w1": ([1],)}},
                                       "countermodel gives world 'w0' the element [1], "
                                       "which is not hashable",
                                       "unhashable type: 'list'"),
        "interp-key-not-a-triple": ({"interp": {"x": 1}},
                                    "countermodel interpretation has key 'x', "
                                    "not a (world, predicate, arguments) triple",
                                    "not enough values to unpack (expected 3, got 1)"),
    }

    @pytest.mark.parametrize("tampering", sorted(TAMPERINGS))
    def test_fault_fails_cd_refuted_and_each_kripke_row(self, base, tampering):
        change, fault, invalid = self.TAMPERINGS[tampering]
        model = dataclasses.replace(base.countermodel, **change)
        report = assert_same_report(dataclasses.replace(base, countermodel=model))
        rows = [(f"table:{t.name}/{row.label}", len(row.cells))
                for t in base.tables for row in t.rows if row.world is not None]
        assert {c.name: c.detail for c in report.failures()} == {
            "countermodel-validates": invalid,
            "cd-refuted": fault,
            **{label: fault for label, _ in rows},
        }

        def rest(report):
            return [(c.name, c.ok, c.detail) for c in report.checks
                    if c.name not in ("countermodel-validates", "cd-refuted")
                    and not any(c.name == label or c.name.startswith(label + "/")
                                for label, _ in rows)]

        intact = verify_separation(base)
        assert rest(report) == rest(intact)
        assert len(report.checks) == len(intact.checks) - sum(n - 1 for _, n in rows)

    @pytest.mark.parametrize("tampering", sorted(TAMPERINGS))
    def test_default_reader_of_judge_cells(self, tampering):
        change, fault, _ = self.TAMPERINGS[tampering]
        base = separate(standard_signature("implies"))
        model = dataclasses.replace(base.countermodel, **change)
        judged = list(judge_cells(dataclasses.replace(base, countermodel=model), base.tables[1:]))
        assert judged == [(f"{base.tables[1].name}/{w}", None, False, fault) for w in ("w1", "w0")]

    def test_future_not_a_sequence(self, base):
        # the two validators word the error of iterating None each their
        # own way; every other check is the reference's
        model = dataclasses.replace(base.countermodel, future={"w0": None, "w1": ("w1",)})
        result = dataclasses.replace(base, countermodel=model)
        reports = verify_separation(result), scalar_reference.verify_separation(result)
        checks = [[(c.name, c.ok, c.detail) for c in report.checks[1:]] for report in reports]
        assert checks[0] == checks[1]
        assert [not report.checks[0].ok for report in reports] == [True, True]
        assert {c.name: c.detail for c in reports[0].failures()}["cd-refuted"] == (
            "countermodel frame gives world 'w0' the future None, not a tuple or list")


class TestMalformedRows:
    """A classical row whose valuation gives a symbol a value other than
    0 or 1, or a row with neither a world nor a valuation, is one failed
    check of its own, in place of its cells. A symbol a valuation names
    twice is true if either of its bits is 1, as in the reference."""

    @pytest.mark.parametrize("bit", [2, -1, "1", None, 0.5])
    def test_valuation_value_not_0_or_1(self, base, bit):
        def spoil(row):
            (sym, _), *others = row.valuation
            return dataclasses.replace(row, valuation=((sym, bit), *others))

        result, table, row = replace_first_row(base, False, spoil)
        report = assert_same_report(result)
        sym = row.valuation[0][0]
        assert {c.name: c.detail for c in report.failures()} == {
            f"table:{table.name}/{row.label}": f"valuation gives {sym!r} the value {bit!r}, not 0 or 1"}
        assert len(report.checks) == len(verify_separation(base).checks) - len(row.cells) + 1

    def test_value_past_the_valuation_lanes(self):
        # read as a bit, p=2 would give lane 8, past the 8 lanes of p, q and s
        base = separate(standard_signature("implies"))
        table = base.tables[0]
        assert table.name == "classical-subcase-1"
        rows = tuple(dataclasses.replace(row, valuation=(("p", 2), ("q", 0)))
                     if row.label == "p=1,q=0" else row for row in table.rows)
        result = dataclasses.replace(
            base, tables=(dataclasses.replace(table, rows=rows),) + base.tables[1:])
        report = assert_same_report(result)
        assert [c.name for c in report.failures()] == ["table:classical-subcase-1/p=1,q=0"]
        judged = [(label, ok) for label, cell, ok, _ in judge_cells(result, result.tables)
                  if cell is None]
        assert judged == [("classical-subcase-1/p=1,q=0", False)]

    @pytest.mark.parametrize("valuation, detail", [
        ((("p",),), "valuation entry ('p',) is not a (symbol, bit) pair"),
        (((["p"], 1),), "valuation entry (['p'], 1) is not a (symbol, bit) pair"),
        ((("p", 1, 2),), "valuation entry ('p', 1, 2) is not a (symbol, bit) pair"),
        (5, "row valuation 5 is not a tuple or list"),
    ])
    def test_entry_not_a_symbol_bit_pair(self, valuation, detail):
        result = implies_row(lambda row: dataclasses.replace(row, valuation=valuation))
        report = assert_same_report(result)
        assert {c.name: c.detail for c in report.failures()} == {
            "table:classical-subcase-1/p=1,q=0": detail}
        judged = [judged for judged in judge_cells(result, result.tables) if not judged[2]]
        assert judged == [("classical-subcase-1/p=1,q=0", None, False, detail)]

    def test_bool_values_read_as_bits(self, base):
        def as_bools(row):
            return dataclasses.replace(row, valuation=tuple((sym, bool(bit))
                                                            for sym, bit in row.valuation))

        result, _, _ = replace_first_row(base, False, as_bools)
        assert assert_same_report(result).passed

    def test_repeated_symbol_is_true_if_any_of_its_bits_is(self, base):
        def repeat(row):
            (sym, _), *others = row.valuation
            return dataclasses.replace(row, valuation=((sym, 1), (sym, 0), *others))

        result, _, _ = replace_first_row(base, False, repeat)
        assert_same_report(result)

    def test_row_with_neither_world_nor_valuation(self, base):
        result, table, row = replace_first_row(
            base, False, lambda row: dataclasses.replace(row, valuation=None))
        report = assert_same_report(result)
        assert {c.name: c.detail for c in report.failures()} == {
            f"table:{table.name}/{row.label}": "row names neither a world nor a valuation"}


class TestMalformedCells:
    """A cell of a kind other than "value" or "args", or an args cell
    whose expected value is not a tuple or list, is one failed check."""

    @pytest.mark.parametrize("cell, detail", [
        (ExpectedCell("sigma", "args", 5), "args cell expects 5, not a tuple or list"),
        (ExpectedCell("sigma", "bogus", 5), "cell kind 'bogus' is neither 'value' nor 'args'"),
    ])
    def test_one_failed_check(self, cell, detail):
        result = implies_row(lambda row: dataclasses.replace(row, cells=(cell,) + row.cells[1:]))
        report = assert_same_report(result)
        assert [(c.name, c.detail) for c in report.failures()] == [
            ("table:classical-subcase-1/p=1,q=0/sigma", detail)]
        assert len(report.checks) == len(verify_separation(
            separate(standard_signature("implies"))).checks)
        judged = [(label, ok, why) for label, _, ok, why in judge_cells(result, result.tables)
                  if not ok]
        assert judged == [("classical-subcase-1/p=1,q=0", False, detail)]


def implies_row(change):
    """The implies separation with row p=1,q=0 of its classical table
    changed by change(row)."""
    base = separate(standard_signature("implies"))
    table = base.tables[0]
    assert table.name == "classical-subcase-1"
    rows = tuple(change(row) if row.label == "p=1,q=0" else row for row in table.rows)
    return dataclasses.replace(
        base, tables=(dataclasses.replace(table, rows=rows),) + base.tables[1:])


def formulas_of(result) -> list:
    """Every subformula of result's formulas and sequent, each once."""
    seen = {}
    stack = [*result.formulas.values(), *result.sequent.antecedent, *result.sequent.succedent]
    while stack:
        f = stack.pop()
        if f not in seen:
            seen[f] = None
            stack.extend(getattr(f, "args", ()))
    return list(seen)


class TestMergedLanes:
    """The lane set of a verification holds the countermodel's worlds,
    then every valuation of the sequent's symbols: on each segment every
    formula has the Kripke mask of the lanes of that part alone, and an
    intact verification builds that one lane set and no other."""

    # universals and existentials over a domain the parts may not share
    PROBES = (Forall("x", Q), Exists("x", P), Forall("x", Conn("or", (P, Q))))

    @classmethod
    def assert_segments_agree(cls, result):
        sig = Signature.of(result.connective, standard_signature("or").table("or"))
        model = result.countermodel
        batch = valuation_batch(tuple(sorted(predicates(result.sequent))))
        merged, fault = _countermodel_lanes(model, sig, batch)
        assert fault == ""
        alone = Lanes.for_models((model,), sig), Lanes.for_batches([batch], sig)
        if kripke_violations(model):
            merged.cross_check = alone[0].cross_check = False
        for f in formulas_of(result) + list(cls.PROBES):
            mask = merged.mask(f)
            assert [merged.segment(mask, 0), merged.segment(mask, 1)] == [
                lanes.mask(f) for lanes in alone], f

    def test_every_separation_of_arity_1_to_3(self):
        results = list(separated(t for n in (1, 2, 3) for t in all_tables(n)))
        assert len(results) == 247
        for result in results:
            self.assert_segments_agree(result)

    TAMPERINGS = {
        "non-refuting": {"interp": {("w0", "p", ()): 1, ("w1", "p", ()): 1}},
        "heredity-breaking": {"interp": {("w0", "q", ()): 1, ("w1", "p", ()): 1}},
        "two-elements": {"domains": {"w0": ("a1", "a2"), "w1": ("a1", "a2")}},
        "growing": {"domains": {"w0": ("a1",), "w1": ("a1", "a2")}},
        "reordered": {"domains": {"w0": ("a2", "a1"), "w1": ("a2", "a1")}},
    }

    @pytest.mark.parametrize("tampering", sorted(TAMPERINGS))
    def test_tampered_bases(self, base, tampering):
        model = dataclasses.replace(base.countermodel, **self.TAMPERINGS[tampering])
        self.assert_segments_agree(dataclasses.replace(base, countermodel=model))

    def test_one_lane_set_per_verification(self, base, monkeypatch):
        built = []
        init = Lanes.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Lanes, "__init__", counted)
        assert verify_separation(base).passed
        assert len(built) == 1


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
    shared = _row_lanes(*_countermodel_lanes(model, sig, valuation_batch(symbols)), model.worlds,
                        sig, symbols, len(model.worlds))
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
