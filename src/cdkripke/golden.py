"""Golden reference tables for the separation constructions.

The tables below are an independent transcription of the documented
evaluation tables that the case builders are expected to reproduce: the
two three-layer stacks of case d (classical and Kripke, one pair per
subcase), the case-b chain table, and the case-a chain table. Cells hold
either a literal bit or a symbolic vector name that is resolved against
the witness pair of the concrete connective under test:

    a     the witness vector with f(a) = 1
    b     the witness vector above it with f(b) = 0
    rel   the relative inversion of the pair (0 exactly where a=0, b=1)
    ones / zeros

Three cells of the source tables are misprints; they are kept here
as *expected deviations* with their forced readings, so a run confirms
both that the implementation matches every table cell and that the
documented deviations are exactly the known three, no more. The cells
are judged by the separator's own expected-table loop, judge_cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from .errors import ConstructionError
from .kripke import KripkeEvaluator
from .separator import (
    ExpectedCell,
    ExpectedTable,
    SeparationResult,
    _classical_row,
    _kripke_row,
    judge_cells,
    separate,
)
from .syntax import Atom
from .truthfn import Signature, TruthTable, ones, relative_invert, zeros

# (key, arity, bits) of the representative connective per table group
REPRESENTATIVES = {
    "d1": TruthTable.from_bits("implies", 2, "1101"),
    "d2": TruthTable.from_bits("iff", 2, "1001"),
    "b": TruthTable.from_bits("c", 3, "00100101"),
    "a": TruthTable.from_bits("xor", 2, "0110"),
}

# rows: (valuation over (p, q) | world, cells); cells: (formula key, kind, expected)
_D1_CLASSICAL = [
    ((0, 0), [("sigma", "args", "a"), ("sigma", "value", 1), ("psi", "args", "b"),
              ("psi", "value", 0), ("phi", "args", "a"), ("phi", "value", 1)]),
    ((0, 1), [("sigma", "args", "rel"), ("sigma", "value", 1), ("psi", "args", "b"),
              ("psi", "value", 0), ("phi", "args", "a"), ("phi", "value", 1)]),
    ((1, 0), [("sigma", "args", "b"), ("sigma", "value", 0), ("psi", "args", "rel"),
              ("psi", "value", 1), ("phi", "args", "ones"), ("phi", "value", 1)]),
    ((1, 1), [("sigma", "args", "ones"), ("sigma", "value", 1), ("psi", "args", "ones"),
              ("psi", "value", 1), ("phi", "args", "ones"), ("phi", "value", 1)]),
]

_D1_KRIPKE = [
    ("w1", [("sigma", "args", "b"), ("sigma", "value", 0), ("psi", "args", "rel"),
            ("psi", "value", 1), ("phi", "args", "ones"), ("phi", "value", 1)]),
    ("w0", [("sigma", "args", "a"), ("sigma", "value", 0), ("psi", "args", "a"),
            ("psi", "value", 1), ("phi", "args", "b"), ("phi", "value", 0)]),
]

_D2_CLASSICAL = [
    ((0, 0), [("sigma", "args", "a"), ("sigma", "value", 1), ("psi", "args", "rel"),
              ("psi", "value", 0), ("phi", "args", "a"), ("phi", "value", 1)]),
    ((0, 1), [("sigma", "args", "rel"), ("sigma", "value", 0), ("psi", "args", "b"),
              ("psi", "value", 0), ("phi", "args", "a"), ("phi", "value", 1)]),
    ((1, 0), [("sigma", "args", "b"), ("sigma", "value", 0), ("psi", "args", "a"),
              ("psi", "value", 1), ("phi", "args", "ones"), ("phi", "value", 1)]),
    ((1, 1), [("sigma", "args", "ones"), ("sigma", "value", 1), ("psi", "args", "ones"),
              ("psi", "value", 1), ("phi", "args", "ones"), ("phi", "value", 1)]),
]

_D2_KRIPKE = [
    ("w1", [("sigma", "args", "b"), ("sigma", "value", 0), ("psi", "args", "a"),
            ("psi", "value", 1), ("phi", "args", "ones"), ("phi", "value", 1)]),
    ("w0", [("sigma", "args", "a"), ("sigma", "value", 0), ("psi", "args", "a"),
            ("psi", "value", 1), ("phi", "args", "rel"), ("phi", "value", 0)]),
]

_B_KRIPKE = [
    ("w1", [("chi", "args", "a"), ("chi", "value", 1), ("psi", "args", "b"),
            ("psi", "value", 0), ("phi", "args", "a"), ("phi", "value", 1)]),
    ("w0", [("chi", "args", "zeros"), ("chi", "value", 0), ("psi", "args", "a"),
            ("psi", "value", 0), ("phi", "args", "a"), ("phi", "value", 1)]),
]

_A_KRIPKE = [
    ("w1", [("psi", "args", "ones"), ("psi", "value", 0), ("phi", "args", "a"),
            ("phi", "value", 1)]),
    ("w0", [("psi", "args", "a"), ("psi", "value", 0), ("phi", "args", "a"),
            ("phi", "value", 1)]),
]

GOLDEN_TABLES = {
    "d1": (("classical", _D1_CLASSICAL), ("kripke", _D1_KRIPKE)),
    "d2": (("classical", _D2_CLASSICAL), ("kripke", _D2_KRIPKE)),
    "b": (("kripke", _B_KRIPKE),),
    "a": (("kripke", _A_KRIPKE),),
}

EXPECTED_CASE = {"d1": ("d", 1), "d2": ("d", 2), "b": ("b", 1), "a": ("a", None)}


@dataclass
class Deviation:
    key: str
    printed: str
    implemented: str
    confirmed: bool
    detail: str = ""


@dataclass
class GoldenReport:
    cells_checked: int = 0
    diffs: list = field(default_factory=list)  # "group/table/row/formula.kind: detail"
    deviations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.diffs and all(d.confirmed for d in self.deviations)

    def render(self) -> str:
        lines = [
            f"golden tables: {self.cells_checked} cells checked, "
            f"{len(self.diffs)} unexpected diffs"
        ]
        for diff in self.diffs:
            lines.append(f"  DIFF {diff}")
        lines.append(f"expected deviations ({len(self.deviations)}):")
        for d in self.deviations:
            status = "confirmed" if d.confirmed else "NOT CONFIRMED"
            lines.append(f"  [{status}] {d.key}: printed {d.printed!r}; "
                         f"implemented {d.implemented!r}. {d.detail}")
        lines.append("golden verdict: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "cells_checked": self.cells_checked,
            "unexpected_diffs": list(self.diffs),
            "expected_deviations": [
                {
                    "key": d.key,
                    "printed": d.printed,
                    "implemented": d.implemented,
                    "confirmed": d.confirmed,
                    "detail": d.detail,
                }
                for d in self.deviations
            ],
            "passed": self.passed,
        }


def _resolve_symbol(symbol, result: SeparationResult):
    n = result.connective.arity
    if symbol == "a":
        return result.witness_a
    if symbol == "b":
        return result.witness_b
    if symbol == "rel":
        return relative_invert(result.witness_a, result.witness_b)
    if symbol == "ones":
        return ones(n)
    if symbol == "zeros":
        return zeros(n)
    raise ConstructionError(f"unknown vector symbol {symbol!r}")


def _check_group(report: GoldenReport, group: str, result: SeparationResult) -> int:
    """Judge the group's cells, their vector names resolved against the
    witness pair of result, in the separator's expected-table loop; the
    diffs go to report, and their number is returned."""
    tables = []
    for table_name, rows in GOLDEN_TABLES[group]:
        expected_rows = []
        for setting, row_cells in rows:
            cells = [
                ExpectedCell(key, kind,
                             _resolve_symbol(expected, result) if kind == "args" else expected)
                for key, kind, expected in row_cells
            ]
            if table_name == "kripke":
                expected_rows.append(_kripke_row(setting, cells))
            else:
                expected_rows.append(_classical_row((("p", setting[0]), ("q", setting[1])), cells))
        tables.append(ExpectedTable(table_name, tuple(expected_rows)))
    diffs = 0
    for label, cell, ok, detail in judge_cells(result, tables):
        report.cells_checked += 1
        if not ok:
            where = label if cell is None else f"{label}/{cell.formula}.{cell.kind}"
            report.diffs.append(f"{group}/{where}: {detail}")
            diffs += 1
    return diffs


def run_golden_checks() -> GoldenReport:
    """Rebuild the four representative separations, diff every reference
    table cell, and confirm the three documented deviations."""
    report = GoldenReport()
    results, diffs = {}, {}
    for group, table in REPRESENTATIVES.items():
        result = separate(Signature.of(table))
        if not isinstance(result, SeparationResult) or (
            (result.case, result.subcase) != EXPECTED_CASE[group]
        ):
            raise ConstructionError(
                f"representative {group} classified as "
                f"{getattr(result, 'case', result)}/{getattr(result, 'subcase', None)}"
            )
        results[group] = result
        diffs[group] = _check_group(report, group, result)

    # deviation 1: the middle slot condition of the phi layer in the
    # case-d stacks is printed as the unsatisfiable "a[i]=0 and a[i]=1";
    # the forced reading is "a[i]=0 and b[i]=1". Confirmed by the slot
    # being non-empty for every witness pair (a < b strictly) while the
    # tables above still match.
    d_ok = True
    detail_bits = []
    for group in ("d1", "d2"):
        res = results[group]
        has_slot = any(
            x == 0 and y == 1 for x, y in zip(res.witness_a, res.witness_b)
        )
        d_ok = d_ok and has_slot and not diffs[group]
        detail_bits.append(f"{group}: slot exists={has_slot}, diffs={diffs[group]}")
    report.deviations.append(
        Deviation(
            "case-d-phi-slot-condition",
            "psi goes where a[i] = 0 and a[i] = 1",
            "psi goes where a[i] = 0 and b[i] = 1",
            d_ok,
            "; ".join(detail_bits),
        )
    )

    # deviation 2: the case-a psi slots are printed as "r if b[i] = 1"
    # although case a defines no b; the forced reading is a[i] = 1.
    res_a = results["a"]
    report.deviations.append(
        Deviation(
            "case-a-psi-slot-condition",
            "r if b[i] = 1 (no b is defined)",
            "r if a[i] = 1",
            res_a.witness_b is None and not diffs["a"],
            f"case a carries a single witness vector; diffs={diffs['a']}",
        )
    )

    # deviation 3: the case-a conclusion prints the value of p at the
    # root world as 1; the model makes p false there and the refutation
    # needs exactly that.
    sig_a = res_a.signature()
    p_at_root = KripkeEvaluator(res_a.countermodel, sig_a).value(Atom("p"), "w0", {})
    report.deviations.append(
        Deviation(
            "case-a-p-value-at-root",
            "value of p at w0 is 1",
            "value of p at w0 is 0",
            p_at_root == 0,
            f"engine value {p_at_root}",
        )
    )
    return report
