from cdkripke.golden import GOLDEN_TABLES, REPRESENTATIVES, run_golden_checks
from cdkripke.truthfn import classify_case, monotonicity_witness


class TestGolden:
    def test_report_passes(self):
        report = run_golden_checks()
        assert report.passed
        assert not report.diffs

    def test_every_table_group_checked(self):
        report = run_golden_checks()
        # 2 tables x (4+2) rows x 6 cells for each case-d group, plus the
        # 2-row chain tables for cases b (6 cells) and a (4 cells)
        assert report.cells_checked == 2 * (4 + 2) * 6 + 2 * 6 + 2 * 4

    def test_exactly_three_deviations_all_confirmed(self):
        report = run_golden_checks()
        keys = [d.key for d in report.deviations]
        assert keys == [
            "case-d-phi-slot-condition",
            "case-a-psi-slot-condition",
            "case-a-p-value-at-root",
        ]
        assert all(d.confirmed for d in report.deviations)

    def test_representatives_cover_their_cases(self):
        # transcription guard: each representative really lands in the
        # case/subcase whose table it instantiates
        for group, table in REPRESENTATIVES.items():
            assert monotonicity_witness(table) is not None
            assert classify_case(table) == group[0]
        assert set(GOLDEN_TABLES) == set(REPRESENTATIVES)

    def test_render_is_deterministic(self):
        assert run_golden_checks().render() == run_golden_checks().render()


INJECTED_RENDER = """\
golden tables: 92 cells checked, 2 unexpected diffs
  DIFF d1/kripke/w0/sigma.value: expected 1, got 0
  DIFF d1/kripke/w0/phi.args: expected (1, 1), got (1, 0)
expected deviations (3):
  [NOT CONFIRMED] case-d-phi-slot-condition: printed 'psi goes where a[i] = 0 and a[i] = 1'; \
implemented 'psi goes where a[i] = 0 and b[i] = 1'. d1: slot exists=True, diffs=2; \
d2: slot exists=True, diffs=0
  [confirmed] case-a-psi-slot-condition: printed 'r if b[i] = 1 (no b is defined)'; \
implemented 'r if a[i] = 1'. case a carries a single witness vector; diffs=0
  [confirmed] case-a-p-value-at-root: printed 'value of p at w0 is 1'; \
implemented 'value of p at w0 is 0'. engine value 0
golden verdict: FAIL"""


def test_injected_cell_errors_are_reported(monkeypatch):
    """One wrong args cell and one wrong value cell in the d1 Kripke
    table are each reported as a diff, and the d1 deviation is then not
    confirmed."""
    from cdkripke import golden

    rows = list(golden._D1_KRIPKE)
    world, cells = rows[1]
    cells = list(cells)
    assert cells[1] == ("sigma", "value", 0) and cells[4] == ("phi", "args", "b")
    cells[1] = ("sigma", "value", 1)
    cells[4] = ("phi", "args", "ones")
    rows[1] = (world, cells)
    monkeypatch.setitem(golden.GOLDEN_TABLES, "d1",
                        (("classical", golden._D1_CLASSICAL), ("kripke", rows)))
    report = run_golden_checks()
    assert report.render() == INJECTED_RENDER
    payload = report.to_json()
    assert payload["cells_checked"] == 92
    assert payload["unexpected_diffs"] == [
        "d1/kripke/w0/sigma.value: expected 1, got 0",
        "d1/kripke/w0/phi.args: expected (1, 1), got (1, 0)",
    ]
    assert [d["confirmed"] for d in payload["expected_deviations"]] == [False, True, True]
    assert not payload["passed"]


def test_row_naming_an_unknown_world_is_one_diff(monkeypatch):
    from cdkripke import golden

    rows = list(golden._D1_KRIPKE)
    rows[1] = ("w9", rows[1][1])
    monkeypatch.setitem(golden.GOLDEN_TABLES, "d1",
                        (("classical", golden._D1_CLASSICAL), ("kripke", rows)))
    report = run_golden_checks()
    assert report.diffs == ["d1/kripke/w9: countermodel has no world 'w9'"]
    assert report.cells_checked == 92 - 6 + 1
    assert not report.passed
