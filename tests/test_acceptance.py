"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria complete. Every check is exact (boolean equality); the stated
runtime budgets are asserted too.
"""

import random
import time

from cdkripke.classical import Valid, decide_propositional
from cdkripke.collapse import run_collapse_sweep
from cdkripke.golden import run_golden_checks
from cdkripke.kripke import (
    Failure,
    NoCountermodelUpTo,
    bounded_cd_countermodel_search,
    model_validity,
)
from cdkripke.separator import (
    AllMonotone,
    SeparationResult,
    separate,
    verify_separation,
)
from cdkripke.suites import (
    random_propositional_sequent,
    run_heredity_suite,
    run_lift_suite,
)
from cdkripke.syntax import Conn, Sequent, parse_sequent, print_sequent
from cdkripke.truthfn import (
    Signature,
    TruthTable,
    all_tables,
    monotonicity_witness,
    standard_signature,
)

MONO = standard_signature("and", "or")


def _report(number: int, label: str, elapsed: float, budget: float):
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.1f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_exhaustive_small_arity_separation():
    """Every non-monotonic table of arity <= 3 yields a verified
    separating sequent: classically valid, refuted at the stated world."""
    start = time.monotonic()
    tables = monotone = separated = 0
    for arity in (1, 2, 3):
        for table in all_tables(arity):
            tables += 1
            result = separate(Signature.of(table))
            if monotonicity_witness(table) is None:
                assert isinstance(result, AllMonotone)
                monotone += 1
                continue
            assert isinstance(result, SeparationResult)
            sig = result.signature()
            assert isinstance(decide_propositional(sig, result.sequent), Valid)
            verdict = model_validity(result.countermodel, result.sequent, sig)
            assert verdict == Failure(result.failing_world, {})
            separated += 1
    assert tables == 4 + 16 + 256
    assert monotone == 3 + 6 + 20
    assert separated == tables - monotone == 247
    _report(1, f"{separated} non-monotone tables separated", time.monotonic() - start, 60)


def test_criterion_2_golden_tables():
    """All reference table cells regenerate exactly, with precisely the
    three documented deviations."""
    start = time.monotonic()
    report = run_golden_checks()
    assert report.passed
    assert report.diffs == []
    assert [d.key for d in report.deviations] == [
        "case-d-phi-slot-condition",
        "case-a-psi-slot-condition",
        "case-a-p-value-at-root",
    ]
    assert all(d.confirmed for d in report.deviations)
    _report(2, f"{report.cells_checked} cells, 3 expected deviations",
            time.monotonic() - start, 1)


def test_criterion_3_peirce_derivation():
    start = time.monotonic()
    result = separate(standard_signature("implies"))
    assert isinstance(result, SeparationResult)
    assert (result.case, result.subcase) == ("d", 1)
    peirce = parse_sequent(
        "=> implies(implies(implies(p, q), p), p)", standard_signature("implies")
    )
    assert result.sequent == peirce
    assert result.countermodel.worlds == ("w0", "w1")
    assert result.countermodel.interp.get(("w1", "p", ()), 0) == 1
    assert result.failing_world == "w0"
    verdict = model_validity(result.countermodel, result.sequent, result.signature())
    assert verdict == Failure("w0", {})
    _report(3, "Peirce sequent from the implication table", time.monotonic() - start, 1)


def test_criterion_4_exhaustive_collapse():
    """Constant-domain values equal projected classical values on every
    model with <= 3 worlds and domain <= 2 for every depth-<=3 formula
    over conjunction and disjunction."""
    start = time.monotonic()
    report = run_collapse_sweep(MONO, max_worlds=3, max_domain=2, depth=3)
    assert report.agreement
    assert report.disagreements == []
    assert report.models == 8976  # one frame per iso class: 1 + 3 + 9 frames
    assert report.values > 30_000_000
    _report(4, f"{report.models} models, {report.values} comparisons",
            time.monotonic() - start, 300)


def test_criterion_5_heredity_property():
    start = time.monotonic()
    report = run_heredity_suite(seed=682_001, trials=10_000)
    assert report.passed and report.trials == 10_000
    _report(5, "10000 heredity trials, mixed signatures", time.monotonic() - start, 30)


def test_criterion_6_lift_property():
    start = time.monotonic()
    report = run_lift_suite(seed=682_002, trials=1_000)
    assert report.passed and report.trials == 1_000
    _report(6, "1000 one-world lift trials", time.monotonic() - start, 10)


def test_criterion_7_bounded_consistency_corpus():
    """No classically valid sequent from the fixed 200-sequent corpus over
    conjunction/disjunction acquires a constant-domain countermodel within
    (3 worlds, domain 1)."""
    start = time.monotonic()
    rng = random.Random(20_240_682)
    corpus = [random_propositional_sequent(rng, MONO) for _ in range(200)]
    assert len(corpus) == 200
    valid = [s for s in corpus if isinstance(decide_propositional(MONO, s), Valid)]
    assert len(valid) >= 50  # the fixed seed yields a substantial valid subset
    for s in valid:
        outcome = bounded_cd_countermodel_search(MONO, s, 3, 1)
        assert outcome == NoCountermodelUpTo(3, 1), print_sequent(s)
    _report(7, f"{len(valid)} valid sequents, zero countermodels",
            time.monotonic() - start, 120)


def test_criterion_8_case_c_double_negation():
    start = time.monotonic()
    for name, arity, bits in (("not", 1, "10"), ("nand", 2, "1110")):
        table = TruthTable.from_bits(name, arity, bits)
        result = separate(Signature.of(table))
        assert isinstance(result, SeparationResult)
        assert result.case == "c"
        not_p = Conn(name, (result.formulas["not_p"].args[0],) * arity)
        assert result.formulas["not_p"] == not_p
        assert result.sequent == Sequent((result.formulas["not_not_p"],), (not_p.args[0],))
        sig = result.signature()
        assert isinstance(decide_propositional(sig, result.sequent), Valid)
        assert model_validity(result.countermodel, result.sequent, sig) == Failure("w0", {})
        assert verify_separation(result).passed
    _report(8, "double c-negation for the unary table and NAND",
            time.monotonic() - start, 1)
