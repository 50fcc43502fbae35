import dataclasses
import itertools
import random

import pytest

from cdkripke.classical import ClassicalEvaluator, ClassicalModel, Valid, decide_propositional
from cdkripke.errors import UsageError
from cdkripke.kripke import (
    Failure,
    KripkeEvaluator,
    kripke_violations,
    model_validity,
    validate_kripke_model,
)
from cdkripke import separator
from cdkripke.separator import (
    AllMonotone,
    SeparationResult,
    build_negation,
    chain_countermodel,
    separate,
    separation_to_json,
    verify_separation,
)
from cdkripke.syntax import (
    Atom,
    Conn,
    Sequent,
    free_vars,
    parse_sequent,
    predicate_shape,
    predicates,
    print_sequent,
)
from cdkripke.truthfn import (
    Signature,
    TruthTable,
    all_tables,
    classify_case,
    eval_table,
    invert,
    monotonicity_witness,
    relative_invert,
    standard_signature,
    standard_table,
)

P, Q, R, S = Atom("p"), Atom("q"), Atom("r"), Atom("s")
IMPLIES = standard_table("implies")


def cls_value(table, valuation, f):
    sig = Signature.of(table)
    model = ClassicalModel(("a1",), {(k, ()): v for k, v in valuation.items()})
    return ClassicalEvaluator(model, sig).value(f, {})


class TestPeirce:
    def test_full_derivation(self):
        result = separate(standard_signature("implies"))
        assert isinstance(result, SeparationResult)
        assert (result.case, result.subcase) == ("d", 1)
        assert result.witness_a == (0, 0)
        assert result.witness_b == (1, 0)
        sigma = Conn("implies", (P, Q))
        psi = Conn("implies", (sigma, P))
        peirce = Conn("implies", (psi, P))
        assert result.formulas["tau"] == Conn("implies", (S, S))
        assert result.formulas["sigma"] == sigma
        assert result.formulas["psi"] == psi
        assert result.formulas["phi"] == peirce
        assert result.sequent == Sequent((), (peirce,))
        assert result.failing_world == "w0"

    def test_classical_table_rows(self):
        # rows (p,q) -> (sigma, psi, phi): frozen from the reference table
        result = separate(Signature.of(IMPLIES))
        expected = {
            (0, 0): (1, 0, 1),
            (0, 1): (1, 0, 1),
            (1, 0): (0, 1, 1),
            (1, 1): (1, 1, 1),
        }
        for (pv, qv), want in expected.items():
            got = tuple(
                cls_value(IMPLIES, {"p": pv, "q": qv}, result.formulas[k])
                for k in ("sigma", "psi", "phi")
            )
            assert got == want, (pv, qv)

    def test_kripke_table_rows(self):
        result = separate(Signature.of(IMPLIES))
        evaluator = KripkeEvaluator(result.countermodel, result.signature())
        rows = {
            "w1": (0, 1, 1),
            "w0": (0, 1, 0),
        }
        for world, want in rows.items():
            got = tuple(
                evaluator.value(result.formulas[k], world, {})
                for k in ("sigma", "psi", "phi")
            )
            assert got == want, world

    def test_countermodel_is_the_pq_chain(self):
        result = separate(Signature.of(IMPLIES))
        model = result.countermodel
        assert model.worlds == ("w0", "w1")
        assert model.interp.get(("w0", "p", ()), 0) == 0
        assert model.interp.get(("w1", "p", ()), 0) == 1
        assert model.interp.get(("w0", "q", ()), 0) == 0
        assert model.interp.get(("w1", "q", ()), 0) == 0


class TestNegation:
    def test_shapes(self):
        assert build_negation(standard_table("nand"), P) == Conn("nand", (P, P))
        t3 = TruthTable.from_bits("c", 3, "10000000")
        assert build_negation(t3, P) == Conn("c", (P, P, P))

    def test_zero_arity_rejected(self):
        with pytest.raises(UsageError):
            build_negation(standard_table("top"), P)

    @pytest.mark.parametrize("arity,bits", [(1, "10"), (2, "1110")])
    def test_negation_semantics_on_chains(self, arity, bits):
        """For any case-c table, the c-negation holds at w exactly when
        its argument fails at every future world: exhaustive over all
        hereditary two-chain models and all depth-2 formulas."""
        table = TruthTable.from_bits("c", arity, bits)
        sig = Signature.of(table)
        atoms = [P, Q]
        formulas = list(atoms)
        for args in itertools.product(atoms, repeat=table.arity):
            formulas.append(Conn("c", args))
        for p_bits in [(0, 0), (0, 1), (1, 1)]:
            for q_bits in [(0, 0), (0, 1), (1, 1)]:
                interp = {}
                for w, pv, qv in zip(("w0", "w1"), p_bits, q_bits):
                    if pv:
                        interp[(w, "p", ())] = 1
                    if qv:
                        interp[(w, "q", ())] = 1
                model = validate_kripke_model(
                    ["w0", "w1"], [("w0", "w1")],
                    {"w0": ("a1",), "w1": ("a1",)}, interp,
                )
                evaluator = KripkeEvaluator(model, sig)
                for f in formulas:
                    neg = build_negation(table, f)
                    for w in model.worlds:
                        expect = int(
                            all(
                                evaluator.value(f, v, {}) == 0
                                for v in model.future[w]
                            )
                        )
                        assert evaluator.value(neg, w, {}) == expect


class TestTau:
    def test_shape(self):
        result = separate(Signature.of(IMPLIES))
        assert result.case == "d"
        assert result.formulas["tau"] == Conn("implies", (S, S))

    def test_classically_valid(self):
        sig = standard_signature("implies")
        s = parse_sequent("=> implies(s, s)", sig)
        assert isinstance(decide_propositional(sig, s), Valid)

    def test_no_cd_countermodel_at_bound(self):
        from cdkripke.kripke import NoCountermodelUpTo, bounded_cd_countermodel_search

        sig = standard_signature("implies")
        s = parse_sequent("=> implies(s, s)", sig)
        assert bounded_cd_countermodel_search(sig, s, 3, 2) == NoCountermodelUpTo(3, 2)


class TestCaseC:
    def test_nand_sequent(self):
        result = separate(standard_signature("nand"))
        assert result.case == "c"
        assert print_sequent(result.sequent) == "nand(nand(p, p), nand(p, p)) => p"
        assert result.failing_world == "w0"

    def test_classical_negation_table(self):
        result = separate(Signature.of(standard_table("not")))
        assert print_sequent(result.sequent) == "not(not(p)) => p"
        verdict = model_validity(result.countermodel, result.sequent, result.signature())
        assert verdict == Failure("w0", {})

    def test_double_negation_classically_valid(self):
        sig = standard_signature("not")
        assert isinstance(
            decide_propositional(sig, parse_sequent("not(not(p)) => p", sig)), Valid
        )


class TestCaseA:
    def test_xor_construction(self):
        result = separate(standard_signature("xor"))
        assert (result.case, result.subcase) == ("a", None)
        assert result.witness_a == (0, 1)
        psi = Conn("xor", (P, R))
        phi = Conn("xor", (psi, R))
        assert result.formulas["psi"] == psi
        assert result.formulas["phi"] == phi
        assert result.sequent == Sequent((phi,), (P,))

    def test_xor_chain_values(self):
        result = separate(Signature.of(standard_table("xor")))
        evaluator = KripkeEvaluator(result.countermodel, result.signature())
        psi, phi = result.formulas["psi"], result.formulas["phi"]
        assert evaluator.value(psi, "w1", {}) == 0
        assert evaluator.value(psi, "w0", {}) == 0
        assert evaluator.value(phi, "w1", {}) == 1
        assert evaluator.value(phi, "w0", {}) == 1
        assert evaluator.value(P, "w0", {}) == 0

    def test_classical_facts(self):
        result = separate(Signature.of(standard_table("xor")))
        psi, phi = result.formulas["psi"], result.formulas["phi"]
        for r in (0, 1):
            assert cls_value(standard_table("xor"), {"p": 0, "r": r}, psi) == r
            assert cls_value(standard_table("xor"), {"p": 0, "r": r}, phi) == 0

    def test_sequent_classically_valid(self):
        sig = standard_signature("xor")
        s = parse_sequent("xor(xor(p, r), r) => p", sig)
        assert isinstance(decide_propositional(sig, s), Valid)


# arity-3 case-b representatives: bits index rows 000,001,...,111
B_SUB1 = TruthTable.from_bits("c", 3, "00100101")
B_SUB2 = TruthTable.from_bits("c", 3, "00100001")


class TestCaseB:
    def test_subcase1_shapes_and_chain_rows(self):
        result = separate(Signature.of(B_SUB1))
        assert (result.case, result.subcase) == ("b", 1)
        assert result.witness_a == (0, 1, 0)
        assert result.witness_b == (0, 1, 1)
        chi, psi, phi = (result.formulas[k] for k in ("chi", "psi", "phi"))
        assert chi == Conn("c", (Q, P, Q))
        assert psi == Conn("c", (Q, R, P))
        assert phi == Conn("c", (Q, R, psi))
        evaluator = KripkeEvaluator(result.countermodel, result.signature())
        # frozen reference rows: (chi, psi, phi) at w1 then w0
        assert [evaluator.value(f, "w1", {}) for f in (chi, psi, phi)] == [1, 0, 1]
        assert [evaluator.value(f, "w0", {}) for f in (chi, psi, phi)] == [0, 0, 1]
        assert model_validity(result.countermodel, result.sequent, result.signature()) == Failure("w0", {})

    def test_subcase1_classical_facts(self):
        result = separate(Signature.of(B_SUB1))
        chi = result.formulas["chi"]
        for pv, qv in [(0, 1), (1, 0), (1, 1)]:
            assert cls_value(B_SUB1, {"p": pv, "q": qv, "r": 0}, chi) == 1
        psi, phi = result.formulas["psi"], result.formulas["phi"]
        for r in (0, 1):
            assert cls_value(B_SUB1, {"p": 0, "q": 0, "r": r}, psi) == r
            assert cls_value(B_SUB1, {"p": 0, "q": 0, "r": r}, phi) == 0

    def test_subcase2_selects_verified_variant(self):
        result = separate(Signature.of(B_SUB2))
        assert (result.case, result.subcase) == ("b", 2)
        assert "QQ_verified=True" in result.notes
        psi = result.formulas["psi"]
        assert psi == Conn("c", (Q, R, Q))
        assert result.sequent.antecedent == frozenset({psi})
        assert model_validity(result.countermodel, result.sequent, result.signature()) == Failure("w0", {})
        assert isinstance(decide_propositional(result.signature(), result.sequent), Valid)

    @staticmethod
    def subcase2_tables():
        """(table, a, b) for every case-b subcase-2 table of arity 3 and of
        a seeded sample of arity-4 tables, (a, b) its witness."""
        rng = random.Random(2021)
        sample = [TruthTable.from_bits("c", 4, format(rng.getrandbits(16), "016b"))
                  for _ in range(6000)]
        for table in [*all_tables(3), *sample]:
            witness = monotonicity_witness(table)
            if (witness is not None and classify_case(table) == "b"
                    and eval_table(table, invert(witness[0])) == 0):
                yield table, *witness

    def test_subcase2_builds_the_candidate_that_f_rel_selects(self):
        # the other layer subcase's candidate fails verification where
        # its table states sigma_layer's value at p=0, q=1, r=1, whose
        # arguments are rel
        count = 0
        for table, a, b in self.subcase2_tables():
            f_rel = eval_table(table, relative_invert(a, b))
            chosen, other = (1, 2) if f_rel == 1 else (2, 1)
            variant = "PP" if chosen == 1 else "QQ"
            result = separate(Signature.of(table))
            assert (result.case, result.subcase) == ("b", 2)
            assert result.tables[1].name == f"classical-subcase-{chosen}"
            assert result.notes == (f"variant={variant}", f"preferred={variant}",
                                    f"PP_verified={chosen == 1}", f"QQ_verified={chosen == 2}")
            report = verify_separation(separator._case_b_subcase2(table, a, b, other))
            assert not report.passed
            assert any(c.name == f"table:classical-subcase-{other}/p=0,q=1,r=1/sigma_layer"
                       and c.detail == f"expected {1 - f_rel}, got {f_rel}"
                       for c in report.failures()), table.bits()
            count += 1
        assert count >= 200

    def test_subcase2_is_verified_once(self, monkeypatch):
        calls = []
        verify = separator.verify_separation

        def counted(result):
            calls.append(result)
            return verify(result)

        monkeypatch.setattr(separator, "verify_separation", counted)
        result = separate(Signature.of(B_SUB2))
        assert (result.case, result.subcase) == ("b", 2)
        assert len(calls) == 1 and calls[0] is result

    def test_arity2_has_no_case_b_nonmonotone(self):
        for table in all_tables(2):
            if classify_case(table) == "b":
                assert monotonicity_witness(table) is None


class TestSeparate:
    def test_all_monotone(self):
        assert isinstance(separate(standard_signature("and", "or")), AllMonotone)

    def test_first_nonmonotone_in_name_order_dispatches(self):
        result = separate(standard_signature("and", "nand"))
        assert result.connective.name == "nand"
        assert result.case == "c"

    def test_exhaustive_arity_2(self):
        for table in all_tables(2):
            result = separate(Signature.of(table))
            if monotonicity_witness(table) is None:
                assert isinstance(result, AllMonotone)
            else:
                assert isinstance(result, SeparationResult)
                assert verify_separation(result).passed

    def test_results_use_allowed_symbols_and_no_quantifiers(self):
        for table in all_tables(2):
            if monotonicity_witness(table) is None:
                continue
            result = separate(Signature.of(table))
            assert predicate_shape(result.sequent)[1]
            assert not free_vars(result.sequent)
            assert set(predicates(result.sequent)) <= {"p", "q", "r", "s"}
            assert not kripke_violations(result.countermodel)


class TestVerification:
    def test_verify_passes_on_fresh_results(self):
        report = verify_separation(separate(standard_signature("implies")))
        assert report.passed
        assert report.classical_valuations == 4

    def test_tampered_model_fails_cd_half_only(self):
        result = separate(standard_signature("implies"))
        # flip the root value of p: heredity still holds, classical half
        # untouched, but the refutation disappears
        tampered_interp = dict(result.countermodel.interp)
        tampered_interp[("w0", "p", ())] = 1
        tampered_model = dataclasses.replace(result.countermodel, interp=tampered_interp)
        tampered = dataclasses.replace(result, countermodel=tampered_model)
        report = verify_separation(tampered)
        assert not report.passed
        by_name = {c.name: c.ok for c in report.checks}
        assert by_name["classically-valid"]
        assert not by_name["cd-refuted"]

    def test_wrong_failing_world_detected(self):
        result = separate(standard_signature("implies"))
        tampered = dataclasses.replace(result, failing_world="w1")
        assert not verify_separation(tampered).passed

    def test_json_serialization(self):
        result = separate(standard_signature("xor"))
        obj = separation_to_json(result, verify_separation(result))
        assert obj["case"] == "a"
        assert obj["sequent"] == "xor(xor(p, r), r) => p"
        assert obj["verification"]["passed"] is True
        assert obj["countermodel"]["worlds"] == ["w0", "w1"]


class TestChainModel:
    def test_without_r(self):
        model = chain_countermodel(with_r=False)
        assert model.interp.get(("w0", "r", ()), 0) == 0
        assert not kripke_violations(model)

    def test_with_r(self):
        model = chain_countermodel(with_r=True)
        assert model.interp.get(("w0", "r", ()), 0) == 1
        assert model.interp.get(("w1", "r", ()), 0) == 1

    @pytest.mark.parametrize("with_r", [False, True])
    def test_built_once_and_read_only(self, with_r):
        model = chain_countermodel(with_r)
        assert chain_countermodel(with_r=with_r) is model
        assert not kripke_violations(model)
        with pytest.raises(TypeError):
            model.domains["w0"] = ()
        with pytest.raises(TypeError):
            model.interp[("w0", "p", ())] = 1
        with pytest.raises(TypeError):
            model.future["w1"] = ("w0",)
