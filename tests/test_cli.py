import json

import pytest

from cdkripke.cli import (
    EXIT_ALL_MONOTONE,
    EXIT_INPUT,
    EXIT_NEGATIVE,
    EXIT_OK,
    main,
)
from cdkripke.syntax import MAX_DEPTH, formula_depth, parse_formula
from cdkripke.truthfn import parse_signature

IMPLIES_SIG = "conn implies 2 1101\n"
MONO_SIG = "conn and 2 0001\nconn or 2 0111\n"
KSTAR = {
    "worlds": ["w0", "w1"],
    "order": [["w0", "w1"]],
    "domain": ["a1"],
    "interp": [{"world": "w1", "pred": "p", "args": [], "value": 1}],
}


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        if isinstance(content, dict):
            path.write_text(json.dumps(content))
        else:
            path.write_text(content)
        return str(path)

    return write


class TestCheckMono:
    def test_non_monotone_exits_1(self, files, capsys):
        code = main(["check-mono", "--sig", files("s.txt", IMPLIES_SIG)])
        out = capsys.readouterr().out
        assert code == EXIT_NEGATIVE
        assert "witness" in out and "case d" in out

    def test_all_monotone_exits_0(self, files, capsys):
        code = main(["check-mono", "--sig", files("s.txt", MONO_SIG)])
        assert code == EXIT_OK
        assert "all monotone" in capsys.readouterr().out

    def test_malformed_bits_exits_2(self, files, capsys):
        code = main(["check-mono", "--sig", files("s.txt", "conn x 2 111\n")])
        assert code == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_json_format(self, files, capsys):
        code = main(["check-mono", "--sig", files("s.txt", IMPLIES_SIG), "--format", "json"])
        assert code == EXIT_NEGATIVE
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_monotone"] is False
        assert payload["connectives"][0]["witness"] == [[0, 0], [1, 0]]


class TestEval:
    def test_classical_model(self, files, capsys):
        model = {"domain": ["a1"], "interp": [{"pred": "p", "args": [], "value": 1}]}
        code = main(
            ["eval", "--sig", files("s.txt", MONO_SIG), "--model", files("m.json", model),
             "--formula", "p"]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "1"

    def test_kripke_double_negation_at_root(self, files, capsys):
        sig = files("s.txt", "conn nand 2 1110\n")
        model = files("m.json", KSTAR)
        code = main(
            ["eval", "--sig", sig, "--model", model,
             "--formula", "nand(nand(p,p), nand(p,p))", "--world", "w0"]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "1"

    def test_all_worlds(self, files, capsys):
        sig = files("s.txt", "conn nand 2 1110\n")
        code = main(
            ["eval", "--sig", sig, "--model", files("m.json", KSTAR),
             "--formula", "p", "--all-worlds"]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["w0: 0", "w1: 1"]

    def test_invalid_model_exits_2(self, files, capsys):
        bad = dict(KSTAR)
        bad["interp"] = [
            {"world": "w0", "pred": "p", "args": [], "value": 1},
            {"world": "w1", "pred": "p", "args": [], "value": 0},
        ]
        code = main(
            ["eval", "--sig", files("s.txt", MONO_SIG), "--model", files("m.json", bad),
             "--formula", "p", "--world", "w0"]
        )
        assert code == EXIT_INPUT
        assert "heredity" in capsys.readouterr().err

    def test_free_variables_rejected(self, files, capsys):
        model = {"domain": ["a1"], "interp": []}
        code = main(
            ["eval", "--sig", files("s.txt", MONO_SIG), "--model", files("m.json", model),
             "--formula", "P(x)"]
        )
        assert code == EXIT_INPUT

    def test_kripke_needs_world(self, files, capsys):
        code = main(
            ["eval", "--sig", files("s.txt", MONO_SIG), "--model", files("m.json", KSTAR),
             "--formula", "p"]
        )
        assert code == EXIT_INPUT


class TestValid:
    def test_classical_prop_peirce(self, files, capsys):
        code = main(
            ["valid", "--sig", files("s.txt", IMPLIES_SIG), "--mode", "classical-prop",
             "--sequent", "=> implies(implies(implies(p,q),p),p)"]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "Valid"

    def test_cd_search_finds_peirce_countermodel(self, files, capsys):
        code = main(
            ["valid", "--sig", files("s.txt", IMPLIES_SIG), "--mode", "cd-search",
             "--max-worlds", "2", "--max-domain", "1",
             "--sequent", "=> implies(implies(implies(p,q),p),p)", "--format", "json"]
        )
        assert code == EXIT_NEGATIVE
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "countermodel"
        assert len(payload["model"]["worlds"]) == 2

    def test_kripke_model_mode(self, files, capsys):
        code = main(
            ["valid", "--sig", files("s.txt", MONO_SIG), "--mode", "kripke-model",
             "--model", files("m.json", KSTAR), "--sequent", "=> p"]
        )
        assert code == EXIT_NEGATIVE
        assert "w0" in capsys.readouterr().out

    def test_mode_input_mismatch(self, files, capsys):
        code = main(
            ["valid", "--sig", files("s.txt", MONO_SIG), "--mode", "classical-prop",
             "--sequent", "=> forall x. P(x)"]
        )
        assert code == EXIT_INPUT

    def test_classical_bounded(self, files, capsys):
        code = main(
            ["valid", "--sig", files("s.txt", MONO_SIG), "--mode", "classical-bounded",
             "--max-domain", "2", "--sequent", "exists x. P(x) => forall x. P(x)"]
        )
        assert code == EXIT_NEGATIVE


class TestSeparate:
    def test_peirce(self, files, capsys):
        code = main(["separate", "--sig", files("s.txt", IMPLIES_SIG), "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["sequent"] == "=> implies(implies(implies(p, q), p), p)"
        assert payload["case"] == "d" and payload["subcase"] == 1
        assert payload["verification"]["passed"] is True

    def test_all_monotone_exits_3(self, files, capsys):
        code = main(["separate", "--sig", files("s.txt", MONO_SIG)])
        assert code == EXIT_ALL_MONOTONE
        assert "all monotone" in capsys.readouterr().out


class TestVerifyPaper:
    def test_passes(self, capsys):
        code = main(["verify-paper"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "golden verdict: PASS" in out
        assert out.count("[confirmed]") == 3

    def test_json(self, capsys):
        code = main(["verify-paper", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["passed"] is True
        assert len(payload["expected_deviations"]) == 3
        assert payload["unexpected_diffs"] == []


class TestFuzz:
    def test_small_run_passes_and_is_deterministic(self, capsys):
        code = main(["fuzz", "--trials", "200", "--seed", "9", "--format", "json"])
        first = capsys.readouterr().out
        assert code == EXIT_OK
        code = main(["fuzz", "--trials", "200", "--seed", "9", "--format", "json"])
        second = capsys.readouterr().out
        assert code == EXIT_OK
        assert first == second
        assert json.loads(first)["passed"] is True


class TestBadInput:
    def test_missing_file(self, capsys):
        assert main(["check-mono", "--sig", "/nonexistent/sig.txt"]) == EXIT_INPUT

    def test_parse_error_in_sequent(self, files, capsys):
        code = main(
            ["valid", "--sig", files("s.txt", MONO_SIG), "--mode", "classical-prop",
             "--sequent", "=> and(p"]
        )
        assert code == EXIT_INPUT

    def test_enumeration_ceiling_env_var(self, files, capsys, monkeypatch):
        monkeypatch.setenv("CDKRIPKE_MAX_ENUM", "10")
        code = main(
            ["valid", "--sig", files("s.txt", MONO_SIG), "--mode", "cd-search",
             "--max-worlds", "3", "--max-domain", "2", "--sequent", "p => p"]
        )
        assert code == EXIT_INPUT
        assert "bound infeasible" in capsys.readouterr().err


class TestArgumentsFromFiles:
    def test_sequent_from_at_file(self, files, capsys):
        seq = files("peirce.txt", "=> implies(implies(implies(p,q),p),p)\n")
        code = main(
            ["valid", "--sig", files("s.txt", IMPLIES_SIG), "--mode", "classical-prop",
             "--sequent", f"@{seq}"]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "Valid"

    def test_formula_from_at_file(self, files, capsys):
        model = {"domain": ["a1"], "interp": [{"pred": "p", "args": [], "value": 1}]}
        formula = files("f.txt", "or(p, q)\n")
        code = main(
            ["eval", "--sig", files("s.txt", MONO_SIG), "--model", files("m.json", model),
             "--formula", f"@{formula}"]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "1"


class TestInputBoundary:
    """Malformed input exits 2 with one error line, never a traceback."""

    def _input_error(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("cap", ["abc", "0", "-3", "2.5"])
    def test_bad_enumeration_cap_env_var(self, cap, files, capsys, monkeypatch):
        monkeypatch.setenv("CDKRIPKE_MAX_ENUM", cap)
        self._input_error(
            ["valid", "--sig", files("s.txt", MONO_SIG), "--mode", "cd-search",
             "--sequent", "p => p"],
            capsys,
        )

    def test_sig_is_a_directory(self, tmp_path, capsys):
        self._input_error(["check-mono", "--sig", str(tmp_path)], capsys)

    def test_non_utf8_sig(self, tmp_path, capsys):
        sig = tmp_path / "s.txt"
        sig.write_bytes(b"conn and 2 0001 \xff\n")
        self._input_error(["check-mono", "--sig", str(sig)], capsys)

    def test_non_utf8_model(self, files, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_bytes(b'{"domain": ["\xff"]}')
        self._input_error(
            ["eval", "--sig", files("s.txt", MONO_SIG), "--model", str(model),
             "--formula", "p"],
            capsys,
        )

    def test_non_utf8_at_file(self, files, tmp_path, capsys):
        seq = tmp_path / "seq.txt"
        seq.write_bytes(b"p => \xfe\n")
        self._input_error(
            ["valid", "--sig", files("s.txt", MONO_SIG), "--mode", "classical-prop",
             "--sequent", f"@{seq}"],
            capsys,
        )

    def test_non_integer_value_in_kripke_model(self, files, capsys):
        model = dict(KSTAR, interp=[{"world": "w1", "pred": "p", "args": [], "value": "x"}])
        self._input_error(
            ["eval", "--sig", files("s.txt", MONO_SIG), "--model", files("m.json", model),
             "--formula", "p", "--all-worlds"],
            capsys,
        )

    def test_non_integer_value_in_classical_model(self, files, capsys):
        model = {"domain": ["a1"], "interp": [{"pred": "p", "args": [], "value": "x"}]}
        self._input_error(
            ["eval", "--sig", files("s.txt", MONO_SIG), "--model", files("m.json", model),
             "--formula", "p"],
            capsys,
        )


class TestNestingLimit:
    """Formulas nested to the parser's limit get a normal verdict in every
    mode; one level deeper is an input error, not a RecursionError."""

    NEST_SIG = "conn not 1 10\nconn and 2 0001\n"
    PROPOSITIONAL = ("q", ("not({})", "and({}, p)"))
    QUANTIFIED = ("P(x)", ("not({})", "forall x. {}", "and({}, p)", "exists x. {}"))

    @staticmethod
    def nested(depth, shape):
        text, wrappers = shape
        for level in range(depth - 1):
            text = wrappers[level % len(wrappers)].format(text)
        return text

    def runs(self, files, depth):
        sig = files("s.txt", self.NEST_SIG)
        kripke = files("k.json", KSTAR)
        classical = files("c.json", {"domain": ["a1"], "interp": []})
        for shape in (self.PROPOSITIONAL, self.QUANTIFIED):
            formula = self.nested(depth, shape)
            yield ["eval", "--sig", sig, "--model", kripke, "--formula", formula,
                   "--all-worlds"]
            yield ["eval", "--sig", sig, "--model", classical, "--formula", formula]
            modes = ["classical-bounded", "kripke-model", "cd-search"]
            if shape is self.PROPOSITIONAL:
                modes.insert(0, "classical-prop")
            for mode in modes:
                yield ["valid", "--sig", sig, "--mode", mode, "--model", kripke,
                       "--max-worlds", "2", "--max-domain", "1",
                       "--sequent", f"p => {formula}"]

    def test_formulas_reach_the_limit(self):
        sig = parse_signature(self.NEST_SIG)
        for shape in (self.PROPOSITIONAL, self.QUANTIFIED):
            f = parse_formula(self.nested(MAX_DEPTH, shape), sig)
            assert formula_depth(f) == MAX_DEPTH

    def test_every_mode_at_the_limit(self, files, capsys):
        for argv in self.runs(files, MAX_DEPTH):
            code = main(argv)
            captured = capsys.readouterr()
            assert code in (EXIT_OK, EXIT_NEGATIVE), (argv[:5], captured.err)
            assert captured.err == "" and captured.out

    def test_one_level_deeper_exits_2(self, files, capsys):
        for argv in self.runs(files, MAX_DEPTH + 1):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == EXIT_INPUT, argv[:5]
            assert err.startswith("error: ") and f"limit of {MAX_DEPTH}" in err
