import json

import pytest

from cdkripke import cli, kripke
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

    def test_needs_a_model(self, files, capsys):
        code = main(["eval", "--sig", files("s.txt", MONO_SIG), "--formula", "p"])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "error: eval needs --model\n"


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

    @pytest.mark.parametrize("name", ["p", "q", "r", "s"])
    def test_connective_named_like_a_symbol_exits_2(self, name, files, capsys):
        # p(p(p)) => p would not parse back
        code = main(["separate", "--sig", files("s.txt", f"{MONO_SIG}conn {name} 1 10\n")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: connective {name!r} ")

    def test_printed_sequent_parses_back(self, files, capsys):
        sig = "conn x 1 10\n"
        code = main(["separate", "--sig", files("s.txt", sig), "--format", "json"])
        assert code == EXIT_OK
        text = json.loads(capsys.readouterr().out)["sequent"]
        assert text == "x(x(p)) => p"
        code = main(["valid", "--sig", files("s.txt", sig), "--mode", "classical-prop",
                     "--sequent", text])
        assert code == EXIT_OK


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
    @pytest.mark.parametrize("argv", [
        ["fuzz", "--trials", "0"],
        ["valid", "--sig", "no-such-file", "--mode", "cd-search", "--sequent", "p",
         "--max-domain", "0"],
        ["valid", "--sig", "no-such-file", "--mode", "cd-search", "--sequent", "p",
         "--max-worlds", "-1"],
    ])
    def test_bounds_below_one_exit_2_before_any_file_read(self, argv, capsys):
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == "error: bounds and trial counts must be >= 1\n"

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

    @pytest.mark.parametrize("value", ["1", "abc"])
    def test_exact_decision_and_separation_ignore_the_ceiling(self, value, files, capsys,
                                                               monkeypatch):
        sig = files("s.txt", IMPLIES_SIG)
        commands = [
            ["valid", "--sig", sig, "--mode", "classical-prop", "--format", "json",
             "--sequent", sequent] for sequent in ("p, q, r => implies(p, r)", "p, q => r")
        ] + [["separate", "--sig", sig, "--format", "json"]]

        def outputs():
            return [(main(argv), *capsys.readouterr()) for argv in commands]

        monkeypatch.delenv("CDKRIPKE_MAX_ENUM", raising=False)
        unset = outputs()
        assert [code for code, *_ in unset] == [EXIT_OK, EXIT_NEGATIVE, EXIT_OK]
        monkeypatch.setenv("CDKRIPKE_MAX_ENUM", value)
        assert outputs() == unset

    def test_seven_worlds_keep_a_one_world_refutation(self, files, capsys):
        code = main(
            ["valid", "--sig", files("s.txt", MONO_SIG), "--mode", "cd-search",
             "--max-worlds", "7", "--max-domain", "1", "--sequent", "=> p", "--format", "json"]
        )
        assert code == EXIT_NEGATIVE
        assert json.loads(capsys.readouterr().out)["model"]["worlds"] == ["w0"]

    def test_frames_of_seven_worlds_are_refused(self, files, capsys, monkeypatch):
        # no frames of three to six worlds, so the walk reaches seven at once
        listed, real = [], kripke._frames

        def frames(n):
            listed.append(n)
            return real(n) if n <= 2 else ()

        monkeypatch.setattr(kripke, "_frames", frames)
        code = main(
            ["valid", "--sig", files("s.txt", MONO_SIG), "--mode", "cd-search",
             "--max-worlds", "7", "--max-domain", "1", "--sequent", "p => p"]
        )
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: bound infeasible: frames of more than 6 worlds are not enumerated, "
            "worlds<=7\n")
        assert listed == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("mode", ["classical-bounded", "cd-search"])
    def test_domains_of_more_than_64_elements_are_refused(self, files, capsys, mode):
        code = main(
            ["valid", "--sig", files("s.txt", MONO_SIG), "--mode", mode,
             "--max-domain", "100000", "--sequent", "p => p"]
        )
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: bound infeasible: domains of more than 64 elements are not enumerated, "
            "domain<=100000\n")

    def test_a_large_domain_bound_keeps_a_one_element_refutation(self, files, capsys):
        code = main(
            ["valid", "--sig", files("s.txt", MONO_SIG), "--mode", "classical-bounded",
             "--max-domain", "100000", "--sequent", "=> p", "--format", "json"]
        )
        assert code == EXIT_NEGATIVE
        assert json.loads(capsys.readouterr().out)["model"]["domain"] == ["a1"]

    def test_a_large_domain_bound_keeps_a_two_world_refutation(self, files, capsys):
        # every domain size of one world is searched before two worlds
        code = main(
            ["valid", "--sig", files("s.txt", IMPLIES_SIG), "--mode", "cd-search",
             "--max-worlds", "2", "--max-domain", "100",
             "--sequent", "=> implies(implies(implies(p,q),p),p)", "--format", "json"]
        )
        assert code == EXIT_NEGATIVE
        out = json.loads(capsys.readouterr().out)
        assert out["world"] == "w1"
        assert out["model"]["worlds"] == ["w0", "w1"]
        assert out["model"]["order"] == [["w0", "w0"], ["w1", "w0"], ["w1", "w1"]]
        assert out["model"]["domain"] == ["a1"]


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
        # JSON true reads as a Python bool, which is an int subclass
        for value in ("x", True):
            model = dict(KSTAR, interp=[{"world": "w1", "pred": "p", "args": [],
                                         "value": value}])
            self._input_error(
                ["eval", "--sig", files("s.txt", MONO_SIG), "--model", files("m.json", model),
                 "--formula", "p", "--all-worlds"],
                capsys,
            )

    def test_non_integer_value_in_classical_model(self, files, capsys):
        for value in ("x", True):
            model = {"domain": ["a1"], "interp": [{"pred": "p", "args": [], "value": value}]}
            self._input_error(
                ["eval", "--sig", files("s.txt", MONO_SIG), "--model", files("m.json", model),
                 "--formula", "p"],
                capsys,
            )


    def _model_file_error(self, files, capsys, model):
        sig = files("s.txt", MONO_SIG)
        path = files("m.json", model)
        for argv in (
            ["eval", "--sig", sig, "--model", path, "--formula", "p", "--all-worlds"],
            ["valid", "--sig", sig, "--mode", "kripke-model", "--model", path,
             "--sequent", "=> p"],
        ):
            self._input_error(argv, capsys)

    @pytest.mark.parametrize("top", ["5", "null", "true"])
    def test_model_file_not_an_object(self, top, files, capsys):
        self._model_file_error(files, capsys, top)

    def test_order_entry_not_a_pair(self, files, capsys):
        self._model_file_error(files, capsys, dict(KSTAR, order=[["w0"]]))

    def test_non_string_domain_element_in_kripke_model(self, files, capsys):
        self._model_file_error(files, capsys, dict(KSTAR, domain=[["a1"]]))

    def test_non_string_domain_element_in_classical_model(self, files, capsys):
        self._model_file_error(files, capsys, {"domain": [["a1"]], "interp": []})

    def test_infinite_value_in_model(self, files, capsys):
        entry = '{"pred": "p", "args": [], "value": 1e400}'
        self._model_file_error(files, capsys, '{"domain": ["a1"], "interp": [%s]}' % entry)

    def test_integer_literal_too_long_to_convert(self, files, capsys):
        self._model_file_error(files, capsys, '{"domain": ["a1"], "value": 1' + "0" * 5000 + "}")

    def test_repeated_world_name(self, files, capsys):
        self._model_file_error(files, capsys, dict(KSTAR, worlds=["w0", "w1", "w0"]))

    def test_repeated_element_in_domain(self, files, capsys):
        self._model_file_error(files, capsys, dict(KSTAR, domain=["a1", "a2", "a1"]))

    def test_repeated_element_in_a_domains_list(self, files, capsys):
        model = {key: value for key, value in KSTAR.items() if key != "domain"}
        model["domains"] = {"w0": ["a1"], "w1": ["a1", "a2", "a2"]}
        self._model_file_error(files, capsys, model)

    def test_repeated_element_in_classical_model(self, files, capsys):
        self._model_file_error(files, capsys, {"domain": ["a1", "a1"], "interp": []})

    def test_unknown_world(self, files, capsys):
        self._input_error(
            ["eval", "--sig", files("s.txt", MONO_SIG), "--model", files("m.json", KSTAR),
             "--formula", "p", "--world", "w9"],
            capsys,
        )

    def test_huge_arity(self, files, capsys):
        self._input_error(["check-mono", "--sig", files("s.txt", "conn c 20000 0\n")], capsys)


def outcome(argv, capsys):
    """(exit code or SystemExit code, stdout, stderr) of main(argv)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    """main builds its parser once per process; every call through the
    reused parser prints and returns what a freshly built one gives."""

    MODES = ("classical-prop", "classical-bounded", "kripke-model", "cd-search")

    def argvs(self, files):
        sig = files("s.txt", IMPLIES_SIG)
        model = files("m.json", KSTAR)
        queries = [
            ["valid", "--sig", sig, "--mode", mode, "--model", model, "--max-worlds", "2",
             "--max-domain", "1", "--sequent", sequent, "--format", fmt]
            for mode in self.MODES
            for sequent in ("=> implies(implies(implies(p,q),p),p)", "p => p")
            for fmt in ("human", "json")
        ]
        errors = [
            ["valid", "--sig", sig, "--mode", "cd-search"],
            ["valid", "--sig", sig, "--mode", "bogus", "--sequent", "=> p"],
            ["valid", "--sig", sig, "--mode", "cd-search", "--max-domain", "x",
             "--sequent", "=> p"],
            ["--help"],
            ["valid", "--help"],
        ]
        return queries + errors + queries

    def test_reused_parser_matches_a_fresh_one(self, files, capsys):
        argvs = self.argvs(files)
        cli._parser.cache_clear()
        reused = [outcome(argv, capsys) for argv in argvs]
        assert cli._parser.cache_info().misses == 1
        for argv, got in zip(argvs, reused):
            cli._parser.cache_clear()
            assert got == outcome(argv, capsys), argv
        assert {code for code, _, _ in reused} == {
            EXIT_OK, EXIT_NEGATIVE, ("SystemExit", 0), ("SystemExit", 2)
        }

    def test_build_parser_is_not_cached(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli.build_parser() is not cli._parser()


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
