"""The sweeps in scripts/, run in-process."""

import importlib.util
import sys
from pathlib import Path

import pytest

from cdkripke import kripke, separator
from cdkripke.collapse import run_collapse_sweep
from cdkripke.errors import UsageError
from cdkripke.truthfn import all_tables, monotonicity_witness, standard_signature

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_separate_sweep_verifies_each_table_once(monkeypatch, capsys):
    # --show-examples renders each example with the report that verified it
    script = load_script("separate_all_small_tables")
    calls = []
    verify = separator.verify_separation

    def counted(result):
        calls.append(result)
        return verify(result)

    monkeypatch.setattr(separator, "verify_separation", counted)
    monkeypatch.setattr(sys, "argv", ["separate_all_small_tables.py", "--max-arity", "2",
                                      "--show-examples"])
    assert script.main() == 0
    separated = [t for n in (1, 2) for t in all_tables(n) if monotonicity_witness(t) is not None]
    assert len(separated) == 11
    assert len(calls) == len(separated)
    out = capsys.readouterr().out
    assert out.count("=== example for case") == out.count("verification: PASS") > 0


def test_separate_sweep_checks_the_dedekind_numbers(monkeypatch, capsys):
    script = load_script("separate_all_small_tables")
    monkeypatch.setattr(sys, "argv", ["separate_all_small_tables.py", "--max-arity", "2"])
    assert script.main() == 0
    capsys.readouterr()
    monkeypatch.setitem(script.DEDEKIND, 2, 7)
    assert script.main() == 1
    assert capsys.readouterr().err == "error: arity 2: 6 monotone tables, expected 7\n"


def test_collapse_sweep_reports_an_infeasible_bound(monkeypatch, capsys):
    script = load_script("collapse_sweep")
    monkeypatch.setattr(sys, "argv", ["collapse_sweep.py", "--max-worlds", "2", "--depth", "2"])
    monkeypatch.setenv("CDKRIPKE_MAX_ENUM", "10")
    assert script.main() == 2
    assert capsys.readouterr() == (
        "", "error: bound infeasible: more than 10 constant-domain models within "
        "worlds<=2, domain<=2\n")
    # no frames of two to six worlds, so the walk reaches seven at once
    monkeypatch.delenv("CDKRIPKE_MAX_ENUM")
    monkeypatch.setattr(kripke, "_frames", lambda n, real=kripke._frames: real(n) if n == 1 else ())
    monkeypatch.setattr(sys, "argv", ["collapse_sweep.py", "--max-worlds", "7", "--depth", "2"])
    assert script.main() == 2
    assert capsys.readouterr().err == (
        "error: bound infeasible: frames of more than 6 worlds are not enumerated, worlds<=7\n")


@pytest.mark.parametrize("bounds", [(0, 2, 3), (3, 0, 3), (-1, 2, 3), (3, 2, 0), (3, 2, -3)])
def test_collapse_sweep_refuses_a_bound_below_one(bounds, monkeypatch, capsys):
    # refused before the walk: no frame is listed
    monkeypatch.setattr(kripke, "_frames", None)
    with pytest.raises(UsageError, match="^bounds must be >= 1$"):
        run_collapse_sweep(standard_signature("and", "or"), *bounds)
    script = load_script("collapse_sweep")
    argv = ["--max-worlds", "--max-domain", "--depth"]
    monkeypatch.setattr(sys, "argv", ["collapse_sweep.py"] + [
        str(x) for pair in zip(argv, bounds) for x in pair])
    assert script.main() == 2
    assert capsys.readouterr() == ("", "error: bounds must be >= 1\n")


@pytest.mark.parametrize("arity", [0, -1, 5])
def test_separate_sweep_refuses_an_arity_outside_one_to_four(arity, monkeypatch, capsys):
    script = load_script("separate_all_small_tables")
    monkeypatch.setattr(script, "all_tables", None)
    monkeypatch.setattr(sys, "argv", ["separate_all_small_tables.py", "--max-arity", str(arity)])
    assert script.main() == 2
    assert capsys.readouterr() == ("", f"error: --max-arity must be 1-4, got {arity}\n")
