"""Command-line front end.

Commands: check-mono, eval, valid, separate, verify-paper, fuzz.
Exit codes are a stable contract:

    0  success / affirmative analysis
    1  analysis-negative (non-monotone connective, countermodel found,
       suite violation, unexpected golden diff)
    2  input or usage error
    3  all connectives monotone (separate only)
    4  internal verification failure (a construction bug, never expected)

The environment variable CDKRIPKE_MAX_ENUM caps how many models the
bounded searches (classical-bounded, cd-search) may enumerate, counted
over every labeled frame and domain size (a positive integer, default
2**24); the exact classical-prop decision is not capped. A search that
reaches frames of more than six worlds exits 2 the same way, as does a
bound of more than 64 domain elements once the domains up to 64 are
searched on every world count. Unreadable,
non-UTF-8 or malformed input files exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Optional

from . import golden, suites
from .classical import (
    ClassicalEvaluator,
    Countermodel,
    Valid,
    bounded_fo_validity,
    classical_model_from_json,
    classical_model_to_json,
    decide_propositional,
)
from .errors import (
    ConstructionError,
    EnumerationCapError,
    ModelValidationError,
    ParseError,
    UsageError,
)
from .kripke import (
    CdCountermodel,
    Failure,
    KripkeEvaluator,
    NoCountermodelUpTo,
    bounded_cd_countermodel_search,
    kripke_model_from_json,
    kripke_model_to_json,
    model_validity,
)
from .separator import AllMonotone, _separated, render_separation, separation_to_json
from .syntax import free_vars, parse_formula, parse_sequent
from .truthfn import classify_case, load_signature, monotonicity_witness

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_ALL_MONOTONE = 3
EXIT_INTERNAL = 4


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _emit(args: argparse.Namespace, human: Callable[[], str], payload: Callable[[], dict]):
    """Print the requested format, built by calling human() or payload()."""
    print(_json(payload()) if args.format == "json" else human())


def _load_model_file(path: str):
    """Classical or Kripke model by file shape ('worlds' key marks Kripke)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except ValueError as exc:  # not JSON, or an integer too long to convert
        raise ModelValidationError([f"malformed model file: {exc}"]) from None
    if isinstance(obj, dict) and "worlds" in obj:
        return kripke_model_from_json(obj), "kripke"
    return classical_model_from_json(obj), "classical"


def _text_or_file(value: str) -> str:
    """Formula/sequent arguments are literal text, or @path to read one."""
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            return fh.read().strip()
    return value


def cmd_check_mono(args: argparse.Namespace) -> int:
    sig = load_signature(args.sig)
    rows = []
    all_monotone = True
    for name in sig.names():
        table = sig.connectives[name]
        witness = monotonicity_witness(table)
        case = classify_case(table)
        rows.append(
            {
                "connective": name,
                "arity": table.arity,
                "bits": table.bits(),
                "monotone": witness is None,
                "witness": None if witness is None else [list(witness[0]), list(witness[1])],
                "case": case,
            }
        )
        all_monotone = all_monotone and witness is None

    def human():
        lines = []
        for row in rows:
            if row["monotone"]:
                lines.append(f"{row['connective']}: monotone (case {row['case']})")
            else:
                a, b = row["witness"]
                lines.append(
                    f"{row['connective']}: NOT monotone, witness f({tuple(a)}) = 1, "
                    f"f({tuple(b)}) = 0 (case {row['case']})"
                )
        lines.append("all monotone" if all_monotone else "non-monotone connective present")
        return "\n".join(lines)

    _emit(args, human, lambda: {"connectives": rows, "all_monotone": all_monotone})
    return EXIT_OK if all_monotone else EXIT_NEGATIVE


def cmd_eval(args: argparse.Namespace) -> int:
    sig = load_signature(args.sig)
    if args.model is None:
        raise UsageError("eval needs --model")
    model, flavor = _load_model_file(args.model)
    f = parse_formula(_text_or_file(args.formula), sig)
    if free_vars(f):
        raise UsageError(
            f"formula has free variables {sorted(free_vars(f))}; eval takes closed formulas"
        )
    if flavor == "classical":
        value = ClassicalEvaluator(model, sig).value(f, {})
        _emit(args, lambda: str(value), lambda: {"value": value})
        return EXIT_OK
    evaluator = KripkeEvaluator(model, sig)
    if args.all_worlds:
        values = {w: evaluator.value(f, w, {}) for w in model.worlds}
        _emit(args, lambda: "\n".join(f"{w}: {values[w]}" for w in model.worlds),
              lambda: {"values": values})
        return EXIT_OK
    if args.world is None:
        raise UsageError("Kripke evaluation needs --world or --all-worlds")
    if args.world not in model.worlds:
        raise UsageError(f"--world {args.world!r} is not a world of the model")
    value = evaluator.value(f, args.world, {})
    _emit(args, lambda: str(value), lambda: {"value": value, "world": args.world})
    return EXIT_OK


def _kripke_model_validity(args: argparse.Namespace, sig, s):
    if args.model is None:
        raise UsageError("kripke-model mode needs --model")
    model, flavor = _load_model_file(args.model)
    if flavor != "kripke":
        raise UsageError("kripke-model mode needs a Kripke model file")
    return model_validity(model, s, sig)


_VALID_ROW = (EXIT_OK, lambda v: "Valid", lambda v: {"verdict": "valid"})

# mode -> (check, {verdict type: (exit code, human text, JSON payload)});
# the text and the payload are functions of the verdict, so only the one
# the requested --format prints is built
_VALID_MODES = {
    "classical-prop": (
        lambda args, sig, s: decide_propositional(sig, s),
        {
            Valid: _VALID_ROW,
            Countermodel: (
                EXIT_NEGATIVE,
                lambda v: f"Countermodel: {classical_model_to_json(v.model)}",
                lambda v: {"verdict": "countermodel", "model": classical_model_to_json(v.model)},
            ),
        },
    ),
    "classical-bounded": (
        lambda args, sig, s: bounded_fo_validity(sig, s, args.max_domain),
        {
            NoCountermodelUpTo: (
                EXIT_OK,
                lambda v: f"NoCountermodelUpTo({v.max_domain})",
                lambda v: {"verdict": "no-countermodel-up-to", "max_domain": v.max_domain},
            ),
            Countermodel: (
                EXIT_NEGATIVE,
                lambda v: f"Countermodel: {classical_model_to_json(v.model)} "
                f"assignment {dict(v.assignment)}",
                lambda v: {
                    "verdict": "countermodel",
                    "model": classical_model_to_json(v.model),
                    "assignment": dict(v.assignment),
                },
            ),
        },
    ),
    "kripke-model": (
        _kripke_model_validity,
        {
            Valid: _VALID_ROW,
            Failure: (
                EXIT_NEGATIVE,
                lambda v: f"Failure(world={v.world}, assignment={dict(v.assignment)})",
                lambda v: {"verdict": "failure", "world": v.world,
                           "assignment": dict(v.assignment)},
            ),
        },
    ),
    "cd-search": (
        lambda args, sig, s: bounded_cd_countermodel_search(
            sig, s, args.max_worlds, args.max_domain
        ),
        {
            CdCountermodel: (
                EXIT_NEGATIVE,
                lambda v: f"Countermodel at {v.world}: "
                f"{json.dumps(kripke_model_to_json(v.model), sort_keys=True)} "
                f"assignment {dict(v.assignment)}",
                lambda v: {
                    "verdict": "countermodel",
                    "world": v.world,
                    "assignment": dict(v.assignment),
                    "model": kripke_model_to_json(v.model),
                },
            ),
            NoCountermodelUpTo: (
                EXIT_OK,
                lambda v: f"NoCountermodelUpTo(worlds={v.max_worlds}, domain={v.max_domain})",
                lambda v: {
                    "verdict": "no-countermodel-up-to",
                    "max_worlds": v.max_worlds,
                    "max_domain": v.max_domain,
                },
            ),
        },
    ),
}


def cmd_valid(args: argparse.Namespace) -> int:
    sig = load_signature(args.sig)
    s = parse_sequent(_text_or_file(args.sequent), sig)
    if args.mode not in _VALID_MODES:
        raise UsageError(f"unknown mode {args.mode!r}")
    check, verdicts = _VALID_MODES[args.mode]
    verdict = check(args, sig, s)
    code, human, payload = verdicts[type(verdict)]
    print(_json(payload(verdict)) if args.format == "json" else human(verdict))
    return code


def cmd_separate(args: argparse.Namespace) -> int:
    sig = load_signature(args.sig)
    # the report that verified the result while it was built
    result, report = _separated(sig)
    if isinstance(result, AllMonotone):
        _emit(args, lambda: "all monotone", lambda: {"verdict": "all-monotone"})
        return EXIT_ALL_MONOTONE
    _emit(args, lambda: render_separation(result, report),
          lambda: separation_to_json(result, report))
    return EXIT_OK


def cmd_verify_paper(args: argparse.Namespace) -> int:
    report = golden.run_golden_checks()
    _emit(args, report.render, report.to_json)
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def cmd_fuzz(args: argparse.Namespace) -> int:
    report = suites.run_fuzz(args.seed, args.trials)
    _emit(args, report.render, report.to_json)
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdkripke",
        description="Truth-table connectives under classical and "
        "constant-domain Kripke semantics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sig=False, model=False, bounds=False):
        if sig:
            p.add_argument("--sig", required=True, help="signature file")
        if model:
            p.add_argument("--model", help="model file (JSON)")
        if bounds:
            p.add_argument("--max-domain", type=int, default=3)
            p.add_argument("--max-worlds", type=int, default=3)
        p.add_argument("--format", choices=("human", "json"), default="human")

    p = sub.add_parser("check-mono", help="monotonicity report per connective")
    common(p, sig=True)

    p = sub.add_parser("eval", help="evaluate a closed formula on a model")
    common(p, sig=True, model=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--world")
    p.add_argument("--all-worlds", action="store_true")

    p = sub.add_parser("valid", help="validity checks and countermodel search")
    common(p, sig=True, model=True, bounds=True)
    p.add_argument(
        "--mode",
        required=True,
        choices=("classical-prop", "classical-bounded", "kripke-model", "cd-search"),
    )
    p.add_argument("--sequent", required=True)

    p = sub.add_parser("separate", help="synthesize a separating sequent")
    common(p, sig=True)

    p = sub.add_parser("verify-paper", help="re-derive the golden reference tables")
    common(p)

    p = sub.add_parser("fuzz", help="run the seeded property suites")
    common(p)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call and then reused:
    parse_args returns a fresh namespace and leaves the parser as it was."""
    return build_parser()


_COMMANDS = {
    "check-mono": cmd_check_mono,
    "eval": cmd_eval,
    "valid": cmd_valid,
    "separate": cmd_separate,
    "verify-paper": cmd_verify_paper,
    "fuzz": cmd_fuzz,
}


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # ahead of any file read
        if min(getattr(args, key, 1) for key in ("max_domain", "max_worlds", "trials")) < 1:
            raise UsageError("bounds and trial counts must be >= 1")
        return _COMMANDS[args.command](args)
    except (ParseError, UsageError, ModelValidationError, EnumerationCapError,
            OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConstructionError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
