"""Pinned transcripts of the README's cdkripke examples.

Each example runs in human and JSON form on the fixture files in
tests/fixtures/readme, and its exit code and stdout must match the
transcript stored there byte for byte. Two examples beyond the README
pin a classical-prop countermodel (zero-valued symbols listed) and a
classical-bounded countermodel with an assignment.

After an intended output change, rewrite the transcripts with
``PYTHONPATH=src python tests/test_readme_transcripts.py`` and review
the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from cdkripke.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "readme"

# (name, argv); file arguments name files in FIXTURES
EXAMPLES = [
    ("check-mono", ["check-mono", "--sig", "sig.txt"]),
    ("eval-world", ["eval", "--sig", "sig.txt", "--model", "model.json",
                    "--formula", "nand(p, p)", "--world", "w0"]),
    ("eval-all-worlds", ["eval", "--sig", "sig.txt", "--model", "model.json",
                         "--formula", "nand(p, p)", "--all-worlds"]),
    ("valid-classical-prop", ["valid", "--sig", "sig.txt", "--mode", "classical-prop",
                              "--sequent", "=> implies(p, p)"]),
    ("valid-classical-prop-countermodel", ["valid", "--sig", "sig.txt", "--mode",
                                           "classical-prop", "--sequent", "=> implies(p, q)"]),
    ("valid-classical-bounded", ["valid", "--sig", "sig.txt", "--mode", "classical-bounded",
                                 "--max-domain", "3",
                                 "--sequent", "exists x. P(x) => forall x. P(x)"]),
    ("valid-classical-bounded-assignment", ["valid", "--sig", "sig.txt", "--mode",
                                            "classical-bounded", "--max-domain", "2",
                                            "--sequent", "P(x) => forall y. P(y)"]),
    ("valid-kripke-model", ["valid", "--sig", "sig.txt", "--mode", "kripke-model",
                            "--model", "chain.json", "--sequent", "=> p"]),
    ("valid-cd-search", ["valid", "--sig", "sig.txt", "--mode", "cd-search",
                         "--max-worlds", "3", "--max-domain", "2",
                         "--sequent", "=> implies(implies(implies(p,q),p),p)"]),
    ("separate", ["separate", "--sig", "sig.txt"]),
    ("verify-paper", ["verify-paper"]),
    ("fuzz", ["fuzz", "--trials", "10000", "--seed", "0"]),
]

FILE_FLAGS = ("--sig", "--model")


def run(argv, fmt):
    """'exit: <code>' on the first line, then everything main printed."""
    args = list(argv)
    for i, arg in enumerate(args[:-1]):
        if arg in FILE_FLAGS:
            args[i + 1] = str(FIXTURES / args[i + 1])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args + ["--format", fmt])
    return f"exit: {code}\n{out.getvalue()}"


def transcript(name, fmt):
    return FIXTURES / f"{name}.{fmt}.txt"


@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize("name, argv", EXAMPLES, ids=[name for name, _ in EXAMPLES])
def test_transcript(name, argv, fmt):
    expected = transcript(name, fmt).read_text(encoding="utf-8")
    assert run(argv, fmt) == expected


if __name__ == "__main__":
    for name, argv in EXAMPLES:
        for fmt in ("human", "json"):
            transcript(name, fmt).write_text(run(argv, fmt), encoding="utf-8")
