"""Generated input at the CLI boundary keeps the exit-code contract.

Signature text, model JSON (any JSON value, and values shaped like model
files), formula and sequent text (literal and @file) and option values
are fed to every command through ``cli.main``, in one process. Most
inputs are well formed, so the searches and evaluators run; now and then
a part is replaced by junk. Whatever the input, main returns 0, 1, 2 or
3, an argparse usage error surfaces as SystemExit(2), no other exception
escapes, and stderr is empty or one message starting with ``error:`` or
``usage:``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cdkripke.cli import main

# the connectives of the generated signatures and formulas, with the
# arity formulas apply them at; "c" gets a generated table of any arity
CONNECTIVES = [("and", 2), ("or", 2), ("not", 1), ("implies", 2), ("c", 2)]
# the names a generated table gets: "c", the symbols of a separating
# sequent and a variable name
TABLE_NAMES = ["c", "p", "q", "r", "s", "x"]
STANDARD = ["conn and 2 0001", "conn or 2 0111", "conn not 1 10", "conn implies 2 1101"]
WORLDS = ["w0", "w1", "w2"]
ELEMENTS = ["a1", "a2"]
PREDICATES = ["p", "q", "P", "R"]
MODEL_KEYS = ["worlds", "order", "domain", "domains", "interp", "world", "pred", "args",
              "value"]
MODES = ["classical-prop", "classical-bounded", "kripke-model", "cd-search"]

short_text = st.text(max_size=6)


def rarely(junk, strategy):
    """strategy's values, and now and then junk's instead."""
    return st.sampled_from(range(8)).flatmap(lambda i: junk if i == 7 else strategy)


# --- signatures ------------------------------------------------------------------

table = st.integers(0, 3).flatmap(
    lambda arity: st.text(alphabet="01", min_size=2 ** arity, max_size=2 ** arity)
    .map(lambda bits: f"{arity} {bits}")
)
malformed_table = st.builds(
    "{} {}".format,
    st.one_of(st.integers(-1, 4).map(str), st.from_regex(r"[0-9]{1,15}", fullmatch=True),
              short_text),
    st.one_of(st.text(alphabet="01", max_size=9), short_text),
)
signature_line = rarely(
    st.one_of(st.just("# comment"), short_text,
              st.builds("conn {} {}".format, st.sampled_from(["and", "c"]), malformed_table)),
    st.builds("conn {} {}".format, st.sampled_from(TABLE_NAMES), table),
)
signature_text = st.builds(
    lambda standard, extra: "\n".join(standard + extra),
    st.lists(st.sampled_from(STANDARD), unique=True),
    st.lists(signature_line, max_size=1),
)

# --- model files ---------------------------------------------------------------

json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), short_text,
    st.sampled_from(WORLDS + ELEMENTS + PREDICATES + [0, 1]),
)
any_json = st.recursive(
    json_scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.one_of(st.sampled_from(MODEL_KEYS), short_text), children,
                        max_size=4),
    ),
    max_leaves=10,
)


def or_any(strategy):
    """strategy's values, now and then any JSON value instead."""
    return rarely(any_json, strategy)


world = st.sampled_from(WORLDS)
domain = st.lists(st.sampled_from(ELEMENTS), min_size=1, max_size=2, unique=True)
interp_entry = {
    "pred": or_any(st.sampled_from(PREDICATES)),
    "args": or_any(st.lists(st.sampled_from(ELEMENTS + ["a9"]), max_size=2)),
    "value": or_any(st.sampled_from([0, 1, 1, 2])),
}


def interp(entry):
    return or_any(st.lists(or_any(st.fixed_dictionaries(entry)), max_size=3))


classical_model = st.fixed_dictionaries(
    {"domain": or_any(domain)}, optional={"interp": interp(interp_entry)}
)
kripke_fields = {
    "worlds": or_any(st.lists(world, min_size=1, max_size=3, unique=True)),
}
kripke_optional = {
    "order": or_any(st.lists(or_any(st.lists(world, min_size=2, max_size=2)), max_size=3)),
    "interp": interp(dict(interp_entry, world=or_any(world))),
}
kripke_model = st.one_of(
    st.fixed_dictionaries(dict(kripke_fields, domain=or_any(domain)),
                          optional=kripke_optional),
    st.fixed_dictionaries(
        dict(kripke_fields, domains=or_any(st.dictionaries(world, or_any(domain)))),
        optional=kripke_optional,
    ),
)
model_json = rarely(any_json, st.one_of(kripke_model, classical_model))

# --- formulas and sequents -----------------------------------------------------


def application(sub):
    """A connective applied to its arity's worth of arguments, now and
    then to another number of them."""
    return st.sampled_from(CONNECTIVES).flatmap(
        lambda conn: rarely(st.lists(sub, max_size=3), st.lists(sub, min_size=conn[1],
                                                                 max_size=conn[1]))
        .map(lambda args: f"{conn[0]}({', '.join(args)})")
    )


atom = st.sampled_from(["p", "q", "P(x)", "P(y)", "R(x, y)", "P(a1)", "R(x)"])
formula = st.recursive(
    atom,
    lambda sub: st.one_of(
        application(sub),
        st.builds("{} {}. {}".format, st.sampled_from(["forall", "exists"]),
                  st.sampled_from(["x", "y"]), sub),
    ),
    max_leaves=6,
)
junk_text = st.one_of(st.text(alphabet="pqPRxy(),. =>andornt", max_size=12), short_text)
formula_text = rarely(junk_text, formula)
side = st.lists(formula, max_size=2).map(", ".join)
sequent_text = rarely(junk_text, st.builds("{} => {}".format, side, side))

# --- command lines -------------------------------------------------------------

bound = rarely(st.one_of(st.sampled_from(["-1", "0"]), st.text(max_size=2)),
               st.sampled_from(["1", "2"]))
output_format = rarely(short_text, st.sampled_from(["human", "json"]))
stray_args = rarely(
    st.lists(st.one_of(st.sampled_from(["--world", "--all-worlds", "--seed", "-h"]),
                       short_text), min_size=1, max_size=2),
    st.just([]),
)


class Inputs:
    """Writes generated file contents into one temporary directory and
    returns the arguments naming them."""

    def __init__(self, directory: Path, draw):
        self.directory = directory
        self.draw = draw
        self.count = 0

    def path(self, content: str) -> str:
        self.count += 1
        path = self.directory / f"input{self.count}"
        path.write_text(content, encoding="utf-8", errors="surrogatepass")
        return str(path)

    def file(self, contents):
        """A file holding text drawn from contents, or now and then a path
        that names a directory or nothing."""
        return self.draw(rarely(
            st.sampled_from([str(self.directory), str(self.directory / "missing")]),
            contents.map(self.path),
        ))

    def text(self, texts):
        """Literal text drawn from texts, or @path naming a file (now and
        then no file) holding it."""
        return self.draw(rarely(
            st.just("@" + str(self.directory / "missing")),
            st.one_of(texts, texts.map(lambda t: "@" + self.path(t))),
        ))

    def signature(self):
        return ["--sig", self.file(signature_text)]

    def model(self):
        return ["--model", self.file(model_json.map(json.dumps))]


def check_mono(inputs, draw):
    return ["check-mono", *inputs.signature()]


def eval_(inputs, draw):
    where = draw(st.one_of(st.just([]), st.just(["--all-worlds"]),
                           rarely(short_text, world).map(lambda w: ["--world", w])))
    return ["eval", *inputs.signature(), *inputs.model(),
            "--formula", inputs.text(formula_text), *where]


def valid(inputs, draw):
    mode = draw(rarely(short_text, st.sampled_from(MODES)))
    argv = ["valid", *inputs.signature(), "--mode", mode,
            "--sequent", inputs.text(sequent_text)]
    with_model = st.just(True) if mode == "kripke-model" else st.booleans()
    if draw(rarely(st.just(False), with_model)):
        argv += inputs.model()
    for flag in ("--max-worlds", "--max-domain"):
        if draw(st.booleans()):
            argv += [flag, draw(bound)]
    return argv


def separate(inputs, draw):
    return ["separate", *inputs.signature()]


def verify_paper(inputs, draw):
    return ["verify-paper"]


def fuzz(inputs, draw):
    return ["fuzz", "--trials", draw(bound), "--seed", draw(bound)]


COMMANDS = [check_mono, eval_, valid, separate, verify_paper, fuzz]


def argv_for(command, directory, draw):
    argv = command(Inputs(directory, draw), draw)
    return argv + ["--format", draw(output_format)] + draw(stray_args)


def run(argv):
    """(exit code, stdout, stderr) of main(argv), the code of a
    SystemExit raised by argparse as ("SystemExit", code)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv, code, err):
    if isinstance(code, tuple):
        assert code[1] in (0, 2), (argv, code, err)
        assert (code[1] == 2) == err.startswith("usage:"), (argv, code, err)
    else:
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert (code == 2) == err.startswith("error: "), (argv, code, err)
        assert code == 2 or err == "", (argv, code, err)


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c.__name__.rstrip("_"))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_exit_code_contract(command, data):
    with tempfile.TemporaryDirectory() as directory:
        argv = argv_for(command, Path(directory), data.draw)
        code, _, err = run(argv)
    check_contract(argv, code, err)
