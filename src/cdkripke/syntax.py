"""First-order formula ASTs over a connective signature, and sequents.

Formulas are immutable. Equality is structural: there is no
alpha-renaming anywhere in the package, and none is needed because the
only substitution offered works on closed propositional targets.
Each node caches its hash and free-variable set at construction so that
evaluators can memoize on (node, restricted assignment) cheaply.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional, Sequence

from .errors import ParseError, UsageError
from .truthfn import Signature


class Formula:
    __slots__ = ("fv", "fvs", "_hash")

    def __str__(self) -> str:
        return print_formula(self)

    def __repr__(self) -> str:
        return f"<{print_formula(self)}>"

    def __hash__(self) -> int:
        return self._hash


class Atom(Formula):
    """p(x1, ..., xn); with n = 0 a propositional symbol."""

    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: Sequence[str] = ()):
        self.pred = pred
        self.args = tuple(args)
        self.fv = frozenset(self.args)
        self.fvs = tuple(sorted(self.fv))
        self._hash = hash(("atom", pred, self.args))

    def __eq__(self, other):
        return (
            type(other) is Atom
            and self._hash == other._hash
            and self.pred == other.pred
            and self.args == other.args
        )

    __hash__ = Formula.__hash__


class Conn(Formula):
    """c(f1, ..., fn) for a connective c of arity n."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Formula]):
        self.name = name
        self.args = tuple(args)
        fv = frozenset()
        for f in self.args:
            fv = fv | f.fv
        self.fv = fv
        self.fvs = tuple(sorted(fv))
        self._hash = hash(("conn", name, self.args))

    def __eq__(self, other):
        return (
            type(other) is Conn
            and self._hash == other._hash
            and self.name == other.name
            and self.args == other.args
        )

    __hash__ = Formula.__hash__


class Forall(Formula):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: Formula):
        self.var = var
        self.body = body
        self.fv = body.fv - {var}
        self.fvs = tuple(sorted(self.fv))
        self._hash = hash(("forall", var, body))

    def __eq__(self, other):
        return (
            type(other) is Forall
            and self._hash == other._hash
            and self.var == other.var
            and self.body == other.body
        )

    __hash__ = Formula.__hash__


class Exists(Formula):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: Formula):
        self.var = var
        self.body = body
        self.fv = body.fv - {var}
        self.fvs = tuple(sorted(self.fv))
        self._hash = hash(("exists", var, body))

    def __eq__(self, other):
        return (
            type(other) is Exists
            and self._hash == other._hash
            and self.var == other.var
            and self.body == other.body
        )

    __hash__ = Formula.__hash__


class Sequent:
    """Gamma => Delta with both sides finite *sets* of formulas."""

    __slots__ = ("antecedent", "succedent", "_hash")

    def __init__(self, antecedent: Iterable[Formula] = (), succedent: Iterable[Formula] = ()):
        self.antecedent = frozenset(antecedent)
        self.succedent = frozenset(succedent)
        self._hash = hash(("sequent", self.antecedent, self.succedent))

    def __eq__(self, other):
        return (
            type(other) is Sequent
            and self.antecedent == other.antecedent
            and self.succedent == other.succedent
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return print_sequent(self)

    def __repr__(self) -> str:
        return f"<{print_sequent(self)}>"

    @property
    def formulas(self) -> frozenset:
        return self.antecedent | self.succedent


def free_vars(obj) -> frozenset:
    """Free variables of a formula, or of all formulas in a sequent."""
    if isinstance(obj, Formula):
        return obj.fv
    if isinstance(obj, Sequent):
        fv = frozenset()
        for f in obj.formulas:
            fv = fv | f.fv
        return fv
    raise UsageError(f"expected Formula or Sequent, got {type(obj).__name__}")


def subformulas(f: Formula):
    """Yield every subformula node, outermost first."""
    yield f
    if isinstance(f, Conn):
        for g in f.args:
            yield from subformulas(g)
    elif isinstance(f, (Forall, Exists)):
        yield from subformulas(f.body)


def predicates(obj) -> dict:
    """Map predicate name -> arity over a formula or sequent.

    Raises UsageError if the same name occurs with two arities.
    """
    formulas = [obj] if isinstance(obj, Formula) else sorted(obj.formulas, key=print_formula)
    out: dict = {}
    for f in formulas:
        for g in subformulas(f):
            if isinstance(g, Atom):
                arity = len(g.args)
                if out.setdefault(g.pred, arity) != arity:
                    raise UsageError(
                        f"predicate {g.pred!r} used with arities {out[g.pred]} and {arity}"
                    )
    return out


def connective_names(obj) -> set:
    formulas = [obj] if isinstance(obj, Formula) else list(obj.formulas)
    return {
        g.name for f in formulas for g in subformulas(f) if isinstance(g, Conn)
    }


def is_propositional(f: Formula) -> bool:
    """True iff every atom is 0-ary and no quantifier occurs."""
    if isinstance(f, Atom):
        return not f.args
    if isinstance(f, Conn):
        return all(is_propositional(g) for g in f.args)
    return False


def is_propositional_sequent(s: Sequent) -> bool:
    return all(is_propositional(f) for f in s.formulas)


def substitute_symbol(f: Formula, target: Formula, replacement: Formula) -> Formula:
    """Replace every subformula equal to target, outermost first.

    Both target and replacement must be closed propositional formulas, so
    no variable capture can occur.
    """
    for g in (target, replacement):
        if not is_propositional(g) or g.fv:
            raise UsageError("substitute_symbol needs closed propositional formulas")
    return _substitute(f, target, replacement)


def _substitute(f: Formula, target: Formula, replacement: Formula) -> Formula:
    if f == target:
        return replacement
    if isinstance(f, Conn):
        args = tuple(_substitute(g, target, replacement) for g in f.args)
        return f if args == f.args else Conn(f.name, args)
    if isinstance(f, Forall):
        body = _substitute(f.body, target, replacement)
        return f if body is f.body else Forall(f.var, body)
    if isinstance(f, Exists):
        body = _substitute(f.body, target, replacement)
        return f if body is f.body else Exists(f.var, body)
    return f


def formula_depth(f: Formula) -> int:
    """Nodes on the longest root-to-leaf path; atoms have depth 1."""
    if isinstance(f, Atom):
        return 1
    if isinstance(f, Conn):
        return 1 + max((formula_depth(g) for g in f.args), default=0)
    return 1 + formula_depth(f.body)


# --- concrete syntax ---------------------------------------------------
#
# F ::= ID | ID '(' X (',' X)* ')' | ID '(' F (',' F)* ')'
#     | 'forall' X '.' F | 'exists' X '.' F
#
# An ID names a connective when the signature declares it, otherwise a
# predicate; predicate arguments are individual variables. A sequent is
# 'F, ..., F => F, ..., F' where either side may be empty.

_TOKEN_RE = re.compile(r"\s*(?:(?P<id>[A-Za-z_][A-Za-z0-9_]*)|(?P<arrow>=>)|(?P<punct>[(),.]))")

_KEYWORDS = ("forall", "exists")

# Deepest formula nesting the parser accepts (formula_depth counts the
# same nodes). The printer and the evaluators recurse once or more per
# level, so a bound here keeps them clear of the recursion limit.
MAX_DEPTH = 200


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                at = len(text) - len(stripped)
                raise ParseError(f"unexpected character {stripped[0]!r}", at)
            kind = m.lastgroup
            self.toks.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.toks.append(("eof", "", len(text)))
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.next()
        if text != value:
            shown = text if text else "end of input"
            raise ParseError(f"expected {value!r}, found {shown!r}", pos)
        return pos


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.toks = _Tokens(text)
        self.sig = sig
        self.pred_arity: dict = {}
        self.depth = 0

    def parse_formula(self) -> Formula:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(
                f"formula nested deeper than the limit of {MAX_DEPTH} levels",
                self.toks.peek()[2],
            )
        f = self._formula()
        self.depth -= 1
        return f

    def _formula(self) -> Formula:
        kind, name, pos = self.toks.next()
        if kind != "id":
            shown = name if name else "end of input"
            raise ParseError(f"expected a formula, found {shown!r}", pos)
        if name in _KEYWORDS:
            var = self._variable()
            self.toks.expect(".")
            body = self.parse_formula()
            return Forall(var, body) if name == "forall" else Exists(var, body)
        if self.toks.peek()[1] == "(":
            self.toks.next()
            if name in self.sig:
                args = self._formula_args()
                arity = self.sig.arity(name)
                if len(args) != arity:
                    raise ParseError(
                        f"connective {name!r} has arity {arity}, got {len(args)} arguments",
                        pos,
                    )
                return Conn(name, args)
            variables = self._variable_args()
            return self._atom(name, variables, pos)
        if name in self.sig:
            arity = self.sig.arity(name)
            if arity != 0:
                raise ParseError(
                    f"connective {name!r} has arity {arity}, got 0 arguments", pos
                )
            return Conn(name, ())
        return self._atom(name, (), pos)

    def parse_sequent(self) -> Sequent:
        antecedent = self._formula_list(stop="=>")
        self.toks.expect("=>")
        succedent = self._formula_list(stop=None)
        return Sequent(antecedent, succedent)

    def finish(self):
        kind, text, pos = self.toks.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {text!r}", pos)

    def _atom(self, name: str, variables: tuple, pos: int) -> Atom:
        arity = len(variables)
        if self.pred_arity.setdefault(name, arity) != arity:
            raise ParseError(
                f"predicate {name!r} used with arities {self.pred_arity[name]} and {arity}",
                pos,
            )
        return Atom(name, variables)

    def _variable(self) -> str:
        kind, name, pos = self.toks.next()
        if kind != "id" or name in _KEYWORDS:
            raise ParseError("expected a variable", pos)
        if name in self.sig:
            raise ParseError(f"connective {name!r} cannot be used as a variable", pos)
        return name

    def _variable_args(self) -> tuple:
        out = [self._variable()]
        while self.toks.peek()[1] == ",":
            self.toks.next()
            out.append(self._variable())
        self.toks.expect(")")
        return tuple(out)

    def _formula_args(self) -> tuple:
        out = [self.parse_formula()]
        while self.toks.peek()[1] == ",":
            self.toks.next()
            out.append(self.parse_formula())
        self.toks.expect(")")
        return tuple(out)

    def _formula_list(self, stop: Optional[str]) -> list:
        out: list = []
        kind, text, _ = self.toks.peek()
        if kind == "eof" or text == stop:
            return out
        out.append(self.parse_formula())
        while self.toks.peek()[1] == ",":
            self.toks.next()
            out.append(self.parse_formula())
        return out


def parse_formula(text: str, sig: Signature) -> Formula:
    parser = _Parser(text, sig)
    f = parser.parse_formula()
    parser.finish()
    return f


def parse_sequent(text: str, sig: Signature) -> Sequent:
    parser = _Parser(text, sig)
    s = parser.parse_sequent()
    parser.finish()
    return s


def print_formula(f: Formula) -> str:
    if isinstance(f, Atom):
        if not f.args:
            return f.pred
        return f"{f.pred}({', '.join(f.args)})"
    if isinstance(f, Conn):
        if not f.args:
            return f.name
        return f"{f.name}({', '.join(print_formula(g) for g in f.args)})"
    if isinstance(f, Forall):
        return f"forall {f.var}. {print_formula(f.body)}"
    if isinstance(f, Exists):
        return f"exists {f.var}. {print_formula(f.body)}"
    raise UsageError(f"not a formula: {f!r}")


def print_sequent(s: Sequent) -> str:
    # sides are sets; print in sorted text order for a stable rendering
    left = ", ".join(sorted(print_formula(f) for f in s.antecedent))
    right = ", ".join(sorted(print_formula(f) for f in s.succedent))
    return f"{left} => {right}".strip()
