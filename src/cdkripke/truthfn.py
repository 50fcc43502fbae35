"""Truth vectors, truth tables, and monotonicity analysis.

Truth vectors are plain tuples over {0, 1} ordered pointwise: a <= b iff
a[i] <= b[i] for every i. A ``TruthTable`` stores the full output column
of an n-ary boolean function. Row encoding is fixed for interchange:
row i holds the value on the argument tuple whose binary encoding, with
the *first* argument as the most significant bit, equals i. So for a
binary table the rows are (0,0), (0,1), (1,0), (1,1) in that order, and
NAND is the bit string "1110".
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ParseError, UsageError

TruthVector = tuple


def zeros(n: int) -> TruthVector:
    return (0,) * n


def ones(n: int) -> TruthVector:
    return (1,) * n


def leq_vec(a: TruthVector, b: TruthVector) -> bool:
    """Pointwise order on truth vectors of equal length."""
    if len(a) != len(b):
        raise UsageError(f"length mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def invert(a: TruthVector) -> TruthVector:
    """Componentwise complement."""
    return tuple(1 - x for x in a)


def relative_invert(a: TruthVector, b: TruthVector) -> TruthVector:
    """The vector that is 0 exactly where a is 0 and b is 1.

    Defined only for a <= b. Components where a[i] = 1 or b[i] = 0 are 1.
    The result always lies above a.
    """
    if not leq_vec(a, b):
        raise UsageError(f"relative_invert requires a <= b, got {a} and {b}")
    return tuple(0 if (x == 0 and y == 1) else 1 for x, y in zip(a, b))


def vector_index(args: Sequence[int]) -> int:
    """Row index of an argument tuple (first argument most significant)."""
    i = 0
    for x in args:
        i = (i << 1) | x
    return i


def index_vector(i: int, n: int) -> TruthVector:
    """Inverse of vector_index for vectors of length n."""
    return tuple((i >> (n - 1 - k)) & 1 for k in range(n))


@dataclass(frozen=True)
class TruthTable:
    """A named connective: arity n plus all 2**n output bits in row order."""

    name: str
    arity: int
    outputs: tuple

    def __post_init__(self):
        if self.arity < 0:
            raise UsageError(f"arity must be >= 0, got {self.arity}")
        if len(self.outputs) != 2 ** self.arity:
            raise UsageError(
                f"table {self.name!r}: expected {2 ** self.arity} output rows "
                f"for arity {self.arity}, got {len(self.outputs)}"
            )
        for x in self.outputs:
            if x not in (0, 1):
                raise UsageError(f"table {self.name!r}: outputs must be 0/1")

    @classmethod
    def from_bits(cls, name: str, arity: int, bits: str) -> TruthTable:
        return cls(name, arity, tuple(int(ch) for ch in bits))

    def bits(self) -> str:
        return "".join(str(x) for x in self.outputs)

    def value(self, args: Sequence[int]) -> int:
        return self.outputs[vector_index(args)]

    @functools.cached_property
    def lane_terms(self) -> tuple:
        """(conjunctive, terms), one term per row of the shorter of the
        1-rows and the 0-rows (the 1-rows on a tie), in row order; a term
        is (the argument indices at 1, the argument indices at 0). The
        table is the OR of the 1-row terms, each the AND of the arguments
        at 1 and the complements of those at 0; or, conjunctive, the AND
        of the 0-row terms, each the OR of the arguments at 0 and the
        complements of those at 1."""
        rows = tuple(zip(_row_terms(self.arity), self.outputs))
        terms = tuple(term for term, out in rows if out)
        conjunctive = len(terms) << 1 > len(rows)
        if conjunctive:
            terms = tuple(term for term, out in rows if not out)
        return conjunctive, terms


@functools.lru_cache(maxsize=None)
def _row_terms(arity: int) -> tuple:
    """(the argument indices at 1, the argument indices at 0) per row of
    a table of the arity, in row order."""
    return tuple((tuple(i for i, bit in enumerate(row) if bit),
                  tuple(i for i, bit in enumerate(row) if not bit))
                 for row in itertools.product((0, 1), repeat=arity))


def eval_table(table: TruthTable, args: Sequence[int]) -> int:
    """Row lookup; rejects argument tuples of the wrong length."""
    if len(args) != table.arity:
        raise UsageError(
            f"table {table.name!r} has arity {table.arity}, got {len(args)} arguments"
        )
    return table.value(args)


def monotonicity_witness(table: TruthTable) -> Optional[tuple]:
    """None iff the table preserves the pointwise order.

    Otherwise returns the first pair (a, b) with a <= b, f(a) = 1, f(b) = 0,
    smallest in lexicographic order of (row index of a, row index of b).
    """
    outputs = table.outputs
    zero_rows = [j for j, out in enumerate(outputs) if not out]
    for i, out in enumerate(outputs):
        if out:
            for j in zero_rows:
                # a <= b iff every bit of a's row index is set in b's
                if not i & ~j:
                    return index_vector(i, table.arity), index_vector(j, table.arity)
    return None


def classify_case(table: TruthTable) -> str:
    """Case label from the pair (f(all-zeros), f(all-ones)).

    (0,0) -> "a", (0,1) -> "b", (1,0) -> "c", (1,1) -> "d".
    """
    lo = table.outputs[0]
    hi = table.outputs[-1]
    return {(0, 0): "a", (0, 1): "b", (1, 0): "c", (1, 1): "d"}[(lo, hi)]


@dataclass(frozen=True)
class Signature:
    """A finite set of connectives, keyed by name."""

    connectives: Mapping[str, TruthTable]

    def __post_init__(self):
        for name, table in self.connectives.items():
            if name != table.name:
                raise UsageError(f"signature key {name!r} != table name {table.name!r}")

    @classmethod
    def of(cls, *tables: TruthTable) -> Signature:
        seen = {}
        for t in tables:
            if t.name in seen:
                raise UsageError(f"duplicate connective {t.name!r}")
            seen[t.name] = t
        return cls(seen)

    def __contains__(self, name: str) -> bool:
        return name in self.connectives

    def table(self, name: str) -> TruthTable:
        try:
            return self.connectives[name]
        except KeyError:
            raise UsageError(f"unknown connective {name!r}") from None

    def arity(self, name: str) -> int:
        return self.table(name).arity

    def names(self):
        return sorted(self.connectives)


STANDARD_BITS = {
    "and": (2, "0001"),
    "or": (2, "0111"),
    "implies": (2, "1101"),
    "iff": (2, "1001"),
    "nand": (2, "1110"),
    "nor": (2, "1000"),
    "xor": (2, "0110"),
    "not": (1, "10"),
    "top": (0, "1"),
    "bot": (0, "0"),
}


def standard_table(name: str) -> TruthTable:
    arity, bits = STANDARD_BITS[name]
    return TruthTable.from_bits(name, arity, bits)


def standard_signature(*names: str) -> Signature:
    if not names:
        names = tuple(STANDARD_BITS)
    return Signature.of(*(standard_table(n) for n in names))


def parse_signature(text: str) -> Signature:
    """Parse the line-oriented signature format.

    Each non-comment line reads ``conn NAME ARITY BITS`` where BITS is
    exactly 2**ARITY characters of 0/1 in row order. Lines starting with
    '#' and blank lines are ignored.
    """
    tables = []
    offset = 0
    for raw_line in text.splitlines(keepends=True):
        line = raw_line.strip()
        if line and not line.startswith("#"):
            parts = line.split()
            if parts[0] != "conn" or len(parts) != 4:
                raise ParseError(f"expected 'conn NAME ARITY BITS', got {line!r}", offset)
            _, name, arity_s, bits = parts
            try:
                arity = int(arity_s)
            except ValueError:
                raise ParseError(f"bad arity {arity_s!r}", offset) from None
            if not 0 <= arity < 64:  # no BITS string has 2**64 characters
                raise ParseError(f"bad arity {arity_s}", offset)
            if len(bits) != 2 ** arity or any(ch not in "01" for ch in bits):
                raise ParseError(
                    f"BITS for {name!r} must be {2 ** arity} characters of 0/1", offset
                )
            tables.append(TruthTable.from_bits(name, arity, bits))
        offset += len(raw_line)
    names = [t.name for t in tables]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise ParseError(f"duplicate connective {dup!r}", 0)
    return Signature.of(*tables)


def signature_text(sig: Signature) -> str:
    lines = [f"conn {t.name} {t.arity} {t.bits()}" for t in
             (sig.connectives[n] for n in sig.names())]
    return "\n".join(lines) + "\n"


def load_signature(path) -> Signature:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_signature(fh.read())


def all_tables(arity: int) -> Iterable[TruthTable]:
    """All 2**(2**arity) truth tables of the given arity, named c, in
    output order."""
    for bits in itertools.product((0, 1), repeat=2 ** arity):
        yield TruthTable("c", arity, bits)
