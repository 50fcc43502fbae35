"""Reference semantics and input generators, independent of cdkripke.

The benchmark generates its inputs here and checks the program's answers
against the small, slow evaluators here. Nothing in this module imports
the program, so a change to the program can change neither the inputs
nor the known answers.

Formulas are plain tuples:

    ("atom", pred, args)      args is a tuple of variable names
    ("conn", name, args)      args is a tuple of formulas
    ("forall", var, body)
    ("exists", var, body)

A table maps a connective name to its output column as a tuple of bits,
row i holding the value on the argument tuple whose binary encoding,
first argument most significant, equals i (the README's row order).
"""

from __future__ import annotations

import itertools
import re

BITS = {
    "and": "0001",
    "or": "0111",
    "implies": "1101",
    "nand": "1110",
    "xor": "0110",
    "not": "10",
}


def tables_of(*names):
    return {n: tuple(int(ch) for ch in BITS[n]) for n in names}


MONO = tables_of("and", "or")
MIXED = tables_of("and", "or", "implies", "nand", "xor", "not")


def arity(column) -> int:
    return len(column).bit_length() - 1


def signature_text(tables) -> str:
    return "".join(
        f"conn {n} {arity(col)} {''.join(map(str, col))}\n" for n, col in sorted(tables.items())
    )


# --- generators --------------------------------------------------------------
#
# These replay the random draws of the criterion-7 corpus generator
# (random_formula / random_propositional_sequent in cdkripke.suites), so the
# same seed gives the same sequents as that generator at the commit that
# defined the benchmark.

PROP_ATOMS = (("atom", "p", ()), ("atom", "q", ()), ("atom", "r", ()))
FO_ATOMS = (("atom", "p", ()), ("atom", "q", ()), ("atom", "P", ("x",)))


def random_formula(rng, tables, depth, atoms, quantifiers):
    if depth <= 1 or rng.random() < 0.25:
        return rng.choice(atoms)
    kinds = ["conn"] * 4 + (["forall", "exists"] if quantifiers else [])
    kind = rng.choice(kinds)
    if kind == "conn":
        name = rng.choice(sorted(tables))
        args = tuple(
            random_formula(rng, tables, depth - 1, atoms, quantifiers)
            for _ in range(arity(tables[name]))
        )
        return ("conn", name, args)
    return (kind, "x", random_formula(rng, tables, depth - 1, atoms, quantifiers))


def random_sequent(rng, tables, atoms, quantifiers):
    """The generator's defaults: formula depth up to 3, at most two
    formulas a side."""
    def formula():
        return random_formula(rng, tables, rng.randint(1, 3), atoms, quantifiers)

    antecedent = [formula() for _ in range(rng.randint(0, 2))]
    succedent = [formula() for _ in range(rng.randint(1, 2))]
    return frozenset(antecedent), frozenset(succedent)


# --- concrete syntax ---------------------------------------------------------


def show(f) -> str:
    kind = f[0]
    if kind == "atom":
        return f[1] if not f[2] else f"{f[1]}({', '.join(f[2])})"
    if kind == "conn":
        return f[1] if not f[2] else f"{f[1]}({', '.join(show(g) for g in f[2])})"
    return f"{kind} {f[1]}. {show(f[2])}"


def show_sequent(seq) -> str:
    left, right = (", ".join(sorted(show(f) for f in side)) for side in seq)
    return f"{left} => {right}".strip()


_TOKEN = re.compile(r"\s*(=>|[A-Za-z_][A-Za-z0-9_]*|[(),.])")


def parse_sequent(text: str, tables):
    """Parse the program's printed sequent syntax into tuples."""
    toks = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot tokenize {text[pos:]!r}")
        toks.append(m.group(1))
        pos = m.end()
    toks.append(None)
    i = 0

    def formula():
        nonlocal i
        name = toks[i]
        i += 1
        if name in ("forall", "exists"):
            var = toks[i]
            if toks[i + 1] != ".":
                raise ValueError(f"expected '.' after {name} {var}")
            i += 2
            return (name, var, formula())
        args = []
        if toks[i] == "(":
            i += 1
            while True:
                if name in tables:
                    args.append(formula())
                else:
                    args.append(toks[i])
                    i += 1
                if toks[i] == ")":
                    i += 1
                    break
                if toks[i] != ",":
                    raise ValueError(f"expected ',' or ')' in {text!r}")
                i += 1
        return ("conn" if name in tables else "atom", name, tuple(args))

    def side(stop):
        nonlocal i
        out = []
        if toks[i] == stop:
            return out
        out.append(formula())
        while toks[i] == ",":
            i += 1
            out.append(formula())
        return out

    left = side("=>")
    if toks[i] != "=>":
        raise ValueError(f"expected '=>' in {text!r}")
    i += 1
    right = side(None)
    if toks[i] is not None:
        raise ValueError(f"trailing input in {text!r}")
    return frozenset(left), frozenset(right)


# --- structure ---------------------------------------------------------------


def free_vars(f) -> frozenset:
    kind = f[0]
    if kind == "atom":
        return frozenset(f[2])
    if kind == "conn":
        return frozenset().union(*(free_vars(g) for g in f[2]))
    return free_vars(f[2]) - {f[1]}


def predicates(f, out=None) -> dict:
    out = {} if out is None else out
    if f[0] == "atom":
        out[f[1]] = len(f[2])
    elif f[0] == "conn":
        for g in f[2]:
            predicates(g, out)
    else:
        predicates(f[2], out)
    return out


def sequent_predicates(seq) -> dict:
    out: dict = {}
    for f in seq[0] | seq[1]:
        predicates(f, out)
    return out


def sequent_free_vars(seq) -> list:
    return sorted(frozenset().union(*(free_vars(f) for f in seq[0] | seq[1])))


def is_monotone(column) -> bool:
    """f(a) <= f(b) whenever a <= b pointwise (as bit masks: a & ~b == 0)."""
    n = len(column)
    return all(
        column[a] <= column[b] for a in range(n) for b in range(n) if a & ~b == 0
    )


# --- classical semantics -----------------------------------------------------


def cval(f, tables, domain, true_atoms, rho) -> int:
    kind = f[0]
    if kind == "atom":
        return int((f[1], tuple(rho[x] for x in f[2])) in true_atoms)
    if kind == "conn":
        idx = 0
        for g in f[2]:
            idx = (idx << 1) | cval(g, tables, domain, true_atoms, rho)
        return tables[f[1]][idx]
    values = (cval(f[2], tables, domain, true_atoms, {**rho, f[1]: a}) for a in domain)
    return int(all(values)) if kind == "forall" else int(any(values))


def classically_refutes(seq, tables, domain, true_atoms, rho) -> bool:
    left, right = seq
    return all(cval(f, tables, domain, true_atoms, rho) for f in left) and not any(
        cval(f, tables, domain, true_atoms, rho) for f in right
    )


def slots(preds: dict, domain) -> list:
    """Predicates sorted by name, argument tuples lexicographic over the
    domain: the README's interpretation order."""
    return [
        (p, args) for p in sorted(preds) for args in itertools.product(domain, repeat=preds[p])
    ]


def first_classical_countermodel(seq, tables, max_domain):
    """The first (domain, true atoms, assignment) refuting seq in the
    README's order (domain size, interpretation bits, assignment), or None."""
    preds = sequent_predicates(seq)
    fv = sequent_free_vars(seq)
    for size in range(1, max_domain + 1):
        domain = tuple(f"a{i + 1}" for i in range(size))
        cells = slots(preds, domain)
        for bits in itertools.product((0, 1), repeat=len(cells)):
            true_atoms = frozenset(c for c, b in zip(cells, bits) if b)
            for values in itertools.product(domain, repeat=len(fv)):
                rho = dict(zip(fv, values))
                if classically_refutes(seq, tables, domain, true_atoms, rho):
                    return domain, true_atoms, rho
    return None


# --- Kripke semantics --------------------------------------------------------


class KripkeModel:
    """A Kripke model read from the program's JSON model format."""

    def __init__(self, obj: dict):
        self.worlds = list(obj["worlds"])
        if "domain" in obj:
            self.domains = {w: tuple(obj["domain"]) for w in self.worlds}
        else:
            self.domains = {w: tuple(d) for w, d in obj["domains"].items()}
        reach = {w: {w} for w in self.worlds}
        for w, v in obj.get("order", []):
            reach[w].add(v)
        changed = True
        while changed:
            changed = False
            for w in self.worlds:
                closure = set().union(*(reach[v] for v in reach[w]))
                if closure != reach[w]:
                    reach[w] = closure
                    changed = True
        self.up = {w: [v for v in self.worlds if v in reach[w]] for w in self.worlds}
        self.true_atoms = frozenset(
            (e["world"], e["pred"], tuple(e["args"])) for e in obj.get("interp", []) if e["value"]
        )

    def value(self, f, w, tables, rho) -> int:
        kind = f[0]
        if kind == "atom":
            return int((w, f[1], tuple(rho[x] for x in f[2])) in self.true_atoms)
        if kind == "conn":
            column = tables[f[1]]
            for v in self.up[w]:
                idx = 0
                for g in f[2]:
                    idx = (idx << 1) | self.value(g, v, tables, rho)
                if not column[idx]:
                    return 0
            return 1
        if kind == "forall":
            return int(
                all(
                    self.value(f[2], v, tables, {**rho, f[1]: a})
                    for v in self.up[w]
                    for a in self.domains[v]
                )
            )
        return int(any(self.value(f[2], w, tables, {**rho, f[1]: a}) for a in self.domains[w]))

    def refutes(self, seq, w, tables, rho) -> bool:
        left, right = seq
        return all(self.value(f, w, tables, rho) for f in left) and not any(
            self.value(f, w, tables, rho) for f in right
        )


# --- small frames --------------------------------------------------------------


def preorders(n: int) -> set:
    """Every preorder on n labelled points, as a tuple of row tuples."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = set()
    for picks in itertools.product((False, True), repeat=len(pairs)):
        reach = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), on in zip(pairs, picks):
            reach[i][j] = reach[i][j] or on
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
        out.add(tuple(tuple(row) for row in reach))
    return out


def count_cd_models_up_to_iso(preds: dict, max_worlds: int, max_domain: int) -> int:
    """Constant-domain models with one frame per isomorphism class and
    every hereditary interpretation: the sweep's known model count."""
    total = 0
    for n in range(1, max_worlds + 1):
        classes = {
            min(
                tuple(tuple(m[p[i]][p[j]] for j in range(n)) for i in range(n))
                for p in itertools.permutations(range(n))
            )
            for m in preorders(n)
        }
        for m in classes:
            vectors = sum(
                1
                for bits in itertools.product((0, 1), repeat=n)
                if all(bits[i] <= bits[j] for i in range(n) for j in range(n) if m[i][j])
            )
            for size in range(1, max_domain + 1):
                total += vectors ** len(slots(preds, range(size)))
    return total
