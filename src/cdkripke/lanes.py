"""Bit-parallel evaluation over (interpretation, world) lanes.

A formula's value under one assignment is a pair of Python-int bitsets
``(kripke, classical)``: bit ``world_index * M + interp_index`` holds its
value at that world of the interp_index-th of M constant-domain models
sharing one frame and one domain. The classical side is the value in the
world's projection. Both sides read the same atomic masks; a connective
applies its truth table lane by lane, as the OR over the table's 1-rows
of the ANDed argument masks, complemented where the row bit is 0. The
Kripke side of a connective or of a universal is then boxed: its block
at world i is the AND of the blocks at every world above i. Existentials
are the OR over the domain on both sides.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import UsageError
from .syntax import Atom, Conn, Exists, Forall, Formula
from .truthfn import Signature

if TYPE_CHECKING:  # kripke imports this module
    from .kripke import CdBatch, KripkeModel


class Lanes:
    """Memoized lane evaluation of formulas on M models of one frame.

    ``future`` lists, for each world index, the indices of the worlds
    above it; ``atoms`` maps (predicate, argument tuple) to its lane mask,
    absent atoms reading 0; ``full`` has every lane set. The memo is keyed
    by formula structure and the assignment restricted to the formula's
    free variables; call clear() when the models are done with.
    """

    def __init__(
        self,
        sig: Signature,
        future: Sequence[tuple],
        width: int,
        domain: tuple,
        atoms: Mapping,
    ):
        self.width = width
        self.domain = domain
        self._future = tuple(future)
        self._block = (1 << width) - 1
        self.full = (1 << (width * len(self._future))) - 1
        self._boxed = any(fut != (i,) for i, fut in enumerate(self._future))
        self._atoms = atoms
        self._rows = {name: table.true_rows for name, table in sig.connectives.items()}
        self._memo: dict = {}

    @classmethod
    def for_model(cls, model: KripkeModel, sig: Signature) -> Lanes:
        """One constant-domain model: M = 1, so lane i is world i."""
        windex = {w: i for i, w in enumerate(model.worlds)}
        atoms: dict = {}
        for (w, pred, args), value in model.interp.items():
            if value:
                atoms[(pred, args)] = atoms.get((pred, args), 0) | (1 << windex[w])
        future = [tuple(windex[v] for v in model.future[w]) for w in model.worlds]
        return cls(sig, future, 1, model.domains[model.worlds[0]], atoms)

    @classmethod
    def for_batch(cls, batch: CdBatch, sig: Signature) -> Lanes:
        """Every interpretation of a CdBatch, interp_index in the batch's
        model order."""
        worlds, vectors, width = batch.worlds, batch.vectors, batch.width
        nvec, nslots = len(vectors), len(batch.slots)
        atoms = {}
        for s, slot in enumerate(batch.slots):
            # slot s holds vector v on a run of `stride` consecutive
            # models; the runs cycle through the vectors every `period`
            stride = nvec ** (nslots - 1 - s)
            period = stride * nvec
            repeat = ((1 << width) - 1) // ((1 << period) - 1)
            run = (1 << stride) - 1
            mask = 0
            for j in range(len(worlds)):
                block = 0
                for v, vec in enumerate(vectors):
                    if vec[j]:
                        block |= run << (v * stride)
                mask |= (block * repeat) << (j * width)
            atoms[slot] = mask
        windex = {w: i for i, w in enumerate(worlds)}
        future = [tuple(windex[v] for v in batch.future[w]) for w in worlds]
        return cls(sig, future, width, batch.domain, atoms)

    def clear(self):
        self._memo.clear()

    def box(self, x: int) -> int:
        """At each world, the AND of x's blocks at every world above it."""
        if not self._boxed:
            return x
        width, block = self.width, self._block
        blocks = [(x >> (j * width)) & block for j in range(len(self._future))]
        out = 0
        for i, fut in enumerate(self._future):
            b = block
            for j in fut:
                b &= blocks[j]
            out |= b << (i * width)
        return out

    def _table(self, name: str, masks: Sequence[int]) -> int:
        rows = self._rows.get(name)
        if rows is None:
            raise UsageError(f"unknown connective {name!r}")
        full = self.full
        out = 0
        for bits in rows:
            term = full
            for bit, mask in zip(bits, masks):
                term &= mask if bit else full ^ mask
            out |= term
        return out

    def value(self, f: Formula, rho: Mapping) -> tuple:
        """(kripke, classical) masks of f under the assignment rho."""
        fvs = f.fvs
        if not fvs:
            key = f
        elif len(fvs) == 1:
            key = (f, rho[fvs[0]])
        else:
            key = (f, tuple(rho[x] for x in fvs))
        memo = self._memo
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(f, Atom):
            mask = self._atoms.get((f.pred, tuple(rho[x] for x in f.args)), 0)
            result = (mask, mask)
        elif isinstance(f, Conn):
            pairs = [self.value(g, rho) for g in f.args]
            result = (
                self.box(self._table(f.name, [k for k, _ in pairs])),
                self._table(f.name, [c for _, c in pairs]),
            )
        elif isinstance(f, Forall):
            k = c = self.full
            for a in self.domain:
                bk, bc = self.value(f.body, {**rho, f.var: a})
                k &= bk
                c &= bc
            boxed = self.box(k)
            assert boxed == k, (
                f"universal clause mismatch: future-worlds {boxed:b}, "
                f"present-world {k:b} for {f}"
            )
            result = (boxed, c)
        elif isinstance(f, Exists):
            k = c = 0
            for a in self.domain:
                bk, bc = self.value(f.body, {**rho, f.var: a})
                k |= bk
                c |= bc
            result = (k, c)
        else:
            raise UsageError(f"not a formula: {f!r}")
        memo[key] = result
        return result
