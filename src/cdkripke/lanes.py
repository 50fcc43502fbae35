"""Bit-parallel evaluation over (interpretation, world) lanes.

A formula's value under one assignment is a pair of Python-int bitsets
``(kripke, classical)``, one bit per (model, world) lane. The models lie
in segments, one per run of consecutive models on one frame, and the
models of a segment may have a different world count n from those of
the next: bit ``start + model_index * n + world_index`` holds the value
at that world of the model_index-th model of the segment whose first
lane is start. This module alone knows that layout: Lanes takes the
segments as (future, models) pairs, Lanes.locate maps a lane back to
its segment, model and world, and Lanes.segment reads a segment's bits.
Lanes.for_models lays out KripkeModels, a segment each, and
Lanes.for_batches the interpretations of CdBatches, a segment per
batch. The classical side is the value in the world's projection.
Both sides read the same atomic masks; a connective applies its truth
table lane by lane, through the terms compiled once per table
(TruthTable.lane_terms). The Kripke side of a
connective or of a universal is then boxed: its bit at world i of a
model is the AND of its bits at every world above i in that model's
frame. World j lies d = j - i places above world i in the mask, so
boxing is one shift-and-mask step per offset d that some frame's order
spans, at most 2(n - 1) of them for the largest n however many frames
and world counts share the mask. Existentials are the OR over the domain on both sides. Where no
world sees another (one world: classical models) boxing is the
identity, the two sides are equal and each connective's table is
applied once.

An element that does not exist on every lane has an existence mask E_a:
``forall x. phi`` is ``box(AND_a (phi_a | ~E_a))`` and ``exists x. phi``
is ``OR_a (phi_a & E_a)``. A value is meaningful only on the lanes where
every value of the assignment exists; no clause reads the other lanes'
bits there. One model's growing domains have such masks, and so has a
lane set of models or batches whose domains differ: its domain holds
every element, and each element exists on the lanes whose domain
holds it. Where each model's domain is constant, every Kripke
value is hereditary on every lane, and each universal may be
cross-checked against its present-world reading.
"""

from __future__ import annotations

import bisect
import functools
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .errors import UsageError
from .syntax import Atom, Conn, Exists, Forall, Formula
from .truthfn import Signature

if TYPE_CHECKING:  # kripke imports this module
    from .kripke import CdBatch, KripkeModel


class Lanes:
    """Memoized lane evaluation of formulas on the models of ``frames``.

    ``frames`` lists (future, models) per segment, a run of consecutive
    models on one frame, in lane order: future lists, for each world
    index, the indices of the worlds above it, and the segment takes
    models * n lanes, n its frame's world count. ``width`` is the number
    of models in all; locate maps a lane back to its segment, model and
    world, and segment(mask, index) gives mask's bits on one segment.
    ``atoms`` maps (predicate, argument tuple) to its lane mask, absent
    atoms reading 0; ``full`` has every lane set. ``exists`` maps each
    element of ``domain`` to the lanes where it exists, or is None when
    every element exists everywhere. ``cross_check`` asserts that each
    universal equals its present-world reading, which relies on heredity
    and so on each model's domain being constant: it starts on when
    exists is None, and for_models and for_batches turn it on where
    every model's domain is constant. One model's lanes are
    for_models((model,), sig): lane i is world i of the model; a
    CdBatch's are for_batches([batch], sig), from masks it keeps. The
    memo is keyed by formula structure and the assignment restricted to the
    formula's free variables, and is freed with the lane set.
    """

    def __init__(self, sig: Signature, frames: Sequence[tuple], domain: tuple,
                 atoms: Mapping, exists: Optional[Mapping] = None):
        self.domain = domain
        self.exists = exists
        self.cross_check = exists is None
        self._lanes, self.width, seen, self._starts, self._worlds = _box_offsets(frames)
        self.full = (1 << self._lanes) - 1
        self._steps = [(d, self.full ^ mask) for d, mask in seen.items()]
        self._boxed = bool(self._steps)
        self._atoms = atoms
        self._tables = sig.connectives
        self._memo: dict = {}

    @classmethod
    def for_models(cls, models: Sequence[KripkeModel], sig: Signature) -> Lanes:
        """The models one after another, each a segment of its own, in
        the given order: lane start + i is world i of the model whose
        segment starts at start, and segment(mask, k) reads the k-th
        model's bits. The domain is every element of every model, and
        an element exists on the lanes of the worlds whose domain holds
        it: unless every model has the same constant domain, in the same
        order, each element gets an existence mask, the elements in
        order of first appearance. The universals are cross-checked when
        every model's domain is constant."""
        first = models[0]
        domain = first.domains[first.worlds[0]] if first.constant_domain else None
        exists = None if domain is not None else {}
        for model in models:
            if exists is None and not (model.constant_domain
                                       and model.domains[model.worlds[0]] == domain):
                exists = {}
        frames, atoms = [], {}
        start = 0
        for model in models:
            worlds, future = model.worlds, model.future
            windex = {w: i for i, w in enumerate(worlds)}
            for (w, pred, args), value in model.interp.items():
                if value and w in windex:
                    key = pred, args
                    atoms[key] = atoms.get(key, 0) | 1 << start + windex[w]
            frames.append((tuple([tuple([windex[v] for v in future[w]]) for w in worlds]), 1))
            if exists is not None:
                domains = model.domains
                for i, w in enumerate(worlds):
                    for a in domains[w]:
                        exists[a] = exists.get(a, 0) | 1 << start + i
            start += len(worlds)
        if exists is None:
            return cls(sig, frames, domain, atoms)
        lanes = cls(sig, frames, tuple(exists), atoms, exists)
        lanes.cross_check = all(model.constant_domain for model in models)
        return lanes

    @classmethod
    def for_batches(cls, batches: Sequence[CdBatch], sig: Signature) -> Lanes:
        """Every interpretation of CdBatches, of one world count or of
        several: each batch a segment of its models, in the batch's model
        order, the batches one after another. The domain is the largest
        batch domain, which holds the others. A model's domain is
        constant, so the universals are cross-checked. The atom masks
        and the future lists of a batch are kept on it, so Lanes of a
        batch built again, for another signature say, reuse them."""
        domain = max((batch.domain for batch in batches), key=len)
        exists = None
        if any(len(batch.domain) < len(domain) for batch in batches):
            exists = dict.fromkeys(domain, 0)
        frames = []
        for batch in batches:
            if batch.lane_masks is None:
                batch.lane_masks = cls._batch_masks(batch)
            frames.append((batch.lane_masks[0], batch.width))
        atoms: dict = {}
        lanes = cls(sig, frames, domain, atoms, exists)
        lanes.cross_check = True
        # each batch's masks count its models from 0: shift them to the
        # segment's first lane
        for batch, start in zip(batches, lanes._starts):
            masks = batch.lane_masks[1]
            if not start:
                atoms.update(masks)
            else:
                for slot, mask in masks.items():
                    atoms[slot] = atoms.get(slot, 0) | mask << start
            if exists is not None:
                models = ((1 << batch.width * len(batch.worlds)) - 1) << start
                for a in batch.domain:
                    exists[a] |= models
        return lanes

    @staticmethod
    def _batch_masks(batch: CdBatch) -> tuple:
        """(future, atoms) of one batch on its own, models from 0; neither
        is mutated later."""
        worlds, width = batch.worlds, batch.width
        n = len(worlds)
        atoms = {}
        stride = width
        for slot, choice in zip(batch.slots, batch.choices):
            # the slot holds its v-th vector on a run of `stride`
            # consecutive models; the runs cycle through its vectors
            # every `period`
            period, stride = stride, stride // len(choice)
            run = _spread(stride, n)
            block = 0
            for v, vec in enumerate(choice):
                block |= _bits(vec) * run << v * stride * n
            atoms[slot] = block * _spread(width // period, period * n)
        windex = {w: i for i, w in enumerate(worlds)}
        return tuple(tuple(windex[v] for v in batch.future[w]) for w in worlds), atoms

    def segment(self, mask: int, index: int) -> int:
        """mask's bits on the index-th segment of frames, its first lane
        at bit 0."""
        start = self._starts[index]
        end = self._starts[index + 1] if index + 1 < len(self._starts) else self._lanes
        return mask >> start & (1 << end - start) - 1

    def locate(self, lane: int) -> tuple:
        """(segment, model, world) that a lane holds: the index of its
        segment in frames, of its model in the segment and of its world
        in the model's frame."""
        at = bisect.bisect_right(self._starts, lane) - 1
        return (at, *divmod(lane - self._starts[at], self._worlds[at]))

    def box(self, x: int) -> int:
        """At each world of each model, the AND of x's bits at every
        world above it."""
        out = x
        for d, free in self._steps:
            out &= (x >> d if d > 0 else x << -d) | free
        return out

    def alive(self, rho: Mapping, variables) -> int:
        """The lanes where every value rho gives the variables exists: no
        lane for a value outside the domain."""
        exists = self.exists
        if exists is None:
            domain = self.domain
            return self.full if all(rho[x] in domain for x in variables) else 0
        mask = self.full
        for x in variables:
            mask &= exists.get(rho[x], 0)
        return mask

    def _table(self, name: str, masks: Sequence[int]) -> int:
        table = self._tables.get(name)
        if table is None:
            raise UsageError(f"unknown connective {name!r}")
        conjunctive, terms = table.lane_terms
        full = self.full
        if conjunctive:
            out = full
            for ones, zeros in terms:
                clause = 0
                for i in zeros:
                    clause |= masks[i]
                for i in ones:
                    clause |= full ^ masks[i]
                out &= clause
            return out
        out = 0
        for ones, zeros in terms:
            term = full
            for i in ones:
                term &= masks[i]
            for i in zeros:
                term &= full ^ masks[i]
            out |= term
        return out

    def mask(self, f: Formula) -> int:
        """The Kripke mask of the closed formula f."""
        cached = self._memo.get(f)
        return (self.value(f, {}) if cached is None else cached)[0]

    def value(self, f: Formula, rho: Mapping) -> tuple:
        """(kripke, classical) masks of f under the assignment rho."""
        fvs = f.fvs
        key = f if not fvs else (f, rho[fvs[0]]) if len(fvs) == 1 else (
            f, tuple(rho[x] for x in fvs))
        cached = self._memo.get(key)
        if cached is None:
            cached = self._memo[key] = self._eval(f, rho)
        return cached

    def _eval(self, f: Formula, rho: Mapping) -> tuple:
        """value(f, rho) on a memo miss."""
        if isinstance(f, Conn):
            # each argument is read from the memo here, and evaluated
            # and stored on a miss, so that its key is built once
            memo, ks, cs = self._memo, [], []
            for g in f.args:
                fvs = g.fvs
                key = g if not fvs else (g, rho[fvs[0]]) if len(fvs) == 1 else (
                    g, tuple(rho[x] for x in fvs))
                pair = memo.get(key)
                if pair is None:
                    pair = memo[key] = self._eval(g, rho)
                ks.append(pair[0])
                cs.append(pair[1])
            kripke = self._table(f.name, ks)
            if not self._boxed:
                # no world sees another: both sides are the same masks
                return kripke, kripke
            # the classical side is the unboxed table of its own masks
            return self.box(kripke), kripke if ks == cs else self._table(f.name, cs)
        if isinstance(f, Atom):
            mask = self._atoms.get((f.pred, tuple(rho[x] for x in f.args)), 0)
            return mask, mask
        if isinstance(f, Forall):
            full, exists = self.full, self.exists
            k = c = full
            for a in self.domain:
                bk, bc = self.value(f.body, {**rho, f.var: a})
                if exists is not None:
                    # a constrains only the lanes where it exists
                    gone = full ^ exists[a]
                    bk, bc = bk | gone, bc | gone
                k &= bk
                c &= bc
            boxed = self.box(k)
            assert not self.cross_check or boxed == k, (
                f"universal clause mismatch: future-worlds {boxed:b}, "
                f"present-world {k:b} for {f}"
            )
            return boxed, c
        if isinstance(f, Exists):
            exists = self.exists
            k = c = 0
            for a in self.domain:
                bk, bc = self.value(f.body, {**rho, f.var: a})
                if exists is not None:
                    bk, bc = bk & exists[a], bc & exists[a]
                k |= bk
                c |= bc
            return k, c
        raise UsageError(f"not a formula: {f!r}")


@functools.lru_cache(maxsize=None)
def _bits(vec: tuple) -> int:
    """A world vector as the bits of one model, world j at bit j."""
    return sum(bit << j for j, bit in enumerate(vec))


def _spread(count: int, step: int) -> int:
    """count bits, step places apart, from bit 0."""
    return ((1 << count * step) - 1) // ((1 << step) - 1)


def _box_offsets(frames: Sequence[tuple]) -> tuple:
    """(lanes, models, seen, starts, worlds) of frames, which lists
    (future, models) per segment in lane order, a segment of a frame of
    n worlds taking models * n lanes: the lane and model counts; per
    offset d != 0 from a world to a world above it in some frame, the
    lanes whose world i sees world i + d in its model's frame, box
    leaving the bit that a shift by d brings to any other lane unread;
    and each segment's first lane and world count."""
    seen: dict = {}
    starts, worlds = [], []
    start = width = 0
    for future, models in frames:
        n = len(future)
        starts.append(start)
        worlds.append(n)
        firsts = 0  # bit 0 of every model of the segment, once needed
        for i, above in enumerate(future):
            for j in above:
                if j != i:
                    firsts = firsts or _spread(models, n) << start
                    seen[j - i] = seen.get(j - i, 0) | firsts << i
        start += models * n
        width += models
    return start, width, seen, starts, worlds
