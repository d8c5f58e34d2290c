"""Seeded random generators of test inputs: objects and morphism terms.

Morphisms are generated top-down from a chosen domain, picking only
moves that typecheck, so every produced term is well typed by
construction.  A part's ends come from the walks that store nothing
(``terms._box_walk``, ``strict._record_walk``): a part is a subterm of the
result, not a root.  All generators are deterministic for a fixed seed.
"""

from __future__ import annotations

import random

from strictcat.terms import (
    UNIT, Assoc, AssocInv, Base, Comp, Gen, Id, MorC, ObjC, Signature,
    Tensor, TensorM, UnitL, UnitLInv, UnitR, UnitRInv, Unit, _box_walk,
    flatten,
)
from strictcat.strict import (
    CompD, IdD, Lift, MorD, Pack, Slice, TensorD, UnitElim, UnitIntro,
    Unpack, Wires, _gen_ends, _record_walk, canonical_d, chain_d,
    flatten_wires, slice_term,
)


def _rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def random_obj(sig: Signature, depth_bound: int, seed=0) -> ObjC:
    rng = _rng(seed)
    bases = sorted(sig.base_objects)

    def go(depth: int) -> ObjC:
        if depth <= 1 or rng.random() < 0.3:
            if bases and rng.random() < 0.8:
                return Base(rng.choice(bases))
            return UNIT
        return Tensor(go(depth - 1), go(depth - 1))

    return go(depth_bound)


def random_mor(sig: Signature, depth_bound: int, seed=0,
               structural_only: bool = False) -> MorC:
    rng = _rng(seed)
    dom = random_obj(sig, min(depth_bound, 3), rng)
    return random_mor_from(sig, dom, depth_bound, rng, structural_only)


def random_mor_from(sig: Signature, dom: ObjC, depth: int,
                    seed=0, structural_only: bool = False) -> MorC:
    """Random well-typed term whose domain is exactly ``dom``."""
    rng = _rng(seed)

    def leaves(a: ObjC) -> list[MorC]:
        out: list[MorC] = [Id(a), UnitLInv(a), UnitRInv(a)]
        if isinstance(a, Tensor):
            out += _root_moves(a)
        if not structural_only:
            for name in sorted(sig.generators):
                if sig.generators[name][0] == a:
                    out.append(Gen(name))
        return out

    def go(a: ObjC, d: int) -> MorC:
        choices = ["leaf"]
        if d > 1:
            choices += ["comp", "comp", "leaf"]
            if isinstance(a, Tensor):
                choices += ["tensor", "tensor"]
        kind = rng.choice(choices)
        if kind == "tensor":
            return TensorM(go(a.left, d - 1), go(a.right, d - 1))
        if kind == "comp":
            f = go(a, d - 1)
            _, mid, _ = _box_walk(f, sig)
            return Comp(f, go(mid, d - 1))
        return rng.choice(leaves(a))

    return go(dom, depth)


def random_structural_walk(a: ObjC, steps: int, seed=0) -> MorC:
    """Composite of single structural moves applied at random positions."""
    rng = _rng(seed)
    sig = Signature(frozenset(flatten(a)))  # moves only add units
    term: MorC | None = None
    current = a
    for _ in range(steps):
        move = _nth_move(current, rng.choice(range(_move_count(current))))
        current = _box_walk(move, sig)[1]
        term = move if term is None else Comp(term, move)
    return term if term is not None else Id(a)


def _root_moves(x: Tensor) -> list[MorC]:
    """The associators and unitors that apply at the root of ``x``."""
    out: list[MorC] = []
    if isinstance(x.right, Tensor):
        out.append(Assoc(x.left, x.right.left, x.right.right))
    if isinstance(x.left, Tensor):
        out.append(AssocInv(x.left.left, x.left.right, x.right))
    if isinstance(x.left, Unit):
        out.append(UnitL(x.right))
    if isinstance(x.right, Unit):
        out.append(UnitR(x.left))
    return out


def _move_count(x: ObjC) -> int:
    if not isinstance(x, Tensor):
        return 2
    return (len(_root_moves(x)) + _move_count(x.left)
            + _move_count(x.right) + 2)


def _nth_move(x: ObjC, k: int) -> MorC:
    """Move ``k`` at ``x``: root moves, those inside the left factor, those
    inside the right factor, then the two unit introductions around ``x``."""
    if isinstance(x, Tensor):
        root = _root_moves(x)
        if k < len(root):
            return root[k]
        k -= len(root)
        n = _move_count(x.left)
        if k < n:
            return TensorM(_nth_move(x.left, k), Id(x.right))
        k -= n
        n = _move_count(x.right)
        if k < n:
            return TensorM(Id(x.left), _nth_move(x.right, k))
        k -= n
    return (UnitLInv(x), UnitRInv(x))[k]


# ---------------------------------------------------------------------------
# Strict-category generators

def make_slice(left: Wires, gen: MorD, right: Wires, sig: Signature) -> Slice:
    """``gen`` placed between the wires ``left`` and ``right``."""
    d, c, _ = _gen_ends(gen, sig)
    return Slice(tuple(left), gen, tuple(right), d, c)


def adapter_moves(wires: Wires) -> list[tuple[int, MorD, int]]:
    """Every adapter slice applicable to the interface ``wires``, as
    ``(pos, gen, n)``: ``gen`` takes the ``n`` wires from ``pos`` on."""
    out = [(i, UnitIntro(), 0) for i in range(len(wires) + 1)]
    for i, label in enumerate(wires):
        if isinstance(label, Unit):
            out.append((i, UnitElim(), 1))
        if isinstance(label, Tensor):
            out.append((i, Unpack(label.left, label.right), 1))
    for i in range(len(wires) - 1):
        out.append((i, Pack(wires[i], wires[i + 1]), 2))
    return out


def random_adapter_walk(sig: Signature, start: Wires, steps: int, seed=0,
                        structural_lifts: bool = False) -> MorD:
    """Composite of random adapter slices (optionally structural lifts)."""
    rng = _rng(seed)
    current = tuple(start)
    parts: list[MorD] = []
    for _ in range(steps):
        options = adapter_moves(current)
        if structural_lifts:
            for i, label in enumerate(current):
                if isinstance(label, Tensor) and isinstance(label.right, Tensor):
                    options.append((i, Lift(Assoc(label.left, label.right.left,
                                                  label.right.right)), 1))
                if isinstance(label, Tensor) and isinstance(label.left, Unit):
                    options.append((i, Lift(UnitL(label.right)), 1))
                options.append((i, Lift(UnitRInv(label)), 1))
        pos, gen, n = rng.choice(options)
        s = make_slice(current[:pos], gen, current[pos + n:], sig)
        parts.append(slice_term(s))
        current = s.cod
    if not parts:
        return IdD(current)
    return chain_d(*parts)


def random_singleton_adapter_term(sig: Signature, start_label: ObjC,
                                  steps: int, seed=0,
                                  structural_lifts: bool = True) -> MorD:
    """Adapter walk from one wire, closed back onto a single wire."""
    rng = _rng(seed)
    walk = random_adapter_walk(sig, (start_label,), steps, rng,
                               structural_lifts=structural_lifts)
    _, cod, *_ = _record_walk(walk, sig)
    target = random_bracketing([Base(n) for n in flatten_wires(cod)], rng)
    closing = canonical_d(cod, (target,))
    return CompD(walk, closing)


def random_bracketing(leaves: list[ObjC], seed=0,
                      unit_budget: int = 1) -> ObjC:
    """Random tree with the given leaves in order, maybe inserting units."""
    rng = _rng(seed)
    items: list[ObjC] = list(leaves)
    for _ in range(rng.randint(0, unit_budget)):
        items.insert(rng.randint(0, len(items)), UNIT)
    if not items:
        return UNIT
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        items[i:i + 2] = [Tensor(items[i], items[i + 1])]
    return items[0]


def random_dmor(sig: Signature, depth: int, seed=0) -> MorD:
    """Random strict term mixing walks, tensors and compositions."""
    rng = _rng(seed)

    def rand_wires() -> Wires:
        return tuple(random_obj(sig, 2, rng) for _ in range(rng.randint(1, 2)))

    def go(d: int) -> MorD:
        roll = rng.random()
        if d <= 1 or roll < 0.4:
            start = rand_wires()
            walk = random_adapter_walk(sig, start, rng.randint(0, 2), rng)
            if rng.random() < 0.5:
                return walk
            if rng.random() < 0.2:
                return CompD(walk, IdD(_record_walk(walk, sig)[1]))
            return lift_onto(walk)
        if roll < 0.7:
            a = go(d - 1)
            _, mid, *_ = _record_walk(a, sig)
            walk = random_adapter_walk(sig, mid, rng.randint(1, 2), rng)
            return CompD(a, walk)
        return TensorD(go(d - 1), go(d - 1))

    def lift_onto(walk: MorD) -> MorD:
        _, cod, *_ = _record_walk(walk, sig)
        if not cod:
            return walk
        i = rng.randrange(len(cod))
        f = random_mor_from(sig, cod[i], 2, rng)
        s = make_slice(cod[:i], Lift(f), cod[i + 1:], sig)
        return CompD(walk, slice_term(s))

    return go(depth)


def enumerate_catw_objects(max_w: int = 4, max_units: int = 2,
                           base: str = "W") -> tuple[ObjC, ...]:
    """All object trees over one base with bounded leaf counts."""

    def trees(n: int) -> list[ObjC]:
        if n == 1:
            return [Base(base), UNIT]
        out: list[ObjC] = []
        for k in range(1, n):
            for l in trees(k):
                for r in trees(n - k):
                    out.append(Tensor(l, r))
        return out

    result: list[ObjC] = []
    for n in range(1, max_w + max_units + 1):
        for t in trees(n):
            leaves = _count_leaves(t)
            if leaves[0] <= max_w and leaves[1] <= max_units:
                result.append(t)
    return tuple(result)


def _count_leaves(a: ObjC) -> tuple[int, int]:
    if isinstance(a, Base):
        return 1, 0
    if isinstance(a, Unit):
        return 0, 1
    lw, lu = _count_leaves(a.left)
    rw, ru = _count_leaves(a.right)
    return lw + rw, lu + ru
