"""Seeded input generators owned by the benchmark.

Inputs are built from the engine's term constructors only.  Every type
is worked out here, and no engine function runs while inputs are made,
so a change to ``strictcat.generate`` or to any layer cannot change the
traffic.  The same seed always gives the same inputs; ``fingerprint``
lets two commits confirm they ran the same ones.

Sizes are stratified rather than drawn freely: each block of inputs
holds a fixed mix of kinds and a fixed spread of sizes, and the seed
picks the terms and their order.  Any long enough prefix of a pool then
carries the same work, which keeps run-to-run spread small.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import NamedTuple

from strictcat.terms import (
    UNIT, Assoc, AssocInv, Base, Comp, Gen, Id, Tensor, TensorM, Unit,
    UnitL, UnitLInv, UnitR, UnitRInv,
)
from strictcat.strict import (
    CompD, IdD, Lift, Pack, TensorD, UnitElim, UnitIntro, Unpack,
)

W = Base("W")
X, Y, Z = Base("x"), Base("y"), Base("z")
BIT = Base("b")

# The demo signature of the test suite and the parity signature, as
# (dom, cod) per generator name.
DEMO_BASES = ("x", "y", "z")
DEMO_GENS = {"f": (X, Y), "g": (Y, Z), "h": (Tensor(X, Y), Z), "u": (UNIT, Y)}
PARITY_GENS = {"xor": (Tensor(BIT, BIT), BIT)}


# ---------------------------------------------------------------------------
# Objects

def trees(base: str, max_w: int, max_units: int) -> list:
    """Every object tree over one base with bounded leaf counts."""

    def go(n: int) -> list:
        if n == 1:
            return [Base(base), UNIT]
        return [Tensor(l, r) for k in range(1, n)
                for l in go(k) for r in go(n - k)]

    return [t for n in range(1, max_w + max_units + 1) for t in go(n)
            if leaf_counts(t)[0] <= max_w and leaf_counts(t)[1] <= max_units]


def leaf_counts(a) -> tuple[int, int]:
    """(base leaves, unit leaves) of an object."""
    if isinstance(a, Base):
        return 1, 0
    if isinstance(a, Unit):
        return 0, 1
    lw, lu = leaf_counts(a.left)
    rw, ru = leaf_counts(a.right)
    return lw + rw, lu + ru


def random_obj(rng: random.Random, bases, depth: int):
    if depth <= 1 or rng.random() < 0.3:
        return Base(rng.choice(bases)) if rng.random() < 0.8 else UNIT
    return Tensor(random_obj(rng, bases, depth - 1),
                  random_obj(rng, bases, depth - 1))


def substitute(shape, fill):
    """Replace the base leaves of ``shape``, left to right, by ``fill``."""
    items = iter(fill)

    def go(a):
        if isinstance(a, Unit):
            return a
        if isinstance(a, Base):
            return next(items)
        return Tensor(go(a.left), go(a.right))

    return go(shape)


# ---------------------------------------------------------------------------
# Structural moves, with their codomains

def structural_moves(x) -> list:
    """Every single associator or unitor step out of ``x``, as (move, cod)."""
    out = []
    if isinstance(x, Tensor):
        l, r = x.left, x.right
        if isinstance(r, Tensor):
            out.append((Assoc(l, r.left, r.right),
                        Tensor(Tensor(l, r.left), r.right)))
        if isinstance(l, Tensor):
            out.append((AssocInv(l.left, l.right, r),
                        Tensor(l.left, Tensor(l.right, r))))
        if isinstance(l, Unit):
            out.append((UnitL(r), r))
        if isinstance(r, Unit):
            out.append((UnitR(l), l))
        out += [(TensorM(m, Id(r)), Tensor(c, r))
                for m, c in structural_moves(l)]
        out += [(TensorM(Id(l), m), Tensor(l, c))
                for m, c in structural_moves(r)]
    out += [(UnitLInv(x), Tensor(UNIT, x)), (UnitRInv(x), Tensor(x, UNIT))]
    return out


def invert_move(m):
    if isinstance(m, Id):
        return m
    if isinstance(m, TensorM):
        return TensorM(invert_move(m.left), invert_move(m.right))
    inverse = {Assoc: AssocInv, AssocInv: Assoc, UnitL: UnitLInv,
               UnitLInv: UnitL, UnitR: UnitRInv, UnitRInv: UnitR}[type(m)]
    if isinstance(m, (Assoc, AssocInv)):
        return inverse(m.a, m.b, m.c)
    return inverse(m.obj)


def structural_walk(rng: random.Random, a, steps: int):
    """A composite of ``steps`` random moves out of ``a``: (term, cod)."""
    term, cur = None, a
    for _ in range(steps):
        move, cur = rng.choice(structural_moves(cur))
        term = move if term is None else Comp(term, move)
    return term, cur


# ---------------------------------------------------------------------------
# oracle-coherence

class WalkPair(NamedTuple):
    """Two structural walks out of ``a``; the second is steered onto ``b``."""
    a: object
    f: object
    b: object
    walk2: object
    mid: object


class NatIso(NamedTuple):
    """Shapes with equal leaf counts and the fill put in their leaves."""
    shape_a: object
    shape_b: object
    fill: tuple
    filled_a: object


def oracle_inputs(seed: int, blocks: int) -> list:
    """Blocks of ``ORACLE_BLOCK``: two walk pairs on ``W`` and one natural
    isomorphism."""
    rng = random.Random(f"oracle/{seed}")
    objs = trees("W", 4, 1)
    shapes = trees("W", 3, 1)
    shape_pairs = [(p, q) for p in shapes for q in shapes
                   if leaf_counts(p)[0] == leaf_counts(q)[0]]
    out = []
    for _ in range(blocks):
        block = []
        for _ in range(2):
            a = rng.choice(objs)
            f, b = structural_walk(rng, a, rng.randint(1, 6))
            walk2, mid = structural_walk(rng, a, rng.randint(1, 6))
            block.append(WalkPair(a, f, b, walk2, mid))
        shape_a, shape_b = rng.choice(shape_pairs)
        fill: list = []
        while len(fill) < leaf_counts(shape_a)[0]:
            candidate = random_obj(rng, DEMO_BASES, 2)
            if leaf_counts(candidate)[0] + sum(
                    leaf_counts(o)[0] for o in fill) <= 6:
                fill.append(candidate)
        block.append(NatIso(shape_a, shape_b, tuple(fill),
                            substitute(shape_a, fill)))
        rng.shuffle(block)
        out += block
    return out


# ---------------------------------------------------------------------------
# adapter-walks

class Walk(NamedTuple):
    """A random adapter walk and the endpoints it was built with."""
    term: object
    steps: int
    lifts: bool
    dom: tuple
    cod: tuple


def adapter_options(wires: tuple, lifts: bool) -> list:
    """Every slice applicable to ``wires``: (position, generator, dom, cod)."""
    out = [(i, UnitIntro(), (), (UNIT,)) for i in range(len(wires) + 1)]
    for i, label in enumerate(wires):
        if isinstance(label, Unit):
            out.append((i, UnitElim(), (UNIT,), ()))
        if isinstance(label, Tensor):
            out.append((i, Unpack(label.left, label.right), (label,),
                        (label.left, label.right)))
    for i in range(len(wires) - 1):
        pair = wires[i], wires[i + 1]
        out.append((i, Pack(*pair), pair, (Tensor(*pair),)))
    if lifts:
        for i, label in enumerate(wires):
            if isinstance(label, Tensor) and isinstance(label.right, Tensor):
                l, m, r = label.left, label.right.left, label.right.right
                out.append((i, Lift(Assoc(l, m, r)), (label,),
                            (Tensor(Tensor(l, m), r),)))
            if isinstance(label, Tensor) and isinstance(label.left, Unit):
                out.append((i, Lift(UnitL(label.right)), (label,),
                            (label.right,)))
            out.append((i, Lift(UnitRInv(label)), (label,),
                        (Tensor(label, UNIT),)))
    return out


def adapter_walk(rng: random.Random, start: tuple, steps: int,
                 lifts: bool) -> Walk:
    wires = start
    term = None
    for _ in range(steps):
        pos, gen, gdom, gcod = rng.choice(adapter_options(wires, lifts))
        left, right = wires[:pos], wires[pos + len(gdom):]
        part = gen
        if right:
            part = TensorD(part, IdD(right))
        if left:
            part = TensorD(IdD(left), part)
        term = part if term is None else CompD(term, part)
        wires = left + gcod + right
    return Walk(term, steps, lifts, start, wires)


def walk_lengths(rng: random.Random, n: int, top: int = 128) -> list[int]:
    """``n`` lengths spread log-uniformly over 1..top, one per stratum."""
    span = math.log(top)
    out = [max(1, min(top, round(math.exp(span * (k + rng.random()) / n))))
           for k in range(n)]
    rng.shuffle(out)
    return out


def walk_inputs(seed: int, blocks: int) -> list:
    """Blocks of ``WALK_BLOCK`` walks from 1-3 wires; half of each block lifts."""
    rng = random.Random(f"walks/{seed}")
    objs = trees("W", 4, 2)
    out = []
    for _ in range(blocks):
        lengths = walk_lengths(rng, WALK_BLOCK)
        for k, steps in enumerate(lengths):
            start = tuple(rng.choice(objs) for _ in range(rng.randint(1, 3)))
            out.append(adapter_walk(rng, start, steps, lifts=k % 2 == 0))
    return out


# ---------------------------------------------------------------------------
# generator-queries

class Query(NamedTuple):
    """A pair of terms as text, with the trees and type they were built from.

    ``kind`` is ``distinct`` for pairs the oracle tells apart and names
    the construction for pairs equal by construction.
    """
    kind: str
    sig: str
    f_text: str
    g_text: str
    f: object
    g: object
    dom: object
    cod: object


# Per block of queries: kind -> count.  A block holds one parity circuit
# for each n in PARITY_NS, so parity is 3 % of the queries.  The slowest
# 1 % of a block is then 6.5 queries: the 99th percentile falls in the
# middle of the n = 18 circuits, not on the edge between two sizes, where
# it would jump with the host's noise.
PARITY_NS = tuple(range(4, 25))
QUERY_MIX = {"interchange": 117, "tensor-split": 117, "assoc-nat": 117,
             "unitor-nat": 117, "comp-assoc": 116, "distinct": 45,
             "parity": len(PARITY_NS)}
QUERY_BLOCK = sum(QUERY_MIX.values())
ORACLE_BLOCK = 3
WALK_BLOCK = 32


def gen_term(rng: random.Random, depth: int):
    """A random term holding at least one generator: (term, dom, cod)."""
    if depth <= 0 or rng.random() < 0.35:
        name = rng.choice(sorted(DEMO_GENS))
        return (Gen(name),) + DEMO_GENS[name]
    roll = rng.random()
    t, d, c = gen_term(rng, depth - 1)
    if roll < 0.4:
        if rng.random() < 0.5:
            t2, d2, c2 = gen_term(rng, depth - 1)
        else:
            d2 = c2 = random_obj(rng, DEMO_BASES, 2)
            t2 = Id(d2)
        if rng.random() < 0.5:
            return TensorM(t, t2), Tensor(d, d2), Tensor(c, c2)
        return TensorM(t2, t), Tensor(d2, d), Tensor(c2, c)
    if roll < 0.7:
        if rng.random() < 0.5:
            move, c2 = rng.choice(structural_moves(c))
            return Comp(t, move), d, c2
        move, d2 = rng.choice(structural_moves(d))
        return Comp(invert_move(move), t), d2, c
    names = [n for n, (gd, _) in sorted(DEMO_GENS.items()) if gd == c]
    if names:
        name = rng.choice(names)
        return Comp(t, Gen(name)), d, DEMO_GENS[name][1]
    return t, d, c


def equal_pair(rng: random.Random, kind: str):
    """Two terms equal by the named construction: (lhs, rhs, dom, cod)."""
    t1, a1, b1 = gen_term(rng, 2)
    if kind in ("interchange", "tensor-split"):
        t2, a2, b2 = gen_term(rng, 2)
        split = Comp(TensorM(t1, Id(a2)), TensorM(Id(b1), t2))
        other = (Comp(TensorM(Id(a1), t2), TensorM(t1, Id(b2)))
                 if kind == "interchange" else TensorM(t1, t2))
        return split, other, Tensor(a1, a2), Tensor(b1, b2)
    if kind == "assoc-nat":
        t2, a2, b2 = gen_term(rng, 1)
        t3, a3, b3 = gen_term(rng, 1)
        return (Comp(TensorM(t1, TensorM(t2, t3)), Assoc(b1, b2, b3)),
                Comp(Assoc(a1, a2, a3), TensorM(TensorM(t1, t2), t3)),
                Tensor(a1, Tensor(a2, a3)), Tensor(Tensor(b1, b2), b3))
    if kind == "unitor-nat":
        side = rng.randrange(4)
        if side == 0:
            return (Comp(UnitL(a1), t1), Comp(TensorM(Id(UNIT), t1), UnitL(b1)),
                    Tensor(UNIT, a1), b1)
        if side == 1:
            return (Comp(UnitR(a1), t1), Comp(TensorM(t1, Id(UNIT)), UnitR(b1)),
                    Tensor(a1, UNIT), b1)
        if side == 2:
            return (Comp(t1, UnitLInv(b1)),
                    Comp(UnitLInv(a1), TensorM(Id(UNIT), t1)),
                    a1, Tensor(UNIT, b1))
        return (Comp(t1, UnitRInv(b1)), Comp(UnitRInv(a1), TensorM(t1, Id(UNIT))),
                a1, Tensor(b1, UNIT))
    # comp-assoc: (t ; m1) ; m2 against t ; (m1 ; m2)
    m1, mid = rng.choice(structural_moves(b1))
    m2, cod = rng.choice(structural_moves(mid))
    return Comp(Comp(t1, m1), m2), Comp(t1, Comp(m1, m2)), a1, cod


def distinct_pair(rng: random.Random):
    """``f;g`` against ``rho';(id(*)u);h`` in a random shared context."""
    lhs = Comp(Gen("f"), Gen("g"))
    rhs = Comp(Comp(UnitRInv(X), TensorM(Id(X), Gen("u"))), Gen("h"))
    dom, cod = X, Z
    pad = rng.randrange(3)
    if pad:
        obj = random_obj(rng, DEMO_BASES, 2)
        if pad == 1:
            lhs, rhs = TensorM(lhs, Id(obj)), TensorM(rhs, Id(obj))
            dom, cod = Tensor(dom, obj), Tensor(cod, obj)
        else:
            lhs, rhs = TensorM(Id(obj), lhs), TensorM(Id(obj), rhs)
            dom, cod = Tensor(obj, dom), Tensor(obj, cod)
    before, dom = rng.choice(structural_moves(dom))
    after, cod = rng.choice(structural_moves(cod))
    before = invert_move(before)
    return (Comp(Comp(before, lhs), after), Comp(Comp(before, rhs), after),
            dom, cod)


def bundle(n: int):
    """Right-nested bundle of ``n`` bits."""
    return BIT if n == 1 else Tensor(BIT, bundle(n - 1))


def parity_circuit(n: int):
    """The base-category reading of the strict parity circuit on ``n`` bits.

    The strict circuit unpacks one bit, recurses on the rest, packs the
    two results and applies xor.  Read back slice by slice, each slice
    becomes its generator under ``k`` identity wires; this builds that
    term directly.
    """

    def slices(m: int, k: int) -> list:
        if m == 1:
            return []
        return ([(k, Id(bundle(m)))] + slices(m - 1, k + 1)
                + [(k, Id(Tensor(BIT, BIT))), (k, Gen("xor"))])

    def under(k: int, gen):
        if k == 0:
            return gen
        if k == 1 and isinstance(gen, Id) and isinstance(gen.obj, Tensor):
            return TensorM(Id(BIT), TensorM(Id(gen.obj.left),
                                            Id(gen.obj.right)))
        return TensorM(Id(BIT), under(k - 1, gen))

    terms = [under(k, gen) for k, gen in slices(n, 0)]
    out = terms[0]
    for t in terms[1:]:
        out = Comp(out, t)
    return out


def parity_strict(n: int):
    """The strict parity circuit: unpack a bit, recurse, pack, xor."""
    if n == 1:
        return IdD((BIT,))
    return CompD(CompD(CompD(
        Unpack(BIT, bundle(n - 1)), TensorD(IdD((BIT,)), parity_strict(n - 1))),
        Pack(BIT, BIT)), Lift(Gen("xor")))


def query_inputs(seed: int, blocks: int) -> list:
    """Blocks of queries in the fixed ``QUERY_MIX``."""
    rng = random.Random(f"queries/{seed}")
    out = []
    for _ in range(blocks):
        kinds = [k for k, n in QUERY_MIX.items() for _ in range(n)]
        rng.shuffle(kinds)
        parity_ns = list(PARITY_NS)
        rng.shuffle(parity_ns)
        for kind in kinds:
            sig = "demo"
            if kind == "parity":
                n = parity_ns.pop()
                f = parity_circuit(n)
                lhs, rhs, dom, cod, sig = f, Comp(f, Id(BIT)), bundle(n), BIT, "parity"
            elif kind == "distinct":
                lhs, rhs, dom, cod = distinct_pair(rng)
            else:
                lhs, rhs, dom, cod = equal_pair(rng, kind)
            out.append(Query(kind, sig, show_mor(lhs), show_mor(rhs),
                             lhs, rhs, dom, cod))
    return out


# ---------------------------------------------------------------------------
# Printing, sizes and fingerprints

def show_obj(a) -> str:
    if isinstance(a, Unit):
        return "I"
    if isinstance(a, Base):
        return a.name
    return f"({show_obj(a.left)} * {show_obj(a.right)})"


def show_mor(f, ctx: int = 0) -> str:
    """Concrete syntax of a base-category term, in the engine's grammar."""
    if isinstance(f, Comp):
        s = f"{show_mor(f.first, 0)} ; {show_mor(f.second, 1)}"
        return f"({s})" if ctx > 0 else s
    if isinstance(f, TensorM):
        s = f"{show_mor(f.left, 1)} (*) {show_mor(f.right, 2)}"
        return f"({s})" if ctx > 1 else s
    if isinstance(f, Id):
        return f"id[{show_obj(f.obj)}]"
    if isinstance(f, Gen):
        return f.name
    if isinstance(f, (Assoc, AssocInv)):
        prime = "'" if isinstance(f, AssocInv) else ""
        return f"alpha{prime}[{show_obj(f.a)},{show_obj(f.b)},{show_obj(f.c)}]"
    name = {UnitL: "lambda", UnitLInv: "lambda'", UnitR: "rho",
            UnitRInv: "rho'"}[type(f)]
    return f"{name}[{show_obj(f.obj)}]"


def nodes(t) -> int:
    """Node count of a morphism term of either category."""
    if isinstance(t, (Comp, CompD)):
        return 1 + nodes(t.first) + nodes(t.second)
    if isinstance(t, (TensorM, TensorD)):
        return 1 + nodes(t.left) + nodes(t.right)
    if isinstance(t, Lift):
        return 1 + nodes(t.mor)
    return 1


def sizes(inp) -> dict[str, int]:
    """The sizes the histogram reports for one input."""
    if isinstance(inp, WalkPair):
        return {"term_nodes": nodes(inp.f) + nodes(inp.walk2)}
    if isinstance(inp, NatIso):
        return {"fill_leaves": leaf_counts(inp.filled_a)[0]}
    if isinstance(inp, Walk):
        return {"walk_len": inp.steps}
    out = {"term_nodes": nodes(inp.f) + nodes(inp.g)}
    if inp.kind == "parity":
        out["parity_n"] = leaf_counts(inp.dom)[0]
    return out


def histogram(pool: list) -> dict[str, dict[str, int]]:
    """Per size name, counts in power-of-two bins (exact values for parity n)."""
    out: dict[str, dict[str, int]] = {}
    for inp in pool:
        for name, value in sizes(inp).items():
            key = value if name == "parity_n" else 1 << value.bit_length() >> 1
            bins = out.setdefault(name, {})
            bins[str(key)] = bins.get(str(key), 0) + 1
    return {name: dict(sorted(bins.items(), key=lambda kv: int(kv[0])))
            for name, bins in sorted(out.items())}


def fingerprint(pool: list) -> str:
    """SHA-256 over the inputs, in order."""
    digest = hashlib.sha256()
    for inp in pool:
        digest.update(repr(inp).encode())
        digest.update(b"\n")
    return digest.hexdigest()
