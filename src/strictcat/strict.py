"""Terms of the strictified category built over a signature.

Objects here are plain tuples of wire labels, each label an object of the
underlying (non-strict) category.  Tensor on such objects is tuple
concatenation, so associativity and unitality hold on the nose.  The empty
tuple is the strict unit and is distinct from the one-wire sequence
``(I,)`` carrying the lifted unit object.

Morphism terms are generated by lifted morphisms (one wire to one wire),
the two adapter families (``Pack``/``Unpack`` fuse or split a pair of
wires, ``UnitIntro``/``UnitElim`` summon or dispel a unit wire),
identities, composition and tensor.

The rewrite system lives on *sequential normal forms*: every term factors
into slices ``id ⊗ generator ⊗ id``.  Rewriting runs on position records
(where each generator starts, no identity wires); ``Slice`` objects with
their wires are materialised only when a result needs them.  Reordering
slices whose supports are disjoint does not change the denoted morphism
(strict interchange), which the cancellation loop uses to bring inverse
adapter pairs together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import (
    UNIT, Assoc, AssocInv, Base, Comp, Gen, Id, MorC, ObjC, Signature, Tensor,
    TensorM, TermError, TypeMismatch, UnitL, UnitLInv, UnitR, UnitRInv,
    Unit, flatten, invert_structural, show_obj, typecheck_c,
)

Wires = tuple  # tuple[ObjC, ...]


class NotInvertible(TermError):
    pass


class FlatteningMismatch(TermError):
    pass


class RewriteBudgetExceeded(TermError):
    pass


# ---------------------------------------------------------------------------
# Morphism terms

@dataclass(frozen=True)
class IdD:
    wires: Wires


@dataclass(frozen=True)
class Lift:
    mor: MorC


@dataclass(frozen=True)
class Pack:
    left: ObjC
    right: ObjC


@dataclass(frozen=True)
class Unpack:
    left: ObjC
    right: ObjC


@dataclass(frozen=True)
class UnitIntro:
    pass


@dataclass(frozen=True)
class UnitElim:
    pass


@dataclass(frozen=True)
class CompD:
    first: "MorD"
    second: "MorD"


@dataclass(frozen=True)
class TensorD:
    left: "MorD"
    right: "MorD"


MorD = IdD | Lift | Pack | Unpack | UnitIntro | UnitElim | CompD | TensorD


def chain_d(*ts: MorD) -> MorD:
    """Left-fold composition of one or more strict terms."""
    out = ts[0]
    for t in ts[1:]:
        out = CompD(out, t)
    return out


def show_wires(w: Wires) -> str:
    return "[" + "|".join(show_obj(x) for x in w) + "]"


def flatten_wires(w: Wires) -> tuple[str, ...]:
    out: tuple[str, ...] = ()
    for label in w:
        out += flatten(label)
    return out


def typecheck_d(t: MorD, sig: Signature) -> tuple[Wires, Wires]:
    """Return (dom, cod) wire sequences of ``t``."""
    dom, cod, _ = _records(t, sig)
    return dom, cod


def _gen_ends(g: MorD, sig: Signature) -> tuple[Wires, Wires]:
    """(dom, cod) wire sequences of one generator node."""
    if isinstance(g, Lift):
        d, c = typecheck_c(g.mor, sig)
        return (d,), (c,)
    if isinstance(g, Pack):
        return (g.left, g.right), (Tensor(g.left, g.right),)
    if isinstance(g, Unpack):
        return (Tensor(g.left, g.right),), (g.left, g.right)
    if isinstance(g, UnitIntro):
        return (), (UNIT,)
    if isinstance(g, UnitElim):
        return (UNIT,), ()
    raise TypeError(g)


def invert_d(t: MorD) -> MorD:
    """Formal inverse; defined when every lifted morphism is structural."""
    if isinstance(t, IdD):
        return t
    if isinstance(t, Lift):
        try:
            return Lift(invert_structural(t.mor))
        except TermError as err:
            raise NotInvertible(str(err)) from None
    if isinstance(t, Pack):
        return Unpack(t.left, t.right)
    if isinstance(t, Unpack):
        return Pack(t.left, t.right)
    if isinstance(t, UnitIntro):
        return UnitElim()
    if isinstance(t, UnitElim):
        return UnitIntro()
    if isinstance(t, CompD):
        return CompD(invert_d(t.second), invert_d(t.first))
    if isinstance(t, TensorD):
        return TensorD(invert_d(t.left), invert_d(t.right))
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Sequential normal form

@dataclass(frozen=True)
class Slice:
    """One factor ``id_left ⊗ gen ⊗ id_right`` of a sequential normal form."""
    left: Wires
    gen: MorD
    right: Wires
    gen_dom: Wires
    gen_cod: Wires

    @property
    def dom(self) -> Wires:
        return self.left + self.gen_dom + self.right

    @property
    def cod(self) -> Wires:
        return self.left + self.gen_cod + self.right

    @property
    def pos(self) -> int:
        return len(self.left)


@dataclass(frozen=True)
class SeqNF:
    dom: Wires
    slices: tuple[Slice, ...]

    @property
    def cod(self) -> Wires:
        return self.slices[-1].cod if self.slices else self.dom


def make_slice(left: Wires, gen: MorD, right: Wires, sig: Signature) -> Slice:
    d, c = _gen_ends(gen, sig)
    return Slice(tuple(left), gen, tuple(right), d, c)


def seq_normal_form(t: MorD, sig: Signature) -> SeqNF:
    """Factor ``t`` into slices.

    The result composes back to a term equal to ``t`` modulo the strict
    monoidal axioms only (functoriality of tensor and interchange);
    identities contribute no slices, a tensor ``t ⊗ u`` factors as
    ``(t ⊗ id) ; (id ⊗ u)``.
    """
    dom, _, recs = _records(t, sig)
    return SeqNF(dom, _slices(recs, dom))


def _records(t: MorD, sig: Signature) -> tuple[Wires, Wires, list]:
    """Typecheck ``t`` and list its slices as records ``(pos, gen, gen_dom,
    gen_cod)``: ``gen`` acts on the wires from index ``pos`` on."""
    recs: list = []

    def go(u: MorD, path: str, shift: int) -> tuple[Wires, Wires]:
        # appends the records of ``u`` acting at ``shift``
        if isinstance(u, IdD):
            return u.wires, u.wires
        if isinstance(u, CompD):
            d1, c1 = go(u.first, path + ".first", shift)
            d2, c2 = go(u.second, path + ".second", shift)
            if c1 != d2:
                raise TypeMismatch(
                    path,
                    f"{show_wires(c1)} composed against {show_wires(d2)}")
            return d1, c2
        if isinstance(u, TensorD):
            d1, c1 = go(u.left, path + ".left", shift)
            d2, c2 = go(u.right, path + ".right", shift + len(c1))
            return d1 + d2, c1 + c2
        d, c = _gen_ends(u, sig)
        recs.append((shift, u, d, c))
        return d, c

    dom, cod = go(t, "root", 0)
    return dom, cod, recs


def _slices(recs, dom: Wires) -> tuple[Slice, ...]:
    """Replay records from ``dom``, giving each its identity wires."""
    out = []
    cur = dom
    for pos, gen, d, c in recs:
        left, right = cur[:pos], cur[pos + len(d):]
        out.append(Slice(left, gen, right, d, c))
        cur = left + c + right
    return tuple(out)


def slice_term(s: Slice) -> MorD:
    out: MorD = s.gen
    if s.right:
        out = TensorD(out, IdD(s.right))
    if s.left:
        out = TensorD(IdD(s.left), out)
    return out


def recompose(slices, dom: Wires) -> MorD:
    if not slices:
        return IdD(tuple(dom))
    return chain_d(*(slice_term(s) for s in slices))


# ---------------------------------------------------------------------------
# Canonical arrows (packing / unpacking)

def pack_obj(x: Wires) -> MorD:
    """The adapter that assembles ``x`` from its flattened base wires.

    Built by recursion on the wire sequence and on each wire label: a unit
    label is summoned from nothing, a base label is left alone, a tensor
    label is built from its halves and fused.
    """
    if len(x) == 0:
        return IdD(())
    if len(x) == 1:
        label = x[0]
        if isinstance(label, Unit):
            return UnitIntro()
        if isinstance(label, Base):
            return IdD((label,))
        if isinstance(label, Tensor):
            halves = TensorD(pack_obj((label.left,)), pack_obj((label.right,)))
            return CompD(halves, Pack(label.left, label.right))
        raise TypeError(label)
    return TensorD(pack_obj(x[:1]), pack_obj(x[1:]))


def unpack_obj(x: Wires) -> MorD:
    return invert_d(pack_obj(x))


def canonical_d(a: Wires, b: Wires) -> MorD:
    """The canonical adapter-only arrow ``a -> b``: unpack then repack.

    Requires the flattened base sequences of both sides to coincide; with
    no braiding available, wires cannot be permuted, only rebracketed.
    """
    a, b = tuple(a), tuple(b)
    if flatten_wires(a) != flatten_wires(b):
        raise FlatteningMismatch(
            f"{show_wires(a)} flattens to {flatten_wires(a)}, "
            f"{show_wires(b)} to {flatten_wires(b)}")
    down = unpack_obj(a)
    up = pack_obj(b)
    if isinstance(down, IdD) and isinstance(up, IdD):
        return IdD(a)
    if isinstance(down, IdD):
        return up
    if isinstance(up, IdD):
        return down
    return CompD(down, up)


# ---------------------------------------------------------------------------
# Rewriting

@dataclass
class RewriteStats:
    cancelled_pairs: int = 0
    swaps: int = 0
    trace: list[str] = field(default_factory=list)


class _Budget:
    def __init__(self, max_steps):
        self.left = max_steps

    def tick(self):
        if self.left is None:
            return
        self.left -= 1
        if self.left < 0:
            raise RewriteBudgetExceeded("rewrite step budget exhausted")


def _map_lifts(t: MorD, fn) -> MorD:
    if isinstance(t, Lift):
        return fn(t.mor)
    if isinstance(t, CompD):
        return CompD(_map_lifts(t.first, fn), _map_lifts(t.second, fn))
    if isinstance(t, TensorD):
        return TensorD(_map_lifts(t.left, fn), _map_lifts(t.right, fn))
    return t


def _expand(f: MorC, sig: Signature) -> MorD:
    """Strict image of ``f`` with lifts left only around generators.

    Tensors unpack, act on both wires, and repack; the associator and
    unitor images are the fixed composites whose orientation is the one
    that typechecks.
    """
    if isinstance(f, Id):
        return IdD((f.obj,))
    if isinstance(f, Gen):
        return Lift(f)
    if isinstance(f, Comp):
        return CompD(_expand(f.first, sig), _expand(f.second, sig))
    if isinstance(f, TensorM):
        d1, c1 = typecheck_c(f.left, sig)
        d2, c2 = typecheck_c(f.right, sig)
        return chain_d(
            Unpack(d1, d2),
            TensorD(_expand(f.left, sig), _expand(f.right, sig)),
            Pack(c1, c2))
    if isinstance(f, Assoc):
        return chain_d(
            Unpack(f.a, Tensor(f.b, f.c)),
            TensorD(IdD((f.a,)), Unpack(f.b, f.c)),
            TensorD(Pack(f.a, f.b), IdD((f.c,))),
            Pack(Tensor(f.a, f.b), f.c))
    if isinstance(f, AssocInv):
        return chain_d(
            Unpack(Tensor(f.a, f.b), f.c),
            TensorD(Unpack(f.a, f.b), IdD((f.c,))),
            TensorD(IdD((f.a,)), Pack(f.b, f.c)),
            Pack(f.a, Tensor(f.b, f.c)))
    if isinstance(f, UnitL):
        return CompD(Unpack(UNIT, f.obj),
                     TensorD(UnitElim(), IdD((f.obj,))))
    if isinstance(f, UnitLInv):
        return CompD(TensorD(UnitIntro(), IdD((f.obj,))),
                     Pack(UNIT, f.obj))
    if isinstance(f, UnitR):
        return CompD(Unpack(f.obj, UNIT),
                     TensorD(IdD((f.obj,)), UnitElim()))
    if isinstance(f, UnitRInv):
        return CompD(TensorD(IdD((f.obj,)), UnitIntro()),
                     Pack(f.obj, UNIT))
    raise TypeError(f)


# Each adapter type and the type of its inverse, which has the same fields.
_INVERSE = {Pack: Unpack, Unpack: Pack,
            UnitIntro: UnitElim, UnitElim: UnitIntro}


def _cancel_and_slide(recs: list, budget: _Budget,
                      stats: RewriteStats) -> list:
    """Cancel adjacent inverse adapters at one position, then swap
    adjacent records whose second acts strictly left of the first (strict
    interchange); repeat.  Only left moves are taken, so the records end
    ordered by position."""
    changed = True
    # Every term measured so far (benchmark walks and their round trips,
    # random strict terms, the demos) settled within n + 1 rounds for n
    # records; running past this guard means the schedule failed to settle.
    guard = (len(recs) + 2) ** 2 + 16
    while changed:
        changed = False
        i = 0
        while i < len(recs) - 1:
            p1, g1, _, _ = recs[i]
            p2, g2, _, _ = recs[i + 1]
            if p1 == p2 and _INVERSE.get(type(g1)) is type(g2) \
                    and vars(g1) == vars(g2):
                budget.tick()
                stats.cancelled_pairs += 1
                stats.trace.append(
                    f"cancel {_gen_name(g1)}/{_gen_name(g2)} at wire {p1}")
                del recs[i:i + 2]
                i = max(i - 1, 0)
                changed = True
            else:
                i += 1
        for i in range(len(recs) - 1):
            p1, g1, d1, c1 = recs[i]
            p2, _, d2, c2 = recs[i + 1]
            if p2 + len(d2) <= p1:
                budget.tick()
                stats.swaps += 1
                recs[i] = recs[i + 1]
                recs[i + 1] = (p1 + len(c2) - len(d2), g1, d1, c1)
                changed = True
        guard -= 1
        if changed and guard <= 0:
            raise RewriteBudgetExceeded("cancel/slide loop did not settle")
    return recs


def _gen_name(g: MorD) -> str:
    if isinstance(g, Pack):
        return f"pack[{show_obj(g.left)},{show_obj(g.right)}]"
    if isinstance(g, Unpack):
        return f"unpack[{show_obj(g.left)},{show_obj(g.right)}]"
    if isinstance(g, UnitIntro):
        return "unit+"
    return "unit-"


def normalize_adapters(t: MorD, sig: Signature,
                       max_steps: int | None = None) -> MorD:
    term, _ = normalize_adapters_with_stats(t, sig, max_steps)
    return term


def normalize_adapters_with_stats(
        t: MorD, sig: Signature,
        max_steps: int | None = None) -> tuple[MorD, RewriteStats]:
    """Normalise ``t``: expand lifts, slice, cancel adapters.

    Adapter-only results are presented canonically: the identity when the
    endpoints coincide, otherwise ``unpack(dom) ; pack(cod)``.  That
    presentation is licensed by the coherence of the adapter fragment
    (every adapter-only arrow equals the canonical one), so it holds even
    when the local cancellation loop leaves residual slices.  Terms still
    containing lifted generators are recomposed from their cancelled
    slices.
    """
    budget = _Budget(max_steps)
    stats = RewriteStats()
    t = _map_lifts(t, lambda f: _expand(f, sig))
    dom, cod, recs = _records(t, sig)
    recs = _cancel_and_slide(recs, budget, stats)
    if not any(isinstance(gen, Lift) for _, gen, _, _ in recs):
        if dom == cod:
            stats.trace.append("adapter-only endpoints coincide: identity")
            return IdD(dom), stats
        stats.trace.append("adapter-only: canonical presentation")
        return canonical_d(dom, cod), stats
    return recompose(_slices(recs, dom), dom), stats
