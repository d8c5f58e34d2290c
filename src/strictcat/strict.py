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
(where each generator starts, no identity wires); a lifted composite's
record gives way to the records of its expansion, and ``Slice`` objects
are materialised only when a result needs them.  Reordering slices whose
supports are disjoint does not change the denoted morphism (strict
interchange), which the cancellation loop uses to bring inverse adapter
pairs together; it records each cancellation as a tuple.  A term with no
lifted generator needs no rewriting: coherence of the adapter fragment
gives its normal form directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import (
    UNIT, Assoc, AssocInv, Base, Comp, Gen, Id, MorC, ObjC, Signature, Tensor,
    TensorM, TermError, TypeMismatch, UnitL, UnitLInv, UnitR, UnitRInv,
    Unit, UnknownName, _box_walk, flatten, invert_structural, memo_roots,
    path_to, show_obj,
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
    """(dom, cod) wire sequences of one generator node.  A lifted
    composite is typechecked by the walk that remembers no roots: it is
    a subterm, and the caller's roots should stay remembered."""
    if isinstance(g, Lift):
        if isinstance(g.mor, Gen):
            if g.mor.name not in sig.generators:
                raise UnknownName(g.mor.name)
            d, c = sig.generators[g.mor.name]
        else:
            d, c, _ = _box_walk(g.mor, sig)
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


# Each adapter type and the type of its inverse, which has the same fields.
_INVERSE = {Pack: Unpack, Unpack: Pack,
            UnitIntro: UnitElim, UnitElim: UnitIntro}


def invert_d(t: MorD) -> MorD:
    """Formal inverse; defined when every lifted morphism is structural."""
    if isinstance(t, IdD):
        return t
    if isinstance(t, Lift):
        try:
            return Lift(invert_structural(t.mor))
        except TermError as err:
            raise NotInvertible(str(err)) from None
    if type(t) in _INVERSE:
        return _INVERSE[type(t)](**vars(t))
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


@memo_roots
def _records(t: MorD, sig: Signature) -> tuple[Wires, Wires, tuple]:
    """Typecheck ``t`` and list its slices as records ``(pos, gen, gen_dom,
    gen_cod)``: ``gen`` acts on the wires from index ``pos`` on.

    The result, records as a tuple, is remembered for the last eight
    roots walked (see ``terms.memo_roots``), so ``typecheck_d`` and
    ``normalize_adapters`` on one term walk it once."""
    recs: list = []

    def go(u: MorD, shift: int) -> tuple[Wires, Wires]:
        # appends the records of ``u`` acting at ``shift``
        if isinstance(u, IdD):
            return u.wires, u.wires
        if isinstance(u, CompD):
            d1, c1 = go(u.first, shift)
            d2, c2 = go(u.second, shift)
            if c1 != d2:
                raise TypeMismatch(
                    path_to(t, u),
                    f"{show_wires(c1)} composed against {show_wires(d2)}")
            return d1, c2
        if isinstance(u, TensorD):
            d1, c1 = go(u.left, shift)
            d2, c2 = go(u.right, shift + len(c1))
            return d1 + d2, c1 + c2
        d, c = _gen_ends(u, sig)
        recs.append((shift, u, d, c))
        return d, c

    dom, cod = go(t, 0)
    return dom, cod, tuple(recs)


# ``_records`` remembering no roots
_record_walk = _records.__wrapped__


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
    return _packing(x, True)


def unpack_obj(x: Wires) -> MorD:
    """The inverse of ``pack_obj(x)``, built by the same recursion."""
    return _packing(x, False)


def _packing(x: Wires, up: bool) -> MorD:
    if len(x) == 0:
        return IdD(())
    if len(x) == 1:
        label = x[0]
        if isinstance(label, Unit):
            return UnitIntro() if up else UnitElim()
        if isinstance(label, Base):
            return IdD((label,))
        if isinstance(label, Tensor):
            halves = TensorD(_packing((label.left,), up),
                             _packing((label.right,), up))
            fuse = (Pack if up else Unpack)(label.left, label.right)
            return CompD(halves, fuse) if up else CompD(fuse, halves)
        raise TypeError(label)
    return TensorD(_packing(x[:1], up), _packing(x[1:], up))


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
    """Rewrites actually made: cancelled pairs, swaps and their events.  An
    adapter-only term is presented without rewriting, so it reports no
    pairs, no swaps, one event, and never exhausts a step budget.  Events
    are kept as made, a cancellation as ``(first, second, wire)`` and an
    adapter-only outcome as text; ``trace`` renders them, one line each."""
    cancelled_pairs: int = 0
    swaps: int = 0
    events: list = field(default_factory=list)

    @property
    def trace(self) -> list[str]:
        return [e if isinstance(e, str) else
                f"cancel {_gen_name(e[0])}/{_gen_name(e[1])} at wire {e[2]}"
                for e in self.events]


def _tick(stats: RewriteStats, max_steps: int | None) -> None:
    """Allow one more rewrite, or raise once ``max_steps`` are made."""
    if max_steps is not None and \
            stats.cancelled_pairs + stats.swaps >= max_steps:
        raise RewriteBudgetExceeded("rewrite step budget exhausted")


def _expand(f: MorC, sig: Signature) -> tuple[MorD, ObjC, ObjC]:
    """Strict image of ``f`` with lifts left only around generators, and
    the ends of ``f``, built bottom-up: ``f`` must be well typed.

    Tensors unpack, act on both wires, and repack; the associator and
    unitor images are the fixed composites whose orientation is the one
    that typechecks.
    """
    if isinstance(f, Id):
        return IdD((f.obj,)), f.obj, f.obj
    if isinstance(f, Gen):
        return (Lift(f),) + sig.generators[f.name]
    if isinstance(f, Comp):
        t1, d1, _ = _expand(f.first, sig)
        t2, _, c2 = _expand(f.second, sig)
        return CompD(t1, t2), d1, c2
    if isinstance(f, TensorM):
        t1, d1, c1 = _expand(f.left, sig)
        t2, d2, c2 = _expand(f.right, sig)
        return (chain_d(Unpack(d1, d2), TensorD(t1, t2), Pack(c1, c2)),
                Tensor(d1, d2), Tensor(c1, c2))
    if isinstance(f, Assoc):
        bc, ab = Tensor(f.b, f.c), Tensor(f.a, f.b)
        return chain_d(
            Unpack(f.a, bc),
            TensorD(IdD((f.a,)), Unpack(f.b, f.c)),
            TensorD(Pack(f.a, f.b), IdD((f.c,))),
            Pack(ab, f.c)), Tensor(f.a, bc), Tensor(ab, f.c)
    if isinstance(f, AssocInv):
        bc, ab = Tensor(f.b, f.c), Tensor(f.a, f.b)
        return chain_d(
            Unpack(ab, f.c),
            TensorD(Unpack(f.a, f.b), IdD((f.c,))),
            TensorD(IdD((f.a,)), Pack(f.b, f.c)),
            Pack(f.a, bc)), Tensor(ab, f.c), Tensor(f.a, bc)
    if isinstance(f, UnitL):
        return (CompD(Unpack(UNIT, f.obj), TensorD(UnitElim(), IdD((f.obj,)))),
                Tensor(UNIT, f.obj), f.obj)
    if isinstance(f, UnitLInv):
        return (CompD(TensorD(UnitIntro(), IdD((f.obj,))), Pack(UNIT, f.obj)),
                f.obj, Tensor(UNIT, f.obj))
    if isinstance(f, UnitR):
        return (CompD(Unpack(f.obj, UNIT), TensorD(IdD((f.obj,)), UnitElim())),
                Tensor(f.obj, UNIT), f.obj)
    if isinstance(f, UnitRInv):
        return (CompD(TensorD(IdD((f.obj,)), UnitIntro()), Pack(f.obj, UNIT)),
                f.obj, Tensor(f.obj, UNIT))
    raise TypeError(f)


def _cancel_and_slide(recs: list, max_steps: int | None,
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
                _tick(stats, max_steps)
                stats.cancelled_pairs += 1
                stats.events.append((g1, g2, p1))
                del recs[i:i + 2]
                i = max(i - 1, 0)
                changed = True
            else:
                i += 1
        for i in range(len(recs) - 1):
            p1, g1, d1, c1 = recs[i]
            p2, _, d2, c2 = recs[i + 1]
            if p2 + len(d2) <= p1:
                _tick(stats, max_steps)
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
    """Normalise ``t``: slice, expand lifted composites, cancel adapters.

    Adapter-only terms are presented canonically without rewriting: the
    identity when the endpoints coincide, otherwise ``unpack(dom) ;
    pack(cod)``.  Coherence of the adapter fragment (every adapter-only
    arrow equals the canonical one) licenses this.  Only when a lifted
    generator remains does the cancel/swap loop run, bounded by
    ``max_steps``; the result is recomposed from its slices.
    """
    stats = RewriteStats()
    dom, cod, given = _records(t, sig)
    recs = []
    for pos, gen, d, c in given:
        if isinstance(gen, Lift) and not isinstance(gen.mor, Gen):
            _, _, sub = _record_walk(_expand(gen.mor, sig)[0], sig)
            recs += [(pos + p, g, gd, gc) for p, g, gd, gc in sub]
        else:
            recs.append((pos, gen, d, c))
    if any(isinstance(gen, Lift) for _, gen, _, _ in recs):
        recs = _cancel_and_slide(recs, max_steps, stats)
        return recompose(_slices(recs, dom), dom), stats
    if dom == cod:
        stats.events.append("adapter-only endpoints coincide: identity")
        return IdD(dom), stats
    stats.events.append("adapter-only: canonical presentation")
    return canonical_d(dom, cod), stats
