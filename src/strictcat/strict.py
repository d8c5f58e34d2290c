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

Every term factors into slices ``id ⊗ generator ⊗ id`` (its *sequential
normal form*), kept as position records (where each generator starts, no
identity wires) until a result needs ``Slice`` objects.  A term's normal
form is read back from its diagram: the generator boxes on base wires in
the left normal form that equality also decides on (strict interchange,
Delpeuch & Vicary), each box packed, lifted and unpacked at its offset,
then one more left-insertion pass that cancels inverse adapters it
brings together.  A term with no lifted generator needs no rewriting:
coherence of the adapter fragment gives its normal form directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import (
    UNIT, Assoc, AssocInv, Base, Comp, Gen, Id, MorC, ObjC, Signature, Tensor,
    TensorM, TermError, TypeMismatch, UnitL, UnitLInv, UnitR, UnitRInv,
    Unit, UnknownName, _box_walk, _leaf_names, invert_structural,
    is_structural, memo_roots, objsize, path_to, show_obj,
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

@dataclass(frozen=True, slots=True)
class IdD:
    wires: Wires


@dataclass(frozen=True, slots=True)
class Lift:
    mor: MorC


@dataclass(frozen=True, slots=True)
class Pack:
    left: ObjC
    right: ObjC


@dataclass(frozen=True, slots=True)
class Unpack:
    left: ObjC
    right: ObjC


@dataclass(frozen=True, slots=True)
class UnitIntro:
    pass


@dataclass(frozen=True, slots=True)
class UnitElim:
    pass


@dataclass(frozen=True, slots=True)
class CompD:
    first: "MorD"
    second: "MorD"


@dataclass(frozen=True, slots=True)
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
    return _leaf_names(w)


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
        return _INVERSE[type(t)](*(getattr(t, f) for f in t.__slots__))
    if isinstance(t, CompD):
        return CompD(invert_d(t.second), invert_d(t.first))
    if isinstance(t, TensorD):
        return TensorD(invert_d(t.left), invert_d(t.right))
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Sequential normal form

@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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

    Built by induction on each wire label: a unit label is summoned from
    nothing, a base label is left alone, a tensor label is built from its
    halves and fused.  The wires' adapters are tensored right-nested.
    """
    return _packing(x, True)


def unpack_obj(x: Wires) -> MorD:
    """The inverse of ``pack_obj(x)``, built by the same induction."""
    return _packing(x, False)


def _packing(x: Wires, up: bool) -> MorD:
    if not x:
        return IdD(())
    side = 1 if up else 0
    out = _label_packing(x[-1])[side]
    for label in reversed(x[:-1]):
        out = TensorD(_label_packing(label)[side], out)
    return out


def _label_packing(label: ObjC) -> tuple[MorD, MorD]:
    """``(unpack_obj((label,)), pack_obj((label,)))``.  A unit or tensor
    label stores its pair on first use, built from its halves' pairs, so
    later calls build nothing; a base label's pair is one fresh ``IdD``,
    which the label cannot store without referring to itself."""
    if isinstance(label, Base):
        idd = IdD((label,))
        return idd, idd
    stack = [label]
    while stack:
        node = stack[-1]
        if node.packing is not None:
            stack.pop()
        elif isinstance(node, Unit):
            object.__setattr__(node, "packing", (UnitElim(), UnitIntro()))
        else:
            todo = [h for h in (node.right, node.left)
                    if not isinstance(h, Base) and h.packing is None]
            if todo:
                stack += todo
                continue
            (ul, pl), (ur, pr) = map(_label_packing, (node.left, node.right))
            l, r = node.left, node.right
            object.__setattr__(node, "packing", (
                CompD(Unpack(l, r), TensorD(ul, ur)),
                CompD(TensorD(pl, pr), Pack(l, r))))
    return label.packing


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
    if isinstance(down, IdD):
        return up
    if isinstance(up, IdD):
        return down
    return CompD(down, up)


# ---------------------------------------------------------------------------
# Normalisation

@dataclass
class RewriteStats:
    """What normalising did: ``swaps`` left exchanges; ``cancelled_pairs``
    adapter pairs saved against the input (half the drop in adapter count,
    never below 0); ``events`` the normal form's boxes ``(offset, name,
    n_in, n_out)`` on base wires, or one line for an adapter-only term."""
    cancelled_pairs: int = 0
    swaps: int = 0
    events: list = field(default_factory=list)

    @property
    def trace(self) -> list[str]:
        return [e if isinstance(e, str) else
                f"lift({e[1]}) at base wire {e[0]}" for e in self.events]


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


def left_normal_form(items, cancels=None, max_steps: int | None = None,
                     steps: int = 0) -> tuple[list, int]:
    """``items`` after left exchanges until none applies, and ``steps``
    plus the steps taken: exchanges and cancellations, at most
    ``max_steps`` in all, or ``RewriteBudgetExceeded`` is raised.

    An item ``(offset, payload, n_in, n_out)`` takes ``n_in`` wires from
    ``offset`` on and puts ``n_out`` in their place.  A left exchange
    swaps two consecutive items when the later one takes its inputs from
    wires left of the earlier one's outputs (strict interchange): the
    later item keeps its offset and the earlier one moves by the later
    one's change of width.  Each item is inserted in turn and exchanged
    leftwards as far as it goes, in at most quadratic time; two items met
    at one offset whose payloads satisfy ``cancels`` are both dropped.
    When the earlier item has no inputs, the later one no outputs and they
    touch, the exchange would also apply backwards; such a pair has no
    canonical order, so it stays as it is.
    """
    out: list = []
    for item in items:
        p2, x2, i2, o2 = item
        j, cancel = len(out), False
        while j:
            p1, x1, i1, o1 = out[j - 1]
            cancel = p1 == p2 and cancels is not None and cancels(x1, x2)
            if not cancel and (p2 + i2 > p1 or
                               (p2 + i2 == p1 and i1 == 0 and o2 == 0)):
                break
            if max_steps is not None and steps >= max_steps:
                raise RewriteBudgetExceeded("rewrite step budget exhausted")
            steps += 1
            if cancel:
                del out[j - 1]
                break
            out[j - 1] = (p1 - i2 + o2, x1, i1, o1)
            j -= 1
        if not cancel:
            out.insert(j, item)
    return out, steps


def _base_boxes(dom: Wires, recs, sig: Signature) -> list:
    """The generator boxes of ``recs`` replayed from ``dom``, on base wires
    as ``terms._boxes`` lists them: each lifted morphism gives its own."""
    widths = [objsize(x) for x in dom]
    boxes: list = []
    for pos, gen, d, c in recs:
        if isinstance(gen, Lift):
            at = sum(widths[:pos])
            boxes += [(at + p, name, i, o)
                      for p, name, i, o in _box_walk(gen.mor, sig)[2]]
        if isinstance(gen, Pack):
            widths[pos:pos + 2] = [widths[pos] + widths[pos + 1]]
        else:
            widths[pos:pos + len(d)] = [objsize(x) for x in c]
    return boxes


def _packing_items(x: Wires, up: bool, at: int, out: list) -> None:
    """Append the records of ``pack_obj(x)``, or of ``unpack_obj(x)`` when
    not ``up``, moved to ``at``, as ``left_normal_form`` items."""
    for label in x:
        if isinstance(label, Unit):
            out.append((at, (UnitIntro(), (), (label,)), 0, 1) if up else
                       (at, (UnitElim(), (label,), ()), 1, 0))
        elif isinstance(label, Tensor):
            halves = (label.left, label.right)
            if not up:
                out.append((at, (Unpack(*halves), (label,), halves), 1, 2))
            _packing_items(halves, up, at, out)
            if up:
                out.append((at, (Pack(*halves), halves, (label,)), 2, 1))
        at += 1 if up else objsize(label)


def _read_back(dom: Wires, cod: Wires, boxes, sig: Signature) -> list:
    """Items of ``unpack_obj(dom)``, then of ``pack_obj((d,)) ; lift(g) ;
    unpack_obj((c,))`` for each box ``g : d -> c`` at its base offset, then
    of ``pack_obj(cod)``, at the positions their records have.  Each
    generator's items are built once, at offset 0, and shifted."""
    items: list = []
    _packing_items(dom, False, 0, items)
    made: dict = {}
    for at, name, _, _ in boxes:
        if name not in made:
            d, c = sig.generators[name]
            made[name] = box = []
            _packing_items((d,), True, 0, box)
            box.append((0, (Lift(Gen(name)), (d,), (c,)), 1, 1))
            _packing_items((c,), False, 0, box)
        items += [(p + at, x, i, o) for p, x, i, o in made[name]]
    _packing_items(cod, True, 0, items)
    return items


def normalize_adapters(t: MorD, sig: Signature,
                       max_steps: int | None = None) -> MorD:
    term, _ = normalize_adapters_with_stats(t, sig, max_steps)
    return term


def normalize_adapters_with_stats(
        t: MorD, sig: Signature,
        max_steps: int | None = None) -> tuple[MorD, RewriteStats]:
    """Normalise ``t`` to a function of its endpoints and its diagram.

    A term with no lifted generator is presented canonically, without
    rewriting: the identity when the endpoints coincide, otherwise
    ``unpack(dom) ; pack(cod)``, as coherence of the adapter fragment
    allows.  Any other term is read back from the left normal form of its
    boxes on base wires, the one ``equal_structural`` compares, and one
    more left insertion cancels inverse adapters it brings together.
    ``max_steps`` bounds the exchanges and cancellations of both passes.
    """
    stats = RewriteStats()
    dom, cod, recs = _records(t, sig)
    if any(isinstance(g, Lift) and not is_structural(g.mor)
           for _, g, _, _ in recs):
        boxes, steps = left_normal_form(_base_boxes(dom, recs, sig), None,
                                        max_steps)
        items = _read_back(dom, cod, boxes, sig)
        # items met at one offset compose, so their types decide a cancel
        out, steps = left_normal_form(
            items, lambda a, b: _INVERSE.get(type(a[0])) is type(b[0]),
            max_steps, steps)
        out = [(p, *x) for p, x, _, _ in out]
        stats.swaps = steps - (len(items) - len(out)) // 2
        drop = sum(not isinstance(r[1], Lift) for r in recs) + len(boxes)
        stats.cancelled_pairs = max(drop - len(out), 0) // 2
        stats.events = boxes
        return recompose(_slices(out, dom), dom), stats
    if dom == cod:
        stats.events.append("adapter-only endpoints coincide: identity")
        return IdD(dom), stats
    stats.events.append("adapter-only: canonical presentation")
    return canonical_d(dom, cod), stats
