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

A composed root (``CompD``) stores its diagram (ends, boxes, adapter
count) once walked (``terms._Composite``), and builders store what they
know: ``functors.strictify_expand`` hands its output's diagram to the
normaliser, which hands its output's slices to ``functors.nonstrictify``
and ``render.layout``.  No walk stores records or slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import (
    UNIT, Assoc, AssocInv, Base, Comp, Gen, Id, MorC, NotInvertible, ObjC,
    Signature, Tensor, TensorM, TermError, TypeMismatch, UnitL, UnitLInv,
    UnitR, UnitRInv, Unit, _box_walk, _Composite, _fact, _INVERSE,
    _leaf_names, _PARS, _placed, _postorder, _SEQS, _store, _stored_walk,
    _Term, invert_structural, path_to, show_obj, validate_obj,
)

Wires = tuple  # tuple[ObjC, ...]


class FlatteningMismatch(TermError):
    pass


# ---------------------------------------------------------------------------
# Morphism terms

@dataclass(frozen=True, slots=True)
class IdD:
    wires: Wires


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Lift(_Term):
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


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class CompD(_Composite, _Term):
    first: "MorD"
    second: "MorD"


# No ``facts`` slot: every strict builder returns a composition, so a
# tensor root is a user's term or one slice, and tensors, which pad each
# slice with identities, are most of a strict term's nodes.
@dataclass(frozen=True, slots=True, eq=False, repr=False)
class TensorD(_Term):
    left: "MorD"
    right: "MorD"


MorD = IdD | Lift | Pack | Unpack | UnitIntro | UnitElim | CompD | TensorD
_SEQS.add(CompD)  # so that ``terms._postorder`` walks strict terms too
_PARS.add(TensorD)


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
    """Return (dom, cod) wire sequences of ``t``, read from its diagram."""
    dom, cod, _, _ = _diagram(t, sig)
    return dom, cod


def _gen_ends(g: MorD, sig: Signature) -> tuple[Wires, Wires, tuple | None]:
    """(dom, cod, boxes) of one generator node: a lifted morphism's boxes
    as ``terms._box_walk`` lists them, None for an adapter.  A lifted
    composite is typechecked by the walk that stores nothing: it is a
    subterm, not the root of a call."""
    if isinstance(g, Lift):
        d, c, boxes = _box_walk(g.mor, sig)
        return (d,), (c,), boxes
    if isinstance(g, Pack):
        return (g.left, g.right), (Tensor(g.left, g.right),), None
    if isinstance(g, Unpack):
        return (Tensor(g.left, g.right),), (g.left, g.right), None
    if isinstance(g, UnitIntro):
        return (), (UNIT,), None
    if isinstance(g, UnitElim):
        return (UNIT,), (), None
    raise TypeError(g)


# Each adapter type and the type of its inverse, which has the same fields.
_INVERSE.update({IdD: IdD, Pack: Unpack, Unpack: Pack,
                 UnitIntro: UnitElim, UnitElim: UnitIntro})


def invert_d(t: MorD) -> MorD:
    """Formal inverse; defined when every lifted morphism is structural."""
    return invert_structural(t)


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


def seq_normal_form(t: MorD, sig: Signature) -> SeqNF:
    """Factor ``t`` into slices.

    The result composes back to a term equal to ``t`` modulo the strict
    monoidal axioms only (functoriality of tensor and interchange);
    identities contribute no slices, a tensor ``t ⊗ u`` factors as
    ``(t ⊗ id) ; (id ⊗ u)``.  The normaliser stores its output's slices
    on it, so ``nonstrictify`` and ``layout`` of a normal form do not walk
    it; any other term is walked, and nothing is stored.
    """
    nf = _fact(t, sig, 2)
    return _snf_walk(t, sig) if nf is None else nf


def _snf_walk(t: MorD, sig: Signature) -> SeqNF:
    """``seq_normal_form`` by walking ``t``; nothing is stored."""
    dom, _, recs, diff, _ = _record_walk(t, sig)
    return SeqNF(dom, _slices(_placed(recs, diff), dom))


def _record_walk(t: MorD, sig: Signature) -> tuple:
    """``(dom, cod, recs, diff, lifts)``: the ends of ``t``; its slices as
    records ``(gen, gen_dom, gen_cod)``, which ``terms._placed(recs, diff)``
    prefixes with the index of the first wire ``gen`` acts on; and the boxes
    of each lifted morphism in record order.  Nothing is stored."""
    recs: list = []
    lifts: list = []
    diff = [0]  # one more entry than recs; see ``terms._placed``
    ends: list = []  # (dom, cod, first record) of each finished subterm
    k = 0  # the number of records so far
    for u in _postorder(t):
        cls = type(u)
        if cls is IdD:
            ends.append((u.wires, u.wires, k))
        elif cls is CompD:
            d2, c2, _ = ends.pop()
            d1, c1, n = ends[-1]
            if c1 != d2:
                for x in c1 + d2:
                    validate_obj(x, sig)
                raise TypeMismatch(
                    path_to(t, u),
                    f"{show_wires(c1)} composed against {show_wires(d2)}")
            ends[-1] = d1, c2, n
        elif cls is TensorD:
            d2, c2, n2 = ends.pop()
            d1, c1, n = ends[-1]
            if c1 and k > n2:
                diff[n2] += len(c1)
                diff[k] -= len(c1)
            ends[-1] = d1 + d2, c1 + c2, n
        else:
            d, c, boxes = _gen_ends(u, sig)
            if boxes is not None:
                lifts.append(boxes)
            ends.append((d, c, k))
            recs.append((u, d, c))
            diff.append(0)
            k += 1
    dom, cod, _ = ends[0]
    for x in dom:  # the rule of ``terms._box_walk``
        validate_obj(x, sig)
    return dom, cod, recs, diff, lifts


def _slices(recs, dom: Wires) -> tuple[Slice, ...]:
    """Replay placed records from ``dom``, giving each its identity wires."""
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


def _lift_boxes(slices, lifts) -> tuple:
    """The boxes of the lifted morphisms of ``slices``, which ``lifts``
    gives in slice order, each moved past the base wires left of it: the
    boxes on base wires, as ``terms._boxes`` lists them."""
    lifts = iter(lifts)
    return tuple((sum(x.size for x in s.left) + p, *box)
                 for s in slices if isinstance(s.gen, Lift)
                 for p, *box in next(lifts))


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


def _label_packing(label: ObjC) -> tuple:
    """``(unpack_obj((label,)), pack_obj((label,)))``, or that pair followed
    by more arrows that ``functors.right_nesting`` stores after it.  A unit
    or tensor label stores its pair on first use, built from its halves'
    pairs, so later calls build nothing; a base label's pair is one fresh
    ``IdD``, which the label cannot store without referring to itself."""
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
            l, r = node.left, node.right
            (ul, pl, *_), (ur, pr, *_) = (
                (IdD((h,)),) * 2 if isinstance(h, Base) else h.packing
                for h in (l, r))
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


def _expand(f: MorC, sig: Signature) -> tuple[MorD, ObjC, ObjC, int]:
    """Strict image of ``f`` with lifts left only around generators, the
    ends of ``f`` and the number of adapters in the image, built
    bottom-up: ``f`` must be well typed.

    Tensors unpack, act on both wires, and repack; the associator and
    unitor images are the fixed composites whose orientation is the one
    that typechecks.
    """
    out: list = []  # (image, dom, cod, adapters) of each finished subterm
    for u in _postorder(f):
        cls = type(u)
        if cls is Comp:
            t2, _, c2, n2 = out.pop()
            t1, d1, _, n1 = out[-1]
            out[-1] = CompD(t1, t2), d1, c2, n1 + n2
        elif cls is TensorM:
            t2, d2, c2, n2 = out.pop()
            t1, d1, c1, n1 = out[-1]
            out[-1] = (chain_d(Unpack(d1, d2), TensorD(t1, t2), Pack(c1, c2)),
                       Tensor(d1, d2), Tensor(c1, c2), n1 + n2 + 2)
        elif cls is Id:
            out.append((IdD((u.obj,)), u.obj, u.obj, 0))
        elif cls is Gen:
            out.append((Lift(u), *sig.generators[u.name], 0))
        elif cls is Assoc:
            bc, ab = Tensor(u.b, u.c), Tensor(u.a, u.b)
            out.append((chain_d(
                Unpack(u.a, bc),
                TensorD(IdD((u.a,)), Unpack(u.b, u.c)),
                TensorD(Pack(u.a, u.b), IdD((u.c,))),
                Pack(ab, u.c)), Tensor(u.a, bc), Tensor(ab, u.c), 4))
        elif cls is AssocInv:
            bc, ab = Tensor(u.b, u.c), Tensor(u.a, u.b)
            out.append((chain_d(
                Unpack(ab, u.c),
                TensorD(Unpack(u.a, u.b), IdD((u.c,))),
                TensorD(IdD((u.a,)), Pack(u.b, u.c)),
                Pack(u.a, bc)), Tensor(ab, u.c), Tensor(u.a, bc), 4))
        elif cls is UnitL:
            x = u.obj
            out.append((CompD(Unpack(UNIT, x), TensorD(UnitElim(), IdD((x,)))),
                        Tensor(UNIT, x), x, 2))
        elif cls is UnitLInv:
            x = u.obj
            out.append((CompD(TensorD(UnitIntro(), IdD((x,))), Pack(UNIT, x)),
                        x, Tensor(UNIT, x), 2))
        elif cls is UnitR:
            x = u.obj
            out.append((CompD(Unpack(x, UNIT), TensorD(IdD((x,)), UnitElim())),
                        Tensor(x, UNIT), x, 2))
        elif cls is UnitRInv:
            x = u.obj
            out.append((CompD(TensorD(IdD((x,)), UnitIntro()), Pack(x, UNIT)),
                        x, Tensor(x, UNIT), 2))
        else:
            raise TypeError(u)
    return out[0]


def left_normal_form(items, cancels=None) -> tuple[list, int]:
    """``items`` after left exchanges until none applies, and the steps
    taken: exchanges and cancellations.

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
    steps = 0
    for item in items:
        p2, x2, i2, o2 = item
        j, cancel = len(out), False
        while j:
            p1, x1, i1, o1 = out[j - 1]
            cancel = p1 == p2 and cancels is not None and cancels(x1, x2)
            if not cancel and (p2 + i2 > p1 or
                               (p2 + i2 == p1 and i1 == 0 and o2 == 0)):
                break
            steps += 1
            if cancel:
                del out[j - 1]
                break
            out[j - 1] = (p1 - i2 + o2, x1, i1, o1)
            j -= 1
        if not cancel:
            out.insert(j, item)
    return out, steps


def _diagram(t: MorD, sig: Signature) -> tuple[Wires, Wires, tuple | None, int]:
    """``_diagram_walk(t, sig)``, stored on ``t``, so ``typecheck_d`` and
    ``normalize_adapters`` on one term walk it once.  The boxes of
    ``strictify_expand(f)`` are those of ``f``, in order, so the expansion
    stores its diagram and normalising it walks nothing."""
    return _stored_walk(_diagram_walk, t, sig)


def _diagram_walk(t: MorD, sig: Signature) -> tuple:
    """``(dom, cod, boxes, adapters)`` of ``t``: its ends; the generator
    boxes of its slices on base wires (``_lift_boxes``), or ``None`` when
    no lifted morphism has a generator; and its number of adapter records."""
    dom, cod, recs, diff, lifts = _record_walk(t, sig)
    adapters = len(recs) - len(lifts)
    if not any(lifts):
        return dom, cod, None, adapters
    slices = _slices(_placed(recs, diff), dom)
    return dom, cod, _lift_boxes(slices, lifts), adapters


def _packing_items(x: Wires, up: bool, at: int, out: list) -> None:
    """Append the records of ``pack_obj(x)``, or of ``unpack_obj(x)`` when
    not ``up``, moved to ``at``, as ``left_normal_form`` items; ``todo``
    holds the labels and packs to come, a tensor's halves before its pack."""
    todo = []
    for label in x:
        todo.append((at, label))
        at += 1 if up else label.size
    todo.reverse()
    while todo:
        at, label = todo.pop()
        if isinstance(label, tuple):
            out.append(label)
        elif isinstance(label, Unit):
            out.append((at, (UnitIntro(), (), (label,)), 0, 1) if up else
                       (at, (UnitElim(), (label,), ()), 1, 0))
        elif isinstance(label, Tensor):
            halves = l, r = label.left, label.right
            if up:
                todo += ((at, (at, (Pack(l, r), halves, (label,)), 2, 1)),
                         (at + 1, r), (at, l))
            else:
                out.append((at, (Unpack(l, r), (label,), halves), 1, 2))
                todo += ((at + l.size, r), (at, l))


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


def normalize_adapters(t: MorD, sig: Signature) -> MorD:
    return normalize_adapters_with_stats(t, sig)[0]


def normalize_adapters_with_stats(t: MorD,
                                  sig: Signature) -> tuple[MorD, RewriteStats]:
    """Normalise ``t`` to a function of its endpoints and its diagram.

    A term with no lifted generator is presented canonically, without
    rewriting: the identity when the endpoints coincide, otherwise
    ``unpack(dom) ; pack(cod)``, as coherence of the adapter fragment
    allows.  Any other term is read back from the left normal form of its
    boxes on base wires, the one ``equal_structural`` compares, and one
    more left insertion cancels inverse adapters it brings together.
    The output's slices are stored on it as its ``seq_normal_form``.
    """
    stats = RewriteStats()
    dom, cod, boxes, adapters = _diagram(t, sig)
    if boxes is not None:
        boxes, swaps = left_normal_form(boxes)
        items = _read_back(dom, cod, boxes, sig)
        # items met at one offset compose, so their types decide a cancel
        out, steps = left_normal_form(
            items, lambda a, b: _INVERSE.get(type(a[0])) is type(b[0]))
        stats.swaps = swaps + steps - (len(items) - len(out)) // 2
        stats.cancelled_pairs = max(adapters + len(boxes) - len(out), 0) // 2
        stats.events = boxes
        slices = _slices([(p, *x) for p, x, _, _ in out], dom)
        term = recompose(slices, dom)
        _store(term, (sig, None, SeqNF(dom, slices)))
        return term, stats
    if dom == cod:
        stats.events.append("adapter-only endpoints coincide: identity")
        return IdD(dom), stats
    stats.events.append("adapter-only: canonical presentation")
    return canonical_d(dom, cod), stats
