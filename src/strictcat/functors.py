"""The two directions of the strictification equivalence.

``strictify_shallow`` lifts a morphism onto a single wire;
``strictify_expand`` pushes it all the way down to adapters around the
signature generators.  ``nonstrictify`` reads a strict term back as a
morphism of the underlying category from its sequential normal form,
one slice at a time.  ``psi_big``/``psi_small`` and
``epsilon``/``eta`` are the coherence data making both directions
monoidal and mutually inverse up to isomorphism.  ``right_nesting``
builds, by induction on a label, the structural arrow from it to the
right-nested tensor of its base leaves and back, through ``psi_big`` and
``psi_big_inv``; canonical natural isomorphisms are made of these.

Each layer stores what it knows about the term it builds on the term
(``terms._Composite``): ``strictify_expand`` its output's diagram (ends,
the boxes of its input, adapter count) for ``strict.normalize_adapters``,
which stores its output's slices for ``nonstrictify`` and
``render.layout``.  So strictifying, normalising and reading back any
number of terms walks no expansion and no normal form.  ``nonstrictify``
stores its output's typed walk, so a term that contains the read-back
(a canonical isomorphism after a structural walk) walks only the rest.
"""

from __future__ import annotations

from .terms import (
    UNIT, Assoc, AssocInv, Base, Comp, Id, MorC, ObjC, Signature, Tensor,
    TensorM, UnitL, UnitLInv, UnitR, UnitRInv, _box_walk, _boxes, _set,
    _store, chain_c, flatten, typecheck_c,
)
from .strict import (
    CompD, IdD, Lift, MorD, Pack, TensorD, UnitElim, UnitIntro, Unpack,
    Wires, _expand, _label_packing, _lift_boxes, seq_normal_form,
)


def strictify_shallow(f: MorC, sig: Signature) -> MorD:
    """Lift ``f`` onto a single wire."""
    typecheck_c(f, sig)
    return Lift(f)


def strictify_expand(f: MorC, sig: Signature) -> MorD:
    """Strictify ``f`` leaving lifts only around signature generators.
    Only the root is typechecked, by one typed walk that also lists its
    boxes; the expansion builds each subterm's ends from its children's,
    so a deep tensor costs one walk.  The expansion's diagram, whose boxes
    are those of ``f``, is stored on it for the normaliser."""
    dom, cod, boxes = _boxes(f, sig)
    t, _, _, adapters = _expand(f, sig)
    _store(t, (sig, ((dom,), (cod,), boxes or None, adapters), None))
    return t


# ---------------------------------------------------------------------------
# Nonstrictification

def obj_nonstrictify(x: Wires) -> ObjC:
    """Read a wire sequence as a right-nested tensor; empty is the unit."""
    if not x:
        return UNIT
    out = x[-1]
    for label in reversed(x[:-1]):
        out = Tensor(label, out)
    return out


def _g_generator(gen: MorD) -> MorC:
    # Bare generator, no padding on either side.
    if isinstance(gen, Lift):
        return gen.mor
    if isinstance(gen, (Pack, Unpack)):
        return Id(Tensor(gen.left, gen.right))
    if isinstance(gen, (UnitIntro, UnitElim)):
        return Id(UNIT)
    raise TypeError(gen)


def _g_generator_padded(gen: MorD, right: Wires) -> MorC:
    # Generator tensored with a nonempty identity on the right.
    y = obj_nonstrictify(right)
    if isinstance(gen, Lift):
        return TensorM(gen.mor, Id(y))
    if isinstance(gen, Pack):
        return Assoc(gen.left, gen.right, y)
    if isinstance(gen, Unpack):
        return AssocInv(gen.left, gen.right, y)
    if isinstance(gen, UnitIntro):
        return UnitLInv(y)
    if isinstance(gen, UnitElim):
        return UnitL(y)
    raise TypeError(gen)


def _g_last(a: ObjC, gen: MorD) -> MorC:
    # Single identity wire on the left, generator last.
    if isinstance(gen, Lift):
        return TensorM(Id(a), gen.mor)
    if isinstance(gen, (Pack, Unpack)):
        return TensorM(Id(a), TensorM(Id(gen.left), Id(gen.right)))
    if isinstance(gen, UnitIntro):
        return UnitRInv(a)
    if isinstance(gen, UnitElim):
        return UnitR(a)
    raise TypeError(gen)


def _g_slice(left: Wires, gen: MorD, right: Wires) -> MorC:
    # The generator with what is right of it, then one identity wire
    # tensored on the left per wire of ``left``, innermost first.
    if right:
        out = _g_generator_padded(gen, right)
    elif left:
        out, left = _g_last(left[-1], gen), left[:-1]
    else:
        out = _g_generator(gen)
    for a in reversed(left):
        out = TensorM(Id(a), out)
    return out


def nonstrictify(t: MorD, sig: Signature) -> MorC:
    """Map a strict term back into the underlying category.

    Works slice by slice over the sequential normal form; each slice is
    its generator, with separate cases for no, one and more wires beside
    it, under one identity wire per wire on its left.  The output stores
    its typed walk: its ends, and each lift's boxes past the wires left.
    """
    nf = seq_normal_form(t, sig)
    ends = obj_nonstrictify(nf.dom), obj_nonstrictify(nf.cod)
    out = (chain_c(*(_g_slice(s.left, s.gen, s.right) for s in nf.slices))
           if nf.slices else Id(ends[0]))
    boxes = _lift_boxes(nf.slices, (_box_walk(s.gen.mor, sig)[2]
                                    for s in nf.slices
                                    if isinstance(s.gen, Lift)))
    _store(out, (sig, (*ends, boxes), None))
    return out


# ---------------------------------------------------------------------------
# Coherence data

def psi_big(x: Wires, y: Wires) -> MorC:
    """Coherence iso ``G(x) * G(y) -> G(x ++ y)`` of nonstrictification."""
    return _psi_big_pair(x, y)[0]


def psi_big_inv(x: Wires, y: Wires) -> MorC:
    """The inverse ``G(x ++ y) -> G(x) * G(y)`` of ``psi_big(x, y)``."""
    return _psi_big_pair(x, y)[1]


def _psi_big_pair(x: Wires, y: Wires) -> tuple[MorC, MorC]:
    # ``psi_big`` and its inverse, built by one loop
    if not x and not y:  # the left unitor equals the right one at the unit
        return UnitL(UNIT), UnitLInv(UNIT)
    if not y:
        gx = obj_nonstrictify(x)
        return UnitR(gx), UnitRInv(gx)
    gy = obj_nonstrictify(y)
    if not x:
        return UnitL(gy), UnitLInv(gy)
    rest = x[-1]
    out = inv = Id(Tensor(rest, gy))
    for head in reversed(x[:-1]):  # ``rest`` is G of the wires after it
        out = Comp(AssocInv(head, rest, gy), TensorM(Id(head), out))
        inv = Comp(TensorM(Id(head), inv), Assoc(head, rest, gy))
        rest = Tensor(head, rest)
    return out, inv


def right_nesting(a: ObjC) -> tuple[MorC, MorC]:
    """The structural arrow ``a -> G(w)``, where ``w`` is the wire
    sequence of the base leaves of ``a``, and its inverse.

    Built by induction on the label: a base or the unit gives the
    identity, and a tensor ``l * r`` gives ``(rn(l) * rn(r)) ;
    psi_big(w(l), w(r))``, its inverse built from the halves' inverses
    and ``psi_big_inv``.  A tensor label stores the pair after its
    adapter pair (``strict._label_packing``) on first use, so later
    calls build nothing.
    """
    stored = a.packing
    if stored is not None and len(stored) == 4:
        return stored[2:]
    made: dict = {}  # label -> (arrow, inverse, its base leaves as wires)
    stack = [a]
    while stack:
        node = stack.pop()
        if node in made:
            continue
        if not isinstance(node, Tensor):
            made[node] = (Id(node), Id(node),
                          (node,) if isinstance(node, Base) else ())
            continue
        stored = node.packing
        if stored is not None and len(stored) == 4:
            made[node] = (*stored[2:], tuple(map(Base, flatten(node))))
            continue
        l, r = node.left, node.right
        if l not in made or r not in made:
            stack += (node, r, l)
            continue
        (fl, il, x), (fr, ir, y) = made[l], made[r]
        psi, inv = _psi_big_pair(x, y)
        pair = Comp(TensorM(fl, fr), psi), Comp(inv, TensorM(il, ir))
        _set(node, "packing", (*_label_packing(node)[:2], *pair))
        made[node] = (*pair, x + y)
    return made[a][:2]


def psi_small() -> MorC:
    return Id(UNIT)


def eta(a: ObjC) -> MorC:
    """Unit of the equivalence: the identity, componentwise."""
    return Id(a)


def epsilon(x: Wires) -> MorD:
    """Counit component ``F(G(x)) -> x``, unpacking one wire at a time."""
    if not x:
        return UnitElim()
    rest = x[-1]
    out = IdD((rest,))
    for head in reversed(x[:-1]):  # ``rest`` is G of the wires after it
        out = CompD(Unpack(head, rest), TensorD(IdD((head,)), out))
        rest = Tensor(head, rest)
    return out

