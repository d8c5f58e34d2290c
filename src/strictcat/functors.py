"""The two directions of the strictification equivalence.

``strictify_shallow`` lifts a morphism onto a single wire;
``strictify_expand`` pushes it all the way down to adapters around the
signature generators.  ``nonstrictify`` reads a strict term back as a
morphism of the underlying category by recursing over its sequential
normal form, one slice at a time.  ``psi_big``/``psi_small`` and
``epsilon``/``eta`` are the coherence data making both directions
monoidal and mutually inverse up to isomorphism.
"""

from __future__ import annotations

from .terms import (
    UNIT, Assoc, AssocInv, Comp, Id, MorC, ObjC, Signature, Tensor,
    TensorM, UnitL, UnitLInv, UnitR, UnitRInv, chain_c, typecheck_c,
)
from .strict import (
    CompD, IdD, Lift, MorD, Pack, TensorD, UnitElim, UnitIntro, Unpack,
    Wires, _expand, seq_normal_form,
)


def strictify_shallow(f: MorC, sig: Signature) -> MorD:
    """Lift ``f`` onto a single wire."""
    typecheck_c(f, sig)
    return Lift(f)


def strictify_expand(f: MorC, sig: Signature) -> MorD:
    """Strictify ``f`` leaving lifts only around signature generators."""
    typecheck_c(f, sig)
    return _expand(f, sig)


# ---------------------------------------------------------------------------
# Nonstrictification

def obj_nonstrictify(x: Wires) -> ObjC:
    """Read a wire sequence as a right-nested tensor; empty is the unit."""
    if len(x) == 0:
        return UNIT
    if len(x) == 1:
        return x[0]
    return Tensor(x[0], obj_nonstrictify(x[1:]))


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
    if len(left) == 1 and not right:
        return _g_last(left[0], gen)
    if left:
        return TensorM(Id(left[0]), _g_slice(left[1:], gen, right))
    if right:
        return _g_generator_padded(gen, right)
    return _g_generator(gen)


def nonstrictify(t: MorD, sig: Signature) -> MorC:
    """Map a strict term back into the underlying category.

    Works slice by slice over the sequential normal form; each slice is
    a list recursion with separate cases for one, two and n wires.
    """
    nf = seq_normal_form(t, sig)
    if not nf.slices:
        return Id(obj_nonstrictify(nf.dom))
    return chain_c(*(_g_slice(s.left, s.gen, s.right) for s in nf.slices))


# ---------------------------------------------------------------------------
# Coherence data

def psi_big(x: Wires, y: Wires) -> MorC:
    """Coherence iso ``G(x) * G(y) -> G(x ++ y)`` of nonstrictification."""
    if not x and not y:
        return UnitL(UNIT)  # equals the right unitor at the unit object
    if not y:
        return UnitR(obj_nonstrictify(x))
    if not x:
        return UnitL(obj_nonstrictify(y))
    if len(x) == 1:
        return Id(Tensor(x[0], obj_nonstrictify(y)))
    head, rest = x[0], x[1:]
    return Comp(
        AssocInv(head, obj_nonstrictify(rest), obj_nonstrictify(y)),
        TensorM(Id(head), psi_big(rest, y)))


def psi_small() -> MorC:
    return Id(UNIT)


def eta(a: ObjC) -> MorC:
    """Unit of the equivalence: the identity, componentwise."""
    return Id(a)


def epsilon(x: Wires) -> MorD:
    """Counit component ``F(G(x)) -> x``, unpacking one wire at a time."""
    if len(x) == 0:
        return UnitElim()
    if len(x) == 1:
        return IdD(x)
    head, rest = x[0], x[1:]
    return CompD(
        Unpack(head, obj_nonstrictify(rest)),
        TensorD(IdD((head,)), epsilon(rest)))

