"""Worked constructions used by the CLI demo command and the test suite.

``parity_term`` builds the recursive parity circuit over a single-wire
bundle of bits: split one bit off the bundle, take the parity of the
rest, fuse the two results and apply the xor generator.  This is exactly
the kind of definition a strict wire-list language cannot express,
because it treats an n-bit bundle as a 1/(n-1) pair.  The circuit is
built bottom-up in a loop, so any number of bits works.

The ``ba_*`` builders encode the double-dual comparison map of a braided
autonomous category with three opaque generators (the two adjunction
witnesses and the braiding component).  ``ba_nonstrict`` is the fully
bracketed composite with every unitor and associator spelled out;
``ba_strict_direct`` is the same morphism written with the minimal
amount of wire bookkeeping.
"""

from __future__ import annotations

from .terms import (
    UNIT, Assoc, AssocInv, Base, Gen, Id, MorC, ObjC, Signature, Tensor,
    TensorM, UnitL, UnitLInv, chain_c, make_signature,
)
from .strict import (
    IdD, Lift, MorD, Pack, TensorD, UnitElim, UnitIntro, Unpack, chain_d,
)
from .functors import obj_nonstrictify

# ---------------------------------------------------------------------------
# Parity

BIT = Base("b")


def parity_signature() -> Signature:
    return make_signature(["b"], {"xor": (Tensor(BIT, BIT), BIT)})


def bit_bundle(n: int) -> ObjC:
    """Right-nested bundle of ``n`` bits, ``n >= 1``."""
    return obj_nonstrictify((BIT,) * n)


def parity_term(n: int) -> MorD:
    """Parity of an ``n``-bit bundle, one wire in and one wire out."""
    if n < 1:
        raise ValueError("parity needs at least one bit")
    out, rest = IdD((BIT,)), BIT
    for _ in range(n - 1):
        # ``out`` is the parity of ``rest``, a bundle of one bit fewer
        out = chain_d(
            Unpack(BIT, rest),
            TensorD(IdD((BIT,)), out),
            Pack(BIT, BIT),
            Lift(Gen("xor")))
        rest = Tensor(BIT, rest)
    return out


# ---------------------------------------------------------------------------
# Double-dual comparison map

A = Base("a")          # the object A
A_STAR = Base("a1")    # its dual
A_DSTAR = Base("a2")   # its double dual


def ba_signature() -> Signature:
    return make_signature(
        ["a", "a1", "a2"],
        {
            # adjunction unit at A: I -> A* (x) A
            "eta": (UNIT, Tensor(A_STAR, A)),
            # braiding component: A (x) A** -> A** (x) A
            "c": (Tensor(A, A_DSTAR), Tensor(A_DSTAR, A)),
            # adjunction counit at A*: A* (x) A** -> I
            "eps": (Tensor(A_STAR, A_DSTAR), UNIT),
        })


def ba_nonstrict() -> MorC:
    """The comparison map ``A** -> A`` with all bookkeeping explicit.

    Seven stages: summon the unit, apply eta beside the input, reassociate,
    braid in the middle, reassociate back, apply eps, dispel the unit.
    """
    return chain_c(
        UnitLInv(A_DSTAR),
        TensorM(Gen("eta"), Id(A_DSTAR)),
        AssocInv(A_STAR, A, A_DSTAR),
        TensorM(Id(A_STAR), Gen("c")),
        Assoc(A_STAR, A_DSTAR, A),
        TensorM(Gen("eps"), Id(A)),
        UnitL(A))


def ba_strict_direct() -> MorD:
    """The same morphism with only the unavoidable wire bookkeeping."""
    return chain_d(
        TensorD(UnitIntro(), IdD((A_DSTAR,))),
        TensorD(Lift(Gen("eta")), IdD((A_DSTAR,))),
        TensorD(Unpack(A_STAR, A), IdD((A_DSTAR,))),
        TensorD(IdD((A_STAR,)), Pack(A, A_DSTAR)),
        TensorD(IdD((A_STAR,)), Lift(Gen("c"))),
        TensorD(IdD((A_STAR,)), Unpack(A_DSTAR, A)),
        TensorD(Pack(A_STAR, A_DSTAR), IdD((A,))),
        TensorD(Lift(Gen("eps")), IdD((A,))),
        TensorD(UnitElim(), IdD((A,))))
