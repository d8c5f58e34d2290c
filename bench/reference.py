"""Answers the benchmark checks against, computed without the engine.

* ``canonical``: the canonical adapter arrow between two wire sequences,
  built the way the coherence theorem describes it (unpack everything,
  then pack the target), for the ``adapter-walks`` check.
* ``rebracket`` and ``shape_rebracket``: the bijection a structural
  morphism must denote in the finite-set model, for ``oracle-coherence``.
* ``Oracle``: a pointwise evaluator of base-category terms in a small
  finite-set model of its own, for ``generator-queries``.

Elements are plain Python values: an atom is an ``int``, the unit element
is ``()`` and a pair is a 2-tuple.
"""

from __future__ import annotations

from strictcat.terms import (
    Assoc, AssocInv, Base, Comp, Gen, Id, Tensor, TensorM, Unit, UnitL,
    UnitLInv, UnitR, UnitRInv,
)
from strictcat.strict import (
    CompD, IdD, Pack, TensorD, UnitElim, UnitIntro, Unpack,
)
from strictcat.finmodel import Atom, Pair, UnitElem


# ---------------------------------------------------------------------------
# Canonical adapter arrows

def pack(wires: tuple):
    """Assemble ``wires`` from their base wires: unit labels are summoned,
    tensor labels built from their halves and fused."""
    if not wires:
        return IdD(())
    if len(wires) > 1:
        return TensorD(pack(wires[:1]), pack(wires[1:]))
    label = wires[0]
    if isinstance(label, Unit):
        return UnitIntro()
    if isinstance(label, Base):
        return IdD(wires)
    halves = TensorD(pack((label.left,)), pack((label.right,)))
    return CompD(halves, Pack(label.left, label.right))


def invert(t):
    """Inverse of a term built by ``pack``."""
    if isinstance(t, IdD):
        return t
    if isinstance(t, CompD):
        return CompD(invert(t.second), invert(t.first))
    if isinstance(t, TensorD):
        return TensorD(invert(t.left), invert(t.right))
    if isinstance(t, Pack):
        return Unpack(t.left, t.right)
    return UnitElim() if isinstance(t, UnitIntro) else UnitIntro()


def canonical(dom: tuple, cod: tuple):
    """The normal form of every adapter-only arrow ``dom -> cod``."""
    if dom == cod:
        return IdD(dom)
    down, up = invert(pack(dom)), pack(cod)
    if isinstance(down, IdD):
        return up
    if isinstance(up, IdD):
        return down
    return CompD(down, up)


# ---------------------------------------------------------------------------
# Finite-set elements and rebracketing bijections

def carrier(a, sizes: dict[str, int]) -> list:
    if isinstance(a, Unit):
        return [()]
    if isinstance(a, Base):
        return list(range(sizes[a.name]))
    return [(x, y) for x in carrier(a.left, sizes)
            for y in carrier(a.right, sizes)]


def plain(e):
    """An engine model element as a plain value."""
    if isinstance(e, Atom):
        return e.index
    if isinstance(e, UnitElem):
        return ()
    if isinstance(e, Pair):
        return plain(e.first), plain(e.second)
    raise TypeError(e)


def plain_table(mapping: dict) -> dict:
    return {plain(x): plain(y) for x, y in mapping.items()}


def _leaves(shape, x) -> list:
    """The parts of ``x`` sitting at the base leaves of ``shape``."""
    if isinstance(shape, Tensor):
        return _leaves(shape.left, x[0]) + _leaves(shape.right, x[1])
    return [] if isinstance(shape, Unit) else [x]


def _build(shape, parts) -> object:
    if isinstance(shape, Tensor):
        return _build(shape.left, parts), _build(shape.right, parts)
    return () if isinstance(shape, Unit) else next(parts)


def shape_rebracket(shape_a, shape_b, dom, sizes: dict[str, int]) -> dict:
    """The table moving each leaf of ``shape_a`` to the same leaf of
    ``shape_b``, over every element of ``dom``."""
    return {x: _build(shape_b, iter(_leaves(shape_a, x)))
            for x in carrier(dom, sizes)}


def rebracket(a, b, sizes: dict[str, int]) -> dict:
    """The table of the structural arrow ``a -> b``: same atoms, new tree."""
    return shape_rebracket(a, b, a, sizes)


# ---------------------------------------------------------------------------
# A finite-set oracle for generator-bearing terms

class Oracle:
    """Pointwise evaluation in a fixed finite-set model.

    ``f;g`` and ``rho';(id(*)u);h`` differ at ``x = 1`` in this model.
    """

    SIZES = {"x": 2, "y": 2, "z": 3, "b": 2}
    TABLES = {
        "f": {0: 1, 1: 0},
        "g": {0: 2, 1: 0},
        "h": {(i, j): (i + 2 * j + 1) % 3 for i in range(2) for j in range(2)},
        "u": {(): 1},
        "xor": {(i, j): i ^ j for i in range(2) for j in range(2)},
    }
    # Largest domain compared point by point.
    MAX_POINTS = 512

    def apply(self, f, x):
        if isinstance(f, Comp):
            return self.apply(f.second, self.apply(f.first, x))
        if isinstance(f, TensorM):
            return self.apply(f.left, x[0]), self.apply(f.right, x[1])
        if isinstance(f, Gen):
            return self.TABLES[f.name][x]
        if isinstance(f, Id):
            return x
        if isinstance(f, Assoc):
            return (x[0], x[1][0]), x[1][1]
        if isinstance(f, AssocInv):
            return x[0][0], (x[0][1], x[1])
        if isinstance(f, (UnitL, UnitR)):
            return x[1] if isinstance(f, UnitL) else x[0]
        if isinstance(f, UnitLInv):
            return (), x
        if isinstance(f, UnitRInv):
            return x, ()
        raise TypeError(f)

    def points(self, dom) -> int:
        if isinstance(dom, Tensor):
            return self.points(dom.left) * self.points(dom.right)
        return self.SIZES[dom.name] if isinstance(dom, Base) else 1

    def equal(self, f, g, dom) -> bool | None:
        """Whether ``f`` and ``g`` agree on all of ``dom``; None if too big."""
        if self.points(dom) > self.MAX_POINTS:
            return None
        return all(self.apply(f, x) == self.apply(g, x)
                   for x in carrier(dom, self.SIZES))
