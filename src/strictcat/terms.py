"""Object and morphism terms of a free (non-strict) monoidal category.

Objects are binary trees built from the unit constant, named base objects
and a tensor node.  Morphism terms are the free constructors: identities,
named generators, diagrammatic composition, tensor product, and the
structural isomorphisms (associator and both unitors, with inverses).

Orientation conventions, fixed once for the whole package:

    assoc(A, B, C)  : A * (B * C) -> (A * B) * C
    unit_l(A)       : I * A -> A
    unit_r(A)       : A * I -> A

``Comp(f, g)`` is diagrammatic: ``f`` happens first.  Equality of objects
and terms is syntactic; nothing is normalised implicitly.  All values are
frozen and safe to share between threads, and so is the memo of the typed
walk (``memo_roots``), which a race can only make miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
from types import MappingProxyType
from typing import Mapping


class TermError(Exception):
    """Base class for term-level failures."""


class TypeMismatch(TermError):
    def __init__(self, position: str, detail: str):
        self.position = position
        self.detail = detail
        super().__init__(f"type mismatch at {position}: {detail}")


class UnknownName(TermError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown name: {name!r}")


class ArityMismatch(TermError):
    pass


# ---------------------------------------------------------------------------
# Objects

@dataclass(frozen=True)
class Unit:
    pass


@dataclass(frozen=True)
class Base:
    name: str


@dataclass(frozen=True)
class Tensor:
    left: "ObjC"
    right: "ObjC"


ObjC = Unit | Base | Tensor

UNIT = Unit()


def show_obj(a: ObjC) -> str:
    if isinstance(a, Unit):
        return "I"
    if isinstance(a, Base):
        return a.name
    if isinstance(a, Tensor):
        return f"({show_obj(a.left)} * {show_obj(a.right)})"
    raise TypeError(a)


def flatten(a: ObjC) -> tuple[str, ...]:
    """In-order sequence of base leaves; unit leaves contribute nothing."""
    if isinstance(a, Unit):
        return ()
    if isinstance(a, Base):
        return (a.name,)
    if isinstance(a, Tensor):
        return flatten(a.left) + flatten(a.right)
    raise TypeError(a)


def objsize(a: ObjC) -> int:
    """Number of base-object leaves of ``a``."""
    if isinstance(a, Unit):
        return 0
    if isinstance(a, Base):
        return 1
    if isinstance(a, Tensor):
        return objsize(a.left) + objsize(a.right)
    raise TypeError(a)


def substitute(shape: ObjC, fill: tuple[ObjC, ...]) -> ObjC:
    """Replace the i-th base leaf of ``shape`` (left to right) by ``fill[i]``.

    Unit leaves are untouched.  Raises :class:`ArityMismatch` when the leaf
    count of ``shape`` differs from ``len(fill)``.
    """
    if objsize(shape) != len(fill):
        raise ArityMismatch(
            f"shape has {objsize(shape)} leaves, fill has {len(fill)} entries")

    def go(a: ObjC, index: int) -> tuple[ObjC, int]:
        if isinstance(a, Unit):
            return a, index
        if isinstance(a, Base):
            return fill[index], index + 1
        left, index = go(a.left, index)
        right, index = go(a.right, index)
        return Tensor(left, right), index

    result, _ = go(shape, 0)
    return result


# ---------------------------------------------------------------------------
# Morphism terms

@dataclass(frozen=True)
class Id:
    obj: ObjC


@dataclass(frozen=True)
class Gen:
    name: str


@dataclass(frozen=True)
class Comp:
    first: "MorC"
    second: "MorC"


@dataclass(frozen=True)
class TensorM:
    left: "MorC"
    right: "MorC"


@dataclass(frozen=True)
class Assoc:
    a: ObjC
    b: ObjC
    c: ObjC


@dataclass(frozen=True)
class AssocInv:
    a: ObjC
    b: ObjC
    c: ObjC


@dataclass(frozen=True)
class UnitL:
    obj: ObjC


@dataclass(frozen=True)
class UnitLInv:
    obj: ObjC


@dataclass(frozen=True)
class UnitR:
    obj: ObjC


@dataclass(frozen=True)
class UnitRInv:
    obj: ObjC


MorC = (Id | Gen | Comp | TensorM | Assoc | AssocInv
        | UnitL | UnitLInv | UnitR | UnitRInv)


def chain_c(*fs: MorC) -> MorC:
    """Left-fold diagrammatic composition of one or more morphisms."""
    out = fs[0]
    for f in fs[1:]:
        out = Comp(out, f)
    return out


def is_structural(f: MorC) -> bool:
    """True iff ``f`` contains no generator node."""
    if isinstance(f, Gen):
        return False
    if isinstance(f, Comp):
        return is_structural(f.first) and is_structural(f.second)
    if isinstance(f, TensorM):
        return is_structural(f.left) and is_structural(f.right)
    return True


# ---------------------------------------------------------------------------
# Signatures and typechecking

# Words with fixed meaning in the concrete grammar; not usable as names.
RESERVED_NAMES = frozenset(
    {"I", "id", "idD", "alpha", "lambda", "rho", "pack", "unpack",
     "unit", "lift", "obj", "gen"})


@dataclass(frozen=True)
class Signature:
    base_objects: frozenset[str]
    generators: Mapping[str, tuple[ObjC, ObjC]] = field(default_factory=dict)

    def __post_init__(self):
        # a read-only copy, so the checks below cannot be bypassed later
        object.__setattr__(self, "generators",
                           MappingProxyType(dict(self.generators)))
        clashes = self.base_objects & set(self.generators)
        if clashes:
            raise TermError(f"names used as both object and generator: {sorted(clashes)}")
        for name in list(self.base_objects) + list(self.generators):
            if name in RESERVED_NAMES:
                raise TermError(f"reserved word used as a name: {name!r}")
        for name, (dom, cod) in self.generators.items():
            validate_obj(dom, self)
            validate_obj(cod, self)

    def __hash__(self):
        return hash((self.base_objects, frozenset(self.generators.items())))


def make_signature(bases, generators=None) -> Signature:
    return Signature(frozenset(bases), generators or {})


def validate_obj(a: ObjC, sig: Signature) -> None:
    if isinstance(a, Unit):
        return
    if isinstance(a, Base):
        if a.name not in sig.base_objects:
            raise UnknownName(a.name)
        return
    if isinstance(a, Tensor):
        validate_obj(a.left, sig)
        validate_obj(a.right, sig)
        return
    raise TypeError(a)


def typecheck_c(f: MorC, sig: Signature) -> tuple[ObjC, ObjC]:
    """Return (dom, cod) of ``f`` or raise TypeMismatch / UnknownName."""
    dom, cod, _ = _boxes(f, sig)
    return dom, cod


# How many roots ``memo_roots`` remembers per walk.
_MEMO_ROOTS = 8


def memo_roots(walk):
    """``walk(t, sig)`` remembering its result for the last few roots.

    A root is matched by the identity of the term and of the signature,
    both of which the entry holds, so neither id can be reused while it is
    remembered; terms and signatures are immutable, so the result is the
    one the walk would give again.  Results must be immutable too.  An
    error is raised afresh on every call and never stored.  The entries
    are one tuple, rebound whole, so threads that race on it can lose an
    entry (a later miss) but never read a wrong one.  The walk itself stays
    available as ``__wrapped__``, for subterms built on the fly that should
    not push a caller's roots out.
    """
    entries: tuple = ()

    @wraps(walk)
    def remembered(t, sig):
        nonlocal entries
        for entry in entries:
            if entry[0] is t and entry[1] is sig:
                return entry[2]
        out = walk(t, sig)
        entries = ((t, sig, out),) + entries[:_MEMO_ROOTS - 1]
        return out

    return remembered


@memo_roots
def _boxes(f: MorC, sig: Signature) -> tuple[ObjC, ObjC, tuple]:
    """Typecheck ``f`` and list its generator boxes on base wires.

    Each ``Gen`` node gives a box ``(offset, name, n_in, n_out)``, in
    the order of a sequential reading of ``f``: it consumes ``n_in`` base
    wires (the length of ``flatten`` of its domain) starting ``offset``
    base wires from the left and puts ``n_out`` in their place.
    Structural nodes flatten to identities and give no box, so this is
    ``f`` as a diagram of the free strict monoidal category on the
    flattened signature.

    The result, boxes as a tuple, is remembered for the last eight roots
    walked (see ``memo_roots``), so ``typecheck_c``, ``equal_structural``
    and ``eval_mor`` on one term walk it once.
    """
    gens = sig.generators
    boxes: list = []

    def go(t: MorC, offset: int) -> tuple[ObjC, ObjC]:
        if isinstance(t, Comp):
            d1, c1 = go(t.first, offset)
            d2, c2 = go(t.second, offset)
            if c1 != d2:
                raise TypeMismatch(
                    path_to(f, t),
                    f"{show_obj(c1)} composed against {show_obj(d2)}")
            return d1, c2
        if isinstance(t, TensorM):
            d1, c1 = go(t.left, offset)
            n = len(boxes)
            d2, c2 = go(t.right, offset)
            if len(boxes) > n:
                # the right half acts after the left one, so past its cod
                width = objsize(c1)
                boxes[n:] = [(p + width, name, i, o)
                             for p, name, i, o in boxes[n:]]
            return Tensor(d1, d2), Tensor(c1, c2)
        if isinstance(t, Gen):
            if t.name not in gens:
                raise UnknownName(t.name)
            d, c = gens[t.name]
            boxes.append((offset, t.name, objsize(d), objsize(c)))
            return d, c
        if isinstance(t, Id):
            validate_obj(t.obj, sig)
            return t.obj, t.obj
        if isinstance(t, Assoc):
            for x in (t.a, t.b, t.c):
                validate_obj(x, sig)
            return Tensor(t.a, Tensor(t.b, t.c)), Tensor(Tensor(t.a, t.b), t.c)
        if isinstance(t, AssocInv):
            for x in (t.a, t.b, t.c):
                validate_obj(x, sig)
            return Tensor(Tensor(t.a, t.b), t.c), Tensor(t.a, Tensor(t.b, t.c))
        if isinstance(t, UnitL):
            validate_obj(t.obj, sig)
            return Tensor(UNIT, t.obj), t.obj
        if isinstance(t, UnitLInv):
            validate_obj(t.obj, sig)
            return t.obj, Tensor(UNIT, t.obj)
        if isinstance(t, UnitR):
            validate_obj(t.obj, sig)
            return Tensor(t.obj, UNIT), t.obj
        if isinstance(t, UnitRInv):
            validate_obj(t.obj, sig)
            return t.obj, Tensor(t.obj, UNIT)
        raise TypeError(t)

    dom, cod = go(f, 0)
    return dom, cod, tuple(boxes)


# ``_boxes`` remembering no roots
_box_walk = _boxes.__wrapped__


def path_to(root, node) -> str:
    """Position of ``node`` in the term ``root``, as a type error reports it:
    ``root`` then one ``.first``/``.second``/``.left``/``.right`` step per
    composition or tensor node on the way down.

    A walk that finds a mismatch calls this only then, so well-typed terms
    pay nothing for positions.  The node is found by identity; a shared
    subterm yields its first occurrence in walk order, which is the one a
    left-to-right walk meets first.
    """
    stack = [(root, "root")]
    while True:
        t, path = stack.pop()
        if t is node:
            return path
        for step in ("second", "first", "right", "left"):
            child = getattr(t, step, None)
            if child is not None:
                stack.append((child, f"{path}.{step}"))


def invert_structural(f: MorC) -> MorC:
    """Formal inverse of a structural term; generators are not invertible."""
    if isinstance(f, Id):
        return f
    if isinstance(f, Gen):
        raise TermError(f"generator {f.name!r} has no inverse")
    if isinstance(f, Comp):
        return Comp(invert_structural(f.second), invert_structural(f.first))
    if isinstance(f, TensorM):
        return TensorM(invert_structural(f.left), invert_structural(f.right))
    if isinstance(f, Assoc):
        return AssocInv(f.a, f.b, f.c)
    if isinstance(f, AssocInv):
        return Assoc(f.a, f.b, f.c)
    if isinstance(f, UnitL):
        return UnitLInv(f.obj)
    if isinstance(f, UnitLInv):
        return UnitL(f.obj)
    if isinstance(f, UnitR):
        return UnitRInv(f.obj)
    if isinstance(f, UnitRInv):
        return UnitR(f.obj)
    raise TypeError(f)
