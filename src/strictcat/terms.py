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
and terms is syntactic; nothing is normalised implicitly.  Objects are
interned: each structure has one live node, so ``==`` and ``hash`` on
objects go by identity and mean what structural equality meant, at any
depth.  A node stores its leaf count (``objsize``), and a composite term
stores what a typed walk or the layer that built it found (``facts``), so
the next layer does not walk it, nor a walk of a term that contains it.
Terms of any depth compare, hash, print, copy and pickle.  All values are
frozen and safe to share between threads, and so are the intern tables
and the facts, which a race can only make miss.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from itertools import accumulate
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


class NotInvertible(TermError):
    pass


# ---------------------------------------------------------------------------
# Objects

# Each object structure has one live node (hash-consing, after Filliâtre &
# Conchon, "Type-safe modular hash-consing", 2006): a ``Base`` is stored
# by its name, a ``Tensor`` by its two children.  A node drops out of its
# table when its last reference goes.  Lookups take no lock: they read the
# table's own dict of weak references (``data``, which the table never
# rebinds), so a miss raises no ``KeyError`` inside the table.  An insert
# takes ``_INSERT``, so two threads building one structure get one node.
_BASES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_TENSORS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_BASE_REFS = _BASES.data
_TENSOR_REFS = _TENSORS.data
_INSERT = threading.Lock()
_set = object.__setattr__


class _Node:
    """Slots of every object node besides its fields: ``size``, its number
    of base leaves, stored at construction; ``checked``, the base names it
    last passed ``validate_obj`` against; and ``packing``, its (unpack,
    pack) adapter pair, which ``strict`` fills on first use, followed on a
    tensor by its ``functors.right_nesting`` pair once a natural
    isomorphism asks for it.  A node is immutable and the only one of its
    structure, so a copy is the node."""
    __slots__ = ("__weakref__", "size", "checked", "packing")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


def _stored(node, size: int, table=None, key=None):
    """``node`` with its slots set, stored under ``key`` in ``table``, or
    the node another thread stored there first."""
    _set(node, "size", size)
    _set(node, "checked", None)
    _set(node, "packing", None)
    if table is None:
        return node
    with _INSERT:
        return table.setdefault(key, node)


# Nodes are compared and hashed by identity, which for interned nodes is
# structural equality.  ``__reduce__`` sends pickle back through the
# constructors, so unpickling returns the live node; a tensor is sent as
# its flat post-order (``_postfix``), so depth costs no recursion.

@dataclass(frozen=True, eq=False, slots=True, init=False)
class Unit(_Node):
    def __new__(cls):
        return UNIT

    def __reduce__(self):
        return Unit, ()


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Base(_Node):
    name: str

    def __new__(cls, name: str):
        ref = _BASE_REFS.get(name)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            _set(node, "name", name)
            node = _stored(node, 1, _BASES, name)
        return node

    def __reduce__(self):
        return Base, (self.name,)


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Tensor(_Node):
    left: "ObjC"
    right: "ObjC"

    def __new__(cls, left: "ObjC", right: "ObjC"):
        key = (left, right)
        ref = _TENSOR_REFS.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            _set(node, "left", left)
            _set(node, "right", right)
            node = _stored(node, left.size + right.size, _TENSORS, key)
        return node

    def __reduce__(self):
        return _from_postfix, (tuple(_postfix(self)),)


ObjC = Unit | Base | Tensor

UNIT = _stored(object.__new__(Unit), 0)


def show_obj(a: ObjC) -> str:
    if isinstance(a, Base):
        return a.name
    parts: list[str] = []
    stack: list = [a]
    while stack:
        a = stack.pop()
        if isinstance(a, str):
            parts.append(a)
        elif isinstance(a, Tensor):
            parts.append("(")
            stack += (")", a.right, " * ", a.left)
        elif isinstance(a, Base):
            parts.append(a.name)
        elif isinstance(a, Unit):
            parts.append("I")
        else:
            raise TypeError(a)
    return "".join(parts)


def flatten(a: ObjC) -> tuple[str, ...]:
    """In-order sequence of base leaves; unit leaves contribute nothing."""
    return _leaf_names((a,))


def _leaf_names(objs) -> tuple[str, ...]:
    """The in-order base leaves of a sequence of objects, in one pass."""
    names: list[str] = []
    stack = list(reversed(objs))
    while stack:
        a = stack.pop()
        if isinstance(a, Tensor):
            stack += (a.right, a.left)
        elif isinstance(a, Base):
            names.append(a.name)
        elif not isinstance(a, Unit):
            raise TypeError(a)
    return tuple(names)


def objsize(a: ObjC) -> int:
    """Number of base-object leaves of ``a``."""
    return a.size


def substitute(shape: ObjC, fill: tuple[ObjC, ...]) -> ObjC:
    """Replace the i-th base leaf of ``shape`` (left to right) by ``fill[i]``.

    Unit leaves are untouched.  Raises :class:`ArityMismatch` when the leaf
    count of ``shape`` differs from ``len(fill)``.
    """
    if objsize(shape) != len(fill):
        raise ArityMismatch(
            f"shape has {objsize(shape)} leaves, fill has {len(fill)} entries")
    fills = iter(fill)
    return _from_postfix([next(fills) if isinstance(x, Base) else x
                          for x in _postfix(shape)])


def _postfix(a: ObjC) -> list:
    """The leaves of ``a`` in order, with a ``None`` after the two halves
    of each tensor node: ``a`` in post-order, built without recursion."""
    out: list = []
    stack: list = [a]
    while stack:
        a = stack.pop()
        if isinstance(a, Tensor):
            stack += (None, a.right, a.left)
        else:
            out.append(a)
    return out


def _from_postfix(items) -> ObjC:
    """The object whose ``_postfix`` is ``items``."""
    stack: list = []
    for x in items:
        if x is None:
            right = stack.pop()
            stack[-1] = Tensor(stack[-1], right)
        else:
            stack.append(x)
    return stack[0]


# ---------------------------------------------------------------------------
# Morphism terms

@dataclass(frozen=True, slots=True)
class Id:
    obj: ObjC


@dataclass(frozen=True, slots=True)
class Gen:
    name: str


class _Term:
    """Base, with no slot, of the term nodes with subterms: ``Comp``,
    ``TensorM``, ``strict.CompD``, ``strict.TensorD`` and ``strict.Lift``.
    ``==``, ``hash`` and ``repr`` mean what the dataclass ones meant, and
    a copy or pickle is sent as the ``_shape``, so any depth works."""
    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or _shape(self) == _shape(other)

    def __hash__(self):
        return hash(tuple(_shape(self)))

    def __reduce__(self):
        return _from_shape, (_shape(self),)

    def __repr__(self):
        parts: list[str] = []
        stack: list = [self]
        while stack:
            t = stack.pop()
            if not isinstance(t, _Term):
                parts.append(t if type(t) is str else repr(t))
                continue
            items = [type(t).__qualname__ + "("]
            for i, name in enumerate(t.__slots__):
                items += (", " * (i > 0) + name + "=", getattr(t, name))
            stack += reversed(items + [")"])
        return "".join(parts)


def _shape(t) -> list:
    """``_postorder(t)`` with each composition or tensor node replaced by
    its type and each lift by its type and morphism.  Each node's type
    fixes its number of children, so equal shapes mean equal terms."""
    pairs = _SEQS | _PARS
    return [type(u) if type(u) in pairs else
            (type(u), u.mor) if isinstance(u, _Term) else u
            for u in _postorder(t)]


def _from_shape(shape) -> "_Term":
    """The term whose ``_shape`` is ``shape``, built by its constructors."""
    out: list = []
    for x in shape:
        if isinstance(x, type):  # a composition or tensor of the last two
            x = x(*out[-2:])
            del out[-2:]
        out.append(x[0](x[1]) if type(x) is tuple else x)
    return out[0]


def _postorder(t, sig: Signature | None = None) -> list:
    """The nodes of ``t``, a term of either language, children before
    parents and left before right, as a recursive walk finishes them; a
    lift is a leaf.  Built on an explicit stack, so any depth works.  With
    ``sig``, a ``Comp`` or ``TensorM`` that stores its typed walk for
    ``sig`` is a leaf, listed as that ``(dom, cod, boxes)``."""
    out = []
    stack = [t]
    while stack:
        t = stack.pop()
        while True:  # down the right spine; left children wait on the stack
            cls = type(t)
            if sig is not None and (cls is Comp or cls is TensorM):
                facts = t.facts
                if facts is not None and facts[0] is sig:
                    out.append(facts[1])
                    break
            out.append(t)
            if cls in _SEQS:
                stack.append(t.first)
                t = t.second
            elif cls in _PARS:
                stack.append(t.left)
                t = t.right
            else:
                break
    out.reverse()
    return out


def _placed(items: list, diff: list) -> tuple:
    """``(offset, *item)`` for each of ``items``, its offset the running
    sum of ``diff`` up to its index.  A walk moves the items of index
    ``lo`` up to ``hi`` by ``by`` with ``diff[lo] += by; diff[hi] -= by``,
    so nested tensors cost one pass in all."""
    return tuple(zip(accumulate(diff), *zip(*items))) if items else ()


class _Composite:
    """The slot of ``Comp``, ``TensorM`` and ``strict.CompD`` besides their
    fields: ``facts``, ``(sig, found, handed)`` for the last signature
    ``sig`` the node was walked or built against as a root: ``found`` is
    what the walk of its language found (``_boxes``, ``strict._diagram``),
    ``handed`` the ``SeqNF`` a builder handed on.  Not a dataclass field,
    so ``==``, ``hash``, ``repr``, copies and pickles leave it out; unset
    or ``None``, it reads as a miss (``Comp`` and ``TensorM`` are built
    with ``None``, which is cheaper to read).  Subterms met inside a walk
    store nothing, but a walk takes a subterm with stored facts whole."""
    __slots__ = ("facts",)


def _fact(t, sig: Signature, i: int):
    """Item ``i`` of ``t``'s facts if they hold for ``sig``, else None."""
    facts = getattr(t, "facts", None)
    return facts[i] if facts is not None and facts[0] is sig else None


def _store(t, facts: tuple) -> None:
    """Replace ``t``'s facts whole (a leaf or a strict tensor keeps none).
    They must be what the walks would find, as immutable terms keep."""
    if isinstance(t, _Composite):
        _set(t, "facts", facts)


def _stored_walk(walk, t, sig: Signature):
    """``walk(t, sig)``, stored on ``t``; errors are raised afresh."""
    found = _fact(t, sig, 1)
    if found is None:
        found = walk(t, sig)
        _store(t, (sig, found, _fact(t, sig, 2)))
    return found


@dataclass(frozen=True, slots=True, eq=False, repr=False, init=False)
class Comp(_Composite, _Term):
    first: "MorC"
    second: "MorC"

    def __init__(self, first: "MorC", second: "MorC"):
        _set(self, "first", first)
        _set(self, "second", second)
        _set(self, "facts", None)


@dataclass(frozen=True, slots=True, eq=False, repr=False, init=False)
class TensorM(_Composite, _Term):
    left: "MorC"
    right: "MorC"

    def __init__(self, left: "MorC", right: "MorC"):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "facts", None)


# The compositions, with fields ``first`` and ``second``, and the tensors,
# with ``left`` and ``right``, of both languages (``strict`` adds its own):
# the nodes ``_postorder`` walks into.  A set is faster than ``isinstance``.
_SEQS, _PARS = {Comp}, {TensorM}


@dataclass(frozen=True, slots=True)
class Assoc:
    a: ObjC
    b: ObjC
    c: ObjC


@dataclass(frozen=True, slots=True)
class AssocInv:
    a: ObjC
    b: ObjC
    c: ObjC


@dataclass(frozen=True, slots=True)
class UnitL:
    obj: ObjC


@dataclass(frozen=True, slots=True)
class UnitLInv:
    obj: ObjC


@dataclass(frozen=True, slots=True)
class UnitR:
    obj: ObjC


@dataclass(frozen=True, slots=True)
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
    return Gen not in map(type, _postorder(f))


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
    """Raise ``UnknownName`` for the leftmost base leaf of ``a`` that
    ``sig`` does not declare.  Each node that passes remembers the base
    names it passed against, so it is not walked again for them."""
    bases = sig.base_objects
    if a.checked is bases:
        return
    passed = []
    stack = [a]
    while stack:
        node = stack.pop()
        if node.checked is bases:
            continue
        if isinstance(node, Tensor):
            stack += (node.right, node.left)
        elif isinstance(node, Base) and node.name not in bases:
            raise UnknownName(node.name)
        passed.append(node)
    for node in passed:
        _set(node, "checked", bases)


def typecheck_c(f: MorC, sig: Signature) -> tuple[ObjC, ObjC]:
    """Return (dom, cod) of ``f`` or raise TypeMismatch / UnknownName."""
    dom, cod, _ = _boxes(f, sig)
    return dom, cod


def _boxes(f: MorC, sig: Signature) -> tuple[ObjC, ObjC, tuple]:
    """``_box_walk(f, sig)``, stored on ``f`` (see ``_stored_walk``), so
    ``typecheck_c``, ``equal_structural`` and ``eval_mor`` on one term
    walk it once."""
    return _stored_walk(_box_walk, f, sig)


def _box_walk(f: MorC, sig: Signature) -> tuple[ObjC, ObjC, tuple]:
    """Typecheck ``f`` and list its generator boxes on base wires.

    Each ``Gen`` node gives a box ``(offset, name, n_in, n_out)``, in
    the order of a sequential reading of ``f``: it consumes ``n_in`` base
    wires (the length of ``flatten`` of its domain) starting ``offset``
    base wires from the left and puts ``n_out`` in their place.
    Structural nodes flatten to identities and give no box, so this is
    ``f`` as a diagram of the free strict monoidal category on the
    flattened signature.  The boxes are a tuple; nothing is stored.  A
    subterm that stores its walk for ``sig`` is taken whole.

    ``f`` is well typed when its joins match and its domain names only
    bases of ``sig``: every other object in it is built from its domain,
    the unit and the generators' types.  So only the domain is checked,
    and the two sides of a join that fails, to report an undeclared name
    as such; ``strict`` types its terms by the same rule.
    """
    gens = sig.generators
    if type(f) is Gen and f.name in gens:  # a lone generator, as most lifts
        d, c = gens[f.name]
        return d, c, ((0, f.name, d.size, c.size),)
    boxes: list = []
    diff = [0]  # one more entry than boxes; see ``_placed``
    ends: list = []  # (dom, cod, first box) of each finished subterm
    for t in _postorder(f, sig):
        cls = type(t)
        if cls is Comp:
            d2, c2, _ = ends.pop()
            d1, c1, n = ends[-1]
            if c1 != d2:
                validate_obj(c1, sig)
                validate_obj(d2, sig)
                raise TypeMismatch(
                    path_to(f, t),
                    f"{show_obj(c1)} composed against {show_obj(d2)}")
            ends[-1] = d1, c2, n
            continue
        if cls is TensorM:
            d2, c2, n2 = ends.pop()
            d1, c1, n = ends[-1]
            if c1.size and len(boxes) > n2:
                # the right half acts after the left one, so past its cod
                diff[n2] += c1.size
                diff[-1] -= c1.size
            ends[-1] = Tensor(d1, d2), Tensor(c1, c2), n
            continue
        n = len(boxes)
        if cls is Gen:
            if t.name not in gens:
                raise UnknownName(t.name)
            d, c = gens[t.name]
            boxes.append((t.name, d.size, c.size))
            diff.append(0)
        elif cls is Id:
            d = c = t.obj
        elif cls is Assoc or cls is AssocInv:
            d, c = Tensor(t.a, Tensor(t.b, t.c)), Tensor(Tensor(t.a, t.b), t.c)
            if cls is AssocInv:
                d, c = c, d
        elif cls is UnitL or cls is UnitLInv:
            d, c = Tensor(UNIT, t.obj), t.obj
            if cls is UnitLInv:
                d, c = c, d
        elif cls is UnitR or cls is UnitRInv:
            d, c = Tensor(t.obj, UNIT), t.obj
            if cls is UnitRInv:
                d, c = c, d
        elif cls is tuple:  # a subterm's stored walk; see ``_postorder``
            d, c, placed = t
            for p, *box in placed:  # ``diff`` moves this box alone by ``p``
                diff[-1] += p
                diff.append(-p)
                boxes.append(box)
        else:
            raise TypeError(t)
        ends.append((d, c, n))
    dom, cod, _ = ends[0]
    validate_obj(dom, sig)
    return dom, cod, _placed(boxes, diff)


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


# Each structural atom's type and the type of its inverse, which has the
# same fields; an identity is its own inverse.  ``strict`` adds its own.
_INVERSE = {Id: Id, Assoc: AssocInv, AssocInv: Assoc, UnitL: UnitLInv,
            UnitLInv: UnitL, UnitR: UnitRInv, UnitRInv: UnitR}


def invert_structural(f):
    """Formal inverse of a structural term of either language: the halves
    of a composition swap, each atom becomes its inverse, and a lift is
    the lift of its morphism's inverse.  Generators are not invertible."""
    out: list = []
    todo = _postorder(f)
    todo.reverse()
    while todo:
        t = todo.pop()
        if type(t) in _SEQS:
            x = out.pop()
            out[-1] = type(t)(x, out[-1])
        elif type(t) in _PARS:
            x = out.pop()
            out[-1] = type(t)(out[-1], x)
        elif type(t) in _INVERSE:
            fields = [getattr(t, n) for n in t.__slots__]
            out.append(_INVERSE[type(t)](*fields))
        elif isinstance(t, Gen):
            raise NotInvertible(f"generator {t.name!r} has no inverse")
        elif isinstance(t, _Term):
            # a lift: invert its morphism's nodes, then lift the result
            todo.append(type(t))
            todo += reversed(_postorder(t.mor))
        elif isinstance(t, type):
            out[-1] = t(out[-1])
        else:
            raise TypeError(t)
    return out[0]
