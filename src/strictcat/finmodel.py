"""A concrete monoidal category of finite sets with nested pairing.

Used as a brute-force extensional oracle: objects evaluate to enumerated
carriers, morphisms to total function tables, and two symbolic terms are
compared by evaluating both exhaustively.

Carriers are indexed in mixed radix: ``(i, j)`` in ``A * B`` has index
``i * |B| + j``, ``I`` has size 1, and a wire sequence is indexed the
same way over its labels.  A table holds the codomain index of each
domain index, so composition is indexing and tensor is arithmetic.
Rebracketing and unit insertion keep every index, so associators,
unitors and adapters are identity index maps; their nesting lives in
the endpoints and in the decoded ``mapping`` of nested ``Pair``s.  A
term with no generator is therefore the identity table on its domain,
which ``eval_mor`` takes from the typed walk's empty box list without
evaluating the term node by node.

Generator tables are drawn pseudo-randomly from the model seed, one
reproducible table per generator name.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property

from .terms import (
    Assoc, AssocInv, Base, Comp, Gen, Id, MorC, ObjC, Signature, Tensor,
    TensorM, TermError, UnitL, UnitLInv, UnitR, UnitRInv, Unit, _boxes,
    _leaf_names, _postorder, show_obj,
)
from .strict import (
    CompD, IdD, Lift, MorD, Pack, TensorD, UnitElim, UnitIntro, Unpack,
    show_wires, typecheck_d,
)


class DomainMismatch(TermError):
    pass


@dataclass(frozen=True)
class UnitElem:
    pass


@dataclass(frozen=True)
class Atom:
    index: int


@dataclass(frozen=True, slots=True)
class Pair:
    first: "Element"
    second: "Element"


Element = UnitElem | Atom | Pair

UNIT_ELEM = UnitElem()


class FinModel:
    """Carrier sizes per base object plus seeded generator tables.

    Immutable after construction; carriers and sizes are memoised, so
    instances are safe to share across tests and threads.
    """

    def __init__(self, sig: Signature, sizes: dict[str, int] | None = None,
                 seed: int = 0):
        self.sig = sig
        self.sizes = {name: 2 for name in sig.base_objects}
        if sizes:
            for name, n in sizes.items():
                if name not in sig.base_objects:
                    raise TermError(f"size given for undeclared base {name!r}")
                if n < 1:
                    raise TermError(f"carrier of {name!r} must be nonempty")
                self.sizes[name] = n
        self.seed = seed
        self._carriers, self._sizes = {}, {}
        self._tables: dict[str, tuple[tuple[int, ...], int]] = {}
        self.gen_tables: dict[str, dict[Element, Element]] = {}
        for name in sorted(sig.generators):
            dom, cod = sig.generators[name]
            # ``choice`` uses only ``len``, so these are the carrier's draws
            rng, image = random.Random(f"{seed}/{name}"), range(self.size(cod))
            table = tuple(rng.choice(image) for _ in range(self.size(dom)))
            self._tables[name] = table, len(image)
            self.gen_tables[name] = FuncTable(dom, cod, table, self).mapping

    def carrier(self, a) -> tuple:
        """Elements of an object, or element tuples of a wire sequence,
        in mixed-radix index order.  Each part's carrier is made first,
        leftmost first, off an explicit stack, and kept."""
        carriers = self._carriers
        stack = [a]
        while a not in carriers:
            b = stack[-1]
            parts = (b if isinstance(b, tuple) else
                     (b.left, b.right) if isinstance(b, Tensor) else ())
            todo = [p for p in parts if p not in carriers]
            if todo:
                stack += reversed(todo)
                continue
            stack.pop()
            if isinstance(b, (tuple, Tensor)):
                out = itertools.product(*[carriers[p] for p in parts])
                carriers[b] = (tuple(out) if isinstance(b, tuple) else
                               tuple(Pair(x, y) for x, y in out))
            elif isinstance(b, Unit):
                carriers[b] = (UNIT_ELEM,)
            elif isinstance(b, Base):
                if b.name not in self.sizes:
                    raise TermError(f"no carrier for base {b.name!r}")
                carriers[b] = tuple(Atom(i) for i in range(self.sizes[b.name]))
            else:
                raise TypeError(b)
        return carriers[a]

    def size(self, a) -> int:
        """Number of elements of an object or of a wire sequence: the
        product of its base leaves' carrier sizes."""
        n = self._sizes.get(a)
        if n is None:
            n = 1
            for name in _leaf_names(a if isinstance(a, tuple) else (a,)):
                if name not in self.sizes:
                    raise TermError(f"no carrier for base {name!r}")
                n *= self.sizes[name]
            self._sizes[a] = n
        return n


@dataclass
class FuncTable:
    """A total function between enumerated carriers.

    ``dom``/``cod`` are objects (base category) or wire sequences (strict
    category).  ``table[i]`` is the codomain index of domain index ``i``;
    ``mapping`` decodes it on first use into a dict keyed by elements, or
    by tuples of elements over wire sequences.
    """
    dom: object
    cod: object
    table: tuple[int, ...]
    model: FinModel = field(repr=False)

    @cached_property
    def mapping(self) -> dict:
        image = self.model.carrier(self.cod)
        return dict(zip(self.model.carrier(self.dom),
                        [image[j] for j in self.table]))


def eval_obj(a: ObjC, model: FinModel) -> tuple[Element, ...]:
    return model.carrier(a)


def eval_mor(f: MorC, model: FinModel) -> FuncTable:
    """The table of ``f``.  A term with no generator box is structural,
    and its table is taken as the identity on ``|dom|`` without walking
    it: every structural node evaluates to an identity index map, and
    composites and tensors of those are identities too, so this is the
    table the walk would build.  It is the unique canonical isomorphism
    of the coherence theorem, read in the mixed-radix indexing."""
    dom, cod, boxes = _boxes(f, model.sig)
    if not boxes:
        return FuncTable(dom, cod, tuple(range(model.size(dom))), model)
    return FuncTable(dom, cod, _eval(f, model)[0], model)


def eval_mor_d(t: MorD, model: FinModel) -> FuncTable:
    dom, cod = typecheck_d(t, model.sig)
    return FuncTable(dom, cod, _eval(t, model)[0], model)


def _eval(t, model: FinModel) -> tuple[tuple[int, ...], int]:
    """``(table, |cod|)`` of a well-typed term of either category, from its
    nodes in post-order; a lift's morphism is walked in the lift's place."""
    out: list = []
    todo = _postorder(t)
    todo.reverse()
    while todo:
        u = todo.pop()
        if isinstance(u, (Comp, CompD)):
            second, m = out.pop()
            out[-1] = tuple([second[i] for i in out[-1][0]]), m
        elif isinstance(u, (TensorM, TensorD)):
            right, m2 = out.pop()
            left, m1 = out[-1]
            out[-1] = tuple([a * m2 + b for a in left for b in right]), m1 * m2
        elif isinstance(u, Gen):
            out.append(model._tables[u.name])
        elif isinstance(u, Lift):
            todo += reversed(_postorder(u.mor))
        else:  # any other node is structural: the identity on its domain
            if isinstance(u, (Id, UnitL, UnitLInv, UnitR, UnitRInv)):
                n = model.size(u.obj)
            elif isinstance(u, (Assoc, AssocInv)):
                n = model.size((u.a, u.b, u.c))
            elif isinstance(u, (Pack, Unpack)):
                n = model.size((u.left, u.right))
            elif isinstance(u, IdD):
                n = model.size(u.wires)
            elif isinstance(u, (UnitIntro, UnitElim)):
                n = 1
            else:
                raise TypeError(u)
            out.append((tuple(range(n)), n))
    return out[0]


def extensional_equal(x: FuncTable, y: FuncTable) -> bool:
    """Pointwise comparison over the full enumerated domain.  Indices
    decide only over one codomain and one set of carrier sizes:
    ``Assoc(W, W, W)`` and ``Id(W * (W * W))`` share the identity table.
    """
    if x.dom != y.dom:
        raise DomainMismatch(f"{_show_end(x.dom)} vs {_show_end(y.dom)}")
    if x.cod == y.cod and x.model.sizes == y.model.sizes:
        return x.table == y.table
    return x.mapping == y.mapping


def _show_end(end) -> str:
    if isinstance(end, tuple):
        return show_wires(end)
    return show_obj(end)
