"""Coherence-based decision procedures and canonical map synthesis.

Equality is decided on flattened diagrams.  Strictification is an
equivalence, so the free monoidal category on a signature embeds
faithfully into the free *strict* monoidal category on the flattened
signature, where each generator ``A -> B`` is a box from ``flatten(A)``
base wires to ``flatten(B)``.  A morphism there is a planar diagram of
boxes up to interchange (Joyal & Street 1991); structural morphisms have
no boxes, which is the coherence theorem.  Two parallel terms whose box
lists reach the same left normal form (Delpeuch & Vicary,
arXiv:1804.07832) are equal.  The normaliser of :mod:`strictcat.strict`
reads normal forms back from the same routine, ``left_normal_form``, so
the expansions of two such terms normalise to identical strict terms.

The canonical arrow between two wire sequences with the same flattening
is ``unpack`` then ``pack`` (see :mod:`strictcat.strict`).  Canonical
natural isomorphisms between two bracketings of the same shape are built
in the underlying category directly, by induction on each filled label
(``functors.right_nesting``), as the strictness proof allows.

Verdicts are sound but not complete: where a generator has no output
wire (``y -> I``, or a scalar ``I -> I``), equal diagrams can reach
different left normal forms, so differing forms give "unknown" unless a
finite model is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    Comp, Id, MorC, ObjC, Signature, TermError, ArityMismatch, _boxes,
    _store, objsize, substitute, validate_obj,
)
from .strict import (
    FlatteningMismatch, MorD, _diagram, canonical_d, left_normal_form,
    normalize_adapters, pack_obj, unpack_obj,
)
from .functors import nonstrictify, right_nesting, strictify_expand
from .finmodel import eval_mor, extensional_equal

__all__ = [
    "EQUAL", "NOT_EQUAL", "UNKNOWN", "EqVerdict", "PreconditionError",
    "canonical_d", "canonical_nat_iso", "equal_structural",
    "fg_singleton_check", "pack_obj", "unpack_obj", "FlatteningMismatch",
]

EQUAL = "equal"
NOT_EQUAL = "not_equal"
UNKNOWN = "unknown"


class PreconditionError(TermError):
    pass


@dataclass(frozen=True)
class EqVerdict:
    kind: str
    detail: str = ""

    @property
    def is_equal(self) -> bool:
        return self.kind == EQUAL


def equal_structural(f: MorC, g: MorC, sig: Signature,
                     model=None) -> EqVerdict:
    """Decide equality of two parallel morphism terms.

    Both terms are read as diagrams of generator boxes on base wires.
    Different endpoints give "not equal"; box lists with the same left
    normal form give "equal" (for structural pairs both lists are
    empty).  Otherwise a supplied model decides extensionally, and
    without one the verdict is unknown.
    """
    df, cf, bf = _boxes(f, sig)
    dg, cg, bg = _boxes(g, sig)
    if (df, cf) != (dg, cg):
        return EqVerdict(NOT_EQUAL, "endpoints differ")
    if left_normal_form(bf)[0] == left_normal_form(bg)[0]:
        return EqVerdict(EQUAL, "identical flattened diagrams")
    if model is not None:
        if extensional_equal(eval_mor(f, model), eval_mor(g, model)):
            return EqVerdict(EQUAL, "extensionally equal in supplied model")
        return EqVerdict(NOT_EQUAL, "distinguished by supplied model")
    return EqVerdict(UNKNOWN, "left normal forms differ; no model given")


def canonical_nat_iso(shape_a: ObjC, shape_b: ObjC,
                      fill: tuple[ObjC, ...], sig: Signature) -> MorC:
    """Structural arrow ``shape_a[fill] -> shape_b[fill]``.

    Both shapes must have the same number of leaves, each replaced by
    the corresponding fill object.  Both filled shapes have the same
    base leaves, so the result is ``right_nesting`` of the first followed
    by the inverse of the second's, or the identity when they are one
    object; by coherence it equals any other structural morphism between
    them.  The result stores its typed walk, so equality and the
    finite-set model do not walk it.
    """
    if objsize(shape_a) != objsize(shape_b):
        raise ArityMismatch(
            f"shapes have {objsize(shape_a)} and {objsize(shape_b)} leaves")
    filled_a = substitute(shape_a, tuple(fill))
    filled_b = substitute(shape_b, tuple(fill))
    validate_obj(filled_a, sig)
    if filled_a is filled_b:
        return Id(filled_a)
    out = Comp(right_nesting(filled_a)[0], right_nesting(filled_b)[1])
    _store(out, (sig, (filled_a, filled_b, ()), None))
    return out


def fg_singleton_check(f: MorD, sig: Signature) -> bool:
    """Round trip through nonstrictification on singleton-wire endpoints.

    For an adapter-only term between single wires, strictifying its
    nonstrictification lands back on the same normal form.
    """
    dom, cod, boxes, _ = _diagram(f, sig)
    if len(dom) != 1 or len(cod) != 1:
        raise PreconditionError("endpoints must be single wires")
    if boxes is not None:
        raise PreconditionError("lifted generators are not allowed here")
    back = strictify_expand(nonstrictify(f, sig), sig)
    return normalize_adapters(back, sig) == normalize_adapters(f, sig)

