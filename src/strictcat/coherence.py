"""Coherence-based decision procedures and canonical map synthesis.

The canonical arrow between two wire sequences with the same flattening
is ``unpack`` then ``pack`` (see :mod:`strictcat.strict`); this module
wraps it into equality verdicts for the base category and into the
synthesis of canonical natural isomorphisms between two bracketings of
the same shape.

Verdicts are deliberately conservative: parallel structural morphisms
are equal by coherence, but a pair involving generators is only decided
when a finite model is supplied or when both sides reach the same normal
form.  Otherwise the honest answer is "unknown" - coherence does not say
that every diagram of natural-transformation components commutes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    MorC, ObjC, Signature, TermError, ArityMismatch, is_structural,
    objsize, substitute, typecheck_c,
)
from .strict import (
    FlatteningMismatch, Lift, MorD, _records, canonical_d, normalize_adapters,
    pack_obj, unpack_obj,
)
from .functors import nonstrictify, strictify_expand

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

    Structural pairs with identical endpoints are equal by coherence.
    Generator-bearing pairs are compared through their adapter normal
    forms, then (if a model is given) extensionally; otherwise the
    verdict is unknown.
    """
    df, cf = typecheck_c(f, sig)
    dg, cg = typecheck_c(g, sig)
    if (df, cf) != (dg, cg):
        return EqVerdict(NOT_EQUAL, "endpoints differ")
    if f == g:
        return EqVerdict(EQUAL, "identical terms")
    if is_structural(f) and is_structural(g):
        return EqVerdict(EQUAL, "coherence: parallel structural morphisms")
    nf_f = normalize_adapters(strictify_expand(f, sig), sig)
    nf_g = normalize_adapters(strictify_expand(g, sig), sig)
    if nf_f == nf_g:
        return EqVerdict(EQUAL, "identical normal forms")
    if model is not None:
        from .finmodel import eval_mor, extensional_equal
        if extensional_equal(eval_mor(f, model), eval_mor(g, model)):
            return EqVerdict(EQUAL, "extensionally equal in supplied model")
        return EqVerdict(NOT_EQUAL, "distinguished by supplied model")
    return EqVerdict(UNKNOWN, "outside the decided fragment; no model given")


def canonical_nat_iso(shape_a: ObjC, shape_b: ObjC,
                      fill: tuple[ObjC, ...], sig: Signature) -> MorC:
    """Structural arrow ``shape_a[fill] -> shape_b[fill]``.

    Both shapes must have the same number of leaves, each replaced by
    the corresponding fill object; the result is the nonstrictified
    canonical adapter between the substituted wires and is independent
    (up to equality) of any other structural morphism between them.
    """
    if objsize(shape_a) != objsize(shape_b):
        raise ArityMismatch(
            f"shapes have {objsize(shape_a)} and {objsize(shape_b)} leaves")
    filled_a = substitute(shape_a, tuple(fill))
    filled_b = substitute(shape_b, tuple(fill))
    kappa = canonical_d((filled_a,), (filled_b,))
    return nonstrictify(kappa, sig)


def fg_singleton_check(f: MorD, sig: Signature) -> bool:
    """Round trip through nonstrictification on singleton-wire endpoints.

    For an adapter-only term between single wires, strictifying its
    nonstrictification lands back on the same normal form.
    """
    dom, cod, recs = _records(f, sig)
    if len(dom) != 1 or len(cod) != 1:
        raise PreconditionError("endpoints must be single wires")
    if any(isinstance(g, Lift) and not is_structural(g.mor)
           for _, g, _, _ in recs):
        raise PreconditionError("lifted generators are not allowed here")
    back = strictify_expand(nonstrictify(f, sig), sig)
    return normalize_adapters(back, sig) == normalize_adapters(f, sig)

