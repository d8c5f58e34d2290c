"""strictcat: a symbolic engine for strictifying monoidal categories.

Build the strict category of wire sequences over any signature, move
morphisms back and forth between the two presentations, decide equality
of structural morphisms by coherence, and synthesise the canonical
isomorphism between any two bracketings of the same wires.
"""

from .terms import (
    UNIT, ArityMismatch, Assoc, AssocInv, Base, Comp, Gen, Id, MorC, ObjC,
    Signature, Tensor, TensorM, TermError, TypeMismatch, UnitL, UnitLInv,
    UnitR, UnitRInv, Unit, UnknownName, chain_c, flatten, is_structural,
    make_signature, objsize, substitute, typecheck_c,
)
from .strict import (
    CompD, FlatteningMismatch, IdD, Lift, MorD, NotInvertible, Pack, SeqNF,
    Slice, TensorD, UnitElim, UnitIntro, Unpack, canonical_d, chain_d,
    invert_d, normalize_adapters, normalize_adapters_with_stats, pack_obj,
    recompose, seq_normal_form, typecheck_d, unpack_obj,
)
from .functors import (
    epsilon, eta, nonstrictify, obj_nonstrictify, psi_big, psi_big_inv,
    psi_small, right_nesting, strictify_expand, strictify_shallow,
)
from .coherence import (
    EQUAL, NOT_EQUAL, UNKNOWN, EqVerdict, canonical_nat_iso,
    equal_structural, fg_singleton_check,
)
from .finmodel import (
    Atom, DomainMismatch, Element, FinModel, Pair, UnitElem, eval_mor,
    eval_mor_d, eval_obj, extensional_equal,
)
from .render import DiagramLayout, emit_dot, emit_svg, layout

__version__ = "0.1.0"
