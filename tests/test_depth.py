"""Deep terms at the default recursion limit.

Every walk of a term runs on an explicit stack, so depth costs time and
memory but never raises ``RecursionError``.  Each case runs every layer
that applies to its term, and compares it with a copy built apart.
"""

import copy
import pickle
import sys
import tracemalloc

import pytest

from strictcat import demos
from strictcat.coherence import EQUAL, equal_structural
from strictcat.finmodel import FinModel, eval_mor
from strictcat.functors import nonstrictify, strictify_expand
from strictcat.render import layout
from strictcat.strict import (
    CompD, IdD, Pack, Unpack, _snf_walk, canonical_d, chain_d, invert_d,
    normalize_adapters, slice_term, typecheck_d,
)
from strictcat.syntax import parse_cmor, parse_dmor, show_cmor, show_dmor
from strictcat.terms import (
    Gen, Id, Tensor, UnitR, UnitRInv, chain_c, invert_structural,
    make_signature, show_obj, typecheck_c,
)

from generate import random_adapter_walk
from conftest import X, Y

SIG = make_signature(["x", "y"], {"f": (X, Y)})
DEPTH = 10_000


def adapter_walk():
    """A 10 000-step adapter walk from one wire, as one chain of slices:
    ten random walks of 100 steps, each closed back onto its start by the
    canonical arrow, ten times over.  One unbroken random walk widens to
    about 90 wires and prints to 50 MB, which costs time, not depth."""
    pieces = []
    for seed in range(10):
        walk = random_adapter_walk(SIG, (X,), 100, seed)
        walk = CompD(walk, canonical_d(typecheck_d(walk, SIG)[1], (X,)))
        pieces += map(slice_term, _snf_walk(walk, SIG).slices)
    return chain_d(*pieces * (DEPTH // 1000))


# name -> (build, signature, its normal form, or None to check instead
# that normalising the normal form changes nothing)
CASES = {
    "parity_term(1024)": (lambda: demos.parity_term(1024),
                          demos.parity_signature(), None),
    "adapter walk": (adapter_walk, SIG, IdD((X,))),
    "chain_d": (lambda: chain_d(*[Pack(X, Y), Unpack(X, Y)] * (DEPTH // 2)),
                SIG, IdD((X, Y))),
    "chain_c": (lambda: chain_c(*[UnitRInv(X), UnitR(X)] * (DEPTH // 2)),
                SIG, IdD((X,))),
}


@pytest.fixture(autouse=True)
def default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000


@pytest.mark.parametrize("name", CASES)
def test_deep_term(name):
    build, sig, expected = CASES[name]
    t = build()
    # the parser builds a copy that shares no term node with ``t``
    if name == "chain_c":
        copy = parse_cmor(show_cmor(t))
        dom, cod = typecheck_c(t, sig)
        strict = strictify_expand(t, sig)
        ends = (dom,), (cod,)
    else:
        copy = parse_dmor(show_dmor(t))
        strict = t
        ends = typecheck_d(t, sig)
    assert copy is not t and copy == t and hash(copy) == hash(t)
    normal = normalize_adapters(strict, sig)
    assert typecheck_d(normal, sig) == ends
    if expected is not None:
        assert normal == expected
    else:
        assert normalize_adapters(normal, sig) == normal


def test_deep_structural_chain_decides_and_inverts():
    t = CASES["chain_c"][0]()
    assert equal_structural(t, Id(X), SIG).kind == EQUAL
    inverse = invert_structural(t)
    assert typecheck_c(inverse, SIG) == (X, X)
    assert invert_structural(inverse) == t
    d = CASES["chain_d"][0]()
    assert invert_d(invert_d(d)) == d


def test_deep_chain_evaluates():
    t = chain_c(Gen("f"), *[Id(Y)] * (DEPTH - 1))
    model = FinModel(SIG, seed=1)
    assert eval_mor(t, model).table == eval_mor(Gen("f"), model).table


def test_deep_parity_reads_back():
    # the read-back puts one identity per wire left of each slice, so its
    # size is quadratic in n; this runs at n = 256
    sig = demos.parity_signature()
    back = nonstrictify(demos.parity_term(256), sig)
    assert parse_cmor(show_cmor(back)) == back


@pytest.mark.parametrize("name", ["chain_c", "chain_d"])
def test_deep_chain_prints_copies_and_pickles(name):
    # ``repr`` runs on a stack; copies and pickles go by the flat post-order
    t = CASES[name][0]()
    text = repr(t)
    assert text.count("Comp") == DEPTH - 1
    assert text.startswith(type(t).__name__ + "(first=" + type(t).__name__)
    assert text.endswith("))")
    for other in (copy.copy(t), copy.deepcopy(t),
                  pickle.loads(pickle.dumps(t))):
        assert other is not t and other == t


def test_deep_label_prints_in_linear_memory():
    # each printer shows a label once, as ``show_obj`` does, and stores no
    # text for its parts, which would take memory quadratic in its depth
    a = X
    for _ in range(DEPTH):
        a = Tensor(X, a)
    text = show_obj(a)
    calls = [(lambda: show_cmor(Id(a)), f"id[{text}]"),
             (lambda: show_dmor(IdD((a,))), f"idD[{text}]"),
             (lambda: layout(IdD((a,)), SIG).dom, (text,))]
    for call, expected in calls:
        tracemalloc.start()
        try:
            assert call() == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * len(text)
