import pytest
from hypothesis import given, settings, strategies as st

from strictcat.terms import (
    UNIT, ArityMismatch, Assoc, Base, Comp, Gen, Id, Tensor, TensorM,
    TermError, TypeMismatch, UnitL, UnitLInv, UnitR, UnknownName, flatten,
    is_structural, make_signature, objsize, substitute, typecheck_c,
)
from strictcat.generate import random_mor, random_obj

from conftest import W, X, Y, Z


def test_typecheck_identity(catw_sig):
    assert typecheck_c(Id(W), catw_sig) == (W, W)


def test_typecheck_assoc_direction(catw_sig):
    # the canonical arrow between these two bracketings is this associator
    dom, cod = typecheck_c(Assoc(W, UNIT, W), catw_sig)
    assert dom == Tensor(W, Tensor(UNIT, W))
    assert cod == Tensor(Tensor(W, UNIT), W)


def test_typecheck_unitor_round_trip(catw_sig):
    t = Comp(UnitL(W), UnitLInv(W))
    assert typecheck_c(t, catw_sig) == (Tensor(UNIT, W), Tensor(UNIT, W))


def test_typecheck_rejects_bad_composition(catw_sig):
    with pytest.raises(TypeMismatch):
        typecheck_c(Comp(UnitL(W), UnitL(W)), catw_sig)


def test_typecheck_rejects_unknown_generator(catw_sig):
    with pytest.raises(UnknownName):
        typecheck_c(Gen("nope"), catw_sig)


def test_typecheck_generator_types(demo_sig):
    assert typecheck_c(Gen("h"), demo_sig) == (Tensor(X, Y), Z)


def test_flatten_unit():
    assert flatten(UNIT) == ()


def test_flatten_drops_units():
    a = Tensor(Tensor(W, UNIT), Tensor(W, W))
    assert flatten(a) == ("W", "W", "W")


def test_flatten_message_example():
    h, p, e = Base("h"), Base("p"), Base("e")
    assert flatten(Tensor(h, Tensor(p, e))) == ("h", "p", "e")


def test_objsize_trivia():
    assert objsize(Tensor(UNIT, UNIT)) == 0
    assert objsize(Tensor(W, Tensor(UNIT, W))) == 2


def test_objsize_left_nested_chain():
    # oracle: count leaves with an explicit stack walk, no recursion shared
    # with the implementation
    for n in range(1, 9):
        obj = W
        for _ in range(n - 1):
            obj = Tensor(obj, W)
        count = 0
        stack = [obj]
        while stack:
            node = stack.pop()
            if isinstance(node, Base):
                count += 1
            elif isinstance(node, Tensor):
                stack += [node.left, node.right]
        assert count == n
        assert objsize(obj) == n


def test_objsize_equals_flatten_length(demo_sig, rng):
    for _ in range(100):
        a = random_obj(demo_sig, 4, rng)
        assert objsize(a) == len(flatten(a))


def test_substitute_examples():
    a, b = Base("a"), Base("b")
    shape = Tensor(W, Tensor(UNIT, W))
    assert substitute(shape, (a, b)) == Tensor(a, Tensor(UNIT, b))
    assert substitute(UNIT, ()) == UNIT
    shape2 = Tensor(Tensor(W, W), W)
    assert substitute(shape2, (a, a, a)) == Tensor(Tensor(a, a), a)


def test_substitute_arity_mismatch():
    with pytest.raises(ArityMismatch):
        substitute(Tensor(W, W), (W,))


@given(st.integers(0, 2 ** 30))
@settings(max_examples=50, deadline=None)
def test_substitute_flatten_concatenation(seed):
    sig = make_signature(["W"])
    other = make_signature(["a", "b"])
    shape = random_obj(sig, 3, seed)
    fill = tuple(random_obj(other, 3, seed + i + 1)
                 for i in range(objsize(shape)))
    out = substitute(shape, fill)
    expected = ()
    for piece in fill:
        expected += flatten(piece)
    assert flatten(out) == expected


def test_is_structural():
    assert is_structural(Assoc(X, Y, Z))
    assert not is_structural(Gen("f"))
    assert not is_structural(Comp(UnitR(X), TensorM(Gen("f"), Id(UNIT))))


def test_structural_morphisms_preserve_flattening(demo_sig, rng):
    for _ in range(200):
        f = random_mor(demo_sig, 5, rng, structural_only=True)
        dom, cod = typecheck_c(f, demo_sig)
        assert flatten(dom) == flatten(cod)


def test_typecheck_deterministic(demo_sig):
    for seed in range(50):
        f = random_mor(demo_sig, 5, seed)
        assert typecheck_c(f, demo_sig) == typecheck_c(f, demo_sig)


def test_signature_rejects_clashes():
    with pytest.raises(TermError):
        make_signature(["a"], {"a": (UNIT, UNIT)})
    with pytest.raises(TermError):
        make_signature(["pack"])
    with pytest.raises(UnknownName):
        make_signature(["a"], {"f": (Base("missing"), Base("a"))})


def test_signature_is_read_only_and_hashable():
    gens = {"f": (X, Y)}
    sig = make_signature(["x", "y"], gens)
    # writing through the signature would bypass the checks above
    with pytest.raises(TypeError):
        sig.generators["lambda"] = (X, Base("nope"))
    gens["g"] = (Y, X)  # the caller's dict is copied, not shared
    assert "g" not in sig.generators
    same = make_signature(["y", "x"], {"f": (X, Y)})
    assert sig == same and hash(sig) == hash(same)
    assert {sig: 1}[same] == 1
