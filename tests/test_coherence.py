import pytest

from strictcat.terms import (
    UNIT, Assoc, Base, Comp, Gen, Id, Tensor, UnitL, UnitR, is_structural,
    objsize, typecheck_c,
)
from strictcat.strict import CompD, IdD, Lift, canonical_d
from strictcat.coherence import (
    EQUAL, NOT_EQUAL, UNKNOWN, PreconditionError, canonical_nat_iso,
    equal_structural, fg_singleton_check,
)
from strictcat.functors import nonstrictify
from strictcat.finmodel import FinModel, eval_mor, extensional_equal
from strictcat.generate import (
    enumerate_catw_objects, random_singleton_adapter_term,
    random_structural_walk,
)

from conftest import W, X, Y, Z


def test_worked_example_is_the_associator(catw_sig, catw_model):
    a = (Tensor(W, Tensor(UNIT, W)),)
    b = (Tensor(Tensor(W, UNIT), W),)
    g = nonstrictify(canonical_d(a, b), catw_sig)
    alpha = Assoc(W, UNIT, W)
    verdict = equal_structural(g, alpha, catw_sig)
    assert verdict.kind == EQUAL
    assert extensional_equal(eval_mor(g, catw_model),
                             eval_mor(alpha, catw_model))


def test_equal_structural_type_mismatch(demo_sig):
    f = UnitL(X)   # I*x -> x
    g = UnitR(X)   # x*I -> x
    assert equal_structural(f, g, demo_sig).kind == NOT_EQUAL


def test_equal_structural_unknown_for_generators(demo_sig):
    # two distinct generators of the same type: outside the decided fragment
    f, g = Gen("f"), Gen("f")
    assert equal_structural(f, Comp(f, Id(Y)), demo_sig).kind == EQUAL
    sig = demo_sig
    verdict = equal_structural(Gen("u"), Comp(Gen("u"), Id(Y)), sig)
    assert verdict.kind == EQUAL  # identical normal forms
    from strictcat.terms import make_signature
    two = make_signature(["x"], {"p": (Base("x"), Base("x")),
                                 "q": (Base("x"), Base("x"))})
    assert equal_structural(Gen("p"), Gen("q"), two).kind == UNKNOWN


def test_equal_structural_model_decides(demo_sig, demo_model):
    from strictcat.terms import make_signature
    two = make_signature(["x"], {"p": (Base("x"), Base("x")),
                                 "q": (Base("x"), Base("x"))})
    model = FinModel(two, {"x": 3}, seed=1)
    same = equal_structural(Gen("p"), Gen("p"), two, model)
    assert same.kind == EQUAL
    differs = equal_structural(Gen("p"), Gen("q"), two, model)
    assert differs.kind in (EQUAL, NOT_EQUAL)  # decided either way
    # with this seed the tables differ
    assert differs.kind == NOT_EQUAL


def test_equal_structural_is_an_equivalence(catw_sig, rng):
    objs = [o for o in enumerate_catw_objects(3, 1) if objsize(o) >= 1]
    for _ in range(30):
        a = rng.choice(objs)
        f = random_structural_walk(a, 4, rng)
        g = random_structural_walk(a, 4, rng)
        _, bf = typecheck_c(f, catw_sig)
        _, bg = typecheck_c(g, catw_sig)
        assert equal_structural(f, f, catw_sig).kind == EQUAL
        vf = equal_structural(f, g, catw_sig)
        vg = equal_structural(g, f, catw_sig)
        assert vf.kind == vg.kind  # symmetric


def test_parallel_structural_pairs_equal_and_oracle_agrees(
        catw_sig, catw_model, rng):
    objs = [o for o in enumerate_catw_objects(4, 1) if objsize(o) <= 4]
    for _ in range(50):
        a = rng.choice(objs)
        f = random_structural_walk(a, rng.randint(1, 6), rng)
        _, b = typecheck_c(f, catw_sig)
        g = nonstrictify(canonical_d((a,), (b,)), catw_sig)
        assert equal_structural(f, g, catw_sig).kind == EQUAL
        assert extensional_equal(eval_mor(f, catw_model),
                                 eval_mor(g, catw_model))


def test_canonical_arrows_compose_and_tensor_canonically(catw_sig, rng):
    from strictcat.strict import CompD, TensorD, normalize_adapters
    from strictcat.generate import random_bracketing, random_adapter_walk
    from strictcat.strict import typecheck_d

    def endpoints(seed_steps):
        walk = random_adapter_walk(catw_sig, (Tensor(W, W), W),
                                   seed_steps, rng)
        return typecheck_d(walk, catw_sig)

    for _ in range(30):
        a, b = endpoints(rng.randint(1, 5))
        # a third object with the same flattening, by rebracketing
        c = (random_bracketing([W] * 3, rng),)
        composite = CompD(canonical_d(a, b), canonical_d(b, c))
        expected = IdD(a) if a == c else canonical_d(a, c)
        assert normalize_adapters(composite, catw_sig) == expected
        a2, b2 = endpoints(rng.randint(1, 5))
        tensored = TensorD(canonical_d(a, b), canonical_d(a2, b2))
        expected2 = (IdD(a + a2) if a + a2 == b + b2
                     else canonical_d(a + a2, b + b2))
        assert normalize_adapters(tensored, catw_sig) == expected2


# ---------------------------------------------------------------------------
# canonical_nat_iso

def test_canonical_nat_iso_identity_shape(demo_sig):
    out = canonical_nat_iso(W, W, (X,), demo_sig)
    assert out == Id(X)


def test_canonical_nat_iso_triangle_instance(demo_sig, demo_model):
    shape_a = Tensor(W, Tensor(UNIT, W))
    shape_b = Tensor(Tensor(W, UNIT), W)
    a, b = Base("x"), Base("y")
    out = canonical_nat_iso(shape_a, shape_b, (a, b), demo_sig)
    assert is_structural(out)
    assert typecheck_c(out, demo_sig) == (
        Tensor(a, Tensor(UNIT, b)), Tensor(Tensor(a, UNIT), b))
    direct = Assoc(a, UNIT, b)
    assert equal_structural(out, direct, demo_sig).kind == EQUAL
    assert extensional_equal(eval_mor(out, demo_model),
                             eval_mor(direct, demo_model))


def test_canonical_nat_iso_rebracketing(demo_sig, demo_model):
    shape_a = Tensor(Tensor(W, W), W)
    shape_b = Tensor(W, Tensor(W, W))
    fill = (X, Y, Z)
    out = canonical_nat_iso(shape_a, shape_b, fill, demo_sig)
    from strictcat.terms import AssocInv
    direct = AssocInv(X, Y, Z)
    assert equal_structural(out, direct, demo_sig).kind == EQUAL
    assert extensional_equal(eval_mor(out, demo_model),
                             eval_mor(direct, demo_model))


def test_canonical_nat_iso_arity_check(demo_sig):
    from strictcat.terms import ArityMismatch
    with pytest.raises(ArityMismatch):
        canonical_nat_iso(W, Tensor(W, W), (X,), demo_sig)


# ---------------------------------------------------------------------------
# fg_singleton_check

def test_fg_singleton_on_lifted_associator(catw_sig):
    assert fg_singleton_check(Lift(Assoc(W, W, W)), catw_sig)


def test_fg_singleton_on_identity(catw_sig):
    assert fg_singleton_check(IdD((W,)), catw_sig)


def test_fg_singleton_random_terms(catw_sig, rng):
    objs = [o for o in enumerate_catw_objects(3, 1) if objsize(o) >= 1]
    for _ in range(50):
        t = random_singleton_adapter_term(
            catw_sig, rng.choice(objs), rng.randint(1, 5), rng)
        assert fg_singleton_check(t, catw_sig)


def test_fg_singleton_preconditions(catw_sig, demo_sig):
    from strictcat.strict import Pack
    with pytest.raises(PreconditionError):
        fg_singleton_check(Pack(W, W), catw_sig)  # two wires in
    with pytest.raises(PreconditionError):
        fg_singleton_check(Lift(Gen("f")), demo_sig)
    # the endpoint check comes before the lifted-generator check
    with pytest.raises(PreconditionError, match="endpoints must be single"):
        fg_singleton_check(CompD(Pack(X, Y), Lift(Gen("h"))), demo_sig)
