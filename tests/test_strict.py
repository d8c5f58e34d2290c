import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from strictcat.terms import (
    UNIT, Comp, Gen, Id, Tensor, TypeMismatch,
)
from strictcat import demos
from strictcat.strict import (
    CompD, IdD, Lift, NotInvertible, Pack, RewriteBudgetExceeded, TensorD,
    UnitElim, UnitIntro, Unpack, canonical_d, chain_d,
    flatten_wires, invert_d, normalize_adapters,
    normalize_adapters_with_stats, pack_obj, recompose, seq_normal_form,
    typecheck_d, unpack_obj,
)
from strictcat.finmodel import eval_mor_d, extensional_equal
from strictcat.functors import strictify_expand
from strictcat.generate import random_adapter_walk, random_dmor

from conftest import W, X, Y, Z


def test_typecheck_pack(demo_sig):
    assert typecheck_d(Pack(X, Y), demo_sig) == ((X, Y), (Tensor(X, Y),))


def test_typecheck_unit_intro(demo_sig):
    assert typecheck_d(UnitIntro(), demo_sig) == ((), (UNIT,))


def test_typecheck_intro_elim_round_trip(demo_sig):
    assert typecheck_d(CompD(UnitIntro(), UnitElim()), demo_sig) == ((), ())


def test_typecheck_lift_delegates(demo_sig):
    assert typecheck_d(Lift(Gen("h")), demo_sig) == ((Tensor(X, Y),), (Z,))


def test_typecheck_rejects_mismatch(demo_sig):
    with pytest.raises(TypeMismatch):
        typecheck_d(CompD(Pack(X, Y), Pack(X, Y)), demo_sig)
    with pytest.raises(TypeMismatch) as err:
        typecheck_d(TensorD(IdD((X,)), CompD(Pack(X, Y), Pack(X, Y))),
                    demo_sig)
    assert err.value.position == "root.right"
    assert err.value.detail == "[(x * y)] composed against [x|y]"


# ---------------------------------------------------------------------------
# Sequential normal form

def test_snf_identity_is_empty(demo_sig):
    nf = seq_normal_form(IdD((X, Y)), demo_sig)
    assert nf.slices == ()
    assert nf.dom == (X, Y)


def test_snf_tensor_factorisation(demo_sig):
    # (t (*) id) ; (id (*) u): left factor first, padded by the other dom/cod
    t = TensorD(Lift(Gen("f")), Lift(Gen("g")))
    nf = seq_normal_form(t, demo_sig)
    assert len(nf.slices) == 2
    first, second = nf.slices
    assert first.left == () and first.right == (Y,)      # dom of g
    assert second.left == (Y,) and second.right == ()    # cod of f
    assert first.gen == Lift(Gen("f"))
    assert second.gen == Lift(Gen("g"))


def test_snf_nested_tensor_wires(demo_sig):
    # (f ; g) (*) (pack (*) unit+): each slice is padded by what the other
    # factors show at that moment
    t = TensorD(CompD(Lift(Gen("f")), Lift(Gen("g"))),
                TensorD(Pack(X, Y), UnitIntro()))
    nf = seq_normal_form(t, demo_sig)
    assert nf.dom == (X, X, Y)
    assert [(s.left, s.gen, s.right) for s in nf.slices] == [
        ((), Lift(Gen("f")), (X, Y)),
        ((), Lift(Gen("g")), (X, Y)),
        ((Z,), Pack(X, Y), ()),
        ((Z, Tensor(X, Y)), UnitIntro(), ()),
    ]
    assert nf.cod == (Z, Tensor(X, Y), UNIT)


def test_snf_composition_concatenates(demo_sig):
    a = Pack(X, Y)
    b = Unpack(X, Y)
    nf = seq_normal_form(CompD(a, b), demo_sig)
    assert [s.gen for s in nf.slices] == [a, b]


def test_snf_each_slice_single_generator(demo_sig):
    for seed in range(100):
        t = random_dmor(demo_sig, 3, seed)
        nf = seq_normal_form(t, demo_sig)
        for s in nf.slices:
            assert isinstance(s.gen, (Lift, Pack, Unpack, UnitIntro, UnitElim))


def test_snf_recompose_extensionally_equal(demo_sig, demo_model):
    for seed in range(100):
        t = random_dmor(demo_sig, 3, seed)
        nf = seq_normal_form(t, demo_sig)
        back = recompose(nf.slices, nf.dom)
        assert typecheck_d(back, demo_sig) == typecheck_d(t, demo_sig)
        assert extensional_equal(eval_mor_d(t, demo_model),
                                 eval_mor_d(back, demo_model))


# ---------------------------------------------------------------------------
# Expansion and cancellation examples

def test_functoriality_examples(demo_sig):
    assert strictify_expand(Id(X), demo_sig) == IdD((X,))
    assert strictify_expand(Comp(Gen("f"), Gen("g")), demo_sig) == \
        CompD(Lift(Gen("f")), Lift(Gen("g")))


def test_adapter_cancel_examples(demo_sig):
    t = CompD(Pack(X, Y), Unpack(X, Y))
    assert normalize_adapters(t, demo_sig) == IdD((X, Y))
    t2 = CompD(UnitElim(), UnitIntro())
    assert normalize_adapters(t2, demo_sig) == IdD((UNIT,))


# ---------------------------------------------------------------------------
# Inversion

def test_invert_generators():
    assert invert_d(Pack(X, Y)) == Unpack(X, Y)
    assert invert_d(UnitIntro()) == UnitElim()


def test_invert_composition_reverses():
    f, g = Pack(X, Y), Unpack(Y, X)
    assert invert_d(CompD(f, g)) == CompD(invert_d(g), invert_d(f))


def test_invert_rejects_generators():
    with pytest.raises(NotInvertible):
        invert_d(Lift(Gen("f")))


def test_invert_round_trips_to_identity(catw_sig, rng):
    for _ in range(50):
        walk = random_adapter_walk(catw_sig, (W, Tensor(W, W)), 5, rng)
        dom, _ = typecheck_d(walk, catw_sig)
        round_trip = CompD(walk, invert_d(walk))
        assert normalize_adapters(round_trip, catw_sig) == IdD(dom)


# ---------------------------------------------------------------------------
# Packing and canonical arrows

def test_pack_obj_examples(catw_sig):
    assert pack_obj(((UNIT),)) == UnitIntro()
    assert pack_obj((W,)) == IdD((W,))
    expected = CompD(TensorD(IdD((W,)), IdD((W,))), Pack(W, W))
    assert pack_obj((Tensor(W, W),)) == expected


def test_unpack_obj_examples(catw_sig):
    assert unpack_obj(((UNIT),)) == UnitElim()
    assert unpack_obj(()) == IdD(())
    expected = CompD(Unpack(W, W), TensorD(IdD((W,)), IdD((W,))))
    assert unpack_obj((Tensor(W, W),)) == expected


def test_pack_obj_domain_is_flattened(catw_sig):
    x = (Tensor(W, Tensor(UNIT, W)), UNIT, W)
    dom, cod = typecheck_d(pack_obj(x), catw_sig)
    assert cod == x
    assert dom == (W, W, W)
    assert flatten_wires(dom) == flatten_wires(x)


def test_canonical_unit_example():
    assert canonical_d((), (UNIT,)) == UnitIntro()


def test_canonical_requires_equal_flattening():
    from strictcat.strict import FlatteningMismatch
    with pytest.raises(FlatteningMismatch):
        canonical_d((W,), (W, W))


def test_canonical_self_normalizes_to_identity(catw_sig):
    for x in [(W,), (Tensor(W, W),), (Tensor(W, Tensor(UNIT, W)), W)]:
        assert normalize_adapters(canonical_d(x, x), catw_sig) == IdD(x)


# ---------------------------------------------------------------------------
# normalize_adapters

def test_normalize_canonical_is_fixpoint(catw_sig):
    a = (Tensor(W, Tensor(UNIT, W)),)
    b = (Tensor(Tensor(W, UNIT), W),)
    k = canonical_d(a, b)
    assert normalize_adapters(k, catw_sig) == k


def test_normalize_random_walks_reach_canonical(catw_sig, rng):
    for _ in range(100):
        start = (W, Tensor(W, UNIT))
        walk = random_adapter_walk(catw_sig, start, rng.randint(1, 8), rng)
        dom, cod = typecheck_d(walk, catw_sig)
        expected = IdD(dom) if dom == cod else canonical_d(dom, cod)
        assert normalize_adapters(walk, catw_sig) == expected


def test_normalize_slides_past_disjoint_generators(demo_sig):
    # the generator sits on a wire the adapters never touch, so the
    # pack/unpack pair still cancels
    t = chain_d(
        TensorD(Pack(X, Y), IdD((Y,))),
        TensorD(IdD((Tensor(X, Y),)), Lift(Gen("g"))),
        TensorD(Unpack(X, Y), IdD((Z,))))
    out = normalize_adapters(t, demo_sig)
    nf = seq_normal_form(out, demo_sig)
    assert [type(s.gen).__name__ for s in nf.slices] == ["Lift"]


def test_normalize_keeps_genuinely_blocked_adapters(demo_sig, demo_model):
    # here the generator consumes the fused wire itself; nothing cancels
    t = chain_d(Pack(X, Y), Lift(Gen("h")), IdD((Z,)))
    out = normalize_adapters(t, demo_sig)
    nf = seq_normal_form(out, demo_sig)
    assert [type(s.gen).__name__ for s in nf.slices] == ["Pack", "Lift"]
    assert extensional_equal(eval_mor_d(t, demo_model),
                             eval_mor_d(out, demo_model))


def test_normalize_decides_parallel_adapter_terms(catw_sig, rng):
    # two independent adapter walks steered onto the same endpoints
    # normalize to the same syntax
    for _ in range(60):
        start = (Tensor(W, UNIT), W)
        w1 = random_adapter_walk(catw_sig, start, rng.randint(1, 6), rng)
        w2 = random_adapter_walk(catw_sig, start, rng.randint(1, 6), rng)
        _, cod1 = typecheck_d(w1, catw_sig)
        _, cod2 = typecheck_d(w2, catw_sig)
        steered = CompD(w2, canonical_d(cod2, cod1))
        assert normalize_adapters(w1, catw_sig) == \
            normalize_adapters(steered, catw_sig)


def test_normalize_preserves_semantics(demo_sig, demo_model):
    for seed in range(60):
        t = random_dmor(demo_sig, 3, seed)
        out = normalize_adapters(t, demo_sig)
        assert typecheck_d(out, demo_sig) == typecheck_d(t, demo_sig)
        assert extensional_equal(eval_mor_d(t, demo_model),
                                 eval_mor_d(out, demo_model))


def test_normalize_rejects_ill_typed_lift(demo_sig):
    # the lift expands to lift(f) ; lift(f), which the strict walk rejects
    with pytest.raises(TypeMismatch) as err:
        normalize_adapters(Lift(Comp(Gen("f"), Gen("f"))), demo_sig)
    assert err.value.position == "root"
    assert err.value.detail == "[y] composed against [x]"


def test_normalize_budget_is_enforced(catw_sig, rng):
    walk = random_adapter_walk(catw_sig, (W, W, W), 8, rng)
    round_trip = CompD(walk, invert_d(walk))
    with pytest.raises(RewriteBudgetExceeded):
        normalize_adapters(round_trip, catw_sig, max_steps=1)


# (cancelled_pairs, swaps, first 16 hex digits of the SHA-256 of the trace
# joined by newlines), recorded from the normaliser that rewrote whole
# Slice objects; the position-record normaliser must reproduce them.
WALK_INVERSE_STATS = {
    0: (64, 0, "e402915a1f330d75"),
    1: (64, 0, "eb3db57ea5d5c807"),
    2: (64, 0, "043ff2ebe34589ca"),
    3: (64, 0, "18a60874627a5ed0"),
    4: (64, 0, "7808fe277f3eccdc"),
}
LIFT_WALK_CANONICAL_STATS = {
    0: (63, 2110, "7e34b14735eb2e4e"),
    1: (68, 2625, "f29bd9dc808213a9"),
    2: (62, 684, "e844d0e640e3c258"),
    3: (71, 2549, "4a532ac9fa70c096"),
    4: (47, 1353, "694b7ac44f4e3d92"),
}


def _stats_key(t, sig):
    _, stats = normalize_adapters_with_stats(t, sig)
    digest = hashlib.sha256("\n".join(stats.trace).encode()).hexdigest()
    return stats.cancelled_pairs, stats.swaps, digest[:16]


@pytest.mark.parametrize("seed", sorted(WALK_INVERSE_STATS))
def test_normalize_walk_then_inverse_stats_pinned(catw_sig, seed):
    walk = random_adapter_walk(catw_sig, (W, W, W), 64, seed)
    assert _stats_key(CompD(walk, invert_d(walk)), catw_sig) == \
        WALK_INVERSE_STATS[seed]


@pytest.mark.parametrize("seed", sorted(LIFT_WALK_CANONICAL_STATS))
def test_normalize_lift_walk_interchange_stats_pinned(catw_sig, seed):
    # steering back with the canonical arrow makes the loop swap thousands
    # of times before the pairs meet
    walk = random_adapter_walk(catw_sig, (W, W, W), 64, seed,
                               structural_lifts=True)
    dom, cod = typecheck_d(walk, catw_sig)
    assert _stats_key(CompD(walk, canonical_d(cod, dom)), catw_sig) == \
        LIFT_WALK_CANONICAL_STATS[seed]


def test_normalize_deep_parity_circuit():
    # 90 nested stages used to overflow the stack at the default limit
    t, sig = demos.parity_term(90), demos.parity_signature()
    out = normalize_adapters(t, sig)
    assert typecheck_d(out, sig) == typecheck_d(t, sig)


def test_normalize_long_walk_with_lifts(catw_sig):
    walk = random_adapter_walk(catw_sig, (W, W, W), 400, 0,
                               structural_lifts=True)
    dom, cod = typecheck_d(walk, catw_sig)
    out = normalize_adapters(walk, catw_sig)
    assert typecheck_d(out, catw_sig) == (dom, cod)


def test_chain_left_fold():
    t = chain_d(UnitIntro(), UnitElim(), UnitIntro())
    assert t == CompD(CompD(UnitIntro(), UnitElim()), UnitIntro())


def test_adapter_terms_preserve_wire_flattening(catw_sig, rng):
    for _ in range(100):
        walk = random_adapter_walk(
            catw_sig, (Tensor(W, Tensor(UNIT, W)), W), 6, rng,
            structural_lifts=True)
        dom, cod = typecheck_d(walk, catw_sig)
        assert flatten_wires(dom) == flatten_wires(cod)


@given(st.integers(0, 2 ** 30))
@settings(max_examples=60, deadline=None)
def test_normalize_is_idempotent(seed):
    from strictcat.terms import make_signature, Base
    sig = make_signature(
        ["x", "y"], {"k": (Base("x"), Base("y"))})
    t = random_dmor(sig, 3, seed)
    once = normalize_adapters(t, sig)
    assert normalize_adapters(once, sig) == once
