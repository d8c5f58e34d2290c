import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from strictcat.terms import (
    UNIT, Base, Comp, Gen, Id, Tensor, TypeMismatch, UnknownName, _placed,
)
from strictcat import demos, strict
from strictcat.strict import (
    CompD, IdD, Lift, NotInvertible, Pack, RewriteBudgetExceeded, TensorD,
    UnitElim, UnitIntro, Unpack, canonical_d, chain_d,
    flatten_wires, invert_d, normalize_adapters,
    normalize_adapters_with_stats, pack_obj, recompose, seq_normal_form,
    typecheck_d, unpack_obj, _diagram, _record_walk,
)
from strictcat.finmodel import eval_mor_d, extensional_equal
from strictcat.functors import nonstrictify, strictify_expand
from strictcat.syntax import parse_dmor, show_dmor

from generate import (
    enumerate_catw_objects, random_adapter_walk, random_dmor, random_obj,
)
from conftest import W, X, Y, Z, with_undeclared_base


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


def test_typecheck_reports_deep_position(demo_sig):
    bad = CompD(Lift(Gen("f")), Lift(Gen("f")))   # [y] composed against [x]
    t = CompD(CompD(IdD((X, Y)), TensorD(bad, IdD((Y,)))), IdD((Y, Y)))
    with pytest.raises(TypeMismatch) as err:
        typecheck_d(t, demo_sig)
    assert err.value.position == "root.first.second.left"
    assert str(err.value) == \
        "type mismatch at root.first.second.left: [y] composed against [x]"
    # a shared ill-typed subterm is reported where the walk meets it first
    with pytest.raises(TypeMismatch) as err:
        typecheck_d(CompD(TensorD(IdD((X,)), bad), TensorD(bad, IdD((X,)))),
                    demo_sig)
    assert err.value.position == "root.first.right"


# Strict terms are typed by the rule of ``terms._box_walk``: the joins match
# and the domain's labels name only declared bases.

def test_typecheck_rejects_an_undeclared_base_anywhere(demo_sig):
    # one base name of a random term's text replaced by an undeclared one,
    # in a wire label or inside a lift
    mutated = 0
    for seed in range(2000):
        text = with_undeclared_base(show_dmor(random_dmor(demo_sig, 3, seed)),
                                    seed)
        if text is None:
            continue
        with pytest.raises(UnknownName) as err:
            typecheck_d(parse_dmor(text), demo_sig)
        assert err.value.name == "q"
        mutated += 1
    assert mutated > 1900


def test_every_layer_rejects_an_undeclared_base(demo_sig):
    q = Base("q")
    terms = [chain_d(Pack(X, q), Unpack(X, q)),  # well composed
             CompD(IdD((X, Y)), Pack(X, q)),  # a failing join
             CompD(Pack(X, q), IdD((Tensor(X, Y),)))]
    for t in terms:
        for call in (typecheck_d, seq_normal_form, normalize_adapters,
                     nonstrictify):
            with pytest.raises(UnknownName) as err:
                call(t, demo_sig)
            assert err.value.name == "q"


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


def test_unpack_obj_is_inverse_of_pack_obj(demo_sig, rng):
    objs = list(enumerate_catw_objects())
    objs += [random_obj(demo_sig, 3, rng) for _ in range(100)]
    for x in objs:
        assert unpack_obj((x,)) == invert_d(pack_obj((x,)))
    for a, b in zip(objs, reversed(objs)):
        assert unpack_obj((a, UNIT, b)) == invert_d(pack_obj((a, UNIT, b)))


def test_label_adapters_are_built_once():
    # a label's pair is stored on the interned label, so a second call
    # shares it, and a deep label is built without recursion
    a = Tensor(W, Tensor(UNIT, W))
    assert pack_obj((a,)) is pack_obj((Tensor(W, Tensor(UNIT, W)),))
    assert unpack_obj((a, W)).left is unpack_obj((a,))
    deep = W
    for _ in range(10_000):
        deep = Tensor(deep, UNIT)
    assert pack_obj((deep,)).second == Pack(deep.left, UNIT)
    assert unpack_obj((deep,)) is unpack_obj((deep,))


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


def _pack_lift_unpack():
    # a pack/unpack pair left of lift(g), on wires the generator never touches
    return chain_d(
        TensorD(Pack(X, Y), IdD((Y,))),
        TensorD(IdD((Tensor(X, Y),)), Lift(Gen("g"))),
        TensorD(Unpack(X, Y), IdD((Z,))))


def test_normalize_slides_past_disjoint_generators(demo_sig):
    # the generator sits on a wire the adapters never touch, so the
    # pack/unpack pair still cancels
    out = normalize_adapters(_pack_lift_unpack(), demo_sig)
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
    # the lifted morphism is typechecked before it is expanded, so the
    # error is the one typecheck_d gives, at the position inside it
    t = Lift(Comp(Gen("f"), Gen("f")))
    with pytest.raises(TypeMismatch) as err:
        normalize_adapters(t, demo_sig)
    assert err.value.position == "root"
    assert err.value.detail == "y composed against x"
    with pytest.raises(TypeMismatch) as direct:
        typecheck_d(t, demo_sig)
    assert str(err.value) == str(direct.value)


def test_normalize_budget_is_enforced(demo_sig):
    # three steps: lift(g) exchanges left of lift(h) among the boxes; in the
    # read-back it exchanges left of the unpack of the domain, which then
    # meets the pack before lift(h) and cancels with it
    t = CompD(TensorD(IdD((Y,)), Lift(Gen("h"))),
              TensorD(Lift(Gen("g")), IdD((Z,))))
    for budget in (1, 2):
        with pytest.raises(RewriteBudgetExceeded):
            normalize_adapters(t, demo_sig, max_steps=budget)
    out, stats = normalize_adapters_with_stats(t, demo_sig, max_steps=3)
    assert (stats.cancelled_pairs, stats.swaps) == (0, 2)
    assert out == CompD(TensorD(Lift(Gen("g")), IdD((Tensor(X, Y),))),
                        TensorD(IdD((Z,)), Lift(Gen("h"))))


def test_normalize_adapter_only_ignores_budget(catw_sig, rng):
    # an adapter-only term is presented without rewriting, so no budget
    # can run out on it
    walk = random_adapter_walk(catw_sig, (W, W, W), 8, rng)
    assert normalize_adapters(CompD(walk, invert_d(walk)), catw_sig,
                              max_steps=0) == IdD((W, W, W))
    k = canonical_d((Tensor(W, Tensor(UNIT, W)),),
                    (Tensor(Tensor(W, UNIT), W),))
    out, stats = normalize_adapters_with_stats(k, catw_sig, max_steps=0)
    assert (out, stats.cancelled_pairs, stats.swaps, stats.trace) == \
        (k, 0, 0, ["adapter-only: canonical presentation"])


# An adapter-only term makes no rewrites: it reports no pairs, no swaps and
# one trace line, however much a cancel/swap loop would have done on it.
IDENTITY_TRACE = ["adapter-only endpoints coincide: identity"]


def _adapter_only_key(t, sig):
    out, stats = normalize_adapters_with_stats(t, sig)
    return out, stats.cancelled_pairs, stats.swaps, stats.trace


@pytest.mark.parametrize("seed", range(5))
def test_normalize_walk_then_inverse_stats_pinned(catw_sig, seed):
    walk = random_adapter_walk(catw_sig, (W, W, W), 64, seed)
    assert _adapter_only_key(CompD(walk, invert_d(walk)), catw_sig) == \
        (IdD((W, W, W)), 0, 0, IDENTITY_TRACE)


@pytest.mark.parametrize("seed", range(5))
def test_normalize_lift_walk_interchange_stats_pinned(catw_sig, seed):
    # steering back with the canonical arrow would make a cancel/swap loop
    # swap thousands of times before the pairs meet
    walk = random_adapter_walk(catw_sig, (W, W, W), 64, seed,
                               structural_lifts=True)
    dom, cod = typecheck_d(walk, catw_sig)
    assert _adapter_only_key(CompD(walk, canonical_d(cod, dom)),
                             catw_sig) == (IdD(dom), 0, 0, IDENTITY_TRACE)


# (cancelled_pairs, swaps, first 16 hex digits of the SHA-256 of the repr
# of the normal form and its trace) on lift-bearing terms: a walk, the
# canonical arrow back, lift(g) on the middle wire, and a second walk.
LIFT_BEARING_STATS = {
    0: (23, 4, "1fc9eaeeb6936fe7"),
    1: (23, 19, "bac9af43827b26d8"),
    2: (22, 9, "16902ba26b26c6ad"),
    3: (20, 6, "2a123cb542395ba1"),
    4: (27, 2, "69e4472333f0ee96"),
}


@pytest.mark.parametrize("seed", sorted(LIFT_BEARING_STATS))
def test_normalize_lift_bearing_stats_pinned(demo_sig, seed):
    first = random_adapter_walk(demo_sig, (X, Y, Z), 32, seed,
                                structural_lifts=True)
    _, mid = typecheck_d(first, demo_sig)
    second = random_adapter_walk(demo_sig, (X, Z, Z), 32, seed,
                                 structural_lifts=True)
    t = chain_d(first, canonical_d(mid, (X, Y, Z)),
                TensorD(IdD((X,)), TensorD(Lift(Gen("g")), IdD((Z,)))),
                second)
    out, stats = normalize_adapters_with_stats(t, demo_sig)
    assert stats.trace == ["lift(g) at base wire 1"]
    digest = hashlib.sha256(repr((out, stats.trace)).encode()).hexdigest()
    assert (stats.cancelled_pairs, stats.swaps, digest[:16]) == \
        LIFT_BEARING_STATS[seed]


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


# A composite root stores its diagram as its facts, for the signature it
# was walked against, matched by identity; errors are never stored.


def test_records_memo_keys_on_term_and_signature(demo_sig, catw_sig):
    t = CompD(Lift(Gen("f")), Lift(Gen("g")))
    for _ in range(2):
        assert typecheck_d(t, demo_sig) == ((X,), (Z,))
        with pytest.raises(UnknownName) as err:
            typecheck_d(t, catw_sig)
        assert err.value.name == "f"


def test_records_memo_raises_again_on_an_ill_typed_root(demo_sig):
    t = TensorD(IdD((X,)), CompD(Pack(X, Y), Pack(X, Y)))
    raised, errors = [], []
    for _ in range(2):
        with pytest.raises(TypeMismatch) as err:
            typecheck_d(t, demo_sig)
        raised.append((type(err.value), str(err.value), err.value.position))
        errors.append(err.value)
    # raised afresh, not replayed from the node's facts
    assert errors[0] is not errors[1]
    assert raised[0] == raised[1] == (
        TypeMismatch,
        "type mismatch at root.right: [(x * y)] composed against [x|y]",
        "root.right")


def _records(t, sig):
    dom, cod, recs, diff, _ = _record_walk(t, sig)
    return dom, cod, _placed(recs, diff)


def test_records_memo_returns_records_no_caller_can_change(demo_sig):
    t = CompD(Pack(X, Y), Lift(Gen("h")))
    dom, cod, recs = _records(t, demo_sig)
    expected = ((0, Pack(X, Y), (X, Y), (Tensor(X, Y),)),
                (0, Lift(Gen("h")), (Tensor(X, Y),), (Z,)))
    assert recs == expected
    with pytest.raises(AttributeError):
        recs.append(recs[0])
    # the normaliser rewrites a copy: the stored diagram stays as walked
    diagram = _diagram(t, demo_sig)
    assert diagram == ((X, Y), (Z,), ((0, "h", 2, 1),), 1)
    normalize_adapters(t, demo_sig)
    assert _diagram(t, demo_sig) is diagram
    assert _records(t, demo_sig) == ((X, Y), (Z,), expected)


def test_records_of_lift_expansions_keep_the_root_remembered(demo_sig):
    # each lifted composite is walked as a subterm, which stores nothing;
    # the root keeps its diagram
    lifted = Lift(Comp(Gen("f"), Gen("g")))
    t = lifted
    for _ in range(9):
        t = TensorD(lifted, t)
    t = CompD(t, IdD((Z,) * 10))
    diagram = _diagram(t, demo_sig)
    normalize_adapters(t, demo_sig)
    assert _diagram(t, demo_sig) is diagram
    assert getattr(lifted.mor, "facts", None) is None


def test_typecheck_d_walks_each_lifted_composite_once(demo_sig, monkeypatch):
    # the records walk keeps the boxes of each lift it typechecks, so the
    # diagram does not walk the lift again
    calls = []

    def counting(f, sig):
        calls.append(f)
        return box_walk(f, sig)

    box_walk = strict._box_walk
    monkeypatch.setattr(strict, "_box_walk", counting)
    lifted = [Lift(Comp(Gen("f"), Gen("g"))) for _ in range(10)]
    t = lifted[-1]
    for g in reversed(lifted[:-1]):
        t = TensorD(g, t)
    t = CompD(t, IdD((Z,) * 10))
    assert typecheck_d(t, demo_sig) == ((X,) * 10, (Z,) * 10)
    assert calls == [g.mor for g in lifted]
