import random

import pytest

from strictcat.terms import (
    UNIT, Assoc, Base, Comp, Gen, Id, Tensor, TensorM, TermError, UnitL,
    UnitLInv, UnitR, UnitRInv, chain_c, typecheck_c,
)
from strictcat.strict import (
    Lift, Pack, TensorD, UnitElim, UnitIntro, canonical_d,
)
from strictcat.finmodel import (
    Atom, DomainMismatch, FinModel, Pair, UNIT_ELEM, eval_mor, eval_mor_d,
    eval_obj, extensional_equal,
)

from generate import random_structural_walk
from conftest import W, X, Y, Z


def test_eval_obj_unit(catw_model):
    assert eval_obj(UNIT, catw_model) == (UNIT_ELEM,)


def test_eval_obj_product_cardinality(catw_model):
    assert len(eval_obj(Tensor(W, W), catw_model)) == 4


def test_eval_obj_nested_shape(catw_model):
    carrier = eval_obj(Tensor(W, Tensor(UNIT, W)), catw_model)
    assert len(carrier) == 4
    for elem in carrier:
        assert isinstance(elem, Pair)
        assert isinstance(elem.second, Pair)
        assert elem.second.first == UNIT_ELEM


def test_eval_obj_deterministic(catw_model):
    a = Tensor(W, Tensor(W, W))
    assert eval_obj(a, catw_model) == eval_obj(a, catw_model)


def test_eval_mor_unitor(catw_model):
    table = eval_mor(UnitL(W), catw_model)
    assert table.mapping[Pair(UNIT_ELEM, Atom(0))] == Atom(0)


def test_eval_mor_assoc_rebrackets(catw_model):
    table = eval_mor(Assoc(W, UNIT, W), catw_model)
    key = Pair(Atom(0), Pair(UNIT_ELEM, Atom(1)))
    assert table.mapping[key] == Pair(Pair(Atom(0), UNIT_ELEM), Atom(1))


def test_functoriality_of_eval(demo_sig, demo_model):
    f = Gen("f")
    g = Gen("g")
    composite = eval_mor(Comp(f, g), demo_model)
    tf = eval_mor(f, demo_model)
    tg = eval_mor(g, demo_model)
    assert composite.mapping == {x: tg.mapping[y]
                                 for x, y in tf.mapping.items()}


def test_pentagon_commutes(catw_model):
    a = b = c = d = W
    left = chain_c(Assoc(a, b, Tensor(c, d)), Assoc(Tensor(a, b), c, d))
    right = chain_c(
        TensorM(Id(a), Assoc(b, c, d)),
        Assoc(a, Tensor(b, c), d),
        TensorM(Assoc(a, b, c), Id(d)))
    assert extensional_equal(eval_mor(left, catw_model),
                             eval_mor(right, catw_model))


def test_triangle_commutes(catw_model):
    left = Assoc(W, UNIT, W)
    # a (x) lambda = (rho (x) b) after the associator
    via = Comp(left, TensorM(UnitR(W), Id(W)))
    direct = TensorM(Id(W), UnitL(W))
    assert extensional_equal(eval_mor(via, catw_model),
                             eval_mor(direct, catw_model))


def test_eval_mor_d_pack(catw_model):
    table = eval_mor_d(Pack(W, W), catw_model)
    assert table.mapping[(Atom(0), Atom(1))] == (Pair(Atom(0), Atom(1)),)


def test_eval_mor_d_unit_intro_elim(catw_model):
    assert eval_mor_d(UnitIntro(), catw_model).mapping == {(): (UNIT_ELEM,)}
    assert eval_mor_d(UnitElim(), catw_model).mapping == {(UNIT_ELEM,): ()}


def test_eval_canonical_matches_assoc(catw_sig):
    for size in (2, 3):
        model = FinModel(catw_sig, {"W": size})
        a = (Tensor(W, Tensor(UNIT, W)),)
        b = (Tensor(Tensor(W, UNIT), W),)
        kappa = eval_mor_d(canonical_d(a, b), model)
        alpha = eval_mor(Assoc(W, UNIT, W), model)
        assert {k[0]: v[0] for k, v in kappa.mapping.items()} == alpha.mapping


def test_extensional_equal_domain_mismatch(catw_model):
    lam = eval_mor(UnitL(W), catw_model)
    rho = eval_mor(UnitR(W), catw_model)
    with pytest.raises(DomainMismatch):
        extensional_equal(lam, rho)


def test_structural_parallel_pairs_agree_exhaustively(catw_sig, rng):
    # coherence at desk scale, carriers up to size 3
    model = FinModel(catw_sig, {"W": 3})
    for _ in range(20):
        f = random_structural_walk(Tensor(W, Tensor(W, UNIT)), 4, rng)
        g = random_structural_walk(Tensor(W, Tensor(W, UNIT)), 4, rng)
        from strictcat.terms import typecheck_c
        if typecheck_c(f, catw_sig) == typecheck_c(g, catw_sig):
            assert extensional_equal(eval_mor(f, model), eval_mor(g, model))


def test_generator_tables_are_reproducible(demo_sig):
    m1 = FinModel(demo_sig, seed=42)
    m2 = FinModel(demo_sig, seed=42)
    m3 = FinModel(demo_sig, seed=43)
    assert m1.gen_tables == m2.gen_tables
    assert m1.gen_tables != m3.gen_tables


def test_tensor_index_uses_right_codomain_size(demo_sig):
    # f: x -> y grows, h: x*y -> z shrinks to one element; with f on the
    # left a radix taken from h's domain would run past the codomain
    model = FinModel(demo_sig, {"x": 2, "y": 3, "z": 1})
    tf, th = model.gen_tables["f"], model.gen_tables["h"]
    table = eval_mor(TensorM(Gen("f"), Gen("h")), model)
    assert table.mapping == {Pair(a, b): Pair(tf[a], th[b])
                             for a in tf for b in th}
    strict = eval_mor_d(TensorD(Lift(Gen("f")), Lift(Gen("h"))), model)
    assert strict.mapping == {(a, b): (tf[a], th[b])
                              for a in tf for b in th}
    assert strict.table == table.table


def test_extensional_equal_sees_codomain_nesting(catw_model):
    assoc = eval_mor(Assoc(W, W, W), catw_model)
    ident = eval_mor(Id(Tensor(W, Tensor(W, W))), catw_model)
    assert assoc.table == ident.table == tuple(range(8))
    assert not extensional_equal(assoc, ident)


def test_extensional_equal_sees_carrier_sizes(demo_sig):
    # x*y has six elements under both models, but not the same six
    xy = Tensor(X, Y)
    two_three = eval_mor(Id(xy), FinModel(demo_sig, {"x": 2, "y": 3}))
    three_two = eval_mor(Id(xy), FinModel(demo_sig, {"x": 3, "y": 2}))
    assert two_three.table == three_two.table
    assert not extensional_equal(two_three, three_two)


def test_generator_tables_match_carrier_draws(demo_sig):
    seed = 42
    model = FinModel(demo_sig, {"x": 2, "y": 3, "z": 1}, seed=seed)
    expected = {}
    for name in sorted(demo_sig.generators):
        dom, cod = demo_sig.generators[name]
        rng = random.Random(f"{seed}/{name}")
        cod_carrier = eval_obj(cod, model)
        expected[name] = {x: rng.choice(cod_carrier)
                          for x in eval_obj(dom, model)}
    assert model.gen_tables == expected


def test_eval_mor_generator_terms_match_hand_built_tables(demo_sig):
    # a term with a generator box must be evaluated, even when its only
    # box sits in the right half of a tensor behind structural nodes
    model = FinModel(demo_sig, {"x": 2, "y": 3, "z": 2}, seed=9)
    tf, th, tu = (model.gen_tables[n] for n in ("f", "h", "u"))
    xs, ys = eval_obj(X, model), eval_obj(Y, model)
    cases = [
        (Comp(Assoc(X, X, X), TensorM(Id(Tensor(X, X)), Gen("f"))),
         Tensor(Tensor(X, X), Y),
         {Pair(a, Pair(b, c)): Pair(Pair(a, b), tf[c])
          for a in xs for b in xs for c in xs}),
        (TensorM(UnitL(X), Comp(UnitRInv(X), TensorM(Gen("f"), Id(UNIT)))),
         Tensor(X, Tensor(Y, UNIT)),
         {Pair(Pair(UNIT_ELEM, a), b): Pair(a, Pair(tf[b], UNIT_ELEM))
          for a in xs for b in xs}),
        (Comp(Gen("h"), Id(Z)), Z,
         {Pair(a, b): th[Pair(a, b)] for a in xs for b in ys}),
        (Comp(UnitLInv(X), TensorM(Gen("u"), Id(X))), Tensor(Y, X),
         {a: Pair(tu[UNIT_ELEM], a) for a in xs}),
    ]
    for f, cod, mapping in cases:
        table = eval_mor(f, model)
        assert (table.cod, table.mapping) == (cod, mapping)
        assert table.dom == typecheck_c(f, demo_sig)[0]


@pytest.mark.parametrize("f", [
    Comp(UnitL(W), UnitL(W)),
    TensorM(Id(W), Comp(Assoc(W, W, W), Id(W))),
    Comp(Id(Tensor(W, Base("nope"))), UnitR(W)),
])
def test_eval_mor_structural_errors_are_typecheck_errors(f, catw_model):
    # the identity shortcut needs the ends, so it raises what typecheck_c does
    def raised(call):
        with pytest.raises(TermError) as err:
            call(f)
        return (type(err.value), str(err.value),
                getattr(err.value, "position", None))

    for _ in range(2):
        assert raised(lambda t: eval_mor(t, catw_model)) == \
            raised(lambda t: typecheck_c(t, catw_model.sig))
