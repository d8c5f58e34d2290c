import pytest

from strictcat.terms import (
    UNIT, Assoc, AssocInv, Comp, Gen, Id, Tensor, TensorM, UnitL, UnitLInv,
    UnitR, UnitRInv, typecheck_c,
)
from strictcat.strict import (
    CompD, IdD, Lift, Pack, TensorD, UnitElim, UnitIntro, Unpack, chain_d,
    invert_d, normalize_adapters, typecheck_d,
)
from strictcat.functors import (
    epsilon, eta, nonstrictify, obj_nonstrictify, psi_big, psi_small,
    strictify_expand, strictify_shallow,
)
from strictcat.finmodel import eval_mor, eval_mor_d, extensional_equal
from strictcat.generate import random_dmor, random_mor, random_obj

from conftest import X, Y, Z


def test_strictify_shallow_is_lift(demo_sig):
    assert strictify_shallow(Gen("f"), demo_sig) == Lift(Gen("f"))
    t = strictify_shallow(Id(X), demo_sig)
    assert typecheck_d(t, demo_sig) == ((X,), (X,))
    assert strictify_shallow(Assoc(X, Y, Z), demo_sig) == Lift(Assoc(X, Y, Z))


def test_strictify_expand_assoc_shape(demo_sig):
    expected = chain_d(
        Unpack(X, Tensor(Y, Z)),
        TensorD(IdD((X,)), Unpack(Y, Z)),
        TensorD(Pack(X, Y), IdD((Z,))),
        Pack(Tensor(X, Y), Z))
    assert strictify_expand(Assoc(X, Y, Z), demo_sig) == expected


@pytest.mark.parametrize("f, expected", [
    (AssocInv(X, Y, Z), chain_d(
        Unpack(Tensor(X, Y), Z),
        TensorD(Unpack(X, Y), IdD((Z,))),
        TensorD(IdD((X,)), Pack(Y, Z)),
        Pack(X, Tensor(Y, Z)))),
    (UnitL(X), CompD(Unpack(UNIT, X), TensorD(UnitElim(), IdD((X,))))),
    (UnitLInv(X), CompD(TensorD(UnitIntro(), IdD((X,))), Pack(UNIT, X))),
    (UnitR(X), CompD(Unpack(X, UNIT), TensorD(IdD((X,)), UnitElim()))),
    (UnitRInv(X), CompD(TensorD(IdD((X,)), UnitIntro()), Pack(X, UNIT))),
], ids=["AssocInv", "UnitL", "UnitLInv", "UnitR", "UnitRInv"])
def test_strictify_expand_structural_images(demo_sig, f, expected):
    assert strictify_expand(f, demo_sig) == expected


def test_strictify_expand_tensor_shape(demo_sig):
    expected = chain_d(
        Unpack(X, Y),
        TensorD(Lift(Gen("f")), Lift(Gen("g"))),
        Pack(Y, Z))
    assert strictify_expand(TensorM(Gen("f"), Gen("g")), demo_sig) == expected


def test_strictify_expand_identity(demo_sig):
    assert strictify_expand(Id(UNIT), demo_sig) == IdD((UNIT,))


def test_strictify_expand_lifts_only_generators(demo_sig):
    def lifted_morphisms(t):
        if isinstance(t, Lift):
            yield t.mor
        elif isinstance(t, (CompD,)):
            yield from lifted_morphisms(t.first)
            yield from lifted_morphisms(t.second)
        elif isinstance(t, TensorD):
            yield from lifted_morphisms(t.left)
            yield from lifted_morphisms(t.right)

    for seed in range(60):
        f = random_mor(demo_sig, 5, seed)
        out = strictify_expand(f, demo_sig)
        assert all(isinstance(m, Gen) for m in lifted_morphisms(out))


def test_strictify_expand_agrees_with_shallow(demo_sig, demo_model):
    for seed in range(80):
        f = random_mor(demo_sig, 4, seed)
        lhs = eval_mor_d(strictify_expand(f, demo_sig), demo_model)
        rhs = eval_mor_d(Lift(f), demo_model)
        assert extensional_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# Nonstrictification

def test_g_of_f_is_identity_on_terms(demo_sig):
    for seed in range(200):
        f = random_mor(demo_sig, 6, seed)
        assert nonstrictify(strictify_shallow(f, demo_sig), demo_sig) == f


def test_g_base_cases(demo_sig):
    assert nonstrictify(Lift(Gen("f")), demo_sig) == Gen("f")
    # pack beside a nonempty identity is the associator
    t = TensorD(Pack(X, Y), IdD((Z,)))
    assert nonstrictify(t, demo_sig) == Assoc(X, Y, Z)
    # unit introduction after a single wire is the inverse right unitor
    t2 = TensorD(IdD((X,)), UnitIntro())
    assert nonstrictify(t2, demo_sig) == UnitRInv(X)
    # and before everything, the inverse left unitor
    t3 = TensorD(UnitIntro(), IdD((X,)))
    assert nonstrictify(t3, demo_sig) == UnitLInv(X)
    assert nonstrictify(TensorD(IdD((X,)), UnitElim()), demo_sig) == UnitR(X)


def test_g_two_wire_pack_is_face_value_identity(demo_sig, demo_model):
    # both readings of id (*) pack typecheck; the emitted one is the
    # fully spelled-out identity, and they agree extensionally
    t = TensorD(IdD((X,)), Pack(Y, Z))
    out = nonstrictify(t, demo_sig)
    assert out == TensorM(Id(X), TensorM(Id(Y), Id(Z)))
    other = Id(Tensor(X, Tensor(Y, Z)))
    assert typecheck_c(out, demo_sig) == typecheck_c(other, demo_sig)
    assert extensional_equal(eval_mor(out, demo_model),
                             eval_mor(other, demo_model))


def test_g_on_objects():
    assert obj_nonstrictify(()) == UNIT
    assert obj_nonstrictify((X,)) == X
    assert obj_nonstrictify((X, Y, Z)) == Tensor(X, Tensor(Y, Z))


def test_g_types_check(demo_sig):
    for seed in range(60):
        t = random_dmor(demo_sig, 3, seed)
        dom, cod = typecheck_d(t, demo_sig)
        out = nonstrictify(t, demo_sig)
        assert typecheck_c(out, demo_sig) == \
            (obj_nonstrictify(dom), obj_nonstrictify(cod))


# ---------------------------------------------------------------------------
# Coherence data

def test_psi_big_cases(demo_sig):
    assert psi_big((), ()) == UnitL(UNIT)
    assert psi_big((X,), (Y,)) == Id(Tensor(X, Y))
    assert psi_big((X, Y), ()) == UnitR(Tensor(X, Y))
    assert psi_big((), (Y,)) == UnitL(Y)
    rec = psi_big((X, Y), (Z,))
    assert rec == Comp(AssocInv(X, Y, Z), TensorM(Id(X), psi_big((Y,), (Z,))))


def test_psi_big_well_typed_up_to_four_wires(demo_sig, rng):
    for _ in range(100):
        x = tuple(random_obj(demo_sig, 2, rng) for _ in range(rng.randint(0, 4)))
        y = tuple(random_obj(demo_sig, 2, rng) for _ in range(rng.randint(0, 4)))
        dom, cod = typecheck_c(psi_big(x, y), demo_sig)
        assert dom == Tensor(obj_nonstrictify(x), obj_nonstrictify(y))
        assert cod == obj_nonstrictify(x + y)


def test_psi_small_and_eta():
    assert psi_small() == Id(UNIT)
    assert eta(X) == Id(X)
    assert eta(UNIT) == Id(UNIT)
    assert eta(Tensor(X, Y)) == Id(Tensor(X, Y))


def test_epsilon_cases(demo_sig):
    assert epsilon(()) == UnitElim()
    assert epsilon((X,)) == IdD((X,))
    # recursive case unfolded once by hand
    expected = CompD(Unpack(X, Y), TensorD(IdD((X,)), IdD((Y,))))
    assert epsilon((X, Y)) == expected


def test_epsilon_types_and_invertibility(demo_sig, demo_model):
    for n in range(5):
        x = tuple([X, Y, Z, Tensor(X, Y)][:n])
        eps = epsilon(x)
        dom, cod = typecheck_d(eps, demo_sig)
        assert cod == x
        assert dom == (obj_nonstrictify(x),)
        table = eval_mor_d(eps, demo_model)
        values = list(table.mapping.values())
        assert len(values) == len(set(values))  # bijection
        inv = invert_d(eps)
        assert typecheck_d(inv, demo_sig) == (x, dom)


def test_epsilon_conjugation_on_composite_terms(demo_sig, demo_model):
    # F(G(t)) agrees with conjugation by the counit for arbitrary terms,
    # not just single slices
    for seed in range(40):
        t = random_dmor(demo_sig, 3, seed)
        x, y = typecheck_d(t, demo_sig)
        lhs = strictify_expand(nonstrictify(t, demo_sig), demo_sig)
        rhs = chain_d(epsilon(x), t, invert_d(epsilon(y)))
        assert extensional_equal(eval_mor_d(lhs, demo_model),
                                 eval_mor_d(rhs, demo_model))


def test_psi_hexagon_extensionally(demo_sig, demo_model, rng):
    # both ways around the coherence hexagon for nonstrictification agree
    # in the model (the strict side's associator is an identity)
    for _ in range(40):
        x = tuple(random_obj(demo_sig, 2, rng) for _ in range(rng.randint(0, 2)))
        y = tuple(random_obj(demo_sig, 2, rng) for _ in range(rng.randint(0, 2)))
        z = tuple(random_obj(demo_sig, 2, rng) for _ in range(rng.randint(0, 2)))
        gx, gy, gz = (obj_nonstrictify(w) for w in (x, y, z))
        path1 = Comp(TensorM(Id(gx), psi_big(y, z)), psi_big(x, y + z))
        path2 = Comp(Comp(Assoc(gx, gy, gz),
                          TensorM(psi_big(x, y), Id(gz))),
                     psi_big(x + y, z))
        assert extensional_equal(eval_mor(path1, demo_model),
                                 eval_mor(path2, demo_model))


def test_monoidal_functor_laws_for_strictification(demo_sig, rng):
    # hexagon collapses to: (id (*) pack) ; pack ; lift(alpha)
    #                     = (pack (*) id) ; pack
    for _ in range(30):
        a = random_obj(demo_sig, 2, rng)
        b = random_obj(demo_sig, 2, rng)
        c = random_obj(demo_sig, 2, rng)
        p1 = chain_d(TensorD(IdD((a,)), Pack(b, c)),
                     Pack(a, Tensor(b, c)),
                     Lift(Assoc(a, b, c)))
        p2 = chain_d(TensorD(Pack(a, b), IdD((c,))),
                     Pack(Tensor(a, b), c))
        assert normalize_adapters(p1, demo_sig) == normalize_adapters(p2, demo_sig)
        sq_r = chain_d(TensorD(IdD((a,)), UnitIntro()),
                       Pack(a, UNIT),
                       Lift(UnitR(a)))
        sq_l = chain_d(TensorD(UnitIntro(), IdD((a,))),
                       Pack(UNIT, a),
                       Lift(UnitL(a)))
        assert normalize_adapters(sq_r, demo_sig) == IdD((a,))
        assert normalize_adapters(sq_l, demo_sig) == IdD((a,))
