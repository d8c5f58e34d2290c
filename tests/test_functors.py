import hashlib
import itertools
import random
import sys
import threading

import pytest

from strictcat import demos, strict, terms
from strictcat.terms import (
    UNIT, Assoc, AssocInv, Base, Comp, Gen, Id, Tensor, TensorM,
    TypeMismatch, UnitL, UnitLInv, UnitR, UnitRInv, UnknownName, _box_walk,
    _boxes, _postorder, chain_c, flatten, invert_structural, make_signature,
    typecheck_c,
)
from strictcat.strict import (
    CompD, IdD, Lift, Pack, TensorD, UnitElim, UnitIntro, Unpack, _diagram,
    _diagram_walk, _snf_walk, canonical_d, chain_d, invert_d,
    normalize_adapters,
    normalize_adapters_with_stats, seq_normal_form, typecheck_d,
)
from strictcat.functors import (
    epsilon, eta, nonstrictify, obj_nonstrictify, psi_big, psi_big_inv,
    psi_small, right_nesting, strictify_expand, strictify_shallow,
)
from strictcat.finmodel import eval_mor, eval_mor_d, extensional_equal
from strictcat.render import layout
from strictcat.coherence import EQUAL, canonical_nat_iso, equal_structural
from strictcat.syntax import parse_cmor, parse_dmor, show_cmor, show_dmor

from generate import (
    enumerate_catw_objects, random_adapter_walk, random_bracketing,
    random_dmor, random_mor, random_mor_from, random_obj,
    random_structural_walk,
)
from conftest import W, X, Y, Z


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


def test_psi_big_inv_cases():
    assert psi_big_inv((), ()) == UnitLInv(UNIT)
    assert psi_big_inv((X,), (Y,)) == Id(Tensor(X, Y))
    assert psi_big_inv((X, Y), ()) == UnitRInv(Tensor(X, Y))
    assert psi_big_inv((), (Y,)) == UnitLInv(Y)
    rec = psi_big_inv((X, Y), (Z,))
    assert rec == Comp(TensorM(Id(X), psi_big_inv((Y,), (Z,))),
                       Assoc(X, Y, Z))


def test_psi_big_inv_inverts_psi_big(demo_sig, demo_model):
    labels = (X, UNIT, Tensor(Y, Z))
    seqs = [s for n in range(4) for s in itertools.product(labels, repeat=n)]
    for x in seqs:
        for y in seqs:
            a = Tensor(obj_nonstrictify(x), obj_nonstrictify(y))
            there = Comp(psi_big(x, y), psi_big_inv(x, y))
            assert typecheck_c(there, demo_sig) == (a, a)
            assert eval_mor(there, demo_model) == eval_mor(Id(a), demo_model)
            b = obj_nonstrictify(x + y)
            back = Comp(psi_big_inv(x, y), psi_big(x, y))
            assert typecheck_c(back, demo_sig) == (b, b)


def test_right_nesting_types_and_storage(demo_sig):
    for a in enumerate_catw_objects(4, 2, "x"):
        rn, inv = right_nesting(a)
        g = obj_nonstrictify(tuple(Base(n) for n in flatten(a)))
        assert typecheck_c(rn, demo_sig) == (a, g)
        assert typecheck_c(inv, demo_sig) == (g, a)
        if isinstance(a, Tensor):  # stored after the adapter pair
            assert a.packing[2:] == (rn, inv)
            assert all(x is y for x, y in zip(right_nesting(a), (rn, inv)))
        else:
            assert (rn, inv) == (Id(a), Id(a))
    assert X.packing is None  # a base label stores nothing


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


def test_strictify_expand_typechecks_once(monkeypatch):
    # the endpoints of every subterm come out of the expansion itself, so
    # only the root is typechecked, by one walk that also gives its boxes,
    # however deep the tensors nest; ``f`` is a parsed copy of a read-back,
    # which holds no facts (the read-back itself holds its typed walk)
    sig = demos.parity_signature()
    f = parse_cmor(show_cmor(nonstrictify(demos.parity_term(12), sig)))
    calls = []

    def counting(walk):
        def call(g, s):
            calls.append(g)
            return walk(g, s)
        return call

    monkeypatch.setattr(terms, "_box_walk", counting(terms._box_walk))
    monkeypatch.setattr(strict, "_box_walk", counting(strict._box_walk))
    strictify_expand(f, sig)
    assert calls == [f]


def _pin_inputs(demo_sig):
    psig = demos.parity_signature()
    for n in range(3, 41):
        yield nonstrictify(demos.parity_term(n), psig), psig
    for seed in range(80):
        yield random_mor(demo_sig, 4, seed), demo_sig


def _digest(items) -> str:
    """First 16 hex digits of the SHA-256 of the items' reprs."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def test_strictify_expand_pinned(demo_sig):
    assert _digest(strictify_expand(f, sig)
                   for f, sig in _pin_inputs(demo_sig)) == "02cfc98aa50a6c80"


def test_normalize_lifts_pinned(demo_sig):
    # normal form, counts and trace of each input lifted one wire to the
    # right of an identity, and of random strict terms whose lifts sit at
    # random wires: every composite lift gives its boxes to the read-back
    def cases():
        for f, sig in _pin_inputs(demo_sig):
            dom, _ = typecheck_c(f, sig)
            yield TensorD(IdD((dom,)), Lift(f)), sig
        for seed in range(80):
            yield random_dmor(demo_sig, 3, seed), demo_sig

    def key(t, sig):
        out, stats = normalize_adapters_with_stats(t, sig)
        return out, stats.cancelled_pairs, stats.swaps, stats.trace

    assert _digest(key(t, sig) for t, sig in cases()) == "31ad7bceb64030c5"


# Each layer hands on what it knows about the term it builds: the expansion
# its diagram, the normaliser its output's slices.  What is handed on must
# be what the skipped walk would have found.


def test_strictify_expand_hands_on_the_diagram_of_its_input(demo_sig):
    for f, sig in _pin_inputs(demo_sig):
        t = strictify_expand(f, sig)
        handed = _diagram(t, sig)
        # stored, not walked: the boxes are those of ``f`` itself
        assert handed[2] is (_boxes(f, sig)[2] or None)
        assert handed == _diagram_walk(t, sig)


def test_normalize_hands_on_the_slices_of_its_output(demo_sig):
    def cases():
        for f, sig in _pin_inputs(demo_sig):
            t = strictify_expand(f, sig)
            yield t, sig
            # beside a wire of a base the case's signature declares
            yield TensorD(IdD((Base(min(sig.base_objects)),)), t), sig
        for seed in range(200):
            yield random_dmor(demo_sig, 3, seed), demo_sig

    for t, sig in cases():
        nf = normalize_adapters(t, sig)
        assert seq_normal_form(nf, sig) == _snf_walk(nf, sig)


def test_diagram_boxes_are_the_boxes_of_the_read_back(demo_sig):
    # the diagram places each lift's boxes at its offset on base wires,
    # and so do the typed walk the read-back stores and a full walk of
    # it; parsed copies hold no facts, and an equal signature that is
    # another object makes ``_box_walk`` walk every node of the read-back
    twin = make_signature(demo_sig.base_objects, demo_sig.generators)

    def cases():
        for seed in range(300):
            yield random_dmor(demo_sig, 4, seed)
        for seed in range(100):
            # a lifted composite after packs, unpacks and unit wires
            rng = random.Random(seed)
            start = tuple(random_obj(demo_sig, 3, rng) for _ in range(3))
            walk = random_adapter_walk(demo_sig, start, 6, rng)
            _, cod = typecheck_d(walk, demo_sig)
            if cod:
                i = rng.randrange(len(cod))
                f = random_mor_from(demo_sig, cod[i], 4, rng)
                lift = TensorD(IdD(cod[:i]), TensorD(Lift(f), IdD(cod[i + 1:])))
                yield CompD(walk, lift)

    for t in cases():
        t = parse_dmor(show_dmor(t))
        back = nonstrictify(t, demo_sig)
        boxes = _diagram(t, demo_sig)[2] or ()
        assert boxes == _boxes(back, demo_sig)[2] == _box_walk(back, twin)[2]


def test_strictify_normalize_read_back_walk_nothing(monkeypatch):
    # every generator node met by a walk of the expansion or the normal
    # form goes through ``_gen_ends``; the hand-offs leave no such walk
    sig = demos.parity_signature()
    f = nonstrictify(demos.parity_term(12), sig)
    calls = []

    def counting(g, s):
        calls.append(g)
        return ends(g, s)

    ends = strict._gen_ends
    monkeypatch.setattr(strict, "_gen_ends", counting)
    nf = normalize_adapters(strictify_expand(f, sig), sig)
    back = nonstrictify(nf, sig)
    columns = layout(nf, sig).columns
    assert calls == []
    assert typecheck_c(back, sig) == typecheck_c(f, sig)
    assert len(columns) == len(_snf_walk(nf, sig).slices)


def test_hand_offs_hold_for_a_batch(monkeypatch):
    # each term keeps its own facts, so a batch strictified before any of
    # it is normalised gets the same hand-offs as a single term
    sig = demos.parity_signature()
    fs = [nonstrictify(demos.parity_term(n), sig) for n in range(3, 23)]
    calls = []

    def counting(g, s):
        calls.append(g)
        return ends(g, s)

    ends = strict._gen_ends
    monkeypatch.setattr(strict, "_gen_ends", counting)
    expanded = [strictify_expand(f, sig) for f in fs]
    nfs = [normalize_adapters(t, sig) for t in expanded]
    backs = [nonstrictify(nf, sig) for nf in nfs]
    for nf in nfs:
        layout(nf, sig)
    assert calls == []
    for f, back in zip(fs, backs):
        assert typecheck_c(back, sig) == typecheck_c(f, sig)


def test_hand_offs_shared_between_threads(demo_sig):
    # each thread strictifies, normalises and reads back its inputs, over
    # and over, and each input is also another thread's, so threads store
    # facts on the same roots at once; every answer must be the one a
    # single thread gets.  Each input is also walked under an equal
    # signature that is another object, which replaces its facts while
    # other threads take it whole inside a composition.
    psig = demos.parity_signature()
    inputs = [(nonstrictify(demos.parity_term(n), psig), psig)
              for n in range(3, 11)]
    inputs += [(random_mor(demo_sig, 3, seed), demo_sig) for seed in range(16)]
    blocks = [inputs[k::4] + inputs[(k + 1) % 4::4] for k in range(4)]
    twins = {id(sig): make_signature(sig.base_objects, sig.generators)
             for sig in (psig, demo_sig)}

    def answers(block):
        out = []
        for f, sig in block:
            nf, stats = normalize_adapters_with_stats(strictify_expand(f, sig),
                                                      sig)
            cod = typecheck_c(f, twins[id(sig)])[1]
            out.append((nf, stats.cancelled_pairs, stats.swaps, stats.trace,
                        nonstrictify(nf, sig), layout(nf, sig),
                        _box_walk(Comp(f, Id(cod)), sig)))
        return out

    expected = [answers(block) for block in blocks]
    results = [[] for _ in blocks]
    errors = []
    start = threading.Barrier(len(blocks))

    def run(k):
        try:
            start.wait()
            for _ in range(10):
                results[k].append(answers(blocks[k]))
        except Exception as exc:  # reported below, with the thread's index
            errors.append((k, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,))
                   for k in range(len(blocks))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    for k, block in enumerate(results):
        assert block == [expected[k]] * 10


def _bare(f):
    """A copy of ``f`` that holds no facts: the parser builds every node."""
    return parse_cmor(show_cmor(f))


def _read_backs(demo_sig):
    """``(strict term, signature)`` pairs to read back: random strict terms,
    normal forms of parity circuits, canonical arrows and lifted
    structural composites, beside other wires and composed."""
    for seed in range(200):
        yield random_dmor(demo_sig, 4, seed), demo_sig
    psig = demos.parity_signature()
    for n in range(3, 25):
        yield normalize_adapters(demos.parity_term(n), psig), psig
    for seed in range(40):
        leaves = [random_obj(demo_sig, 2, seed + k)
                  for k in range(1 + seed % 4)]
        a = random_bracketing(leaves, seed)
        b = random_bracketing(leaves, seed + 1000)
        yield canonical_d((a,), (b,)), demo_sig
        yield canonical_d((a, Y), (Tensor(b, Y),)), demo_sig
        walk = random_structural_walk(a, 1 + seed % 5, seed)
        lifted = Lift(walk)
        yield TensorD(IdD((X, Y)), TensorD(lifted, IdD((Z,)))), demo_sig
        back = Lift(invert_structural(walk))
        yield chain_d(TensorD(lifted, Lift(Gen("f"))),
                      TensorD(back, IdD((Y,)))), demo_sig


def test_nonstrictify_stores_the_typed_walk_of_its_output(demo_sig):
    # the stored ends and boxes are what a walk of a copy finds
    stored = boxed = 0
    for t, sig in _read_backs(demo_sig):
        back = nonstrictify(t, sig)
        if isinstance(back, (Comp, TensorM)):
            assert back.facts[0] is sig
            assert back.facts[1] == _box_walk(_bare(back), sig)
            stored += 1
            boxed += bool(back.facts[1][2])
    assert stored > 300 and boxed > 60
    # both languages reject an undeclared base, so no read-back of such a
    # term is built, and none goes without its walk
    t = chain_d(Pack(X, Base("q")), Unpack(X, Base("q")))
    for call in (nonstrictify, typecheck_d):
        with pytest.raises(UnknownName) as err:
            call(t, demo_sig)
        assert err.value.name == "q"


def test_walks_take_a_read_back_whole(demo_sig):
    # a term that contains a read-back walks to what a copy without facts
    # walks to, type errors and their positions included
    def outcome(f, sig):
        try:
            return _box_walk(f, sig)
        except TypeMismatch as exc:
            return str(exc), exc.position

    mismatches = 0
    for t, sig in _read_backs(demo_sig):
        back = nonstrictify(t, sig)
        dom, cod = typecheck_c(back, sig)

        def contexts(b):
            return (Comp(Id(dom), b), Comp(b, Id(cod)), TensorM(Id(dom), b),
                    TensorM(b, b), Comp(b, b),
                    Comp(TensorM(b, Id(cod)), TensorM(Id(cod), b)),
                    TensorM(Id(cod), Comp(b, Id(dom))))

        for f, bare in zip(contexts(back), contexts(_bare(back))):
            expected = outcome(bare, sig)
            assert outcome(f, sig) == expected
            mismatches += isinstance(expected[1], str)
    assert mismatches > 100


def test_equality_and_the_oracle_do_not_walk_a_read_back(catw_sig, catw_model,
                                                         monkeypatch):
    # ``equal_structural`` lists no node of the read-back part of ``g``,
    # and the table of a canonical isomorphism takes no typed walk
    a = Tensor(Tensor(W, W), Tensor(W, UNIT))
    f = random_structural_walk(a, 6, 3)
    mid = typecheck_c(f, catw_sig)[1]
    walk = random_structural_walk(a, 4, 5)
    back = nonstrictify(canonical_d((typecheck_c(walk, catw_sig)[1],), (mid,)),
                        catw_sig)
    g = Comp(walk, back)
    listed = []

    def listing(*args):
        out = postorder(*args)
        listed.extend(map(id, out))
        return out

    postorder = terms._postorder
    monkeypatch.setattr(terms, "_postorder", listing)
    assert equal_structural(f, g, catw_sig).kind == EQUAL
    monkeypatch.undo()
    assert isinstance(back, Comp)
    assert set(listed).isdisjoint(map(id, _postorder(back)))

    calls = []

    def counting(t, sig):
        calls.append(t)
        return box_walk(t, sig)

    box_walk = terms._box_walk
    shapes = [Tensor(Tensor(W, W), W), Tensor(W, Tensor(W, W)),
              Tensor(Tensor(W, UNIT), W)]
    for shape_a in shapes:
        for shape_b in shapes:
            if shape_a != shape_b and shape_a.size == shape_b.size:
                iso = canonical_nat_iso(shape_a, shape_b, (W, Tensor(W, W), W),
                                        catw_sig)
                monkeypatch.setattr(terms, "_box_walk", counting)
                eval_mor(iso, catw_model)
                monkeypatch.undo()
    assert calls == []


def test_built_composites_set_their_facts(demo_sig):
    # every composition and tensor of the C language is built with its
    # ``facts`` slot set, so reading it never misses
    psig = demos.parity_signature()
    built = [parse_cmor(show_cmor(random_mor(demo_sig, 4, 1))),
             chain_c(Id(X), Gen("f"), Id(Y)),
             nonstrictify(demos.parity_term(8), psig),
             invert_structural(random_structural_walk(Tensor(X, Y), 6, 2)),
             random_mor(demo_sig, 4, 2)]
    built += [nonstrictify(random_dmor(demo_sig, 4, seed), demo_sig)
              for seed in range(20)]
    composites = [u for f in built for u in _postorder(f)
                  if isinstance(u, (Comp, TensorM))]
    assert len(composites) > 100
    for u in composites:
        u.facts  # raises AttributeError if unset
