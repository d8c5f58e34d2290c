import copy
import gc
import pickle
import sys
import threading
import weakref
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st

from strictcat.terms import (
    UNIT, ArityMismatch, Assoc, Base, Comp, Gen, Id, Tensor, TensorM,
    TermError, TypeMismatch, Unit, UnitL, UnitLInv, UnitR, UnknownName,
    flatten, _boxes, _postorder, _Term, is_structural, make_signature, objsize,
    show_obj, substitute, typecheck_c, validate_obj,
)
from strictcat.strict import (
    CompD, IdD, Lift, TensorD, normalize_adapters, seq_normal_form,
    typecheck_d,
)
from strictcat.functors import strictify_expand
from strictcat.finmodel import FinModel, eval_mor
from strictcat.syntax import parse_cmor, show_cmor

from generate import random_dmor, random_mor, random_obj
from conftest import W, X, Y, Z, with_undeclared_base


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


def test_typecheck_reports_deep_position(demo_sig):
    bad = Comp(Gen("f"), Gen("f"))   # y composed against x
    t = Comp(Comp(Id(Tensor(X, Y)), TensorM(bad, Id(Y))), Id(Tensor(Y, Y)))
    with pytest.raises(TypeMismatch) as err:
        typecheck_c(t, demo_sig)
    assert err.value.position == "root.first.second.left"
    assert str(err.value) == \
        "type mismatch at root.first.second.left: y composed against x"
    # a shared ill-typed subterm is reported where the walk meets it first
    with pytest.raises(TypeMismatch) as err:
        typecheck_c(Comp(TensorM(Id(X), bad), TensorM(bad, Id(X))), demo_sig)
    assert err.value.position == "root.first.right"


def test_typecheck_rejects_unknown_generator(catw_sig):
    with pytest.raises(UnknownName):
        typecheck_c(Gen("nope"), catw_sig)


# A term is well typed when its joins match and its domain names only
# declared bases: every other object in it is built from its domain.

def test_typecheck_rejects_an_undeclared_base_anywhere(demo_sig):
    # one base name of a random term's text replaced by an undeclared one
    mutated = 0
    for seed in range(2000):
        text = with_undeclared_base(show_cmor(random_mor(demo_sig, 4, seed)),
                                    seed)
        if text is None:
            continue
        with pytest.raises(UnknownName) as err:
            typecheck_c(parse_cmor(text), demo_sig)
        assert err.value.name == "q"
        mutated += 1
    assert mutated > 1800


def test_typecheck_rejects_an_undeclared_base_in_an_inner_atom(demo_sig):
    # no join fails: the name is found in the domain
    for text in ("id[x] (*) alpha[q,y,z]", "lambda'[q] (*) f",
                 "(id[x] (*) rho[q]) ; (id[x] (*) rho'[q])"):
        with pytest.raises(UnknownName) as err:
            typecheck_c(parse_cmor(text), demo_sig)
        assert err.value.name == "q"
    # a failing join reports an undeclared name on either side
    for text in ("id[x] ; id[q]", "id[q] ; id[x]", "f ; alpha[q,y,z]"):
        with pytest.raises(UnknownName) as err:
            typecheck_c(parse_cmor(text), demo_sig)
        assert err.value.name == "q"


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


# A composite root stores what the typed walk found at it as its facts, for
# the signature it was walked against, matched by identity.


def test_memo_keys_on_term_and_signature(demo_sig, catw_sig):
    # one term object, well typed under one signature and not the other
    f = Comp(Gen("f"), Gen("g"))
    for _ in range(2):
        assert typecheck_c(f, demo_sig) == (X, Z)
        with pytest.raises(UnknownName) as err:
            typecheck_c(f, catw_sig)
        assert err.value.name == "f"
    # a failed walk stores nothing; another signature's walk replaces the
    # facts, and each signature still gets its own answer
    assert f.facts[0] is demo_sig
    loop = make_signature(["x", "y"], {"f": (X, Y), "g": (Y, X)})
    for _ in range(2):
        assert typecheck_c(f, loop) == (X, X)
        assert f.facts[0] is loop
        assert typecheck_c(f, demo_sig) == (X, Z)
        assert f.facts[0] is demo_sig


def test_memo_raises_again_on_an_ill_typed_root(catw_sig):
    t = Comp(Id(W), Comp(UnitL(W), UnitL(W)))
    raised, errors = [], []
    for _ in range(2):
        with pytest.raises(TypeMismatch) as err:
            typecheck_c(t, catw_sig)
        raised.append((type(err.value), str(err.value), err.value.position))
        errors.append(err.value)
    # raised afresh, not replayed from the node's facts
    assert errors[0] is not errors[1]
    assert raised[0] == raised[1] == (
        TypeMismatch, "type mismatch at root.second: W composed against (I * W)",
        "root.second")


def test_memo_returns_boxes_no_caller_can_change(demo_sig):
    f = Comp(TensorM(Gen("f"), Id(Y)), TensorM(Id(Y), Gen("g")))
    dom, cod, boxes = _boxes(f, demo_sig)
    assert boxes == ((0, "f", 1, 1), (1, "g", 1, 1))
    with pytest.raises(AttributeError):
        boxes.append((0, "g", 1, 1))
    # the second call is answered from the node's facts, with the same boxes
    assert _boxes(f, demo_sig) == (dom, cod, ((0, "f", 1, 1), (1, "g", 1, 1)))
    assert _boxes(f, demo_sig)[2] is boxes
    # a subterm met inside the walk stores nothing
    assert getattr(f.first, "facts", None) is None


def test_facts_are_not_part_of_the_term(demo_sig):
    # each maker builds a fresh term; each walk fills its root's facts
    # and answers from them on the next call
    def snf(t):
        return typecheck_d(t, demo_sig), seq_normal_form(t, demo_sig)

    cases = [
        (lambda: Comp(TensorM(Gen("f"), Id(Y)), TensorM(Id(Y), Gen("g"))),
         lambda t: _boxes(t, demo_sig)),
        (lambda: TensorM(Gen("f"), Comp(Gen("g"), Id(Z))),
         lambda t: _boxes(t, demo_sig)),
        # a normal form holds its slices from the normaliser, too
        (lambda: normalize_adapters(
            strictify_expand(Comp(Gen("f"), Gen("g")), demo_sig), demo_sig),
         snf),
        # a strict tensor has no slot, and each walk of it is a miss
        (lambda: TensorD(Lift(Gen("f")), IdD((Y,))), snf),
    ]
    for make, walk in cases:
        t = make()
        answer = walk(t)
        keeps = not isinstance(t, TensorD)
        assert hasattr(t, "facts") is keeps
        assert keeps is False or t.facts[0] is demo_sig
        assert walk(t) == answer
        fresh = make()
        assert t == fresh and hash(t) == hash(fresh)
        assert repr(t) == repr(fresh)
        assert {t: 1}[fresh] == 1
        copies = (copy.copy(t), copy.deepcopy(t),
                  pickle.loads(pickle.dumps(t)))
        for other in copies:
            assert other == t and hash(other) == hash(t)
            # the copy's first walk is a miss, and it answers as ``t`` did
            assert getattr(other, "facts", None) is None
            assert walk(other) == answer
            assert hasattr(other, "facts") is keeps


def _field_repr(t) -> str:
    """The text of a generated dataclass ``__repr__``, by recursion."""
    if not is_dataclass(t) or isinstance(t, (Base, Tensor, Unit)):
        return repr(t)
    inner = ", ".join(f"{x.name}={_field_repr(getattr(t, x.name))}"
                      for x in fields(t))
    return f"{type(t).__qualname__}({inner})"


def test_terms_print_as_their_dataclass_fields(demo_sig):
    t = Lift(Comp(Gen("f"), TensorM(Id(Y), UnitL(X))))
    assert repr(t) == ("Lift(mor=Comp(first=Gen(name='f'), second=TensorM("
                       "left=Id(obj=Base(name='y')), "
                       "right=UnitL(obj=Base(name='x')))))")
    for seed in range(40):
        for t in (random_mor(demo_sig, 4, seed),
                  random_dmor(demo_sig, 3, seed),
                  CompD(TensorD(IdD((X,)), Lift(Gen("f"))), IdD((X, Y)))):
            assert repr(t) == _field_repr(t)


def test_copies_and_pickles_rebuild_every_node(demo_sig):
    # a term is sent as its flat post-order and rebuilt by its
    # constructors, so no composite or lift node of a copy is shared
    def composites(t):
        return {id(u) for u in _postorder(t) if isinstance(u, _Term)}

    for seed in range(40):
        for t in (random_mor(demo_sig, 4, seed),
                  random_dmor(demo_sig, 3, seed)):
            for other in (copy.copy(t), copy.deepcopy(t),
                          pickle.loads(pickle.dumps(t))):
                assert other == t and repr(other) == repr(t)
                assert composites(other).isdisjoint(composites(t))


def test_typed_walks_shared_between_threads(demo_sig):
    # each thread walks its own terms, over and over, and stores facts on
    # them while the other threads store theirs; every answer must be the
    # one a single thread gets
    model = FinModel(demo_sig, seed=5)

    def answers(seeds):
        out = []
        for seed in seeds:
            f, t = terms[seed]
            table = eval_mor(f, model)
            out.append((typecheck_c(f, demo_sig), typecheck_d(t, demo_sig),
                        table.dom, table.cod, table.table))
        return out

    seeds = [range(k * 6, k * 6 + 6) for k in range(4)]
    terms = {seed: (random_mor(demo_sig, 3, seed), random_dmor(demo_sig, 2, seed))
             for block in seeds for seed in block}
    expected = [answers(block) for block in seeds]
    results = [[] for _ in seeds]
    errors = []
    start = threading.Barrier(len(seeds))

    def run(k):
        try:
            start.wait()
            for _ in range(40):
                results[k].append(answers(seeds[k]))
        except Exception as exc:  # reported below, with the thread's index
            errors.append((k, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,))
                   for k in range(len(seeds))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    for k, block in enumerate(results):
        assert block == [expected[k]] * 40


# Objects are interned: one live node per structure, compared by identity.

def test_equal_objects_are_one_node():
    a = Tensor(Base("W"), Tensor(Unit(), Base("W")))
    assert a is Tensor(W, Tensor(UNIT, W))
    assert Unit() is UNIT and Base("x") is X
    assert a is not Tensor(Tensor(W, UNIT), W)
    assert a != Tensor(W, Tensor(UNIT, X))
    assert {a: 1}[Tensor(W, Tensor(UNIT, W))] == 1


def test_copy_and_pickle_return_the_live_node():
    a = Tensor(X, Tensor(UNIT, Tensor(Y, Z)))
    for obj in (a, UNIT, X):
        assert copy.copy(obj) is obj
        assert copy.deepcopy(obj) is obj
        assert pickle.loads(pickle.dumps(obj)) is obj
    assert replace(a, left=Y) is Tensor(Y, a.right)


def test_objects_keep_their_fields_and_repr():
    assert [f.name for f in fields(Tensor)] == ["left", "right"]
    assert [f.name for f in fields(Base)] == ["name"]
    assert fields(Unit) == ()
    assert repr(Tensor(W, UNIT)) == "Tensor(left=Base(name='W'), right=Unit())"


def test_unreferenced_node_drops_out_of_the_table():
    node = Tensor(Base("dropped_l"), Tensor(UNIT, Base("dropped_r")))
    ref = weakref.ref(node)
    del node
    gc.collect()
    assert ref() is None
    again = Tensor(Base("dropped_l"), Tensor(UNIT, Base("dropped_r")))
    assert again is Tensor(Base("dropped_l"), Tensor(UNIT, Base("dropped_r")))
    assert objsize(again) == 2


def test_threads_building_the_same_objects_get_one_node():
    # every structure is new to the table, so the four threads race to
    # insert each one; each must come back with the node that won
    n = 2_000

    def build():
        return [Tensor(Base(f"race{i}"), Tensor(UNIT, Base(f"race{i + 1}")))
                for i in range(n)]

    results = [None] * 4
    errors = []
    start = threading.Barrier(4)

    def run(k):
        try:
            start.wait()
            results[k] = build()
        except Exception as exc:  # reported below, with the thread's index
            errors.append((k, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    for i, node in enumerate(results[0]):
        assert all(r[i] is node for r in results[1:])
        assert node is Tensor(Base(f"race{i}"), Tensor(UNIT, Base(f"race{i + 1}")))


DEEP = 10_000


def test_deep_objects_need_no_recursion(catw_sig):
    def chain():
        obj = W
        for _ in range(DEEP):
            obj = Tensor(W, obj)
        return obj

    a, b = chain(), chain()
    assert a == b and hash(a) == hash(b)
    assert objsize(a) == DEEP + 1
    assert flatten(a) == ("W",) * (DEEP + 1)
    validate_obj(a, catw_sig)
    with pytest.raises(UnknownName):
        validate_obj(Tensor(a, X), catw_sig)
    assert show_obj(b) == "(W * " * DEEP + "W" + ")" * DEEP



def test_deep_objects_copy_pickle_and_substitute():
    obj = W
    for _ in range(DEEP):
        obj = Tensor(W, obj)
    assert copy.copy(obj) is obj
    assert copy.deepcopy(obj) is obj
    assert pickle.loads(pickle.dumps(obj)) is obj
    filled = substitute(obj, (X,) * DEEP + (Tensor(Y, UNIT),))
    assert flatten(filled) == ("x",) * DEEP + ("y",)
    node = filled
    for _ in range(DEEP):
        assert node.left is X
        node = node.right
    assert node is Tensor(Y, UNIT)
