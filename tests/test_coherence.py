import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from strictcat import coherence, functors, strict, terms
from strictcat.terms import (
    UNIT, Assoc, Base, Comp, Gen, Id, Tensor, TensorM, UnitL, UnitR,
    UnknownName, _box_walk, _boxes, is_structural, make_signature, objsize,
    substitute, typecheck_c,
)
from strictcat.strict import (
    CompD, IdD, Lift, canonical_d, normalize_adapters, typecheck_d,
)
from strictcat.coherence import (
    EQUAL, NOT_EQUAL, UNKNOWN, PreconditionError, canonical_nat_iso,
    equal_structural, fg_singleton_check,
)
from strictcat.functors import nonstrictify, strictify_expand
from strictcat.finmodel import (
    FinModel, eval_mor, eval_mor_d, extensional_equal,
)
from strictcat.render import emit_svg, layout
from strictcat.syntax import parse_cmor, show_cmor, show_dmor

from generate import (
    enumerate_catw_objects, random_adapter_walk, random_dmor, random_mor,
    random_mor_from, random_obj, random_singleton_adapter_term,
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
    assert verdict.kind == EQUAL  # identical flattened diagrams
    from strictcat.terms import make_signature
    two = make_signature(["x"], {"p": (Base("x"), Base("x")),
                                 "q": (Base("x"), Base("x"))})
    assert equal_structural(Gen("p"), Gen("q"), two).kind == UNKNOWN


# Scalars ``s, t : I -> I``, and ``u : I -> y``, ``k : y -> I``, whose
# composite ``u ; k`` is a floating component.
SCALAR_SIG = make_signature(["x", "y"], {
    "f": (X, Y), "s": (UNIT, UNIT), "t": (UNIT, UNIT),
    "u": (UNIT, Y), "k": (Y, UNIT)})


@pytest.mark.parametrize("lhs, rhs, kind", [
    ("lambda[I] ; u", "rho[I] ; u", EQUAL),
    ("f (*) id[I]", "rho[x] ; f ; rho'[y]", EQUAL),
    ("(s (*) s) ; lambda[I]", "lambda[I] ; s ; s", EQUAL),
    ("(k (*) u) ; lambda[y]", "rho[y] ; k ; u", EQUAL),
    # left and right scalar actions differ without a braiding
    ("lambda'[x] ; (s (*) id[x]) ; lambda[x]",
     "rho'[x] ; (id[x] (*) s) ; rho[x]", UNKNOWN),
    # equal (End(I) is commutative), but boxes with no outputs have no
    # canonical order
    ("s ; t", "t ; s", UNKNOWN),
])
def test_equal_structural_scalars_and_floating_boxes(lhs, rhs, kind):
    f, g = parse_cmor(lhs), parse_cmor(rhs)
    for a, b in ((f, g), (g, f)):
        verdict = equal_structural(a, b, SCALAR_SIG)
        assert verdict.kind == kind
        assert "distinct" not in verdict.detail


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


# Domains of the demo generators, so random terms often hold boxes.
GEN_DOMS = (X, Y, Tensor(X, Y), UNIT)


@given(st.integers(0, 2 ** 30))
@settings(max_examples=80, deadline=None)
def test_equal_verdicts_sound_and_symmetric(demo_sig, demo_model, seed):
    rng = random.Random(seed)
    dom = rng.choice(GEN_DOMS)
    terms = [random_mor_from(demo_sig, dom, 4, rng) for _ in range(4)]
    for f, g in itertools.combinations(terms, 2):
        kind = equal_structural(f, g, demo_sig).kind
        assert equal_structural(g, f, demo_sig).kind == kind
        if kind == EQUAL:
            assert extensional_equal(eval_mor(f, demo_model),
                                     eval_mor(g, demo_model))


@given(st.integers(0, 2 ** 30))
@settings(max_examples=80, deadline=None)
def test_interchange_pairs_are_equal(demo_sig, seed):
    rng = random.Random(seed)
    a, b = (random_mor_from(demo_sig, rng.choice(GEN_DOMS), 4, rng)
            for _ in range(2))
    (a1, b1), (a2, b2) = typecheck_c(a, demo_sig), typecheck_c(b, demo_sig)
    split = Comp(TensorM(a, Id(a2)), TensorM(Id(b1), b))
    for other in (TensorM(a, b), Comp(TensorM(Id(a1), b), TensorM(a, Id(b2)))):
        assert equal_structural(split, other, demo_sig).kind == EQUAL
        assert equal_structural(other, split, demo_sig).kind == EQUAL


def _normal_form(f, sig):
    return normalize_adapters(strictify_expand(f, sig), sig)


@pytest.mark.parametrize("lhs, rhs", [
    # u ; g, with its unit wires bracketed two ways
    ("lambda[I] ; u ; g ; lambda'[z]",
     "lambda'[(I * I)] ; id[I] (*) (lambda[I] ; u ; g)"),
    # two boxes side by side, applied in either order
    ("(rho[x] ; (f ; rho'[y])) (*) id[y] ; id[(y * I)] (*) (g ; lambda'[z])",
     "id[(x * I)] (*) (g ; lambda'[z]) ; "
     "(rho[x] ; (f ; rho'[y])) (*) id[(I * z)]"),
    # two boxes with no inputs in either order: the read-back alone, without
    # the left normal form of the boxes, would keep both orders
    ("u (*) id[I] ; id[y] (*) u", "id[I] (*) u ; u (*) id[y]"),
])
def test_equal_pairs_normalise_identically(demo_sig, lhs, rhs):
    f, g = parse_cmor(lhs), parse_cmor(rhs)
    assert equal_structural(f, g, demo_sig).kind == EQUAL
    assert _normal_form(f, demo_sig) == _normal_form(g, demo_sig)


@given(st.integers(0, 2 ** 30))
@settings(max_examples=60, deadline=None)
def test_normalisation_idempotent_and_keeps_table(demo_sig, demo_model, seed):
    rng = random.Random(seed)
    f = random_mor_from(demo_sig, rng.choice(GEN_DOMS), 4, rng)
    for t in (strictify_expand(f, demo_sig), random_dmor(demo_sig, 3, seed)):
        out = normalize_adapters(t, demo_sig)
        assert normalize_adapters(out, demo_sig) == out
        assert extensional_equal(eval_mor_d(out, demo_model),
                                 eval_mor_d(t, demo_model))


@given(st.integers(0, 2 ** 30))
@settings(max_examples=60, deadline=None)
def test_equal_exactly_when_normal_forms_agree(demo_sig, seed):
    # random terms from one domain, and an interchange pair among them
    rng = random.Random(seed)
    dom = rng.choice(GEN_DOMS)
    terms = [random_mor_from(demo_sig, dom, 4, rng) for _ in range(3)]
    a, b = terms[0], random_mor_from(demo_sig, rng.choice(GEN_DOMS), 3, rng)
    (a1, a2), (b1, b2) = typecheck_c(a, demo_sig), typecheck_c(b, demo_sig)
    terms += [TensorM(a, b), Comp(TensorM(a, Id(b1)), TensorM(Id(a2), b))]
    forms = [_normal_form(f, demo_sig) for f in terms]
    for i, j in itertools.combinations(range(len(terms)), 2):
        verdict = equal_structural(terms[i], terms[j], demo_sig)
        assert verdict.is_equal == (forms[i] == forms[j])


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
    from generate import random_bracketing, random_adapter_walk
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


def test_canonical_nat_iso_agrees_with_canonical_read_back(demo_sig,
                                                           demo_model):
    # every pair of shapes with equal leaf counts, up to 4 leaves and one
    # unit, against the read-back of the canonical strict arrow
    shapes = enumerate_catw_objects(4, 1)
    pairs = [(a, b) for a in shapes for b in shapes if a.size == b.size]
    assert len(pairs) == 6168
    for i, (shape_a, shape_b) in enumerate(pairs):
        rng = random.Random(i)
        fill = tuple(random_obj(demo_sig, 2, rng) for _ in range(shape_a.size))
        a, b = substitute(shape_a, fill), substitute(shape_b, fill)
        out = canonical_nat_iso(shape_a, shape_b, fill, demo_sig)
        ref = nonstrictify(canonical_d((a,), (b,)), demo_sig)
        assert equal_structural(out, ref, demo_sig).kind == EQUAL
        assert eval_mor(out, demo_model) == eval_mor(ref, demo_model)
        assert typecheck_c(out, demo_sig) == (a, b)


@pytest.mark.parametrize("shape_b", [
    Tensor(Tensor(W, W), W), Tensor(W, Tensor(W, W))])
def test_canonical_nat_iso_rejects_undeclared_fill(demo_sig, shape_b):
    with pytest.raises(UnknownName) as err:
        canonical_nat_iso(Tensor(Tensor(W, W), W), shape_b,
                          (X, Tensor(Base("q"), Y), Z), demo_sig)
    assert err.value.name == "q"


def _nat_iso_cases(sig, count):
    """``count`` shape pairs of equal leaf counts, each with a seeded fill."""
    shapes = enumerate_catw_objects(3, 1)
    pairs = [(a, b) for a in shapes for b in shapes if a.size == b.size]
    rng = random.Random(5)
    cases = []
    for shape_a, shape_b in rng.sample(pairs, count):
        fill = tuple(random_obj(sig, 3, rng) for _ in range(shape_a.size))
        cases.append((shape_a, shape_b, fill))
    return cases


def test_canonical_nat_iso_stores_its_typed_walk(demo_sig):
    # the stored walk is what a full walk finds; an equal signature that
    # is another object makes ``_box_walk`` walk every node
    twin = make_signature(demo_sig.base_objects, demo_sig.generators)
    for shape_a, shape_b, fill in _nat_iso_cases(demo_sig, 300):
        out = canonical_nat_iso(shape_a, shape_b, fill, demo_sig)
        walk = (substitute(shape_a, fill), substitute(shape_b, fill), ())
        assert _boxes(out, demo_sig) == _box_walk(out, twin) == walk


def test_canonical_nat_iso_builds_no_strict_arrow(demo_sig, monkeypatch):
    def refuse(*args):
        raise AssertionError("canonical_nat_iso went through a strict arrow")

    for module, name in ((coherence, "canonical_d"), (strict, "canonical_d"),
                         (coherence, "nonstrictify"),
                         (functors, "nonstrictify")):
        monkeypatch.setattr(module, name, refuse)
    for shape_a, shape_b, fill in _nat_iso_cases(demo_sig, 100):
        out = canonical_nat_iso(shape_a, shape_b, fill, demo_sig)
        assert typecheck_c(out, demo_sig) == (substitute(shape_a, fill),
                                              substitute(shape_b, fill))


def _forget_nestings(clear_all=False):
    """Drop every live label's stored ``right_nesting`` pair, and with
    ``clear_all`` its adapter pair too."""
    for a in list(terms._TENSORS.values()):
        if clear_all or len(a.packing or ()) == 4:
            object.__setattr__(a, "packing", None if clear_all
                               else a.packing[:2])


def _nesting_labels():
    """The live labels that store a ``right_nesting`` pair."""
    return [a for a in list(terms._TENSORS.values())
            if len(a.packing or ()) == 4]


def test_canonical_nat_iso_shared_between_threads(demo_sig):
    # four threads build the same natural isomorphisms over labels whose
    # stored arrows were all just cleared, so they fill the same slots at
    # once; every answer must be the one a single thread gets
    cases = _nat_iso_cases(demo_sig, 120)

    def answers(block):
        out = []
        for shape_a, shape_b, fill in block:
            t = canonical_nat_iso(shape_a, shape_b, fill, demo_sig)
            out.append((t, _boxes(t, demo_sig)))
        return out

    blocks = [cases[k:] + cases[:k] for k in (0, 30, 60, 90)]
    expected = [answers(block) for block in blocks]
    _forget_nestings(clear_all=True)
    results = [None] * len(blocks)
    errors = []
    start = threading.Barrier(len(blocks))

    def run(k):
        try:
            start.wait()
            results[k] = answers(blocks[k])
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
    assert results == expected


def test_only_natural_isomorphisms_store_right_nestings(demo_sig, catw_sig):
    # canonical arrows, the normaliser and the whole query pipeline leave
    # every label they touch without a right nesting
    _forget_nestings()
    kept = []  # so that no label the pipelines made is freed before the check
    for seed in range(40):
        for lifts in (False, True):
            walk = random_adapter_walk(catw_sig, (Tensor(W, W), W), 12, seed,
                                       structural_lifts=lifts)
            dom, cod = typecheck_d(walk, catw_sig)
            trip = CompD(canonical_d(dom, cod), canonical_d(cod, dom))
            kept += [walk, normalize_adapters(walk, catw_sig),
                     normalize_adapters(trip, catw_sig)]
        f = random_mor(demo_sig, 4, seed)
        g = parse_cmor(show_cmor(f))
        nf = normalize_adapters(strictify_expand(g, demo_sig), demo_sig)
        back = nonstrictify(nf, demo_sig)
        kept += [typecheck_c(g, demo_sig), nf, back, show_cmor(back),
                 show_dmor(nf), emit_svg(layout(nf, demo_sig)),
                 equal_structural(f, back, demo_sig)]
    assert _nesting_labels() == []
    a = Tensor(Tensor(X, Tensor(Y, Z)), X)
    kept.append(canonical_nat_iso(Tensor(Tensor(W, W), W),
                                  Tensor(W, Tensor(W, W)),
                                  (X, Tensor(Y, Z), X), demo_sig))
    assert a in _nesting_labels()


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
