import hashlib
from collections import Counter

from strictcat.terms import (
    UNIT, Assoc, AssocInv, Comp, Gen, Id, TensorM, UnitL, UnitLInv, UnitR,
    UnitRInv, Unit, Base, Tensor, show_obj, typecheck_c,
)
from strictcat.syntax import show_cmor, show_dmor
from strictcat.strict import CompD, Lift, TensorD, typecheck_d

from generate import (
    enumerate_catw_objects, random_adapter_walk, random_bracketing,
    random_dmor, random_mor, random_mor_from, random_obj,
    random_singleton_adapter_term, random_structural_walk,
)
from conftest import W, X, Y, Z


def _constructors(f):
    yield type(f).__name__
    if isinstance(f, Comp):
        yield from _constructors(f.first)
        yield from _constructors(f.second)
    elif isinstance(f, TensorM):
        yield from _constructors(f.left)
        yield from _constructors(f.right)


def test_random_mor_depth_one_is_a_leaf(demo_sig):
    for seed in range(50):
        f = random_mor(demo_sig, 1, seed)
        assert not isinstance(f, (Comp, TensorM))


def test_random_obj_is_in_grammar(catw_sig):
    for seed in range(50):
        a = random_obj(catw_sig, 3, seed)
        stack = [a]
        while stack:
            node = stack.pop()
            assert isinstance(node, (Unit, Base, Tensor))
            if isinstance(node, Tensor):
                stack += [node.left, node.right]


def test_random_mor_always_typechecks(demo_sig):
    for seed in range(300):
        f = random_mor(demo_sig, 6, seed)
        typecheck_c(f, demo_sig)  # must not raise


def test_distribution_smoke(demo_sig):
    tally = Counter()
    for seed in range(1000):
        tally.update(_constructors(random_mor(demo_sig, 6, seed)))
    for name in ("Id", "Gen", "Comp", "TensorM", "Assoc", "AssocInv",
                 "UnitL", "UnitLInv", "UnitR", "UnitRInv"):
        assert tally[name] >= 1, f"constructor {name} never generated"


def test_random_mor_deterministic(demo_sig):
    assert random_mor(demo_sig, 5, 123) == random_mor(demo_sig, 5, 123)


def test_random_structural_walk_typechecks(catw_sig, rng):
    for _ in range(100):
        start = random_obj(catw_sig, 3, rng)
        f = random_structural_walk(start, 5, rng)
        dom, _ = typecheck_c(f, catw_sig)
        assert dom == start


# Seeded walks recorded from the generator that listed every candidate
# move at each step; drawing an index and building one move must match.
STRUCTURAL_WALKS = [
    (Tensor(W, Tensor(Unit(), W)), 6, 11,
     "id[W] (*) (id[I] (*) rho'[W]) ; rho'[(W * (I * (W * I)))] ; "
     "id[W] (*) (id[I] (*) lambda'[(W * I)]) (*) id[I] ; "
     "id[W] (*) (id[I] (*) (id[I] (*) (lambda'[W] (*) id[I]))) (*) id[I] ; "
     "id[(W * (I * (I * ((I * W) * I))))] (*) lambda'[I] ; "
     "id[(W * (I * (I * ((I * W) * I))))] (*) (id[I] (*) rho'[I])"),
    (Tensor(Tensor(W, W), W), 8, 12,
     "id[(W * W)] (*) lambda'[W] ; id[(W * W)] (*) lambda[W] ; "
     "rho'[((W * W) * W)] ; rho'[(((W * W) * W) * I)] ; "
     "lambda'[((((W * W) * W) * I) * I)] ; "
     "id[I] (*) (id[W] (*) lambda'[W] (*) id[W] (*) id[I] (*) id[I]) ; "
     "id[I] (*) (alpha[W,I,W] (*) id[W] (*) id[I] (*) id[I]) ; "
     "id[I] (*) (rho'[(((W * I) * W) * W)] (*) id[I] (*) id[I])"),
    (W, 5, 13,
     "rho'[W] ; rho'[W] (*) id[I] ; id[(W * I)] (*) rho'[I] ; "
     "id[W] (*) lambda'[I] (*) id[(I * I)] ; "
     "id[(W * (I * I))] (*) (id[I] (*) rho'[I])"),
]


def test_random_structural_walk_pinned():
    for start, steps, seed, text in STRUCTURAL_WALKS:
        assert show_cmor(random_structural_walk(start, steps, seed)) == text


def test_random_adapter_walk_typechecks(catw_sig, rng):
    for _ in range(100):
        walk = random_adapter_walk(catw_sig, (W, W), 6, rng)
        typecheck_d(walk, catw_sig)


def test_random_dmor_typechecks(demo_sig):
    for seed in range(200):
        typecheck_d(random_dmor(demo_sig, 3, seed), demo_sig)


def test_enumerate_catw_objects_bounds():
    objs = enumerate_catw_objects(2, 1)
    from strictcat.terms import objsize
    assert len(objs) == len(set(objs))
    for o in objs:
        assert objsize(o) <= 2
        assert sum(1 for _ in _units(o)) <= 1
    # spot-check membership
    assert W in objs
    assert Tensor(W, W) in objs
    from strictcat.terms import UNIT
    assert UNIT in objs
    assert Tensor(W, UNIT) in objs


def _units(a):
    if isinstance(a, Unit):
        yield a
    elif isinstance(a, Tensor):
        yield from _units(a.left)
        yield from _units(a.right)


def _composites(t):
    """The composition and tensor nodes of ``t``, inside lifts too."""
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, (Comp, CompD)):
            yield t
            stack += (t.first, t.second)
        elif isinstance(t, (TensorM, TensorD)):
            yield t
            stack += (t.left, t.right)
        elif isinstance(t, Lift):
            stack.append(t.mor)


def test_generators_store_no_facts_on_subterms(demo_sig):
    # a generated part is a subterm of the result, so its ends come from
    # the walks that store nothing
    for seed in range(100):
        for t in (random_mor(demo_sig, 5, seed),
                  random_dmor(demo_sig, 4, seed)):
            assert all(getattr(u, "facts", None) is None
                       for u in _composites(t))


def test_generator_outputs_pinned(demo_sig):
    # every generated test input over fixed seeds, printed; a change to
    # any generator's draws changes the digest
    lines = []
    for seed in range(40):
        lines += [
            show_obj(random_obj(demo_sig, 4, seed)),
            show_cmor(random_mor(demo_sig, 5, seed)),
            show_cmor(random_mor(demo_sig, 5, seed, structural_only=True)),
            show_cmor(random_mor_from(demo_sig, Tensor(X, Tensor(UNIT, Y)),
                                      4, seed)),
            show_dmor(random_dmor(demo_sig, 4, seed)),
            show_cmor(random_structural_walk(Tensor(W, Tensor(W, UNIT)), 6,
                                             seed)),
            show_dmor(random_adapter_walk(demo_sig, (X, Tensor(Y, Z)), 5,
                                          seed)),
            show_dmor(random_adapter_walk(demo_sig, (X, Tensor(Y, Z)), 5,
                                          seed, structural_lifts=True)),
            show_dmor(random_singleton_adapter_term(
                demo_sig, Tensor(X, Tensor(Y, Z)), 4, seed)),
            show_obj(random_bracketing([X, Y, Z], seed, unit_budget=2)),
        ]
    lines += map(show_obj, enumerate_catw_objects(3, 2))
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == (
        "27c6eca974ce4eee089e2e2eca2cc4c711b05cf1d1705346130cd7a6165a32af")
