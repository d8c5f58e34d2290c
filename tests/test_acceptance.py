"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.  All comparisons are exact (syntactic equality or
exhaustive table equality); the stated time budgets are asserted.
"""

import random
import time

from strictcat.terms import (
    UNIT, Assoc, AssocInv, Comp, Id, Tensor, TensorM, UnitL, UnitLInv,
    UnitR, UnitRInv, is_structural, objsize, substitute, typecheck_c,
)
from strictcat.strict import (
    CompD, IdD, Lift, Pack, TensorD, UnitElim, UnitIntro, Unpack,
    canonical_d, chain_d, invert_d, normalize_adapters,
    normalize_adapters_with_stats, recompose, seq_normal_form, slice_term,
    typecheck_d,
)
from strictcat.functors import (
    epsilon, nonstrictify, strictify_expand, strictify_shallow,
)
from strictcat.coherence import EQUAL, equal_structural, fg_singleton_check
from strictcat.finmodel import (
    FinModel, Pair, UNIT_ELEM, eval_mor, eval_mor_d, eval_obj,
    extensional_equal,
)
from strictcat.render import layout
from strictcat.syntax import parse_cmor, parse_dmor, show_cmor, show_dmor
from strictcat import demos

from generate import (
    enumerate_catw_objects, make_slice, random_adapter_walk, random_dmor,
    random_mor, random_mor_from, random_obj, random_singleton_adapter_term,
    random_structural_walk,
)
from conftest import W


def _report(number: int, description: str, budget: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[acceptance] criterion {number:2d}: FAIL ({elapsed:5.2f}s) "
              f"{description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number:2d}: PASS ({elapsed:5.2f}s) "
          f"{description}")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def test_criterion_01_gf_identity(demo_sig):
    def body():
        for seed in range(1000):
            f = random_mor(demo_sig, 6, seed)
            assert nonstrictify(strictify_shallow(f, demo_sig), demo_sig) == f

    _report(1, "G after F is the identity on 1000 random terms", 5.0, body)


def _equation_families(sig, rng):
    """One instance of every defining equation, freshly instantiated."""
    a = random_obj(sig, 2, rng)
    b = random_obj(sig, 2, rng)
    c = random_obj(sig, 2, rng)
    f = random_mor_from(sig, random_obj(sig, 2, rng), 3, rng)
    g = random_mor_from(sig, random_obj(sig, 2, rng), 3, rng)
    df, cf = typecheck_c(f, sig)
    dg, cg = typecheck_c(g, sig)
    h = random_mor_from(sig, cf, 3, rng)
    families = {
        "lift-id": (Lift(Id(a)), IdD((a,))),
        "lift-comp": (Lift(Comp(f, h)), CompD(Lift(f), Lift(h))),
        "pack-naturality": (
            CompD(TensorD(Lift(f), Lift(g)), Pack(cf, cg)),
            CompD(Pack(df, dg), Lift(TensorM(f, g)))),
        "unpack-naturality": (
            CompD(Lift(TensorM(f, g)), Unpack(cf, cg)),
            CompD(Unpack(df, dg), TensorD(Lift(f), Lift(g)))),
        "pack-unpack": (CompD(Pack(a, b), Unpack(a, b)), IdD((a, b))),
        "unpack-pack": (CompD(Unpack(a, b), Pack(a, b)), IdD((Tensor(a, b),))),
        "intro-elim": (CompD(UnitIntro(), UnitElim()), IdD(())),
        "elim-intro": (CompD(UnitElim(), UnitIntro()), IdD((UNIT,))),
    }
    for name, structural in [
            ("assoc", Assoc(a, b, c)), ("assoc-inv", AssocInv(a, b, c)),
            ("unitl", UnitL(a)), ("unitl-inv", UnitLInv(a)),
            ("unitr", UnitR(a)), ("unitr-inv", UnitRInv(a))]:
        families[name] = (Lift(structural), strictify_expand(structural, sig))
    return families


def test_criterion_02_well_definedness(demo_sig):
    model = FinModel(demo_sig, seed=17)  # carriers default to size 2

    def body():
        rng = random.Random(202)
        for rep in range(50):
            for name, (lhs, rhs) in _equation_families(demo_sig, rng).items():
                gl = nonstrictify(lhs, demo_sig)
                gr = nonstrictify(rhs, demo_sig)
                assert extensional_equal(
                    eval_mor(gl, model), eval_mor(gr, model)), \
                    f"family {name} failed at rep {rep}"

    _report(2, "nonstrictification respects all defining equations", 10.0, body)


def test_criterion_03_monoidal_functor_laws(demo_sig):
    def body():
        rng = random.Random(303)
        for _ in range(100):
            a = random_obj(demo_sig, 2, rng)
            b = random_obj(demo_sig, 2, rng)
            c = random_obj(demo_sig, 2, rng)
            hex1 = chain_d(TensorD(IdD((a,)), Pack(b, c)),
                           Pack(a, Tensor(b, c)),
                           Lift(Assoc(a, b, c)))
            hex2 = chain_d(TensorD(Pack(a, b), IdD((c,))),
                           Pack(Tensor(a, b), c))
            assert normalize_adapters(hex1, demo_sig) == \
                normalize_adapters(hex2, demo_sig)
            sq_r = chain_d(TensorD(IdD((a,)), UnitIntro()),
                           Pack(a, UNIT), Lift(UnitR(a)))
            sq_l = chain_d(TensorD(UnitIntro(), IdD((a,))),
                           Pack(UNIT, a), Lift(UnitL(a)))
            assert normalize_adapters(sq_r, demo_sig) == IdD((a,))
            assert normalize_adapters(sq_l, demo_sig) == IdD((a,))

    _report(3, "hexagon and unit squares normalize to identical syntax",
            10.0, body)


def test_criterion_04_equivalence_epsilon(demo_sig, demo_model):
    def body():
        rng = random.Random(404)
        for _ in range(200):
            left = tuple(random_obj(demo_sig, 2, rng)
                         for _ in range(rng.randint(0, 1)))
            right = tuple(random_obj(demo_sig, 2, rng)
                          for _ in range(rng.randint(0, 1)))
            kind = rng.randint(0, 4)
            if kind == 0:
                gen = Lift(random_mor_from(
                    demo_sig, random_obj(demo_sig, 2, rng), 3, rng))
            elif kind == 1:
                gen = Pack(random_obj(demo_sig, 2, rng),
                           random_obj(demo_sig, 2, rng))
            elif kind == 2:
                gen = Unpack(random_obj(demo_sig, 2, rng),
                             random_obj(demo_sig, 2, rng))
            elif kind == 3:
                gen = UnitIntro()
            else:
                gen = UnitElim()
            t = slice_term(make_slice(left, gen, right, demo_sig))
            x, y = typecheck_d(t, demo_sig)
            lhs = strictify_expand(nonstrictify(t, demo_sig), demo_sig)
            rhs = chain_d(epsilon(x), t, invert_d(epsilon(y)))
            assert extensional_equal(eval_mor_d(lhs, demo_model),
                                     eval_mor_d(rhs, demo_model))

    _report(4, "F(G(t)) equals epsilon-conjugation on 200 random slices",
            15.0, body)


def test_criterion_05_preorder_canonicity(catw_sig):
    def body():
        objs = enumerate_catw_objects(4, 2)
        rng = random.Random(505)
        for _ in range(1000):
            start = tuple(rng.choice(objs)
                          for _ in range(rng.randint(1, 2)))
            walk = random_adapter_walk(catw_sig, start, rng.randint(1, 8), rng)
            dom, cod = typecheck_d(walk, catw_sig)
            expected = IdD(dom) if dom == cod else canonical_d(dom, cod)
            assert normalize_adapters(walk, catw_sig) == expected
            round_trip = CompD(canonical_d(dom, cod), canonical_d(cod, dom))
            assert normalize_adapters(round_trip, catw_sig) == IdD(dom)

    _report(5, "adapter walks normalize to the canonical arrow; "
               "canonical round trips are identities", 30.0, body)


def test_criterion_06_coherence_desk_scale(catw_sig, catw_model):
    def body():
        rng = random.Random(606)
        objs = [o for o in enumerate_catw_objects(5, 1) if objsize(o) <= 5]
        for _ in range(500):
            a = rng.choice(objs)
            f = random_structural_walk(a, rng.randint(1, 6), rng)
            _, b = typecheck_c(f, catw_sig)
            # a second, independent parallel morphism: another walk from a,
            # steered onto b through the canonical arrow
            walk2 = random_structural_walk(a, rng.randint(1, 6), rng)
            _, mid = typecheck_c(walk2, catw_sig)
            g = Comp(walk2, nonstrictify(canonical_d((mid,), (b,)), catw_sig))
            assert equal_structural(f, g, catw_sig).kind == EQUAL
            assert extensional_equal(eval_mor(f, catw_model),
                                     eval_mor(g, catw_model))

    _report(6, "500 parallel structural pairs: Equal and oracle-confirmed",
            20.0, body)


def test_criterion_07_worked_example(catw_sig, catw_model):
    def body():
        a = (Tensor(W, Tensor(UNIT, W)),)
        b = (Tensor(Tensor(W, UNIT), W),)
        g = nonstrictify(canonical_d(a, b), catw_sig)
        alpha = Assoc(W, UNIT, W)
        assert equal_structural(g, alpha, catw_sig).kind == EQUAL
        assert extensional_equal(eval_mor(g, catw_model),
                                 eval_mor(alpha, catw_model))

    _report(7, "canonical arrow between the two unit bracketings is the "
               "associator", 1.0, body)


def test_criterion_08_bundler_cancellation():
    """Every pair made at a stage boundary of the double-dual encoding cancels.

    Strictifying ``ba_nonstrict`` gives each stage its own pack/unpack
    bookkeeping, so each boundary between two stages carries one
    bundler-unbundler pair.  A lifted generator occupies one wire, so the
    adapters joining its fused wire to the wires around it stay: the
    result is the hand-written ``ba_strict_direct``, in which no two
    adjacent slices are inverse adapters and every adapter touches a
    generator.
    """
    def body():
        sig = demos.ba_signature()
        nonstrict = demos.ba_nonstrict()
        direct = demos.ba_strict_direct()
        boundaries = _comp_stages(nonstrict) - 1
        encoded = strictify_expand(nonstrict, sig)
        out, stats = normalize_adapters_with_stats(encoded, sig)
        rendered = len(layout(out, sig).columns)
        strict_columns = len(layout(direct, sig).columns)
        assert rendered == strict_columns, \
            f"rendering has {rendered} slices, strict diagram {strict_columns}"
        assert stats.cancelled_pairs == boundaries, \
            f"{stats.cancelled_pairs} adapter pairs cancelled, " \
            f"{boundaries} stage boundaries"
        assert out == direct, "normal form differs from ba_strict_direct"
        slices = seq_normal_form(out, sig).slices
        for before, after in zip(slices, slices[1:]):
            assert not _inverse_adapters(before, after), \
                f"uncancelled pair {before.gen} ; {after.gen}"
        for i, s in enumerate(slices):
            if isinstance(s.gen, Lift):
                continue
            assert (i > 0 and _touches_lift(slices[i - 1], s)) or \
                (i + 1 < len(slices) and _touches_lift(s, slices[i + 1])), \
                f"adapter {s.gen} at wire {s.pos} touches no generator"

    _report(8, "double-dual encoding: bundler-unbundler pairs all cancel",
            1.0, body)


def _comp_stages(f) -> int:
    """Number of stages on the composition spine of ``f``."""
    if isinstance(f, Comp):
        return _comp_stages(f.first) + _comp_stages(f.second)
    return 1


def _inverse_adapters(s1, s2) -> bool:
    """Adjacent slices that are mutually inverse adapters at one position."""
    if s1.pos != s2.pos:
        return False
    kinds = {type(s1.gen), type(s2.gen)}
    if kinds == {Pack, Unpack}:
        return (s1.gen.left, s1.gen.right) == (s2.gen.left, s2.gen.right)
    return kinds == {UnitIntro, UnitElim}


def _touches_lift(before, after) -> bool:
    """Of two adjacent slices, one is a lift and ``after`` reads a wire
    that ``before`` writes."""
    if not (isinstance(before.gen, Lift) or isinstance(after.gen, Lift)):
        return False
    lo = max(before.pos, after.pos)
    hi = min(before.pos + len(before.gen_cod), after.pos + len(after.gen_dom))
    return lo < hi


def test_criterion_09_corollary_synthesis(demo_sig, demo_model):
    from strictcat.coherence import canonical_nat_iso
    from strictcat.terms import Unit

    def flatten_elem(shape, elem):
        if isinstance(shape, Tensor):
            return (flatten_elem(shape.left, elem.first)
                    + flatten_elem(shape.right, elem.second))
        if isinstance(shape, Unit):
            return []
        return [elem]

    def build_elem(shape, values, index=0):
        if isinstance(shape, Unit):
            return UNIT_ELEM, index
        if isinstance(shape, Tensor):
            left, index = build_elem(shape.left, values, index)
            right, index = build_elem(shape.right, values, index)
            return Pair(left, right), index
        return values[index], index + 1

    def body():
        rng = random.Random(909)
        shapes = enumerate_catw_objects(3, 1)
        for shape_a in shapes:
            for shape_b in shapes:
                if objsize(shape_a) != objsize(shape_b):
                    continue
                for _ in range(2):
                    fill = []
                    while len(fill) < objsize(shape_a):
                        candidate = random_obj(demo_sig, 2, rng)
                        if objsize(candidate) + sum(map(objsize, fill)) <= 6:
                            fill.append(candidate)
                    fill = tuple(fill)
                    t = canonical_nat_iso(shape_a, shape_b, fill, demo_sig)
                    assert is_structural(t)
                    filled_a = substitute(shape_a, fill)
                    filled_b = substitute(shape_b, fill)
                    assert typecheck_c(t, demo_sig) == (filled_a, filled_b)
                    table = eval_mor(t, demo_model)
                    expected = {}
                    for x in eval_obj(filled_a, demo_model):
                        values = flatten_elem(shape_a, x)
                        y, _ = build_elem(shape_b, values)
                        expected[x] = y
                    assert table.mapping == expected

    _report(9, "canonical map equals the rebracketing bijection on all "
               "small shape pairs", 20.0, body)


def test_criterion_10_fg_singleton(catw_sig):
    def body():
        rng = random.Random(1010)
        objs = [o for o in enumerate_catw_objects(3, 1) if objsize(o) >= 1]
        for _ in range(200):
            t = random_singleton_adapter_term(
                catw_sig, rng.choice(objs), rng.randint(1, 5), rng)
            assert fg_singleton_check(t, catw_sig)

    _report(10, "F(G(f)) = f on 200 singleton-wire adapter terms", 10.0, body)


def test_criterion_11_sequential_normal_form(demo_sig, demo_model):
    def body():
        for seed in range(500):
            t = random_dmor(demo_sig, 3, seed)
            nf = seq_normal_form(t, demo_sig)
            for s in nf.slices:
                assert isinstance(
                    s.gen, (Lift, Pack, Unpack, UnitIntro, UnitElim))
            back = recompose(nf.slices, nf.dom)
            assert extensional_equal(eval_mor_d(t, demo_model),
                                     eval_mor_d(back, demo_model))

    _report(11, "sequential normal form recomposes; one generator per slice",
            10.0, body)


def test_criterion_12_cli_round_trip(demo_sig):
    def body():
        import json
        import pathlib
        from test_cli import run_cli
        for seed in range(500):
            f = random_mor(demo_sig, 6, seed)
            assert parse_cmor(show_cmor(f)) == f
        for seed in range(500):
            t = random_dmor(demo_sig, 3, seed)
            assert parse_dmor(show_dmor(t)) == t
        sig_path = str(pathlib.Path(__file__).parent / "data" / "demo.sig")
        code, out = run_cli("--json", "strictify", "--mode", "expand",
                            "--sig", sig_path, "alpha[x,y,z]")
        assert code == 0
        data = json.loads(out)
        reparsed = parse_dmor(data["output"])
        assert show_dmor(reparsed) == data["output"]

    _report(12, "parse/print identity on 1000 terms; json output re-parses",
            5.0, body)
