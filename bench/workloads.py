"""The three workloads: what one op calls, and how its answer is checked.

Each workload builds its signatures and models once (set-up), makes a
pool of inputs from a seed in blocks of ``block`` inputs, runs one op per
input through ``tr.call`` so a traced run can put a span around every
engine call, and checks each op's output, off the clock, against
``reference``.  A traced run of ``--seconds s`` covers the first
``round(s * trace_blocks_per_s)`` blocks (at least one), sized to take
about ``s`` seconds on the host the benchmark was written on; its counts
repeat exactly for a given seed.

``check`` returns ``(ok, queries, decided)``: whether every output is
right, how many equal-by-construction queries the op posed, and how
many of those the engine answered as equal.
"""

from __future__ import annotations

from strictcat.terms import Comp, make_signature, typecheck_c
from strictcat.strict import (
    CompD, IdD, TensorD, canonical_d, normalize_adapters,
    normalize_adapters_with_stats, typecheck_d,
)
from strictcat.functors import nonstrictify, strictify_expand
from strictcat.coherence import (
    EQUAL, NOT_EQUAL, UNKNOWN, canonical_nat_iso, equal_structural,
)
from strictcat.finmodel import FinModel, eval_mor, extensional_equal
from strictcat.syntax import (
    parse_cmor, parse_dmor, show_cmor, show_dmor,
)
from strictcat.render import emit_svg, layout

import inputs
import reference

# The engine calls an op may make, as span names, and the counts a
# traced run adds up.  Every traced run reports all of them.
CALLS = (
    "syntax.parse_cmor", "syntax.show_cmor", "syntax.show_dmor",
    "terms.typecheck_c", "strict.typecheck_d", "strict.canonical_d",
    "strict.normalize_adapters", "functors.strictify_expand",
    "functors.nonstrictify", "coherence.equal_structural",
    "coherence.canonical_nat_iso", "finmodel.eval_mor",
    "finmodel.extensional_equal", "render.layout", "render.emit_svg",
)
COUNTS = (
    "finmodel.table_entries", "strict.slices_in", "strict.slices_out",
    "strict.cancelled_pairs", "strict.swaps", "coherence.verdict.equal",
    "coherence.verdict.unknown", "coherence.verdict.not_equal",
    "syntax.chars_parsed", "render.svg_bytes",
)
VERDICTS = {EQUAL: "equal", UNKNOWN: "unknown", NOT_EQUAL: "not_equal"}

# The warm-up pass runs the first WARMUP_OPS inputs made with this seed.
WARMUP_SEED = 0
WARMUP_OPS = 24


def normalize(tr, t, sig):
    """``normalize_adapters``; a traced run takes its rewrite counts too."""
    if not tr.on:
        return normalize_adapters(t, sig)
    out, stats = tr.call("strict.normalize_adapters",
                         normalize_adapters_with_stats, t, sig)
    tr.count("strict.slices_in", slices(t))
    tr.count("strict.slices_out", slices(out))
    tr.count("strict.cancelled_pairs", stats.cancelled_pairs)
    tr.count("strict.swaps", stats.swaps)
    return out


def slices(t) -> int:
    """Length of the sequential normal form: one slice per generator node."""
    if isinstance(t, CompD):
        return slices(t.first) + slices(t.second)
    if isinstance(t, TensorD):
        return slices(t.left) + slices(t.right)
    return 0 if isinstance(t, IdD) else 1


def verdict(tr, f, g, sig):
    out = tr.call("coherence.equal_structural", equal_structural, f, g, sig)
    tr.count("coherence.verdict." + VERDICTS[out.kind], 1)
    return out


def eval_table(tr, f, model):
    out = tr.call("finmodel.eval_mor", eval_mor, f, model)
    tr.count("finmodel.table_entries", len(out.mapping))
    return out


def demo_signature():
    return make_signature(inputs.DEMO_BASES, inputs.DEMO_GENS)


class OracleCoherence:
    """Structural pairs decided by coherence and confirmed by the finite-set
    model, plus synthesised natural isomorphisms evaluated in it."""

    name = "oracle-coherence"
    block = inputs.ORACLE_BLOCK
    pool_blocks = 800
    trace_blocks_per_s = 25
    W_SIZES = {"W": 2}
    DEMO_SIZES = {"x": 2, "y": 2, "z": 2}

    def __init__(self):
        self.wsig = make_signature(["W"])
        self.wmodel = FinModel(self.wsig, self.W_SIZES, seed=3)
        self.dsig = demo_signature()
        self.dmodel = FinModel(self.dsig, self.DEMO_SIZES, seed=11)

    @staticmethod
    def make_inputs(seed: int, blocks: int) -> list:
        return inputs.oracle_inputs(seed, blocks)

    def op(self, inp, tr):
        if isinstance(inp, inputs.NatIso):
            t = tr.call("coherence.canonical_nat_iso", canonical_nat_iso,
                        inp.shape_a, inp.shape_b, inp.fill, self.dsig)
            return eval_table(tr, t, self.dmodel)
        kappa = tr.call("strict.canonical_d", canonical_d,
                        (inp.mid,), (inp.b,))
        g = Comp(inp.walk2,
                 tr.call("functors.nonstrictify", nonstrictify, kappa,
                         self.wsig))
        kind = verdict(tr, inp.f, g, self.wsig).kind
        tf = eval_table(tr, inp.f, self.wmodel)
        tg = eval_table(tr, g, self.wmodel)
        same = tr.call("finmodel.extensional_equal", extensional_equal,
                       tf, tg)
        return kind, tf, tg, same

    def check(self, inp, out) -> tuple[bool, int, int]:
        if isinstance(inp, inputs.NatIso):
            expected = reference.shape_rebracket(
                inp.shape_a, inp.shape_b, inp.filled_a, self.DEMO_SIZES)
            return reference.plain_table(out.mapping) == expected, 0, 0
        kind, tf, tg, same = out
        expected = reference.rebracket(inp.a, inp.b, self.W_SIZES)
        ok = (kind == EQUAL and same is True
              and reference.plain_table(tf.mapping) == expected
              and reference.plain_table(tg.mapping) == expected)
        return ok, 1, int(kind == EQUAL)


class AdapterWalks:
    """Random adapter walks normalised to the canonical arrow, and canonical
    round trips normalised to the identity."""

    name = "adapter-walks"
    block = inputs.WALK_BLOCK
    pool_blocks = 80
    trace_blocks_per_s = 1.8

    def __init__(self):
        self.sig = make_signature(["W"])

    @staticmethod
    def make_inputs(seed: int, blocks: int) -> list:
        return inputs.walk_inputs(seed, blocks)

    def op(self, inp, tr):
        ends = tr.call("strict.typecheck_d", typecheck_d, inp.term, self.sig)
        dom, cod = ends
        nf = normalize(tr, inp.term, self.sig)
        there = tr.call("strict.canonical_d", canonical_d, dom, cod)
        back = tr.call("strict.canonical_d", canonical_d, cod, dom)
        round_trip = normalize(tr, CompD(there, back), self.sig)
        return ends, nf, round_trip

    def check(self, inp, out) -> tuple[bool, int, int]:
        ends, nf, round_trip = out
        decided = (int(nf == reference.canonical(inp.dom, inp.cod))
                   + int(round_trip == IdD(inp.dom)))
        return ends == (inp.dom, inp.cod) and decided == 2, 2, decided


class GeneratorQueries:
    """Text queries through the whole pipeline: parse, typecheck, strictify,
    normalise, read back, print, render and decide equality."""

    name = "generator-queries"
    block = inputs.QUERY_BLOCK
    pool_blocks = 6
    trace_blocks_per_s = 0.2

    def __init__(self):
        self.sigs = {
            "demo": demo_signature(),
            "parity": make_signature(["b"], inputs.PARITY_GENS),
        }
        self.oracle = reference.Oracle()

    @staticmethod
    def make_inputs(seed: int, blocks: int) -> list:
        return inputs.query_inputs(seed, blocks)

    def op(self, inp, tr):
        sig = self.sigs[inp.sig]
        tr.count("syntax.chars_parsed", len(inp.f_text) + len(inp.g_text))
        f = tr.call("syntax.parse_cmor", parse_cmor, inp.f_text)
        g = tr.call("syntax.parse_cmor", parse_cmor, inp.g_text)
        ends = (tr.call("terms.typecheck_c", typecheck_c, f, sig),
                tr.call("terms.typecheck_c", typecheck_c, g, sig))
        strict = tr.call("functors.strictify_expand", strictify_expand, f, sig)
        nf = normalize(tr, strict, sig)
        back = tr.call("functors.nonstrictify", nonstrictify, nf, sig)
        shown = (tr.call("syntax.show_cmor", show_cmor, back),
                 tr.call("syntax.show_dmor", show_dmor, nf))
        svg = tr.call("render.emit_svg", emit_svg,
                      tr.call("render.layout", layout, nf, sig))
        tr.count("render.svg_bytes", len(svg))
        kind = verdict(tr, f, g, sig).kind
        return f, g, ends, nf, back, shown, svg, kind

    def check(self, inp, out) -> tuple[bool, int, int]:
        f, g, ends, nf, back, shown, svg, kind = out
        typed = (inp.dom, inp.cod)
        ok = (f == inp.f and g == inp.g and ends == (typed, typed)
              and parse_cmor(shown[0]) == back
              and parse_dmor(shown[1]) == nf
              and svg.startswith("<svg ") and svg.endswith("</svg>\n")
              and self.oracle.equal(f, back, inp.dom) is not False)
        if inp.kind == "distinct":
            apart = self.oracle.equal(f, g, inp.dom) is False
            return ok and apart and kind != EQUAL, 0, 0
        ok = ok and kind != NOT_EQUAL
        if kind == EQUAL:
            ok = ok and self.oracle.equal(f, g, inp.dom) is not False
        return ok, 1, int(kind == EQUAL)


WORKLOADS = {w.name: w for w in (OracleCoherence, AdapterWalks,
                                 GeneratorQueries)}
