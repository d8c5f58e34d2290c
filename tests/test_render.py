import hashlib

from strictcat.strict import IdD, Pack, normalize_adapters
from strictcat.render import emit_dot, emit_svg, layout
from strictcat.functors import strictify_expand
from strictcat import demos

from generate import random_dmor, random_mor
from conftest import X, Y


def test_layout_identity_has_no_columns(demo_sig):
    l = layout(IdD((X,)), demo_sig)
    assert l.columns == ()
    assert l.dom == ("x",)
    assert l.cod == ("x",)


def test_layout_pack_shape(demo_sig):
    l = layout(Pack(X, Y), demo_sig)
    assert len(l.columns) == 1
    col = l.columns[0]
    assert col.kind == "pack"
    assert col.pos == 0
    assert col.wires_in == ("x", "y")
    assert col.wires_out == ("(x * y)",)


def test_layout_parity_cascade():
    sig = demos.parity_signature()
    for n in (2, 3, 4):
        l = layout(demos.parity_term(n), sig)
        # unfolding the recursion: each level adds unpack, pack and xor
        assert len(l.columns) == 3 * (n - 1)
        kinds = [c.kind for c in l.columns]
        assert kinds.count("unpack") == n - 1
        assert kinds.count("pack") == n - 1
        assert kinds.count("generator") == n - 1


def test_emit_dot_empty_diagram(demo_sig):
    text = emit_dot(layout(IdD(()), demo_sig))
    assert text.startswith("digraph")
    assert text.rstrip().endswith("}")


def test_emit_dot_glyph_counts(demo_sig):
    text = emit_dot(layout(Pack(X, Y), demo_sig))
    assert text.count('comment="pack"') == 1
    assert text.count('comment="unpack"') == 0


def test_glyph_count_matches_constructors(demo_sig):
    for seed in range(30):
        t = random_dmor(demo_sig, 3, seed)
        l = layout(t, demo_sig)
        dot = emit_dot(l)
        svg = emit_svg(l)
        for kind in ("pack", "unpack", "unit-intro", "unit-elim", "generator"):
            expected = sum(1 for c in l.columns if c.kind == kind)
            assert dot.count(f'comment="{kind}"') == expected
            assert svg.count(f'class="slice {kind}"') == expected


def test_emission_is_deterministic(demo_sig):
    t = random_dmor(demo_sig, 3, 7)
    l = layout(t, demo_sig)
    assert emit_dot(l) == emit_dot(layout(t, demo_sig))
    assert emit_svg(l) == emit_svg(layout(t, demo_sig))


def test_svg_is_wellformed(demo_sig):
    import xml.etree.ElementTree as ET
    for seed in range(10):
        t = random_dmor(demo_sig, 3, seed)
        text = emit_svg(layout(t, demo_sig))
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert root.attrib["version"] == "1.1"


def test_ba_adapter_glyphs_before_and_after():
    # the fully bracketed encoding draws many adapters; after normalising,
    # only the interface bookkeeping of the strict-setting diagram is left
    from strictcat.functors import strictify_expand
    sig = demos.ba_signature()
    before = strictify_expand(demos.ba_nonstrict(), sig)
    after = normalize_adapters(before, sig)

    def adapter_glyphs(term):
        l = layout(term, sig)
        return sum(1 for c in l.columns if c.kind != "generator")

    assert adapter_glyphs(before) == 18
    assert adapter_glyphs(after) == 6


def _pin_inputs(demo_sig):
    yield IdD(()), demo_sig
    psig = demos.parity_signature()
    for n in range(1, 9):
        yield demos.parity_term(n), psig
    for seed in range(200):
        yield random_dmor(demo_sig, 3, seed), demo_sig
    for seed in range(80):
        t = strictify_expand(random_mor(demo_sig, 4, seed), demo_sig)
        yield normalize_adapters(t, demo_sig), demo_sig


def test_render_bytes_pinned(demo_sig):
    # DOT and SVG of empty, parity, random strict and normalised diagrams
    h = hashlib.sha256()
    for t, sig in _pin_inputs(demo_sig):
        l = layout(t, sig)
        h.update(emit_dot(l).encode())
        h.update(emit_svg(l).encode())
    assert h.hexdigest()[:16] == "dbd2dc584709e1d6"


def test_columns_replay_from_dom_to_cod(demo_sig):
    # each column consumes the labels at its position of the interface
    # before it, and splicing in what it produces ends at the codomain
    for t, sig in _pin_inputs(demo_sig):
        l = layout(t, sig)
        labels = l.dom
        for col in l.columns:
            end = col.pos + len(col.wires_in)
            assert labels[col.pos:end] == col.wires_in
            labels = labels[:col.pos] + col.wires_out + labels[end:]
        assert labels == l.cod
