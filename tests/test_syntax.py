import re
from collections import Counter
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from strictcat.terms import (
    UNIT, Assoc, AssocInv, Base, Comp, Gen, Id, Tensor, TensorM, UnitL,
    UnitLInv, UnitR, UnitRInv,
)
from strictcat.strict import (
    IdD, Lift, Pack, UnitElim, UnitIntro, Unpack,
)
from strictcat.syntax import (
    ParseError, parse_cmor, parse_dmor, parse_model_config, parse_obj,
    parse_signature, parse_wires, show_cmor, show_dmor, show_signature,
)

from generate import random_dmor, random_mor
from conftest import W


def test_parse_obj():
    assert parse_obj("I") == UNIT
    assert parse_obj("W") == W
    assert parse_obj("(W * (I * W))") == Tensor(W, Tensor(UNIT, W))


def test_parse_obj_rejects_garbage():
    with pytest.raises(ParseError):
        parse_obj("(W *)")
    with pytest.raises(ParseError):
        parse_obj("W * W")  # tensor must be parenthesised


def test_parse_cmor_atoms():
    assert parse_cmor("id[I]") == Id(UNIT)
    assert parse_cmor("alpha[W,I,W]") == Assoc(W, UNIT, W)
    assert parse_cmor("alpha'[W,W,W]") == AssocInv(W, W, W)
    assert parse_cmor("lambda[W]") == UnitL(W)
    assert parse_cmor("lambda'[W]") == UnitLInv(W)
    assert parse_cmor("rho[W]") == UnitR(W)
    assert parse_cmor("rho'[W]") == UnitRInv(W)
    assert parse_cmor("f") == Gen("f")


def test_parse_cmor_precedence():
    # ; binds looser than (*)
    t = parse_cmor("f ; g (*) h")
    assert t == Comp(Gen("f"), TensorM(Gen("g"), Gen("h")))
    t2 = parse_cmor("(f ; g) (*) h")
    assert t2 == TensorM(Comp(Gen("f"), Gen("g")), Gen("h"))


def test_parse_cmor_left_associative():
    assert parse_cmor("f ; g ; h") == Comp(Comp(Gen("f"), Gen("g")), Gen("h"))


def test_parse_dmor_atoms():
    assert parse_dmor("pack[W,I]") == Pack(W, UNIT)
    assert parse_dmor("unpack[W,W]") == Unpack(W, W)
    assert parse_dmor("unit+") == UnitIntro()
    assert parse_dmor("unit-") == UnitElim()
    assert parse_dmor("lift(f ; g)") == Lift(Comp(Gen("f"), Gen("g")))
    assert parse_dmor("idD[W|(W * I)]") == IdD((W, Tensor(W, UNIT)))
    assert parse_dmor("idD[]") == IdD(())


def test_parse_wires():
    assert parse_wires("W|I") == (W, UNIT)
    assert parse_wires("") == ()
    assert parse_wires(" [W|I]") == (W, UNIT)
    assert parse_wires("[]") == ()


def test_round_trip_cmor(demo_sig):
    for seed in range(500):
        f = random_mor(demo_sig, 6, seed)
        assert parse_cmor(show_cmor(f)) == f


def test_round_trip_dmor(demo_sig):
    for seed in range(500):
        t = random_dmor(demo_sig, 3, seed)
        assert parse_dmor(show_dmor(t)) == t


def test_round_trip_handles_right_nesting():
    t = Comp(Gen("f"), Comp(Gen("g"), Gen("h")))
    assert parse_cmor(show_cmor(t)) == t
    t2 = TensorM(Gen("f"), TensorM(Gen("g"), Gen("h")))
    assert parse_cmor(show_cmor(t2)) == t2


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_cmor("f ;; g")
    assert info.value.line == 1
    assert info.value.column >= 4


# (parser, text, line, column, message): each row pins where and why a text
# is rejected; an unexpected character wins over any grammar error.
_ERROR_TABLE = [
    (parse_cmor, "f ; g $ h", 1, 7, "unexpected character '$'"),
    (parse_cmor, "f ;; g @", 1, 8, "unexpected character '@'"),
    (parse_dmor, "unit-x", 1, 5, "unexpected character '-'"),
    (parse_cmor, "f g", 1, 3, "trailing input"),
    (parse_dmor, "lift(f) )", 1, 9, "trailing input"),
    (parse_cmor, "id[W", 1, 5, "expected RB, found 'end of input'"),
    (parse_dmor, "idD[W|W", 1, 8, "expected RB, found 'end of input'"),
    (parse_cmor, "alpha[W,W]", 1, 11,
     "expected 3 object argument(s), got 2"),
    (parse_dmor, "pack[W]", 1, 8, "expected 2 object argument(s), got 1"),
    (parse_cmor, "f' ; g", 1, 4, "unknown primed morphism \"f'\""),
    (parse_obj, "(W' * W)", 1, 5, "unexpected primed name \"W'\" in object"),
    (parse_dmor, "lift(f) ; frob", 1, 15, "unknown strict morphism 'frob'"),
    (parse_cmor, "f ; (g (*)", 1, 11, "expected a morphism"),
    (parse_dmor, "lift(f) ; )", 1, 11, "expected a strict morphism"),
    (parse_dmor, "lift f", 1, 6, "expected LP, found 'f'"),
    (parse_cmor, "(f ; g", 1, 7, "expected RP, found 'end of input'"),
    (parse_obj, "(W * W * W)", 1, 8, "expected RP, found '*'"),
    (parse_obj, "(W W)", 1, 4, "expected STAR, found 'W'"),
    (parse_wires, "W|", 1, 3, "expected an object"),
    (parse_cmor, "f ;\n  g\n  ; ; h", 3, 5, "expected a morphism"),
    (parse_signature, "obj b\ngen f : (b * b) -> b b", 2, 22,
     "trailing input after generator type"),
    (parse_signature, "obj b\ngen f : (b * b) b", 2, 17,
     "expected ARROW, found 'b'"),
]


@pytest.mark.parametrize("parse, text, line, column, message", _ERROR_TABLE)
def test_parse_error_positions(parse, text, line, column, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"{line}:{column}: {message}"


def _node_counts(term) -> Counter:
    """Nodes of a term or object by type name, walked with an explicit
    stack; ``==`` and ``hash`` of deep terms still recurse."""
    counts: Counter = Counter()
    stack = [term]
    while stack:
        node = stack.pop()
        counts[type(node).__name__] += 1
        for f in fields(node):
            child = getattr(node, f.name)
            stack.extend(child if isinstance(child, tuple) else
                         [child] if is_dataclass(child) else [])
    return counts


DEEP = 10_000


def test_parse_deep_right_nested_object():
    out = parse_obj("(W * " * DEEP + "W" + ")" * DEEP)
    assert _node_counts(out) == Counter(Tensor=DEEP, Base=DEEP + 1)
    assert out.left == W


def test_parse_deep_parentheses():
    out = parse_cmor("(" * DEEP + "f ; id[(x * I)]" + ")" * DEEP)
    assert _node_counts(out) == Counter(
        Comp=1, Gen=1, Id=1, Tensor=1, Base=1, Unit=1)


def test_parse_deep_parentheses_around_lift():
    text = "(" * DEEP + "lift(" + "(" * DEEP + "f" + ")" * (DEEP + 1)
    out = parse_dmor(text + " ; idD[x|I]" + ")" * DEEP)
    assert _node_counts(out) == Counter(
        CompD=1, Lift=1, Gen=1, IdD=1, Base=1, Unit=1)


def test_parse_long_composition_chain():
    out = parse_cmor("f" + " ; g" * DEEP)
    assert _node_counts(out) == Counter(Comp=DEEP, Gen=DEEP + 1)
    assert out.second == Gen("g")  # left-associated: the last step on top


# Tokens of printed terms, to re-space them.
_TOKEN = re.compile(r"\(\*\)|unit[+-]|[A-Za-z_][A-Za-z0-9_]*'?|\S")


@given(st.integers(0, 2 ** 30), st.booleans(), st.data())
@settings(max_examples=100, deadline=None)
def test_round_trip_with_random_whitespace(demo_sig, seed, strict, data):
    t = random_dmor(demo_sig, 3, seed) if strict else random_mor(
        demo_sig, 6, seed)
    tokens = _TOKEN.findall(show_dmor(t) if strict else show_cmor(t))
    gaps = data.draw(st.lists(st.text(" \t\n", max_size=3),
                              min_size=len(tokens) + 1,
                              max_size=len(tokens) + 1))
    text = "".join(g + tok for g, tok in zip(gaps, tokens + [""]))
    assert (parse_dmor if strict else parse_cmor)(text) == t


_ALPHABET = ["f", "W", "I", "id", "alpha", "lambda'", "pack", "unpack",
             "lift", "idD", "unit", "f'", "unit+", "unit-", "(", ")", "[",
             "]", ",", ";", "|", "*", "(*)", "->", "-", "'", "$", "1",
             " ", "\n", "\t"]


@given(st.lists(st.sampled_from(_ALPHABET), max_size=30),
       st.sampled_from([parse_obj, parse_wires, parse_cmor, parse_dmor]))
@settings(max_examples=300, deadline=None)
def test_any_token_text_parses_or_fails_in_place(tokens, parse):
    text = "".join(tokens)
    try:
        parse(text)
    except ParseError as e:
        lines = text.split("\n")
        assert 1 <= e.line <= len(lines)
        assert 1 <= e.column <= len(lines[e.line - 1]) + 1


def test_signature_file_round_trip(demo_sig):
    text = show_signature(demo_sig)
    again = parse_signature(text)
    assert again == demo_sig


def test_signature_file_parsing():
    sig = parse_signature(
        "# circuit bits\n"
        "obj b\n"
        "gen xor : (b * b) -> b\n"
        "\n"
        "gen zero : I -> b\n")
    assert sig.base_objects == frozenset({"b"})
    assert sig.generators["xor"] == (Tensor(Base("b"), Base("b")), Base("b"))
    assert sig.generators["zero"] == (UNIT, Base("b"))


def test_signature_file_rejects_duplicates():
    with pytest.raises(ParseError):
        parse_signature("obj b\nobj b\n")


def test_model_config():
    sizes, seed = parse_model_config("W=3\nseed=9\n# comment\n")
    assert sizes == {"W": 3}
    assert seed == 9
    with pytest.raises(ParseError):
        parse_model_config("W=two\n")
