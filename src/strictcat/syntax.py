"""Concrete syntax: parsing and printing of objects and terms.

Grammar summary (see README for the full table):

    objects        I | name | (A * B)
    base morphisms id[A], gen-name, alpha[A,B,C], alpha'[A,B,C],
                   lambda[A], lambda'[A], rho[A], rho'[A]
    strict extras  pack[A,B], unpack[A,B], unit+, unit-, lift(f),
                   idD[A1|A2|...]
    combinators    f ; g   (diagrammatic, loosest)
                   f (*) g (tensor, tighter)

``;`` and ``(*)`` associate to the left; printing re-parenthesises
right-nested children, so parse(show(t)) == t for every term.

Each text is tokenized by one ``findall`` of a master pattern whose last
alternative catches any other character, and parsed without recursion.
Terms are read by one precedence loop that reduces each ``;`` and ``(*)``
as soon as its right operand is complete; an open ``(`` or ``lift(``
pushes the pending operands on an explicit stack, and ``lift(`` switches
to the base language until its ``)``.  Objects and wire lists are reduced
on a stack of open ``(``.  Within one call, equal names share one
``Base`` or ``Gen`` leaf.  A position is worked out only when a text is
rejected, by scanning it again; an unexpected character anywhere in the
text is reported ahead of any grammar error.
"""

from __future__ import annotations

import re

from .terms import (
    UNIT, Assoc, AssocInv, Base, Comp, Gen, Id, MorC, ObjC, Signature,
    Tensor, TensorM, TermError, UnitL, UnitLInv, UnitR, UnitRInv,
    make_signature, show_obj,
)
from .strict import (
    CompD, IdD, Lift, MorD, Pack, TensorD, UnitElim, UnitIntro, Unpack,
    Wires,
)


class ParseError(TermError):
    def __init__(self, message: str, line: int, column: int):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}")


_TOKENS = (r"\(\*\)|unit\+|unit-(?![A-Za-z0-9_])|->|[A-Za-z_][A-Za-z0-9_]*'?"
           r"|[()\[\],;|*]")
# The catch-all makes every other character a token of its own, so findall
# skips exactly the whitespace; the scan for errors captures it to name it.
_TOKEN_RE = re.compile(_TOKENS + r"|\S")
_SCAN_RE = re.compile(_TOKENS + r"|(\S)")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*'?\Z").match

_C_ATOMS = {"id": (Id, 1), "alpha": (Assoc, 3), "alpha'": (AssocInv, 3),
            "lambda": (UnitL, 1), "lambda'": (UnitLInv, 1),
            "rho": (UnitR, 1), "rho'": (UnitRInv, 1)}
_D_ATOMS = {"pack": (Pack, 2), "unpack": (Unpack, 2)}


class _Reject(Exception):
    """A grammar error at a token index, placed in the text by ``_run``."""


def _expected(kind: str, toks: list, i: int) -> _Reject:
    return _Reject(i, f"expected {kind}, found {toks[i] or 'end of input'!r}")


def _run(text: str, parse, *args, tail: str = "trailing input"):
    """``parse`` over the tokens of ``text``, which it must use up, or the
    ``ParseError`` of the rejection, placed by scanning ``text`` again."""
    toks = _TOKEN_RE.findall(text)
    toks.append("")
    try:
        out, i = parse(toks, 0, {"I": UNIT}, *args)
        if toks[i]:
            raise _Reject(i, tail)
        return out
    except _Reject as e:
        k, message = e.args
    pos = len(text)
    for n, m in enumerate(_SCAN_RE.finditer(text)):
        if m.group(1):
            message, pos = f"unexpected character {m.group(1)!r}", m.start()
            break
        if n == k:
            pos = m.start()
    line = text.count("\n", 0, pos) + 1
    raise ParseError(message, line, pos - text.rfind("\n", 0, pos))


def _obj(toks: list, i: int, bases: dict):
    """The object at ``toks[i]`` and the index after it.  ``stack`` holds
    None for each open ``(``, and its left operand once ``*`` is read."""
    stack = []
    while True:
        tok = toks[i]
        if tok == "(":
            stack.append(None)
            i += 1
            continue
        out = bases.get(tok)
        if out is None:
            if not _NAME(tok):
                raise _Reject(i, "expected an object")
            if tok[-1] == "'":
                raise _Reject(i + 1,
                              f"unexpected primed name {tok!r} in object")
            out = bases[tok] = Base(tok)
        i += 1
        while stack:
            left = stack[-1]
            if left is None:
                if toks[i] != "*":
                    raise _expected("STAR", toks, i)
                stack[-1] = out
                i += 1
                break
            if toks[i] != ")":
                raise _expected("RP", toks, i)
            stack.pop()
            out = Tensor(left, out)
            i += 1
        else:
            return out, i


def _objs(toks: list, i: int, bases: dict, sep: str):
    """Objects joined by ``sep`` from ``toks[i]``, and the index after."""
    out = []
    while True:
        a = bases.get(toks[i])  # a leaf seen before needs no stack
        if a is None:
            a, i = _obj(toks, i, bases)
        else:
            i += 1
        out.append(a)
        if toks[i] != sep:
            return out, i
        i += 1


def _wires(toks: list, i: int, bases: dict, ends=("]",)):
    if toks[i] in ends:
        return (), i
    out, i = _objs(toks, i, bases, "|")
    return tuple(out), i


def _args(toks: list, i: int, bases: dict, n: int | None):
    """The ``n`` objects of ``[A,B,...]`` at ``toks[i]``, or the wires of
    ``[A|B|...]`` when ``n`` is None, and the index after the ``]``."""
    if toks[i] != "[":
        raise _expected("LB", toks, i)
    if n is None:
        out, i = _wires(toks, i + 1, bases)
    else:
        out, i = _objs(toks, i + 1, bases, ",")
    if toks[i] != "]":
        raise _expected("RB", toks, i)
    if n is not None and len(out) != n:
        raise _Reject(i + 1,
                      f"expected {n} object argument(s), got {len(out)}")
    return out, i + 1


def _mor(toks: list, i: int, bases: dict, strict: bool):
    """The term at ``toks[i]``, strict when ``strict``, and the index after
    it.  ``;`` and ``(*)`` associate to the left, so each is reduced as soon
    as its right operand is read: ``semi`` and ``tens`` hold the pending left
    operands, and each open ``(`` or ``lift(`` pushes them with the language
    outside it; closing a ``lift(`` returns to the strict language."""
    gens: dict = {}
    stack = []
    semi = tens = None
    while True:
        tok = toks[i]
        i += 1
        if tok == "(" or tok == "lift" and strict:
            stack.append((semi, tens, strict))
            semi = tens = None
            if tok == "lift":
                if toks[i] != "(":
                    raise _expected("LP", toks, i)
                strict = False
                i += 1
            continue
        atom = (_D_ATOMS if strict else _C_ATOMS).get(tok)
        if atom is not None:
            args, i = _args(toks, i, bases, atom[1])
            out = atom[0](*args)
        elif not strict:
            out = gens.get(tok)
            if out is None:
                if not _NAME(tok):
                    raise _Reject(i - 1, "expected a morphism")
                if tok[-1] == "'":
                    raise _Reject(i, f"unknown primed morphism {tok!r}")
                out = gens[tok] = Gen(tok)
        elif tok == "idD":
            wires, i = _args(toks, i, bases, None)
            out = IdD(wires)
        elif tok == "unit+":
            out = UnitIntro()
        elif tok == "unit-":
            out = UnitElim()
        elif _NAME(tok):
            raise _Reject(i, f"unknown strict morphism {tok!r}")
        else:
            raise _Reject(i - 1, "expected a strict morphism")
        while True:
            if tens is not None:
                out = (TensorD if strict else TensorM)(tens, out)
            tok = toks[i]
            if tok == "(*)":
                tens = out
                i += 1
                break
            tens = None
            if semi is not None:
                out = (CompD if strict else Comp)(semi, out)
            if tok == ";":
                semi = out
                i += 1
                break
            if not stack:
                return out, i
            if tok != ")":
                raise _expected("RP", toks, i)
            i += 1
            semi, tens, outer = stack.pop()
            if outer != strict:
                out, strict = Lift(out), outer


def _gen_type(toks: list, i: int, bases: dict):
    dom, i = _obj(toks, i, bases)
    if toks[i] != "->":
        raise _expected("ARROW", toks, i)
    cod, i = _obj(toks, i + 1, bases)
    return (dom, cod), i


def parse_obj(text: str) -> ObjC:
    return _run(text, _obj)


def parse_cmor(text: str) -> MorC:
    return _run(text, _mor, False)


def parse_dmor(text: str) -> MorD:
    return _run(text, _mor, True)


def parse_wires(text: str) -> Wires:
    return _run(text, _wires, ("]", ""))


# ---------------------------------------------------------------------------
# Printing

_PREC_COMP = 0
_PREC_TENS = 1


def show_cmor(f: MorC) -> str:
    return _show_c(f, _PREC_COMP)


def _show_c(f: MorC, ctx: int) -> str:
    if isinstance(f, Comp):
        s = f"{_show_c(f.first, _PREC_COMP)} ; {_show_c(f.second, _PREC_TENS)}"
        return f"({s})" if ctx > _PREC_COMP else s
    if isinstance(f, TensorM):
        s = f"{_show_c(f.left, _PREC_TENS)} (*) {_show_c(f.right, _PREC_TENS + 1)}"
        return f"({s})" if ctx > _PREC_TENS else s
    if isinstance(f, Id):
        return f"id[{show_obj(f.obj)}]"
    if isinstance(f, Gen):
        return f.name
    if isinstance(f, Assoc):
        return f"alpha[{show_obj(f.a)},{show_obj(f.b)},{show_obj(f.c)}]"
    if isinstance(f, AssocInv):
        return f"alpha'[{show_obj(f.a)},{show_obj(f.b)},{show_obj(f.c)}]"
    if isinstance(f, UnitL):
        return f"lambda[{show_obj(f.obj)}]"
    if isinstance(f, UnitLInv):
        return f"lambda'[{show_obj(f.obj)}]"
    if isinstance(f, UnitR):
        return f"rho[{show_obj(f.obj)}]"
    if isinstance(f, UnitRInv):
        return f"rho'[{show_obj(f.obj)}]"
    raise TypeError(f)


def show_dmor(t: MorD) -> str:
    return _show_d(t, _PREC_COMP)


def _show_d(t: MorD, ctx: int) -> str:
    if isinstance(t, CompD):
        s = f"{_show_d(t.first, _PREC_COMP)} ; {_show_d(t.second, _PREC_TENS)}"
        return f"({s})" if ctx > _PREC_COMP else s
    if isinstance(t, TensorD):
        s = f"{_show_d(t.left, _PREC_TENS)} (*) {_show_d(t.right, _PREC_TENS + 1)}"
        return f"({s})" if ctx > _PREC_TENS else s
    if isinstance(t, IdD):
        return f"idD[{'|'.join(show_obj(w) for w in t.wires)}]"
    if isinstance(t, Lift):
        return f"lift({show_cmor(t.mor)})"
    if isinstance(t, Pack):
        return f"pack[{show_obj(t.left)},{show_obj(t.right)}]"
    if isinstance(t, Unpack):
        return f"unpack[{show_obj(t.left)},{show_obj(t.right)}]"
    if isinstance(t, UnitIntro):
        return "unit+"
    if isinstance(t, UnitElim):
        return "unit-"
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Signature and model files

_OBJ_LINE = re.compile(r"^obj\s+([A-Za-z_][A-Za-z0-9_]*)$")
_GEN_LINE = re.compile(r"^gen\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.+)$")


def parse_signature(text: str) -> Signature:
    """Signature file: one ``obj NAME`` or ``gen NAME : A -> B`` per line."""
    bases: list[str] = []
    gens: dict[str, tuple[ObjC, ObjC]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _OBJ_LINE.match(line)
        if m:
            name = m.group(1)
            if name in bases:
                raise ParseError(f"duplicate object {name!r}", lineno, 1)
            bases.append(name)
            continue
        m = _GEN_LINE.match(line)
        if m:
            name, type_text = m.groups()
            try:
                ends = _run(type_text, _gen_type,
                            tail="trailing input after generator type")
            except ParseError as err:
                # place it in the file: the type text is on this line,
                # after the whitespace that ``strip`` removed
                at = len(raw) - len(raw.lstrip()) + m.start(2)
                raise ParseError(err.message, lineno,
                                 at + err.column) from None
            if name in gens:
                raise ParseError(f"duplicate generator {name!r}", lineno, 1)
            gens[name] = ends
            continue
        raise ParseError("expected 'obj NAME' or 'gen NAME : A -> B'",
                         lineno, 1)
    return make_signature(bases, gens)


def show_signature(sig: Signature) -> str:
    lines = [f"obj {name}" for name in sorted(sig.base_objects)]
    for name in sorted(sig.generators):
        dom, cod = sig.generators[name]
        lines.append(f"gen {name} : {show_obj(dom)} -> {show_obj(cod)}")
    return "\n".join(lines) + "\n"


def parse_model_config(text: str) -> tuple[dict[str, int], int]:
    """Model file: ``name=size`` lines plus an optional ``seed=n`` line."""
    sizes: dict[str, int] = {}
    seed = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected key=value", lineno, 1)
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            number = int(value)
        except ValueError:
            raise ParseError(f"expected an integer, found {value!r}",
                             lineno, 1) from None
        if key == "seed":
            seed = number
        else:
            sizes[key] = number
    return sizes, seed
