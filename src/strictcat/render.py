"""String-diagram emission for strict terms: one column per slice.

Diagrams read left to right (domain on the left).  Adapter generators
get triangular glyphs, unit introduction/elimination small caps, lifted
morphisms rectangular boxes.  Both emitters build plain strings on a
fixed grid, so output is byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import Signature, show_obj
from .strict import (
    Lift, MorD, Pack, Slice, UnitElim, UnitIntro, Unpack, seq_normal_form,
)
from .syntax import show_cmor


@dataclass(frozen=True)
class ColumnLayout:
    index: int
    kind: str              # generator | pack | unpack | unit-intro | unit-elim
    label: str
    pos: int               # first wire consumed
    n_in: int
    n_out: int
    wires_in: tuple[str, ...]
    wires_out: tuple[str, ...]


@dataclass(frozen=True)
class DiagramLayout:
    dom: tuple[str, ...]
    cod: tuple[str, ...]
    columns: tuple[ColumnLayout, ...]


class _Shown(dict):
    """Wire labels shown so far, by node: labels are interned, so each
    distinct label is shown once however many wires carry it."""

    def __missing__(self, label):
        text = self[label] = show_obj(label)
        return text

    def wires(self, w) -> tuple[str, ...]:
        return tuple(map(self.__getitem__, w))


def _column_of(index: int, s: Slice, shown: _Shown) -> ColumnLayout:
    gen = s.gen
    if isinstance(gen, Lift):
        kind, label = "generator", show_cmor(gen.mor)
    elif isinstance(gen, Pack):
        kind, label = "pack", ""
    elif isinstance(gen, Unpack):
        kind, label = "unpack", ""
    elif isinstance(gen, UnitIntro):
        kind, label = "unit-intro", ""
    elif isinstance(gen, UnitElim):
        kind, label = "unit-elim", ""
    else:
        raise TypeError(gen)
    return ColumnLayout(
        index=index, kind=kind, label=label, pos=len(s.left),
        n_in=len(s.gen_dom), n_out=len(s.gen_cod),
        wires_in=shown.wires(s.dom), wires_out=shown.wires(s.cod))


def layout(t: MorD, sig: Signature) -> DiagramLayout:
    """Columns of the diagram of ``t``: its sequential normal form."""
    nf = seq_normal_form(t, sig)
    shown = _Shown()
    columns = tuple(_column_of(i, s, shown) for i, s in enumerate(nf.slices))
    return DiagramLayout(shown.wires(nf.dom), shown.wires(nf.cod), columns)


_DOT_SHAPES = {
    "generator": "box",
    "pack": "invtriangle",
    "unpack": "triangle",
    "unit-intro": "circle",
    "unit-elim": "doublecircle",
}


def emit_dot(l: DiagramLayout) -> str:
    """Graphviz description of the diagram; wires become labelled edges."""
    lines = [
        "digraph diagram {",
        "  rankdir=LR;",
        "  node [fontname=\"Helvetica\"];",
    ]
    producers: list[str] = []
    for i in range(len(l.dom)):
        node = f"in{i}"
        lines.append(f"  {node} [shape=point, comment=\"input\"];")
        producers.append(node)
    for col in l.columns:
        node = f"s{col.index}"
        shape = _DOT_SHAPES[col.kind]
        text = col.label.replace("\"", "\\\"")
        lines.append(
            f"  {node} [shape={shape}, label=\"{text}\", comment=\"{col.kind}\"];")
        consumed = producers[col.pos:col.pos + col.n_in]
        for j, source in enumerate(consumed):
            wire = col.wires_in[col.pos + j]
            lines.append(f"  {source} -> {node} [label=\"{wire}\"];")
        producers[col.pos:col.pos + col.n_in] = [node] * col.n_out
    for i, label in enumerate(l.cod):
        node = f"out{i}"
        lines.append(f"  {node} [shape=point, comment=\"output\"];")
        lines.append(f"  {producers[i]} -> {node} [label=\"{label}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


_X_STEP = 96
_Y_STEP = 36
_X_PAD = 48
_Y_PAD = 30


def emit_svg(l: DiagramLayout) -> str:
    """SVG 1.1 document on a fixed grid, one column per slice."""
    n_cols = len(l.columns)
    max_wires = max([len(l.dom), len(l.cod)]
                    + [len(c.wires_in) for c in l.columns]
                    + [len(c.wires_out) for c in l.columns] or [1])
    width = _X_PAD * 2 + _X_STEP * (n_cols + 1)
    height = _Y_PAD * 2 + _Y_STEP * max(max_wires, 1)
    parts = [
        f"<svg xmlns=\"http://www.w3.org/2000/svg\" version=\"1.1\" "
        f"width=\"{width}\" height=\"{height}\">",
        "  <style>text { font-family: Helvetica, sans-serif; "
        "font-size: 11px; }</style>",
    ]

    def wire_y(pos: int) -> int:
        return _Y_PAD + pos * _Y_STEP

    def col_x(i: int) -> int:
        return _X_PAD + (i + 1) * _X_STEP

    interfaces = [l.dom] + [c.wires_out for c in l.columns]
    for i, labels in enumerate(interfaces):
        x0 = _X_PAD if i == 0 else col_x(i - 1)
        x1 = col_x(i) if i < n_cols else _X_PAD + _X_STEP * (n_cols + 1)
        for pos, label in enumerate(labels):
            y = wire_y(pos)
            parts.append(
                f"  <g class=\"wire\"><line x1=\"{x0}\" y1=\"{y}\" "
                f"x2=\"{x1}\" y2=\"{y}\" stroke=\"black\"/>"
                f"<text x=\"{x0 + 4}\" y=\"{y - 4}\">{_esc(label)}</text></g>")
    for col in l.columns:
        x = col_x(col.index)
        y = wire_y(col.pos)
        span = max(col.n_in, col.n_out, 1)
        h = _Y_STEP * (span - 1) + 20
        parts.append(f"  <g class=\"slice {col.kind}\">")
        if col.kind == "generator":
            parts.append(
                f"    <rect x=\"{x - 18}\" y=\"{y - 10}\" width=\"36\" "
                f"height=\"{h}\" fill=\"white\" stroke=\"black\"/>")
            parts.append(
                f"    <text x=\"{x - 14}\" y=\"{y + 4}\">{_esc(col.label)}</text>")
        elif col.kind in ("pack", "unpack"):
            if col.kind == "pack":
                points = (f"{x - 12},{y - 10} {x - 12},{y - 10 + h} "
                          f"{x + 12},{y + h // 2 - 10}")
            else:
                points = (f"{x + 12},{y - 10} {x + 12},{y - 10 + h} "
                          f"{x - 12},{y + h // 2 - 10}")
            parts.append(
                f"    <polygon points=\"{points}\" fill=\"lightgray\" "
                f"stroke=\"black\"/>")
        else:
            parts.append(
                f"    <circle cx=\"{x}\" cy=\"{y}\" r=\"7\" fill=\"white\" "
                f"stroke=\"black\"/>")
            sign = "+" if col.kind == "unit-intro" else "-"
            parts.append(f"    <text x=\"{x - 3}\" y=\"{y + 4}\">{sign}</text>")
        parts.append("  </g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
