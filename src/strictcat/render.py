"""String-diagram emission for strict terms: one column per slice.

Diagrams read left to right (domain on the left).  Adapter generators
get triangular glyphs, unit introduction/elimination small caps, lifted
morphisms rectangular boxes.  Both emitters build plain strings on a
fixed grid, so output is byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import Signature
from .strict import (
    Lift, MorD, Pack, Slice, UnitElim, UnitIntro, Unpack, seq_normal_form,
)
from .syntax import _Shown, show_cmor


@dataclass(frozen=True)
class ColumnLayout:
    kind: str              # generator | pack | unpack | unit-intro | unit-elim
    label: str
    pos: int               # first wire consumed
    wires_in: tuple[str, ...]    # the wires consumed, from ``pos`` on
    wires_out: tuple[str, ...]   # the wires put in their place


@dataclass(frozen=True)
class DiagramLayout:
    dom: tuple[str, ...]
    cod: tuple[str, ...]
    columns: tuple[ColumnLayout, ...]


def _column_of(s: Slice, shown: _Shown) -> ColumnLayout:
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
    return ColumnLayout(kind, label, s.pos, shown.wires(s.gen_dom),
                        shown.wires(s.gen_cod))


def layout(t: MorD, sig: Signature) -> DiagramLayout:
    """Columns of the diagram of ``t``: its sequential normal form."""
    nf = seq_normal_form(t, sig)
    shown = _Shown()
    columns = tuple(_column_of(s, shown) for s in nf.slices)
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
    for i, col in enumerate(l.columns):
        node = f"s{i}"
        shape = _DOT_SHAPES[col.kind]
        text = col.label.replace("\"", "\\\"")
        lines.append(
            f"  {node} [shape={shape}, label=\"{text}\", comment=\"{col.kind}\"];")
        end = col.pos + len(col.wires_in)
        for source, wire in zip(producers[col.pos:end], col.wires_in):
            lines.append(f"  {source} -> {node} [label=\"{wire}\"];")
        producers[col.pos:end] = [node] * len(col.wires_out)
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
    interfaces = [l.dom]
    for c in l.columns:
        labels = interfaces[-1]
        interfaces.append(labels[:c.pos] + c.wires_out
                          + labels[c.pos + len(c.wires_in):])
    max_wires = max(map(len, interfaces))
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

    for i, labels in enumerate(interfaces):
        x0 = _X_PAD if i == 0 else col_x(i - 1)
        x1 = col_x(i) if i < n_cols else _X_PAD + _X_STEP * (n_cols + 1)
        for pos, label in enumerate(labels):
            y = wire_y(pos)
            parts.append(
                f"  <g class=\"wire\"><line x1=\"{x0}\" y1=\"{y}\" "
                f"x2=\"{x1}\" y2=\"{y}\" stroke=\"black\"/>"
                f"<text x=\"{x0 + 4}\" y=\"{y - 4}\">{_esc(label)}</text></g>")
    for i, col in enumerate(l.columns):
        x = col_x(i)
        y = wire_y(col.pos)
        span = max(len(col.wires_in), len(col.wires_out), 1)
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
