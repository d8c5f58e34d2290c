"""Command-line surface.

Every subcommand is a thin wrapper over one library call; ``--json``
switches the output to a stable object with the keys ``command``,
``input``, ``output`` and optionally ``trace`` / ``verdict``.  Exit code
0 on success, 2 on any parse, type or precondition error, on a file
that cannot be read, decoded or written, and on a reader that closes the
output early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import demos
from .coherence import canonical_d, equal_structural
from .finmodel import FinModel
from .functors import nonstrictify, strictify_expand, strictify_shallow
from .render import emit_dot, emit_svg, layout
from .strict import (
    normalize_adapters_with_stats, show_wires, typecheck_d,
)
from .syntax import (
    parse_cmor, parse_dmor, parse_model_config, parse_signature,
    parse_wires, show_cmor, show_dmor, show_obj,
)
from .terms import Signature, TermError, make_signature, typecheck_c


def _load_signature(path: str | None) -> Signature:
    if path is None:
        return make_signature([])
    with open(path, encoding="utf-8") as handle:
        return parse_signature(handle.read())


def _load_model(path: str | None, sig: Signature) -> FinModel | None:
    if path is None:
        return None
    with open(path, encoding="utf-8") as handle:
        sizes, seed = parse_model_config(handle.read())
    return FinModel(sig, sizes, seed)


def _emit(args, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for key in ("output", "verdict", "dom", "cod"):
        if key in payload:
            print(f"{key}: {payload[key]}")
    for line in payload.get("trace", ()):
        print(f"  {line}")


def cmd_parse(args) -> dict:
    if args.dterm:
        term = parse_dmor(args.term)
        shown = show_dmor(term)
    else:
        term = parse_cmor(args.term)
        shown = show_cmor(term)
    return {"command": "parse", "input": args.term, "output": shown}


def cmd_typecheck(args) -> dict:
    sig = _load_signature(args.sig)
    if args.dterm:
        term = parse_dmor(args.term)
        dom, cod = typecheck_d(term, sig)
        return {"command": "typecheck", "input": args.term,
                "output": f"{show_wires(dom)} -> {show_wires(cod)}",
                "dom": show_wires(dom), "cod": show_wires(cod)}
    term = parse_cmor(args.term)
    dom, cod = typecheck_c(term, sig)
    return {"command": "typecheck", "input": args.term,
            "output": f"{show_obj(dom)} -> {show_obj(cod)}",
            "dom": show_obj(dom), "cod": show_obj(cod)}


def cmd_strictify(args) -> dict:
    sig = _load_signature(args.sig)
    term = parse_cmor(args.term)
    if args.mode == "shallow":
        out = strictify_shallow(term, sig)
    else:
        out = strictify_expand(term, sig)
    return {"command": "strictify", "input": args.term,
            "mode": args.mode, "output": show_dmor(out)}


def cmd_nonstrictify(args) -> dict:
    sig = _load_signature(args.sig)
    term = parse_dmor(args.term)
    out = nonstrictify(term, sig)
    return {"command": "nonstrictify", "input": args.term,
            "output": show_cmor(out)}


def cmd_normalize(args) -> dict:
    sig = _load_signature(args.sig)
    term = parse_dmor(args.term)
    out, stats = normalize_adapters_with_stats(term, sig)
    return {"command": "normalize", "input": args.term,
            "output": show_dmor(out), "trace": list(stats.trace),
            "cancelled_pairs": stats.cancelled_pairs}


def cmd_canonical(args) -> dict:
    out = canonical_d(parse_wires(args.obj_a), parse_wires(args.obj_b))
    return {"command": "canonical",
            "input": f"{args.obj_a} -> {args.obj_b}",
            "output": show_dmor(out)}


def cmd_equal(args) -> dict:
    sig = _load_signature(args.sig)
    model = _load_model(args.model, sig)
    f = parse_cmor(args.term_f)
    g = parse_cmor(args.term_g)
    verdict = equal_structural(f, g, sig, model)
    return {"command": "equal", "input": f"{args.term_f} =? {args.term_g}",
            "output": verdict.kind, "verdict": verdict.kind,
            "detail": verdict.detail}


def _render(args, term, sig: Signature) -> str:
    """The diagram in ``args.format``; with ``args.out``, written there."""
    diagram = layout(term, sig)
    text = emit_dot(diagram) if args.format == "dot" else emit_svg(diagram)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    return text


def cmd_render(args) -> dict:
    text = _render(args, parse_dmor(args.term), _load_signature(args.sig))
    return {"command": "render", "input": args.term, "format": args.format,
            "output": args.out or text}


def cmd_demo(args) -> dict:
    if args.n < 1:
        raise TermError(f"parity needs at least one bit, got --n {args.n}")
    term = demos.parity_term(args.n)
    sig = demos.parity_signature()
    payload = {"command": "demo", "input": f"parity {args.n}",
               "output": show_dmor(term)}
    if args.out:
        _render(args, term, sig)
        payload["rendered"] = args.out
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strictcat",
        description="Strictification engine for monoidal category terms.")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of plain text")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_sig(p):
        p.add_argument("--sig", help="signature file (obj/gen lines)")

    p = sub.add_parser("parse", help="parse and pretty-print a term")
    p.add_argument("--dterm", action="store_true",
                   help="treat the input as a strict-category term")
    p.add_argument("term")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("typecheck", help="compute dom and cod of a term")
    with_sig(p)
    p.add_argument("--dterm", action="store_true")
    p.add_argument("term")
    p.set_defaults(fn=cmd_typecheck)

    p = sub.add_parser("strictify", help="map a base term into the strict category")
    with_sig(p)
    p.add_argument("--mode", choices=("shallow", "expand"), default="shallow")
    p.add_argument("term")
    p.set_defaults(fn=cmd_strictify)

    p = sub.add_parser("nonstrictify", help="map a strict term back")
    with_sig(p)
    p.add_argument("term")
    p.set_defaults(fn=cmd_nonstrictify)

    p = sub.add_parser("normalize", help="normal form, read from the diagram")
    with_sig(p)
    p.add_argument("term")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("canonical", help="canonical arrow between two objects")
    p.add_argument("obj_a")
    p.add_argument("obj_b")
    p.set_defaults(fn=cmd_canonical)

    p = sub.add_parser("equal", help="decide equality of two base terms")
    with_sig(p)
    p.add_argument("--model", help="model file (name=size lines, seed=n)")
    p.add_argument("term_f")
    p.add_argument("term_g")
    p.set_defaults(fn=cmd_equal)

    p = sub.add_parser("render", help="draw a strict term as dot or svg")
    with_sig(p)
    p.add_argument("--format", choices=("dot", "svg"), default="dot")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("term")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("demo", help="built-in demo constructions")
    p.add_argument("name", choices=("parity",))
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--format", choices=("dot", "svg"), default="dot")
    p.add_argument("--out", help="also render the demo to this path")
    p.set_defaults(fn=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.fn(args), 0
    except (TermError, OSError, UnicodeDecodeError) as err:
        if not args.json:
            print(f"error: {err}", file=sys.stderr)
            return 2
        payload, code = {"command": args.command, "error": str(err)}, 2
    try:
        _emit(args, payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; what is still buffered goes nowhere, so the
        # flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
