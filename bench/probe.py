"""Measurements that need a fresh process, one per invocation.

    python3 bench/probe.py setup <workload>  # prints the scaled set-up seconds
    python3 bench/probe.py limit <name>      # prints {"result", "seconds"}

A limit probe runs one input that is too deep for the engine today and
reports ``ok`` or the name of the exception it raised.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from time import perf_counter

from checkout import use_checkout_src

LIMITS = ("parity90_normalize", "walk400_normalize", "chain1000_typecheck",
          "chain1000_show")


def limit(name: str) -> dict:
    import inputs
    from strictcat.terms import Comp, UnitL, UnitLInv, make_signature, typecheck_c
    from strictcat.strict import normalize_adapters
    from strictcat.syntax import show_cmor

    wsig = make_signature(["W"])
    chain = UnitLInv(inputs.W)
    for k in range(1, 1000):
        chain = Comp(chain, UnitL(inputs.W) if k % 2 else UnitLInv(inputs.W))
    runs = {
        "parity90_normalize": lambda: normalize_adapters(
            inputs.parity_strict(90),
            make_signature(["b"], inputs.PARITY_GENS)),
        "walk400_normalize": lambda: normalize_adapters(
            inputs.adapter_walk(random.Random(0), (inputs.W,), 400,
                                lifts=False).term, wsig),
        "chain1000_typecheck": lambda: typecheck_c(chain, wsig),
        "chain1000_show": lambda: show_cmor(chain),
    }
    start = perf_counter()
    try:
        runs[name]()
        result = "ok"
    except (RecursionError, MemoryError) as err:
        result = type(err).__name__
    return {"result": result, "seconds": perf_counter() - start}


def main(argv: list[str]) -> None:
    use_checkout_src()
    kind, name = argv
    if kind == "setup":
        import run
        import speed
        before = [speed.kernel_seconds() for _ in range(speed.WINDOW)]
        _, seconds = run.set_up(name)
        after = [speed.kernel_seconds() for _ in range(speed.WINDOW)]
        print(speed.scale([seconds], [statistics.median(before + after)])[0])
    else:
        print(json.dumps(limit(name)))


if __name__ == "__main__":
    main(sys.argv[1:])
