"""Locate the checkout the benchmark runs in and import the engine from it.

The benchmark always measures the engine in ``src/`` of its own
checkout, never an installed copy, and refuses to run without it.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "strictcat"


def use_checkout_src() -> None:
    """Put ``src/`` first on the import path, or exit with code 2."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"bench: no engine sources at {PACKAGE}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
