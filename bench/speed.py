"""Host speed, measured next to every op with a fixed pure-Python kernel.

The shared hosts this benchmark runs on change speed by up to a factor
of two within seconds, and a fresh process often starts at the slow
speed; process CPU time tracks wall time, so no clock sees through it.
The benchmark therefore runs ``kernel`` once after every op and scales
the op's time by ``REFERENCE_S`` over the kernel's time around it: the
result is the time the op would take on a host that runs the kernel in
``REFERENCE_S``.

The kernel does the kind of work the engine does, with classes of its
own so that no change to the engine changes it: it builds a tree of
small frozen dataclasses, walks it with ``isinstance`` dispatch, and
fills a dict keyed by such objects.  Of the kernels tried, this one slows
down most like the three workloads do when the host does.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter

REFERENCE_S = 1e-4
WINDOW = 5


@dataclass(frozen=True)
class _Leaf:
    i: int


@dataclass(frozen=True)
class _Node:
    left: object
    right: object


def _tree(n: int):
    return _Leaf(n) if n < 2 else _Node(_tree(n - 1), _tree(n - 2))


def _leaves(t) -> int:
    if isinstance(t, _Leaf):
        return 1
    if isinstance(t, _Node):
        return _leaves(t.left) + _leaves(t.right)
    raise TypeError(t)


def kernel() -> int:
    table = {_Node(_Leaf(i % 7), _Node(_Leaf(i), _Leaf(i % 3))): _Leaf(i)
             for i in range(24)}
    return _leaves(_tree(8)) + sum(v.i for v in table.values())


def kernel_seconds() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


def scale(times: list[float], kernels: list[float]) -> list[float]:
    """Each time at reference speed, against the median of the ``WINDOW``
    kernel times centred on it."""
    half = WINDOW // 2
    return [t * REFERENCE_S / statistics.median(kernels[max(0, i - half):i + half + 1])
            for i, t in enumerate(times)]
