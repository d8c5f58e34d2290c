import random
import re

import pytest

from strictcat import FinModel, make_signature
from strictcat.terms import UNIT, Base, Tensor

X, Y, Z = Base("x"), Base("y"), Base("z")
W = Base("W")


@pytest.fixture(scope="session")
def demo_sig():
    """Three bases, four generators; the workhorse signature."""
    return make_signature(
        ["x", "y", "z"],
        {
            "f": (X, Y),
            "g": (Y, Z),
            "h": (Tensor(X, Y), Z),
            "u": (UNIT, Y),
        })


@pytest.fixture(scope="session")
def catw_sig():
    """One base object, no generators."""
    return make_signature(["W"])


@pytest.fixture(scope="session")
def demo_model(demo_sig):
    return FinModel(demo_sig, seed=11)


@pytest.fixture(scope="session")
def catw_model(catw_sig):
    return FinModel(catw_sig, {"W": 2}, seed=3)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def with_undeclared_base(text: str, seed: int) -> str | None:
    """``text`` with one of its base names ``x``, ``y`` and ``z``, picked by
    ``seed``, replaced by ``q``, which no fixture declares; None when
    ``text`` names none of them."""
    names = list(re.finditer(r"\b[xyz]\b", text))
    if not names:
        return None
    m = names[seed % len(names)]
    return text[:m.start()] + "q" + text[m.end():]
