"""Run the quick-tour example of README.md, so a change to the public API
that breaks the documented example fails the test suite."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text.split("## Quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, f"{README}:quick-tour", "exec"), {})
