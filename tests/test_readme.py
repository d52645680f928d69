"""Every ```python block of README.md runs as written, so the documented
calls keep their signatures and their results."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (first line of the code, code) for each block
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
]


def test_the_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"line-{line}" for line, _ in BLOCKS])
def test_a_readme_python_block_runs(line, code):
    # padded so that a traceback gives the README's own line numbers
    exec(compile("\n" * (line - 1) + code, README.name, "exec"), {"__name__": "readme"})
