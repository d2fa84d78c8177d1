"""Every ``python`` block of README.md runs, so the quick start keeps
working when a name leaves the public surface."""

import re
from pathlib import Path

import pytest

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
_BLOCKS = re.findall(r"^```python\n(.*?)^```", _README, flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert len(_BLOCKS) >= 2


@pytest.mark.parametrize("block", _BLOCKS, ids=[f"block{i}" for i in range(len(_BLOCKS))])
def test_readme_python_block_runs(block, capsys):
    """The block runs, and each ``print(...)  # text ...`` prints a line
    that starts with its comment's text."""
    exec(compile(block, "README.md", "exec"), {})
    shown = re.findall(r"^print\(.*\)\s+# (.*?)(?: \.\.\.)?$", block, flags=re.MULTILINE)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(shown)
    assert all(line.startswith(text) for line, text in zip(printed, shown))
