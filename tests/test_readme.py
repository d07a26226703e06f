"""The README's Python examples run as written against the current API, and
its claim table lists the rows of `cli._CLAIMS`."""

import re
from pathlib import Path

import pytest

from ddehist.cli import _CLAIMS

README = Path(__file__).resolve().parent.parent / "README.md"
CLAIM_ROWS = re.findall(r"^\| `([a-z0-9.-]+)` \| (<=|>=|decay) \| (\S+) \| ([^|]+?) \|$", README.read_text(), flags=re.M)
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})
    assert capsys.readouterr().out


def test_readme_claim_table_is_the_cli_claim_table():
    # Both ways and in order: every README row is a table row and back.
    rows = [(name, rel, "-" if rel == "decay" else float(tol), scale) for name, rel, tol, scale in CLAIM_ROWS]
    table = [(c.name, c.relation, "-", "-") if c.relation == "decay" else (c.name, c.relation, c.tolerance, c.scale)
             for c in _CLAIMS]
    assert rows == table
