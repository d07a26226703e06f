"""Golden test: `ddehist verify` and `ddehist solve` against stored outputs.

tests/golden holds the CSV tables and the claim lines that both shipped
configs and `bench/odd-exponent.json` give at seed 7; the last holds the
odd-p norm paths and the p = 2.5 semiflow tables to the same tolerance.
tests/golden/long-horizon holds a `solve` config of its own, 200 delays from
a discontinuous 3-piece history at r = R and at r < R with a truncated last
step, with the trajectory tables and claim lines it gives.
File names and CSV headers must match exactly.  Every numeric cell, and
the measured value of every claim line, must agree within |a - b| <= 1e-12 + 1e-9 |b|, which absorbs last-digit differences
between machines and numpy builds.  The rest of a claim line (verdict,
experiment, claim, relation and limit) and the summary line must match
exactly.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from ddehist.cli import main

TESTS = Path(__file__).resolve().parent
CONFIGS = TESTS.parent / "configs"


CLAIM = re.compile(r"(\S+ \S+ \S+) measured=(\S+) (\S+ limit=\S+)")


def assert_claims_match(lines, golden_lines):
    assert len(lines) == len(golden_lines)
    for line, golden in zip(lines, golden_lines):
        got, want = CLAIM.fullmatch(line), CLAIM.fullmatch(golden)
        if want is None:
            assert line == golden
            continue
        assert got is not None, line
        assert got.group(1, 3) == want.group(1, 3), line
        measured, expected = float(got.group(2)), float(want.group(2))
        assert abs(measured - expected) <= 1e-12 + 1e-9 * abs(expected), line


def read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header, np.array([[float(cell) for cell in row.split(",")] for row in rows])


@pytest.mark.parametrize(
    "config, golden, exit_code",
    [
        ("verify.json", "verify", 0),
        ("falsify-dependence.json", "falsify", 1),
        # Read in place; it exits 1 because cubic-jump-p3 fails its decay
        # claim, the fault documented in bench/README.md.
        pytest.param("../bench/odd-exponent.json", "odd-exponent", 1, id="odd-exponent.json-odd-exponent-1"),
    ],
)
def test_verify_reproduces_the_golden_outputs(tmp_path, capsys, config, golden, exit_code):
    argv = ["verify", "--config", str(CONFIGS / config), "--seed", "7", "--out", str(tmp_path)]
    assert_golden_outputs(tmp_path, capsys, argv, golden, exit_code)


@pytest.mark.parametrize("golden", ["long-horizon"])
def test_solve_reproduces_the_golden_outputs(tmp_path, capsys, golden):
    config = TESTS / "golden" / golden / "config.json"
    assert_golden_outputs(tmp_path, capsys, ["solve", "--config", str(config), "--out", str(tmp_path)], golden, 0)


def assert_golden_outputs(tmp_path, capsys, argv, golden, exit_code):
    assert main(argv) == exit_code
    expected = TESTS / "golden" / golden
    claims = (expected / "claims.txt").read_text().splitlines()
    assert_claims_match(capsys.readouterr().out.splitlines(), claims)
    names = sorted(path.name for path in expected.glob("*.csv"))
    assert sorted(path.name for path in tmp_path.glob("*.csv")) == names
    for name in names:
        header, cells = read_csv(tmp_path / name)
        golden_header, golden_cells = read_csv(expected / name)
        assert header == golden_header, name
        assert cells.shape == golden_cells.shape, name
        np.testing.assert_allclose(cells, golden_cells, rtol=1e-9, atol=1e-12, err_msg=name)
