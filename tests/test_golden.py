"""Golden test: `ddehist verify` on the shipped configs against stored outputs.

tests/golden holds the CSV tables and the claim lines that both shipped
configs give at seed 7.  File names, CSV headers and claim lines must match
exactly.  Every numeric cell must agree within |a - b| <= 1e-12 + 1e-9 |b|,
which absorbs last-digit differences between machines and numpy builds.
"""

from pathlib import Path

import numpy as np
import pytest

from ddehist.cli import main

TESTS = Path(__file__).resolve().parent
CONFIGS = TESTS.parent / "configs"


def read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header, np.array([[float(cell) for cell in row.split(",")] for row in rows])


@pytest.mark.parametrize(
    "config, golden, exit_code",
    [("verify.json", "verify", 0), ("falsify-dependence.json", "falsify", 1)],
)
def test_verify_reproduces_the_golden_outputs(tmp_path, capsys, config, golden, exit_code):
    argv = ["verify", "--config", str(CONFIGS / config), "--seed", "7", "--out", str(tmp_path)]
    assert main(argv) == exit_code
    expected = TESTS / "golden" / golden
    claims = (expected / "claims.txt").read_text().splitlines()
    assert capsys.readouterr().out.splitlines() == claims
    names = sorted(path.name for path in expected.glob("*.csv"))
    assert sorted(path.name for path in tmp_path.glob("*.csv")) == names
    for name in names:
        header, cells = read_csv(tmp_path / name)
        golden_header, golden_cells = read_csv(expected / name)
        assert header == golden_header, name
        assert cells.shape == golden_cells.shape, name
        np.testing.assert_allclose(cells, golden_cells, rtol=1e-9, atol=1e-12, err_msg=name)
