"""Verdict census: every FAIL claim at seeds 0..255 of the two verify configs.

Runs each experiment of `configs/verify.json` and `bench/odd-exponent.json`
at every seed in one process, through `cli.parse_config` and
`cli.run_experiment` (the configs are read, never changed, and no CSV is
written), and writes one `<config> <seed> <experiment> <claim>` line per
FAIL to `tests/golden/census.txt`.  A change that moves a verdict shows up
as a diff of that file.

Run from the repository root:

    PYTHONPATH=src python tests/census.py
    git diff --exit-code tests/golden/census.txt

pytest does not collect this file.
"""

import json
import sys
from pathlib import Path

from ddehist.cli import parse_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = (ROOT / "configs" / "verify.json", ROOT / "bench" / "odd-exponent.json")
SEEDS = range(256)
OUT = ROOT / "tests" / "golden" / "census.txt"


def census_lines(path: Path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    for seed in SEEDS:
        for spec in parse_config(doc, seed):
            for claim in run_experiment(spec).claims:
                if not claim.passed:
                    yield f"{path.stem} {seed} {claim.experiment} {claim.name}"


def main() -> int:
    lines = []
    for path in CONFIGS:
        found = list(census_lines(path))
        print(f"{path.stem}: {len(found)} FAIL lines", file=sys.stderr)
        lines.extend(found)
    OUT.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
