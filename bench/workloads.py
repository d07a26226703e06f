"""The benchmark's workloads: ddehist CLI runs made from a seed, and their checks.

A workload builds a fixed batch of CLI invocations from the benchmark seed
(one round), and checks each invocation's outputs.  An operation is one
experiment of a config at one ddehist seed, and each invocation runs one
operation, so that each is timed between two runs of the calibration kernel.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# ddehist seeds come from range(SEED_POOL).  Every seed in it was run
# on both verify configs; the seeds in EXCLUDED fail `semiflow.remainder-decay`
# (a certificate false negative logged in CHANGES.md) and are left out, so
# every other seed fails no claim except the two that the checks name.
SEED_POOL = 256
EXCLUDED = {"verify-suite": {106, 170, 199}, "odd-exponent": {73, 129}}


@dataclass
class Invocation:
    argv: list
    out_dir: Path
    doc: dict


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class VerifyConfig:
    """`ddehist verify` on each experiment of one config, at a fixed list of
    ddehist seeds and a few more drawn from the benchmark seed.

    The fixed list keeps the cost of a round nearly the same for every
    benchmark seed (one seed's cost differs from another's by about 12 %);
    the drawn seeds give every run inputs that no change was tuned on.
    Each experiment runs from a config of its own that sets the experiment
    seed `verify --seed s` would give it (s plus its index), so its inputs
    and outputs are those of the whole config at seed s.
    """

    def __init__(self, name, config: Path, fixed: tuple, drawn: int):
        self.name, self.config, self.fixed, self.drawn = name, config, fixed, drawn

    def seeds(self, seed, short):
        pool = [s for s in range(SEED_POOL) if s not in EXCLUDED[self.name] and s not in self.fixed]
        drawn = sorted(random.Random(f"{self.name}:{seed}").sample(pool, self.drawn))
        return drawn[:1] if short else [*self.fixed, *drawn]

    def build(self, seed, short=False):
        experiments = json.loads(self.config.read_text(encoding="utf-8"))["experiments"]
        base = _fresh(OUT / self.name)
        out = []
        for s in self.seeds(seed, short):
            for i, exp in enumerate(experiments):
                out_dir = base / f"seed{s}" / exp["name"]
                doc = {"out": str(out_dir), "experiments": [dict(exp, seed=s + i)]}
                config = base / f"seed{s}-{exp['name']}.json"
                config.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
                argv = ["verify", "--config", str(config), "--seed", str(s), "--out", str(out_dir), "--jobs", "1"]
                out.append(Invocation(argv, out_dir, doc))
        return out

    def check(self, inv, rc, stdout):
        return checks.check_run(inv.doc, inv.out_dir, rc, stdout)


class LongHorizon:
    """`ddehist solve` on random discontinuous 3-piece histories, R = r = 1.

    Each nonlinearity is solved at a short and a long horizon, a factor of
    8 apart, each from its own config.  History breakpoints are multiples of 1/64 and the trajectory
    is written at every quarter, so both lie on the reference grid.
    """

    name = "long-horizon"
    nonlinearities = ("mackey_glass", "saturating")
    horizons = (25, 200)
    short_horizons = (10, 80)
    # Panels per delay of the coarse and fine reference solutions; both
    # are multiples of 64 (breakpoints) and 4 (samples).
    panels = (8000, 16000)

    def experiments(self, seed, short):
        rng = np.random.default_rng(seed)
        out = []
        for nl in self.nonlinearities:
            for T in self.short_horizons if short else self.horizons:
                cuts = np.sort(rng.choice(np.arange(4, 61), 2, replace=False)) / 64.0 - 1.0
                pieces = [rng.uniform(-0.5, 0.5, 4).tolist() for _ in range(3)]
                out.append({
                    "name": f"{nl}-T{T}",
                    "kind": "solve",
                    "nonlinearity": {"name": nl},
                    "space": {"R": 1.0, "p": 2.0, "N": 1},
                    "delay": 1.0,
                    "horizon": float(T),
                    "history": {
                        "breakpoints": [-1.0, *cuts.tolist(), 0.0],
                        "pieces": [[p] for p in pieces],
                        "endpoint": [float(rng.uniform(-0.5, 0.5))],
                    },
                    "grid": 4 * (T + 1) + 1,
                })
        return out

    def build(self, seed, short=False):
        base = _fresh(OUT / self.name)
        out = []
        for exp in self.experiments(seed, short):
            out_dir = base / exp["name"]
            doc = {"out": str(out_dir), "experiments": [exp]}
            config = base / f"{exp['name']}.json"
            config.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            argv = ["solve", "--config", str(config), "--seed", str(seed), "--out", str(out_dir), "--jobs", "1"]
            out.append(Invocation(argv, out_dir, doc))
        return out

    def check(self, inv, rc, stdout):
        return checks.check_run(inv.doc, inv.out_dir, rc, stdout, self.check_solve)

    def check_solve(self, table, exp):
        hist = exp["history"]
        coarse, fine = (
            reference.midpoint_solution(
                reference.RHS[exp["nonlinearity"]["name"]],
                hist["breakpoints"],
                [p[0] for p in hist["pieces"]],
                hist["endpoint"][0],
                exp["horizon"],
                m,
                m // 4,
            )
            for m in self.panels
        )
        # The reference converges at second order (its breakpoints lie on the
        # grid), so the fine solution is off by about a third of coarse - fine;
        # the tolerance allows six times that, plus rounding.
        tolerance = 2.0 * float(np.max(np.abs(coarse - fine))) + 1e-10 * max(1.0, float(np.max(np.abs(fine))))
        return checks.check_trajectory(table, exp, fine, tolerance)


WORKLOADS = {
    "verify-suite": VerifyConfig("verify-suite", ROOT / "configs" / "verify.json", fixed=(0, 1, 3), drawn=1),
    "long-horizon": LongHorizon(),
    "odd-exponent": VerifyConfig("odd-exponent", HERE / "odd-exponent.json", fixed=(0, 1, 2), drawn=1),
}
