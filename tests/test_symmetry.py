"""Verdicts that do not depend on the units of the data.

For a `linear` map every trajectory, gap and remainder is linear in the
history and the direction.  Scaling both by an amplitude lam therefore
scales every bound claim's measured value by |lam|, or leaves it alone when
it is a pure number (a ratio or a gain), and must leave every verdict
alone: each tolerance is sized by a scale that moves with the data.  The
five experiments run in one config, at lam drawn over the declared range
of config values and at its ends.
"""

import json
import re
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddehist import derivops, solver
from ddehist.cli import _CLAIM_TABLE, parse_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = [ROOT / "configs" / "verify.json", ROOT / "bench" / "odd-exponent.json", ROOT / "configs" / "falsify-dependence.json"]
SPECS = {spec.name: spec for specs in _CLAIM_TABLE.values() for spec in specs}
LINE = re.compile(r"PASS \S+ \S+ measured=(\S+) (<=|>=) limit=(\S+)")

# Decay claims are judged against the absolute NOISE_FLOOR of
# `certify.certify_decay`, so they are left out here: at lam = 1e-6 the
# exactly-zero remainder of a linear map FAILs `smooth.remainder-decay`,
# where it passes at lam = 1.  The relative floor is ROADMAP item 1.
DECAY = {"dependence.gap-decay", "smooth.remainder-decay", "semiflow.modulus-decay", "semiflow.remainder-decay"}
# Ratios and gains: the same at every lam.
PURE = {"solve.oracle-gap", "lipschitz.stated-constant", "lipschitz.corrected-constant", "smooth.gain-bound"}


def experiments(lam):
    """A solve to 20 delays from a two-piece history, and the dependence,
    smooth, semiflow and lipschitz kinds, with data of amplitude lam."""
    common = {
        "nonlinearity": {"name": "linear", "params": {"matrix": [[1.0]]}},
        "space": {"R": 1.0, "p": 2.0, "N": 1},
        "history": {
            "breakpoints": [-1.0, -0.375, 0.0],
            "pieces": [[[0.5 * lam, -0.25 * lam]], [[-lam, 0.75 * lam]]],
            "endpoint": [0.25 * lam],
        },
    }
    direction = {"breakpoints": [-1.0, -0.625, 0.0], "pieces": [[[lam]], [[-0.5 * lam, 0.5 * lam]]]}
    return [
        dict(common, name="lin-solve", kind="solve", delay=1.0, horizon=20.0),
        dict(common, name="lin-dependence", kind="dependence", delay=0.8, horizon=0.8, direction=direction),
        dict(common, name="lin-smooth", kind="smooth", delay=1.0, horizon=1.0, direction=direction),
        dict(common, name="lin-semiflow", kind="semiflow", delay=0.8, direction=direction),
        dict(
            common, name="lin-lipschitz", kind="lipschitz", space={"R": 1.0, "p": 1.0, "N": 1},
            delay=0.8, horizon=0.5, scale=0.8 * abs(lam), adversarial=False,
        ),
    ]


def claims(doc, seed):
    return [claim for spec in parse_config(doc, seed) for claim in run_experiment(spec).claims]


@lru_cache(maxsize=None)
def linear_claims(lam):
    return {(c.experiment, c.name): c for c in claims({"experiments": experiments(lam)}, 7)}


def assert_pass_lines_hold(found):
    for claim in found:
        m = LINE.fullmatch(claim.line())
        if m is not None:
            measured, limit = float(m[1]), float(m[3])
            assert measured <= limit if m[2] == "<=" else measured >= limit, claim.line()


@settings(max_examples=8, deadline=None)
@given(
    exponent=st.floats(-6.0, 6.0),
    sign=st.sampled_from([1.0, -1.0]),
)
@example(exponent=-6.0, sign=1.0)
@example(exponent=-3.0, sign=1.0)
@example(exponent=0.0, sign=1.0)
@example(exponent=3.0, sign=1.0)
@example(exponent=6.0, sign=1.0)
def test_bound_verdicts_do_not_move_with_the_amplitude(exponent, sign):
    lam = sign * 10.0**exponent
    unit, scaled = linear_claims(1.0), linear_claims(lam)
    assert unit.keys() == scaled.keys()
    assert_pass_lines_hold(scaled.values())
    for key, ref in unit.items():
        if key[1] in DECAY:
            continue
        claim, factor = scaled[key], 1.0 if key[1] in PURE else abs(lam)
        assert claim.passed == ref.passed, claim.line()
        assert claim.scale == pytest.approx(factor * ref.scale, rel=1e-9)
        tolerance = SPECS[key[1]].tolerance * claim.scale
        assert abs(claim.measured - factor * ref.measured) <= tolerance, (claim.line(), ref.line())


def test_unit_amplitude_verdicts():
    # Every bound claim passes at lam = 1 but the stated constant, which the
    # random corpus of seed 7 falsifies (README, criterion 3).
    failed = {name for (_, name), c in linear_claims(1.0).items() if not c.passed}
    assert failed == {"lipschitz.stated-constant"}


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_every_pass_line_satisfies_its_printed_relation(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    for seed in range(8):
        assert_pass_lines_hold(claims(doc, seed))


def test_each_kind_prints_its_table_claims_in_table_order():
    doc = json.loads(SHIPPED[0].read_text(encoding="utf-8"))
    kinds = {exp["name"]: exp["kind"] for exp in doc["experiments"]}
    assert set(kinds.values()) == _CLAIM_TABLE.keys()
    for spec in parse_config(doc, 0):
        names = [claim.name for claim in run_experiment(spec).claims]
        assert names == [c.name for c in _CLAIM_TABLE[spec.kind]], spec.name


def test_each_claim_name_occurs_once_in_the_source():
    text = "".join(path.read_text(encoding="utf-8") for path in (ROOT / "src" / "ddehist").glob("*.py"))
    assert len(SPECS) == 24
    for name in SPECS:
        assert text.count(name) == 1, name


@pytest.mark.parametrize("lam", [1e-6, 1e6])
def test_a_wrong_delay_fails_the_oracle_gap_at_every_amplitude(lam, monkeypatch):
    real = solver._delayed_rhs
    monkeypatch.setattr(solver, "_delayed_rhs", lambda pb, *args: real(replace(pb, r=0.999 * pb.r), *args))
    found = {c.name: c for c in claims({"experiments": experiments(lam)[:1]}, 7)}
    assert not found["solve.oracle-gap"].passed


@pytest.mark.parametrize("lam", [1e-6, 1e6])
def test_a_scaled_jacobian_fails_a_claim_at_every_amplitude(lam, monkeypatch):
    real = derivops.tangent_system
    monkeypatch.setattr(
        derivops, "tangent_system", lambda nl: real(replace(nl, jac=lambda v, jac=nl.jac: 1.01 * jac(v)))
    )
    smooth = [exp for exp in experiments(lam) if exp["kind"] == "smooth"]
    failed = {c.name for c in claims({"experiments": smooth}, 7) if not c.passed}
    assert "smooth.curvature-bound" in failed
