"""CLI tests: config parsing, exit codes, output precedence, determinism.

The driver is exercised in-process through main(argv) so the tests stay
fast; file outputs go to pytest temporary directories.
"""

import json
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import config_sweep
import oracles
from ddehist import cli
from ddehist.certify import certify_decay
from ddehist.cli import ClaimSpec, ConfigError, judge, main, parse_config, write_csv

SOLVE_EXPERIMENT = {
    "name": "ramp",
    "kind": "solve",
    "nonlinearity": {"name": "linear", "params": {"matrix": [[1.0]]}},
    "space": {"R": 1.0, "p": 2.0, "N": 1},
    "delay": 1.0,
    "horizon": 2.0,
    "history": {"constant": [1.0]},
    "grid": 61,
}

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DEMO_EXPERIMENT = {
    "name": "jump",
    "kind": "discontinuity",
    "nonlinearity": {"name": "cubic"},
    "space": {"R": 1.0, "p": 1.0, "N": 1},
    "delay": 0.5,
}


def write_config(tmp_path, experiments, extra=None, filename="config.json"):
    doc = {"experiments": experiments}
    if extra:
        doc.update(extra)
    path = tmp_path / filename
    path.write_text(json.dumps(doc))
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestArgumentHandling:
    def test_missing_config_is_a_config_error(self, capsys):
        assert main(["verify"]) == 2
        assert "config" in capsys.readouterr().err

    def test_unparsable_json_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["verify", "--config", str(bad)]) == 2

    def test_unknown_kind_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [{"kind": "mystery"}])
        assert main(["verify", "--config", cfg]) == 2
        assert "unknown experiment kind" in capsys.readouterr().err

    def test_unknown_nonlinearity_is_a_config_error(self, tmp_path):
        exp = dict(SOLVE_EXPERIMENT, nonlinearity={"name": "nope"})
        cfg = write_config(tmp_path, [exp])
        assert main(["verify", "--config", cfg]) == 2

    def test_duplicate_names_are_rejected(self, tmp_path):
        cfg = write_config(tmp_path, [SOLVE_EXPERIMENT, SOLVE_EXPERIMENT])
        assert main(["verify", "--config", cfg]) == 2

    def test_bad_jobs_and_seed_are_config_errors(self, tmp_path):
        cfg = write_config(tmp_path, [SOLVE_EXPERIMENT])
        assert main(["verify", "--config", cfg, "--jobs", "0"]) == 2
        assert main(["verify", "--config", cfg, "--jobs", "2"]) == 2
        assert main(["verify", "--config", cfg, "--seed", "-3"]) == 2

    def test_default_seeds_wrap_past_u64(self, tmp_path):
        # The second experiment's default seed, global + 1, wraps to 0.
        experiments = [DEMO_EXPERIMENT, dict(DEMO_EXPERIMENT, name="jump2")]
        cfg = write_config(tmp_path, experiments)
        top = str(2**64 - 1)
        assert main(["verify", "--config", cfg, "--seed", top, "--out", str(tmp_path / "o")]) == 0
        specs = parse_config({"experiments": experiments}, 2**64 - 1)
        assert [s.seed for s in specs] == [2**64 - 1, 0]

    def test_empty_experiment_list_passes_without_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [])
        out = tmp_path / "never"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert not out.exists()
        assert "no experiments" in capsys.readouterr().out


class TestKindValidation:
    def test_lipschitz_requires_p_equal_one(self, tmp_path):
        exp = {
            "name": "lip",
            "kind": "lipschitz",
            "nonlinearity": {"name": "saturating"},
            "space": {"R": 1.0, "p": 2.0, "N": 1},
            "delay": 0.8,
            "horizon": 0.5,
        }
        cfg = write_config(tmp_path, [exp])
        assert main(["verify", "--config", cfg]) == 2

    def test_smooth_requires_compatible_exponent(self, tmp_path, capsys):
        # Cubic Jacobian growth alpha = 2 needs p >= 3.
        exp = {
            "name": "rough",
            "kind": "smooth",
            "nonlinearity": {"name": "cubic"},
            "space": {"R": 1.0, "p": 2.0, "N": 1},
            "delay": 1.0,
            "horizon": 1.0,
        }
        cfg = write_config(tmp_path, [exp])
        assert main(["verify", "--config", cfg]) == 2

    def test_smooth_horizon_beyond_delay_names_the_one_step_gain_bound(self, tmp_path, capsys):
        exp = {
            "name": "long",
            "kind": "smooth",
            "nonlinearity": {"name": "quadratic"},
            "space": {"R": 1.0, "p": 2.0, "N": 1},
            "delay": 0.5,
            "horizon": 1.0,
        }
        cfg = write_config(tmp_path, [exp])
        assert main(["verify", "--config", cfg]) == 2
        assert "gain bound is a one-step bound" in capsys.readouterr().err

    def test_dependence_horizon_beyond_delay_rejected(self, tmp_path):
        exp = {
            "name": "dep",
            "kind": "dependence",
            "nonlinearity": {"name": "saturating"},
            "space": {"R": 1.0, "p": 2.0, "N": 1},
            "delay": 0.5,
            "horizon": 1.0,
        }
        cfg = write_config(tmp_path, [exp])
        assert main(["verify", "--config", cfg]) == 2

    @pytest.mark.parametrize("kind", ["solve", "dependence", "lipschitz", "smooth"])
    def test_a_horizon_too_short_for_one_step_is_a_config_error(self, tmp_path, capsys, kind):
        # No method-of-steps cut fits in the horizon: refused before anything runs.
        exp = {
            "name": "blink",
            "kind": kind,
            "nonlinearity": {"name": "linear", "params": {"matrix": [[1.0]]}},
            "space": {"R": 1.0, "p": 1.0 if kind == "lipschitz" else 2.0, "N": 1},
            "delay": 0.8,
            "horizon": 1e-300,
        }
        cfg = write_config(tmp_path, [exp])
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "blink: horizon 1e-300 is within 1e-12 of 0, too short for one method-of-steps cut" in err
        assert not (tmp_path / "o").exists()

    def test_discontinuity_default_count_beyond_its_range_names_p(self):
        # max(12, ceil(5p)) = 23 at p = 4.5: the config never set count, so
        # the error must be about p, not about the range of count.
        exp = dict(DEMO_EXPERIMENT, space={"R": 1.0, "p": 4.5, "N": 1})
        with pytest.raises(ConfigError, match=r"p = 4\.5.*set count explicitly"):
            parse_config({"experiments": [exp]}, 0)
        (spec,) = parse_config({"experiments": [dict(exp, count=20)]}, 0)
        assert spec.count == 20

    def test_unknown_fields_are_config_errors(self, tmp_path, capsys):
        # Resolution is fixed by the program: a quadrature setting, like a
        # typo, is a field no kind reads and must not be ignored.
        # Each kind accepts only the fields it reads.
        dependence = dict(TestDeterminism.RANDOMIZED, grid=101)
        composition = {"kind": "composition", "nonlinearity": {"name": "mackey_glass"}, "probes": 12}
        smooth = {
            "kind": "smooth",
            "nonlinearity": {"name": "quadratic"},
            "space": {"R": 1.0, "p": 2.0, "N": 1},
            "instances": 20,
        }
        for exp, field in (
            (dict(SOLVE_EXPERIMENT, quadrature={"tolerance": 1e-10}), "quadrature"),
            (dict(DEMO_EXPERIMENT, cout=3), "cout"),
            (dependence, "grid"),
            (composition, "probes"),
            (smooth, "instances"),
            (dict(SOLVE_EXPERIMENT, direction={"constant": [1.0]}), "direction"),
        ):
            cfg = write_config(tmp_path, [exp])
            assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert f"unknown field(s) ['{field}']" in capsys.readouterr().err

    def test_discontinuity_indicator_narrower_than_the_tolerance_rejected(self, tmp_path, capsys):
        # R = r = 1: the k-th indicator is [-1, -1 + 4^-k], 2^-40 = 9.1e-13
        # wide at the default count 20 for p = 4, below the 1e-12 breakpoint
        # tolerance, so its measured seminorm would be 0.
        exp = dict(DEMO_EXPERIMENT, space={"R": 1.0, "p": 4.0, "N": 1}, delay=1.0)
        cfg = write_config(tmp_path, [exp])
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "count = 20" in err and "-r = -1" in err and "[-R, 0] = [-1, 0]" in err
        # R = 10, r = 5: the indicator is 2 * 4^-k wide against 1e-11.
        exp = dict(DEMO_EXPERIMENT, space={"R": 10.0, "p": 1.0, "N": 1}, delay=5.0)
        with pytest.raises(ConfigError, match="count = 19"):
            parse_config({"experiments": [dict(exp, count=19)]}, 0)
        (spec,) = parse_config({"experiments": [dict(exp, count=18)]}, 0)
        assert spec.count == 18

    def test_discontinuity_map_must_have_the_space_dimension(self, tmp_path, capsys):
        # A 1 x 1 linear map on N = 2 ended in a numpy traceback (exit 1), and
        # a scalar cubic on N = 3 ran.
        for nonlinearity, n, dim in [
            ({"name": "linear", "params": {"matrix": [[1.0]]}}, 2, 1),
            ({"name": "cubic"}, 3, 1),
            ({"name": "cubic", "params": {"dim": 3}}, 1, 3),
        ]:
            exp = dict(DEMO_EXPERIMENT, nonlinearity=nonlinearity, space={"R": 1.0, "p": 1.0, "N": n})
            cfg = write_config(tmp_path, [exp])
            assert main(["demo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert f"jump: nonlinearity dimension {dim} does not match the space's N = {n}" in err

    @pytest.mark.parametrize(
        "random", [{"pieces": 0}, {"pieces": "x"}, {"pieces": 100000000}, []]
    )
    def test_malformed_random_functions_are_config_errors(self, tmp_path, random):
        exp = dict(SOLVE_EXPERIMENT, history={"random": random})
        cfg = write_config(tmp_path, [exp])
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [("count", 12.9), ("count", 12.0), ("count", "12"), ("count", True), ("N", 1.5)],
    )
    def test_integer_fields_take_only_json_integers(self, tmp_path, capsys, field, value):
        exp = dict(TestDeterminism.RANDOMIZED)
        if field == "N":
            exp["space"] = dict(exp["space"], N=value)
        else:
            exp[field] = value
        cfg = write_config(tmp_path, [exp])
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"{field} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value", [("p", True), ("R", "1"), ("delay", "0.5"), ("lower", False)]
    )
    def test_number_fields_take_only_json_numbers(self, tmp_path, capsys, field, value):
        # JSON true and numeric strings are not numbers, though float() reads them.
        if field == "lower":
            domain = {"lower": value, "upper": 1.0}
            exp = {"kind": "composition", "nonlinearity": {"name": "mackey_glass"}, "domain": domain}
        elif field == "delay":
            exp = dict(DEMO_EXPERIMENT, delay=value)
        else:
            exp = dict(DEMO_EXPERIMENT, space=dict(DEMO_EXPERIMENT["space"], **{field: value}))
        cfg = write_config(tmp_path, [exp])
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"{field} must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, value, error",
        [
            ("constant", [True], "must be a number"),
            ("constant", ["0.5"], "must be a number"),
            ("endpoint", ["0.5"], "must be a number"),
            ("endpoint", [1.0, 2.0], "has wrong length"),
        ],
    )
    def test_function_values_take_only_json_numbers(self, tmp_path, capsys, entry, value, error):
        history = dict({"constant": [1.0]}, **{entry: value})
        cfg = write_config(tmp_path, [dict(SOLVE_EXPERIMENT, history=history)])
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"history {entry} {error}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, breakpoints, pieces, error",
        [
            ("solve", [-1.0, "-0.5", 0.0], [[[1.0]], [[2.0]]], "history breakpoints must be a number"),
            ("solve", [-1.0, 0.0], [[[True, "0.5"]]], "history pieces must be a number"),
            ("solve", [-1.0, 0.0], [[[1.0, float("inf")]]], "history pieces must be a finite number"),
            ("solve", [-1.0, 0.0], [[[10**400]]], "history pieces must be a finite number"),
            ("dependence", [-1.0, 0.0], [[[float("nan")]]], "history pieces must be a finite number"),
        ],
        ids=["string-breakpoint", "bool-and-string-piece", "infinite-piece", "huge-integer-piece", "nan-piece"],
    )
    def test_breakpoint_functions_take_only_finite_json_numbers(
        self, tmp_path, capsys, kind, breakpoints, pieces, error
    ):
        history = {"breakpoints": breakpoints, "pieces": pieces}
        exp = dict(SOLVE_EXPERIMENT, history=history)
        if kind == "dependence":
            exp = dict(exp, kind=kind, nonlinearity={"name": "mackey_glass"}, horizon=1.0, direction={"constant": [1.0]})
            del exp["grid"]
        cfg = write_config(tmp_path, [exp])
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value", [10**400, -(10**400), float("inf")], ids=["10**400", "-10**400", "inf"]
    )
    def test_numbers_beyond_the_float_range_are_config_errors(self, tmp_path, capsys, value):
        # json reads an integer literal of any size, and 1e400 or Infinity as inf.
        exp = dict(DEMO_EXPERIMENT, delay=value)
        with pytest.raises(ConfigError, match="delay must be a finite number"):
            parse_config({"experiments": [exp]}, 0)
        cfg = write_config(tmp_path, [exp])
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "delay must be a finite number" in capsys.readouterr().err

    def test_flags_take_only_json_booleans(self, tmp_path, capsys):
        lipschitz = dict(TestFailurePropagation.LIPSCHITZ, adversarial="false")
        continuous = dict(SOLVE_EXPERIMENT, history={"random": {"continuous": 1}})
        for exp, field in ((lipschitz, "adversarial"), (continuous, "continuous")):
            cfg = write_config(tmp_path, [exp])
            assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert f"{field} must be true or false" in capsys.readouterr().err

    def test_dimension_mismatch_rejected(self, tmp_path):
        exp = dict(SOLVE_EXPERIMENT, space={"R": 1.0, "p": 2.0, "N": 2})
        cfg = write_config(tmp_path, [exp])
        assert main(["verify", "--config", cfg]) == 2

    def test_parse_config_reports_the_offending_field(self):
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(
                {"experiments": [{k: v for k, v in SOLVE_EXPERIMENT.items() if k != "horizon"}]},
                0,
            )


SWEPT = {(stem, exp["name"]): exp for stem, exp in config_sweep.experiments()}


@st.composite
def swept_cases(draw):
    """(config stem, experiment name, field path, value): one case of
    tests/config_sweep.py."""
    key = draw(st.sampled_from(sorted(SWEPT)))
    path = draw(st.sampled_from(list(config_sweep.field_paths(SWEPT[key]))))
    return (*key, path, draw(st.sampled_from(config_sweep.VALUES)))


class TestConfigSchema:
    # Each pinned case raised, timed out or (quad-smooth R = 1e308) passed
    # on overflowed numbers before every field had a declared range; the
    # last two, misspelled nested keys, were ignored.
    @settings(max_examples=30, deadline=None)
    @given(case=swept_cases())
    @example(case=("verify", "ramp-solve", ("space", "N"), 2**70))
    @example(case=("verify", "mg-dependence", ("space", "R"), 1e308))
    @example(case=("verify", "mg-dependence", ("space", "p"), 1e6))
    @example(case=("verify", "mg-dependence", ("space", "N"), 2**70))
    @example(case=("verify", "sat-lipschitz", ("space", "N"), 2**70))
    @example(case=("verify", "quad-smooth", ("space", "N"), 2**70))
    @example(case=("verify", "quad-smooth", ("space", "R"), 1e308))
    @example(case=("verify", "quad-smooth", ("space", "p"), 1e308))
    @example(case=("verify", "quad-smooth", ("history", "constant"), 1e308))
    @example(case=("verify", "quad-smooth", ("history", "constant", 0), 1e308))
    @example(case=("verify", "quad-smooth", ("direction", "constant"), 1e308))
    @example(case=("verify", "quad-smooth", ("direction", "constant", 0), 1e308))
    @example(case=("verify", "mg-composition", ("q",), 1e6))
    @example(case=("verify", "mg-composition", ("q",), 1e308))
    @example(case=("verify", "mg-composition", ("domain", "lower"), -1e308))
    @example(case=("verify", "mg-composition", ("domain", "upper"), 1e-13))
    @example(case=("verify", "sat-semiflow", ("space", "R"), 1e308))
    @example(case=("verify", "sat-semiflow", ("space", "p"), 1e6))
    @example(case=("verify", "sat-semiflow", ("space", "N"), 2**70))
    @example(case=("verify", "sat-semiflow", ("direction", "constant"), 1e308))
    @example(case=("verify", "sat-semiflow", ("direction", "constant", 0), 1e308))
    @example(case=("verify", "cubic-jump", ("space", "p"), 1e308))
    @example(case=("odd-exponent", "quad-smooth-p3", ("space", "R"), 1e308))
    @example(case=("odd-exponent", "mg-composition-q1.5", ("domain", "upper"), 1e308))
    @example(case=("falsify-dependence", "gain3-pulse", ("space", "R"), 1e308))
    @example(case=("verify", "sat-lipschitz", ("nonlinearity", "name_"), {}))
    @example(case=("verify", "mg-dependence", ("history", "random", "scale_"), 3))
    def test_one_field_set_to_any_swept_value_exits_cleanly(self, tmp_path_factory, case):
        # main returns 0, 1 or 2 without raising, 1 only after claim lines,
        # and 2 for a misspelled key or a value beyond every range.
        stem, name, path, value = case
        exp = SWEPT[stem, name]
        code, output = config_sweep.run(config_sweep.mutated(exp, path, value), str(tmp_path_factory.mktemp("o")))
        assert config_sweep.failure(code, output, config_sweep.refused(exp, path, value)) is None

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("nonlinearity", {"name": "saturating", "parms": {}}, "unknown field(s) ['parms'] in nonlinearity"),
            ("history", {"random": {"peices": 4}}, "unknown field(s) ['peices'] in history random"),
            ("history", {"constant": [1.0], "breakpoints": [-1.0, 0.0], "pieces": [[[1.0]]]}, "history needs exactly one"),
            ("history", {"breakpoints": [-1.0, 0.0]}, "history needs exactly one"),
            ("probes", 12, "unknown field(s) ['probes'] for kind 'smooth'"),
        ],
    )
    def test_misspelled_and_doubled_keys_are_config_errors(self, tmp_path, capsys, field, value, error):
        exp = dict(TestDeterminism.RANDOMIZED, name="quad", kind="smooth", nonlinearity={"name": "quadratic"})
        exp[field] = value
        cfg = write_config(tmp_path, [exp])
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: quad: {error}" in capsys.readouterr().err

    def test_misspelled_domain_and_root_keys_are_config_errors(self):
        domain = {"kind": "composition", "nonlinearity": {"name": "mackey_glass"}, "domain": {"lower": 0.0, "uper": 1.0}}
        with pytest.raises(ConfigError, match=r"unknown field\(s\) \['uper'\] in domain"):
            parse_config({"experiments": [domain]}, 0)
        with pytest.raises(ConfigError, match=r"unknown field\(s\) \['experiment'\] in the config root"):
            parse_config({"experiment": []}, 0)

    @pytest.mark.parametrize("depth", [900, 10**5])
    def test_deeply_nested_lists_are_config_errors(self, tmp_path, capsys, depth):
        # Each level of a nested list is one level of recursion in json and
        # in the walker; running out of it is exit 2, not a traceback.
        exp = dict(SOLVE_EXPERIMENT, history={"breakpoints": [-1.0, 0.0], "pieces": "X"})
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"experiments": [exp]}).replace('"X"', "[" * depth + "]" * depth))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "recursion" in capsys.readouterr().err


class TestDirectionRule:
    # A build measures its direction with every norm its run sizes a halving
    # schedule with, under the one zero-direction rule.
    HISTORY = {"nonlinearity": {"name": "mackey_glass"}, "history": {"constant": [0.5]}, "count": 3}
    COMPOSITION = {"name": "tiny", "kind": "composition", "nonlinearity": {"name": "mackey_glass"}, "q": 2.0}

    @pytest.mark.parametrize("height", [5e-15, 2e-14])
    def test_composition_direction_below_zero_size_in_a_source_exponent_is_a_config_error(
        self, tmp_path, capsys, height
    ):
        # On [0, 100] the L^2 and L^4 sizes of the constant 5e-15 are 5e-14
        # and 1.6e-14: the continuity probe raised, exit 1.  At 2e-14 they
        # are 2e-13 and 6.3e-14: the smoothness schedule ran below the rule
        # and remainder-decay passed on zero remainders, exit 0.
        domain = {"lower": 0.0, "upper": 100.0}
        exp = dict(self.COMPOSITION, domain=domain, direction={"constant": [height]})
        cfg = write_config(tmp_path, [exp])
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: tiny: direction must be nonzero" in capsys.readouterr().err

    @pytest.mark.parametrize("length", [1.0, 100.0])
    @pytest.mark.parametrize("kind", ["composition", "dependence", "semiflow", "smooth"])
    def test_a_build_rejects_exactly_the_directions_its_run_rejects(self, kind, length):
        if kind == "composition":
            exp = dict(self.COMPOSITION, domain={"lower": 0.0, "upper": length})
        else:
            exp = dict(self.HISTORY, name="tiny", kind=kind, space={"R": length, "p": 2.0, "N": 1})
        (twin,) = parse_config({"experiments": [dict(exp, direction={"constant": [1.0]})]}, 0)
        unit, verdicts = twin.direction, []
        for height in np.geomspace(1e-16, 1e-11, 21):
            try:
                parse_config({"experiments": [dict(exp, direction={"constant": [height]})]}, 0)
                built = True
            except ConfigError as exc:
                assert str(exc) == "tiny: direction must be nonzero"
                built = False
            twin.direction = unit.scale(height)  # the run of the built twin, along this direction
            try:
                cli.run_experiment(twin)
                ran = True
            except ValueError as exc:
                assert str(exc) == "direction must be nonzero"
                ran = False
            assert built == ran, height
            verdicts.append(built)
        assert verdicts[0] is False and verdicts[-1] is True


class TestBreakpointFunctions:
    """A `breakpoints` spec whose ends lie within 1e-9 of its domain is put
    onto the domain; one further off is a config error."""

    @staticmethod
    def experiments(off):
        # Constant pieces have the same coefficients on any interval, so
        # with its ends put back the function is the exact one.
        history = {"breakpoints": [-1.0 - off, -0.4, 0.0 + off], "pieces": [[[0.5]], [[-0.25]]], "endpoint": [1.0]}
        base = {"breakpoints": [0.0 - off, 0.3, 1.0 + off], "pieces": [[[0.2]], [[0.7]]]}
        composition = {"name": "comp", "kind": "composition", "nonlinearity": {"name": "mackey_glass"}, "base": base}
        return [dict(SOLVE_EXPERIMENT, history=history), composition]

    def test_ends_within_the_tolerance_are_put_on_the_domain(self, tmp_path, capsys):
        runs = []
        for off in (0.0, 1e-12):
            cfg = write_config(tmp_path, self.experiments(off), filename=f"config-{off}.json")
            out = tmp_path / f"out-{off}"
            code = main(["verify", "--config", cfg, "--out", str(out)])
            runs.append((code, capsys.readouterr().out, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and len(runs[0][2]) == 3
        history, composition = parse_config({"experiments": self.experiments(1e-12)}, 0)
        assert history.history.domain == (-1.0, 0.0)
        assert composition.base.domain == (0.0, 1.0)

    @pytest.mark.parametrize("which, label", [(0, "history"), (1, "base")])
    def test_ends_further_off_are_config_errors(self, tmp_path, capsys, which, label):
        cfg = write_config(tmp_path, [self.experiments(1e-6)[which]])
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"{label} breakpoints must span" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_breakpoints_a_solve_would_round_together_are_a_config_error(self, tmp_path, capsys):
        # Two ulps apart at -0.5: after three steps of r = 1 the cuts
        # 2.5 + 2.2e-16 and 2.5 round onto one value, where the solver raised
        # "breakpoints must be strictly increasing".  Three steps to 3 allow
        # a gap of 3 * 2^-52 * 3 = 2.0e-15 at least.
        pieces = [[[0.5]], [[1.0]], [[0.25]]]
        history = {"breakpoints": [-1.0, -0.5, -0.49999999999999978, 0.0], "pieces": pieces}
        solve = {"kind": "solve", "nonlinearity": {"name": "saturating"}, "space": {"R": 1.0, "p": 2.0, "N": 1},
                 "delay": 1.0, "horizon": 3.0, "history": history}
        cfg = write_config(tmp_path, [solve])
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "history breakpoints lie 2.22e-16 apart, not above 2e-15" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        # Just above the limit the gaps stay open and the solve runs.
        history["breakpoints"][2] = -0.5 + 2.2e-15
        cfg = write_config(tmp_path, [solve], filename="apart.json")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "apart")]) == 0


class TestSolveCommand:
    def test_frozen_trajectory_spot_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [SOLVE_EXPERIMENT])
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_rows(out / "ramp-trajectory.csv")
        assert header == ["t", "x1"]
        assert len(rows) == 61
        last = rows[-1]
        assert float(last[0]) == pytest.approx(2.0, abs=1e-15)
        assert float(last[1]) == pytest.approx(3.5, abs=1e-7)

    def test_linear_reference_is_the_closed_form_ramp(self):
        # x' = x(t - 1) from 1: x = 1 + t on [0, 1], 3/2 + t^2/2 on [1, 2].
        phi = cli.PiecewiseFunction.constant([1.0], (-1.0, 0.0))
        ts = np.linspace(0.0, 2.0, 41)
        ref = cli._linear_reference([[1.0]], phi, 1.0, 2.0, ts)[:, 0]
        closed = np.where(ts <= 1.0, 1.0 + ts, 1.5 + 0.5 * ts**2)
        np.testing.assert_allclose(ref, closed, rtol=0, atol=1e-15)

    def test_only_linear_solves_claim_the_oracle_gap(self, tmp_path, capsys):
        plane = dict(
            SOLVE_EXPERIMENT,
            name="plane",
            nonlinearity={"name": "linear", "params": {"matrix": [[0.5, -1.0], [2.0, 0.0]]}},
            space={"R": 1.0, "p": 2.0, "N": 2},
            delay=0.6,
            horizon=1.5,
            history={"random": {"pieces": 4, "degree": 3}},
        )
        bent = dict(SOLVE_EXPERIMENT, name="bent", nonlinearity={"name": "saturating"})
        cfg = write_config(tmp_path, [SOLVE_EXPERIMENT, plane, bent])
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "PASS ramp solve.oracle-gap" in out
        assert "PASS plane solve.oracle-gap" in out
        assert "bent solve.oracle-gap" not in out

    def test_oracle_gap_catches_a_wrong_delay(self, tmp_path, capsys, monkeypatch):
        # The solver reads x(t - 0.999 r): its residual and seam claims on
        # ramp-solve of the shipped config still pass, the oracle claim fails.
        from dataclasses import replace

        from ddehist import solver

        real = solver._delayed_rhs
        monkeypatch.setattr(
            solver, "_delayed_rhs", lambda pb, *args: real(replace(pb, r=0.999 * pb.r), *args)
        )
        doc = json.loads((CONFIGS / "verify.json").read_text())
        ramp = [exp for exp in doc["experiments"] if exp["name"] == "ramp-solve"]
        cfg = write_config(tmp_path, ramp)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        out = capsys.readouterr().out
        assert "FAIL ramp-solve solve.oracle-gap" in out
        assert "PASS ramp-solve solve.continuity-defect" in out
        assert "PASS ramp-solve solve.integration-defect" in out

    def test_step_count_beyond_the_limit_is_a_config_error(self, tmp_path, capsys):
        # delay 1e-6 and horizon 10 asked for 10^7 method-of-steps steps and
        # ran without end in sight.
        far = dict(SOLVE_EXPERIMENT, delay=1e-6, horizon=10.0)
        cfg = write_config(tmp_path, [far])
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "10000000 method-of-steps steps, above the limit of 10000" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        with pytest.raises(ConfigError, match="10001 method-of-steps steps"):
            parse_config({"experiments": [dict(SOLVE_EXPERIMENT, delay=0.5, horizon=5000.5)]}, 0)
        (spec,) = parse_config({"experiments": [dict(SOLVE_EXPERIMENT, delay=0.5, horizon=5000.0)]}, 0)
        assert spec.horizon == 5000.0

    def test_solve_command_skips_other_kinds(self, tmp_path):
        cfg = write_config(tmp_path, [SOLVE_EXPERIMENT, DEMO_EXPERIMENT])
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["ramp-trajectory.csv"]

    def test_no_solve_experiments_is_a_clean_noop(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [DEMO_EXPERIMENT])
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert "no experiments" in capsys.readouterr().out


class TestDemoCommand:
    def test_demo_needs_no_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["demo", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "discontinuity.input-gap-analytic" in text
        assert "discontinuity.output-gap-positive" in text
        header, rows = read_rows(out / "demo-gaps.csv")
        assert header == ["n", "input_gap", "analytic_gap", "output_gap"]
        assert rows[0][0] == "1"
        # Output gap |f(1) - f(0)| = 1 for the cubic, on every row.
        assert {row[3] for row in rows} == {"1"}

    def test_demo_with_config_runs_only_discontinuity_kinds(self, tmp_path):
        cfg = write_config(tmp_path, [SOLVE_EXPERIMENT, DEMO_EXPERIMENT])
        out = tmp_path / "out"
        assert main(["demo", "--config", cfg, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["jump-gaps.csv"]

    def test_demo_input_gaps_match_the_analytic_law(self, tmp_path):
        out = tmp_path / "out"
        assert main(["demo", "--out", str(out)]) == 0
        _, rows = read_rows(out / "demo-gaps.csv")
        for row in rows:
            n = int(row[0])
            expected = min(-0.5 + 1.0 / n, 0.0) - max(-0.5 - 1.0 / n, -1.0)
            assert float(row[1]) == pytest.approx(expected, abs=1e-15)


    def test_discontinuity_input_gaps_in_n_components(self, tmp_path, capsys):
        # The indicator has height 1 in each of N = 3 components, so its
        # seminorm is sqrt(3) w^(1/p); the scalar w^(1/p) was off by
        # sqrt(3) - 1 = 0.732 on every row.  With R = 3 and r = 1.5 the
        # k-th indicator is w = 2 / 4^k wide, as in the test below.
        experiment = dict(
            DEMO_EXPERIMENT,
            nonlinearity={"name": "cubic", "params": {"dim": 3}},
            space={"R": 3.0, "p": 3.0, "N": 3},
            delay=1.5,
        )
        cfg = write_config(tmp_path, [experiment])
        assert main(["demo", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert "PASS jump discontinuity.input-gap-analytic" in capsys.readouterr().out
        _, rows = read_rows(tmp_path / "out" / "jump-gaps.csv")
        assert len(rows) == 16
        for row in rows:
            width = 2.0 / int(row[0])
            assert float(row[2]) == pytest.approx(math.sqrt(3.0) * width ** (1.0 / 3.0), rel=1e-15)
            assert float(row[1]) == pytest.approx(float(row[2]), rel=1e-12)

    def test_discontinuity_at_p3_certifies_the_input_gap_decay(self, tmp_path, capsys):
        # With R = 3 and r = 1.5 every indicator lies inside [-R, 0], so the
        # input gaps are exactly (2 / 4^k)^(1/3): they fall by 2^(-2/3) per
        # row, and by 2^-10 over the default ceil(5p) = 15 halvings.
        experiment = dict(DEMO_EXPERIMENT, space={"R": 3.0, "p": 3.0, "N": 1}, delay=1.5)
        cfg = write_config(tmp_path, [experiment])
        assert main(["demo", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert "PASS jump discontinuity.input-gap-decay" in capsys.readouterr().out
        _, rows = read_rows(tmp_path / "out" / "jump-gaps.csv")
        assert len(rows) == 16


class TestOutputPrecedence:
    def test_config_beats_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_dir = tmp_path / "cfg"
        cfg = write_config(tmp_path, [DEMO_EXPERIMENT], extra={"out": str(cfg_dir)})
        assert main(["verify", "--config", cfg]) == 0
        assert cfg_dir.exists()
        assert not (tmp_path / "out").exists()

    def test_default_is_out_under_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, [DEMO_EXPERIMENT])
        assert main(["verify", "--config", cfg]) == 0
        assert (tmp_path / "out" / "jump-gaps.csv").exists()

    @pytest.mark.parametrize("out", [5, ["d"], None, True])
    def test_non_string_out_is_a_config_error(self, tmp_path, monkeypatch, capsys, out):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, [DEMO_EXPERIMENT], extra={"out": out})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "out must be a string" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]
        with pytest.raises(ConfigError, match="out"):
            parse_config({"out": out, "experiments": []}, 0)

    @pytest.mark.parametrize("flag", [False, True])
    def test_empty_out_is_a_config_error(self, tmp_path, monkeypatch, capsys, flag):
        # An empty --out is not skipped in favour of the config or ./out.
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, [DEMO_EXPERIMENT], extra=None if flag else {"out": ""})
        assert main(["verify", "--config", cfg] + (["--out", ""] if flag else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("config error:")
        assert flag or "out must not be empty" in captured.err
        assert os.listdir(tmp_path) == ["config.json"]

    def test_out_naming_a_file_is_a_config_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        assert main(["demo", "--out", str(taken)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:") and str(taken) in captured.err
        assert taken.read_text() == "kept"

    def test_unwritable_csv_is_a_config_error(self, tmp_path, capsys):
        # The directory exists, but the table's path is a directory: no
        # claim line is printed before the tables are written.
        (tmp_path / "demo-gaps.csv").mkdir()
        assert main(["demo", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:") and "demo-gaps.csv" in captured.err


# Signed zeros, subnormals, infinities, nan, and values that need all 17
# significant digits to round-trip.
SPECIAL_FLOATS = [
    (0.0, -0.0),
    (5e-324, 1e-320),
    (math.inf, -math.inf),
    (math.nan, 0.1),
    (1 / 3, 0.1 + 0.2),
    (2.0**0.5, 1.7976931348623157e308),
    (float(4**20), -2.2250738585072014e-308),
]
FLOAT_CELLS = st.floats() | st.floats().map(np.float64)
INT_CELLS = st.integers(-(2**63), 2**63 - 1) | st.integers(-(2**63), 2**63 - 1).map(np.int64)


@st.composite
def csv_tables(draw):
    """(header, rows) with 1 + N columns for N in {1, 3}, each column all
    floats or all integers; rows a list of tuples, or a 2-D array when every
    column has one type."""
    n = draw(st.sampled_from((1, 3)))
    kinds = draw(st.lists(st.sampled_from((float, int)), min_size=n + 1, max_size=n + 1))
    rows = draw(st.lists(st.tuples(*(FLOAT_CELLS if k is float else INT_CELLS for k in kinds)), max_size=12))
    header = ["t"] + [f"x{j + 1}" for j in range(n)]
    if len(set(kinds)) == 1 and draw(st.booleans()):
        rows = np.array(rows, dtype=np.float64 if kinds[0] is float else np.int64).reshape(len(rows), n + 1)
    return header, rows


class TestDeterminism:
    RANDOMIZED = {
        "name": "probe",
        "kind": "dependence",
        "nonlinearity": {"name": "mackey_glass"},
        "space": {"R": 1.0, "p": 2.0, "N": 1},
        "delay": 0.8,
        "horizon": 0.8,
        "history": {"random": {"scale": 0.5}},
        "direction": {"random": {"scale": 1.0}},
        "count": 12,
    }

    def test_same_seed_gives_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path, [self.RANDOMIZED, DEMO_EXPERIMENT])
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--config", cfg, "--out", str(a), "--seed", "9"]) == 0
        assert main(["verify", "--config", cfg, "--out", str(b), "--seed", "9"]) == 0
        for path in sorted(a.iterdir()):
            assert path.read_bytes() == (b / path.name).read_bytes()

    def test_two_runs_give_identical_stdout_and_csvs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [self.RANDOMIZED, DEMO_EXPERIMENT, SOLVE_EXPERIMENT])
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--config", cfg, "--out", str(a), "--seed", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--config", cfg, "--out", str(b), "--seed", "4"]) == 0
        assert capsys.readouterr().out == first
        assert sorted(p.name for p in a.iterdir()) == sorted(p.name for p in b.iterdir())
        for path in sorted(a.iterdir()):
            assert path.read_bytes() == (b / path.name).read_bytes()

    def test_experiments_run_on_the_main_thread(self, tmp_path, monkeypatch):
        threads, run = [], cli.run_experiment

        def recording_run(spec):
            threads.append(threading.current_thread())
            return run(spec)

        monkeypatch.setattr(cli, "run_experiment", recording_run)
        cfg = write_config(tmp_path, [DEMO_EXPERIMENT, SOLVE_EXPERIMENT])
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert threads == [threading.main_thread()] * 2

    def test_different_seed_moves_random_experiments(self, tmp_path):
        cfg = write_config(tmp_path, [self.RANDOMIZED])
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--config", cfg, "--out", str(a), "--seed", "1"]) == 0
        assert main(["verify", "--config", cfg, "--out", str(b), "--seed", "2"]) == 0
        assert (a / "probe-gaps.csv").read_bytes() != (b / "probe-gaps.csv").read_bytes()

    def test_csv_floats_carry_full_precision(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["v"], [(0.1,), (1.0 / 3.0,)])
        text = path.read_text()
        assert text == "v\n0.10000000000000001\n0.33333333333333331\n"
        assert "\r" not in text

    @settings(max_examples=60, deadline=None)
    @given(table=csv_tables())
    @example(table=(["t", "x1"], SPECIAL_FLOATS))
    @example(table=(["t", "x1"], np.array(SPECIAL_FLOATS)))
    @example(table=(["n", "x1", "x2", "x3"], [(4**20, 0.1, -0.0, math.nan), (np.int64(1), np.float64(1 / 3), -math.inf, 5e-324)]))
    @example(table=(["n", "x1"], np.array([[4**20, -1], [0, 2**62]])))
    @example(table=(["t", "x1", "x2", "x3"], []))
    @example(table=(["t", "x1"], np.empty((0, 2))))
    def test_write_csv_matches_the_per_cell_reference(self, tmp_path_factory, table):
        header, rows = table
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, header, rows)
        assert path.read_bytes() == oracles.csv_text(header, rows).encode("ascii")

    def test_main_can_be_called_again_in_one_process(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [self.RANDOMIZED, DEMO_EXPERIMENT])

        def run(name, *extra):
            out = tmp_path / name
            rc = main(["verify", "--config", cfg, "--out", str(out), *extra])
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
            return rc, capsys.readouterr(), files

        first = run("first", "--seed", "5")
        unseeded = run("unseeded")
        jobs = run("jobs", "--jobs", "2")
        again = run("again", "--seed", "5")
        zero = run("zero", "--seed", "0")
        assert unseeded[2] == zero[2] != first[2]
        assert jobs[0] == 2 and "--jobs must be 1" in jobs[1].err and not jobs[2]
        assert (again[0], again[1].out, again[2]) == (first[0], first[1].out, first[2])


class TestClaim:
    # `judge` on table rows made here: a bound of 1 at the slack 1e-8.
    SLACK = ClaimSpec("c", "<=", 1e-8)

    def test_measured_below_limit_passes(self):
        claim = judge("e", self.SLACK, (0.97, 1.0))
        assert claim.passed
        assert claim.line() == "PASS e c measured=0.97 <= limit=1"

    def test_measured_above_limit_fails(self):
        assert not judge("e", self.SLACK, (1.2, 1.0)).passed
        assert not judge("e", ClaimSpec("c", ">="), (0.5, 1.0)).passed

    def test_slack_absorbs_rounding(self):
        assert judge("e", self.SLACK, (1.0 + 5e-9, 1.0)).passed
        assert not judge("e", ClaimSpec("c", "<="), (1.0 + 5e-9, 1.0)).passed

    def test_tolerance_scales_with_the_named_operand(self):
        spec = ClaimSpec("c", "<=", 1e-9, "size")
        claim = judge("e", spec, 5e-7, {"size": 1e3})
        assert claim.passed and (claim.limit, claim.scale) == (1e-9 * 1e3, 1e3)
        assert not judge("e", spec, 5e-7, {"size": 1.0}).passed
        assert judge("e", ClaimSpec("c", "<=", 1e-8, "bound"), (1e6 + 5e-3, 1e6)).passed

    def test_decay_reports_the_certificate_nearest_its_limit(self):
        spec = ClaimSpec("c", "decay")
        fast, slow = certify_decay(0.25 ** np.arange(13)), certify_decay(0.5 ** np.arange(13))
        claim = judge("e", spec, (fast, slow))
        assert claim.passed
        assert (claim.measured, claim.limit) == (slow.final_over_reference, slow.final_limit)
        flat = certify_decay(np.ones(13))
        claim = judge("e", spec, (fast, flat, slow))
        assert not flat.passed and not claim.passed
        assert (claim.measured, claim.limit) == (1.0, flat.final_limit)

    def test_a_noise_floor_pass_prints_the_relation_it_judged(self):
        claim = judge("e", ClaimSpec("c", "decay"), certify_decay(np.array([3e-13, 9e-13, 1e-13, 2e-13])))
        assert claim.passed
        assert claim.line() == "PASS e c measured=9e-13 <= limit=1e-12"


class TestScaledTolerances:
    # cubic with R = delay = horizon = 1e6, p = 12, and history and direction
    # 1e6: every field lies in its range, and the solution reaches about 1e24.
    # The integration defect (2304) and the deviation excess (5.4e8) are
    # rounding at that size, against limits of 1e18 and 7e16.
    VAST = {"nonlinearity": {"name": "cubic"}, "space": {"R": 1e6, "p": 12.0, "N": 1}, "delay": 1e6, "horizon": 1e6,
            "history": {"constant": [1e6]}}

    def test_a_solution_of_size_1e24_passes_its_rounding_claims(self, tmp_path, capsys):
        solve = dict(self.VAST, name="vast-solve", kind="solve")
        dependence = dict(self.VAST, name="vast-dependence", kind="dependence", direction={"constant": [1e6]})
        cfg = write_config(tmp_path, [solve, dependence])
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "PASS vast-solve solve.integration-defect" in out
        assert "PASS vast-dependence dependence.deviation-l1-bound" in out


class TestFailurePropagation:
    # The stated one-step dependence constant is beaten by short pulses
    # near the delay; the corrected product constant absorbs them.
    LIPSCHITZ = {
        "name": "lip",
        "kind": "lipschitz",
        "nonlinearity": {"name": "linear", "params": {"matrix": [[3.0]]}},
        "space": {"R": 1.0, "p": 1.0, "N": 1},
        "delay": 0.8,
        "horizon": 0.5,
        "history": {"constant": [0.0]},
        "instances": 9,
        "scale": 0.5,
        "adversarial": True,
    }

    def test_falsified_bound_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [self.LIPSCHITZ])
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        out = capsys.readouterr().out
        assert "FAIL lip lipschitz.stated-constant" in out
        assert "PASS lip lipschitz.corrected-constant" in out

    @pytest.mark.parametrize("scale", [0.0, -0.8, 2e6])
    def test_lipschitz_scale_outside_its_range_is_a_config_error(self, tmp_path, capsys, scale):
        cfg = write_config(tmp_path, [dict(self.LIPSCHITZ, scale=scale)])
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "scale must lie in (0, 1e6]" in capsys.readouterr().err

    def test_lipschitz_run_keeping_no_instance_fails_both_claims(self, tmp_path, capsys):
        # At scale 1e-14 every input gap is below 1e-13, so no instance is
        # kept: with no ratio measured, neither constant is confirmed.
        exp = dict(self.LIPSCHITZ, scale=1e-14, adversarial=False)
        cfg = write_config(tmp_path, [exp])
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        text = capsys.readouterr().out
        assert "FAIL lip lipschitz.stated-constant measured=nan" in text
        assert "FAIL lip lipschitz.corrected-constant measured=nan" in text
        assert (out / "lip-ratios.csv").read_text() == "instance,input_gap,output_gap,ratio\n"

    def test_summary_counts_failures(self, tmp_path, capsys):
        exp = {
            "name": "lip",
            "kind": "lipschitz",
            "nonlinearity": {"name": "linear", "params": {"matrix": [[3.0]]}},
            "space": {"R": 1.0, "p": 1.0, "N": 1},
            "delay": 0.8,
            "horizon": 0.5,
            "instances": 6,
        }
        cfg = write_config(tmp_path, [exp, DEMO_EXPERIMENT])
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "claims failed" in capsys.readouterr().out


class TestSemiflowExperiment:
    def test_semiflow_tables_and_claims(self, tmp_path, capsys):
        exp = {
            "name": "flow",
            "kind": "semiflow",
            "nonlinearity": {"name": "saturating"},
            "space": {"R": 1.0, "p": 2.0, "N": 1},
            "delay": 0.8,
            "history": {"constant": [0.4]},
            "direction": {"constant": [1.0]},
            "count": 12,
        }
        cfg = write_config(tmp_path, [exp])
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "flow-axioms.csv",
            "flow-modulus-1.csv",
            "flow-modulus-2.csv",
            "flow-remainder.csv",
        ]
        header, rows = read_rows(out / "flow-axioms.csv")
        assert header == ["t", "s", "defect"]
        assert len(rows) == 16
        assert all(float(row[2]) <= 1e-9 for row in rows)
