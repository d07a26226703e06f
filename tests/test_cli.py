"""CLI tests: config parsing, exit codes, output precedence, determinism.

The driver is exercised in-process through main(argv) so the tests stay
fast; file outputs go to pytest temporary directories.
"""

import json
import os
import threading

import numpy as np
import pytest

from ddehist import cli
from ddehist.certify import certify_decay
from ddehist.cli import Claim, ConfigError, main, parse_config, write_csv

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
    def test_flag_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DDEHIST_OUT", str(tmp_path / "env"))
        flag_dir = tmp_path / "flag"
        assert main(["demo", "--out", str(flag_dir)]) == 0
        assert flag_dir.exists()
        assert not (tmp_path / "env").exists()

    def test_environment_beats_config(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        monkeypatch.setenv("DDEHIST_OUT", str(env_dir))
        cfg = write_config(
            tmp_path, [DEMO_EXPERIMENT], extra={"out": str(tmp_path / "cfg")}
        )
        assert main(["verify", "--config", cfg]) == 0
        assert env_dir.exists()
        assert not (tmp_path / "cfg").exists()

    def test_config_beats_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DDEHIST_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        cfg_dir = tmp_path / "cfg"
        cfg = write_config(tmp_path, [DEMO_EXPERIMENT], extra={"out": str(cfg_dir)})
        assert main(["verify", "--config", cfg]) == 0
        assert cfg_dir.exists()
        assert not (tmp_path / "out").exists()

    def test_default_is_out_under_cwd(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DDEHIST_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, [DEMO_EXPERIMENT])
        assert main(["verify", "--config", cfg]) == 0
        assert (tmp_path / "out" / "jump-gaps.csv").exists()


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


class TestClaim:
    def test_measured_below_limit_passes(self):
        claim = Claim.bound("e", "c", 0.97, 1.0, slack=1e-8)
        assert claim.passed
        assert claim.line() == "PASS e c measured=0.97 <= limit=1"

    def test_measured_above_limit_fails(self):
        assert not Claim.bound("e", "c", 1.2, 1.0, slack=1e-8).passed
        assert not Claim.bound("e", "c", 0.5, 1.0, relation=">=").passed

    def test_slack_absorbs_rounding(self):
        assert Claim.bound("e", "c", 1.0 + 5e-9, 1.0, slack=1e-8).passed
        assert not Claim.bound("e", "c", 1.0 + 5e-9, 1.0).passed

    def test_decay_reports_the_certificate_nearest_its_limit(self):
        fast, slow = certify_decay(0.25 ** np.arange(13)), certify_decay(0.5 ** np.arange(13))
        claim = Claim.decay("e", "c", fast, slow)
        assert claim.passed
        assert (claim.measured, claim.limit) == (slow.final_over_reference, slow.final_limit)
        flat = certify_decay(np.ones(13))
        claim = Claim.decay("e", "c", fast, flat, slow)
        assert not flat.passed and not claim.passed
        assert (claim.measured, claim.limit) == (1.0, flat.final_limit)


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
