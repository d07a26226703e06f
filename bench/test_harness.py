"""Self-checks of the benchmark harness.

    python3 -m pytest -q bench/test_harness.py

Each workload runs once on its reduced (--short) input.  Every correctness
check must pass on the real outputs and must report a problem when one value
it looks at is perturbed, so that no check passes vacuously.  Tracing must
leave no wrapper behind.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from ddehist import cli, funcrep, histspace, solver  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(name):
    workload = WORKLOADS[name]
    out = []
    for inv in workload.build(seed=5, short=True):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(inv.argv)
        out.append((inv, rc, buf.getvalue()))
    return workload, out


@pytest.fixture(scope="module")
def runs():
    return {name: _run(name) for name in WORKLOADS}


def _find(out, table):
    """The run that wrote `table`.csv."""
    return next(run for run in out if (run[0].out_dir / f"{table}.csv").exists())


def _copy(inv, tmp_path):
    target = tmp_path / "out"
    shutil.copytree(inv.out_dir, target)
    return type(inv)(inv.argv, target, inv.doc)


def _perturb(path, col, row, change):
    lines = path.read_text(encoding="ascii").splitlines()
    index = lines[0].split(",").index(col)
    cells = lines[row + 1].split(",")
    cells[index] = "%.17g" % change(float(cells[index]))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_real_outputs_pass(runs, name):
    workload, out = runs[name]
    all_failed = []
    for inv, rc, stdout in out:
        names, failed, problems = workload.check(inv, rc, stdout)
        assert problems == []
        assert names
        all_failed += failed
    assert all_failed == (["cubic-jump-p3"] if name == "odd-exponent" else [])


# (workload, csv file, column, row, change): one value each check reads.
PERTURBATIONS = [
    ("verify-suite", "ramp-solve-trajectory", "x1", 700, lambda v: v + 1e-9),
    ("verify-suite", "ramp-solve-trajectory", "t", 10, lambda v: v + 1e-6),
    ("verify-suite", "mg-dependence-gaps", "input_gap", 6, lambda v: v * (1 + 1e-10)),
    ("verify-suite", "mg-dependence-gaps", "scale", 3, lambda v: v * 1.5),
    ("verify-suite", "sat-lipschitz-ratios", "ratio", 2, lambda v: v * (1 + 1e-10)),
    ("verify-suite", "sat-lipschitz-ratios", "output_gap", 4, lambda v: v * 3.0),
    ("verify-suite", "quad-smooth-remainder", "scale", 12, lambda v: v * (1 - 1e-10)),
    ("verify-suite", "mg-composition-continuity", "input_gap", 0, lambda v: v * (1 + 1e-10)),
    ("verify-suite", "mg-composition-smoothness", "scale", 5, lambda v: v * (1 + 1e-10)),
    ("verify-suite", "sat-semiflow-modulus-2", "input_gap", 9, lambda v: v * (1 + 1e-10)),
    ("verify-suite", "sat-semiflow-remainder", "scale", 1, lambda v: v * (1 + 1e-10)),
    ("verify-suite", "cubic-jump-gaps", "input_gap", 7, lambda v: v * (1 + 1e-10)),
    ("verify-suite", "cubic-jump-gaps", "output_gap", 3, lambda v: v + 1e-12),
    ("verify-suite", "cubic-jump-gaps", "n", 2, lambda v: v + 1),
    ("odd-exponent", "cubic-jump-p3-gaps", "input_gap", 12, lambda v: v * (1 + 1e-10)),
    ("odd-exponent", "sat-semiflow-p2.5-modulus-1", "input_gap", 4, lambda v: v * (1 - 1e-10)),
    ("long-horizon", "mackey_glass-T80-trajectory", "x1", 300, lambda v: v + 1e-6),
    ("long-horizon", "saturating-T10-trajectory", "x1", 30, lambda v: v * (1 + 1e-7)),
]


@pytest.mark.parametrize("name,table,col,row,change", PERTURBATIONS)
def test_each_check_sees_a_perturbed_value(runs, tmp_path, name, table, col, row, change):
    workload, out = runs[name]
    inv, rc, stdout = _find(out, table)
    inv = _copy(inv, tmp_path)
    _perturb(inv.out_dir / f"{table}.csv", col, row, change)
    _, _, problems = workload.check(inv, rc, stdout)
    assert problems, f"a perturbed {table}.{col} passed"


def test_a_missing_table_is_reported(runs, tmp_path):
    workload, out = runs["verify-suite"]
    inv, rc, stdout = _find(out, "quad-smooth-remainder")
    inv = _copy(inv, tmp_path)
    (inv.out_dir / "quad-smooth-remainder.csv").unlink()
    assert workload.check(inv, rc, stdout)[2]


@pytest.mark.parametrize(
    "edit",
    [
        lambda s, rc: (s.replace("PASS mg-dependence", "FAIL mg-dependence", 1), rc),
        lambda s, rc: (s, 1 - rc if rc in (0, 1) else 0),
        lambda s, rc: ("\n".join(l for l in s.splitlines() if "mg-dependence" not in l), rc),
        lambda s, rc: (s.rsplit("\n", 2)[0] + "\nall 0 claims passed\n", rc),
    ],
)
def test_claim_verdicts_are_checked(runs, edit):
    workload, out = runs["verify-suite"]
    inv, rc, stdout = _find(out, "mg-dependence-gaps")
    stdout, rc = edit(stdout, rc)
    assert workload.check(inv, rc, stdout)[2]


def test_known_fault_counts_as_failed_only_alone():
    lines = [
        "PASS x discontinuity.input-gap-analytic measured=0 <= limit=1e-12",
        "FAIL x discontinuity.input-gap-decay measured=0.00123 <= limit=0.001",
    ]
    failed, problems = checks.classify(["x"], 1, "\n".join(lines + ["1 of 2 claims failed"]))
    assert failed == ["x"] and problems == []
    lines[0] = "FAIL" + lines[0][4:]
    failed, problems = checks.classify(["x"], 1, "\n".join(lines + ["2 of 2 claims failed"]))
    assert failed == [] and problems


def test_stated_constant_verdict_must_match_the_ratios():
    exp = {"name": "lip", "horizon": 0.5, "space": {"R": 1.0}, "nonlinearity": {"name": "saturating"}}
    gin = np.array([1.0, 2.0])
    table = (["instance", "input_gap", "output_gap", "ratio"], np.column_stack([[0, 1], gin, gin * [1.75, 1.2], [1.75, 1.2]]))
    assert checks.check_lipschitz(table, exp, stated_failed=True) == []
    assert checks.check_lipschitz(table, exp, stated_failed=False)
    above = (table[0], table[1] * [1, 1, 2, 2])
    assert checks.check_lipschitz(above, exp, stated_failed=True)


def test_tracer_removes_its_wrappers():
    originals = (cli.solve, cli.lp_norm, histspace.lp_norm, funcrep.PiecewiseFunction.__dict__["__call__"])
    assert spans.wrapped_attributes() == []
    with spans.Tracer() as tracer:
        assert cli.solve is not originals[0] and histspace.lp_norm is not originals[2]
        assert len(spans.wrapped_attributes()) > 20
        phi = histspace.HistoryElement.constant([1.0], 1.0)
        cfg = histspace.HistoryConfig(R=1.0, p=3.0, N=1)
        traj = solver.solve(solver.Problem(cfg, cli.make("linear", matrix=[[1.0]]), 1.0, phi), 2.0)
        histspace.seminorm(phi, cfg)
        traj.x(np.linspace(0.0, 2.0, 5))
    names = {s.name for s in tracer.spans}
    assert {"solver.solve", "funcrep.construct", "funcrep.eval", "histspace.seminorm", "funcrep.lp_norm.split"} <= names
    evals = [s for s in tracer.spans if s.name == "funcrep.eval" and s.parent is None]
    assert evals[-1].note == {"points": 5}
    assert all(s.self_s >= 0 for s in tracer.spans)
    assert spans.wrapped_attributes() == []
    assert (cli.solve, cli.lp_norm, histspace.lp_norm, funcrep.PiecewiseFunction.__dict__["__call__"]) == originals


def test_tracer_restores_after_an_exception():
    with pytest.raises(ValueError), spans.Tracer():
        solver.solve(None, -1.0)
    assert spans.wrapped_attributes() == []


def test_verify_runs_match_a_whole_config_run(runs, tmp_path):
    """One experiment from its own config gives the bytes of the whole config."""
    workload, out = runs["odd-exponent"]
    seed = int(out[0][0].argv[out[0][0].argv.index("--seed") + 1])
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["verify", "--config", str(workload.config), "--seed", str(seed), "--out", str(tmp_path), "--jobs", "1"])
    for inv, _, _ in out:
        for path in inv.out_dir.glob("*.csv"):
            assert path.read_bytes() == (tmp_path / path.name).read_bytes()


def test_calibration_rescales_to_the_reference_speed():
    ref = calibrate.REFERENCE_S
    assert calibrate.rescale(2.0, [ref, 9 * ref, ref]) == pytest.approx(2.0)
    assert calibrate.rescale(2.0, [4 * ref, 2 * ref, 6 * ref]) == pytest.approx(0.5)
    assert calibrate.kernel() > 0


def test_a_timed_round_times_the_kernel_between_cli_runs(monkeypatch):
    workload = WORKLOADS["verify-suite"]
    invocations = workload.build(seed=5, short=True)
    kernels = []
    monkeypatch.setattr(calibrate, "EVERY_S", 0.0)
    with contextlib.redirect_stdout(io.StringIO()):
        times, outputs = run.run_round(cli, invocations[:2], kernels)
    assert len(times) == len(outputs) == 2 and len(kernels) == 3
    monkeypatch.setattr(calibrate, "EVERY_S", 1e9)
    with contextlib.redirect_stdout(io.StringIO()):
        run.run_round(cli, invocations[:2], kernels)
    assert len(kernels) == 4


def test_metric_names_match_benchmark_json():
    import json

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in doc["per_layer"]] == list(spans.layer_metrics([], 0))
    units = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert units == {k: u for k, (_, u) in spans.layer_metrics([], 0).items()}
    assert set(WORKLOADS) == {w["name"] for w in doc["workloads"]}
